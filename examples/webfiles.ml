(* A multi-user web-server scenario (the paper's §2.3 motivation): a wiki's
   files (www-data, 644) next to two databases with private data
   directories (mysql 640/750, postgres 600/700).  Shows how files group
   into coffers by permission, and that coffer-granularity protection
   isolates the users from each other.

     dune exec examples/webfiles.exe *)

module V = Treasury.Vfs
module K = Treasury.Kernfs

let ok = function
  | Ok v -> v
  | Error e -> failwith ("webfiles: " ^ Treasury.Errno.to_string e)

let uid_wiki = 33 (* www-data *)
let uid_mysql = 970
let uid_pg = 969

let () =
  let _dev, kfs =
    Workloads.Fslab.make_zofs ~root_mode:0o777 ~pages:65536 ~perf:Nvm.Perf.optane ()
  in
  let fslib () = Workloads.Fslab.zofs_fslib kfs in
  let as_user uid f =
    Sim.run_thread ~proc:(Sim.Proc.create ~uid ~gid:uid ()) (fun () -> f (fslib ()))
  in

  (* Shared parents, world-writable like /var on a fresh install. *)
  as_user 0 (fun fs ->
      ok (V.mkdir_p fs "/var/www" 0o777);
      ok (V.mkdir_p fs "/var/lib" 0o777));

  (* Each service populates its own data directory. *)
  as_user uid_wiki (fun fs -> ok (Survey.Appdirs.populate_dokuwiki ~scale:40 fs "/var/www/wiki"));
  as_user uid_mysql (fun fs -> ok (Survey.Appdirs.populate_mysql fs "/var/lib/mysql"));
  as_user uid_pg (fun fs -> ok (Survey.Appdirs.populate_postgres fs "/var/lib/pgsql"));

  (* The survey tool (Table 3 of the paper) over the whole tree. *)
  Sim.run_thread ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ()) (fun () ->
      let fs = fslib () in
      Printf.printf "%-12s %-10s %-6s %-9s %8s\n" "System" "Type" "Perm"
        "Uid/Gid" "# Files";
      List.iter
        (fun (system, root) ->
          List.iter
            (fun r ->
              Printf.printf "%-12s %-10s %-6o %4d/%-4d %8d\n" system
                (Treasury.Fs_types.kind_to_string r.Survey.Appdirs.r_kind)
                r.Survey.Appdirs.r_perm r.Survey.Appdirs.r_uid
                r.Survey.Appdirs.r_gid r.Survey.Appdirs.r_count)
            (Survey.Appdirs.scan fs ~system root))
        [
          ("DokuWiki", "/var/www/wiki");
          ("MySQL", "/var/lib/mysql");
          ("PostgreSQL", "/var/lib/pgsql");
        ]);

  (* How many coffers did this create, and who owns them? *)
  Sim.run_thread (fun () ->
      ignore (K.fs_mount kfs);
      let coffers = ok (K.list_coffers kfs) in
      Printf.printf "\n%d coffers in the file system; a sample:\n"
        (List.length coffers);
      List.iteri
        (fun i c ->
          if i < 8 then
            Printf.printf "  coffer %-5d mode %-4o uid %-4d %s\n"
              c.Treasury.Coffer.id c.Treasury.Coffer.mode c.Treasury.Coffer.uid
              c.Treasury.Coffer.path)
        (List.sort (fun a b -> compare a.Treasury.Coffer.path b.Treasury.Coffer.path) coffers);
      ignore (K.fs_umount kfs));

  (* Isolation: the wiki user cannot read the databases. *)
  as_user uid_wiki (fun fs ->
      (match V.read_file fs "/var/lib/pgsql/base01/rel00028" with
      | Error e ->
          Printf.printf "\nwww-data reading postgres data: %s (as it should be)\n"
            (Treasury.Errno.to_string e)
      | Ok _ -> print_endline "UNEXPECTED: wiki user read postgres data");
      (* ...but serves its own files fast, entirely in user space *)
      let t0 = Sim.now () in
      let served = ref 0 in
      (match V.readdir fs "/var/www/wiki/ns0001" with
      | Ok entries ->
          List.iter
            (fun d ->
              match V.read_file fs ("/var/www/wiki/ns0001/" ^ d.Treasury.Fs_types.d_name) with
              | Ok _ -> incr served
              | Error _ -> ())
            entries
      | Error _ -> ());
      Printf.printf "served %d wiki pages in %.1f us of simulated time\n" !served
        (float_of_int (Sim.now () - t0) /. 1000.0));
  print_endline "webfiles: done"
