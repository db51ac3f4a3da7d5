(* Offline recovery tool (paper §3.5 / §5.3).

     dune exec bin/zofs_fsck.exe -- --image fs.img     # check a saved image
     dune exec bin/zofs_fsck.exe -- --demo             # corrupt-and-repair demo *)

module V = Treasury.Vfs
module K = Treasury.Kernfs

(* Recovery's scan reads the inline slots above each page's hwm for the
   audit, but repairs nothing there: no reader sees those dentries, so it
   leaves them where they are and reclaims their files' pages. *)
let print_hwm_audit (r : Zofs.Recovery.report) =
  let found = Zofs.Recovery.hwm_audit r in
  Printf.printf "dentries above hwm:     %d\n" (List.length found);
  List.iter
    (fun (dir, addr) -> Printf.printf "  - %s: inline slot at 0x%x\n" dir addr)
    found

(* The coffers are scanned in parallel, so the user/kernel split is a sum
   over coffers, not elapsed time. *)
let print_report (r : Zofs.Recovery.report) =
  Printf.printf
    "coffers scanned:        %d\n\
     pages in use:           %d\n\
     pages reclaimed:        %d\n\
     dentries dropped:       %d\n\
     root inodes reinit'd:   %d\n\
     cross-refs checked:     %d\n\
     cross-refs repaired:    %d\n\
     cross-refs dropped:     %d\n\
     simulated time:         %.1f us elapsed\n\
     summed over coffers:    %.1f us (%.1f user + %.1f kernel)\n"
    r.Zofs.Recovery.coffers_scanned r.Zofs.Recovery.pages_in_use
    r.Zofs.Recovery.pages_reclaimed
    (Zofs.Recovery.dentries_dropped r)
    (Zofs.Recovery.inodes_reinitialized r)
    r.Zofs.Recovery.cross_refs_checked
    (Zofs.Recovery.cross_refs_repaired r)
    (Zofs.Recovery.cross_refs_dropped r)
    (float_of_int r.Zofs.Recovery.wall_ns /. 1e3)
    (float_of_int (r.Zofs.Recovery.user_ns + r.Zofs.Recovery.kernel_ns) /. 1e3)
    (float_of_int r.Zofs.Recovery.user_ns /. 1e3)
    (float_of_int r.Zofs.Recovery.kernel_ns /. 1e3);
  (match Zofs.Recovery.findings r with
  | [] -> print_endline "findings:               none"
  | fs ->
      Printf.printf "findings:               %d\n" (List.length fs);
      List.iter
        (fun f -> Printf.printf "  - %s\n" (Zofs.Recovery.finding_to_string f))
        fs);
  (* auto-dump armed below: a coffer leaving Healthy during the scan writes
     a flight-recorder post-mortem — point the reader at it *)
  match Obs.Flight.last_dump_path () with
  | Some p -> Printf.printf "flight-recorder dump:   %s\n" p
  | None -> ()

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let check_image path =
  Obs.enable ();
  Obs.Flight.set_autodump true;
  if not (Sys.file_exists path) then die "no such image: %s" path;
  let dev =
    match Nvm.Device.load_image path with
    | Ok dev -> dev
    | Error e -> die "%s: %s" path e
  in
  let mpk = Mpk.create dev in
  let kfs = try K.mount dev mpk with Failure e -> die "%s: %s" path e in
  let report =
    Sim.run_thread ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ()) (fun () ->
        Zofs.Recovery.recover_all ~audit:true kfs)
  in
  print_hwm_audit report;
  print_report report;
  Nvm.Device.save_image dev path;
  Printf.printf "repaired image written back to %s\n" path

let ok = function
  | Ok v -> v
  | Error e -> failwith (Treasury.Errno.to_string e)

let demo () =
  Obs.enable ();
  Obs.Flight.set_autodump true;
  print_endline "demo: building a file system, corrupting it, repairing it";
  let dev, kfs = Workloads.Fslab.make_zofs ~pages:16384 ~perf:Nvm.Perf.optane () in
  let mpk = K.mpk kfs in
  let proc = Sim.Proc.create ~uid:0 ~gid:0 () in
  Sim.run_thread ~proc (fun () ->
      let fs = Workloads.Fslab.zofs_fslib kfs in
      for i = 0 to 49 do
        ok (V.write_file fs (Printf.sprintf "/f%02d" i) (String.make 5000 'x'))
      done;
      (* corrupt three random dentries and crash with unflushed lines *)
      Mpk.with_kernel mpk (fun () ->
          Mpk.with_write_window mpk (fun () ->
              let root = K.root_coffer kfs in
              let info = Option.get (Treasury.Coffer.read dev ~id:root) in
              List.iter
                (fun i ->
                  match
                    Zofs.Dir.lookup dev ~ino:info.Treasury.Coffer.root_file
                      (Printf.sprintf "f%02d" i)
                  with
                  | Some de -> Nvm.Device.write_u32 dev de.Zofs.Dir.de_inode 0xBAD
                  | None -> ())
                [ 7; 23; 42 ];
              Nvm.Device.persist_all dev)));
  Nvm.Device.crash dev;
  let kfs = K.mount dev mpk in
  let report =
    Sim.run_thread ~proc (fun () -> Zofs.Recovery.recover_all ~audit:true kfs)
  in
  print_hwm_audit report;
  print_report report;
  (* verify what's left *)
  Sim.run_thread ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ()) (fun () ->
      let fs = Workloads.Fslab.zofs_fslib kfs in
      let alive = ref 0 in
      for i = 0 to 49 do
        if V.exists fs (Printf.sprintf "/f%02d" i) then incr alive
      done;
      Printf.printf "%d/50 files survive (3 corrupted ones dropped)\n" !alive)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--image"; path ] -> check_image path
  | [ "--demo" ] | [] -> demo ()
  | _ ->
      prerr_endline "usage: zofs_fsck [--image FILE | --demo]";
      exit 1
