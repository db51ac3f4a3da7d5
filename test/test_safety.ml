(* Safety tests reproducing the paper's §6.5 scenarios: stray writes caught
   by MPK, graceful error return on corrupted coffers, and defence against
   manipulated metadata from a malicious sharer. *)

open Testkit
module V = Treasury.Vfs
module K = Treasury.Kernfs
module E = Treasury.Errno
module D = Nvm.Device
module Ft = Treasury.Fs_types

(* Shared world for the P1/P2 scenarios: C1 is writable by both (uid 0 group
   work), C2 is P2's private coffer. *)
let setup_shared () =
  let w = make_world ~pages:8192 () in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.mkdir fs "/shared" 0o777);
      (* files in the shared coffer *)
      for i = 1 to 5 do
        ok_or_fail
          (V.write_file fs (Printf.sprintf "/shared/f%d" i) ~mode:0o777
             (Printf.sprintf "shared-%d" i))
      done);
  in_proc ~uid:200 w (fun fs ->
      ok_or_fail (V.write_file fs "/c2data" ~mode:0o600 "P2 private"));
  w

let test_stray_writes_caught_by_mpk () =
  (* P1 sprays random stores over the NVM address space while its MPK
     regions are closed (G1): every store must fault, and P2's concurrent
     file accesses are unaffected (first §6.5 test). *)
  let w = setup_shared () in
  let world = Sim.create () in
  let p1 = Sim.Proc.create ~uid:0 ~gid:0 () in
  let p2 = Sim.Proc.create ~uid:0 ~gid:0 () in
  let stray_faults = ref 0 in
  let p2_errors = ref 0 in
  Sim.spawn world ~proc:p1 ~name:"buggy" (fun () ->
      let fs = vfs w in
      (* Map the shared coffer legitimately... *)
      ok_or_fail (V.write_file fs "/shared/p1" ~mode:0o777 "hello");
      (* ...then go haywire: stores at random NVM addresses with no region
         open.  This models stray writes in application code. *)
      let rng = Sim.Rng.create 0xBAD1L in
      for _ = 1 to 200 do
        let addr = Sim.Rng.int rng (Nvm.Device.size w.dev - 8) in
        match D.write_u64 w.dev addr 0xDEADBEEF with
        | () -> Alcotest.fail "stray write must not succeed"
        | exception Nvm.Fault _ ->
            incr stray_faults;
            Sim.advance 50
      done);
  Sim.spawn world ~proc:p2 ~name:"victim" (fun () ->
      let fs = vfs w in
      for round = 1 to 20 do
        ignore round;
        for i = 1 to 5 do
          match V.read_file fs (Printf.sprintf "/shared/f%d" i) with
          | Ok s ->
              if s <> Printf.sprintf "shared-%d" i then incr p2_errors
          | Error _ -> incr p2_errors
        done;
        Sim.advance 500
      done);
  Sim.run world;
  Alcotest.(check int) "all strays faulted" 200 !stray_faults;
  Alcotest.(check int) "victim never affected" 0 !p2_errors

let test_graceful_error_on_corrupted_coffer () =
  (* P1 corrupts C1's metadata from inside ZoFS's write window (simulating a
     stray write in trusted µFS code); P2 gets file-system errors, not a
     crash (second §6.5 test). *)
  let w = setup_shared () in
  (* P1 corrupts the shared directory's structures. *)
  Sim.run_thread ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ()) (fun () ->
      let disp = fslib w in
      let ufs = Zofs.Ufs.create w.kfs in
      ignore disp;
      (* map the shared dir's coffer through a legitimate walk *)
      let cid =
        match K.coffer_find w.kfs "/" with
        | Ok c -> c
        | Error _ -> Alcotest.fail "root cid"
      in
      match Zofs.Ufs.map_coffer ufs cid with
      | Error _ -> Alcotest.fail "map"
      | Ok cs ->
          (* Overwrite the shared dir inode's kind and pointers with junk
             while the region is (legitimately) open. *)
          Zofs.Ufs.with_coffer ufs cs ~write:true (fun () ->
              let root_ino = cs.Zofs.Ufs.cs_map.K.m_root_file in
              match Zofs.Dir.lookup w.dev ~ino:root_ino "shared" with
              | Some de ->
                  let dir_ino = de.Zofs.Dir.de_inode in
                  Nvm.Device.write_u32 w.dev (dir_ino + Zofs.Layout.i_kind) 77;
                  Nvm.Device.persist_all w.dev
              | None -> Alcotest.fail "shared dentry"));
  (* P2 accesses files under the corrupted directory: graceful errors. *)
  Sim.run_thread ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ()) (fun () ->
      let disp = fslib w in
      let fs = Treasury.Dispatcher.as_vfs disp in
      (match V.read_file fs "/shared/f1" with
      | Ok _ -> Alcotest.fail "corruption should surface as an error"
      | Error e ->
          Alcotest.(check bool) "errno-style failure" true
            (e = E.EIO || e = E.ENOTDIR || e = E.ENOENT));
      (* the process is alive and other files still work *)
      ok_or_fail (V.write_file fs "/elsewhere" ~mode:0o777 "fine"))

let test_fault_is_translated_not_propagated () =
  (* Force an actual MPK fault inside a µFS operation and observe the
     dispatcher's graceful conversion (sigsetjmp/siglongjmp analogue). *)
  let w = make_world () in
  Sim.run_thread ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ()) (fun () ->
      let disp = fslib w in
      let fs = Treasury.Dispatcher.as_vfs disp in
      ok_or_fail (V.write_file fs "/f" ~mode:0o777 (String.make 100 'x'));
      (* Corrupt the root directory: make /f's dentry point into an address
         outside every coffer (the path-walk will fault on it). *)
      Mpk.with_kernel w.mpk (fun () ->
          Mpk.with_write_window w.mpk (fun () ->
              let root = K.root_coffer w.kfs in
              let info = Option.get (Treasury.Coffer.read w.dev ~id:root) in
              match
                Zofs.Dir.lookup w.dev ~ino:info.Treasury.Coffer.root_file "f"
              with
              | Some de ->
                  Nvm.Device.write_u64 w.dev
                    (de.Zofs.Dir.de_addr + Zofs.Layout.d_inode)
                    (100 * Nvm.page_size) (* some unmapped kernel page *);
                  Nvm.Device.persist_all w.dev
              | None -> Alcotest.fail "dentry"));
      let before = Treasury.Dispatcher.graceful_error_count disp in
      expect_err E.EIO (V.stat fs "/f");
      Alcotest.(check bool) "fault converted" true
        (Treasury.Dispatcher.graceful_error_count disp > before))

let test_metadata_attack_blocked_by_g3 () =
  (* Third §6.5 scenario: the attacker (P1) manipulates a cross-coffer
     reference in shared coffer C1 to lure the victim (P2) into C2.  The
     victim must detect it and report an error without touching C2. *)
  let w = make_world ~pages:8192 () in
  (* C1: a 0o666 shared coffer under root; C2: victim-only data. *)
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.mkdir fs "/box" 0o777);
      (* a sub-coffer entry inside /box (different perm → cross-coffer
         dentry) *)
      ok_or_fail (V.write_file fs "/box/entry" ~mode:0o640 "sub");
      ok_or_fail (V.write_file fs "/victimdata" ~mode:0o644 "precious"));
  let victim_cid =
    Sim.run_thread (fun () ->
        match K.coffer_find w.kfs "/victimdata" with
        | Ok c -> c
        | Error _ -> Alcotest.fail "victim coffer")
  in
  (* P1 (attacker, has write access to /box's coffer) rewrites the
     cross-coffer dentry to point at the victim coffer. *)
  Sim.run_thread ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ()) (fun () ->
      let ufs = Zofs.Ufs.create w.kfs in
      ignore (Treasury.Dispatcher.create w.kfs);
      let root = K.root_coffer w.kfs in
      match Zofs.Ufs.map_coffer ufs root with
      | Error _ -> Alcotest.fail "map root"
      | Ok cs ->
          Zofs.Ufs.with_coffer ufs cs ~write:true (fun () ->
              match
                Zofs.Dir.lookup w.dev ~ino:cs.Zofs.Ufs.cs_map.K.m_root_file "box"
              with
              | Some boxde -> (
                  let box_ino = boxde.Zofs.Dir.de_inode in
                  match Zofs.Dir.lookup w.dev ~ino:box_ino "entry" with
                  | Some de ->
                      Nvm.Device.write_u64 w.dev
                        (de.Zofs.Dir.de_addr + Zofs.Layout.d_coffer)
                        victim_cid;
                      Nvm.Device.persist_all w.dev
                  | None -> Alcotest.fail "entry dentry")
              | None -> Alcotest.fail "box dentry"));
  (* P2 (victim) follows the manipulated reference: G3 detects the
     path/root mismatch and reports an error; C2 is never entered. *)
  Sim.run_thread ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ()) (fun () ->
      let disp = fslib w in
      let fs = Treasury.Dispatcher.as_vfs disp in
      (* Anchor the root coffer first so the walk goes through the shared
         coffer's (manipulated) dentries rather than the kernel path map. *)
      ignore (ok_or_fail (V.stat fs "/"));
      (match V.read_file fs "/box/entry" with
      | Ok _ -> Alcotest.fail "manipulated metadata must not resolve"
      | Error e ->
          Alcotest.(check string) "EIO" "EIO" (E.to_string e));
      (* victim's own data remains intact and reachable *)
      Alcotest.(check string) "victim data safe" "precious"
        (ok_or_fail (V.read_file fs "/victimdata")))

let test_readonly_mapping_blocks_modification () =
  (* A process with read-only permission cannot modify the coffer even
     through raw stores with the region key open. *)
  let w = make_world () in
  in_proc ~uid:100 w (fun fs ->
      ok_or_fail (V.write_file fs "/grp" ~mode:0o644 "data"));
  let proc = Sim.Proc.create ~uid:300 ~gid:300 () in
  Sim.run_thread ~proc (fun () ->
      let ufs = Zofs.Ufs.create w.kfs in
      ignore (Treasury.Dispatcher.create w.kfs);
      let cid =
        match K.coffer_find w.kfs "/grp" with
        | Ok c -> c
        | Error _ -> Alcotest.fail "coffer"
      in
      match Zofs.Ufs.map_coffer ufs cid with
      | Error _ -> Alcotest.fail "map ro"
      | Ok cs ->
          Zofs.Ufs.with_coffer ufs cs ~write:true (fun () ->
              (* the PKRU is open for write, but the page-table mapping is
                 read-only: the store faults *)
              match
                Nvm.Device.write_u64 w.dev cs.Zofs.Ufs.cs_map.K.m_root_file 0xEE11
              with
              | () -> Alcotest.fail "read-only mapping must block stores"
              | exception Nvm.Fault _ -> ()))

let test_cross_process_readonly_cannot_write_writable_pages () =
  (* Two live processes sharing one coffer: A (the owner) maps it writable,
     B (group-read only) maps the same pages read-only.  B's raw stores must
     fault on B's own PTEs even while A is actively writing the very same
     pages — A's writable mapping lends B nothing. *)
  let w = make_world ~pages:8192 () in
  in_proc ~uid:100 w (fun fs ->
      ok_or_fail (V.write_file fs "/grp" ~mode:0o644 "data"));
  let world = Sim.create () in
  let pa = Sim.Proc.create ~uid:100 ~gid:100 () in
  let pb = Sim.Proc.create ~uid:300 ~gid:300 () in
  let b_faults = ref 0 in
  Sim.spawn world ~proc:pa ~name:"owner" (fun () ->
      let fs = vfs w in
      for _ = 1 to 10 do
        ok_or_fail (V.append_file fs "/grp" "+");
        Sim.advance 2_000
      done);
  Sim.spawn world ~proc:pb ~at:1_000 ~name:"reader" (fun () ->
      let ufs = Zofs.Ufs.create w.kfs in
      ignore (Treasury.Dispatcher.create w.kfs);
      let cid =
        match K.coffer_find w.kfs "/grp" with
        | Ok c -> c
        | Error _ -> Alcotest.fail "coffer"
      in
      match Zofs.Ufs.map_coffer ufs cid with
      | Error _ -> Alcotest.fail "map ro"
      | Ok cs ->
          for _ = 1 to 10 do
            Zofs.Ufs.with_coffer ufs cs ~write:true (fun () ->
                match
                  Nvm.Device.write_u64 w.dev cs.Zofs.Ufs.cs_map.K.m_root_file 0xEE11
                with
                | () -> Alcotest.fail "read-only mapping must block stores"
                | exception Nvm.Fault _ -> incr b_faults);
            Sim.advance 2_000
          done);
  Sim.run world;
  Alcotest.(check int) "every cross-process store faulted" 10 !b_faults;
  (* A's writes all landed despite B's attempts. *)
  in_proc ~uid:100 w (fun fs ->
      Alcotest.(check string) "owner data intact" "data++++++++++"
        (ok_or_fail (V.read_file fs "/grp")))

let test_killed_process_reaped_without_residue () =
  (* Process A is SIGKILLed mid-append; a surviving driver reaps it.  After
     the reap no protection state of A survives (page table, PKRU), and a
     fresh process B recovers the file through lease expiry + intention
     repair. *)
  let w = setup_shared () in
  let world = Sim.create () in
  let pa = Sim.Proc.create ~uid:0 ~gid:0 () in
  let reaped = ref false in
  let b_result = ref None in
  Sim.spawn world ~proc:pa ~name:"victim" (fun () ->
      let fs = vfs w in
      for _ = 1 to 1000 do
        ignore (V.append_file fs "/shared/f1" "a");
        Sim.advance 100
      done);
  Sim.spawn world ~name:"driver" (fun () ->
      Sim.advance 20_000;
      Sim.kill_process ~pid:pa.Sim.Proc.pid;
      let until = Sim.now () + 1_000_000 in
      List.iter (Sim.join ~until) (Sim.proc_tids pa.Sim.Proc.pid);
      Alcotest.(check bool) "victim dead" false
        (Sim.proc_alive pa.Sim.Proc.pid);
      (match K.reap_process w.kfs ~pid:pa.Sim.Proc.pid with
      | Ok () -> reaped := true
      | Error e -> Alcotest.failf "reap: %s" (E.to_string e));
      (* No protection residue: A's page table is gone and its threads'
         PKRU entries are dropped. *)
      Alcotest.(check bool) "page table dropped" false
        (Mpk.has_table w.mpk ~pid:pa.Sim.Proc.pid);
      List.iter
        (fun tid ->
          Alcotest.(check bool) "thread PKRU dropped" false
            (Mpk.has_thread_state w.mpk ~tid))
        (Sim.proc_tids pa.Sim.Proc.pid);
      (* A fresh process B can use the file: any lease A held expires and
         the intention record is repaired on the way. *)
      let fs = vfs w in
      b_result :=
        Some
          (match V.append_file fs "/shared/f1" "b" with
          | Ok () -> V.read_file fs "/shared/f1"
          | Error e -> Error e));
  Sim.run world;
  Alcotest.(check bool) "reaped" true !reaped;
  match !b_result with
  | None -> Alcotest.fail "B never ran"
  | Some (Error e) -> Alcotest.failf "B failed: %s" (E.to_string e)
  | Some (Ok s) ->
      Alcotest.(check bool) "B's append landed last" true
        (String.length s > 0 && s.[String.length s - 1] = 'b')

(* Under MPK key pressure a remap leaves its coffer's PTEs pending (DESIGN.md
   §17), and protection still holds for them: a process that stats files in
   17 sub-coffers holds 15 keys, the maps past the 14th evict, and the
   remapped coffers keep pages that were never touched pending.  Touching
   one with no window open (G1) or with another coffer's window open (G2)
   faults, exactly as for a populated page; a coffer mapped before the
   keys ran out has no pending page at all. *)
let test_pending_pages_keep_protection () =
  let w = make_world ~pages:8192 () in
  let dirs = List.init 17 (Printf.sprintf "/k%02d") in
  in_proc ~uid:0 w (fun fs ->
      List.iter
        (fun d ->
          ok_or_fail (V.mkdir fs d 0o700);
          ok_or_fail
            (V.write_file fs (d ^ "/f") ~mode:0o600 (String.make 65536 'k')))
        dirs);
  in_proc ~uid:0 w (fun fs ->
      List.iter (fun d -> ignore (ok_or_fail (V.stat fs (d ^ "/f")))) dirs;
      let pid = (Sim.self_proc ()).Sim.Proc.pid in
      let at = K.alloc_table w.kfs in
      let pending_pages cid =
        List.concat_map
          (fun (start, len) -> List.init len (fun i -> start + i))
          (Treasury.Alloc_table.runs_of at ~cid)
        |> List.filter (fun page -> Mpk.is_pending w.mpk ~pid ~page)
      in
      let mapped = K.mapped_coffers w.kfs in
      let lazy_, eager =
        List.partition (fun (cid, _) -> pending_pages cid <> []) mapped
      in
      Alcotest.(check bool) "some remaps left pages pending" true (lazy_ <> []);
      Alcotest.(check bool) "the maps before the keys ran out populated" true
        (List.length eager >= List.length lazy_);
      match (lazy_, eager) with
      | (cid, m) :: _, (_, other) :: _ ->
          let closed, other_open =
            match pending_pages cid with
            | a :: b :: _ -> (a, b)
            | _ -> Alcotest.fail "want two pending pages"
          in
          let faults f =
            match f () with
            | _ -> false
            | exception Nvm.Fault { kind = Nvm.Protection; _ } -> true
          in
          Alcotest.(check bool) "G1: no window open" true
            (faults (fun () -> D.read_u8 w.dev (closed * Nvm.page_size)));
          Alcotest.(check bool) "G2: another coffer's window open" true
            (faults (fun () ->
                 Mpk.with_keys w.mpk
                   [ (other.K.m_pkey, Mpk.Pk_read_write) ]
                   (fun () -> D.write_u8 w.dev (other_open * Nvm.page_size) 1)));
          Alcotest.(check bool) "its own window open" false
            (faults (fun () ->
                 Mpk.with_keys w.mpk
                   [ (m.K.m_pkey, Mpk.Pk_read) ]
                   (fun () -> D.read_u8 w.dev (other_open * Nvm.page_size))))
      | _ -> Alcotest.fail "want a lazily and an eagerly mapped coffer")

let test_dos_is_bounded_by_leases () =
  (* The paper notes FSLibs can mount DoS attacks by holding leases; leases
     expire, so a stalled holder only delays others. *)
  let w = make_world () in
  let world = Sim.create () in
  let proc = Sim.Proc.create ~uid:0 ~gid:0 () in
  let second_done = ref 0 in
  Sim.spawn world ~proc ~name:"setup" (fun () ->
      let fs = vfs w in
      ok_or_fail (V.write_file fs "/contended" ~mode:0o777 "x"));
  Sim.spawn world ~proc ~at:1_000_000 ~name:"holder" (fun () ->
      (* acquire the inode lease directly and then "die" without release *)
      let ufs = Zofs.Ufs.create w.kfs in
      ignore (Treasury.Dispatcher.create w.kfs);
      let root = K.root_coffer w.kfs in
      match Zofs.Ufs.map_coffer ufs root with
      | Error _ -> ()
      | Ok cs ->
          Zofs.Ufs.with_coffer ufs cs ~write:true (fun () ->
              match
                Zofs.Dir.lookup w.dev ~ino:cs.Zofs.Ufs.cs_map.K.m_root_file "contended"
              with
              | Some de ->
                  Zofs.Lease.acquire w.dev
                    (Zofs.Inode.lease_addr ~ino:de.Zofs.Dir.de_inode)
              | None -> ()))
  ;
  Sim.spawn world ~proc ~at:2_000_000 ~name:"writer" (fun () ->
      let fs = vfs w in
      ok_or_fail (V.append_file fs "/contended" "y");
      second_done := Sim.now ());
  Sim.run world;
  (* The writer eventually completed — after the lease expired. *)
  Alcotest.(check bool) "writer completed" true (!second_done > 0);
  Alcotest.(check bool) "but had to wait for lease expiry" true
    (!second_done >= 1_000_000 + Zofs.Lease.default_duration)

let () =
  Alcotest.run "safety"
    [
      ( "stray-writes",
        [
          Alcotest.test_case "caught by MPK" `Quick test_stray_writes_caught_by_mpk;
          Alcotest.test_case "read-only mapping" `Quick
            test_readonly_mapping_blocks_modification;
          Alcotest.test_case "cross-process read-only vs writable" `Quick
            test_cross_process_readonly_cannot_write_writable_pages;
          Alcotest.test_case "pending pages keep protection" `Quick
            test_pending_pages_keep_protection;
          Alcotest.test_case "killed process reaped without residue" `Quick
            test_killed_process_reaped_without_residue;
        ] );
      ( "graceful-errors",
        [
          Alcotest.test_case "corrupted coffer" `Quick
            test_graceful_error_on_corrupted_coffer;
          Alcotest.test_case "fault translated" `Quick
            test_fault_is_translated_not_propagated;
        ] );
      ( "metadata-attacks",
        [
          Alcotest.test_case "G3 blocks lure" `Quick
            test_metadata_attack_blocked_by_g3;
          Alcotest.test_case "leases bound DoS" `Quick test_dos_is_bounded_by_leases;
        ] );
    ]
