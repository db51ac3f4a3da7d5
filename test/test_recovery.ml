(* Crash-consistency and offline-recovery tests (paper §3.5, §5.3, §6.5).

   ZoFS is synchronous: every completed operation must survive a crash —
   even one that randomly drops any subset of unflushed cache lines. *)

open Testkit
module V = Treasury.Vfs
module K = Treasury.Kernfs
module E = Treasury.Errno
module D = Nvm.Device

let remount w =
  let kfs = K.mount w.dev w.mpk in
  { w with kfs }

let test_completed_writes_survive_crash () =
  let w = make_world () in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.write_file fs "/a" ~mode:0o777 "alpha");
      ok_or_fail (V.mkdir fs "/dir" 0o777);
      ok_or_fail (V.write_file fs "/dir/b" ~mode:0o777 (String.make 5000 'b')));
  D.crash w.dev;
  (* random subset of pending lines persisted *)
  let w = remount w in
  in_proc ~uid:0 w (fun fs ->
      Alcotest.(check string) "a" "alpha" (ok_or_fail (V.read_file fs "/a"));
      Alcotest.(check string) "dir/b" (String.make 5000 'b')
        (ok_or_fail (V.read_file fs "/dir/b")))

let test_completed_unlink_survives_crash () =
  let w = make_world () in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.write_file fs "/gone" ~mode:0o777 "x");
      ok_or_fail (V.unlink fs "/gone"));
  D.crash ~policy:`Drop_all w.dev;
  let w = remount w in
  in_proc ~uid:0 w (fun fs -> expect_err E.ENOENT (V.stat fs "/gone"))

let test_recover_all_preserves_files () =
  let w = make_world () in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.mkdir fs "/data" 0o777);
      for i = 1 to 20 do
        ok_or_fail
          (V.write_file fs (Printf.sprintf "/data/f%d" i) ~mode:0o777
             (Printf.sprintf "content-%d" i))
      done;
      (* a private file in its own coffer too *)
      ok_or_fail (V.write_file fs "/data/secret" ~mode:0o600 "top"));
  D.crash w.dev;
  let w = remount w in
  let report = Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs) in
  Alcotest.(check bool) "scanned >= 2 coffers" true
    (report.Zofs.Recovery.coffers_scanned >= 2);
  in_proc ~uid:0 w (fun fs ->
      for i = 1 to 20 do
        Alcotest.(check string)
          (Printf.sprintf "f%d" i)
          (Printf.sprintf "content-%d" i)
          (ok_or_fail (V.read_file fs (Printf.sprintf "/data/f%d" i)))
      done;
      Alcotest.(check string) "secret" "top"
        (ok_or_fail (V.read_file fs "/data/secret")))

let test_recovery_reclaims_free_list_pages () =
  let w = make_world () in
  in_proc ~uid:0 w (fun fs ->
      (* Create and delete files: deleted pages sit on per-thread free
         lists, still assigned to the coffer. *)
      for i = 1 to 30 do
        ok_or_fail
          (V.write_file fs (Printf.sprintf "/churn%d" i) ~mode:0o777
             (String.make 8192 'x'))
      done;
      for i = 1 to 30 do
        ok_or_fail (V.unlink fs (Printf.sprintf "/churn%d" i))
      done);
  let free_before = Sim.run_thread (fun () -> K.free_pages w.kfs) in
  let report = Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs) in
  let free_after = Sim.run_thread (fun () -> K.free_pages w.kfs) in
  Alcotest.(check bool) "pages reclaimed" true
    (report.Zofs.Recovery.pages_reclaimed > 0);
  Alcotest.(check bool) "kernel free pool grew" true (free_after > free_before)

let test_recovery_drops_corrupted_dentry () =
  let w = make_world () in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.write_file fs "/keep" ~mode:0o777 "keep");
      ok_or_fail (V.write_file fs "/corrupt" ~mode:0o777 "dead"));
  (* Corrupt /corrupt's inode magic from kernel mode (simulating a stray
     write that slipped through). *)
  Sim.run_thread (fun () ->
      Mpk.with_kernel w.mpk (fun () ->
          Mpk.with_write_window w.mpk (fun () ->
              let root = K.root_coffer w.kfs in
              let info =
                match Treasury.Coffer.read w.dev ~id:root with
                | Some i -> i
                | None -> Alcotest.fail "no root"
              in
              let dir_ino = info.Treasury.Coffer.root_file in
              match Zofs.Dir.lookup w.dev ~ino:dir_ino "corrupt" with
              | Some de ->
                  Nvm.Device.write_u32 w.dev de.Zofs.Dir.de_inode 0xDEAD;
                  Nvm.Device.persist_all w.dev
              | None -> Alcotest.fail "dentry missing")));
  let report = Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs) in
  Alcotest.(check bool) "dropped a dentry" true
    ((Zofs.Recovery.dentries_dropped report) >= 1);
  in_proc ~uid:0 w (fun fs ->
      Alcotest.(check string) "intact file survives" "keep"
        (ok_or_fail (V.read_file fs "/keep"));
      expect_err E.ENOENT (V.stat fs "/corrupt"))

let test_recovery_validates_cross_refs () =
  let w = make_world () in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.write_file fs "/victim" ~mode:0o600 "private");
      ok_or_fail (V.write_file fs "/decoy" ~mode:0o640 "decoy"));
  (* Point /decoy's cross-coffer dentry at /victim's coffer: a manipulated
     cross-coffer reference (wrong path→cid binding). *)
  Sim.run_thread (fun () ->
      Mpk.with_kernel w.mpk (fun () ->
          Mpk.with_write_window w.mpk (fun () ->
              let root = K.root_coffer w.kfs in
              let info = Option.get (Treasury.Coffer.read w.dev ~id:root) in
              let dir_ino = info.Treasury.Coffer.root_file in
              let victim_cid =
                match K.coffer_find w.kfs "/victim" with
                | Ok c -> c
                | Error _ -> Alcotest.fail "victim coffer"
              in
              match Zofs.Dir.lookup w.dev ~ino:dir_ino "decoy" with
              | Some de ->
                  Nvm.Device.write_u64 w.dev
                    (de.Zofs.Dir.de_addr + Zofs.Layout.d_coffer)
                    victim_cid;
                  Nvm.Device.persist_all w.dev
              | None -> Alcotest.fail "decoy dentry")));
  let report = Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs) in
  Alcotest.(check bool) "cross refs checked" true
    (report.Zofs.Recovery.cross_refs_checked >= 1);
  (* The decoy coffer still exists in the trusted path map, so the
     manipulated dentry is repaired, not dropped. *)
  Alcotest.(check bool) "bad ref repaired" true
    ((Zofs.Recovery.cross_refs_repaired report) >= 1);
  in_proc ~uid:0 w (fun fs ->
      Alcotest.(check string) "decoy restored" "decoy"
        (ok_or_fail (V.read_file fs "/decoy"));
      Alcotest.(check string) "victim untouched" "private"
        (ok_or_fail (V.read_file fs "/victim")))

let test_recovery_drops_dangling_cross_ref () =
  let w = make_world () in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.write_file fs "/doomed" ~mode:0o640 "x"));
  (* Delete the coffer behind /doomed directly in the kernel, leaving the
     parent dentry dangling. *)
  Sim.run_thread (fun () ->
      ignore (K.fs_mount w.kfs);
      let cid =
        match K.coffer_find w.kfs "/doomed" with
        | Ok c -> c
        | Error _ -> Alcotest.fail "doomed coffer"
      in
      (match K.coffer_delete w.kfs cid with
      | Ok () -> ()
      | Error e -> Alcotest.failf "delete: %s" (E.to_string e));
      ignore (K.fs_umount w.kfs));
  let report = Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs) in
  Alcotest.(check bool) "dangling ref dropped" true
    ((Zofs.Recovery.cross_refs_dropped report) >= 1);
  in_proc ~uid:0 w (fun fs -> expect_err E.ENOENT (V.stat fs "/doomed"))

let test_recovery_reinitializes_corrupt_root_inode () =
  let w = make_world () in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.write_file fs "/solo" ~mode:0o600 "alone"));
  Sim.run_thread (fun () ->
      Mpk.with_kernel w.mpk (fun () ->
          Mpk.with_write_window w.mpk (fun () ->
              let cid =
                match K.coffer_find w.kfs "/solo" with
                | Ok c -> c
                | Error _ -> Alcotest.fail "solo coffer"
              in
              let info = Option.get (Treasury.Coffer.read w.dev ~id:cid) in
              Nvm.Device.write_u32 w.dev info.Treasury.Coffer.root_file 0;
              Nvm.Device.persist_all w.dev)));
  let report = Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs) in
  Alcotest.(check bool) "reinitialized" true
    ((Zofs.Recovery.inodes_reinitialized report) >= 1)

(* Crash between inode publish and dentry insert: create() persists the new
   inode (and its data pages) before the dentry that names it.  A crash in
   that window leaves a fully-formed but unreachable inode inside the
   coffer.  Recovery must reclaim its pages and leave the rest intact.  We
   build the torn state directly: create the file, then durably erase only
   its dentry. *)
let test_recovery_orphan_inode_without_dentry () =
  let w = make_world () in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.write_file fs "/keep" ~mode:0o777 "keep");
      ok_or_fail (V.write_file fs "/limbo" ~mode:0o777 (String.make 9000 'l')));
  Sim.run_thread (fun () ->
      Mpk.with_kernel w.mpk (fun () ->
          Mpk.with_write_window w.mpk (fun () ->
              let root = K.root_coffer w.kfs in
              let info = Option.get (Treasury.Coffer.read w.dev ~id:root) in
              let dir_ino = info.Treasury.Coffer.root_file in
              (match Zofs.Dir.remove w.dev ~ino:dir_ino "limbo" with
              | Ok () -> ()
              | Error _ -> Alcotest.fail "limbo dentry missing");
              Nvm.Device.persist_all w.dev)));
  D.crash ~policy:`Drop_all w.dev;
  let w = remount w in
  let report = Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs) in
  Alcotest.(check bool) "orphan inode pages reclaimed" true
    (report.Zofs.Recovery.pages_reclaimed >= 1);
  let report2 = Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs) in
  Alcotest.(check (list string)) "second run is a fixpoint" []
    (List.map Zofs.Recovery.finding_to_string (Zofs.Recovery.findings report2));
  in_proc ~uid:0 w (fun fs ->
      expect_err E.ENOENT (V.stat fs "/limbo");
      Alcotest.(check string) "bystander intact" "keep"
        (ok_or_fail (V.read_file fs "/keep")))

(* Torn coffer root page: a multi-line update to the root inode page is
   interrupted by a `Drop_all crash after only the first line was fenced.
   The durable page mixes old and new lines — here the magic is destroyed
   while a later line's update is lost entirely.  Recovery must
   reinitialize the root inode and reach a fixpoint on the second run. *)
let test_recovery_torn_coffer_root_page () =
  let w = make_world () in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.write_file fs "/keep" ~mode:0o777 "keep");
      ok_or_fail (V.write_file fs "/solo" ~mode:0o600 "alone"));
  Sim.run_thread (fun () ->
      Mpk.with_kernel w.mpk (fun () ->
          Mpk.with_write_window w.mpk (fun () ->
              let cid =
                match K.coffer_find w.kfs "/solo" with
                | Ok c -> c
                | Error _ -> Alcotest.fail "solo coffer"
              in
              let info = Option.get (Treasury.Coffer.read w.dev ~id:cid) in
              let root = info.Treasury.Coffer.root_file in
              (* first line reaches NVM... *)
              Nvm.Device.write_u32 w.dev root 0;
              Nvm.Device.persist_range w.dev root 4;
              (* ...the rest of the update is still in the cache when power
                 fails *)
              Nvm.Device.write_u64 w.dev (root + 64) 0xDEADBEEF)));
  D.crash ~policy:`Drop_all w.dev;
  let w = remount w in
  let report = Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs) in
  Alcotest.(check bool) "root inode reinitialized" true
    ((Zofs.Recovery.inodes_reinitialized report) >= 1);
  let report2 = Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs) in
  Alcotest.(check (list string)) "second run is a fixpoint" []
    (List.map Zofs.Recovery.finding_to_string (Zofs.Recovery.findings report2));
  in_proc ~uid:0 w (fun fs ->
      Alcotest.(check string) "bystander intact" "keep"
        (ok_or_fail (V.read_file fs "/keep"));
      ignore (ok_or_fail (V.readdir fs "/")))

(* Torn directory index: a first-level slot, or a bucket head, of /d is
   scribbled with an address past the device end or with a page of another
   coffer.  readdir fails with EIO and the process carries on; recovery
   drops /d without an uncaught exception, and its second run is a
   fixpoint.  With [audit] (fsck) the same holds, and the audit names no
   dentry: /d's index faults before the audit reaches it. *)
let torn_index ?(audit = false) ~where ~target () =
  let w = make_world ~pages:8192 () in
  (* 16 names fill the inline area of one second-level page, the last 8
     hang off its bucket chains *)
  let names = Gates.Perf_gate.same_l1_slot_names ~seed:"t" 24 in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.write_file fs "/keep" ~mode:0o777 "keep");
      ok_or_fail (V.write_file fs "/other" ~mode:0o600 "other");
      ok_or_fail (V.mkdir fs "/d" 0o777);
      List.iter
        (fun n -> ok_or_fail (V.write_file fs ("/d/" ^ n) ~mode:0o777 n))
        names);
  Sim.run_thread (fun () ->
      Mpk.with_kernel w.mpk (fun () ->
          Mpk.with_write_window w.mpk (fun () ->
              let root = Option.get (Treasury.Coffer.read w.dev ~id:(K.root_coffer w.kfs)) in
              let d =
                match Zofs.Dir.lookup w.dev ~ino:root.Treasury.Coffer.root_file "d" with
                | Some de when de.Zofs.Dir.de_coffer = 0 -> de.Zofs.Dir.de_inode
                | _ -> Alcotest.fail "/d is not a local directory"
              in
              let value =
                match target with
                | `Past_end -> D.size w.dev
                | `Other_coffer ->
                    let cid =
                      match K.coffer_find w.kfs "/other" with
                      | Ok c -> c
                      | Error _ -> Alcotest.fail "other coffer"
                    in
                    (Option.get (Treasury.Coffer.read w.dev ~id:cid))
                      .Treasury.Coffer.root_file
              in
              let chained = Zofs.Layout.dir_hash (List.nth names 23) in
              let l1 = Zofs.Dir.l1_page w.dev ~ino:d in
              let slot =
                match where with
                | `L1_slot -> Zofs.Dir.l1_slot_addr l1 chained
                | `Bucket_head ->
                    let l2 = Zofs.Dir.l2_page w.dev l1 chained in
                    Alcotest.(check bool) "the bucket heads a chain" true
                      (D.read_u64 w.dev (Zofs.Dir.bucket_addr l2 chained) <> 0);
                    Zofs.Dir.bucket_addr l2 chained
              in
              D.write_u64 w.dev slot value;
              D.persist_all w.dev)));
  in_proc ~uid:0 w (fun fs ->
      expect_err E.EIO (V.readdir fs "/d");
      Alcotest.(check string) "the process carries on" "keep"
        (ok_or_fail (V.read_file fs "/keep")));
  let report = Sim.run_thread (fun () -> Zofs.Recovery.recover_all ~audit w.kfs) in
  Alcotest.(check bool) "/d dropped" true
    (List.exists
       (function
         | Zofs.Recovery.Dropped_dentry { path = "/d"; _ } -> true | _ -> false)
       (Zofs.Recovery.findings report));
  Alcotest.(check (list (pair string int))) "no dentry above hwm" []
    (Zofs.Recovery.hwm_audit report);
  let report2 = Sim.run_thread (fun () -> Zofs.Recovery.recover_all ~audit w.kfs) in
  Alcotest.(check (list string)) "second run is a fixpoint" []
    (List.map Zofs.Recovery.finding_to_string (Zofs.Recovery.findings report2));
  in_proc ~uid:0 w (fun fs ->
      expect_err E.ENOENT (V.stat fs "/d");
      Alcotest.(check string) "bystander intact" "keep"
        (ok_or_fail (V.read_file fs "/keep"));
      Alcotest.(check string) "other coffer intact" "other"
        (ok_or_fail (V.read_file fs "/other")))

(* A first-level slot whose hwm was lowered from 4 to 2 (a damaged slot, or
   two inserts that skipped the raise): the dentries in slots 2 and 3 are
   gone for lookup, readdir and recovery alike.  fsck's audit names them;
   recovery repairs nothing, reclaims their files' pages, and its second
   run is a fixpoint (the audit still names both).  A later insert raises
   hwm over slot 2 and overwrites the stale dentry there. *)
let test_lowered_hwm_hides_dentries () =
  let w = make_world ~pages:8192 () in
  let names = Gates.Perf_gate.same_l1_slot_names ~seed:"w" 5 in
  let kept = List.filteri (fun i _ -> i < 2) names in
  let hidden = List.filteri (fun i _ -> i = 2 || i = 3) names in
  let fresh = List.nth names 4 in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.mkdir fs "/h" 0o777);
      List.iteri
        (fun i n -> if i < 4 then ok_or_fail (V.write_file fs ("/h/" ^ n) ~mode:0o777 n))
        names);
  let l2 =
    Sim.run_thread (fun () ->
        Mpk.with_kernel w.mpk (fun () ->
            Mpk.with_write_window w.mpk (fun () ->
                let root =
                  Option.get (Treasury.Coffer.read w.dev ~id:(K.root_coffer w.kfs))
                in
                let h =
                  match Zofs.Dir.lookup w.dev ~ino:root.Treasury.Coffer.root_file "h" with
                  | Some de -> de.Zofs.Dir.de_inode
                  | None -> Alcotest.fail "/h"
                in
                let l1 = Zofs.Dir.l1_page w.dev ~ino:h in
                let hash = Zofs.Layout.dir_hash fresh in
                let l2 = Zofs.Dir.l2_page w.dev l1 hash in
                Alcotest.(check int) "hwm 4" 4 (Zofs.Dir.hwm w.dev l1 hash);
                D.write_u64 w.dev (Zofs.Dir.l1_slot_addr l1 hash) (l2 lor 2);
                D.persist_all w.dev;
                l2)))
  in
  let visible expected =
    in_proc ~uid:0 w (fun fs ->
        Alcotest.(check (list string)) "readdir"
          (List.sort compare expected)
          (List.sort compare
             (List.map (fun d -> d.Treasury.Fs_types.d_name)
                (ok_or_fail (V.readdir fs "/h"))));
        List.iter
          (fun n ->
            Alcotest.(check string) ("read " ^ n) n (ok_or_fail (V.read_file fs ("/h/" ^ n))))
          expected;
        List.iter (fun n -> expect_err E.ENOENT (V.stat fs ("/h/" ^ n))) hidden)
  in
  let fsck () = Sim.run_thread (fun () -> Zofs.Recovery.recover_all ~audit:true w.kfs) in
  let audit report = Zofs.Recovery.hwm_audit report in
  let both = [ ("/h", Zofs.Dir.inline_slot l2 2); ("/h", Zofs.Dir.inline_slot l2 3) ] in
  visible kept;
  let report = fsck () in
  Alcotest.(check (list (pair string int))) "fsck names both hidden dentries" both
    (audit report);
  Alcotest.(check (list string)) "recovery repairs nothing" []
    (List.map Zofs.Recovery.finding_to_string (Zofs.Recovery.findings report));
  Alcotest.(check bool) "the hidden files' pages are reclaimed" true
    (report.Zofs.Recovery.pages_reclaimed >= List.length hidden);
  let report2 = fsck () in
  Alcotest.(check (list string)) "second run is a fixpoint" []
    (List.map Zofs.Recovery.finding_to_string (Zofs.Recovery.findings report2));
  Alcotest.(check (list (pair string int))) "the second audit names them again" both
    (audit report2);
  Alcotest.(check (list (pair string int))) "recovery without ~audit reads no slot above hwm" []
    (audit (Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs)));
  visible kept;
  in_proc ~uid:0 w (fun fs -> ok_or_fail (V.write_file fs ("/h/" ^ fresh) ~mode:0o777 fresh));
  visible (fresh :: kept);
  Alcotest.(check (list (pair string int))) "the raise overwrote slot 2"
    [ ("/h", Zofs.Dir.inline_slot l2 3) ]
    (audit (fsck ()))

(* A first-level slot with low bits 0, as every slot was written before
   the hwm existed: it reads as hwm 16, so lookup, readdir, insert and
   recovery see every inline dentry of the page, as they did then, and
   fsck's audit names none. *)
let test_slot_without_hwm_reads_whole_page () =
  let w = make_world ~pages:8192 () in
  let names = Gates.Perf_gate.same_l1_slot_names ~seed:"z" 4 in
  let old = List.filteri (fun i _ -> i < 3) names in
  let fresh = List.nth names 3 in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.mkdir fs "/h" 0o777);
      List.iter (fun n -> ok_or_fail (V.write_file fs ("/h/" ^ n) ~mode:0o777 n)) old);
  let dir =
    Sim.run_thread (fun () ->
        Mpk.with_kernel w.mpk (fun () ->
            Mpk.with_write_window w.mpk (fun () ->
                let root =
                  Option.get (Treasury.Coffer.read w.dev ~id:(K.root_coffer w.kfs))
                in
                let h =
                  match Zofs.Dir.lookup w.dev ~ino:root.Treasury.Coffer.root_file "h" with
                  | Some de -> de.Zofs.Dir.de_inode
                  | None -> Alcotest.fail "/h"
                in
                let l1 = Zofs.Dir.l1_page w.dev ~ino:h in
                let hash = Zofs.Layout.dir_hash fresh in
                Alcotest.(check int) "hwm 3" 3 (Zofs.Dir.hwm w.dev l1 hash);
                D.write_u64 w.dev (Zofs.Dir.l1_slot_addr l1 hash)
                  (Zofs.Dir.l2_page w.dev l1 hash);
                D.persist_all w.dev;
                Alcotest.(check int) "reads as hwm 16" 16 (Zofs.Dir.hwm w.dev l1 hash);
                (h, l1, hash))))
  in
  let visible expected =
    in_proc ~uid:0 w (fun fs ->
        Alcotest.(check (list string)) "readdir"
          (List.sort compare expected)
          (List.sort compare
             (List.map (fun d -> d.Treasury.Fs_types.d_name)
                (ok_or_fail (V.readdir fs "/h"))));
        List.iter
          (fun n ->
            Alcotest.(check string) ("read " ^ n) n (ok_or_fail (V.read_file fs ("/h/" ^ n))))
          expected)
  in
  visible old;
  let report = Sim.run_thread (fun () -> Zofs.Recovery.recover_all ~audit:true w.kfs) in
  Alcotest.(check (list string)) "recovery repairs nothing" []
    (List.map Zofs.Recovery.finding_to_string (Zofs.Recovery.findings report));
  Alcotest.(check (list (pair string int))) "no dentry above hwm" []
    (Zofs.Recovery.hwm_audit report);
  in_proc ~uid:0 w (fun fs -> ok_or_fail (V.write_file fs ("/h/" ^ fresh) ~mode:0o777 fresh));
  visible (fresh :: old);
  let h, l1, hash = dir in
  Sim.run_thread (fun () ->
      Mpk.with_kernel w.mpk (fun () ->
          Alcotest.(check int) "the insert took slot 3 and left the slot alone" 16
            (Zofs.Dir.hwm w.dev l1 hash);
          match Zofs.Dir.lookup w.dev ~ino:h fresh with
          | Some de ->
              Alcotest.(check int) "slot 3"
                (Zofs.Dir.inline_slot (Zofs.Dir.l2_page w.dev l1 hash) 3)
                de.Zofs.Dir.de_addr
          | None -> Alcotest.fail fresh))

(* Media errors on lines a per-slot scan never reads -- the unused tail
   (line 1) of an empty dentry slot and of a valid dentry whose name ends
   in line 0 -- in a second-level page's inline area and in a chain page.
   readdir lists every name and recovery drops no dentry, as if the lines
   were healthy. *)
let test_poisoned_dentry_tails () =
  let w = make_world ~pages:8192 () in
  (* 16 names fill the inline area, 4 spill into a chain page; one inline
     and one chained slot are then emptied *)
  let names = Gates.Perf_gate.same_l1_slot_names ~seed:"m" 20 in
  let gone = [ List.nth names 5; List.nth names 18 ] in
  let live = List.filter (fun n -> not (List.mem n gone)) names in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.mkdir fs "/m" 0o777);
      List.iter
        (fun n -> ok_or_fail (V.write_file fs ("/m/" ^ n) ~mode:0o777 n))
        names;
      List.iter (fun n -> ok_or_fail (V.unlink fs ("/m/" ^ n))) gone);
  Sim.run_thread (fun () ->
      Mpk.with_kernel w.mpk (fun () ->
          let root =
            Option.get (Treasury.Coffer.read w.dev ~id:(K.root_coffer w.kfs))
          in
          let m =
            match Zofs.Dir.lookup w.dev ~ino:root.Treasury.Coffer.root_file "m" with
            | Some de -> de.Zofs.Dir.de_inode
            | None -> Alcotest.fail "/m"
          in
          let slot_of n =
            match Zofs.Dir.lookup w.dev ~ino:m n with
            | Some de -> de.Zofs.Dir.de_addr
            | None -> Alcotest.failf "/m/%s" n
          in
          let inline_valid = slot_of (List.nth names 0) in
          let chained_valid = slot_of (List.nth names 17) in
          let l2 = inline_valid - (inline_valid mod Nvm.page_size) in
          let chain = chained_valid - (chained_valid mod Nvm.page_size) in
          Alcotest.(check bool) "a chain page" true (l2 <> chain);
          List.iter
            (fun slot -> D.inject_poison w.dev (slot + Nvm.line_size))
            [
              inline_valid;
              Zofs.Dir.inline_slot l2 5;
              chained_valid;
              Zofs.Dir.chain_slot chain 3;
            ]));
  let listing () =
    in_proc ~uid:0 w (fun fs ->
        Alcotest.(check (list string)) "readdir lists every name"
          (List.sort compare live)
          (List.sort compare
             (List.map (fun d -> d.Treasury.Fs_types.d_name)
                (ok_or_fail (V.readdir fs "/m")))))
  in
  listing ();
  let report = Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs) in
  Alcotest.(check int) "no dentry dropped" 0
    (Zofs.Recovery.dentries_dropped report);
  listing ()

(* ---- parallel recovery ---------------------------------------------------- *)

let coffer_of kfs path =
  match K.coffer_find kfs path with
  | Ok c -> c
  | Error _ -> Alcotest.failf "no coffer at %s" path

let dentry_of dev ~dir name =
  match Zofs.Dir.lookup dev ~ino:dir name with
  | Some de -> de
  | None -> Alcotest.failf "no dentry %s" name

(* Scribble on the inode of [coffer]/[name] from kernel mode: a stray
   write that slipped past protection. *)
let tear_inode kfs ~coffer name =
  let dev = K.device kfs and mpk = K.mpk kfs in
  Mpk.with_kernel mpk (fun () ->
      Mpk.with_write_window mpk (fun () ->
          let info =
            Option.get (Treasury.Coffer.read dev ~id:(coffer_of kfs coffer))
          in
          let de = dentry_of dev ~dir:info.Treasury.Coffer.root_file name in
          D.write_u32 dev de.Zofs.Dir.de_inode 0xDEAD))

(* Stage 1 of a cross-coffer rename of the root coffer's [name] to [dst],
   and nothing after it: the file's pages sit in a transient coffer
   registered at "<dst>.zofs-mv", as a crash right after the split leaves
   them. *)
let split_into_transient kfs ~name ~dst =
  let dev = K.device kfs in
  let ufs = Zofs.Ufs.create kfs in
  let src = ok_or_fail (Zofs.Ufs.session_of_cid ufs (K.root_coffer kfs)) in
  let dcs =
    ok_or_fail
      (Zofs.Ufs.session_of_cid ufs
         (coffer_of kfs (Treasury.Pathx.dirname dst)))
  in
  let ino, custom =
    Zofs.Ufs.with_coffer ufs src ~write:true (fun () ->
        let de = dentry_of dev ~dir:src.Zofs.Ufs.cs_map.K.m_root_file name in
        let custom = ok_or_fail (Zofs.Balloc.alloc_page src.Zofs.Ufs.cs_balloc) in
        Zofs.Balloc.format dev ~custom;
        (de.Zofs.Dir.de_inode, custom))
  in
  let pages =
    Zofs.Ufs.with_coffer ufs src ~write:false (fun () ->
        ino :: Zofs.File.data_pages dev ~ino)
  in
  ignore
    (ok_or_fail
       (K.coffer_split kfs ~src:src.Zofs.Ufs.cs_cid ~new_path:(dst ^ ".zofs-mv")
          ~ctype:Zofs.Ufs.ctype ~mode:dcs.Zofs.Ufs.cs_mode
          ~uid:dcs.Zofs.Ufs.cs_uid ~gid:dcs.Zofs.Ufs.cs_gid
          ~runs:(Zofs.Ufs.runs_of_pages (custom :: pages))
          ~root_file:ino ~custom))

(* The findings a one-by-one walk of the coffers gives for the tree below,
   in its order. *)
let sequential_findings =
  [
    "completed migration of coffer 532 to /c05/moved.zofs-mv";
    "dropped dentry /mover (coffer 26)";
    "dropped dentry /c02/f1 (coffer 84)";
    "dropped dentry /c09/f1 (coffer 249)";
    "dropped dentry /c15/f1 (coffer 363)";
    "repaired cross-coffer ref /decoy (from coffer 26)";
  ]

(* 25 coffers ("/", 21 directories, two file coffers and a transient
   rename coffer) with damage planted in several of them, recovered by the
   worker pool with the race detector failing on the first race.  The
   findings are the one-by-one walk's, a second pass finds nothing, every
   surviving file reads back, and the coffer scans overlapped in time. *)
let test_parallel_recovery_matches_sequential () =
  Race.reset_report ();
  Race.enable_auto Race.Fail;
  let files = Hashtbl.create 128 in
  let r1, r2 =
    Fun.protect
      ~finally:(fun () ->
        Race.disable_auto ();
        Race.detach ())
      (fun () ->
        Sim.run_thread ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ()) (fun () ->
            let inst = Workloads.Fslab.make ~pages:8192 Workloads.Fslab.Zofs in
            let fs = inst.Workloads.Fslab.fs in
            let kfs = Option.get inst.Workloads.Fslab.kernfs in
            let put path mode data =
              ok_or_fail (V.write_file fs path ~mode data);
              Hashtbl.replace files path data
            in
            for f = 0 to 3 do
              put (Printf.sprintf "/r%d" f) 0o644 (Printf.sprintf "root %d" f)
            done;
            for d = 0 to 20 do
              let dir = Printf.sprintf "/c%02d" d in
              ok_or_fail (V.mkdir fs dir 0o700);
              for f = 0 to 3 do
                put
                  (Printf.sprintf "%s/f%d" dir f)
                  0o600
                  (String.make (1000 * (f + 1)) (Char.chr (Char.code 'a' + d)))
              done
            done;
            put "/victim" 0o600 "private";
            put "/decoy" 0o640 "decoy";
            put "/mover" 0o644 "moving";
            (* torn dentries in three coffers, and in the quarantined one *)
            List.iter
              (fun c ->
                tear_inode kfs ~coffer:c "f1";
                Hashtbl.remove files (c ^ "/f1"))
              [ "/c02"; "/c09"; "/c15"; "/c12" ];
            (* /decoy's cross-coffer dentry names /victim's coffer *)
            Mpk.with_kernel (K.mpk kfs) (fun () ->
                Mpk.with_write_window (K.mpk kfs) (fun () ->
                    let root =
                      Option.get
                        (Treasury.Coffer.read inst.Workloads.Fslab.device
                           ~id:(K.root_coffer kfs))
                    in
                    let de =
                      dentry_of inst.Workloads.Fslab.device
                        ~dir:root.Treasury.Coffer.root_file "decoy"
                    in
                    D.write_u64 inst.Workloads.Fslab.device
                      (de.Zofs.Dir.de_addr + Zofs.Layout.d_coffer)
                      (coffer_of kfs "/victim")));
            split_into_transient kfs ~name:"mover" ~dst:"/c05/moved";
            Hashtbl.remove files "/mover";
            Hashtbl.replace files "/c05/moved" "moving";
            D.persist_all inst.Workloads.Fslab.device;
            K.set_coffer_health kfs (coffer_of kfs "/c12") K.Quarantined;
            (* offline: the set-up's mappings are gone *)
            ok_or_fail (K.fs_umount kfs);
            let r1 = Zofs.Recovery.recover_all kfs in
            let r2 = Zofs.Recovery.recover_all kfs in
            Mpk.with_kernel (K.mpk kfs) (fun () ->
                Treasury.Alloc_table.verify (K.alloc_table kfs));
            let fs = Workloads.Fslab.zofs_fslib kfs in
            Hashtbl.iter
              (fun path data ->
                Alcotest.(check string) path data (ok_or_fail (V.read_file fs path)))
              files;
            (r1, r2)))
  in
  Alcotest.(check (list string)) "the one-by-one walk's findings"
    sequential_findings
    (List.map Zofs.Recovery.finding_to_string (Zofs.Recovery.findings r1));
  Alcotest.(check (list string)) "second run is a fixpoint" []
    (List.map Zofs.Recovery.finding_to_string (Zofs.Recovery.findings r2));
  Alcotest.(check int) "every coffer but the quarantined one scanned" 23
    r1.Zofs.Recovery.coffers_scanned;
  Alcotest.(check bool) "the scans overlapped" true
    (r1.Zofs.Recovery.wall_ns
    < r1.Zofs.Recovery.user_ns + r1.Zofs.Recovery.kernel_ns);
  Alcotest.(check int) "no race" 0 (List.length (Race.report ()).Race.r_races)

(* ---- the recovery protocol's own failures --------------------------------- *)

let errno_of = function Ok _ -> "ok" | Error e -> E.to_string e

(* A crash between coffer_recover_begin and coffer_recover_end leaves the
   in-recovery flag durable on the root page.  The mount clears it
   durably, and the next recovery scans the coffer; its file reads back. *)
let test_crash_during_recovery () =
  let w = make_world () in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.write_file fs "/solo" ~mode:0o600 "alone"));
  let cid =
    Sim.run_thread (fun () ->
        ok_or_fail (K.fs_mount w.kfs);
        let cid = coffer_of w.kfs "/solo" in
        ignore (ok_or_fail (K.coffer_recover_begin w.kfs cid));
        cid)
  in
  let flag_set () =
    Mpk.with_kernel w.mpk (fun () ->
        (Option.get (Treasury.Coffer.read w.dev ~id:cid))
          .Treasury.Coffer.in_recovery)
  in
  D.crash ~policy:`Drop_all w.dev;
  Alcotest.(check bool) "the crash left the flag set" true (flag_set ());
  ignore (remount w);
  D.crash ~policy:`Drop_all w.dev;
  Alcotest.(check bool) "the mount cleared it durably" false (flag_set ());
  let w = remount w in
  let report = Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs) in
  Alcotest.(check int) "/ and /solo scanned" 2
    report.Zofs.Recovery.coffers_scanned;
  in_proc ~uid:0 w (fun fs ->
      Alcotest.(check string) "/solo" "alone" (ok_or_fail (V.read_file fs "/solo")))

(* A recoverer that stalls before coffer_recover_end holds its coffer only
   until its recovery lease expires; then a second process takes over, and
   the first one's late coffer_recover_end (here with an empty in-use set)
   is refused. *)
let test_expired_recovery_lease_taken_over () =
  let w = make_world () in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.write_file fs "/solo" ~mode:0o600 "alone"));
  let before = ref "" and map_before = ref "" and after = ref "" in
  let stale_end = ref "" in
  Sim.run_thread (fun () ->
      let cid = coffer_of w.kfs "/solo" in
      ok_or_fail (K.fs_mount w.kfs);
      ignore (ok_or_fail (K.coffer_recover_begin w.kfs cid));
      let second =
        Sim.fork ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ()) ~name:"second"
          (fun () ->
            ok_or_fail (K.fs_mount w.kfs);
            before := errno_of (K.coffer_recover_begin w.kfs cid);
            map_before := errno_of (K.coffer_map w.kfs cid);
            Sim.advance K.recovery_lease_ns;
            match K.coffer_recover_begin w.kfs cid with
            | Error e -> after := E.to_string e
            | Ok runs ->
                after := "ok";
                Sim.advance 1_000_000;
                ok_or_fail
                  (K.coffer_recover_end w.kfs cid
                     ~in_use:
                       (List.concat_map
                          (fun (p, n) -> List.init n (fun i -> p + i))
                          runs)))
      in
      Sim.advance (K.recovery_lease_ns + 500_000);
      stale_end := errno_of (K.coffer_recover_end w.kfs cid ~in_use:[]);
      Sim.join second);
  let busy = E.to_string E.EBUSY in
  Alcotest.(check string) "recover_begin while the lease runs" busy !before;
  Alcotest.(check string) "coffer_map while the lease runs" busy !map_before;
  Alcotest.(check string) "recover_begin once it expired" "ok" !after;
  Alcotest.(check string) "the first recoverer's late recover_end" busy
    !stale_end;
  in_proc ~uid:0 w (fun fs ->
      Alcotest.(check string) "/solo" "alone" (ok_or_fail (V.read_file fs "/solo")))

(* Pointers that leave the coffer: /f's data pointers name a page of
   /other's coffer, a free page and an
   address past the device end, and
   /g's dentry names /other's inode page.  Recovery follows none of them:
   /g is dropped, /f keeps its name, /other keeps its pages and its
   contents, the free page stays free, and a second run finds nothing. *)
let test_pointers_leaving_the_coffer () =
  let w = make_world () in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.write_file fs "/other" ~mode:0o600 (String.make 5000 'o'));
      ok_or_fail (V.write_file fs "/f" ~mode:0o777 (String.make 12288 'f'));
      ok_or_fail (V.write_file fs "/g" ~mode:0o777 "g"));
  let free_page = D.pages w.dev - 1 in
  let other_cid, other_ino, other_data =
    Sim.run_thread (fun () ->
        Alcotest.(check int) "the last page is free" 0
          (ok_or_fail (K.page_owner w.kfs ~page:free_page));
        let other_cid = coffer_of w.kfs "/other" in
        Mpk.with_kernel w.mpk (fun () ->
            Mpk.with_write_window w.mpk (fun () ->
                let root =
                  Option.get (Treasury.Coffer.read w.dev ~id:(K.root_coffer w.kfs))
                in
                let other =
                  Option.get (Treasury.Coffer.read w.dev ~id:other_cid)
                in
                let other_ino = other.Treasury.Coffer.root_file in
                let other_data = List.hd (Zofs.File.data_pages w.dev ~ino:other_ino) in
                let dir = root.Treasury.Coffer.root_file in
                let f = (dentry_of w.dev ~dir "f").Zofs.Dir.de_inode in
                List.iteri
                  (fun b target ->
                    D.write_u64 w.dev (f + Zofs.Layout.i_direct + (b * 8)) target)
                  [ other_data; free_page * Nvm.page_size; D.size w.dev ];
                D.write_u64 w.dev
                  ((dentry_of w.dev ~dir "g").Zofs.Dir.de_addr + Zofs.Layout.d_inode)
                  other_ino;
                D.persist_all w.dev;
                (other_cid, other_ino, other_data))))
  in
  let r1 = Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs) in
  let r2 = Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs) in
  let root = K.root_coffer w.kfs in
  Alcotest.(check (list string)) "findings"
    [ Printf.sprintf "dropped dentry /g (coffer %d)" root ]
    (List.map Zofs.Recovery.finding_to_string (Zofs.Recovery.findings r1));
  Alcotest.(check (list string)) "second run is a fixpoint" []
    (List.map Zofs.Recovery.finding_to_string (Zofs.Recovery.findings r2));
  Sim.run_thread (fun () ->
      let owner addr = ok_or_fail (K.page_owner w.kfs ~page:(addr / Nvm.page_size)) in
      Alcotest.(check int) "/other keeps its inode page" other_cid (owner other_ino);
      Alcotest.(check int) "/other keeps its data page" other_cid (owner other_data);
      Alcotest.(check int) "the free page stays free" 0
        (owner (free_page * Nvm.page_size)));
  in_proc ~uid:0 w (fun fs ->
      Alcotest.(check string) "/other" (String.make 5000 'o')
        (ok_or_fail (V.read_file fs "/other"));
      expect_err E.ENOENT (V.stat fs "/g");
      ignore (ok_or_fail (V.stat fs "/f")))

(* The scan's ownership test: a binary search over the coffer's sorted
   runs agrees with a linear scan, at every run boundary too. *)
let qcheck_in_runs_matches_linear_scan =
  QCheck.Test.make ~name:"run lookup matches a linear scan" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 12) (pair (int_range 0 4) (int_range 1 5)))
    (fun gaps_lens ->
      (* disjoint runs, sorted by start, with gaps of 0..4 pages *)
      let runs, _ =
        List.fold_left
          (fun (acc, next) (gap, len) ->
            ((next + gap, len) :: acc, next + gap + len))
          ([], 0) gaps_lens
      in
      let runs = List.rev runs in
      let arr = Array.of_list runs in
      List.for_all
        (fun page ->
          Zofs.Recovery.in_runs arr page
          = List.exists (fun (s, l) -> s <= page && page < s + l) runs)
        (List.init 120 (fun i -> i - 2)))

let qcheck_crash_recovery_preserves_completed_ops =
  QCheck.Test.make
    ~name:"completed ops survive random crashes + recovery" ~count:15
    QCheck.(
      pair int64
        (list_of_size (Gen.int_range 1 25)
           (triple (int_range 0 7) bool (string_of_size (Gen.int_range 0 200)))))
    (fun (seed, ops) ->
      let w = make_world () in
      let model : (string, string) Hashtbl.t = Hashtbl.create 16 in
      in_proc ~uid:0 w (fun fs ->
          List.iter
            (fun (n, create, data) ->
              let path = Printf.sprintf "/file%d" n in
              if create then begin
                match V.write_file fs path ~mode:0o777 data with
                | Ok () -> Hashtbl.replace model path data
                | Error _ -> ()
              end
              else begin
                (match V.unlink fs path with Ok () | Error _ -> ());
                Hashtbl.remove model path
              end)
            ops);
      (* Crash with a seed-dependent subset of pending lines persisted. *)
      ignore seed;
      D.crash w.dev;
      let kfs = K.mount w.dev w.mpk in
      let w = { w with kfs } in
      ignore (Sim.run_thread (fun () -> Zofs.Recovery.recover_all w.kfs));
      in_proc ~uid:0 w (fun fs ->
          Hashtbl.fold
            (fun path data ok -> ok && V.read_file fs path = Ok data)
            model true))

let () =
  Alcotest.run "recovery"
    [
      ( "crash-consistency",
        [
          Alcotest.test_case "completed writes survive" `Quick
            test_completed_writes_survive_crash;
          Alcotest.test_case "completed unlink survives" `Quick
            test_completed_unlink_survives_crash;
          QCheck_alcotest.to_alcotest
            qcheck_crash_recovery_preserves_completed_ops;
        ] );
      ( "fsck",
        [
          Alcotest.test_case "preserves files" `Quick
            test_recover_all_preserves_files;
          Alcotest.test_case "reclaims free-list pages" `Quick
            test_recovery_reclaims_free_list_pages;
          Alcotest.test_case "drops corrupted dentry" `Quick
            test_recovery_drops_corrupted_dentry;
          Alcotest.test_case "validates cross refs" `Quick
            test_recovery_validates_cross_refs;
          Alcotest.test_case "drops dangling cross ref" `Quick
            test_recovery_drops_dangling_cross_ref;
          Alcotest.test_case "reinitializes root inode" `Quick
            test_recovery_reinitializes_corrupt_root_inode;
          Alcotest.test_case "reclaims orphan inode (publish/dentry window)"
            `Quick test_recovery_orphan_inode_without_dentry;
          Alcotest.test_case "repairs torn coffer root page" `Quick
            test_recovery_torn_coffer_root_page;
          Alcotest.test_case "torn L1 slot past the device end" `Quick
            (torn_index ~where:`L1_slot ~target:`Past_end);
          Alcotest.test_case "torn L1 slot into another coffer" `Quick
            (torn_index ~where:`L1_slot ~target:`Other_coffer);
          Alcotest.test_case "torn bucket head past the device end" `Quick
            (torn_index ~where:`Bucket_head ~target:`Past_end);
          Alcotest.test_case "torn bucket head into another coffer" `Quick
            (torn_index ~where:`Bucket_head ~target:`Other_coffer);
          Alcotest.test_case "fsck's hwm audit on a torn L1 slot past the device end"
            `Quick (torn_index ~audit:true ~where:`L1_slot ~target:`Past_end);
          Alcotest.test_case "poisoned dentry tails" `Quick
            test_poisoned_dentry_tails;
          Alcotest.test_case "a lowered hwm hides dentries from every reader"
            `Quick test_lowered_hwm_hides_dentries;
          Alcotest.test_case "a slot without hwm bits reads the whole page"
            `Quick test_slot_without_hwm_reads_whole_page;
          Alcotest.test_case "parallel recovery repairs what sequential did"
            `Quick test_parallel_recovery_matches_sequential;
          Alcotest.test_case "a crash during recovery strands no coffer"
            `Quick test_crash_during_recovery;
          Alcotest.test_case "an expired recovery lease is taken over" `Quick
            test_expired_recovery_lease_taken_over;
          Alcotest.test_case "pointers leaving the coffer are not followed"
            `Quick test_pointers_leaving_the_coffer;
          QCheck_alcotest.to_alcotest qcheck_in_runs_matches_linear_scan;
        ] );
    ]
