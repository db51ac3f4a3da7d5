(* Tests for the analysis layer (lib/check): deliberately-buggy µFS-style
   snippets proving each rule fires, plus clean counterparts proving the
   rules stay silent on disciplined code. *)

module D = Nvm.Device
module V = Treasury.Vfs

let pg = Nvm.page_size

let rules () =
  List.map (fun v -> v.Check.v_rule) (Check.report ()).Check.r_violations

let labels () =
  List.map (fun v -> v.Check.v_label) (Check.report ()).Check.r_violations

let lint_count name =
  match List.assoc_opt name (Check.report ()).Check.r_lints with
  | Some n -> n
  | None -> 0

let with_dev ?(persist = Check.Off) ?(guideline = Check.Off) ?(lock = Check.Off)
    f =
  let dev = D.create ~perf:Nvm.Perf.free ~size:(64 * pg) () in
  let _t = Check.attach ~persist ~guideline ~lock dev in
  Check.reset_report ();
  Fun.protect
    ~finally:(fun () ->
      Check.detach ();
      Check.reset_report ())
    (fun () -> f dev)

let with_mpk ?(persist = Check.Off) ?(guideline = Check.Off) ?(lock = Check.Off)
    f =
  let dev = D.create ~perf:Nvm.Perf.free ~size:(64 * pg) () in
  let mpk = Mpk.create dev in
  let _t = Check.attach ~mpk ~persist ~guideline ~lock dev in
  Check.reset_report ();
  Fun.protect
    ~finally:(fun () ->
      Check.detach ();
      Check.reset_report ())
    (fun () -> f dev mpk)

(* ---- persistence checker ------------------------------------------------ *)

(* Buggy µFS snippet 1: commit an "inode" without flushing its fields. *)
let test_missing_flush () =
  with_dev ~persist:Check.Log (fun dev ->
      D.write_u64 dev 0 42 (* set a size field... *);
      (* ...and publish without clwb/sfence *)
      Check.publish dev ~label:"inode-commit" 0 64;
      Alcotest.(check (list string)) "fires" [ "missing-flush" ] (rules ()))

(* Buggy µFS snippet 2: flush but forget the fence before publishing. *)
let test_missing_fence () =
  with_dev ~persist:Check.Log (fun dev ->
      D.write_u64 dev 0 42;
      D.flush_range dev 0 8;
      Check.publish dev ~label:"dentry-insert" 0 64;
      Alcotest.(check (list string)) "fires" [ "missing-fence" ] (rules ()))

let test_clean_publish () =
  with_dev ~persist:Check.Log (fun dev ->
      D.write_u64 dev 0 42;
      D.persist_range dev 0 8;
      Check.publish dev ~label:"inode-commit" 0 64;
      D.nt_write_u64 dev 64 7;
      D.sfence dev;
      Check.publish dev ~label:"dentry-insert" 64 8;
      Alcotest.(check (list string)) "silent" [] (rules ()))

let test_publish_is_range_scoped () =
  with_dev ~persist:Check.Log (fun dev ->
      (* dirty line far away from the published range: not this publish's
         problem (the balloc free list relies on this) *)
      D.write_u64 dev (10 * pg) 1;
      D.write_u64 dev 0 42;
      D.persist_range dev 0 8;
      Check.publish dev ~label:"inode-commit" 0 64;
      Alcotest.(check (list string)) "silent" [] (rules ()))

let test_fail_mode_raises () =
  with_dev ~persist:Check.Fail (fun dev ->
      D.write_u64 dev 0 42;
      match Check.publish dev ~label:"inode-commit" 0 64 with
      | () -> Alcotest.fail "expected Violation"
      | exception Check.Violation v ->
          Alcotest.(check string) "rule" "missing-flush" v.Check.v_rule;
          Alcotest.(check string) "label" "inode-commit" v.Check.v_label)

let test_redundant_lints_and_stats () =
  with_dev ~persist:Check.Log (fun dev ->
      D.reset_stats dev;
      D.sfence dev (* nothing flushing *);
      D.write_u64 dev 0 1;
      D.clwb dev 0;
      D.clwb dev 0 (* already flushing *);
      D.sfence dev;
      D.clwb dev 0 (* clean line *);
      Alcotest.(check int) "device redundant fences" 1
        (D.stat_redundant_fences dev);
      Alcotest.(check int) "device redundant flushes" 2
        (D.stat_redundant_flushes dev);
      Alcotest.(check int) "lint redundant-fence" 1 (lint_count "redundant-fence");
      Alcotest.(check int) "lint redundant-flush" 2 (lint_count "redundant-flush");
      Alcotest.(check (list string)) "lints never fail" [] (rules ());
      D.reset_stats dev;
      Alcotest.(check int) "stats reset" 0 (D.stat_redundant_fences dev))

let test_overwrite_lint () =
  with_dev ~persist:Check.Log (fun dev ->
      D.write_u64 dev 0 1;
      D.write_u64 dev 0 2 (* overwritten before flush *);
      Alcotest.(check bool) "lint counted" true
        (lint_count "store-overwritten-before-flush" >= 1);
      Alcotest.(check (list string)) "lints never fail" [] (rules ()))

(* A word declared volatile as it is stored (an allocator free list) is
   neither a missing flush at a publish over it nor an overwrite when it
   is stored again; its unflushed neighbours still are. *)
let test_volatile_words () =
  with_dev ~persist:Check.Log (fun dev ->
      D.write_u64 dev 8 1;
      Check.volatile dev 8 8;
      D.write_u64 dev 8 2;
      Check.volatile dev 8 8;
      Alcotest.(check int) "no overwrite lint" 0
        (lint_count "store-overwritten-before-flush");
      Check.publish dev ~label:"inode-commit" 0 64;
      Alcotest.(check (list string)) "publish clean" [] (rules ());
      D.write_u64 dev 16 3;
      Check.publish dev ~label:"inode-commit" 0 64;
      Alcotest.(check (list string)) "a neighbour still fires"
        [ "missing-flush" ] (rules ()))

(* ---- guideline checker -------------------------------------------------- *)

let in_proc ?(uid = 1000) f =
  let proc = Sim.Proc.create ~uid ~gid:uid () in
  Sim.run_thread ~proc (fun () -> f proc)

(* Buggy µFS snippet 3 (G1): touch coffer NVM with a raw PKRU write instead
   of a with_keys coffer window. *)
let test_g1_access_outside_window () =
  with_mpk ~guideline:Check.Log (fun dev mpk ->
      in_proc (fun p ->
          Mpk.map_page mpk ~pid:p.Sim.Proc.pid ~page:2 ~writable:true ~pkey:3;
          Mpk.wrpkru mpk [ (3, Mpk.Pk_read_write) ];
          D.write_u64 dev (2 * pg) 1 (* no window open *);
          Alcotest.(check (list string)) "fires" [ "G1" ] (rules ());
          Check.reset_report ();
          Mpk.with_keys mpk [ (3, Mpk.Pk_read_write) ] (fun () ->
              D.write_u64 dev (2 * pg) 2);
          Alcotest.(check (list string)) "window is clean" [] (rules ())))

(* Buggy µFS snippet 4 (G2): open two coffers for writing at once. *)
let test_g2_two_writable_coffers () =
  with_mpk ~guideline:Check.Log (fun _dev mpk ->
      in_proc (fun _ ->
          Mpk.with_keys mpk
            [ (1, Mpk.Pk_read_write); (2, Mpk.Pk_read_write) ]
            (fun () -> ());
          Alcotest.(check (list string)) "fires" [ "G2" ] (rules ());
          Check.reset_report ();
          (* one writable + one read-only is within the guideline *)
          Mpk.with_keys mpk
            [ (1, Mpk.Pk_read_write); (2, Mpk.Pk_read) ]
            (fun () -> ());
          Alcotest.(check (list string)) "ro second key ok" [] (rules ())))

(* Buggy µFS snippet 5 (G3): dereference a cross-coffer dentry target
   without validating it against the kernel first. *)
let test_g3_unvalidated_cross_deref () =
  with_dev ~guideline:Check.Log (fun dev ->
      Sim.run_thread (fun () ->
          let target = 4 * pg in
          Zofs.Dir.write_dentry dev pg ~index:(2 * pg) ~name:"evil"
            ~kind:Zofs.Layout.kind_regular ~coffer:7 ~inode:target;
          (match Zofs.Dir.read_dentry dev pg with
          | Some de -> ignore (D.read_u64 dev de.Zofs.Dir.de_inode)
          | None -> Alcotest.fail "dentry should read back");
          Alcotest.(check (list string)) "fires" [ "G3" ] (rules ());
          Check.reset_report ();
          (* validated path: same read after validate_cross is clean *)
          ignore (Zofs.Dir.read_dentry dev pg);
          Check.validate_cross dev target;
          ignore (D.read_u64 dev target);
          Alcotest.(check (list string)) "validated deref ok" [] (rules ())))

(* ---- lock-discipline checker -------------------------------------------- *)

(* Buggy µFS snippet 6: write to a lease-protected inode without holding
   its lease. *)
let test_write_without_lease () =
  with_dev ~lock:Check.Log (fun dev ->
      Sim.run_thread (fun () ->
          let ino = 2 * pg in
          Zofs.Inode.init dev ~ino ~kind:Zofs.Inode.Regular ~mode:0o644 ~uid:0
            ~gid:0;
          (* initialization before the first acquire is grace-period quiet *)
          Alcotest.(check (list string)) "init quiet" [] (rules ());
          let lease = Zofs.Inode.lease_addr ~ino in
          Zofs.Lease.with_lease dev lease (fun () ->
              Zofs.Inode.set_size dev ~ino 10);
          Alcotest.(check (list string)) "locked write ok" [] (rules ());
          Zofs.Inode.set_mode dev ~ino 0o600 (* no lease held *);
          Alcotest.(check (list string)) "fires" [ "write-without-lease" ]
            (rules ())))

let test_lease_pairing () =
  with_dev ~lock:Check.Log (fun dev ->
      Sim.run_thread (fun () ->
          let lease = 3 * pg in
          Zofs.Lease.acquire dev lease;
          Zofs.Lease.acquire dev lease (* re-acquire while held *);
          Zofs.Lease.release dev lease;
          Zofs.Lease.release dev lease (* second release unpaired *);
          Alcotest.(check (list string))
            "pairing violations"
            [ "double-acquire"; "unpaired-release" ]
            (rules ())))

(* Releasing a lease publishes the structure it protects. *)
let test_lease_release_is_publish_point () =
  with_dev ~persist:Check.Log ~lock:Check.Log (fun dev ->
      Sim.run_thread (fun () ->
          let ino = 2 * pg in
          Zofs.Inode.init dev ~ino ~kind:Zofs.Inode.Regular ~mode:0o644 ~uid:0
            ~gid:0;
          Alcotest.(check (list string)) "init publishes clean" [] (rules ());
          let lease = Zofs.Inode.lease_addr ~ino in
          Zofs.Lease.with_lease dev lease (fun () ->
              (* dirty a block pointer and "forget" to persist it *)
              D.write_u64 dev (ino + Zofs.Layout.i_direct) 777);
          Alcotest.(check (list string)) "fires" [ "missing-flush" ] (rules ());
          Alcotest.(check (list string)) "at release" [ "lease-release" ]
            (labels ());
          (* the lease word itself is exempt: an acquire/release cycle with
             a properly persisted payload is clean *)
          D.persist_range dev (ino + Zofs.Layout.i_direct) 8;
          Check.reset_report ();
          Zofs.Lease.with_lease dev lease (fun () ->
              Zofs.Inode.set_size dev ~ino 4096);
          Alcotest.(check (list string)) "lease word exempt" [] (rules ())))

(* ---- end-to-end: the real µFS under all checkers in fail mode ---------- *)

let test_real_fs_clean_under_fail () =
  let dev = D.create ~perf:Nvm.Perf.free ~size:(4096 * pg) () in
  let mpk = Mpk.create dev in
  let _t =
    Check.attach ~mpk ~persist:Check.Fail ~guideline:Check.Fail
      ~lock:Check.Fail dev
  in
  Check.reset_report ();
  Fun.protect
    ~finally:(fun () ->
      Check.detach ();
      Check.reset_report ())
    (fun () ->
      let kfs =
        Treasury.Kernfs.mkfs dev mpk ~nbuckets:512 ~root_ctype:Zofs.Ufs.ctype
          ~root_mode:0o777 ~root_uid:0 ~root_gid:0 ()
      in
      Zofs.Ufs.mkfs kfs;
      let w = { Testkit.dev; mpk; kfs } in
      Testkit.in_proc w (fun fs ->
          Testkit.ok_or_fail (V.mkdir fs "/d" 0o755);
          Testkit.ok_or_fail (V.write_file fs "/d/a" ~mode:0o644 "hello");
          Alcotest.(check string)
            "read back" "hello"
            (Testkit.ok_or_fail (V.read_file fs "/d/a"));
          Testkit.ok_or_fail (V.rename fs "/d/a" "/d/b");
          Testkit.ok_or_fail (V.append_file fs "/d/b" " world");
          Testkit.ok_or_fail (V.unlink fs "/d/b");
          Testkit.ok_or_fail (V.rmdir fs "/d"));
      Alcotest.(check (list string)) "no violations" [] (rules ()))

(* ---- report plumbing ---------------------------------------------------- *)

let test_off_mode_silent () =
  with_dev ~persist:Check.Off (fun dev ->
      D.write_u64 dev 0 1;
      Check.publish dev ~label:"inode-commit" 0 64;
      Alcotest.(check (list string)) "off" [] (rules ()))

let test_detached_device_ignored () =
  with_dev ~persist:Check.Log (fun _dev ->
      let other = D.create ~perf:Nvm.Perf.free ~size:pg () in
      D.write_u64 other 0 1;
      Check.publish other ~label:"inode-commit" 0 64;
      Alcotest.(check (list string)) "other device untracked" [] (rules ()))

let () =
  Alcotest.run "check"
    [
      ( "persist",
        [
          Alcotest.test_case "missing flush" `Quick test_missing_flush;
          Alcotest.test_case "missing fence" `Quick test_missing_fence;
          Alcotest.test_case "clean publish" `Quick test_clean_publish;
          Alcotest.test_case "range scoped" `Quick test_publish_is_range_scoped;
          Alcotest.test_case "fail mode raises" `Quick test_fail_mode_raises;
          Alcotest.test_case "redundant lints + stats" `Quick
            test_redundant_lints_and_stats;
          Alcotest.test_case "overwrite lint" `Quick test_overwrite_lint;
          Alcotest.test_case "volatile words" `Quick test_volatile_words;
        ] );
      ( "guideline",
        [
          Alcotest.test_case "G1 outside window" `Quick
            test_g1_access_outside_window;
          Alcotest.test_case "G2 two writable" `Quick
            test_g2_two_writable_coffers;
          Alcotest.test_case "G3 unvalidated deref" `Quick
            test_g3_unvalidated_cross_deref;
        ] );
      ( "lock",
        [
          Alcotest.test_case "write without lease" `Quick
            test_write_without_lease;
          Alcotest.test_case "acquire/release pairing" `Quick
            test_lease_pairing;
          Alcotest.test_case "release is publish point" `Quick
            test_lease_release_is_publish_point;
        ] );
      ( "integration",
        [
          Alcotest.test_case "real FS clean under fail" `Quick
            test_real_fs_clean_under_fail;
          Alcotest.test_case "off mode silent" `Quick test_off_mode_silent;
          Alcotest.test_case "other devices ignored" `Quick
            test_detached_device_ignored;
        ] );
    ]
