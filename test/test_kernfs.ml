(* Tests for KernFS: the coffer protocol of paper Table 5. *)

module K = Treasury.Kernfs
module A = Treasury.Alloc_table
module Coffer = Treasury.Coffer
module E = Treasury.Errno
module D = Nvm.Device

let zofs_ctype = 1

let mk ?(perf = Nvm.Perf.free) ?(pages = 1024) () =
  let dev = D.create ~perf ~size:(pages * Nvm.page_size) () in
  let mpk = Mpk.create dev in
  let kfs =
    K.mkfs dev mpk ~nbuckets:256 ~root_ctype:zofs_ctype ~root_mode:0o777
      ~root_uid:0 ~root_gid:0 ()
  in
  (dev, mpk, kfs)

let as_user ?(uid = 1000) f =
  let proc = Sim.Proc.create ~uid ~gid:uid () in
  Sim.run_thread ~proc f

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error %s" (E.to_string e)

let expect_err expected = function
  | Ok _ -> Alcotest.failf "expected %s" (E.to_string expected)
  | Error e ->
      Alcotest.(check string) "errno" (E.to_string expected) (E.to_string e)

let test_mkfs_root_coffer () =
  let _, _, kfs = mk () in
  as_user (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let info = ok_or_fail (K.coffer_stat kfs (K.root_coffer kfs)) in
      Alcotest.(check string) "path" "/" info.Coffer.path;
      Alcotest.(check int) "ctype" zofs_ctype info.Coffer.ctype;
      Alcotest.(check int) "mode" 0o777 info.Coffer.mode;
      Alcotest.(check bool) "has root file page" true (info.Coffer.root_file > 0);
      Alcotest.(check bool) "has custom page" true (info.Coffer.custom > 0);
      (* root coffer owns exactly its 3 initial pages *)
      Alcotest.(check int) "3 pages" 3
        (A.coffer_page_count (K.alloc_table kfs) ~cid:info.Coffer.id))

let test_fs_mount_required () =
  let _, _, kfs = mk () in
  as_user (fun () ->
      (* coffer_map before fs_mount: the process is unknown. *)
      expect_err E.EINVAL (K.coffer_map kfs (K.root_coffer kfs)))

let test_coffer_new_and_find () =
  let _, _, kfs = mk () in
  as_user (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let c =
        ok_or_fail
          (K.coffer_new kfs ~path:"/data" ~ctype:zofs_ctype ~mode:0o600
             ~uid:1000 ~gid:1000)
      in
      Alcotest.(check string) "path" "/data" c.Coffer.path;
      Alcotest.(check int) "find" c.Coffer.id (ok_or_fail (K.coffer_find kfs "/data"));
      let p, cid = ok_or_fail (K.coffer_locate kfs "/data/sub/file") in
      Alcotest.(check string) "locate prefix" "/data" p;
      Alcotest.(check int) "locate cid" c.Coffer.id cid)

let test_coffer_new_checks_parent_write () =
  let dev = D.create ~perf:Nvm.Perf.free ~size:(1024 * Nvm.page_size) () in
  let mpk = Mpk.create dev in
  (* Root coffer writable only by root. *)
  let kfs =
    K.mkfs dev mpk ~nbuckets:256 ~root_ctype:zofs_ctype ~root_mode:0o755
      ~root_uid:0 ~root_gid:0 ()
  in
  as_user ~uid:1000 (fun () ->
      ok_or_fail (K.fs_mount kfs);
      expect_err E.EACCES
        (K.coffer_new kfs ~path:"/mine" ~ctype:zofs_ctype ~mode:0o600 ~uid:1000
           ~gid:1000))

let test_coffer_map_grants_access () =
  let dev, mpk, kfs = mk () in
  as_user (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let c =
        ok_or_fail
          (K.coffer_new kfs ~path:"/d" ~ctype:zofs_ctype ~mode:0o600 ~uid:1000
             ~gid:1000)
      in
      let m = ok_or_fail (K.coffer_map kfs c.Coffer.id) in
      Alcotest.(check bool) "writable" true m.K.m_writable;
      Alcotest.(check bool) "pkey in 1..15" true (m.K.m_pkey >= 1 && m.K.m_pkey <= 15);
      (* Open the region and write to the root-file page. *)
      Mpk.with_keys mpk [ (m.K.m_pkey, Mpk.Pk_read_write) ] (fun () ->
          D.write_u64 dev m.K.m_root_file 42;
          Alcotest.(check int) "rw" 42 (D.read_u64 dev m.K.m_root_file));
      (* The coffer root page is mapped read-only even with the key open. *)
      Mpk.with_keys mpk [ (m.K.m_pkey, Mpk.Pk_read_write) ] (fun () ->
          match D.write_u64 dev (Coffer.root_addr c.Coffer.id) 1 with
          | () -> Alcotest.fail "root page must be read-only"
          | exception Nvm.Fault { reason; _ } ->
              Alcotest.(check string) "reason" "page mapped read-only" reason);
      (* Without the key: fault. *)
      (match D.read_u64 dev m.K.m_root_file with
      | _ -> Alcotest.fail "closed region must fault"
      | exception Nvm.Fault _ -> ());
      ok_or_fail (K.coffer_unmap kfs c.Coffer.id);
      match D.read_u64 dev m.K.m_root_file with
      | _ -> Alcotest.fail "unmapped coffer must fault"
      | exception Nvm.Fault _ -> ())

let test_coffer_map_permission_denied () =
  let _, _, kfs = mk () in
  as_user (fun () ->
      ok_or_fail (K.fs_mount kfs);
      (* a coffer owned by somebody else, mode 600 *)
      let c =
        ok_or_fail
          (K.coffer_new kfs ~path:"/other" ~ctype:zofs_ctype ~mode:0o600
             ~uid:4242 ~gid:4242)
      in
      expect_err E.EACCES (K.coffer_map kfs c.Coffer.id))

let test_coffer_map_readonly_for_group () =
  let dev, mpk, kfs = mk () in
  let proc = Sim.Proc.create ~uid:1000 ~gid:500 () in
  Sim.run_thread ~proc (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let c =
        ok_or_fail
          (K.coffer_new kfs ~path:"/shared" ~ctype:zofs_ctype ~mode:0o640
             ~uid:7 ~gid:500)
      in
      let m = ok_or_fail (K.coffer_map kfs c.Coffer.id) in
      Alcotest.(check bool) "not writable" false m.K.m_writable;
      Mpk.with_keys mpk [ (m.K.m_pkey, Mpk.Pk_read_write) ] (fun () ->
          ignore (D.read_u64 dev m.K.m_root_file);
          match D.write_u64 dev m.K.m_root_file 1 with
          | () -> Alcotest.fail "read-only mapping must reject writes"
          | exception Nvm.Fault _ -> ()))

let test_map_exhausts_15_regions () =
  let _, _, kfs = mk () in
  as_user (fun () ->
      ok_or_fail (K.fs_mount kfs);
      for i = 1 to 15 do
        let c =
          ok_or_fail
            (K.coffer_new kfs
               ~path:(Printf.sprintf "/c%d" i)
               ~ctype:zofs_ctype ~mode:0o600 ~uid:1000 ~gid:1000)
        in
        ignore (ok_or_fail (K.coffer_map kfs c.Coffer.id))
      done;
      let extra =
        ok_or_fail
          (K.coffer_new kfs ~path:"/c16" ~ctype:zofs_ctype ~mode:0o600
             ~uid:1000 ~gid:1000)
      in
      (* Only 15 MPK regions exist (paper §3.4.2). *)
      expect_err E.EMFILE (K.coffer_map kfs extra.Coffer.id);
      (* Unmapping one frees a region. *)
      let first = ok_or_fail (K.coffer_find kfs "/c1") in
      ok_or_fail (K.coffer_unmap kfs first);
      ignore (ok_or_fail (K.coffer_map kfs extra.Coffer.id)))

(* KernFS holds the record [coffer_map] returned: the same one while the
   mapping lasts, none once another process's chmod tore it down, a new one
   after the remap. *)
let test_holds_the_record () =
  let _, _, kfs = mk () in
  let a = Sim.Proc.create ~uid:1000 ~gid:1000 ()
  and b = Sim.Proc.create ~uid:1000 ~gid:1000 () in
  let cid = ref 0 and first = ref None in
  Sim.run_thread ~proc:a (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let c =
        ok_or_fail
          (K.coffer_new kfs ~path:"/m" ~ctype:zofs_ctype ~mode:0o600 ~uid:1000
             ~gid:1000)
      in
      cid := c.Coffer.id;
      let m = ok_or_fail (K.coffer_map kfs !cid) in
      Alcotest.(check bool) "held" true (K.holds kfs !cid m);
      Alcotest.(check bool) "a map of a mapped coffer: the same record" true
        (ok_or_fail (K.coffer_map kfs !cid) == m);
      first := Some m);
  let m1 = Option.get !first in
  Sim.run_thread ~proc:b (fun () ->
      ok_or_fail (K.fs_mount kfs);
      Alcotest.(check bool) "not b's" false (K.holds kfs !cid m1);
      ok_or_fail (K.coffer_chmod kfs !cid ~mode:0o640 ~uid:1000 ~gid:1000));
  Sim.run_thread ~proc:a (fun () ->
      Alcotest.(check bool) "gone after b's chmod" false (K.holds kfs !cid m1);
      let m = ok_or_fail (K.coffer_map kfs !cid) in
      Alcotest.(check bool) "a remap: a new record" false (m == m1);
      Alcotest.(check bool) "the new record held" true (K.holds kfs !cid m);
      Alcotest.(check bool) "the old one not" false (K.holds kfs !cid m1);
      (* A µFS checks it on every op: neither a hit nor a miss allocates
         (the slack is the boxed floats [Gc.minor_words] returns). *)
      let root = K.root_coffer kfs in
      let before = Gc.minor_words () in
      for _ = 1 to 1000 do
        ignore (Sys.opaque_identity (K.holds kfs !cid m));
        ignore (Sys.opaque_identity (K.holds kfs root m))
      done;
      Alcotest.(check bool) "allocates nothing" true
        (Gc.minor_words () -. before < 10.))

let test_enlarge_and_shrink () =
  let dev, mpk, kfs = mk () in
  as_user (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let c =
        ok_or_fail
          (K.coffer_new kfs ~path:"/big" ~ctype:zofs_ctype ~mode:0o600
             ~uid:1000 ~gid:1000)
      in
      let m = ok_or_fail (K.coffer_map kfs c.Coffer.id) in
      let granted = ok_or_fail (K.coffer_enlarge kfs c.Coffer.id ~n:8) in
      let total = List.fold_left (fun a (_, l) -> a + l) 0 granted in
      Alcotest.(check int) "8 pages granted" 8 total;
      Alcotest.(check int) "11 pages total" 11
        (A.coffer_page_count (K.alloc_table kfs) ~cid:c.Coffer.id);
      (* Newly granted pages are writable immediately under the same pkey. *)
      let start, _ = List.hd granted in
      Mpk.with_keys mpk [ (m.K.m_pkey, Mpk.Pk_read_write) ] (fun () ->
          D.write_u64 dev (start * Nvm.page_size) 7);
      ok_or_fail (K.coffer_shrink kfs c.Coffer.id ~runs:granted);
      Alcotest.(check int) "back to 3" 3
        (A.coffer_page_count (K.alloc_table kfs) ~cid:c.Coffer.id);
      (* Shrunk pages are no longer mapped. *)
      Mpk.with_keys mpk [ (m.K.m_pkey, Mpk.Pk_read_write) ] (fun () ->
          match D.read_u64 dev (start * Nvm.page_size) with
          | _ -> Alcotest.fail "shrunk page must fault"
          | exception Nvm.Fault _ -> ()))

let test_shrink_rejects_foreign_pages () =
  let _, _, kfs = mk () in
  as_user (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let c1 =
        ok_or_fail
          (K.coffer_new kfs ~path:"/a" ~ctype:zofs_ctype ~mode:0o600 ~uid:1000
             ~gid:1000)
      in
      let c2 =
        ok_or_fail
          (K.coffer_new kfs ~path:"/b" ~ctype:zofs_ctype ~mode:0o600 ~uid:1000
             ~gid:1000)
      in
      let granted = ok_or_fail (K.coffer_enlarge kfs c2.Coffer.id ~n:4) in
      (* c1 cannot free c2's pages; nor its own root page. *)
      expect_err E.EINVAL (K.coffer_shrink kfs c1.Coffer.id ~runs:granted);
      expect_err E.EINVAL
        (K.coffer_shrink kfs c1.Coffer.id ~runs:[ (c1.Coffer.id, 1) ]))

(* Enlarge grants pages in chunks (kernfs.ml): when the allocation table
   runs dry after at least one chunk, the syscall returns the partial grant
   as a success — and pays its metrics (enlarge_calls, the shootdown)
   exactly once, with no pages leaked for the chunks that failed. *)
let test_enlarge_partial_on_exhaustion () =
  let _, _, kfs = mk () in
  as_user (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let c =
        ok_or_fail
          (K.coffer_new kfs ~path:"/big" ~ctype:zofs_ctype ~mode:0o600
             ~uid:1000 ~gid:1000)
      in
      ignore (ok_or_fail (K.coffer_map kfs c.Coffer.id));
      let free = K.free_pages kfs in
      let e0 = K.enlarge_count kfs in
      (* Ask for more than exists: whole chunks succeed, then the table runs
         dry mid-batch. *)
      let runs = ok_or_fail (K.coffer_enlarge kfs c.Coffer.id ~n:(free + 64)) in
      let total = List.fold_left (fun a (_, l) -> a + l) 0 runs in
      Alcotest.(check int) "whole chunks granted" (free / 16 * 16) total;
      Alcotest.(check bool) "partial, not full" true (total < free + 64);
      Alcotest.(check int) "enlarge metric paid once" 1 (K.enlarge_count kfs - e0);
      Alcotest.(check int) "no pages leaked" (free - total) (K.free_pages kfs);
      (* Once even the first chunk cannot be cut, the call is a real error
         and still grants nothing. *)
      if K.free_pages kfs < 16 then begin
        let e1 = K.enlarge_count kfs in
        expect_err E.ENOSPC (K.coffer_enlarge kfs c.Coffer.id ~n:64);
        Alcotest.(check int) "error grants nothing" (free - total)
          (K.free_pages kfs);
        ignore e1
      end)

(* A transient kernel failure (chaos-style injection) arming itself while an
   enlarge batch is in flight: the batch absorbs it after the first chunk —
   partial success, the armed fault consumed, metrics counted once.  Being a
   success, FSLib's [Transient.retry] will NOT re-issue the call, so nothing
   is double-counted and the already-granted chunk cannot leak. *)
let test_enlarge_midbatch_transient_counts_once () =
  if not (Obs.enabled ()) then Obs.enable ~spans:false ();
  let snap0 = Obs.Snapshot.take () in
  let counter name =
    let d = Obs.Snapshot.diff snap0 (Obs.Snapshot.take ()) in
    Option.value ~default:0 (Obs.Snapshot.counter_value d name)
  in
  let _, _, kfs = mk () in
  let w = Sim.create () in
  let proc = Sim.Proc.create ~uid:1000 ~gid:1000 () in
  let result = ref None in
  let free0 = ref 0 in
  Sim.spawn w ~proc ~name:"grower" (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let c =
        ok_or_fail
          (K.coffer_new kfs ~path:"/big" ~ctype:zofs_ctype ~mode:0o600
             ~uid:1000 ~gid:1000)
      in
      ignore (ok_or_fail (K.coffer_map kfs c.Coffer.id));
      free0 := K.free_pages kfs;
      result := Some (K.coffer_enlarge kfs c.Coffer.id ~n:48));
  Sim.spawn w ~name:"injector" (fun () ->
      (* enlarge_calls is bumped at batch entry, before the shootdown delay:
         arming inside that window lands the fault mid-batch. *)
      while K.enlarge_count kfs = 0 do
        Sim.advance 25
      done;
      K.inject_transient kfs ~n:1 ());
  Sim.run w;
  (match !result with
  | Some (Ok runs) ->
      let total = List.fold_left (fun a (_, l) -> a + l) 0 runs in
      Alcotest.(check int) "first chunk only" 16 total;
      Alcotest.(check int) "granted pages accounted" (!free0 - 16)
        (K.free_pages kfs)
  | Some (Error e) ->
      Alcotest.failf "mid-batch transient was not absorbed: %s" (E.to_string e)
  | None -> Alcotest.fail "enlarge never ran");
  Alcotest.(check int) "enlarge metric paid once" 1 (K.enlarge_count kfs);
  Alcotest.(check int) "armed fault consumed" 0 (K.pending_transients kfs);
  Alcotest.(check int) "fault tripped exactly once" 1 (counter "fault.transient")

let test_delete () =
  let _, _, kfs = mk () in
  as_user (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let c =
        ok_or_fail
          (K.coffer_new kfs ~path:"/gone" ~ctype:zofs_ctype ~mode:0o600
             ~uid:1000 ~gid:1000)
      in
      ignore (ok_or_fail (K.coffer_enlarge kfs c.Coffer.id ~n:5));
      let free_before = K.free_pages kfs in
      ok_or_fail (K.coffer_delete kfs c.Coffer.id);
      Alcotest.(check int) "8 pages reclaimed" (free_before + 8) (K.free_pages kfs);
      expect_err E.ENOENT (K.coffer_find kfs "/gone");
      (* Root coffer is protected. *)
      expect_err E.EBUSY (K.coffer_delete kfs (K.root_coffer kfs)))

let test_split () =
  let _, _, kfs = mk () in
  as_user (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let c =
        ok_or_fail
          (K.coffer_new kfs ~path:"/dir" ~ctype:zofs_ctype ~mode:0o666
             ~uid:1000 ~gid:1000)
      in
      let granted = ok_or_fail (K.coffer_enlarge kfs c.Coffer.id ~n:6) in
      let start, len = List.hd granted in
      Alcotest.(check int) "granted one run" 6 len;
      (* Move 4 of the new pages into a split coffer with a new mode. *)
      let moved = [ (start, 4) ] in
      let nc =
        ok_or_fail
          (K.coffer_split kfs ~src:c.Coffer.id ~new_path:"/dir/secret"
             ~ctype:zofs_ctype ~mode:0o600 ~uid:1000 ~gid:1000 ~runs:moved
             ~root_file:(start * Nvm.page_size)
             ~custom:((start + 1) * Nvm.page_size))
      in
      Alcotest.(check int) "src keeps 3+2" 5
        (A.coffer_page_count (K.alloc_table kfs) ~cid:c.Coffer.id);
      Alcotest.(check int) "new has 4+1root" 5
        (A.coffer_page_count (K.alloc_table kfs) ~cid:nc.Coffer.id);
      Alcotest.(check int) "registered" nc.Coffer.id
        (ok_or_fail (K.coffer_find kfs "/dir/secret"));
      Alcotest.(check int) "new mode" 0o600 nc.Coffer.mode)

let test_split_requires_ownership () =
  let _, _, kfs = mk () in
  as_user ~uid:1000 (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let c =
        ok_or_fail
          (K.coffer_new kfs ~path:"/notmine" ~ctype:zofs_ctype ~mode:0o666
             ~uid:55 ~gid:55)
      in
      let granted = ok_or_fail (K.coffer_enlarge kfs c.Coffer.id ~n:2) in
      expect_err E.EPERM
        (K.coffer_split kfs ~src:c.Coffer.id ~new_path:"/notmine/x"
           ~ctype:zofs_ctype ~mode:0o600 ~uid:55 ~gid:55 ~runs:granted
           ~root_file:0 ~custom:0))

let test_merge () =
  let _, _, kfs = mk () in
  as_user (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let a =
        ok_or_fail
          (K.coffer_new kfs ~path:"/m" ~ctype:zofs_ctype ~mode:0o600 ~uid:1000
             ~gid:1000)
      in
      let b =
        ok_or_fail
          (K.coffer_new kfs ~path:"/m/sub" ~ctype:zofs_ctype ~mode:0o600
             ~uid:1000 ~gid:1000)
      in
      ignore (ok_or_fail (K.coffer_enlarge kfs b.Coffer.id ~n:4));
      ok_or_fail (K.coffer_merge kfs ~dst:a.Coffer.id ~src:b.Coffer.id);
      (* a absorbs b's 2 extra initial pages + 4 enlarged; b's root page is
         freed. *)
      Alcotest.(check int) "absorbed" 9
        (A.coffer_page_count (K.alloc_table kfs) ~cid:a.Coffer.id);
      expect_err E.ENOENT (K.coffer_find kfs "/m/sub"))

let test_merge_requires_same_perm () =
  let _, _, kfs = mk () in
  as_user (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let a =
        ok_or_fail
          (K.coffer_new kfs ~path:"/p1" ~ctype:zofs_ctype ~mode:0o600 ~uid:1000
             ~gid:1000)
      in
      let b =
        ok_or_fail
          (K.coffer_new kfs ~path:"/p2" ~ctype:zofs_ctype ~mode:0o666 ~uid:1000
             ~gid:1000)
      in
      expect_err E.EPERM (K.coffer_merge kfs ~dst:a.Coffer.id ~src:b.Coffer.id))

let test_chmod_in_place () =
  let _, _, kfs = mk () in
  as_user (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let c =
        ok_or_fail
          (K.coffer_new kfs ~path:"/c" ~ctype:zofs_ctype ~mode:0o600 ~uid:1000
             ~gid:1000)
      in
      ok_or_fail (K.coffer_chmod kfs c.Coffer.id ~mode:0o640 ~uid:1000 ~gid:1000);
      let info = ok_or_fail (K.coffer_stat kfs c.Coffer.id) in
      Alcotest.(check int) "new mode" 0o640 info.Coffer.mode)

let test_rename_moves_descendants () =
  let _, _, kfs = mk () in
  as_user (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let top =
        ok_or_fail
          (K.coffer_new kfs ~path:"/top" ~ctype:zofs_ctype ~mode:0o777
             ~uid:1000 ~gid:1000)
      in
      let _child =
        ok_or_fail
          (K.coffer_new kfs ~path:"/top/child" ~ctype:zofs_ctype ~mode:0o600
             ~uid:1000 ~gid:1000)
      in
      ok_or_fail (K.coffer_rename kfs top.Coffer.id ~new_path:"/renamed");
      Alcotest.(check int) "top moved" top.Coffer.id
        (ok_or_fail (K.coffer_find kfs "/renamed"));
      expect_err E.ENOENT (K.coffer_find kfs "/top");
      expect_err E.ENOENT (K.coffer_find kfs "/top/child");
      ignore (ok_or_fail (K.coffer_find kfs "/renamed/child"));
      (* Root pages record the new paths. *)
      let info = ok_or_fail (K.coffer_stat kfs top.Coffer.id) in
      Alcotest.(check string) "root page path" "/renamed" info.Coffer.path)

let test_recover_reclaims_leaked_pages () =
  let _, _, kfs = mk () in
  as_user (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let c =
        ok_or_fail
          (K.coffer_new kfs ~path:"/r" ~ctype:zofs_ctype ~mode:0o600 ~uid:1000
             ~gid:1000)
      in
      let granted = ok_or_fail (K.coffer_enlarge kfs c.Coffer.id ~n:6) in
      let pages =
        List.concat_map (fun (s, l) -> List.init l (fun i -> s + i)) granted
      in
      let keep = [ List.nth pages 0; List.nth pages 1 ] in
      let runs = ok_or_fail (K.coffer_recover_begin kfs c.Coffer.id) in
      Alcotest.(check bool) "recover sees all runs" true (List.length runs >= 1);
      let info = ok_or_fail (K.coffer_stat kfs c.Coffer.id) in
      Alcotest.(check bool) "in recovery" true info.Coffer.in_recovery;
      (* While in recovery, mapping is refused. *)
      expect_err E.EBUSY (K.coffer_map kfs c.Coffer.id);
      let stat = ok_or_fail (K.coffer_stat kfs c.Coffer.id) in
      ok_or_fail
        (K.coffer_recover_end kfs c.Coffer.id
           ~in_use:
             (keep
             @ [
                 stat.Coffer.root_file / Nvm.page_size;
                 stat.Coffer.custom / Nvm.page_size;
               ]));
      (* 6 granted - 2 kept = 4 reclaimed; 3 original + 2 kept = 5 remain. *)
      Alcotest.(check int) "remaining pages" 5
        (A.coffer_page_count (K.alloc_table kfs) ~cid:c.Coffer.id);
      let info = ok_or_fail (K.coffer_stat kfs c.Coffer.id) in
      Alcotest.(check bool) "recovery done" false info.Coffer.in_recovery)

(* While a coffer is in recovery nobody may change which pages it owns:
   the recoverer checks every pointer it follows against the runs
   coffer_recover_begin returned.  Once recovery ends the same calls go
   through. *)
let test_recovery_freezes_ownership () =
  let _, _, kfs = mk () in
  as_user (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let coffer path =
        (ok_or_fail
           (K.coffer_new kfs ~path ~ctype:zofs_ctype ~mode:0o600 ~uid:1000
              ~gid:1000))
          .Coffer.id
      in
      let r = coffer "/r" and s = coffer "/s" in
      let start, _ = List.hd (ok_or_fail (K.coffer_enlarge kfs r ~n:4)) in
      let runs = ok_or_fail (K.coffer_recover_begin kfs r) in
      expect_err E.EBUSY (K.coffer_enlarge kfs r ~n:2);
      expect_err E.EBUSY (K.coffer_shrink kfs r ~runs:[ (start, 1) ]);
      expect_err E.EBUSY
        (K.coffer_split kfs ~src:r ~new_path:"/r/x" ~ctype:zofs_ctype
           ~mode:0o600 ~uid:1000 ~gid:1000
           ~runs:[ (start + 2, 2) ]
           ~root_file:((start + 2) * Nvm.page_size)
           ~custom:((start + 3) * Nvm.page_size));
      expect_err E.EBUSY (K.coffer_merge kfs ~dst:s ~src:r);
      expect_err E.EBUSY (K.coffer_merge kfs ~dst:r ~src:s);
      expect_err E.EBUSY (K.coffer_delete kfs r);
      Alcotest.(check (list (pair int int)))
        "the coffer owns what recover_begin returned" runs
        (A.runs_of (K.alloc_table kfs) ~cid:r);
      Alcotest.(check int) "/s untouched" s (ok_or_fail (K.coffer_find kfs "/s"));
      ok_or_fail
        (K.coffer_recover_end kfs r
           ~in_use:
             (List.concat_map (fun (p, n) -> List.init n (fun i -> p + i)) runs));
      ignore (ok_or_fail (K.coffer_enlarge kfs r ~n:2));
      ok_or_fail (K.coffer_merge kfs ~dst:r ~src:s);
      ok_or_fail (K.coffer_delete kfs r))

let test_remount_preserves_everything () =
  let dev, mpk, kfs = mk () in
  as_user (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let c =
        ok_or_fail
          (K.coffer_new kfs ~path:"/persist" ~ctype:zofs_ctype ~mode:0o640
             ~uid:1000 ~gid:1000)
      in
      ignore (ok_or_fail (K.coffer_enlarge kfs c.Coffer.id ~n:4)));
  (* Clean "reboot": volatile state dropped, remount from NVM. *)
  let kfs' = K.mount dev mpk in
  as_user (fun () ->
      ok_or_fail (K.fs_mount kfs');
      Alcotest.(check int) "root rediscovered" (K.root_coffer kfs)
        (K.root_coffer kfs');
      let cid = ok_or_fail (K.coffer_find kfs' "/persist") in
      let info = ok_or_fail (K.coffer_stat kfs' cid) in
      Alcotest.(check int) "mode" 0o640 info.Coffer.mode;
      Alcotest.(check int) "uid" 1000 info.Coffer.uid;
      Alcotest.(check int) "7 pages" 7
        (A.coffer_page_count (K.alloc_table kfs') ~cid))

let test_file_mmap_validation () =
  let _, _, kfs = mk () in
  as_user (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let c =
        ok_or_fail
          (K.coffer_new kfs ~path:"/mm" ~ctype:zofs_ctype ~mode:0o600 ~uid:1000
             ~gid:1000)
      in
      ignore (ok_or_fail (K.coffer_map kfs c.Coffer.id));
      let pages =
        [ c.Coffer.root_file / Nvm.page_size; c.Coffer.custom / Nvm.page_size ]
      in
      ok_or_fail (K.file_mmap kfs ~cid:c.Coffer.id ~pages);
      (* Pages of another coffer are rejected. *)
      expect_err E.EINVAL
        (K.file_mmap kfs ~cid:c.Coffer.id ~pages:[ K.root_coffer kfs ]))

(* Every page a coffer owns, in run order. *)
let coffer_pages kfs cid =
  List.concat_map
    (fun (start, len) -> List.init len (fun i -> start + i))
    (A.runs_of (K.alloc_table kfs) ~cid)

(* file_execve validates like file_mmap and charges each image page one PTE
   update plus a page copy, all in one advance. *)
let test_file_execve () =
  let _, _, kfs = mk () in
  let per_page = K.pte_update_cost + (Nvm.page_size / 39) in
  as_user (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let mk_coffer path =
        ok_or_fail
          (K.coffer_new kfs ~path ~ctype:zofs_ctype ~mode:0o600 ~uid:1000
             ~gid:1000)
      in
      let c = mk_coffer "/exe" and other = mk_coffer "/other" in
      ignore (ok_or_fail (K.coffer_enlarge kfs c.Coffer.id ~n:8));
      ignore (ok_or_fail (K.coffer_map kfs c.Coffer.id));
      let cid = c.Coffer.id in
      let pages = List.filter (fun p -> p <> cid) (coffer_pages kfs cid) in
      expect_err E.EACCES
        (K.file_execve kfs ~cid:other.Coffer.id
           ~pages:[ other.Coffer.custom / Nvm.page_size ]);
      expect_err E.EINVAL
        (K.file_execve kfs ~cid ~pages:[ K.root_coffer kfs ]);
      let cost pages =
        let t0 = Sim.now () in
        ok_or_fail (K.file_execve kfs ~cid ~pages);
        Sim.now () - t0
      in
      let empty = cost [] in
      Alcotest.(check int) "pages x (PTE + copy)"
        (List.length pages * per_page)
        (cost pages - empty));
  (* One advance, whatever the page count: beside a thread that steps every
     10 ns, a 1-page and a 10-page execve switch context equally often. *)
  let switches_during npages =
    let world = Sim.create () in
    let proc = Sim.Proc.create ~uid:1000 ~gid:1000 () in
    let stop = ref false and switches = ref 0 in
    Sim.spawn world ~proc ~name:"exec" (fun () ->
        ok_or_fail (K.fs_mount kfs);
        let cid = ok_or_fail (K.coffer_find kfs "/exe") in
        ignore (ok_or_fail (K.coffer_map kfs cid));
        let pages = List.filter (fun p -> p <> cid) (coffer_pages kfs cid) in
        let s0 = Sim.world_switches world in
        ok_or_fail
          (K.file_execve kfs ~cid ~pages:(List.filteri (fun i _ -> i < npages) pages));
        switches := Sim.world_switches world - s0;
        stop := true);
    Sim.spawn world ~name:"ticker" (fun () ->
        while not !stop do
          Sim.advance 10
        done);
    Sim.run world;
    !switches
  in
  Alcotest.(check int) "one advance for 1 or 10 pages" (switches_during 1)
    (switches_during 10)

(* setuid tears down every mapping of the calling process; the process can
   map again afterwards, under a fresh permission check. *)
let test_on_setuid_unmaps_everything () =
  let _, mpk, kfs = mk () in
  let proc = Sim.Proc.create ~uid:1000 ~gid:1000 () in
  Sim.run_thread ~proc (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let cids =
        List.map
          (fun path ->
            let c =
              ok_or_fail
                (K.coffer_new kfs ~path ~ctype:zofs_ctype ~mode:0o600 ~uid:1000
                   ~gid:1000)
            in
            ignore (ok_or_fail (K.coffer_map kfs c.Coffer.id));
            c.Coffer.id)
          [ "/s1"; "/s2" ]
      in
      let pid = proc.Sim.Proc.pid in
      let mapped_pages () =
        List.concat_map (coffer_pages kfs) cids
        |> List.filter (fun page -> Mpk.is_mapped mpk ~pid ~page)
        |> List.length
      in
      Alcotest.(check int) "both coffers mapped" 6 (mapped_pages ());
      ok_or_fail (K.on_setuid kfs);
      Alcotest.(check int) "no mapping left" 0 (List.length (K.mapped_coffers kfs));
      Alcotest.(check int) "no PTE left" 0 (mapped_pages ());
      ok_or_fail (K.on_setuid kfs);
      ignore (ok_or_fail (K.coffer_map kfs (List.hd cids)));
      Alcotest.(check int) "remapped" 1 (List.length (K.mapped_coffers kfs)));
  (* A process that never mounted has nothing to tear down. *)
  as_user (fun () -> ok_or_fail (K.on_setuid kfs))

let test_syscall_costs_time () =
  let _, _, kfs = mk () in
  let elapsed =
    as_user (fun () ->
        ok_or_fail (K.fs_mount kfs);
        let t0 = Sim.now () in
        ignore (K.coffer_stat kfs (K.root_coffer kfs));
        Sim.now () - t0)
  in
  Alcotest.(check bool) "costs at least the gate" true
    (elapsed >= Treasury.Gate.enter_cost + Treasury.Gate.exit_cost)

(* ---- page-table invariants -------------------------------------------- *)

(* [K.pte_violations] for [proc], read after its simulation has ended. *)
let proc_pte_violations kfs proc = K.pte_violations kfs ~pid:proc.Sim.Proc.pid

(* Two processes of two threads each interleave map (populated or with
   pending PTEs), first touches of pending pages, unmap, enlarge, shrink
   and chmod over three shared coffers; afterwards every page table,
   pending entries included, matches its process's mappings exactly. *)
let test_pte_invariant_under_interleaving () =
  let dev, mpk, kfs = mk ~pages:2048 () in
  let cids =
    as_user (fun () ->
        ok_or_fail (K.fs_mount kfs);
        List.map
          (fun i ->
            let c =
              ok_or_fail
                (K.coffer_new kfs ~path:(Printf.sprintf "/c%d" i)
                   ~ctype:zofs_ctype ~mode:0o644 ~uid:1000 ~gid:1000)
            in
            ignore (ok_or_fail (K.coffer_enlarge kfs c.Coffer.id ~n:8));
            c.Coffer.id)
          [ 0; 1; 2 ])
    |> Array.of_list
  in
  let installed = ref 0 in
  (* Read one page of [cid] through its key, if this process maps it; a
     sibling may tear the page down at any point, and then the read
     faults. *)
  let touch rng cid =
    match List.assoc_opt cid (K.mapped_coffers kfs) with
    | None -> ()
    | Some m -> (
        let pages = coffer_pages kfs cid in
        let page = List.nth pages (Sim.Rng.int rng (List.length pages)) in
        let pid = (Sim.self_proc ()).Sim.Proc.pid in
        let pending = Mpk.is_pending mpk ~pid ~page in
        match
          Mpk.with_keys mpk
            [ (m.K.m_pkey, Mpk.Pk_read) ]
            (fun () -> D.read_u8 dev (page * Nvm.page_size))
        with
        | _ -> if pending then incr installed
        | exception Nvm.Fault _ -> ())
  in
  let world = Sim.create () in
  let worker ~seed () =
    let rng = Sim.Rng.create seed in
    for _ = 1 to 150 do
      let cid = cids.(Sim.Rng.int rng (Array.length cids)) in
      (match Sim.Rng.int rng 6 with
      | 0 -> ignore (K.coffer_map ~populate:(Sim.Rng.bool rng) kfs cid)
      | 1 -> ignore (K.coffer_unmap kfs cid)
      | 2 -> ignore (K.coffer_enlarge kfs cid ~n:(1 + Sim.Rng.int rng 8))
      | 3 -> (
          match List.rev (A.runs_of (K.alloc_table kfs) ~cid) with
          | (start, len) :: _ when start + len - 1 <> cid && len > 0 ->
              ignore (K.coffer_shrink kfs cid ~runs:[ (start + len - 1, 1) ])
          | _ -> ())
      | 4 -> touch rng cid
      | _ ->
          let mode = if Sim.Rng.bool rng then 0o644 else 0o444 in
          ignore (K.coffer_chmod kfs cid ~mode ~uid:1000 ~gid:1000));
      Sim.advance (Sim.Rng.int rng 2000)
    done
  in
  let procs =
    List.map
      (fun p ->
        let proc = Sim.Proc.create ~uid:1000 ~gid:1000 () in
        Sim.spawn world ~proc ~name:(Printf.sprintf "p%d.0" p) (fun () ->
            ok_or_fail (K.fs_mount kfs);
            Sim.spawn world ~proc ~name:(Printf.sprintf "p%d.1" p)
              (worker ~seed:(Int64.of_int ((10 * p) + 1)));
            worker ~seed:(Int64.of_int (10 * p)) ());
        proc)
      [ 1; 2 ]
  in
  Sim.run world;
  Alcotest.(check bool)
    (Printf.sprintf "pending pages installed on touch (%d)" !installed)
    true (!installed > 0);
  List.iter
    (fun proc ->
      Alcotest.(check (list string)) "page table matches mappings" []
        (proc_pte_violations kfs proc))
    procs

(* Negative: a PTE population that runs after the page-table lock was
   dropped can land after a sibling's unmap tore the mapping down.  The
   check must catch the stale PTEs it leaves. *)
let test_pte_check_catches_late_install () =
  let _, mpk, kfs = mk () in
  let proc = Sim.Proc.create ~uid:1000 ~gid:1000 () in
  let world = Sim.create () in
  Sim.spawn world ~proc ~name:"mapper" (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let c =
        ok_or_fail
          (K.coffer_new kfs ~path:"/late" ~ctype:zofs_ctype ~mode:0o600
             ~uid:1000 ~gid:1000)
      in
      let cid = c.Coffer.id in
      let m = ok_or_fail (K.coffer_map kfs cid) in
      let runs = A.runs_of (K.alloc_table kfs) ~cid in
      Sim.spawn world ~proc ~name:"unmapper" (fun () ->
          ok_or_fail (K.coffer_unmap kfs cid));
      Sim.advance 10_000;
      let pid = proc.Sim.Proc.pid in
      List.iter
        (fun (start, len) ->
          for page = start to start + len - 1 do
            Mpk.map_page mpk ~pid ~page ~writable:(page <> cid)
              ~pkey:m.K.m_pkey
          done)
        runs);
  Sim.run world;
  Alcotest.(check bool) "stale PTEs reported" true
    (proc_pte_violations kfs proc <> [])

(* coffer_map writes a run's PTEs in one step and charges the run in one
   advance.  Process A maps a coffer laid out as two runs while a thread of
   process B polls A's page table every 10 ns: A's mapped-page count jumps
   once per run, the second jump one run's PTE time after the first, and the
   map costs exactly pages x 120 ns over a map of a one-run coffer. *)
let test_map_installs_a_run_at_a_time () =
  let _, mpk, kfs = mk ~pages:2048 () in
  let cid, small =
    as_user (fun () ->
        ok_or_fail (K.fs_mount kfs);
        let mk_coffer path =
          (ok_or_fail
             (K.coffer_new kfs ~path ~ctype:zofs_ctype ~mode:0o666 ~uid:1000
                ~gid:1000))
            .Coffer.id
        in
        let cid = mk_coffer "/two" in
        let small = mk_coffer "/gap" in
        ignore (ok_or_fail (K.coffer_enlarge kfs cid ~n:40));
        (cid, small))
  in
  let lens = List.map snd (A.runs_of (K.alloc_table kfs) ~cid) in
  Alcotest.(check int) "two runs" 2 (List.length lens);
  let pages = List.fold_left ( + ) 0 lens in
  let start = 1_000_000 in
  let map_cost = ref [] and seen = ref [] in
  let a = Sim.Proc.create ~uid:1000 ~gid:1000 () in
  let world = Sim.create () in
  Sim.spawn world ~proc:a ~name:"mapper" (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let timed cid =
        let t0 = Sim.now () in
        ignore (ok_or_fail (K.coffer_map kfs cid));
        Sim.now () - t0
      in
      let one_run = timed small in
      Sim.sleep_until start;
      map_cost := [ timed cid; one_run ]);
  Sim.spawn world
    ~proc:(Sim.Proc.create ~uid:1000 ~gid:1000 ())
    ~name:"poller"
    (fun () ->
      Sim.sleep_until (start - 5);
      let all = coffer_pages kfs cid in
      let count () =
        List.length
          (List.filter
             (fun page -> Mpk.is_mapped mpk ~pid:a.Sim.Proc.pid ~page)
             all)
      in
      let last = ref 0 in
      while !last < pages do
        let n = count () in
        if n <> !last then seen := (Sim.now (), n) :: !seen;
        last := n;
        Sim.advance 10
      done);
  Sim.run world;
  let seen = List.rev !seen in
  Alcotest.(check (list int)) "count jumps once per run"
    [ List.hd lens; pages ] (List.map snd seen);
  (match seen with
  | [ (t1, _); (t2, _) ] ->
      Alcotest.(check int) "second run one run's PTE time later"
        (List.hd lens * K.pte_update_cost)
        (t2 - t1)
  | _ -> ());
  match !map_cost with
  | [ two_runs; one_run ] ->
      Alcotest.(check int) "map costs pages x 120 ns"
        ((pages - 3) * K.pte_update_cost)
        (two_runs - one_run)
  | _ -> Alcotest.fail "mapper did not finish"

(* ---- pending PTEs (a map without populate) ---------------------------- *)

(* As user 1000 with [proc]: mount, create "/lazy" (0o600) with [extra]
   pages beyond its three, and map it without populate. *)
let lazy_coffer ?(extra = 8) kfs =
  ok_or_fail (K.fs_mount kfs);
  let c =
    ok_or_fail
      (K.coffer_new kfs ~path:"/lazy" ~ctype:zofs_ctype ~mode:0o600 ~uid:1000
         ~gid:1000)
  in
  let cid = c.Coffer.id in
  ignore (ok_or_fail (K.coffer_enlarge kfs cid ~n:extra));
  (cid, ok_or_fail (K.coffer_map ~populate:false kfs cid))

let self_pid () = (Sim.self_proc ()).Sim.Proc.pid

(* The three pages a map without populate installs present: the coffer's
   root page, root-file inode page and custom page. *)
let header_pages kfs cid =
  let c = ok_or_fail (K.coffer_stat kfs cid) in
  [ cid; c.Coffer.root_file / Nvm.page_size; c.Coffer.custom / Nvm.page_size ]

(* Read [page] in user mode with [keys] open. *)
let touch dev mpk ?(keys = []) page =
  Mpk.with_keys mpk keys (fun () -> ignore (D.read_u8 dev (page * Nvm.page_size)))

let fault_reason f =
  match f () with
  | () -> "no fault"
  | exception Nvm.Fault { reason; _ } -> reason

(* A map without populate records every PTE as pending but the three
   header pages, and charges those three; a first touch pays the gate and
   one PTE, a second touch nothing; the unmap pays for the installed PTEs
   only.  No fault is a syscall. *)
let test_pending_ptes_exact_cost () =
  let dev, mpk, kfs = mk ~pages:2048 () in
  as_user (fun () ->
      let cid, _ = lazy_coffer ~extra:37 kfs in
      ok_or_fail (K.coffer_unmap kfs cid);
      let pages = coffer_pages kfs cid in
      let npages = List.length pages in
      let header = header_pages kfs cid in
      let timed f =
        let t0 = Sim.now () in
        f ();
        Sim.now () - t0
      in
      let map populate () =
        ignore (ok_or_fail (K.coffer_map ~populate kfs cid))
      in
      let unmap () = ok_or_fail (K.coffer_unmap kfs cid) in
      let eager_map = timed (map true) in
      let eager_unmap = timed unmap in
      let lazy_map = timed (map false) in
      Alcotest.(check int) "a lazy map charges the header pages only"
        ((npages - 3) * K.pte_update_cost)
        (eager_map - lazy_map);
      let pid = self_pid () in
      Alcotest.(check bool) "header pages present, every other PTE pending"
        true
        (List.for_all
           (fun page ->
             if List.mem page header then
               Mpk.is_mapped mpk ~pid ~page && not (Mpk.is_pending mpk ~pid ~page)
             else
               Mpk.is_pending mpk ~pid ~page
               && not (Mpk.is_mapped mpk ~pid ~page))
           pages);
      let m = List.assoc cid (K.mapped_coffers kfs) in
      let keys = [ (m.K.m_pkey, Mpk.Pk_read) ] in
      let syscalls0 = Treasury.Gate.syscall_count (K.gate kfs) in
      let touched = [ List.nth pages 3; List.nth pages 10; List.nth pages 20 ] in
      List.iter
        (fun page ->
          let first = timed (fun () -> touch dev mpk ~keys page) in
          let second = timed (fun () -> touch dev mpk ~keys page) in
          Alcotest.(check int) "first touch: gate + one PTE"
            (first - second)
            (Treasury.Gate.enter_cost + Treasury.Gate.exit_cost
           + K.pte_update_cost);
          Alcotest.(check bool) "installed" true (Mpk.is_mapped mpk ~pid ~page))
        touched;
      Alcotest.(check int) "faults are no syscalls" syscalls0
        (Treasury.Gate.syscall_count (K.gate kfs));
      Alcotest.(check int) "the unmap pays for the installed PTEs only"
        ((npages - 3 - List.length touched) * K.pte_update_cost)
        (eager_unmap - timed unmap);
      Alcotest.(check bool) "pending PTEs cleared" true
        (List.for_all (fun page -> Mpk.page_pkey mpk ~pid ~page = None) pages))

(* A pending page is installed by its first touch, then checked like any
   PTE: with its key closed, or with only another key open (G1/G2), the
   touch faults; a write through a read-only mapping faults too. *)
let test_pending_page_checked_after_install () =
  let dev, mpk, kfs = mk () in
  as_user (fun () ->
      let cid, m = lazy_coffer kfs in
      let other =
        ok_or_fail
          (K.coffer_new kfs ~path:"/other" ~ctype:zofs_ctype ~mode:0o600
             ~uid:1000 ~gid:1000)
      in
      let om = ok_or_fail (K.coffer_map kfs other.Coffer.id) in
      let pid = self_pid () in
      match coffer_pages kfs cid with
      | _root :: a :: b :: c :: _ ->
          Alcotest.(check string) "key closed"
            (Printf.sprintf "MPK: region %d access-disabled" m.K.m_pkey)
            (fault_reason (fun () -> touch dev mpk a));
          Alcotest.(check bool) "installed by the trap" true
            (Mpk.is_mapped mpk ~pid ~page:a);
          Alcotest.(check string) "only another coffer's key open"
            (Printf.sprintf "MPK: region %d access-disabled" m.K.m_pkey)
            (fault_reason (fun () ->
                 touch dev mpk ~keys:[ (om.K.m_pkey, Mpk.Pk_read_write) ] b));
          Alcotest.(check string) "own key open" "no fault"
            (fault_reason (fun () ->
                 touch dev mpk ~keys:[ (m.K.m_pkey, Mpk.Pk_read) ] c));
          Alcotest.(check string) "root page stays read-only"
            "page mapped read-only"
            (fault_reason (fun () ->
                 Mpk.with_keys mpk
                   [ (m.K.m_pkey, Mpk.Pk_read_write) ]
                   (fun () -> D.write_u8 dev (cid * Nvm.page_size) 1)))
      | _ -> Alcotest.fail "coffer too small")

(* A page of a coffer the process does not map faults "page not mapped",
   and the touch installs nothing: no trap runs for an absent PTE. *)
let test_unmapped_coffer_page_installs_nothing () =
  let dev, mpk, kfs = mk () in
  as_user (fun () ->
      let _, m = lazy_coffer kfs in
      let stranger =
        ok_or_fail
          (K.coffer_new kfs ~path:"/stranger" ~ctype:zofs_ctype ~mode:0o600
             ~uid:1000 ~gid:1000)
      in
      let pid = self_pid () in
      let page = List.nth (coffer_pages kfs stranger.Coffer.id) 1 in
      let t0 = Sim.now () in
      Alcotest.(check string) "faults" "page not mapped"
        (fault_reason (fun () ->
             touch dev mpk ~keys:[ (m.K.m_pkey, Mpk.Pk_read_write) ] page));
      Alcotest.(check bool) "no trap paid" true
        (Sim.now () - t0 < Treasury.Gate.enter_cost);
      Alcotest.(check (option int)) "nothing installed" None
        (Mpk.page_pkey mpk ~pid ~page);
      Alcotest.(check (list string)) "page table matches mappings" []
        (K.pte_violations kfs ~pid))

(* Every path that takes pages from a process's mapping clears their
   pending PTEs, and the PTEs of every other process mapping them.  Each
   case maps "/lazy" without populate in one process and populated in a
   second, creates "/dst" (same permission) mapped populated by a third,
   runs one operation in the first process and names the pages that must
   have no PTE left (in both mappers of "/lazy" unless [~everywhere:false])
   and the pages "/dst"'s mapper must now have under its key. *)
let test_teardowns_clear_pending () =
  let case ?(everywhere = true) name op =
    let _, mpk, kfs = mk ~pages:2048 () in
    let user () = Sim.Proc.create ~uid:1000 ~gid:1000 () in
    let lazy_proc = user () and eager_proc = user () and dst_proc = user () in
    let cid, dst =
      Sim.run_thread ~proc:lazy_proc (fun () ->
          let cid, _ = lazy_coffer kfs in
          let pid = self_pid () in
          let header = header_pages kfs cid in
          Alcotest.(check bool) (name ^ ": pending before, header present")
            true
            (List.for_all
               (fun page ->
                 if List.mem page header then Mpk.is_mapped mpk ~pid ~page
                 else Mpk.is_pending mpk ~pid ~page)
               (coffer_pages kfs cid));
          let dst =
            ok_or_fail
              (K.coffer_new kfs ~path:"/dst" ~ctype:zofs_ctype ~mode:0o600
                 ~uid:1000 ~gid:1000)
          in
          (cid, dst.Coffer.id))
    in
    let map_populated proc cid =
      Sim.run_thread ~proc (fun () ->
          ok_or_fail (K.fs_mount kfs);
          (ok_or_fail (K.coffer_map kfs cid)).K.m_pkey)
    in
    ignore (map_populated eager_proc cid);
    let dst_key = map_populated dst_proc dst in
    let gone, adopted =
      Sim.run_thread ~proc:lazy_proc (fun () -> op kfs cid dst)
    in
    let no_pte proc =
      List.iter
        (fun page ->
          Alcotest.(check (option int))
            (Printf.sprintf "%s: pid %d: page %d has no PTE" name
               proc.Sim.Proc.pid page)
            None
            (Mpk.page_pkey mpk ~pid:proc.Sim.Proc.pid ~page))
        gone
    in
    no_pte lazy_proc;
    if everywhere then no_pte eager_proc;
    List.iter
      (fun page ->
        Alcotest.(check (option int))
          (Printf.sprintf "%s: page %d installed under dst's key" name page)
          (Some dst_key)
          (Mpk.page_pkey mpk ~pid:dst_proc.Sim.Proc.pid ~page))
      adopted;
    List.iter
      (fun proc ->
        Alcotest.(check (list string))
          (Printf.sprintf "%s: pid %d: page table matches mappings" name
             proc.Sim.Proc.pid)
          []
          (K.pte_violations kfs ~pid:proc.Sim.Proc.pid))
      [ lazy_proc; eager_proc; dst_proc ]
  in
  let last_page kfs cid =
    match List.rev (coffer_pages kfs cid) with
    | p :: _ -> p
    | [] -> assert false
  in
  case "shrink" (fun kfs cid _ ->
      let p = last_page kfs cid in
      ok_or_fail (K.coffer_shrink kfs cid ~runs:[ (p, 1) ]);
      ([ p ], []));
  case "split" (fun kfs cid _ ->
      let p = last_page kfs cid in
      ignore
        (ok_or_fail
           (K.coffer_split kfs ~src:cid ~new_path:"/lazy/s" ~ctype:zofs_ctype
              ~mode:0o644 ~uid:1000 ~gid:1000 ~runs:[ (p, 1) ] ~root_file:0
              ~custom:0));
      ([ p ], []));
  case "merge" (fun kfs cid dst ->
      let gone = coffer_pages kfs cid in
      ok_or_fail (K.coffer_merge kfs ~dst ~src:cid);
      (gone, List.filter (fun p -> p <> cid) gone));
  case "chmod" (fun kfs cid _ ->
      let gone = coffer_pages kfs cid in
      ok_or_fail (K.coffer_chmod kfs cid ~mode:0o644 ~uid:1000 ~gid:1000);
      (gone, []));
  case "delete" (fun kfs cid _ ->
      let gone = coffer_pages kfs cid in
      ok_or_fail (K.coffer_delete kfs cid);
      (gone, []));
  case ~everywhere:false "on_setuid" (fun kfs cid _ ->
      let gone = coffer_pages kfs cid in
      ok_or_fail (K.on_setuid kfs);
      (gone, []));
  (* A dead process is reaped by a survivor: its whole table goes. *)
  let _, mpk, kfs = mk () in
  let proc = Sim.Proc.create ~uid:1000 ~gid:1000 () in
  let pages =
    Sim.run_thread ~proc (fun () ->
        let cid, _ = lazy_coffer kfs in
        coffer_pages kfs cid)
  in
  let pid = proc.Sim.Proc.pid in
  as_user (fun () -> ok_or_fail (K.reap_process kfs ~pid));
  Alcotest.(check bool) "reap: table dropped" false (Mpk.has_table mpk ~pid);
  List.iter
    (fun page ->
      Alcotest.(check bool) "reap: not pending" false
        (Mpk.is_pending mpk ~pid ~page))
    pages

(* A fault waits for its process's page-table lock, so a sibling thread's
   teardown can run first: the fault then finds the page no longer pending
   and installs nothing.  Thread B holds the lock populating a 500-page
   coffer; C's unmap of "/lazy" queues for it, then A touches a pending page
   of "/lazy" (past its three present header pages) and queues behind C. *)
let test_fault_after_teardown_installs_nothing () =
  let dev, mpk, kfs = mk ~pages:2048 () in
  let proc = Sim.Proc.create ~uid:1000 ~gid:1000 () in
  let setup =
    Sim.run_thread ~proc (fun () ->
        let cid, m = lazy_coffer kfs in
        let big =
          ok_or_fail
            (K.coffer_new kfs ~path:"/big" ~ctype:zofs_ctype ~mode:0o600
               ~uid:1000 ~gid:1000)
        in
        ignore (ok_or_fail (K.coffer_enlarge kfs big.Coffer.id ~n:497));
        (cid, m, big.Coffer.id))
  in
  let cid, m, big = setup in
  let page = List.nth (coffer_pages kfs cid) 3 in
  Alcotest.(check bool) "the page is pending" true
    (Mpk.is_pending mpk ~pid:proc.Sim.Proc.pid ~page);
  let reason = ref "" in
  let world = Sim.create () in
  let start = Sim.now () + 1_000_000 in
  Sim.spawn world ~proc ~at:start ~name:"B" (fun () ->
      ignore (ok_or_fail (K.coffer_map kfs big)));
  Sim.spawn world ~proc ~at:(start + 10_000) ~name:"C" (fun () ->
      ok_or_fail (K.coffer_unmap kfs cid));
  Sim.spawn world ~proc ~at:(start + 20_000) ~name:"A" (fun () ->
      reason :=
        fault_reason (fun () ->
            touch dev mpk ~keys:[ (m.K.m_pkey, Mpk.Pk_read) ] page));
  Sim.run world;
  Alcotest.(check string) "the touch faults" "page not mapped" !reason;
  Alcotest.(check (option int)) "nothing installed" None
    (Mpk.page_pkey mpk ~pid:proc.Sim.Proc.pid ~page);
  Alcotest.(check (list string)) "page table matches mappings" []
    (K.pte_violations kfs ~pid:proc.Sim.Proc.pid)

(* A page shrunk out of a lazily mapped coffer and granted to a coffer the
   process does not map is never installed under the old key: the touch
   faults "page not mapped". *)
let test_regranted_page_not_installed_under_old_key () =
  let dev, mpk, kfs = mk ~pages:2048 () in
  let proc = Sim.Proc.create ~uid:1000 ~gid:1000 () in
  let cid, m, page =
    Sim.run_thread ~proc (fun () ->
        let cid, m = lazy_coffer kfs in
        let page = List.nth (List.rev (coffer_pages kfs cid)) 0 in
        ok_or_fail (K.coffer_shrink kfs cid ~runs:[ (page, 1) ]);
        (cid, m, page))
  in
  let other =
    as_user (fun () ->
        ok_or_fail (K.fs_mount kfs);
        let c =
          ok_or_fail
            (K.coffer_new kfs ~path:"/other" ~ctype:zofs_ctype ~mode:0o600
               ~uid:1000 ~gid:1000)
        in
        ignore (ok_or_fail (K.coffer_enlarge kfs c.Coffer.id ~n:8));
        c.Coffer.id)
  in
  Alcotest.(check int) "the page was granted to the other coffer" other
    (A.owner_of (K.alloc_table kfs) ~page);
  Sim.run_thread ~proc (fun () ->
      Alcotest.(check string) "touch under the old key" "page not mapped"
        (fault_reason (fun () ->
             touch dev mpk ~keys:[ (m.K.m_pkey, Mpk.Pk_read_write) ] page));
      Alcotest.(check (option int)) "never installed" None
        (Mpk.page_pkey mpk ~pid:(self_pid ()) ~page);
      Alcotest.(check bool) "still maps its coffer" true
        (List.mem_assoc cid (K.mapped_coffers kfs)))

(* A merge frees src's root page even when it sits inside one of src's
   runs, and installs only the adopted pages for dst's mappers: "/x" is
   deleted, so "/s" grows into the hole before its root page.  Once the
   freed root page is granted to "/y", dst's key cannot write it. *)
let test_merge_root_page_inside_a_run () =
  let dev, mpk, kfs = mk () in
  as_user (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let coffer path =
        (ok_or_fail
           (K.coffer_new kfs ~path ~ctype:zofs_ctype ~mode:0o600 ~uid:1000
              ~gid:1000))
          .Coffer.id
      in
      let x = coffer "/x" in
      let s = coffer "/s" in
      let d = coffer "/d" in
      ok_or_fail (K.coffer_delete kfs x);
      ignore (ok_or_fail (K.coffer_enlarge kfs s ~n:3));
      let at = K.alloc_table kfs in
      Alcotest.(check (list (pair int int)))
        "src's root page inside its one run" [ (x, 6) ] (A.runs_of at ~cid:s);
      Alcotest.(check int) "three pages in" (x + 3) s;
      let m = ok_or_fail (K.coffer_map kfs d) in
      ok_or_fail (K.coffer_merge kfs ~dst:d ~src:s);
      let pid = self_pid () in
      Alcotest.(check (list string)) "page table matches mappings" []
        (K.pte_violations kfs ~pid);
      Alcotest.(check int) "src's root page is free" 0 (A.owner_of at ~page:s);
      Alcotest.(check (option int)) "and has no PTE" None
        (Mpk.page_pkey mpk ~pid ~page:s);
      Alcotest.(check bool) "the other five adopted under dst's key" true
        (List.for_all
           (fun page ->
             A.owner_of at ~page = d
             && Mpk.page_pkey mpk ~pid ~page = Some m.K.m_pkey)
           [ x; x + 1; x + 2; x + 4; x + 5 ]);
      let y = coffer "/y" in
      ignore (ok_or_fail (K.coffer_enlarge kfs y ~n:1));
      Alcotest.(check int) "the root page is granted to /y" y
        (A.owner_of at ~page:s);
      Alcotest.(check string) "a write through dst's key" "page not mapped"
        (fault_reason (fun () ->
             Mpk.with_keys mpk
               [ (m.K.m_pkey, Mpk.Pk_read_write) ]
               (fun () -> D.write_u8 dev (s * Nvm.page_size) 1))))

(* A page's PTEs go before the table gives the page away: whenever another
   thread can run, the mapper holds no PTE for a page its coffer does not
   own.  The device charges NVM time, so the table update is a window other
   threads run in; a thread of another process audits the mapper's page
   table every 10 ns while the mapper shrinks its coffer, then splits part
   of it off. *)
let test_teardown_before_table_update () =
  let _, mpk, kfs = mk ~perf:Nvm.Perf.optane () in
  let mapper = Sim.Proc.create ~uid:1000 ~gid:1000 () in
  let pid = mapper.Sim.Proc.pid in
  let cid = ref 0 and finished = ref false and audits = ref 0 in
  let stale = ref [] in
  let start = 1_000_000 in
  let world = Sim.create () in
  Sim.spawn world ~proc:mapper ~name:"mapper" (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let c =
        ok_or_fail
          (K.coffer_new kfs ~path:"/c" ~ctype:zofs_ctype ~mode:0o600 ~uid:1000
             ~gid:1000)
      in
      cid := c.Coffer.id;
      let granted = ok_or_fail (K.coffer_enlarge kfs !cid ~n:16) in
      ignore (ok_or_fail (K.coffer_map kfs !cid));
      let first, _ = List.hd granted in
      Sim.sleep_until start;
      ok_or_fail (K.coffer_shrink kfs !cid ~runs:[ (first, 8) ]);
      ignore
        (ok_or_fail
           (K.coffer_split kfs ~src:!cid ~new_path:"/c/s" ~ctype:zofs_ctype
              ~mode:0o644 ~uid:1000 ~gid:1000
              ~runs:[ (first + 8, 8) ]
              ~root_file:0 ~custom:0));
      finished := true);
  Sim.spawn world
    ~proc:(Sim.Proc.create ~uid:1000 ~gid:1000 ())
    ~name:"auditor"
    (fun () ->
      Sim.sleep_until start;
      let at = K.alloc_table kfs in
      while not !finished do
        incr audits;
        for page = 0 to A.npages at - 1 do
          if
            Mpk.page_pkey mpk ~pid ~page <> None
            && A.owner_of at ~page <> !cid
            && not (List.mem page !stale)
          then stale := page :: !stale
        done;
        Sim.advance 10
      done);
  Sim.run world;
  Alcotest.(check bool) (Printf.sprintf "audited (%d)" !audits) true
    (!audits > 100);
  Alcotest.(check (list int)) "no PTE outlives its page's ownership" []
    (List.rev !stale);
  Alcotest.(check (list string)) "page table matches mappings" []
    (K.pte_violations kfs ~pid)

(* ---- a remap that evicts in the same call (coffer_map ?evict) --------- *)

(* As user 1000: mount, create "/c1" .. "/c15" (0o600, each with 12 pages
   beyond its three) and map them all, the last lazily (its header
   pages present, the rest pending); then create "/next" and "/spare",
   unmapped.  Every MPK key is taken.  Returns the 15 mapped cids, the
   lazy one last, and the two unmapped ones. *)
let full_keys kfs =
  ok_or_fail (K.fs_mount kfs);
  let make path =
    let c =
      ok_or_fail
        (K.coffer_new kfs ~path ~ctype:zofs_ctype ~mode:0o600 ~uid:1000
           ~gid:1000)
    in
    ignore (ok_or_fail (K.coffer_enlarge kfs c.Coffer.id ~n:12));
    c.Coffer.id
  in
  let mapped =
    List.init 15 (fun i ->
        let cid = make (Printf.sprintf "/c%d" (i + 1)) in
        ignore (ok_or_fail (K.coffer_map ~populate:(i < 14) kfs cid));
        cid)
  in
  (mapped, make "/next", make "/spare")

let present_pages mpk kfs cid =
  let pid = self_pid () in
  List.filter (fun page -> Mpk.is_mapped mpk ~pid ~page) (coffer_pages kfs cid)

let syscalls kfs = Treasury.Gate.syscall_count (K.gate kfs)

(* With every key taken, a map naming a victim succeeds in one syscall:
   the victim is no longer mapped and has no PTE left, the new mapping
   holds the victim's key, and the page table matches the mappings.  The
   victim's key goes to the new mapping even when another key is free. *)
let test_evict_is_one_syscall () =
  let _, mpk, kfs = mk ~pages:2048 () in
  as_user (fun () ->
      let mapped, next, spare = full_keys kfs in
      let victim = List.hd mapped in
      let vkey = (List.assoc victim (K.mapped_coffers kfs)).K.m_pkey in
      let s0 = syscalls kfs in
      let m = ok_or_fail (K.coffer_map ~populate:false ~evict:victim kfs next) in
      Alcotest.(check int) "one syscall" 1 (syscalls kfs - s0);
      Alcotest.(check int) "the victim's key" vkey m.K.m_pkey;
      Alcotest.(check bool) "the victim is unmapped" false
        (List.mem_assoc victim (K.mapped_coffers kfs));
      Alcotest.(check int) "still 15 mappings" 15
        (List.length (K.mapped_coffers kfs));
      let pid = self_pid () in
      Alcotest.(check bool) "the victim has no PTE left" true
        (List.for_all
           (fun page -> Mpk.page_pkey mpk ~pid ~page = None)
           (coffer_pages kfs victim));
      ok_or_fail (K.coffer_unmap kfs (List.nth mapped 1));
      let victim = List.nth mapped 2 in
      let vkey = (List.assoc victim (K.mapped_coffers kfs)).K.m_pkey in
      let m = ok_or_fail (K.coffer_map ~evict:victim kfs spare) in
      Alcotest.(check int) "the victim's key, not the free one" vkey
        m.K.m_pkey;
      Alcotest.(check int) "one key left free" 14
        (List.length (K.mapped_coffers kfs));
      Alcotest.(check (list string)) "page table matches mappings" []
        (K.pte_violations kfs ~pid))

(* The evicting map pays, beyond a plain map of the same coffer, one PTE
   teardown per present page of the victim and nothing for its pending
   ones.  The victim is the lazily mapped coffer with two pages touched:
   its three header pages and those two are present. *)
let test_evict_charges_present_ptes_only () =
  let dev, mpk, kfs = mk ~pages:2048 () in
  as_user (fun () ->
      let mapped, next, _ = full_keys kfs in
      let victim = List.nth mapped 14 in
      let m = List.assoc victim (K.mapped_coffers kfs) in
      let pages = coffer_pages kfs victim in
      List.iter
        (fun i ->
          touch dev mpk ~keys:[ (m.K.m_pkey, Mpk.Pk_read) ] (List.nth pages i))
        [ 5; 9 ];
      let present = List.length (present_pages mpk kfs victim) in
      Alcotest.(check int) "header pages and two touched present" 5 present;
      Alcotest.(check bool) "the rest pending" true (List.length pages > present);
      let timed f =
        let t0 = Sim.now () in
        f ();
        Sim.now () - t0
      in
      let evicting =
        timed (fun () ->
            ignore
              (ok_or_fail (K.coffer_map ~populate:false ~evict:victim kfs next)))
      in
      ok_or_fail (K.coffer_unmap kfs next);
      let plain =
        timed (fun () ->
            ignore (ok_or_fail (K.coffer_map ~populate:false kfs next)))
      in
      Alcotest.(check int) "the victim's present PTEs, at 120 ns each"
        (present * K.pte_update_cost)
        (evicting - plain);
      Alcotest.(check int) "the new mapping's header pages present" 3
        (List.length (present_pages mpk kfs next)))

(* A map that fails leaves the victim mapped under its key with every PTE
   it had: a target the caller may not read (EACCES), a target in recovery
   (EBUSY) and an armed transient (ENOMEM). *)
let test_failed_evict_leaves_victim () =
  let case name prepare expected =
    let _, mpk, kfs = mk ~pages:2048 () in
    as_user (fun () ->
        let mapped, next, spare = full_keys kfs in
        let victim = List.hd mapped in
        let target = prepare kfs ~next ~spare in
        let before = List.assoc victim (K.mapped_coffers kfs) in
        let ptes = present_pages mpk kfs victim in
        expect_err expected (K.coffer_map ~populate:false ~evict:victim kfs target);
        Alcotest.(check (option int)) (name ^ ": victim keeps its key")
          (Some before.K.m_pkey)
          (Option.map (fun m -> m.K.m_pkey)
             (List.assoc_opt victim (K.mapped_coffers kfs)));
        Alcotest.(check (list int)) (name ^ ": victim keeps its PTEs") ptes
          (present_pages mpk kfs victim);
        Alcotest.(check (list string)) (name ^ ": page table matches mappings")
          [] (K.pte_violations kfs ~pid:(self_pid ())))
  in
  case "EACCES"
    (fun kfs ~next:_ ~spare:_ ->
      (ok_or_fail
         (K.coffer_new kfs ~path:"/theirs" ~ctype:zofs_ctype ~mode:0o600
            ~uid:2000 ~gid:2000))
        .Coffer.id)
    E.EACCES;
  case "EBUSY"
    (fun kfs ~next ~spare:_ ->
      ignore (ok_or_fail (K.coffer_recover_begin kfs next));
      next)
    E.EBUSY;
  case "transient"
    (fun kfs ~next ~spare:_ ->
      K.inject_transient kfs ~n:1 ();
      next)
    E.ENOMEM

(* [evict] naming a coffer the caller does not map, or the target itself,
   is a plain map: EMFILE while every key is taken, a free key otherwise,
   and no mapping lost either way.  Naming a victim when the target turns
   out to be mapped already still unmaps the victim. *)
let test_evict_ignored_unless_mapped () =
  let _, _, kfs = mk ~pages:2048 () in
  as_user (fun () ->
      let mapped, next, spare = full_keys kfs in
      let nmapped () = List.length (K.mapped_coffers kfs) in
      expect_err E.EMFILE (K.coffer_map ~evict:spare kfs next);
      expect_err E.EMFILE (K.coffer_map ~evict:next kfs next);
      Alcotest.(check int) "nothing unmapped" 15 (nmapped ());
      ok_or_fail (K.coffer_unmap kfs (List.hd mapped));
      ignore (ok_or_fail (K.coffer_map ~evict:spare kfs next));
      Alcotest.(check int) "a free key taken" 15 (nmapped ());
      ok_or_fail (K.coffer_unmap kfs next);
      ignore (ok_or_fail (K.coffer_map ~evict:next kfs next));
      Alcotest.(check int) "a free key taken again" 15 (nmapped ());
      let victim = List.nth mapped 1 in
      let m = List.assoc next (K.mapped_coffers kfs) in
      let again = ok_or_fail (K.coffer_map ~evict:victim kfs next) in
      Alcotest.(check int) "the existing mapping" m.K.m_pkey again.K.m_pkey;
      Alcotest.(check bool) "the victim unmapped" false
        (List.mem_assoc victim (K.mapped_coffers kfs));
      Alcotest.(check (list string)) "page table matches mappings" []
        (K.pte_violations kfs ~pid:(self_pid ())))

(* Two processes map two ~500-page coffers at the same instant.  Each writes
   only its own page table, so both finish in about one map's time. *)
let test_parallel_maps_overlap () =
  let npages = 500 in
  let _, _, kfs = mk ~pages:2048 () in
  let cids =
    as_user (fun () ->
        ok_or_fail (K.fs_mount kfs);
        List.map
          (fun path ->
            let c =
              ok_or_fail
                (K.coffer_new kfs ~path ~ctype:zofs_ctype ~mode:0o666 ~uid:1000
                   ~gid:1000)
            in
            ignore (ok_or_fail (K.coffer_enlarge kfs c.Coffer.id ~n:(npages - 3)));
            c.Coffer.id)
          [ "/a"; "/b" ])
  in
  let start = 1_000_000 in
  let elapsed = ref [] in
  let world = Sim.create () in
  List.iter
    (fun cid ->
      let proc = Sim.Proc.create ~uid:1000 ~gid:1000 () in
      Sim.spawn world ~proc ~name:"mapper" (fun () ->
          ok_or_fail (K.fs_mount kfs);
          Sim.sleep_until start;
          ignore (ok_or_fail (K.coffer_map kfs cid));
          elapsed := (Sim.now () - start) :: !elapsed))
    cids;
  Sim.run world;
  let one_map = npages * K.pte_update_cost in
  List.iter
    (fun ns ->
      Alcotest.(check bool)
        (Printf.sprintf "map took %d ns, one map's PTE work is %d ns" ns one_map)
        true
        (ns < one_map * 5 / 4))
    !elapsed

(* Page arguments come from untrusted user space: a page outside the table
   or a run that is empty or reaches past the table's end is EINVAL, never
   an exception, and KernFS stays usable. *)
let bad_args_coffer kfs =
  ok_or_fail (K.fs_mount kfs);
  let c =
    ok_or_fail
      (K.coffer_new kfs ~path:"/bad" ~ctype:zofs_ctype ~mode:0o600 ~uid:1000
         ~gid:1000)
  in
  ignore (ok_or_fail (K.coffer_enlarge kfs c.Coffer.id ~n:4));
  ignore (ok_or_fail (K.coffer_map kfs c.Coffer.id));
  c.Coffer.id

let split_runs kfs cid i runs =
  K.coffer_split kfs ~src:cid
    ~new_path:(Printf.sprintf "/bad/split%d" i)
    ~ctype:zofs_ctype ~mode:0o600 ~uid:1000 ~gid:1000 ~runs ~root_file:0
    ~custom:0

let test_bad_page_arguments () =
  let _, mpk, kfs = mk () in
  let npages = A.npages (K.alloc_table kfs) in
  as_user (fun () ->
      let cid = bad_args_coffer kfs in
      expect_err E.EINVAL (K.coffer_shrink kfs cid ~runs:[ (-1, 1) ]);
      expect_err E.EINVAL (K.coffer_shrink kfs cid ~runs:[ (1, max_int) ]);
      expect_err E.EINVAL (split_runs kfs cid 0 [ (npages, 1) ]);
      expect_err E.EINVAL (K.file_mmap kfs ~cid ~pages:[ npages ]);
      expect_err E.EINVAL (K.file_mmap kfs ~cid ~pages:[ -1 ]);
      expect_err E.EINVAL (K.file_execve kfs ~cid ~pages:[ npages ]);
      Mpk.with_kernel mpk (fun () -> A.verify (K.alloc_table kfs));
      ignore (ok_or_fail (K.coffer_enlarge kfs cid ~n:2));
      let other =
        ok_or_fail
          (K.coffer_new kfs ~path:"/after" ~ctype:zofs_ctype ~mode:0o600
             ~uid:1000 ~gid:1000)
      in
      ignore (ok_or_fail (K.coffer_map kfs other.Coffer.id)))

let qcheck_page_arguments_never_raise =
  let npages = 1024 in
  let edge =
    QCheck.Gen.(
      oneof
        [
          int_range (-3) (npages + 3);
          oneofl [ min_int; -1; 0; 1; npages - 1; npages; max_int ];
        ])
  in
  QCheck.Test.make ~name:"random page runs give Ok or an errno" ~count:100
    (QCheck.make
       ~print:QCheck.Print.(list (pair int int))
       QCheck.Gen.(list_size (int_range 1 8) (pair edge edge)))
    (fun pairs ->
      let _, mpk, kfs = mk ~pages:npages () in
      assert (A.npages (K.alloc_table kfs) = npages);
      as_user (fun () ->
          let cid = bad_args_coffer kfs in
          List.iteri
            (fun i (start, len) ->
              let run = [ (start, len) ] in
              ignore (K.coffer_shrink kfs cid ~runs:run);
              ignore (split_runs kfs cid i run);
              ignore (K.file_mmap kfs ~cid ~pages:[ start; len ]);
              ignore (K.file_execve kfs ~cid ~pages:[ start; len ]))
            pairs);
      Mpk.with_kernel mpk (fun () -> A.verify (K.alloc_table kfs));
      true)

(* Every syscall that takes a coffer ID, with [cid] in its cid position
   ([good] fills the other side of a merge), and the errno a cid outside
   the device gets: EINVAL where the cid is looked up, EACCES where the
   call only asks whether the caller maps it. *)
let cid_calls kfs ~good cid =
  let unit r = Result.map ignore r in
  [
    ("coffer_stat", E.EINVAL, fun () -> unit (K.coffer_stat kfs cid));
    ("coffer_delete", E.EINVAL, fun () -> K.coffer_delete kfs cid);
    ("coffer_enlarge", E.EINVAL, fun () -> unit (K.coffer_enlarge kfs cid ~n:1));
    ("coffer_shrink", E.EINVAL, fun () -> K.coffer_shrink kfs cid ~runs:[]);
    ("coffer_map", E.EINVAL, fun () -> unit (K.coffer_map kfs cid));
    ("coffer_unmap", E.EINVAL, fun () -> K.coffer_unmap kfs cid);
    ( "coffer_chmod",
      E.EINVAL,
      fun () -> K.coffer_chmod kfs cid ~mode:0o600 ~uid:1000 ~gid:1000 );
    ("coffer_split", E.EINVAL, fun () -> unit (split_runs kfs cid 99 []));
    ("coffer_merge dst", E.EINVAL, fun () -> K.coffer_merge kfs ~dst:cid ~src:good);
    ("coffer_merge src", E.EINVAL, fun () -> K.coffer_merge kfs ~dst:good ~src:cid);
    ( "coffer_rename",
      E.EINVAL,
      fun () -> K.coffer_rename kfs cid ~new_path:"/bad/renamed" );
    ("coffer_recover_begin", E.EINVAL, fun () -> unit (K.coffer_recover_begin kfs cid));
    ("coffer_recover_end", E.EINVAL, fun () -> K.coffer_recover_end kfs cid ~in_use:[]);
    ("file_mmap", E.EACCES, fun () -> K.file_mmap kfs ~cid ~pages:[]);
    ("file_execve", E.EACCES, fun () -> K.file_execve kfs ~cid ~pages:[]);
  ]

(* Coffer IDs come from untrusted user space too: one that names no page
   of the device gets an errno from every syscall, and KernFS stays
   usable. *)
let test_bad_cid_arguments () =
  let _, mpk, kfs = mk () in
  let npages = A.npages (K.alloc_table kfs) in
  as_user (fun () ->
      let good = bad_args_coffer kfs in
      List.iter
        (fun cid ->
          List.iter
            (fun (name, errno, call) ->
              match call () with
              | Ok () -> Alcotest.failf "%s %d: Ok" name cid
              | Error e ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s %d" name cid)
                    (E.to_string errno) (E.to_string e))
            (cid_calls kfs ~good cid))
        [ -1; npages; 1 lsl 20; max_int; min_int ];
      Mpk.with_kernel mpk (fun () -> A.verify (K.alloc_table kfs));
      ignore (ok_or_fail (K.coffer_enlarge kfs good ~n:2));
      ignore (ok_or_fail (K.coffer_stat kfs good)))

let qcheck_cid_arguments_never_raise =
  let npages = 1024 in
  let cid =
    QCheck.Gen.(
      oneof
        [
          int_range (-3) (npages + 3);
          oneofl [ min_int; -1; 0; 1; npages - 1; npages; 1 lsl 20; max_int ];
        ])
  in
  QCheck.Test.make ~name:"random cids give Ok or an errno" ~count:100
    (QCheck.make ~print:QCheck.Print.(list int) QCheck.Gen.(list_size (int_range 1 4) cid))
    (fun cids ->
      let _, mpk, kfs = mk ~pages:npages () in
      as_user (fun () ->
          let good = bad_args_coffer kfs in
          List.iter
            (fun cid ->
              List.iter
                (fun (_, _, call) -> ignore (call ()))
                (cid_calls kfs ~good cid))
            cids);
      Mpk.with_kernel mpk (fun () -> A.verify (K.alloc_table kfs));
      true)

(* Every syscall that takes a path or a mode, with [path] and [mode] in
   those positions; [cid] is a coffer the caller owns. *)
let path_mode_calls kfs ~cid path mode =
  let unit r = Result.map ignore r in
  [
    ( "coffer_new",
      fun () ->
        unit
          (K.coffer_new kfs ~path ~ctype:zofs_ctype ~mode ~uid:1000 ~gid:1000)
    );
    ("coffer_find", fun () -> unit (K.coffer_find kfs path));
    ("coffer_locate", fun () -> unit (K.coffer_locate kfs path));
    ("coffer_chmod", fun () -> K.coffer_chmod kfs cid ~mode ~uid:1000 ~gid:1000);
    ( "coffer_split",
      fun () ->
        unit
          (K.coffer_split kfs ~src:cid ~new_path:path ~ctype:zofs_ctype ~mode
             ~uid:1000 ~gid:1000 ~runs:[] ~root_file:0 ~custom:0) );
  ]

let long_path = "/" ^ String.make 4095 'p'

let edge_paths =
  [ ""; "/"; "//"; ".."; "/a/../.."; "/bad/x"; long_path; "/bad/a\000b"; "\000" ]

let edge_modes = [ -1; 0; 0o600; 0o7777; 0o10000; max_int; min_int ]

(* What the sweep below found, pinned.  A split to a path too long for
   the path map moved its runs to a coffer that was never registered, and
   wrote the path past the end of the new root page.  A NUL in a new
   coffer's path, or a mode outside 0..0o7777, was stored as given. *)
let test_bad_path_mode_arguments () =
  let _, mpk, kfs = mk () in
  as_user (fun () ->
      let cid = bad_args_coffer kfs in
      let at = K.alloc_table kfs in
      let moving = ok_or_fail (K.coffer_enlarge kfs cid ~n:2) in
      let runs = A.runs_of at ~cid and free = K.free_pages kfs in
      let split ?(mode = 0o600) new_path =
        K.coffer_split kfs ~src:cid ~new_path ~ctype:zofs_ctype ~mode
          ~uid:1000 ~gid:1000 ~runs:moving ~root_file:0 ~custom:0
      in
      expect_err E.ENAMETOOLONG (split long_path);
      Alcotest.(check (list (pair int int))) "the runs stay" runs
        (A.runs_of at ~cid);
      Alcotest.(check int) "no page taken" free (K.free_pages kfs);
      expect_err E.EINVAL (split "/bad/a\000b");
      expect_err E.EINVAL
        (K.coffer_new kfs ~path:"/bad/a\000b" ~ctype:zofs_ctype ~mode:0o600
           ~uid:1000 ~gid:1000);
      expect_err E.EINVAL (K.coffer_rename kfs cid ~new_path:"/a\000");
      List.iter
        (fun mode ->
          expect_err E.EINVAL (split ~mode "/bad/s");
          expect_err E.EINVAL
            (K.coffer_new kfs ~path:"/m" ~ctype:zofs_ctype ~mode ~uid:1000
               ~gid:1000);
          expect_err E.EINVAL (K.coffer_chmod kfs cid ~mode ~uid:1000 ~gid:1000))
        [ -1; 0o10000; max_int; min_int ];
      Alcotest.(check (list (pair int int))) "the runs still stay" runs
        (A.runs_of at ~cid);
      ok_or_fail (K.coffer_chmod kfs cid ~mode:0o7777 ~uid:1000 ~gid:1000);
      let c =
        ok_or_fail
          (K.coffer_new kfs ~path:"//bad//ok/" ~ctype:zofs_ctype ~mode:0
             ~uid:1000 ~gid:1000)
      in
      Alcotest.(check string) "normalized" "/bad/ok" c.Coffer.path);
  Mpk.with_kernel mpk (fun () -> A.verify (K.alloc_table kfs))

let qcheck_path_mode_arguments_never_raise =
  let path =
    QCheck.Gen.(
      oneof
        [
          oneofl edge_paths;
          string_size ~gen:(oneofl [ '/'; '.'; 'a'; '\000' ]) (int_range 0 12);
        ])
  in
  let mode =
    QCheck.Gen.(oneof [ oneofl edge_modes; int_range (-2) 0o20000; int ])
  in
  QCheck.Test.make ~name:"random paths and modes give Ok or an errno"
    ~count:100
    (QCheck.make
       ~print:QCheck.Print.(list (pair string int))
       QCheck.Gen.(list_size (int_range 1 6) (pair path mode)))
    (fun args ->
      let _, mpk, kfs = mk () in
      as_user (fun () ->
          let cid = bad_args_coffer kfs in
          List.iter
            (fun (path, mode) ->
              List.iter
                (fun (_, call) -> ignore (call ()))
                (path_mode_calls kfs ~cid path mode))
            args);
      Mpk.with_kernel mpk (fun () -> A.verify (K.alloc_table kfs));
      true)

(* ---- recovery frees pages with their PTEs ------------------------------ *)

(* As user 1000: mount, create "/r" (0o600) with 8 pages beyond its three,
   map it (populated), recover it reporting only its root-file and custom
   pages in use.  Returns the cid, its mapping and the 8 freed pages. *)
let recover_with_freed_pages kfs =
  ok_or_fail (K.fs_mount kfs);
  let c =
    ok_or_fail
      (K.coffer_new kfs ~path:"/r" ~ctype:zofs_ctype ~mode:0o600 ~uid:1000
         ~gid:1000)
  in
  let cid = c.Coffer.id in
  ignore (ok_or_fail (K.coffer_enlarge kfs cid ~n:8));
  let m = ok_or_fail (K.coffer_map kfs cid) in
  let pages = coffer_pages kfs cid in
  ignore (ok_or_fail (K.coffer_recover_begin kfs cid));
  let kept =
    [ c.Coffer.root_file / Nvm.page_size; c.Coffer.custom / Nvm.page_size ]
  in
  ok_or_fail (K.coffer_recover_end kfs cid ~in_use:kept);
  (cid, m, List.filter (fun p -> p <> cid && not (List.mem p kept)) pages)

(* The pages recover_end frees lose the recoverer's PTEs with them: the
   page table matches the mappings before and after the unmap. *)
let test_recover_end_tears_down_freed_ptes () =
  let _, mpk, kfs = mk () in
  as_user (fun () ->
      let cid, _, freed = recover_with_freed_pages kfs in
      let pid = self_pid () in
      Alcotest.(check int) "8 pages freed" 8 (List.length freed);
      Alcotest.(check (list string)) "page table matches mappings" []
        (K.pte_violations kfs ~pid);
      Alcotest.(check bool) "no PTE on a freed page" true
        (List.for_all (fun page -> Mpk.page_pkey mpk ~pid ~page = None) freed);
      ok_or_fail (K.coffer_unmap kfs cid);
      Alcotest.(check (list string)) "after the unmap too" []
        (K.pte_violations kfs ~pid))

(* Once another process's coffer is granted the freed pages, the
   recoverer, handed the old key for a new coffer, cannot write them. *)
let test_freed_pages_not_writable_under_old_key () =
  let dev, mpk, kfs = mk ~pages:2048 () in
  let proc = Sim.Proc.create ~uid:1000 ~gid:1000 () in
  let m, freed =
    Sim.run_thread ~proc (fun () ->
        let cid, m, freed = recover_with_freed_pages kfs in
        ok_or_fail (K.coffer_unmap kfs cid);
        (m, freed))
  in
  let other =
    as_user (fun () ->
        ok_or_fail (K.fs_mount kfs);
        let c =
          ok_or_fail
            (K.coffer_new kfs ~path:"/other" ~ctype:zofs_ctype ~mode:0o600
               ~uid:1000 ~gid:1000)
        in
        ignore (ok_or_fail (K.coffer_enlarge kfs c.Coffer.id ~n:8));
        c.Coffer.id)
  in
  List.iter
    (fun page ->
      Alcotest.(check int) "granted to the other process's coffer" other
        (A.owner_of (K.alloc_table kfs) ~page))
    freed;
  Sim.run_thread ~proc (fun () ->
      let c =
        ok_or_fail
          (K.coffer_new kfs ~path:"/n" ~ctype:zofs_ctype ~mode:0o600 ~uid:1000
             ~gid:1000)
      in
      let nm = ok_or_fail (K.coffer_map kfs c.Coffer.id) in
      Alcotest.(check int) "the old key" m.K.m_pkey nm.K.m_pkey;
      List.iter
        (fun page ->
          Alcotest.(check string)
            (Printf.sprintf "write to page %d" page)
            "page not mapped"
            (fault_reason (fun () ->
                 Mpk.with_keys mpk
                   [ (nm.K.m_pkey, Mpk.Pk_read_write) ]
                   (fun () -> D.write_u8 dev (page * Nvm.page_size) 1))))
        freed)

(* ---- prefault ------------------------------------------------------------ *)

let gate_cost = Treasury.Gate.enter_cost + Treasury.Gate.exit_cost

let timed f =
  let t0 = Sim.now () in
  f ();
  Sim.now () - t0

(* One kernel entry installs the named pages that are pending in the
   caller's table, one PTE each; present pages, repeats included, are
   free.  It is one syscall and no fault, and a touch of an installed page
   traps no more. *)
let test_prefault_exact_cost () =
  let dev, mpk, kfs = mk ~pages:2048 () in
  as_user (fun () ->
      let cid, m = lazy_coffer ~extra:37 kfs in
      let pid = self_pid () in
      let header = header_pages kfs cid in
      let pending =
        List.filter (fun p -> not (List.mem p header)) (coffer_pages kfs cid)
      in
      let chosen = List.filteri (fun i _ -> i mod 3 = 0) pending in
      let gate = K.gate kfs in
      let syscalls0 = syscalls kfs and faults0 = Treasury.Gate.fault_count gate in
      Alcotest.(check int) "one entry, one PTE per pending page"
        (gate_cost + (K.pte_update_cost * List.length chosen))
        (timed (fun () -> K.prefault kfs ~pages:(header @ chosen @ chosen)));
      Alcotest.(check int) "one syscall" (syscalls0 + 1) (syscalls kfs);
      Alcotest.(check bool) "the named pages installed, the rest pending" true
        (List.for_all
           (fun page ->
             if List.mem page chosen then Mpk.is_mapped mpk ~pid ~page
             else Mpk.is_pending mpk ~pid ~page)
           pending);
      List.iter
        (fun page -> touch dev mpk ~keys:[ (m.K.m_pkey, Mpk.Pk_read) ] page)
        chosen;
      Alcotest.(check int) "no fault, touches included" faults0
        (Treasury.Gate.fault_count gate);
      Alcotest.(check int) "present pages are free" gate_cost
        (timed (fun () -> K.prefault kfs ~pages:chosen));
      Alcotest.(check (list string)) "page table matches mappings" []
        (K.pte_violations kfs ~pid))

(* A page that is not pending in the caller's own table installs nothing
   and raises nothing: negative, past the device end, of a coffer the
   caller does not map, or pending only in another process.  The caller
   maps a coffer of its own lazily, so it has a page table, and none of
   that coffer's pending pages is installed either.  A process that never
   mounted pays the gate and nothing else. *)
let test_prefault_ignores_other_pages () =
  let dev, mpk, kfs = mk ~pages:2048 () in
  let npages = D.pages dev in
  let other = Sim.Proc.create ~uid:1000 ~gid:1000 () in
  let other_pages =
    Sim.run_thread ~proc:other (fun () ->
        let cid, _ = lazy_coffer kfs in
        coffer_pages kfs cid)
  in
  let other_pid = other.Sim.Proc.pid in
  let other_pending =
    List.filter (fun page -> Mpk.is_pending mpk ~pid:other_pid ~page) other_pages
  in
  Alcotest.(check bool) "pending in the other process" true (other_pending <> []);
  as_user (fun () ->
      ok_or_fail (K.fs_mount kfs);
      let stranger =
        ok_or_fail
          (K.coffer_new kfs ~path:"/stranger" ~ctype:zofs_ctype ~mode:0o600
             ~uid:1000 ~gid:1000)
      in
      let mine =
        ok_or_fail
          (K.coffer_new kfs ~path:"/mine" ~ctype:zofs_ctype ~mode:0o600
             ~uid:1000 ~gid:1000)
      in
      ignore (ok_or_fail (K.coffer_enlarge kfs mine.Coffer.id ~n:8));
      ignore (ok_or_fail (K.coffer_map ~populate:false kfs mine.Coffer.id));
      let pid = self_pid () in
      let mine_pending =
        List.filter
          (fun page -> Mpk.is_pending mpk ~pid ~page)
          (coffer_pages kfs mine.Coffer.id)
      in
      Alcotest.(check int) "its own pages pending" 8 (List.length mine_pending);
      let garbage =
        [ -1; -4096; min_int; npages; npages + 7; max_int ]
        @ other_pages
        @ coffer_pages kfs stranger.Coffer.id
      in
      Alcotest.(check int) "the gate alone" gate_cost
        (timed (fun () -> K.prefault kfs ~pages:garbage));
      Alcotest.(check bool) "nothing installed" true
        (List.for_all (fun page -> Mpk.page_pkey mpk ~pid ~page = None) garbage);
      Alcotest.(check bool) "its own pages still pending" true
        (List.for_all (fun page -> Mpk.is_pending mpk ~pid ~page) mine_pending);
      Alcotest.(check (list string)) "page table matches mappings" []
        (K.pte_violations kfs ~pid));
  Alcotest.(check bool) "still pending in the other process" true
    (List.for_all
       (fun page -> Mpk.is_pending mpk ~pid:other_pid ~page)
       other_pending);
  Alcotest.(check (list string)) "its page table matches its mappings" []
    (K.pte_violations kfs ~pid:other_pid);
  as_user ~uid:1001 (fun () ->
      Alcotest.(check int) "unmounted: the gate alone" gate_cost
        (timed (fun () -> K.prefault kfs ~pages:other_pages)))

let () =
  Alcotest.run "kernfs"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "mkfs root coffer" `Quick test_mkfs_root_coffer;
          Alcotest.test_case "fs_mount required" `Quick test_fs_mount_required;
          Alcotest.test_case "remount" `Quick test_remount_preserves_everything;
          Alcotest.test_case "syscall cost" `Quick test_syscall_costs_time;
        ] );
      ( "coffer-create-delete",
        [
          Alcotest.test_case "new + find + locate" `Quick test_coffer_new_and_find;
          Alcotest.test_case "parent write checked" `Quick
            test_coffer_new_checks_parent_write;
          Alcotest.test_case "delete" `Quick test_delete;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "map grants access" `Quick test_coffer_map_grants_access;
          Alcotest.test_case "map denied" `Quick test_coffer_map_permission_denied;
          Alcotest.test_case "group read-only" `Quick
            test_coffer_map_readonly_for_group;
          Alcotest.test_case "15 regions max" `Quick test_map_exhausts_15_regions;
          Alcotest.test_case "KernFS holds coffer_map's record" `Quick
            test_holds_the_record;
        ] );
      ( "space",
        [
          Alcotest.test_case "enlarge/shrink" `Quick test_enlarge_and_shrink;
          Alcotest.test_case "partial grant on exhaustion" `Quick
            test_enlarge_partial_on_exhaustion;
          Alcotest.test_case "mid-batch transient counted once" `Quick
            test_enlarge_midbatch_transient_counts_once;
          Alcotest.test_case "shrink validation" `Quick
            test_shrink_rejects_foreign_pages;
        ] );
      ( "split-merge-rename",
        [
          Alcotest.test_case "split" `Quick test_split;
          Alcotest.test_case "split ownership" `Quick test_split_requires_ownership;
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "merge same perm" `Quick test_merge_requires_same_perm;
          Alcotest.test_case "merge frees a root page inside a run" `Quick
            test_merge_root_page_inside_a_run;
          Alcotest.test_case "chmod in place" `Quick test_chmod_in_place;
          Alcotest.test_case "rename descendants" `Quick
            test_rename_moves_descendants;
        ] );
      ( "page-tables",
        [
          Alcotest.test_case "PTEs match mappings under interleaving" `Quick
            test_pte_invariant_under_interleaving;
          Alcotest.test_case "pending PTEs: exact cost" `Quick
            test_pending_ptes_exact_cost;
          Alcotest.test_case "pending page checked after install" `Quick
            test_pending_page_checked_after_install;
          Alcotest.test_case "unmapped coffer's page installs nothing" `Quick
            test_unmapped_coffer_page_installs_nothing;
          Alcotest.test_case "teardowns clear pending PTEs" `Quick
            test_teardowns_clear_pending;
          Alcotest.test_case "a fault after a teardown installs nothing"
            `Quick test_fault_after_teardown_installs_nothing;
          Alcotest.test_case "re-granted page not installed under old key"
            `Quick test_regranted_page_not_installed_under_old_key;
          Alcotest.test_case "PTEs go before the table gives pages away"
            `Quick test_teardown_before_table_update;
          Alcotest.test_case "late PTE install caught" `Quick
            test_pte_check_catches_late_install;
          Alcotest.test_case "two processes map in parallel" `Quick
            test_parallel_maps_overlap;
          Alcotest.test_case "map installs a run at a time" `Quick
            test_map_installs_a_run_at_a_time;
        ] );
      ( "evict",
        [
          Alcotest.test_case "a remap with a victim is one syscall" `Quick
            test_evict_is_one_syscall;
          Alcotest.test_case "victim: present PTEs charged, pending free"
            `Quick test_evict_charges_present_ptes_only;
          Alcotest.test_case "a failed map leaves the victim mapped" `Quick
            test_failed_evict_leaves_victim;
          Alcotest.test_case "evict of an unmapped coffer or the target"
            `Quick test_evict_ignored_unless_mapped;
        ] );
      ( "recovery+mmap",
        [
          Alcotest.test_case "recover reclaims" `Quick
            test_recover_reclaims_leaked_pages;
          Alcotest.test_case "file_mmap" `Quick test_file_mmap_validation;
          Alcotest.test_case "file_execve" `Quick test_file_execve;
          Alcotest.test_case "on_setuid unmaps everything" `Quick
            test_on_setuid_unmaps_everything;
          Alcotest.test_case "recovery freezes ownership" `Quick
            test_recovery_freezes_ownership;
          Alcotest.test_case "recover_end tears down freed pages' PTEs"
            `Quick test_recover_end_tears_down_freed_ptes;
          Alcotest.test_case "freed pages not writable under the old key"
            `Quick test_freed_pages_not_writable_under_old_key;
        ] );
      ( "prefault",
        [
          Alcotest.test_case "exact cost" `Quick test_prefault_exact_cost;
          Alcotest.test_case "other pages: nothing installed, nothing raised"
            `Quick test_prefault_ignores_other_pages;
        ] );
      ( "bad-arguments",
        [
          Alcotest.test_case "out-of-range pages are EINVAL" `Quick
            test_bad_page_arguments;
          QCheck_alcotest.to_alcotest qcheck_page_arguments_never_raise;
          Alcotest.test_case "out-of-range cids are EINVAL" `Quick
            test_bad_cid_arguments;
          QCheck_alcotest.to_alcotest qcheck_cid_arguments_never_raise;
          Alcotest.test_case "bad paths and modes are errnos" `Quick
            test_bad_path_mode_arguments;
          QCheck_alcotest.to_alcotest qcheck_path_mode_arguments_never_raise;
        ] );
    ]
