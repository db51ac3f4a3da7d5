(* Tests for KernFS: the coffer protocol of paper Table 5. *)

module K = Treasury.Kernfs
module A = Treasury.Alloc_table
module Coffer = Treasury.Coffer
module E = Treasury.Errno
module D = Nvm.Device

let zofs_ctype = 1

let mk ?(pages = 1024) () =
  let dev = D.create ~perf:Nvm.Perf.free ~size:(pages * Nvm.page_size) () in
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
  let w = Sim.create ~seed:11L () in
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

(* Every PTE in [pid]'s table must belong to a coffer in [mapped] (that
   process's mappings) and carry that mapping's key and writability, the
   coffer root page read-only; every page of a mapped coffer must have a
   PTE. *)
let pte_violations kfs mpk ~pid mapped =
  let at = K.alloc_table kfs in
  let bad = ref [] in
  let report fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  for page = 0 to A.npages at - 1 do
    let owner = A.owner_of at ~page in
    match (Mpk.page_pkey mpk ~pid ~page, List.assoc_opt owner mapped) with
    | None, None -> ()
    | None, Some _ ->
        report "pid %d: page %d of mapped coffer %d has no PTE" pid page owner
    | Some _, None ->
        report "pid %d: page %d has a PTE but its coffer %d is not mapped" pid
          page owner
    | Some key, Some m ->
        if key <> m.K.m_pkey then
          report "pid %d: page %d has key %d, its mapping %d" pid page key
            m.K.m_pkey;
        let writable = m.K.m_writable && page <> owner in
        if Mpk.page_writable mpk ~pid ~page <> writable then
          report "pid %d: page %d writable=%b, its mapping %b" pid page
            (not writable) writable
  done;
  List.rev !bad

(* [pte_violations] for [proc], read after its simulation has ended. *)
let proc_pte_violations kfs mpk proc =
  let mapped = Sim.run_thread ~proc (fun () -> K.mapped_coffers kfs) in
  pte_violations kfs mpk ~pid:proc.Sim.Proc.pid mapped

(* Two processes of two threads each interleave map, unmap, enlarge, shrink
   and chmod over three shared coffers; afterwards every page table matches
   its process's mappings exactly. *)
let test_pte_invariant_under_interleaving () =
  let _, mpk, kfs = mk ~pages:2048 () in
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
  let world = Sim.create () in
  let worker ~seed () =
    let rng = Sim.Rng.create seed in
    for _ = 1 to 150 do
      let cid = cids.(Sim.Rng.int rng (Array.length cids)) in
      (match Sim.Rng.int rng 5 with
      | 0 -> ignore (K.coffer_map kfs cid)
      | 1 -> ignore (K.coffer_unmap kfs cid)
      | 2 -> ignore (K.coffer_enlarge kfs cid ~n:(1 + Sim.Rng.int rng 8))
      | 3 -> (
          match List.rev (A.runs_of (K.alloc_table kfs) ~cid) with
          | (start, len) :: _ when start + len - 1 <> cid && len > 0 ->
              ignore (K.coffer_shrink kfs cid ~runs:[ (start + len - 1, 1) ])
          | _ -> ())
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
  List.iter
    (fun proc ->
      Alcotest.(check (list string)) "page table matches mappings" []
        (proc_pte_violations kfs mpk proc))
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
    (proc_pte_violations kfs mpk proc <> [])

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
          Alcotest.test_case "chmod in place" `Quick test_chmod_in_place;
          Alcotest.test_case "rename descendants" `Quick
            test_rename_moves_descendants;
        ] );
      ( "page-tables",
        [
          Alcotest.test_case "PTEs match mappings under interleaving" `Quick
            test_pte_invariant_under_interleaving;
          Alcotest.test_case "late PTE install caught" `Quick
            test_pte_check_catches_late_install;
          Alcotest.test_case "two processes map in parallel" `Quick
            test_parallel_maps_overlap;
          Alcotest.test_case "map installs a run at a time" `Quick
            test_map_installs_a_run_at_a_time;
        ] );
      ( "recovery+mmap",
        [
          Alcotest.test_case "recover reclaims" `Quick
            test_recover_reclaims_leaked_pages;
          Alcotest.test_case "file_mmap" `Quick test_file_mmap_validation;
          Alcotest.test_case "file_execve" `Quick test_file_execve;
          Alcotest.test_case "on_setuid unmaps everything" `Quick
            test_on_setuid_unmaps_everything;
        ] );
    ]
