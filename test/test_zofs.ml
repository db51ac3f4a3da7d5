(* End-to-end tests of ZoFS through FSLibs (dispatcher + µFS + KernFS). *)

open Testkit
module V = Treasury.Vfs
module Ft = Treasury.Fs_types
module E = Treasury.Errno
module K = Treasury.Kernfs

let test_write_read_roundtrip () =
  let w = make_world () in
  in_proc w (fun fs ->
      ok_or_fail (V.write_file fs "/hello.txt" "hello coffer world");
      Alcotest.(check string) "read back" "hello coffer world"
        (ok_or_fail (V.read_file fs "/hello.txt")))

let test_open_missing () =
  let w = make_world () in
  in_proc w (fun fs ->
      expect_err E.ENOENT (V.openf fs "/missing" [ Ft.O_RDONLY ] 0))

let test_create_excl () =
  let w = make_world () in
  in_proc w (fun fs ->
      ok_or_fail (V.write_file fs "/f" "x");
      expect_err E.EEXIST
        (V.openf fs "/f" [ Ft.O_CREAT; Ft.O_EXCL; Ft.O_WRONLY ] 0o644))

let test_sequential_and_random_io () =
  let w = make_world () in
  in_proc w (fun fs ->
      let fd = ok_or_fail (V.openf fs "/io" [ Ft.O_CREAT; Ft.O_RDWR ] 0o644) in
      (* write 10000 bytes crossing block boundaries *)
      let data = String.init 10_000 (fun i -> Char.chr (i mod 251)) in
      Alcotest.(check int) "written" 10_000 (ok_or_fail (V.write fs fd data));
      (* pread in the middle *)
      let buf = Bytes.create 100 in
      let n = ok_or_fail (V.pread fs fd ~off:4090 buf 0 100) in
      Alcotest.(check int) "pread len" 100 n;
      Alcotest.(check string) "pread data" (String.sub data 4090 100)
        (Bytes.to_string buf);
      (* pwrite overwrite *)
      ignore (ok_or_fail (V.pwrite fs fd ~off:5000 "OVERWRITE"));
      let buf = Bytes.create 9 in
      ignore (ok_or_fail (V.pread fs fd ~off:5000 buf 0 9));
      Alcotest.(check string) "overwritten" "OVERWRITE" (Bytes.to_string buf);
      ok_or_fail (V.close fs fd))

let test_append_mode () =
  let w = make_world () in
  in_proc w (fun fs ->
      ok_or_fail (V.append_file fs "/log" "one ");
      ok_or_fail (V.append_file fs "/log" "two ");
      ok_or_fail (V.append_file fs "/log" "three");
      Alcotest.(check string) "appended" "one two three"
        (ok_or_fail (V.read_file fs "/log")))

let test_lseek () =
  let w = make_world () in
  in_proc w (fun fs ->
      ok_or_fail (V.write_file fs "/s" "0123456789");
      let fd = ok_or_fail (V.openf fs "/s" [ Ft.O_RDONLY ] 0) in
      Alcotest.(check int) "seek set" 4
        (ok_or_fail (V.lseek fs fd 4 Ft.SEEK_SET));
      let b = Bytes.create 2 in
      ignore (ok_or_fail (V.read fs fd b 0 2));
      Alcotest.(check string) "after seek" "45" (Bytes.to_string b);
      Alcotest.(check int) "seek cur" 8 (ok_or_fail (V.lseek fs fd 2 Ft.SEEK_CUR));
      Alcotest.(check int) "seek end" 9
        (ok_or_fail (V.lseek fs fd (-1) Ft.SEEK_END));
      ok_or_fail (V.close fs fd))

let test_large_file_indirect_blocks () =
  let w = make_world ~pages:16384 () in
  in_proc w (fun fs ->
      (* 300 KB: direct (128 KB) + indirect range *)
      let chunk = String.init 4096 (fun i -> Char.chr (i mod 256)) in
      let fd = ok_or_fail (V.openf fs "/big" [ Ft.O_CREAT; Ft.O_RDWR ] 0o644) in
      for _ = 1 to 75 do
        ignore (ok_or_fail (V.write fs fd chunk))
      done;
      let st = ok_or_fail (V.fstat fs fd) in
      Alcotest.(check int) "size" (75 * 4096) st.Ft.st_size;
      (* verify a block deep in the indirect range *)
      let buf = Bytes.create 4096 in
      ignore (ok_or_fail (V.pread fs fd ~off:(70 * 4096) buf 0 4096));
      Alcotest.(check string) "indirect data" chunk (Bytes.to_string buf);
      ok_or_fail (V.close fs fd))

let test_sparse_holes_read_zero () =
  let w = make_world () in
  in_proc w (fun fs ->
      let fd = ok_or_fail (V.openf fs "/sparse" [ Ft.O_CREAT; Ft.O_RDWR ] 0o644) in
      ignore (ok_or_fail (V.pwrite fs fd ~off:(8 * 4096) "end"));
      let st = ok_or_fail (V.fstat fs fd) in
      Alcotest.(check int) "size covers hole" ((8 * 4096) + 3) st.Ft.st_size;
      let buf = Bytes.make 10 'x' in
      ignore (ok_or_fail (V.pread fs fd ~off:4096 buf 0 10));
      Alcotest.(check string) "hole is zeros" (String.make 10 '\000')
        (Bytes.to_string buf);
      ok_or_fail (V.close fs fd))

let test_truncate () =
  let w = make_world () in
  in_proc w (fun fs ->
      ok_or_fail (V.write_file fs "/t" (String.make 9000 'a'));
      ok_or_fail (V.truncate fs "/t" 100);
      Alcotest.(check string) "shrunk" (String.make 100 'a')
        (ok_or_fail (V.read_file fs "/t"));
      (* growing again exposes zeros, not stale bytes *)
      ok_or_fail (V.truncate fs "/t" 200);
      let s = ok_or_fail (V.read_file fs "/t") in
      Alcotest.(check string) "zeros after regrow"
        (String.make 100 'a' ^ String.make 100 '\000')
        s)

(* Truncate and data_pages against word-by-word reference walks written
   here, as both read pointer pages before they read whole pointer ranges:
   the same pages in the same order, on a file whose blocks reach through
   the indirect page into two double-indirect mid pages, with holes. *)
let reference_data_pages dev ~ino =
  let module L = Zofs.Layout in
  let pages = ref [] in
  let add a = if a <> 0 then pages := a :: !pages in
  let nblocks = Zofs.File.blocks_for (Zofs.Inode.size dev ~ino) in
  for b = 0 to min nblocks L.max_blocks - 1 do
    add (Zofs.File.block_addr dev ~ino b)
  done;
  add (Zofs.Inode.indirect dev ~ino);
  let dind = Zofs.Inode.double_indirect dev ~ino in
  if dind <> 0 then begin
    add dind;
    for o = 0 to L.ptrs_per_page - 1 do
      add (Nvm.Device.read_u64 dev (dind + (o * 8)))
    done
  end;
  !pages

(* The pages a shrink to [new_size] frees, in order. *)
let reference_frees dev ~ino new_size =
  let module L = Zofs.Layout in
  let first_dead = Zofs.File.blocks_for new_size in
  let freed = ref [] in
  let drop ptr =
    let a = Nvm.Device.read_u64 dev ptr in
    if a <> 0 then freed := a :: !freed
  in
  for b = first_dead to L.n_direct - 1 do
    drop (Zofs.Inode.direct_addr ~ino b)
  done;
  let ind = Zofs.Inode.indirect dev ~ino in
  if ind <> 0 then begin
    for i = max 0 (first_dead - L.n_direct) to L.ptrs_per_page - 1 do
      drop (ind + (i * 8))
    done;
    if first_dead <= L.n_direct then freed := ind :: !freed
  end;
  let dind = Zofs.Inode.double_indirect dev ~ino in
  if dind <> 0 then begin
    let base = L.n_direct + L.ptrs_per_page in
    for o = 0 to L.ptrs_per_page - 1 do
      let mid = Nvm.Device.read_u64 dev (dind + (o * 8)) in
      if mid <> 0 then begin
        let mid_base = base + (o * L.ptrs_per_page) in
        for i = max 0 (first_dead - mid_base) to L.ptrs_per_page - 1 do
          drop (mid + (i * 8))
        done;
        if first_dead <= mid_base then drop (dind + (o * 8))
      end
    done;
    if first_dead <= base then freed := dind :: !freed
  end;
  List.rev !freed

let test_bulk_truncate_matches_reference () =
  let module L = Zofs.Layout in
  let w = make_world ~pages:4096 () in
  let nblocks = L.n_direct + L.ptrs_per_page + 600 in
  in_proc ~uid:0 w (fun fs ->
      let fd = ok_or_fail (V.openf fs "/dt" [ Ft.O_CREAT; Ft.O_RDWR ] 0o777) in
      for b = 0 to nblocks - 1 do
        if b mod 7 <> 3 || b = nblocks - 1 then
          ignore (ok_or_fail (V.pwrite fs fd ~off:(b * 4096) (String.make 4096 'd')))
      done;
      ok_or_fail (V.close fs fd));
  Sim.run_thread (fun () ->
      Mpk.with_kernel w.mpk (fun () ->
          Mpk.with_write_window w.mpk (fun () ->
              let root =
                Option.get (Treasury.Coffer.read w.dev ~id:(K.root_coffer w.kfs))
              in
              let ino =
                match Zofs.Dir.lookup w.dev ~ino:root.Treasury.Coffer.root_file "dt" with
                | Some de -> de.Zofs.Dir.de_inode
                | None -> Alcotest.fail "/dt"
              in
              Alcotest.(check bool) "two mid pages" true
                (Nvm.Device.read_u64 w.dev (Zofs.Inode.double_indirect w.dev ~ino + 8)
                <> 0);
              let shrink size =
                let freed = ref [] in
                Zofs.File.shrink_to w.dev
                  ~free:(Some (fun p -> freed := p :: !freed))
                  ~ino size;
                List.rev !freed
              in
              List.iter
                (fun size ->
                  Alcotest.(check (list int))
                    (Printf.sprintf "data_pages at %d" (Zofs.Inode.size w.dev ~ino))
                    (reference_data_pages w.dev ~ino)
                    (Zofs.File.data_pages w.dev ~ino);
                  let expected = reference_frees w.dev ~ino size in
                  Alcotest.(check (list int))
                    (Printf.sprintf "shrink to %d: same frees" size)
                    expected (shrink size);
                  Alcotest.(check (list int))
                    (Printf.sprintf "shrink to %d again: idempotent" size)
                    [] (shrink size);
                  Zofs.Inode.set_size w.dev ~ino size)
                [
                  ((L.n_direct + L.ptrs_per_page + 300) * 4096) + 100;
                  (40 * 4096) + 5;
                  0;
                ];
              Alcotest.(check (list int)) "nothing left" []
                (Zofs.File.data_pages w.dev ~ino))))

let test_o_trunc () =
  let w = make_world () in
  in_proc w (fun fs ->
      ok_or_fail (V.write_file fs "/t2" "long old content");
      ok_or_fail (V.write_file fs "/t2" "new");
      Alcotest.(check string) "truncated by O_TRUNC" "new"
        (ok_or_fail (V.read_file fs "/t2")))

let test_mkdir_tree_and_readdir () =
  let w = make_world () in
  in_proc w (fun fs ->
      ok_or_fail (V.mkdir fs "/a" 0o755);
      ok_or_fail (V.mkdir fs "/a/b" 0o755);
      ok_or_fail (V.write_file fs "/a/b/f1" "1");
      ok_or_fail (V.write_file fs "/a/b/f2" "2");
      ok_or_fail (V.mkdir fs "/a/b/sub" 0o755);
      let names =
        ok_or_fail (V.readdir fs "/a/b")
        |> List.map (fun d -> d.Ft.d_name)
        |> List.sort compare
      in
      Alcotest.(check (list string)) "entries" [ "f1"; "f2"; "sub" ] names;
      let kinds =
        ok_or_fail (V.readdir fs "/a/b")
        |> List.map (fun d -> (d.Ft.d_name, d.Ft.d_kind = Ft.Directory))
        |> List.sort compare
      in
      Alcotest.(check (list (pair string bool)))
        "kinds"
        [ ("f1", false); ("f2", false); ("sub", true) ]
        kinds)

let test_mkdir_exists () =
  let w = make_world () in
  in_proc w (fun fs ->
      ok_or_fail (V.mkdir fs "/d" 0o755);
      expect_err E.EEXIST (V.mkdir fs "/d" 0o755);
      expect_err E.ENOENT (V.mkdir fs "/no/such/parent" 0o755))

let test_enoent_intermediate () =
  let w = make_world () in
  in_proc w (fun fs ->
      expect_err E.ENOENT (V.stat fs "/nope/deeper");
      ok_or_fail (V.write_file fs "/plain" "x");
      expect_err E.ENOTDIR (V.stat fs "/plain/child"))

let test_unlink () =
  let w = make_world () in
  in_proc w (fun fs ->
      ok_or_fail (V.write_file fs "/dead" "x");
      ok_or_fail (V.unlink fs "/dead");
      expect_err E.ENOENT (V.stat fs "/dead");
      expect_err E.ENOENT (V.unlink fs "/dead");
      ok_or_fail (V.mkdir fs "/adir" 0o755);
      expect_err E.EISDIR (V.unlink fs "/adir"))

let test_rmdir () =
  let w = make_world () in
  in_proc w (fun fs ->
      ok_or_fail (V.mkdir fs "/r" 0o755);
      ok_or_fail (V.write_file fs "/r/f" "x");
      expect_err E.ENOTEMPTY (V.rmdir fs "/r");
      ok_or_fail (V.unlink fs "/r/f");
      ok_or_fail (V.rmdir fs "/r");
      expect_err E.ENOENT (V.stat fs "/r");
      ok_or_fail (V.write_file fs "/file" "x");
      expect_err E.ENOTDIR (V.rmdir fs "/file"))

let test_rename_same_dir () =
  let w = make_world () in
  in_proc w (fun fs ->
      ok_or_fail (V.write_file fs "/old" "content");
      ok_or_fail (V.rename fs "/old" "/new");
      expect_err E.ENOENT (V.stat fs "/old");
      Alcotest.(check string) "moved" "content" (ok_or_fail (V.read_file fs "/new")))

let test_rename_across_dirs_same_coffer () =
  let w = make_world () in
  in_proc w (fun fs ->
      ok_or_fail (V.mkdir fs "/d1" 0o777);
      ok_or_fail (V.mkdir fs "/d2" 0o777);
      ok_or_fail (V.write_file fs "/d1/f" "move me");
      ok_or_fail (V.rename fs "/d1/f" "/d2/g");
      Alcotest.(check string) "moved" "move me"
        (ok_or_fail (V.read_file fs "/d2/g"));
      expect_err E.ENOENT (V.stat fs "/d1/f"))

let test_rename_replaces_destination () =
  let w = make_world () in
  in_proc w (fun fs ->
      ok_or_fail (V.write_file fs "/src" "SRC");
      ok_or_fail (V.write_file fs "/dst" "DST");
      ok_or_fail (V.rename fs "/src" "/dst");
      Alcotest.(check string) "replaced" "SRC" (ok_or_fail (V.read_file fs "/dst")))

let test_stat_fields () =
  let w = make_world () in
  in_proc ~uid:1234 w (fun fs ->
      ok_or_fail (V.write_file fs "/statme" ~mode:0o777 "12345");
      let st = ok_or_fail (V.stat fs "/statme") in
      Alcotest.(check int) "size" 5 st.Ft.st_size;
      Alcotest.(check bool) "regular" true (st.Ft.st_kind = Ft.Regular);
      Alcotest.(check int) "uid" 1234 st.Ft.st_uid;
      let std = ok_or_fail (V.stat fs "/") in
      Alcotest.(check bool) "root dir" true (std.Ft.st_kind = Ft.Directory))

let test_symlink_follow () =
  let w = make_world () in
  in_proc w (fun fs ->
      ok_or_fail (V.mkdir fs "/real" 0o755);
      ok_or_fail (V.write_file fs "/real/data" "through the link");
      ok_or_fail (V.symlink fs ~target:"/real" ~link:"/lnk");
      Alcotest.(check string) "read via symlink" "through the link"
        (ok_or_fail (V.read_file fs "/lnk/data"));
      Alcotest.(check string) "readlink" "/real"
        (ok_or_fail (V.readlink fs "/lnk"));
      let st = ok_or_fail (V.lstat fs "/lnk") in
      Alcotest.(check bool) "lstat sees link" true (st.Ft.st_kind = Ft.Symlink);
      let st = ok_or_fail (V.stat fs "/lnk") in
      Alcotest.(check bool) "stat follows" true (st.Ft.st_kind = Ft.Directory))

let test_symlink_relative () =
  let w = make_world () in
  in_proc w (fun fs ->
      ok_or_fail (V.mkdir fs "/dir" 0o755);
      ok_or_fail (V.write_file fs "/dir/target" "rel");
      ok_or_fail (V.symlink fs ~target:"target" ~link:"/dir/ln");
      Alcotest.(check string) "relative link" "rel"
        (ok_or_fail (V.read_file fs "/dir/ln")))

let test_symlink_loop () =
  let w = make_world () in
  in_proc w (fun fs ->
      ok_or_fail (V.symlink fs ~target:"/b" ~link:"/a");
      ok_or_fail (V.symlink fs ~target:"/a" ~link:"/b");
      expect_err E.ELOOP (V.stat fs "/a"))

(* A symlink in the parent path redirects the whole path, basename
   included: an op on "/link/name" acts on "/real/name", never on "/real". *)
let test_symlink_in_parent () =
  let w = make_world () in
  in_proc w (fun fs ->
      ok_or_fail (V.mkdir fs "/real" 0o755);
      ok_or_fail (V.symlink fs ~target:"/real" ~link:"/link");
      expect_err E.ENOENT (V.rmdir fs "/link/nosuch");
      ignore (ok_or_fail (V.stat fs "/real"));
      ok_or_fail (V.write_file fs "/real/f" "f");
      ok_or_fail (V.unlink fs "/link/f");
      expect_err E.ENOENT (V.stat fs "/real/f");
      ok_or_fail (V.write_file fs "/real/g" "g");
      ok_or_fail (V.rename fs "/link/g" "/link/h");
      Alcotest.(check string) "renamed through the link" "g"
        (ok_or_fail (V.read_file fs "/real/h"));
      expect_err E.ENOENT (V.stat fs "/real/g");
      ok_or_fail (V.mkdir fs "/link/sub" 0o755);
      ok_or_fail (V.rmdir fs "/link/sub");
      expect_err E.ENOENT (V.stat fs "/real/sub");
      ok_or_fail (V.write_file fs "/x" "file");
      ok_or_fail (V.symlink fs ~target:"/x" ~link:"/lx");
      expect_err E.ENOTDIR (V.unlink fs "/lx/foo");
      Alcotest.(check string) "the link's file target survives" "file"
        (ok_or_fail (V.read_file fs "/x")))

let test_many_files_in_one_dir () =
  (* Exercises the two-level hash directory: inline slots spill into chain
     pages (16 inline per second-level page). *)
  let w = make_world ~pages:16384 () in
  in_proc w (fun fs ->
      ok_or_fail (V.mkdir fs "/big" 0o755);
      for i = 1 to 800 do
        ok_or_fail (V.write_file fs (Printf.sprintf "/big/file%04d" i) "x")
      done;
      Alcotest.(check int) "readdir sees all" 800
        (List.length (ok_or_fail (V.readdir fs "/big")));
      (* spot-check lookups *)
      for i = 1 to 800 do
        if i mod 97 = 0 then
          ignore (ok_or_fail (V.stat fs (Printf.sprintf "/big/file%04d" i)))
      done;
      (* delete half, re-check *)
      for i = 1 to 400 do
        ok_or_fail (V.unlink fs (Printf.sprintf "/big/file%04d" i))
      done;
      Alcotest.(check int) "after unlink" 400
        (List.length (ok_or_fail (V.readdir fs "/big"))))

(* The directory scans against a slot-by-slot reference walk written here:
   every first-level slot, dentry and bucket head is loaded on its own, as
   a scan did before it read whole arrays.  A first-level slot holds its
   second-level page's address and, in the 12 low bits, the page's inline
   high-water mark (hwm, clamped to 1..16): the walk reads the inline
   slots below hwm, and the bucket heads and chains only when hwm is 16.
   Returns the valid dentries (when [~dentries]) and the index pages, both
   in visit order, the dentry areas visited, as [(addr, len)]: a
   second-level page's inline slots below its hwm and a chain page's slots
   1..31, and the second-level pages with their hwm, as [(page, hwm)]. *)
let reference_walk dev ~ino ~dentries =
  let module L = Zofs.Layout in
  let des = ref [] and pages = ref [] and areas = ref [] and l2s = ref [] in
  let visit page first last =
    areas := (page + (first * L.dentry_size), (last - first + 1) * L.dentry_size)
             :: !areas;
    if dentries then
      for i = first to last do
        let a = page + (i * L.dentry_size) in
        if Nvm.Device.read_u8 dev (a + L.d_valid) = 1 then
          match Zofs.Dir.read_dentry dev a with
          | Some de -> des := de :: !des
          | None -> ()
      done
  in
  let l1 = Zofs.Inode.read_direct dev ~ino 0 in
  if l1 <> 0 then begin
    pages := [ l1 ];
    for slot = 0 to L.l1_entries - 1 do
      let word = Nvm.Device.read_u64 dev (l1 + (slot * 8)) in
      let l2 = word - (word mod Nvm.page_size) in
      let hwm = max 1 (min L.l2_inline_dentries (word mod Nvm.page_size)) in
      if l2 <> 0 then begin
        pages := l2 :: !pages;
        l2s := (l2, hwm) :: !l2s;
        visit l2 0 (hwm - 1);
        if hwm = L.l2_inline_dentries then
          for b = 0 to L.l2_buckets - 1 do
            let rec chase page =
              if page <> 0 then begin
                pages := page :: !pages;
                visit page 1 L.chain_dentries;
                chase (Nvm.Device.read_u64 dev page)
              end
            in
            chase (Nvm.Device.read_u64 dev (l2 + L.l2_bucket_base + (b * 8)))
          done
      end
    done
  end;
  (List.rev !des, !pages, List.rev !areas, List.rev !l2s)

(* The loads [f] issues on [dev], as [(addr, len)] in issue order. *)
let loads_issued dev f =
  let loads = ref [] in
  let id =
    Nvm.Device.add_trace_subscriber dev (function
      | Nvm.Device.T_load { addr; len; _ } -> loads := (addr, len) :: !loads
      | _ -> ())
  in
  Fun.protect ~finally:(fun () -> Nvm.Device.remove_trace_subscriber dev id) f;
  List.rev !loads

(* The cache lines covered by [(addr, len)] ranges, ascending. *)
let lines_of ranges =
  List.sort_uniq compare
    (List.concat_map
       (fun (addr, len) ->
         List.init
           (((addr + len - 1) / Nvm.line_size) - (addr / Nvm.line_size) + 1)
           (fun k -> (addr / Nvm.line_size) + k))
       ranges)

(* The cache lines [f] loads from [dev], ascending. *)
let lines_loaded dev f = lines_of (loads_issued dev f)

let test_bulk_scan_matches_reference () =
  let w = make_world ~pages:8192 () in
  (* 40 names in one first-level slot: 16 fill the inline area, 24 spill
     into bucket chains; 30 more spread over other slots. *)
  let crowd = Gates.Perf_gate.same_l1_slot_names ~seed:"s" 40 in
  let spread = List.init 30 (fun i -> Printf.sprintf "spread%d" i) in
  let removed = [ List.nth crowd 2; List.nth crowd 9; List.nth crowd 20;
                  List.nth crowd 33; "spread7" ] in
  in_proc ~uid:0 w (fun fs ->
      List.iter
        (fun n -> ok_or_fail (V.write_file fs ("/" ^ n) ~mode:0o777 ""))
        (crowd @ spread);
      List.iter (fun n -> ok_or_fail (V.unlink fs ("/" ^ n))) removed;
      (* the holes refill in scan order *)
      ok_or_fail (V.write_file fs "/late" ~mode:0o777 ""));
  let show de =
    Printf.sprintf "%s@%d kind=%d coffer=%d inode=%d" de.Zofs.Dir.de_name
      de.Zofs.Dir.de_addr de.Zofs.Dir.de_kind de.Zofs.Dir.de_coffer
      de.Zofs.Dir.de_inode
  in
  Sim.run_thread (fun () ->
      Mpk.with_kernel w.mpk (fun () ->
          let root = Option.get (Treasury.Coffer.read w.dev ~id:(K.root_coffer w.kfs)) in
          let ino = root.Treasury.Coffer.root_file in
          let ref_des, ref_pages, areas, l2s =
            reference_walk w.dev ~ino ~dentries:true
          in
          let l2_areas, chain_areas =
            List.partition (fun (a, _) -> List.mem_assoc a l2s) areas
          in
          let chained = List.length chain_areas in
          Alcotest.(check bool) "names spilled into bucket chains" true (chained > 0);
          Alcotest.(check bool) "pages below and at a full hwm" true
            (List.exists (fun (_, h) -> h = Zofs.Layout.l2_inline_dentries) l2s
            && List.exists (fun (_, h) -> h < Zofs.Layout.l2_inline_dentries) l2s);
          Alcotest.(check int) "one inline area per second-level page"
            (List.length l2s) (List.length l2_areas);
          Alcotest.(check int) "every live name listed"
            (List.length crowd + List.length spread - List.length removed + 1)
            (List.length ref_des);
          let des = ref [] in
          let iter_loads =
            loads_issued w.dev (fun () ->
                Zofs.Dir.iter w.dev ~ino (fun de -> des := de :: !des))
          in
          Alcotest.(check (list string)) "iter: same dentries, same order"
            (List.map show ref_des)
            (List.map show (List.rev !des));
          (* iter reads the index arrays' lines and every line of each
             dentry area it visits -- the unused slot tails included -- with
             one load per array: a second-level page's inline dentries below
             its hwm, or, at hwm 16, its inline dentries and bucket heads in
             one page-wide load; the inode's first pointer and each chain
             page's next pointer stay word loads. *)
          let l1 = Zofs.Inode.read_direct w.dev ~ino 0 in
          let l2_pages =
            List.map
              (fun (a, h) ->
                if h = Zofs.Layout.l2_inline_dentries then (a, Nvm.page_size)
                else (a, h * Zofs.Layout.dentry_size))
              l2s
          in
          Alcotest.(check (list int)) "iter: index lines plus dentry areas"
            (List.sort_uniq compare
               (lines_loaded w.dev (fun () ->
                    ignore (reference_walk w.dev ~ino ~dentries:false))
               @ lines_of areas))
            (lines_of iter_loads);
          Alcotest.(check (list (pair int int)))
            "iter: one load per array, one per second-level page"
            (List.sort compare
               (((l1, Nvm.page_size) :: l2_pages) @ chain_areas))
            (List.sort compare
               (List.filter (fun (_, len) -> len > 8) iter_loads));
          Alcotest.(check int) "iter: word loads" (1 + chained)
            (List.length (List.filter (fun (_, len) -> len <= 8) iter_loads));
          (* The fused walk: the pages of structure_pages and the dentries
             of iter, from iter's loads alone. *)
          let walk_pages = ref [] and walk_des = ref [] in
          let walk_loads =
            loads_issued w.dev (fun () ->
                Zofs.Dir.walk w.dev ~ino
                  ~on_page:(fun p -> walk_pages := p :: !walk_pages)
                  ~on_dentry:(fun de -> walk_des := de :: !walk_des))
          in
          Alcotest.(check (list int)) "walk: same pages" ref_pages !walk_pages;
          Alcotest.(check (list string)) "walk: same dentries, same order"
            (List.map show ref_des)
            (List.map show (List.rev !walk_des));
          Alcotest.(check (list (pair int int))) "walk: iter's loads" iter_loads
            walk_loads;
          let pages = ref [] in
          let page_lines =
            lines_loaded w.dev (fun () ->
                pages := Zofs.Dir.structure_pages w.dev ~ino)
          in
          Alcotest.(check (list int)) "structure_pages: same pages" ref_pages
            !pages;
          Alcotest.(check (list int)) "structure_pages: same lines loaded"
            (lines_loaded w.dev (fun () ->
                 ignore (reference_walk w.dev ~ino ~dentries:false)))
            page_lines;
          (* is_empty stops at the first dentry: it loads no first-level
             line past the one holding the first used slot. *)
          let rec first_used i =
            if Nvm.Device.read_u64 w.dev (l1 + (i * 8)) <> 0 then i
            else first_used (i + 1)
          in
          let stop_line = (l1 + (first_used 0 * 8)) / Nvm.line_size in
          let l1_last = (l1 + Nvm.page_size - 1) / Nvm.line_size in
          let empty_lines =
            lines_loaded w.dev (fun () ->
                Alcotest.(check bool) "not empty" false
                  (Zofs.Dir.is_empty w.dev ~ino))
          in
          Alcotest.(check (list int)) "is_empty: no line past its stop" []
            (List.filter (fun l -> l > stop_line && l <= l1_last) empty_lines)))

(* A media error in a second-level page fails the scan's page-wide load of
   it, and the scan falls back to two half-page loads: the inline dentries,
   then the bucket heads.  With the poison in a dentry tail (a line no
   per-slot read touches) the listing is the slot-by-slot walk's.  With it
   in the bucket-head half the heads are unreadable: the fallback's heads
   load raises the media fault, after handing over the same inline dentries
   as the walk, as the two-load scan did. *)
let test_bulk_scan_media_fallback () =
  let w = make_world ~pages:8192 () in
  (* 24 names in one first-level slot: 16 inline, 8 in a chain page *)
  let names = Gates.Perf_gate.same_l1_slot_names ~seed:"q" 24 in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.mkdir fs "/q" 0o777);
      List.iter
        (fun n -> ok_or_fail (V.write_file fs ("/q/" ^ n) ~mode:0o777 ""))
        names);
  let show de = Printf.sprintf "%s@%d" de.Zofs.Dir.de_name de.Zofs.Dir.de_addr in
  Sim.run_thread (fun () ->
      Mpk.with_kernel w.mpk (fun () ->
          let root =
            Option.get (Treasury.Coffer.read w.dev ~id:(K.root_coffer w.kfs))
          in
          let ino =
            match Zofs.Dir.lookup w.dev ~ino:root.Treasury.Coffer.root_file "q" with
            | Some de -> de.Zofs.Dir.de_inode
            | None -> Alcotest.fail "/q"
          in
          let ref_des, _, _, _ = reference_walk w.dev ~ino ~dentries:true in
          let l1 = Zofs.Inode.read_direct w.dev ~ino 0 in
          let l2 = Zofs.Dir.l2_page w.dev l1 (Zofs.Layout.dir_hash (List.hd names)) in
          (* The scan's loads wider than a word, the media faults it took,
             the dentries it handed over and whether it raised. *)
          let scan () =
            let wide = ref [] and faults = ref 0 and des = ref [] in
            let id =
              Nvm.Device.add_trace_subscriber w.dev (function
                | Nvm.Device.T_load { addr; len; _ } when len > 8 ->
                    wide := (addr, len) :: !wide
                | Nvm.Device.T_media_fault _ -> incr faults
                | _ -> ())
            in
            let raised =
              match Zofs.Dir.iter w.dev ~ino (fun de -> des := de :: !des) with
              | () -> false
              | exception Nvm.Fault { kind = Nvm.Media; _ } -> true
            in
            Nvm.Device.remove_trace_subscriber w.dev id;
            (List.rev !wide, !faults, List.map show (List.rev !des), raised)
          in
          let chain = List.filter (fun (a, _) -> a / Nvm.page_size <> l2 / Nvm.page_size) in
          let tail = (List.hd ref_des).Zofs.Dir.de_addr + Nvm.line_size in
          Alcotest.(check bool) "first dentry inline" true
            (tail / Nvm.page_size = l2 / Nvm.page_size);
          Nvm.Device.inject_poison w.dev tail;
          let wide, faults, des, raised = scan () in
          Alcotest.(check (list (pair int int))) "dentry tail: the heads load"
            [ (l2 + Zofs.Layout.l2_bucket_base, 2048) ]
            (List.filter (fun (a, _) -> a / Nvm.page_size = l2 / Nvm.page_size) wide);
          Alcotest.(check int) "dentry tail: page and inline loads fault" 2 faults;
          Alcotest.(check (list string)) "dentry tail: the walk's listing"
            (List.map show ref_des) des;
          Alcotest.(check bool) "dentry tail: no fault escapes" false raised;
          Alcotest.(check bool) "chain pages still one load each" true
            (chain wide <> [] && List.for_all (fun (_, len) -> len <= Nvm.page_size) (chain wide));
          Nvm.Device.clear_poison w.dev tail;
          let head_line = l2 + Zofs.Layout.l2_bucket_base + Nvm.line_size in
          Nvm.Device.inject_poison w.dev head_line;
          let wide, faults, des, raised = scan () in
          Alcotest.(check (list (pair int int))) "bucket heads: the two loads"
            [ (l1, Nvm.page_size); (l2, 2048) ]
            wide;
          Alcotest.(check int) "bucket heads: page and heads loads fault" 2 faults;
          Alcotest.(check (list string)) "bucket heads: the inline dentries"
            (List.map show (List.filteri (fun i _ -> i < 16) ref_des))
            des;
          Alcotest.(check bool) "bucket heads: the fault is raised" true raised;
          Nvm.Device.clear_poison w.dev head_line))

(* The inode of directory [name] under the root coffer's root file. *)
let root_dir_ino w name =
  let root = Option.get (Treasury.Coffer.read w.dev ~id:(K.root_coffer w.kfs)) in
  match Zofs.Dir.lookup w.dev ~ino:root.Treasury.Coffer.root_file name with
  | Some de -> de.Zofs.Dir.de_inode
  | None -> Alcotest.failf "/%s" name

(* A lookup that misses in a second-level page with hwm h loads the line
   of each of the h inline slots below hwm and nothing else of the page --
   no bucket head; at hwm 16 it goes on to the bucket head. *)
let test_lookup_miss_lines () =
  let w = make_world ~pages:8192 () in
  let names = Gates.Perf_gate.same_l1_slot_names ~seed:"v" 21 in
  let absent = List.nth names 20 in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.mkdir fs "/v" 0o777);
      ok_or_fail (V.mkdir fs "/full" 0o777);
      List.iteri
        (fun i n ->
          if i < 5 then ok_or_fail (V.write_file fs ("/v/" ^ n) ~mode:0o777 "");
          if i < 20 then ok_or_fail (V.write_file fs ("/full/" ^ n) ~mode:0o777 ""))
        names);
  let line a = a / Nvm.line_size in
  Sim.run_thread (fun () ->
      Mpk.with_kernel w.mpk (fun () ->
          let hash = Zofs.Layout.dir_hash absent in
          let page_lines dir =
            let ino = root_dir_ino w dir in
            let l1 = Zofs.Dir.l1_page w.dev ~ino in
            let l2 = Zofs.Dir.l2_page w.dev l1 hash in
            let lines =
              lines_loaded w.dev (fun () ->
                  Alcotest.(check bool) "a miss" true
                    (Zofs.Dir.lookup w.dev ~ino absent = None))
            in
            ( l2,
              Zofs.Dir.hwm w.dev l1 hash,
              List.filter (fun l -> l / (Nvm.page_size / Nvm.line_size) = l2 / Nvm.page_size) lines )
          in
          let l2, hwm, lines = page_lines "v" in
          Alcotest.(check int) "hwm 5" 5 hwm;
          Alcotest.(check (list int)) "hwm 5: five inline lines, no bucket head"
            (List.init 5 (fun i -> line (Zofs.Dir.inline_slot l2 i)))
            lines;
          let l2, hwm, lines = page_lines "full" in
          Alcotest.(check int) "hwm 16" 16 hwm;
          Alcotest.(check (list int)) "hwm 16: sixteen inline lines and the bucket head"
            (List.init 16 (fun i -> line (Zofs.Dir.inline_slot l2 i))
            @ [ line (Zofs.Dir.bucket_addr l2 hash) ])
            lines))

(* An insert reuses the lowest free inline slot below hwm before it raises
   hwm, and an unlink leaves hwm where it was. *)
let test_insert_fills_hole_below_hwm () =
  let w = make_world ~pages:8192 () in
  let names = Gates.Perf_gate.same_l1_slot_names ~seed:"v" 7 in
  let create n = in_proc ~uid:0 w (fun fs -> ok_or_fail (V.write_file fs ("/v/" ^ n) ~mode:0o777 "")) in
  in_proc ~uid:0 w (fun fs -> ok_or_fail (V.mkdir fs "/v" 0o777));
  List.iteri (fun i n -> if i < 5 then create n) names;
  (* the slot and hwm of [n] *)
  let where n =
    Sim.run_thread (fun () ->
        Mpk.with_kernel w.mpk (fun () ->
            let ino = root_dir_ino w "v" in
            let l1 = Zofs.Dir.l1_page w.dev ~ino in
            let hash = Zofs.Layout.dir_hash n in
            let l2 = Zofs.Dir.l2_page w.dev l1 hash in
            let slot =
              match Zofs.Dir.lookup w.dev ~ino n with
              | Some de -> (de.Zofs.Dir.de_addr - l2) / Zofs.Layout.dentry_size
              | None -> -1
            in
            (slot, Zofs.Dir.hwm w.dev l1 hash)))
  in
  Alcotest.(check (pair int int)) "fifth name: slot 4, hwm 5" (4, 5) (where (List.nth names 4));
  in_proc ~uid:0 w (fun fs -> ok_or_fail (V.unlink fs ("/v/" ^ List.nth names 1)));
  Alcotest.(check (pair int int)) "unlinked: hwm stays 5" (-1, 5) (where (List.nth names 1));
  create (List.nth names 5);
  Alcotest.(check (pair int int)) "the hole at slot 1 is reused, hwm stays 5" (1, 5)
    (where (List.nth names 5));
  create (List.nth names 6);
  Alcotest.(check (pair int int)) "no hole left: slot 5, hwm 6" (5, 6)
    (where (List.nth names 6))

let test_different_perm_creates_sub_coffer () =
  let w = make_world () in
  let root_cid = Treasury.Kernfs.root_coffer w.kfs in
  in_proc w (fun fs ->
      (* root dir coffer is 0o777 uid 0; a 0o600 file owned by uid 1000
         cannot share it *)
      ok_or_fail (V.write_file fs "/secret" ~mode:0o600 "classified");
      Alcotest.(check string) "readable by owner" "classified"
        (ok_or_fail (V.read_file fs "/secret")));
  (* The file got its own coffer, registered in the path map. *)
  Sim.run_thread (fun () ->
      let cid = ok_or_fail (Treasury.Kernfs.coffer_find w.kfs "/secret") in
      Alcotest.(check bool) "distinct coffer" true (cid <> root_cid);
      let info = ok_or_fail (Treasury.Kernfs.coffer_stat w.kfs cid) in
      Alcotest.(check int) "coffer mode" 0o600 info.Treasury.Coffer.mode;
      Alcotest.(check int) "coffer uid" 1000 info.Treasury.Coffer.uid)

let test_cross_coffer_isolation_between_users () =
  let w = make_world () in
  (* user A creates a private file *)
  in_proc ~uid:100 w (fun fs ->
      ok_or_fail (V.write_file fs "/private" ~mode:0o600 "A's data"));
  (* user B cannot open it *)
  in_proc ~uid:200 w (fun fs ->
      expect_err E.EACCES (V.openf fs "/private" [ Ft.O_RDONLY ] 0));
  (* but A still can *)
  in_proc ~uid:100 w (fun fs ->
      Alcotest.(check string) "owner reads" "A's data"
        (ok_or_fail (V.read_file fs "/private")))

let test_same_perm_files_share_coffer () =
  let w = make_world () in
  in_proc ~uid:0 w (fun fs ->
      (* root creates files matching the root coffer's permission *)
      ok_or_fail (V.write_file fs "/shared1" ~mode:0o777 "a");
      ok_or_fail (V.write_file fs "/shared2" ~mode:0o777 "b"));
  Sim.run_thread (fun () ->
      expect_err E.ENOENT (Treasury.Kernfs.coffer_find w.kfs "/shared1");
      expect_err E.ENOENT (Treasury.Kernfs.coffer_find w.kfs "/shared2"))

let test_chmod_same_class_no_split () =
  let w = make_world () in
  in_proc ~uid:0 w (fun fs ->
      ok_or_fail (V.write_file fs "/f" ~mode:0o777 "x");
      (* execute-bit-only change: no rw change, stays in coffer *)
      ok_or_fail (V.chmod fs "/f" 0o776);
      let st = ok_or_fail (V.stat fs "/f") in
      Alcotest.(check int) "mode updated" 0o776 st.Ft.st_mode);
  Sim.run_thread (fun () ->
      expect_err E.ENOENT (Treasury.Kernfs.coffer_find w.kfs "/f"))

let test_chmod_splits_coffer () =
  let w = make_world () in
  in_proc ~uid:1000 w (fun fs ->
      ok_or_fail (V.mkdir fs "/home" 0o755);
      ok_or_fail (V.write_file fs "/home/doc" ~mode:0o755 "contents");
      (* /home and /home/doc share a coffer (same perm, same owner). *)
      ok_or_fail (V.chmod fs "/home/doc" 0o600);
      let st = ok_or_fail (V.stat fs "/home/doc") in
      Alcotest.(check int) "new mode" 0o600 st.Ft.st_mode;
      Alcotest.(check string) "data intact" "contents"
        (ok_or_fail (V.read_file fs "/home/doc")));
  Sim.run_thread (fun () ->
      let cid = ok_or_fail (Treasury.Kernfs.coffer_find w.kfs "/home/doc") in
      let info = ok_or_fail (Treasury.Kernfs.coffer_stat w.kfs cid) in
      Alcotest.(check int) "split coffer mode" 0o600 info.Treasury.Coffer.mode)

let test_chmod_back_merges_into_parent_coffer () =
  (* Split a file out with chmod, then chmod it back: the coffer merges into
     the parent's and the dentry becomes a same-coffer entry again. *)
  let w = make_world () in
  in_proc ~uid:1000 w (fun fs ->
      ok_or_fail (V.mkdir fs "/home" 0o755);
      ok_or_fail (V.write_file fs "/home/doc" ~mode:0o644 "keep me");
      ok_or_fail (V.chmod fs "/home/doc" 0o600));
  let split_cid =
    Sim.run_thread (fun () ->
        ok_or_fail (Treasury.Kernfs.coffer_find w.kfs "/home/doc"))
  in
  Alcotest.(check bool) "split happened" true (split_cid > 0);
  in_proc ~uid:1000 w (fun fs ->
      ok_or_fail (V.chmod fs "/home/doc" 0o644);
      Alcotest.(check string) "data survives the merge" "keep me"
        (ok_or_fail (V.read_file fs "/home/doc"));
      let st = ok_or_fail (V.stat fs "/home/doc") in
      Alcotest.(check int) "mode" 0o644 st.Ft.st_mode);
  Sim.run_thread (fun () ->
      expect_err E.ENOENT (Treasury.Kernfs.coffer_find w.kfs "/home/doc"))

let test_chmod_other_user_rejected () =
  let w = make_world () in
  in_proc ~uid:100 w (fun fs ->
      ok_or_fail (V.write_file fs "/mine" ~mode:0o666 "x"));
  in_proc ~uid:200 w (fun fs -> expect_err E.EPERM (V.chmod fs "/mine" 0o600))

let test_one_coffer_variant_chmod_stays_local () =
  let w = make_world () in
  let variant = { Zofs.Ufs.default_variant with Zofs.Ufs.one_coffer = true } in
  in_proc ~uid:1000 ~variant w (fun fs ->
      ok_or_fail (V.write_file fs "/f" ~mode:0o666 "x");
      ok_or_fail (V.chmod fs "/f" 0o600);
      let st = ok_or_fail (V.stat fs "/f") in
      Alcotest.(check int) "mode" 0o600 st.Ft.st_mode);
  (* no coffer was created for /f despite the permission change *)
  Sim.run_thread (fun () ->
      expect_err E.ENOENT (Treasury.Kernfs.coffer_find w.kfs "/f"))

let test_two_processes_share_file () =
  let w = make_world () in
  (* process 1 writes, process 2 reads the same coffer concurrently *)
  let world = Sim.create () in
  let p1 = Sim.Proc.create ~uid:0 ~gid:0 () in
  let p2 = Sim.Proc.create ~uid:0 ~gid:0 () in
  let read_back = ref "" in
  Sim.spawn world ~proc:p1 ~name:"writer" (fun () ->
      let fs = vfs w in
      ok_or_fail (V.write_file fs "/shared" ~mode:0o777 "from p1"));
  Sim.spawn world ~proc:p2 ~at:1_000_000 ~name:"reader" (fun () ->
      let fs = vfs w in
      read_back := ok_or_fail (V.read_file fs "/shared"));
  Sim.run world;
  Alcotest.(check string) "cross-process read" "from p1" !read_back

(* Two processes open(O_CREAT) one new name at the same instant: both miss
   it, both create, and the one whose insert loses opens the winner's file
   instead of failing with EEXIST.  With O_EXCL the loser fails. *)
let test_create_race_opens_winner () =
  let race flags =
    let w = make_world () in
    let world = Sim.create () in
    let got = Array.make 2 None in
    for i = 0 to 1 do
      Sim.spawn world
        ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ())
        ~name:(Printf.sprintf "creator%d" i)
        (fun () ->
          let fs = vfs w in
          got.(i) <-
            Some
              (Result.bind (V.openf fs "/race" flags 0o644) (fun fd ->
                   let st = V.fstat fs fd in
                   ignore (V.close fs fd);
                   st)))
    done;
    Sim.run world;
    Array.map Option.get got
  in
  (match race [ Ft.O_CREAT; Ft.O_WRONLY ] with
  | [| Ok a; Ok b |] ->
      Alcotest.(check int) "one file" a.Ft.st_ino b.Ft.st_ino
  | r ->
      Alcotest.failf "a creator failed: %s"
        (String.concat ", "
           (Array.to_list
              (Array.map
                 (function Ok _ -> "ok" | Error e -> E.to_string e)
                 r))));
  match race [ Ft.O_CREAT; Ft.O_EXCL; Ft.O_WRONLY ] with
  | [| Ok _; Error E.EEXIST |] | [| Error E.EEXIST; Ok _ |] -> ()
  | _ -> Alcotest.fail "O_EXCL: expected one creator and one EEXIST"

let test_concurrent_appends_interleave_safely () =
  let w = make_world () in
  let world = Sim.create () in
  let proc = Sim.Proc.create ~uid:0 ~gid:0 () in
  let fs = ref None in
  Sim.spawn world ~proc ~name:"setup" (fun () ->
      let v = vfs w in
      ok_or_fail (V.write_file v "/applog" ~mode:0o777 "");
      fs := Some v);
  Sim.run world;
  let v = Option.get !fs in
  let world = Sim.create () in
  for i = 1 to 4 do
    Sim.spawn world ~proc ~name:(Printf.sprintf "appender%d" i) (fun () ->
        for _ = 1 to 10 do
          ignore (ok_or_fail (V.append_file v "/applog" (String.make 10 (Char.chr (Char.code '0' + i)))))
        done)
  done;
  Sim.run world;
  Sim.run_thread ~proc (fun () ->
      let content = ok_or_fail (V.read_file v "/applog") in
      Alcotest.(check int) "no lost appends" 400 (String.length content))

let test_fd_semantics_through_dispatcher () =
  let w = make_world () in
  let disp_holder = ref None in
  Sim.run_thread (fun () ->
      let disp = fslib w in
      disp_holder := Some disp;
      let fs = Treasury.Dispatcher.as_vfs disp in
      ok_or_fail (V.write_file fs "/f" "0123456789");
      let fd = ok_or_fail (V.openf fs "/f" [ Ft.O_RDONLY ] 0) in
      let fd2 = ok_or_fail (Treasury.Dispatcher.dup disp fd) in
      let b = Bytes.create 3 in
      ignore (ok_or_fail (V.read fs fd b 0 3));
      (* dup shares the offset *)
      ignore (ok_or_fail (V.read fs fd2 b 0 3));
      Alcotest.(check string) "shared offset" "345" (Bytes.to_string b);
      ok_or_fail (V.close fs fd);
      ignore (ok_or_fail (V.read fs fd2 b 0 3));
      Alcotest.(check string) "fd2 alive after fd close" "678"
        (Bytes.to_string b);
      ok_or_fail (V.close fs fd2))

let test_cwd_and_relative_paths () =
  let w = make_world () in
  Sim.run_thread (fun () ->
      let disp = fslib w in
      let fs = Treasury.Dispatcher.as_vfs disp in
      ok_or_fail (V.mkdir fs "/work" 0o755);
      ok_or_fail (V.write_file fs "/work/notes" "hi");
      ok_or_fail (Treasury.Dispatcher.chdir disp "/work");
      Alcotest.(check string) "getcwd" "/work" (Treasury.Dispatcher.getcwd disp);
      Alcotest.(check string) "relative open" "hi"
        (ok_or_fail (V.read_file fs "notes"));
      ok_or_fail (V.write_file fs "local" "created relative");
      Alcotest.(check string) "relative create visible absolutely"
        "created relative"
        (ok_or_fail (V.read_file fs "/work/local")))

(* The dispatcher's call heads: every descriptor op on a closed fd is
   EBADF, every path op with no µFS registered is ENOSYS, and both paths of
   a rename resolve against the working directory. *)
let test_dispatcher_surface () =
  let w = make_world () in
  Sim.run_thread (fun () ->
      let disp = fslib w in
      let fs = Treasury.Dispatcher.as_vfs disp in
      let fd = ok_or_fail (V.openf fs "/f" [ Ft.O_CREAT; Ft.O_RDWR ] 0o644) in
      ok_or_fail (V.close fs fd);
      let buf = Bytes.create 4 in
      expect_err E.EBADF (V.read fs fd buf 0 4);
      expect_err E.EBADF (V.pread fs fd ~off:0 buf 0 4);
      expect_err E.EBADF (V.write fs fd "x");
      expect_err E.EBADF (V.pwrite fs fd ~off:0 "x");
      expect_err E.EBADF (V.fstat fs fd);
      expect_err E.EBADF (V.fsync fs fd);
      expect_err E.EBADF (V.ftruncate fs fd 0);
      expect_err E.EBADF (V.lseek fs fd 0 Ft.SEEK_SET);
      expect_err E.EBADF (Treasury.Dispatcher.dup disp fd);
      expect_err E.EBADF (V.close fs fd);
      let bare = Treasury.Dispatcher.as_vfs (Treasury.Dispatcher.create w.kfs) in
      expect_err E.ENOSYS (V.stat bare "/f");
      expect_err E.ENOSYS (V.openf bare "/f" [ Ft.O_RDONLY ] 0);
      expect_err E.ENOSYS (V.mkdir bare "/d" 0o755);
      expect_err E.ENOSYS (V.rename bare "/f" "/g");
      ok_or_fail (V.mkdir fs "/w" 0o755);
      ok_or_fail (V.write_file fs "/w/a" "moved");
      ok_or_fail (Treasury.Dispatcher.chdir disp "/w");
      ok_or_fail (V.rename fs "a" "b");
      Alcotest.(check string) "lands at /w/b" "moved"
        (ok_or_fail (V.read_file fs "/w/b"));
      expect_err E.ENOENT (V.stat fs "/w/a");
      expect_err E.ENOENT (V.stat fs "/b"))

let test_write_to_readonly_fd_rejected () =
  let w = make_world () in
  in_proc w (fun fs ->
      ok_or_fail (V.write_file fs "/ro" "x");
      let fd = ok_or_fail (V.openf fs "/ro" [ Ft.O_RDONLY ] 0) in
      expect_err E.EBADF (V.write fs fd "nope");
      ok_or_fail (V.close fs fd))

let test_group_readonly_access () =
  let w = make_world () in
  (* owner writes a group-readable file *)
  in_proc ~uid:100 w (fun fs ->
      ok_or_fail (V.write_file fs "/grp" ~mode:0o640 "group data"));
  (* same-gid user may read but not write *)
  let proc = Sim.Proc.create ~uid:300 ~gid:300 ~groups:[ 100 ] () in
  Sim.run_thread ~proc (fun () ->
      let fs = vfs w in
      Alcotest.(check string) "group read" "group data"
        (ok_or_fail (V.read_file fs "/grp"));
      expect_err E.EACCES (V.openf fs "/grp" [ Ft.O_WRONLY ] 0))

(* A thread whose allocator-slot lease expired renews it with a CAS.  If a
   stealer's claim CAS lands between the renewal's read and its CAS, the
   renewal fails and the slot is the stealer's now: the old owner must
   re-claim another slot instead of popping the stealer's free list too.
   With the free cost model only the 20 ns lock prefix of each CAS takes
   time, so a stealer starting 10 ns before the owner wins deterministically. *)
let test_balloc_stolen_slot_reclaimed () =
  let w = make_world () in
  let dev = Nvm.Device.create ~perf:Nvm.Perf.free ~size:(4 * Nvm.page_size) () in
  let world = Sim.create () in
  let proc = Sim.Proc.create ~uid:0 ~gid:0 () in
  let b = ref None and steal_at = ref 0 in
  let owner_slot = ref None and stealer_slot = ref None in
  Sim.spawn world ~proc ~name:"owner" (fun () ->
      let t = Zofs.Balloc.create dev ~custom:0 ~cid:1 w.kfs in
      let slot = Option.get (Zofs.Balloc.my_slot t) in
      let owner = Zofs.Balloc.slot_addr t slot + Zofs.Layout.s_owner in
      b := Some t;
      steal_at := Zofs.Lease.expiry_of (Nvm.Device.read_u64 dev owner) + 100;
      Sim.sleep_until (!steal_at + 10);
      owner_slot := Zofs.Balloc.my_slot t);
  Sim.spawn world ~proc ~name:"stealer" (fun () ->
      Sim.sleep_until (Zofs.Lease.default_duration / 2);
      Sim.sleep_until !steal_at;
      stealer_slot := Zofs.Balloc.my_slot (Option.get !b));
  Sim.run world;
  Alcotest.(check (option int)) "stealer took the expired slot" (Some 0)
    !stealer_slot;
  Alcotest.(check bool) "owner moved to another slot" true
    (!owner_slot <> !stealer_slot)

(* A coffer's custom page holds 63 allocator slots.  When 64 processes
   allocate from one coffer at the same instant, every slot lease is live
   when the 64th claims one: it must fall back to the coffer-global list,
   not fail. *)
let test_balloc_64_processes_one_lease_period () =
  let w = make_world () in
  let root = K.root_coffer w.kfs in
  let start = 1_000_000 in
  let results = ref [] in
  let world = Sim.create () in
  for i = 1 to 64 do
    let proc = Sim.Proc.create ~uid:(1000 + i) ~gid:1000 () in
    Sim.spawn world ~proc ~name:(Printf.sprintf "alloc%d" i) (fun () ->
        ok_or_fail (K.fs_mount w.kfs);
        let m = ok_or_fail (K.coffer_map w.kfs root) in
        let rw = [ (m.K.m_pkey, Mpk.Pk_read_write) ] in
        let b =
          Mpk.with_keys w.mpk rw (fun () ->
              Zofs.Balloc.attach w.dev ~custom:m.K.m_custom ~cid:root w.kfs)
        in
        Sim.sleep_until start;
        let r = Mpk.with_keys w.mpk rw (fun () -> Zofs.Balloc.alloc_page b) in
        results := r :: !results)
  done;
  Sim.run world;
  Alcotest.(check int) "all 64 allocated" 64 (List.length !results);
  let pages = List.map ok_or_fail !results in
  Alcotest.(check int) "64 distinct pages" 64
    (List.length (List.sort_uniq compare pages))

(* A variant configures one FSLib, not the process.  Three worlds of 64
   4 KB appends run in one process: a default world, a world whose
   allocator asks KernFS for 4 pages at a time, and a default world again.
   The small batch makes more coffer_enlarge calls; the last world matches
   the first exactly, so nothing of the variant outlived its instance.  A
   [global_alloc] world takes every page from the coffer-global list and
   never claims a per-thread slot. *)
let test_variants_are_per_instance () =
  let block = String.make 4096 'v' in
  let appends variant =
    let w = make_world ~perf:Nvm.Perf.optane () in
    let elapsed = ref 0 in
    in_proc ~variant w (fun fs ->
        let t0 = Sim.now () in
        let fd =
          ok_or_fail
            (V.openf fs "/a" [ Ft.O_CREAT; Ft.O_WRONLY; Ft.O_APPEND ] 0o644)
        in
        for _ = 1 to 64 do
          ignore (ok_or_fail (V.write fs fd block))
        done;
        ok_or_fail (V.close fs fd);
        elapsed := Sim.now () - t0);
    (w, (K.enlarge_count w.kfs, !elapsed, Nvm.Device.stat_fences w.dev))
  in
  let default = Zofs.Ufs.default_variant in
  let _, fresh = appends default in
  let _, small = appends { default with Zofs.Ufs.enlarge_batch = 4 } in
  let _, after = appends default in
  let enlarges (n, _, _) = n in
  Alcotest.(check bool)
    (Printf.sprintf "batch 4 enlarges more (%d > %d)" (enlarges small)
       (enlarges fresh))
    true
    (enlarges small > enlarges fresh);
  Alcotest.(check (triple int int int))
    "default world after a variant = fresh default world" fresh after;
  let w, (global_enlarges, _, _) =
    appends { default with Zofs.Ufs.global_alloc = true }
  in
  Alcotest.(check bool) "global list refilled from KernFS" true
    (global_enlarges > 0);
  Sim.run_thread (fun () ->
      Mpk.with_kernel w.mpk (fun () ->
          let info =
            Option.get (Treasury.Coffer.read w.dev ~id:(K.root_coffer w.kfs))
          in
          for i = 0 to Zofs.Layout.n_slots - 1 do
            let owner =
              info.Treasury.Coffer.custom + Zofs.Layout.c_slots
              + (i * Zofs.Layout.slot_size) + Zofs.Layout.s_owner
            in
            Alcotest.(check int)
              (Printf.sprintf "slot %d unclaimed" i)
              0
              (Nvm.Device.read_u64 w.dev owner)
          done))

(* Every directory whose mode differs from its parent's coffer becomes a
   sub-coffer, mapped into the creating process: past the 15 MPK regions
   the creation must evict an idle coffer instead of failing. *)
let test_many_sub_coffers_no_emfile () =
  let w = make_world () in
  in_proc w (fun fs ->
      for i = 1 to 20 do
        let mode = if i mod 2 = 0 then 0o700 else 0o750 in
        ok_or_fail (V.mkdir fs (Printf.sprintf "/d%d" i) mode)
      done);
  Sim.run_thread (fun () ->
      let root = K.root_coffer w.kfs in
      for i = 1 to 20 do
        let cid = ok_or_fail (K.coffer_find w.kfs (Printf.sprintf "/d%d" i)) in
        Alcotest.(check bool) "own coffer" true (cid <> root)
      done)

(* A directory made after every MPK key is taken lives in a coffer mapped
   lazily; the second-level pages its files' inserts touched are present,
   so listing it makes no kernel entry to prefault them. *)
let test_listing_skips_inserted_pages () =
  let w = make_world ~pages:8192 () in
  in_proc w (fun fs ->
      for i = 0 to 15 do
        ok_or_fail (V.mkdir fs (Printf.sprintf "/q%02d" i) 0o700)
      done;
      for i = 0 to 31 do
        ok_or_fail (V.write_file fs (Printf.sprintf "/q15/f%02d" i) ~mode:0o600 "")
      done;
      let gate = K.gate w.kfs in
      let c0 = Treasury.Gate.syscall_count gate in
      Alcotest.(check int) "listed" 32
        (List.length (ok_or_fail (V.readdir fs "/q15")));
      Alcotest.(check int) "no kernel entry" 0
        (Treasury.Gate.syscall_count gate - c0))

(* Creating a file whose mode differs from its directory's maps a new
   coffer while the op is inside the parent's: under key pressure that map
   must evict some other coffer, never the parent the dentry goes into.
   One process makes 20 0o700 directories with a 0o644 file in each. *)
let test_sub_coffer_create_keeps_parent () =
  let w = make_world () in
  in_proc w (fun fs ->
      let failed = ref [] in
      for i = 1 to 20 do
        ok_or_fail (V.mkdir fs (Printf.sprintf "/p%d" i) 0o700)
      done;
      for i = 1 to 20 do
        let dir = Printf.sprintf "/p%d" i in
        match V.write_file fs (dir ^ "/f") ~mode:0o644 dir with
        | Ok () -> ()
        | Error e -> failed := Printf.sprintf "%s: %s" dir (E.to_string e) :: !failed
      done;
      Alcotest.(check (list string)) "no create fails" [] (List.rev !failed);
      for i = 1 to 20 do
        let dir = Printf.sprintf "/p%d" i in
        Alcotest.(check string) "read back" dir
          (ok_or_fail (V.read_file fs (dir ^ "/f")))
      done)

(* rmdir of a sub-coffer directory maps it before removing its dentry
   from the parent, and a rename across coffers walks to the destination
   before touching the source: under key pressure neither map may evict
   the parent the op goes back to. *)
let test_rmdir_rename_keep_parents () =
  let w = make_world () in
  in_proc w (fun fs ->
      for i = 1 to 20 do
        let dir = Printf.sprintf "/q%d" i in
        ok_or_fail (V.mkdir fs dir 0o700);
        ok_or_fail (V.mkdir fs (dir ^ "/s") 0o755);
        ok_or_fail (V.write_file fs (dir ^ "/f") ~mode:0o644 dir)
      done);
  in_proc w (fun fs ->
      let failed = ref [] in
      let note what = function
        | Ok () -> ()
        | Error e -> failed := Printf.sprintf "%s: %s" what (E.to_string e) :: !failed
      in
      for i = 1 to 20 do
        let dir = Printf.sprintf "/q%d" i in
        note ("rmdir " ^ dir) (V.rmdir fs (dir ^ "/s"))
      done;
      for i = 1 to 20 do
        let dir = Printf.sprintf "/q%d" i in
        note ("rename " ^ dir)
          (V.rename fs (dir ^ "/f") (Printf.sprintf "/q%d/m%d" (i mod 20 + 1) i))
      done;
      Alcotest.(check (list string)) "no op fails" [] (List.rev !failed);
      for i = 1 to 20 do
        Alcotest.(check string) "moved file reads back"
          (Printf.sprintf "/q%d" i)
          (ok_or_fail (V.read_file fs (Printf.sprintf "/q%d/m%d" (i mod 20 + 1) i)))
      done)

(* A key the process holds outside its ZoFS sessions (here a raw
   coffer_map) would make a map fail with EMFILE although the sessions
   hold only 14 keys: keys are counted in KernFS's table, so the map names
   a victim up front. *)
let test_unpredicted_emfile_evicts () =
  let w = make_world () in
  in_proc w (fun fs ->
      for i = 1 to 16 do
        ok_or_fail (V.mkdir fs (Printf.sprintf "/e%d" i) 0o700)
      done);
  in_proc w (fun fs ->
      for i = 1 to 14 do
        ignore (ok_or_fail (V.stat fs (Printf.sprintf "/e%d" i)))
      done;
      let cid = ok_or_fail (K.coffer_find w.kfs "/e16") in
      ignore (ok_or_fail (K.coffer_map w.kfs cid));
      Alcotest.(check int) "every key taken" 15
        (List.length (K.mapped_coffers w.kfs));
      ignore (ok_or_fail (V.stat fs "/e15"));
      Alcotest.(check int) "one mapping given up" 15
        (List.length (K.mapped_coffers w.kfs)))

(* A process of uid 1000 keeping one FSLib across runs: each call runs
   its argument in a thread of that process. *)
let process w =
  let proc = Sim.Proc.create ~uid:1000 ~gid:1000 () in
  let fs = ref None in
  fun f ->
    Sim.run_thread ~proc (fun () ->
        let v =
          match !fs with
          | Some v -> v
          | None ->
              let v = vfs w in
              fs := Some v;
              v
        in
        f v)

(* Another process's chmod of a coffer root, and its rmdir of a coffer
   directory, unmap those coffers from this process: its next ops remap
   them or see them gone, and its open handles keep working and keep
   counting.  Then, with 13 other coffers held open, /d is the only
   coffer a map can evict: its handle count must be back to 0. *)
let test_foreign_unmap_remaps () =
  let w = make_world () in
  let a = process w and b = process w in
  let fd = ref 0 in
  a (fun fs ->
        ok_or_fail (V.mkdir fs "/d" 0o755);
        ok_or_fail (V.write_file fs "/d/f" ~mode:0o755 "data-d");
        ok_or_fail (V.mkdir fs "/g" 0o700);
        for i = 1 to 14 do
          let dir = Printf.sprintf "/o%d" i in
          ok_or_fail (V.mkdir fs dir 0o700);
          ok_or_fail (V.write_file fs (dir ^ "/f") ~mode:0o700 dir)
        done;
        ignore (ok_or_fail (V.stat fs "/g"));
        fd := ok_or_fail (V.openf fs "/d/f" [ Ft.O_RDONLY ] 0));
  b (fun fs ->
      ok_or_fail (V.chmod fs "/d" 0o775);
      ok_or_fail (V.rmdir fs "/g"));
  a (fun fs ->
      Alcotest.(check string) "read" "data-d" (ok_or_fail (V.read_file fs "/d/f"));
      Alcotest.(check int) "stat" 6 (ok_or_fail (V.stat fs "/d/f")).Ft.st_size;
      let buf = Bytes.create 6 in
      Alcotest.(check int) "pread" 6 (ok_or_fail (V.pread fs !fd ~off:0 buf 0 6));
      Alcotest.(check string) "pread data" "data-d" (Bytes.to_string buf);
      expect_err E.ENOENT (V.stat fs "/g");
      ok_or_fail (V.close fs !fd);
      let d = ok_or_fail (K.coffer_find w.kfs "/d") in
      let _held =
        List.init 13 (fun i ->
            ok_or_fail
              (V.openf fs (Printf.sprintf "/o%d/f" (i + 1)) [ Ft.O_RDONLY ] 0))
      in
      Alcotest.(check bool) "/d mapped" true
        (List.mem_assoc d (K.mapped_coffers w.kfs));
      Alcotest.(check string) "a map past 15 keys" "/o14"
        (ok_or_fail (V.read_file fs "/o14/f"));
      Alcotest.(check bool) "/d evicted" false
        (List.mem_assoc d (K.mapped_coffers w.kfs)))

(* Keys are counted from KernFS's table: a coffer another process's chmod
   unmapped frees its key here, and the next map takes that key instead
   of evicting. *)
let test_foreign_unmap_frees_key () =
  let w = make_world () in
  let a = process w and b = process w in
  a (fun fs ->
      for i = 1 to 16 do
        ok_or_fail (V.mkdir fs (Printf.sprintf "/s%d" i) 0o700)
      done;
      for i = 1 to 15 do
        ignore (ok_or_fail (V.stat fs (Printf.sprintf "/s%d" i)))
      done;
      Alcotest.(check int) "every key taken" 15
        (List.length (K.mapped_coffers w.kfs)));
  b (fun fs -> ok_or_fail (V.chmod fs "/s15" 0o770));
  a (fun fs ->
      Alcotest.(check int) "one key freed" 14
        (List.length (K.mapped_coffers w.kfs));
      ignore (ok_or_fail (V.stat fs "/s16"));
      Alcotest.(check int) "the free key taken" 15
        (List.length (K.mapped_coffers w.kfs)))

(* A deleted coffer's cid goes to the next coffer made.  What the process
   cached for the old coffer must not answer for the new one: not its path
   (the old path, recreated as a plain file, reads back), and not its open
   handle count (with 12 other coffers held open, the new coffer is the
   only one a 16th map can evict). *)
let test_reused_cid () =
  let w = make_world () in
  in_proc w (fun fs ->
      ok_or_fail (V.mkdir fs "/d" 0o755);
      ok_or_fail (V.write_file fs "/d/f" ~mode:0o700 "own");
      ok_or_fail (V.write_file fs "/d/g" ~mode:0o755 "plain-g");
      for i = 1 to 13 do
        let dir = Printf.sprintf "/o%d" i in
        ok_or_fail (V.mkdir fs dir 0o700);
        ok_or_fail (V.write_file fs (dir ^ "/f") ~mode:0o700 dir)
      done;
      let old = ok_or_fail (K.coffer_find w.kfs "/d/f") in
      let stale = ok_or_fail (V.openf fs "/d/f" [ Ft.O_RDONLY ] 0) in
      ok_or_fail (V.unlink fs "/d/f");
      ok_or_fail (V.mkdir fs "/q" 0o700);
      Alcotest.(check int) "the cid is reused" old
        (ok_or_fail (K.coffer_find w.kfs "/q"));
      ok_or_fail (V.write_file fs "/d/f" ~mode:0o755 "plain-f");
      Alcotest.(check string) "the old path" "plain-f"
        (ok_or_fail (V.read_file fs "/d/f"));
      let _held =
        ok_or_fail (V.openf fs "/d/g" [ Ft.O_RDONLY ] 0)
        :: List.init 12 (fun i ->
               ok_or_fail
                 (V.openf fs (Printf.sprintf "/o%d/f" (i + 1)) [ Ft.O_RDONLY ] 0))
      in
      ignore (ok_or_fail (V.stat fs "/q"));
      Alcotest.(check int) "every key taken" 15
        (List.length (K.mapped_coffers w.kfs));
      Alcotest.(check string) "a map past 15 keys" "/o13"
        (ok_or_fail (V.read_file fs "/o13/f"));
      Alcotest.(check bool) "/q evicted" false
        (List.mem_assoc old (K.mapped_coffers w.kfs));
      ok_or_fail (V.close fs stale))

let qcheck_fs_matches_model =
  (* Model-based: random create/write/unlink sequences must match an
     in-memory model. *)
  QCheck.Test.make ~name:"zofs behaves like a map of paths to contents"
    ~count:30
    QCheck.(
      list_of_size (Gen.int_range 1 40)
        (triple (int_range 0 9) bool (string_of_size (Gen.int_range 0 100))))
    (fun ops ->
      let w = make_world () in
      in_proc ~uid:0 w (fun fs ->
          let model : (string, string) Hashtbl.t = Hashtbl.create 16 in
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
            ops;
          Hashtbl.fold
            (fun path data ok ->
              ok && V.read_file fs path = Ok data)
            model true
          && List.for_all
               (fun n ->
                 let path = Printf.sprintf "/file%d" n in
                 Hashtbl.mem model path || not (V.exists fs path))
               [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]))

(* ---- in-place overwrites ------------------------------------------------ *)

(* One [pwrite] on [fd], as the device saw it: how many fences it issued,
   the inode's intention word as each fence found it, and how many stores
   touched that word. *)
let commit_profile w fs fd ~off data =
  let ino = (ok_or_fail (V.fstat fs fd)).Ft.st_ino * Nvm.page_size in
  let intent = ino + Zofs.Layout.i_intent in
  let words = ref [] and stores = ref 0 in
  let sub =
    Nvm.Device.add_trace_subscriber w.dev (function
      | Nvm.Device.T_fence _ ->
          words := Nvm.Device.read_u64 w.dev intent :: !words
      | Nvm.Device.T_store { addr; len; _ } | Nvm.Device.T_nt_store { addr; len; _ }
        when addr < intent + 8 && intent < addr + len ->
          incr stores
      | _ -> ())
  in
  let f0 = Nvm.Device.stat_fences w.dev in
  ignore (ok_or_fail (V.pwrite fs fd ~off data));
  Nvm.Device.remove_trace_subscriber w.dev sub;
  (Nvm.Device.stat_fences w.dev - f0, List.rev !words, !stores)

let size_record n = (Zofs.Intent.tag_of Zofs.Intent.Size lsl 56) lor n

(* An overwrite inside the size over mapped blocks fences once — the
   lease release — and never touches the intention word: one cell, one
   across a block boundary, the whole file. *)
let test_in_place_one_fence () =
  let w = make_world () in
  in_proc w (fun fs ->
      ok_or_fail (V.write_file fs "/o" (String.make 9000 'a'));
      let fd = ok_or_fail (V.openf fs "/o" [ Ft.O_WRONLY ] 0) in
      List.iter
        (fun (off, len, c) ->
          let what = Printf.sprintf "pwrite off=%d len=%d" off len in
          let fences, words, stores =
            commit_profile w fs fd ~off (String.make len c)
          in
          Alcotest.(check int) (what ^ ": one fence") 1 fences;
          Alcotest.(check (list int)) (what ^ ": no intention at the fence") [ 0 ]
            words;
          Alcotest.(check int) (what ^ ": intention word untouched") 0 stores)
        [ (0, 512, 'b'); (4000, 200, 'c'); (0, 9000, 'd') ];
      ok_or_fail (V.close fs fd);
      Alcotest.(check string) "content" (String.make 9000 'd')
        (ok_or_fail (V.read_file fs "/o")))

(* A write over a hole inside the size, and one across EOF, still record a
   Size intention before their data and fence twice: once with the record
   pending, once at the lease release after clearing it. *)
let test_allocating_writes_record_size () =
  let w = make_world () in
  in_proc w (fun fs ->
      let fd = ok_or_fail (V.openf fs "/g" [ Ft.O_CREAT; Ft.O_RDWR ] 0o644) in
      ignore (ok_or_fail (V.pwrite fs fd ~off:(2 * 4096) "tail"));
      let size = (2 * 4096) + 4 in
      let records what ~off =
        let fences, words, stores =
          commit_profile w fs fd ~off (String.make 64 'h')
        in
        Alcotest.(check int) (what ^ ": two fences") 2 fences;
        Alcotest.(check (list int)) (what ^ ": Size record, then cleared")
          [ size_record size; 0 ] words;
        Alcotest.(check int) (what ^ ": record and clear") 2 stores
      in
      records "hole inside the size" ~off:100;
      records "across EOF" ~off:(size - 10);
      Alcotest.(check int) "the size moved" (size + 54)
        (ok_or_fail (V.fstat fs fd)).Ft.st_size;
      ok_or_fail (V.close fs fd))

(* A holder killed anywhere in an in-place overwrite leaves nothing to
   repair.  Kills sweep the write, one scheduling point later each time,
   until one no longer lands; after each, the next writer steals the lease
   if the victim died holding it.  No steal finds an intention
   (intent.repairs does not move), the size never changes, and every
   64-byte cell the dead write covered is all old or all new. *)
let test_kill_mid_in_place_overwrite () =
  obs_on ();
  let snap0 = Obs.Snapshot.take () in
  let size = 4 * 4096 and off = 2000 and len = 9000 in
  let world = Sim.create () in
  let proc = Sim.Proc.create ~uid:0 ~gid:0 () in
  let failures = ref [] in
  let fails m = failures := m :: !failures in
  let torn c =
    List.find_opt
      (fun cell ->
        let s = String.sub c (cell * 64) 64 in
        let fresh =
          String.mapi
            (fun i ch ->
              let at = (cell * 64) + i in
              if at >= off && at < off + len then 'N' else ch)
            s
        in
        s <> String.make 64 'O' && s <> fresh)
      (List.init (((off + len - 1) / 64) - (off / 64) + 1) (fun k -> (off / 64) + k))
  in
  let kills = ref 0 in
  Sim.spawn world ~proc ~name:"driver" (fun () ->
      let _, kfs =
        Workloads.Fslab.make_zofs ~root_mode:0o777 ~nbuckets:256 ~pages:1024
          ~perf:Nvm.Perf.optane ()
      in
      let fs = Treasury.Dispatcher.as_vfs (Workloads.Fslab.zofs_dispatcher kfs) in
      let fd = ok_or_fail (V.openf fs "/o" [ Ft.O_CREAT; Ft.O_RDWR ] 0o644) in
      let reset () =
        ignore (ok_or_fail (V.pwrite fs fd ~off:0 (String.make size 'O')))
      in
      reset ();
      let landed = ref true in
      while !landed && !kills < 400 && !failures = [] do
        landed :=
          kill_one_attempt world proc ~after:(1 + !kills) fails (fun () ->
              V.pwrite fs fd ~off (String.make len 'N'));
        if !landed then begin
          incr kills;
          (* steals the dead holder's lease if it died holding it *)
          let c = String.make 64 'D' in
          ignore (ok_or_fail (V.pwrite fs fd ~off:(size - 64) c));
          let got = ok_or_fail (V.read_file fs "/o") in
          if String.length got <> size then
            fails (Printf.sprintf "size %d after kill %d" (String.length got) !kills)
          else
            Option.iter
              (fun cell ->
                fails (Printf.sprintf "kill %d: cell at byte %d torn" !kills (cell * 64)))
              (torn got);
          reset ()
        end
      done;
      if !landed then fails "the kills never swept past the write");
  Sim.run world;
  (match !failures with [] -> () | m :: _ -> Alcotest.fail m);
  Alcotest.(check bool) "a dead holder's lease was stolen" true
    (counter_delta snap0 "lease.steals" >= 1);
  Alcotest.(check int) "the stealers repaired nothing" 0
    (counter_delta snap0 "intent.repairs")

let () =
  Alcotest.run "zofs"
    [
      ( "files",
        [
          Alcotest.test_case "write/read roundtrip" `Quick test_write_read_roundtrip;
          Alcotest.test_case "open missing" `Quick test_open_missing;
          Alcotest.test_case "O_EXCL" `Quick test_create_excl;
          Alcotest.test_case "sequential+random io" `Quick
            test_sequential_and_random_io;
          Alcotest.test_case "append mode" `Quick test_append_mode;
          Alcotest.test_case "lseek" `Quick test_lseek;
          Alcotest.test_case "indirect blocks" `Quick
            test_large_file_indirect_blocks;
          Alcotest.test_case "sparse holes" `Quick test_sparse_holes_read_zero;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "bulk truncate matches word-by-word walk" `Quick
            test_bulk_truncate_matches_reference;
          Alcotest.test_case "O_TRUNC" `Quick test_o_trunc;
          Alcotest.test_case "read-only fd" `Quick test_write_to_readonly_fd_rejected;
        ] );
      ( "overwrite",
        [
          Alcotest.test_case "one fence, no intention" `Quick
            test_in_place_one_fence;
          Alcotest.test_case "a hole or EOF crossing records Size" `Quick
            test_allocating_writes_record_size;
          Alcotest.test_case "a killed holder leaves nothing to repair" `Quick
            test_kill_mid_in_place_overwrite;
        ] );
      ( "directories",
        [
          Alcotest.test_case "mkdir tree + readdir" `Quick
            test_mkdir_tree_and_readdir;
          Alcotest.test_case "mkdir exists" `Quick test_mkdir_exists;
          Alcotest.test_case "enoent/enotdir" `Quick test_enoent_intermediate;
          Alcotest.test_case "unlink" `Quick test_unlink;
          Alcotest.test_case "rmdir" `Quick test_rmdir;
          Alcotest.test_case "large directory" `Slow test_many_files_in_one_dir;
          Alcotest.test_case "bulk scan matches slot-by-slot walk" `Quick
            test_bulk_scan_matches_reference;
          Alcotest.test_case "a media error falls back to two loads" `Quick
            test_bulk_scan_media_fallback;
          Alcotest.test_case "a lookup miss reads the inline lines below hwm" `Quick
            test_lookup_miss_lines;
          Alcotest.test_case "insert fills a hole below hwm first" `Quick
            test_insert_fills_hole_below_hwm;
        ] );
      ( "rename",
        [
          Alcotest.test_case "same dir" `Quick test_rename_same_dir;
          Alcotest.test_case "across dirs" `Quick
            test_rename_across_dirs_same_coffer;
          Alcotest.test_case "replaces destination" `Quick
            test_rename_replaces_destination;
        ] );
      ( "metadata",
        [
          Alcotest.test_case "stat fields" `Quick test_stat_fields;
          Alcotest.test_case "symlink follow" `Quick test_symlink_follow;
          Alcotest.test_case "symlink relative" `Quick test_symlink_relative;
          Alcotest.test_case "symlink loop" `Quick test_symlink_loop;
          Alcotest.test_case "symlink in the parent path" `Quick
            test_symlink_in_parent;
        ] );
      ( "coffers",
        [
          Alcotest.test_case "different perm → sub-coffer" `Quick
            test_different_perm_creates_sub_coffer;
          Alcotest.test_case "user isolation" `Quick
            test_cross_coffer_isolation_between_users;
          Alcotest.test_case "same perm shares coffer" `Quick
            test_same_perm_files_share_coffer;
          Alcotest.test_case "chmod same class" `Quick test_chmod_same_class_no_split;
          Alcotest.test_case "chmod splits" `Quick test_chmod_splits_coffer;
          Alcotest.test_case "chmod back merges" `Quick
            test_chmod_back_merges_into_parent_coffer;
          Alcotest.test_case "chmod foreign" `Quick test_chmod_other_user_rejected;
          Alcotest.test_case "one-coffer variant" `Quick
            test_one_coffer_variant_chmod_stays_local;
          Alcotest.test_case "group read-only" `Quick test_group_readonly_access;
        ] );
      ( "processes",
        [
          Alcotest.test_case "two processes share" `Quick
            test_two_processes_share_file;
          Alcotest.test_case "concurrent appends" `Quick
            test_concurrent_appends_interleave_safely;
          Alcotest.test_case "fd semantics" `Quick
            test_fd_semantics_through_dispatcher;
          Alcotest.test_case "cwd + relative paths" `Quick
            test_cwd_and_relative_paths;
          Alcotest.test_case "stolen allocator slot re-claimed" `Quick
            test_balloc_stolen_slot_reclaimed;
          Alcotest.test_case "64 allocators in one lease period" `Quick
            test_balloc_64_processes_one_lease_period;
          Alcotest.test_case "20 sub-coffers without EMFILE" `Quick
            test_many_sub_coffers_no_emfile;
          Alcotest.test_case "sub-coffer create keeps its parent mapped"
            `Quick test_sub_coffer_create_keeps_parent;
          Alcotest.test_case "rmdir and rename keep their parents mapped"
            `Quick test_rmdir_rename_keep_parents;
          Alcotest.test_case "an unpredicted EMFILE evicts" `Quick
            test_unpredicted_emfile_evicts;
          Alcotest.test_case "a foreign unmap remaps, handles kept" `Quick
            test_foreign_unmap_remaps;
          Alcotest.test_case "a foreign unmap frees a key" `Quick
            test_foreign_unmap_frees_key;
          Alcotest.test_case "a reused cid starts clean" `Quick test_reused_cid;
          Alcotest.test_case "dispatcher surface" `Quick
            test_dispatcher_surface;
          Alcotest.test_case "variants are per instance" `Quick
            test_variants_are_per_instance;
          Alcotest.test_case "a lost create race opens the winner" `Quick
            test_create_race_opens_winner;
          Alcotest.test_case "a listing skips inserted pages"
            `Quick test_listing_skips_inserted_pages;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest qcheck_fs_matches_model ]);
    ]
