(* Tests for the baseline file systems (Ext4-DAX, PMFS, NOVA, Strata):
   functional correctness behind the shared Vfs interface, parity with each
   other, and the Strata-specific log/digest/lease behaviour. *)

module V = Treasury.Vfs
module Ft = Treasury.Fs_types
module E = Treasury.Errno
module FL = Workloads.Fslab

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error %s" (E.to_string e)

let expect_err expected = function
  | Ok _ -> Alcotest.failf "expected error %s" (E.to_string expected)
  | Error e ->
      Alcotest.(check string) "errno" (E.to_string expected) (E.to_string e)

let free = Nvm.Perf.free
let optane = Nvm.Perf.optane

(* A fresh instance of baseline [sys], built the way every benchmark
   builds it. *)
let make ?(perf = free) pages sys = (FL.make ~pages ~perf sys).FL.fs

let all_fses () = List.map (make 8192) [ FL.Ext4_dax; FL.Pmfs; FL.Nova; FL.Strata ]

let for_each_fs f =
  List.iter
    (fun fs ->
      Sim.run_thread ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ()) (fun () ->
          f (V.name fs) fs))
    (all_fses ())

let test_roundtrip_all () =
  for_each_fs (fun label fs ->
      ok_or_fail (V.write_file fs "/f" "hello");
      Alcotest.(check string) (label ^ " roundtrip") "hello"
        (ok_or_fail (V.read_file fs "/f")))

let test_append_all () =
  for_each_fs (fun label fs ->
      ok_or_fail (V.append_file fs "/log" "aa");
      ok_or_fail (V.append_file fs "/log" "bb");
      Alcotest.(check string) (label ^ " append") "aabb"
        (ok_or_fail (V.read_file fs "/log")))

let test_mkdir_readdir_all () =
  for_each_fs (fun label fs ->
      ok_or_fail (V.mkdir fs "/d" 0o755);
      ok_or_fail (V.write_file fs "/d/x" "1");
      ok_or_fail (V.write_file fs "/d/y" "2");
      let names =
        ok_or_fail (V.readdir fs "/d")
        |> List.map (fun d -> d.Ft.d_name)
        |> List.sort compare
      in
      Alcotest.(check (list string)) (label ^ " readdir") [ "x"; "y" ] names)

let test_unlink_all () =
  for_each_fs (fun label fs ->
      ok_or_fail (V.write_file fs "/dead" "x");
      ok_or_fail (V.unlink fs "/dead");
      ignore label;
      expect_err E.ENOENT (V.stat fs "/dead"))

let test_overwrite_all () =
  for_each_fs (fun label fs ->
      ok_or_fail (V.write_file fs "/o" (String.make 8192 'a'));
      let fd = ok_or_fail (V.openf fs "/o" [ Ft.O_WRONLY ] 0) in
      ignore (ok_or_fail (V.pwrite fs fd ~off:4096 (String.make 4096 'b')));
      ok_or_fail (V.close fs fd);
      let s = ok_or_fail (V.read_file fs "/o") in
      Alcotest.(check string)
        (label ^ " overwrite")
        (String.make 4096 'a' ^ String.make 4096 'b')
        s)

let test_large_file_all () =
  (* exceeds the 12 direct blocks: exercises indirect mapping *)
  for_each_fs (fun label fs ->
      let data = String.init (64 * 1024) (fun i -> Char.chr (i mod 256)) in
      ok_or_fail (V.write_file fs "/big" data);
      Alcotest.(check bool) (label ^ " big file") true
        (ok_or_fail (V.read_file fs "/big") = data))

let test_rename_all () =
  for_each_fs (fun label fs ->
      ok_or_fail (V.write_file fs "/a" "data");
      ok_or_fail (V.rename fs "/a" "/b");
      Alcotest.(check string) (label ^ " rename") "data"
        (ok_or_fail (V.read_file fs "/b"));
      expect_err E.ENOENT (V.stat fs "/a"))

let test_permission_enforcement_engine () =
  (* kernel FSes check per-file permissions on open *)
  let fs = make 4096 FL.Pmfs in
  Sim.run_thread ~proc:(Sim.Proc.create ~uid:100 ~gid:100 ()) (fun () ->
      ok_or_fail (V.write_file fs "/p" ~mode:0o600 "secret"));
  Sim.run_thread ~proc:(Sim.Proc.create ~uid:200 ~gid:200 ()) (fun () ->
      expect_err E.EACCES (V.openf fs "/p" [ Ft.O_RDONLY ] 0))

let test_symlink_engine () =
  let fs = make 4096 FL.Nova in
  Sim.run_thread (fun () ->
      ok_or_fail (V.mkdir fs "/real" 0o755);
      ok_or_fail (V.write_file fs "/real/f" "via link");
      ok_or_fail (V.symlink fs ~target:"/real" ~link:"/ln");
      Alcotest.(check string) "symlink" "via link"
        (ok_or_fail (V.read_file fs "/ln/f")))

let test_truncate_engine () =
  let fs = make 4096 FL.Ext4_dax in
  Sim.run_thread (fun () ->
      ok_or_fail (V.write_file fs "/t" (String.make 10000 'z'));
      ok_or_fail (V.truncate fs "/t" 5);
      Alcotest.(check string) "truncated" "zzzzz" (ok_or_fail (V.read_file fs "/t")))

(* ---- cost-structure sanity: the knobs that differentiate the baselines *)

let measure f = Sim.run_thread (fun () -> let t0 = Sim.now () in f (); Sim.now () - t0)

let test_kernel_fs_pays_syscalls () =
  let fs = make ~perf:optane 4096 FL.Pmfs in
  let t =
    measure (fun () ->
        ignore (V.stat fs "/") )
  in
  Alcotest.(check bool) "stat costs at least a syscall" true
    (t >= Treasury.Gate.enter_cost + Treasury.Gate.exit_cost)

let test_pmfs_clwb_slower_than_nocache () =
  (* Figure 8: default PMFS (store+clwb) is much slower than PMFS-nocache
     (non-temporal stores) for 4 KB overwrites. *)
  let run nocache =
    let fs =
      make ~perf:optane 4096 (if nocache then FL.Pmfs_nocache else FL.Pmfs)
    in
    measure (fun () ->
        ok_or_fail (V.write_file fs "/w" (String.make 4096 'x'));
        let fd = ok_or_fail (V.openf fs "/w" [ Ft.O_WRONLY ] 0) in
        for _ = 1 to 20 do
          ignore (ok_or_fail (V.pwrite fs fd ~off:0 (String.make 4096 'y')))
        done;
        ok_or_fail (V.close fs fd))
  in
  let default = run false and nocache = run true in
  Alcotest.(check bool)
    (Printf.sprintf "clwb (%d) slower than nt (%d)" default nocache)
    true
    (default > nocache)

let test_nova_cow_slower_than_pmfs_inplace () =
  (* NOVA's copy-on-write + index update loses to PMFS's in-place writes on
     4 KB overwrites (Table 7 reasoning). *)
  let overwrites fs =
    measure (fun () ->
        ok_or_fail (V.write_file fs "/w" (String.make 4096 'x'));
        let fd = ok_or_fail (V.openf fs "/w" [ Ft.O_WRONLY ] 0) in
        for _ = 1 to 20 do
          ignore (ok_or_fail (V.pwrite fs fd ~off:0 (String.make 4096 'y')))
        done;
        ok_or_fail (V.close fs fd))
  in
  let nova = overwrites (make ~perf:optane 8192 FL.Nova) in
  let pmfs = overwrites (make ~perf:optane 8192 FL.Pmfs_nocache) in
  Alcotest.(check bool)
    (Printf.sprintf "nova (%d) slower than pmfs-nocache (%d)" nova pmfs)
    true (nova > pmfs)

(* ---- Strata specifics -------------------------------------------------- *)

let test_strata_fast_append_no_syscall () =
  (* A Strata append must be cheaper than a PMFS append (no kernel
     crossing). *)
  let append_time fs =
    measure (fun () ->
        ok_or_fail (V.write_file fs "/f" "");
        for _ = 1 to 10 do
          ok_or_fail (V.append_file fs "/f" (String.make 4096 'x'))
        done)
  in
  let strata = append_time (make ~perf:optane 8192 FL.Strata) in
  let ext4 = append_time (make ~perf:optane 8192 FL.Ext4_dax) in
  Alcotest.(check bool)
    (Printf.sprintf "strata (%d) beats ext4 (%d)" strata ext4)
    true (strata < ext4)

let test_strata_read_sees_pending_writes () =
  let t = Baselines.Strata.create ~pages:8192 ~perf:free () in
  let fs = V.Fs ((module Baselines.Strata), t) in
  Sim.run_thread (fun () ->
      (* data written but not yet digested must be readable *)
      ok_or_fail (V.write_file fs "/pend" "undigested data");
      Alcotest.(check int) "no digest yet" 0 (Baselines.Strata.digest_count t);
      Alcotest.(check string) "overlay read" "undigested data"
        (ok_or_fail (V.read_file fs "/pend")))

let test_strata_sharing_forces_digest () =
  (* Table 2: when a second process touches the same file, the holder's log
     must be digested (lease revocation), making the op far slower. *)
  let fs = make ~perf:optane 16384 FL.Strata in
  let p1 = Sim.Proc.create ~uid:0 ~gid:0 () in
  let p2 = Sim.Proc.create ~uid:0 ~gid:0 () in
  let world = Sim.create () in
  let p1_solo = ref 0 and p2_shared = ref 0 in
  Sim.spawn world ~proc:p1 ~name:"p1" (fun () ->
      ok_or_fail (V.write_file fs "/shared" "");
      let t0 = Sim.now () in
      ok_or_fail (V.append_file fs "/shared" (String.make 4096 'x'));
      p1_solo := Sim.now () - t0);
  Sim.spawn world ~proc:p2 ~at:10_000_000 ~name:"p2" (fun () ->
      let t0 = Sim.now () in
      ok_or_fail (V.append_file fs "/shared" (String.make 4096 'y'));
      p2_shared := Sim.now () - t0);
  Sim.run world;
  Alcotest.(check bool)
    (Printf.sprintf "shared append (%d) ≫ solo append (%d)" !p2_shared !p1_solo)
    true
    (!p2_shared > 3 * !p1_solo)

let test_strata_crossing_preserves_data () =
  (* After the lease ping-pong, both processes' appends are present. *)
  let fs = make 16384 FL.Strata in
  let p1 = Sim.Proc.create ~uid:0 ~gid:0 () in
  let p2 = Sim.Proc.create ~uid:0 ~gid:0 () in
  let world = Sim.create () in
  Sim.spawn world ~proc:p1 ~name:"p1" (fun () ->
      ok_or_fail (V.write_file fs "/both" "");
      ok_or_fail (V.append_file fs "/both" "AAAA"));
  Sim.spawn world ~proc:p2 ~at:1_000_000 ~name:"p2" (fun () ->
      ok_or_fail (V.append_file fs "/both" "BBBB"));
  Sim.run world;
  Sim.run_thread ~proc:p1 (fun () ->
      Alcotest.(check string) "both appends visible" "AAAABBBB"
        (ok_or_fail (V.read_file fs "/both")))

(* The per-process logs live in the top 1,024 pages, which the shared area
   must never allocate.  On 2,048 pages the Engine's per-thread pools 2 and
   3 would reach into them: a thread with tid 2 digests /a's 64 KB, then
   logs enough to overwrite whatever the shared area put there, and /a must
   still read back intact. *)
let test_strata_log_area_not_allocated () =
  let t = Baselines.Strata.create ~pages:2048 ~perf:free () in
  let fs = V.Fs ((module Baselines.Strata), t) in
  let a = String.init 65536 (fun i -> Char.chr (65 + (i mod 26))) in
  let result = ref None in
  let world = Sim.create () in
  let rec spawn_until_tid_2 () =
    let tid =
      Sim.spawn_tid world ~name:"writer" (fun () ->
          if Sim.self_tid () = 2 then begin
            ok_or_fail (V.write_file fs "/a" a);
            ok_or_fail (V.write_file fs "/b" "");
            ok_or_fail (V.append_file fs "/b" (String.make 1_200_000 'b'));
            ok_or_fail (V.write_file fs "/c" "");
            ok_or_fail (V.append_file fs "/c" (String.make 400_000 'c'));
            result := Some (V.read_file fs "/a")
          end)
    in
    if tid < 2 then spawn_until_tid_2 ()
  in
  spawn_until_tid_2 ();
  Sim.run world;
  match !result with
  | None -> Alcotest.fail "no thread with tid 2 ran"
  | Some r ->
      Alcotest.(check bool) "digests happened" true
        (Baselines.Strata.digest_count t > 0);
      Alcotest.(check bool) "/a reads back intact" true (ok_or_fail r = a)

let () =
  Alcotest.run "baselines"
    [
      ( "functional-parity",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip_all;
          Alcotest.test_case "append" `Quick test_append_all;
          Alcotest.test_case "mkdir/readdir" `Quick test_mkdir_readdir_all;
          Alcotest.test_case "unlink" `Quick test_unlink_all;
          Alcotest.test_case "overwrite" `Quick test_overwrite_all;
          Alcotest.test_case "large file" `Quick test_large_file_all;
          Alcotest.test_case "rename" `Quick test_rename_all;
        ] );
      ( "engine-features",
        [
          Alcotest.test_case "permissions" `Quick test_permission_enforcement_engine;
          Alcotest.test_case "symlink" `Quick test_symlink_engine;
          Alcotest.test_case "truncate" `Quick test_truncate_engine;
        ] );
      ( "cost-structure",
        [
          Alcotest.test_case "syscall charged" `Quick test_kernel_fs_pays_syscalls;
          Alcotest.test_case "pmfs clwb vs nocache" `Quick
            test_pmfs_clwb_slower_than_nocache;
          Alcotest.test_case "nova cow vs pmfs" `Quick
            test_nova_cow_slower_than_pmfs_inplace;
        ] );
      ( "strata",
        [
          Alcotest.test_case "fast append" `Quick test_strata_fast_append_no_syscall;
          Alcotest.test_case "overlay reads" `Quick test_strata_read_sees_pending_writes;
          Alcotest.test_case "sharing forces digest" `Quick
            test_strata_sharing_forces_digest;
          Alcotest.test_case "crossing preserves data" `Quick
            test_strata_crossing_preserves_data;
          Alcotest.test_case "log area never allocated" `Quick
            test_strata_log_area_not_allocated;
        ] );
    ]
