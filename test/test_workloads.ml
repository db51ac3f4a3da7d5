(* Tests for the workload harness (runner, FxMark, Filebench) — including
   shape assertions that tie the paper's headline results to the test
   suite: if a calibration change breaks "who wins", these fail. *)

module Fx = Workloads.Fxmark
module Fb = Workloads.Filebench
module FL = Workloads.Fslab
module R = Workloads.Runner

let mops r = r.R.mops_per_sec

(* ---- runner ------------------------------------------------------------- *)

let test_runner_counts_ops () =
  let r =
    R.run ~nthreads:3 ~ops:10
      ~setup:(fun () -> ())
      ~worker:(fun () ~tid -> ignore tid; fun ~i -> ignore i; Sim.advance 100)
      ()
  in
  Alcotest.(check int) "total ops" 30 r.R.total_ops;
  Alcotest.(check int) "threads" 3 r.R.nthreads;
  (* 3 threads in parallel, 10 ops of 100ns each: elapsed = 1000ns *)
  Alcotest.(check int) "elapsed" 1000 r.R.elapsed_ns

let test_runner_deterministic () =
  let go () = Fx.drbl.Fx.run FL.Zofs ~nthreads:4 ~ops:20 in
  let a = go () and b = go () in
  Alcotest.(check int) "same simulated time" a.R.elapsed_ns b.R.elapsed_ns

let test_latency_helper () =
  let l =
    R.latency ~ops:10 ~setup:(fun () -> ()) ~op:(fun () ~i -> ignore i; Sim.advance 500) ()
  in
  Alcotest.(check (float 1.0)) "latency" 500.0 l

(* ---- fxmark workloads run on every system -------------------------------- *)

let test_all_fxmark_workloads_run () =
  List.iter
    (fun w ->
      List.iter
        (fun sys ->
          let r = w.Fx.run sys ~nthreads:2 ~ops:15 in
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s produces throughput" w.Fx.wname (FL.label sys))
            true (mops r > 0.0))
        [ FL.Zofs; FL.Pmfs; FL.Nova; FL.Ext4_dax ])
    Fx.all

let test_strata_runs_data_workloads () =
  List.iter
    (fun w ->
      let r = w.Fx.run FL.Strata ~nthreads:2 ~ops:15 in
      Alcotest.(check bool) (w.Fx.wname ^ " on strata") true (mops r > 0.0))
    [ Fx.drbl; Fx.dwal; Fx.dwol ]

(* ---- headline shapes ------------------------------------------------------ *)

let test_zofs_wins_dwal_single_thread () =
  let z = Fx.dwal.Fx.run FL.Zofs ~nthreads:1 ~ops:60 in
  let p = Fx.dwal.Fx.run FL.Pmfs ~nthreads:1 ~ops:60 in
  let n = Fx.dwal.Fx.run FL.Nova ~nthreads:1 ~ops:60 in
  Alcotest.(check bool)
    (Printf.sprintf "zofs %.3f > pmfs %.3f" (mops z) (mops p))
    true (mops z > mops p);
  Alcotest.(check bool)
    (Printf.sprintf "zofs %.3f > nova %.3f" (mops z) (mops n))
    true (mops z > mops n)

let test_pmfs_allocator_stops_scaling () =
  (* Figure 7(d): PMFS's global allocator flattens; 20 threads buy little
     over 8. *)
  let at n = mops (Fx.dwal.Fx.run FL.Pmfs ~nthreads:n ~ops:60) in
  let t8 = at 8 and t20 = at 20 in
  Alcotest.(check bool)
    (Printf.sprintf "8t %.3f vs 20t %.3f" t8 t20)
    true (t20 < t8 *. 1.3)

let test_nova_overtakes_zofs_on_mwcl () =
  (* Figure 7(g): ZoFS stops scaling (coffer_enlarge) and NOVA passes it. *)
  let z20 = mops (Fx.mwcl.Fx.run FL.Zofs ~nthreads:20 ~ops:80) in
  let n20 = mops (Fx.mwcl.Fx.run FL.Nova ~nthreads:20 ~ops:80) in
  let z1 = mops (Fx.mwcl.Fx.run FL.Zofs ~nthreads:1 ~ops:80) in
  let n1 = mops (Fx.mwcl.Fx.run FL.Nova ~nthreads:1 ~ops:80) in
  Alcotest.(check bool)
    (Printf.sprintf "1 thread: zofs %.3f >= nova %.3f" z1 n1)
    true (z1 > n1 *. 0.9);
  Alcotest.(check bool)
    (Printf.sprintf "20 threads: nova %.3f > zofs %.3f" n20 z20)
    true (n20 > z20)

let test_fig8_variant_ordering () =
  let run sys = mops (Fx.dwol.Fx.run sys ~nthreads:1 ~ops:60) in
  let zofs = run FL.Zofs in
  let sysempty = run FL.sysempty_variant in
  let kwrite = run FL.kwrite_variant in
  let pmfs = run FL.Pmfs in
  let pmfs_nc = run FL.Pmfs_nocache in
  let nova = run FL.Nova in
  let nova_ni = run FL.Nova_noindex in
  Alcotest.(check bool) "zofs > sysempty" true (zofs > sysempty);
  Alcotest.(check bool) "sysempty > kwrite" true (sysempty > kwrite);
  Alcotest.(check bool) "nocache > clwb pmfs" true (pmfs_nc > pmfs);
  Alcotest.(check bool) "noindex > nova" true (nova_ni > nova);
  Alcotest.(check bool) "zofs tops everything" true
    (List.for_all (fun v -> zofs > v) [ kwrite; pmfs; pmfs_nc; nova; nova_ni ])

let test_dwom_shared_file_does_not_scale () =
  (* per-file locks serialize a shared file (Figure 7(f)) *)
  let at n = mops (Fx.dwom.Fx.run FL.Zofs ~nthreads:n ~ops:60) in
  let t1 = at 1 and t12 = at 12 in
  Alcotest.(check bool)
    (Printf.sprintf "1t %.3f vs 12t %.3f" t1 t12)
    true (t12 < t1 *. 1.5)

(* ---- filebench ------------------------------------------------------------ *)

let test_filebench_personalities_run () =
  List.iter
    (fun p ->
      let r = p.Fb.run FL.Zofs ~nthreads:2 ~ops:10 in
      Alcotest.(check bool) (p.Fb.pname ^ " runs") true (mops r > 0.0))
    Fb.all

let test_zofs_wins_fileserver () =
  let z = mops (Fb.fileserver.Fb.run FL.Zofs ~nthreads:1 ~ops:25) in
  let n = mops (Fb.fileserver.Fb.run FL.Nova ~nthreads:1 ~ops:25) in
  Alcotest.(check bool) (Printf.sprintf "zofs %.4f > nova %.4f" z n) true (z > n)

let test_deep_paths_slow_zofs () =
  (* Figures 9(c)/(d): ZoFS's backwards path parsing makes small dir-width
     (deep trees) slower than the flat huge directory. *)
  let flat = mops (Fb.webproxy.Fb.run FL.Zofs ~nthreads:2 ~ops:20) in
  let deep = mops (Fb.webproxy.Fb.run ~dir_width:3 FL.Zofs ~nthreads:2 ~ops:20) in
  Alcotest.(check bool)
    (Printf.sprintf "flat %.4f > deep %.4f" flat deep)
    true (flat > deep)

let test_file_tree_builder () =
  let paths = Fb.file_paths ~nfiles:50 ~dir_width:1_000_000 in
  Alcotest.(check int) "flat count" 50 (List.length paths);
  Alcotest.(check bool) "flat single dir" true
    (List.for_all (fun p -> Treasury.Pathx.dirname p = "/bigdir") paths);
  let nested = Fb.file_paths ~nfiles:50 ~dir_width:4 in
  Alcotest.(check int) "nested count" 50 (List.length nested);
  Alcotest.(check bool) "nested has depth" true
    (List.exists (fun p -> List.length (Treasury.Pathx.components p) > 3) nested)

(* ---- fslab -------------------------------------------------------------- *)

(* Every system [FL.make] builds answers to its own label and is wired to
   the device its instance reports: a write/read round trip goes through,
   and the write shows in that device's write count. *)
let test_fslab_systems_own_their_device () =
  List.iter
    (fun (sys, name) ->
      Sim.run_thread ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ()) (fun () ->
          let i = FL.make ~pages:8192 ~perf:Nvm.Perf.free sys in
          let module V = Treasury.Vfs in
          let label = FL.label sys in
          Alcotest.(check string) (label ^ " name") name (V.name i.FL.fs);
          let w0 = Nvm.Device.stat_writes i.FL.device in
          (match V.write_file i.FL.fs "/f" "round trip" with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s write: %s" label (Treasury.Errno.to_string e));
          Alcotest.(check (result string reject))
            (label ^ " read back") (Ok "round trip")
            (V.read_file i.FL.fs "/f");
          Alcotest.(check bool)
            (label ^ " write reached its device") true
            (Nvm.Device.stat_writes i.FL.device > w0)))
    [
      (FL.Zofs, "zofs-fslibs");
      (FL.one_coffer_variant, "zofs-fslibs");
      (FL.sysempty_variant, "zofs-fslibs");
      (FL.kwrite_variant, "zofs-fslibs");
      (FL.Ext4_dax, "ext4-dax");
      (FL.Pmfs, "pmfs");
      (FL.Pmfs_nocache, "pmfs-nocache");
      (FL.Nova, "nova");
      (FL.Nova_noindex, "nova-noindex");
      (FL.Novai, "novai");
      (FL.Novai_noindex, "novai-noindex");
      (FL.Strata, "strata");
    ]

let () =
  Alcotest.run "workloads"
    [
      ( "fslab",
        [
          Alcotest.test_case "every system on its own device" `Quick
            test_fslab_systems_own_their_device;
        ] );
      ( "runner",
        [
          Alcotest.test_case "counts ops" `Quick test_runner_counts_ops;
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "latency helper" `Quick test_latency_helper;
        ] );
      ( "fxmark",
        [
          Alcotest.test_case "all workloads x all systems" `Slow
            test_all_fxmark_workloads_run;
          Alcotest.test_case "strata data workloads" `Quick
            test_strata_runs_data_workloads;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "zofs wins DWAL" `Quick test_zofs_wins_dwal_single_thread;
          Alcotest.test_case "pmfs allocator flattens" `Slow
            test_pmfs_allocator_stops_scaling;
          Alcotest.test_case "nova overtakes on MWCL" `Slow
            test_nova_overtakes_zofs_on_mwcl;
          Alcotest.test_case "fig8 variant ordering" `Slow test_fig8_variant_ordering;
          Alcotest.test_case "DWOM does not scale" `Slow
            test_dwom_shared_file_does_not_scale;
        ] );
      ( "filebench",
        [
          Alcotest.test_case "personalities run" `Slow test_filebench_personalities_run;
          Alcotest.test_case "zofs wins fileserver" `Slow test_zofs_wins_fileserver;
          Alcotest.test_case "deep paths slower" `Slow test_deep_paths_slow_zofs;
          Alcotest.test_case "tree builder" `Quick test_file_tree_builder;
        ] );
    ]
