(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6) on the simulated NVM substrate, plus the ablations listed
   in DESIGN.md §5 and a Bechamel suite measuring real host time of each
   experiment's kernel operation.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- table2 fig7 --quick

   All paper numbers are simulated time (deterministic); Bechamel numbers
   are host wall-clock. *)

module V = Treasury.Vfs
module Ft = Treasury.Fs_types
module FL = Workloads.Fslab
module Fx = Workloads.Fxmark
module Fb = Workloads.Filebench
module D = Nvm.Device

let ok = Workloads.Runner.ok

(* scale knobs (reduced by --quick) *)
let thread_counts = ref [ 1; 2; 4; 8; 12; 16; 20 ]

(* tenant-process counts for the shared-file/dir experiments (Table 2).
   The paper stops at 2 processes; we scale the same experiment to 64
   tenants, each a full Sim.Proc with its own FSLib, to exercise the
   cross-process lease-handoff path at fleet size. *)
let shared_proc_counts = ref [ 1; 2; 16; 64 ]
let fx_ops = ref 150
let fb_ops = ref 60
let kv_ops = ref 300
let tpcc_txns = ref 120
let lat_ops = ref 200

let root_proc () = Sim.Proc.create ~uid:0 ~gid:0 ()

(* ==== Table 1: DRAM and Optane DC PM latency and bandwidth ============== *)

let measure_device perf =
  let dev = D.create ~perf ~size:(16384 * Nvm.page_size) () in
  Sim.run_thread (fun () ->
      (* read latency: cold scalar loads *)
      let t0 = Sim.now () in
      for i = 0 to 999 do
        ignore (D.read_u64 dev (i * 4096))
      done;
      let read_lat = (Sim.now () - t0) / 1000 in
      (* read bandwidth: stream 16 MB *)
      let t0 = Sim.now () in
      for i = 0 to 15 do
        ignore (D.read_bytes dev (i * 1048576) 1048576)
      done;
      let read_bw = 16.0 /. (float_of_int (Sim.now () - t0) /. 1e9) /. 1024.0 in
      (* write latency: ntstore + fence *)
      let t0 = Sim.now () in
      for i = 0 to 999 do
        D.nt_write_u64 dev (i * 4096) i;
        D.sfence dev
      done;
      let write_lat = (Sim.now () - t0) / 1000 in
      (* write bandwidth: stream 16 MB of non-temporal stores *)
      let chunk = String.make 1048576 'w' in
      let t0 = Sim.now () in
      for i = 0 to 15 do
        D.nt_write_string dev (i * 1048576) chunk
      done;
      D.sfence dev;
      let write_bw = 16.0 /. (float_of_int (Sim.now () - t0) /. 1e9) /. 1024.0 in
      (read_lat, read_bw, write_lat, write_bw))

let table1 () =
  Report.section "Table 1: DRAM and Optane DC PM latency and bandwidth";
  let rows =
    List.map
      (fun (label, perf) ->
        let rl, rb, wl, wb = measure_device perf in
        [
          label;
          Printf.sprintf "read: %.0f GB/s / %d ns" rb rl;
          Printf.sprintf "write: %.0f GB/s / %d ns" wb wl;
        ])
      [ ("DRAM", Nvm.Perf.dram); ("Optane DC PM", Nvm.Perf.optane) ]
  in
  Report.table
    ~title:
      "(paper: DRAM 115/79 GB/s, 81/86 ns; Optane 39/14 GB/s, 305/94 ns)"
    [ "Memory"; "Read (bw/lat)"; "Write (bw/lat)" ]
    rows

(* ==== Table 2: shared append/create latency ============================= *)

type shared_sys = {
  ss_label : string;
  (* builds shared state once, returns a per-process fs factory *)
  ss_make : unit -> (unit -> V.fs);
}

let shared_systems () =
  (* Strata and NOVA: one instance serves every process *)
  let single sys =
    {
      ss_label = FL.label sys;
      ss_make =
        (fun () ->
          let fs = (FL.make ~pages:65536 sys).FL.fs in
          fun () -> fs);
    }
  in
  [
    single FL.Strata;
    single FL.Nova;
    {
      ss_label = "ZoFS";
      ss_make =
        (fun () ->
          let _dev, kfs = FL.make_zofs ~pages:65536 ~perf:Nvm.Perf.optane () in
          fun () -> FL.zofs_fslib kfs);
    };
  ]

let run_shared sys ~nprocs ~op =
  let world = Sim.create () in
  let procs = Array.init nprocs (fun _ -> root_proc ()) in
  let stats = Sim.Stats.create () in
  let ops = !lat_ops in
  Sim.spawn world ~proc:procs.(0) ~name:"setup" (fun () ->
      let factory = sys.ss_make () in
      let fs0 = factory () in
      ok (V.mkdir fs0 "/sdir" 0o755);
      ok (V.write_file fs0 "/sfile" ~mode:0o644 "");
      for p = 0 to nprocs - 1 do
        Sim.spawn world ~proc:procs.(p) ~name:(Printf.sprintf "p%d" p)
          (fun () ->
            (* per-tenant obs label, keyed by index (pids are a global
               counter — not stable across runs) so zofs_top/zofs_stat
               attribute latency per tenant under --obs *)
            Obs.set_tenant p;
            let fs = if p = 0 then fs0 else factory () in
            let run_op = op fs p in
            for i = 0 to ops - 1 do
              let t0 = Sim.now () in
              run_op i;
              Sim.Stats.add stats (float_of_int (Sim.now () - t0));
              (* think time so processes interleave (worst-case sharing) *)
              Sim.advance 500
            done)
      done);
  Sim.run world;
  Sim.Stats.mean stats

let append_op fs _p =
  let block = String.make 4096 'a' in
  let fd = ref None in
  fun _i ->
    let f =
      match !fd with
      | Some f -> f
      | None ->
          let f = ok (V.openf fs "/sfile" [ Ft.O_WRONLY; Ft.O_APPEND ] 0) in
          fd := Some f;
          f
    in
    ignore (ok (V.write fs f block))

let create_op fs p =
 fun i ->
  let path = Printf.sprintf "/sdir/p%d_f%d" p i in
  let fd = ok (V.openf fs path [ Ft.O_CREAT; Ft.O_WRONLY ] 0o644) in
  ok (V.close fs fd)

let table2 () =
  Report.section
    "Table 2: latency (ns) of ops on a file/dir shared by processes";
  let systems = shared_systems () in
  let rows =
    List.concat_map
      (fun (opname, op) ->
        List.map
          (fun nprocs ->
            let cells =
              List.map
                (fun sys ->
                  Report.commas (int_of_float (run_shared sys ~nprocs ~op)))
                systems
            in
            (opname ^ " " ^ string_of_int nprocs) :: cells)
          !shared_proc_counts)
      [ ("append", append_op); ("create", create_op) ]
  in
  Report.table
    ~title:
      "(paper, which stops at 2 processes: append 1p: Strata 1,653 / NOVA \
       2,172 / ZoFS 1,147; 2p: 34,551 / 3,882 / 1,703;\n\
      \ create 1p: 4,195 / 3,534 / 2,494; 2p: 283,972 / 6,167 / 3,459; \
       16p/64p rows are our fleet-scale extension)"
    ([ "Operation #p" ] @ List.map (fun s -> s.ss_label) systems)
    rows

(* ==== Table 3: file permissions in databases and web servers ============ *)

let table3 () =
  Report.section "Table 3: file permissions in databases and web servers";
  let _dev, kfs = FL.make_zofs ~root_mode:0o777 ~pages:131072 ~perf:Nvm.Perf.free () in
  let rows = ref [] in
  let survey_one ~system ~uid populate root =
    let proc = Sim.Proc.create ~uid ~gid:uid () in
    Sim.run_thread ~proc (fun () ->
        (* FSLibs is per process: build one for this user *)
        let fs = FL.zofs_fslib kfs in
        (match populate fs root with
        | Ok () -> ()
        | Error e -> failwith (Treasury.Errno.to_string e));
        List.iter
          (fun r ->
            rows :=
              [
                system;
                Ft.kind_to_string r.Survey.Appdirs.r_kind;
                Printf.sprintf "%o" r.Survey.Appdirs.r_perm;
                Printf.sprintf "%d/%d" r.Survey.Appdirs.r_uid
                  r.Survey.Appdirs.r_gid;
                Report.commas r.Survey.Appdirs.r_count;
                Report.bytes_human r.Survey.Appdirs.r_bytes;
              ]
              :: !rows)
          (Survey.Appdirs.scan fs ~system root))
  in
  survey_one ~system:"MySQL" ~uid:970 Survey.Appdirs.populate_mysql "/mysql";
  survey_one ~system:"PostgreSQL" ~uid:969 Survey.Appdirs.populate_postgres "/pg";
  survey_one ~system:"DokuWiki" ~uid:33
    (fun fs root -> Survey.Appdirs.populate_dokuwiki ~scale:10 fs root)
    "/wiki";
  Report.table
    ~title:
      "(DokuWiki generated at 1/10 scale; sizes are synthetic — see DESIGN.md)"
    [ "System"; "Type"; "Perm."; "Uid/Gid"; "# Files"; "Size" ]
    (List.rev !rows)

(* ==== Table 4: FSL Homes snapshot + grouping ============================= *)

let table4 () =
  Report.section
    "Table 4: file statistics in the (synthetic) FSL Homes snapshot";
  let files = Survey.Fsl.generate () in
  let m = Survey.Fsl.marginals files in
  let perms = [ 0o644; 0o600; 0o666; 0o444; 0o660; 0o640; 0o664; 0o440 ] in
  let count kind perm =
    Option.value ~default:0 (Hashtbl.find_opt m (kind, perm))
  in
  let kind_row label kind =
    label
    :: Report.commas (Survey.Fsl.count_kind files kind)
    :: List.map (fun p -> Report.commas (count kind p)) perms
  in
  Report.table ~title:"(marginals match the paper's Table 4 exactly)"
    ([ "Type"; "# Files" ] @ List.map (Printf.sprintf "%o") perms)
    [
      kind_row "Regular" Survey.Fsl.Regular;
      kind_row "Symlink" Survey.Fsl.Symlink;
      kind_row "Directory" Survey.Fsl.Directory;
    ];
  let s = Survey.Grouping.analyze files in
  Printf.printf
    "\n\
     grouping: %s groups (paper: 4,449); largest group holds %s files = \
     %.1f%% (paper: ~1/3);\n\
     single-file groups: %s (paper: 3,795, covering 0.6%% of files);\n\
     largest group bytes: %s (paper: 52.0GB)\n"
    (Report.commas s.Survey.Grouping.n_groups)
    (Report.commas s.Survey.Grouping.largest_files)
    (100.0
    *. float_of_int s.Survey.Grouping.largest_files
    /. float_of_int (Array.length files))
    (Report.commas s.Survey.Grouping.single_file_groups)
    (Report.bytes_human s.Survey.Grouping.largest_bytes);
  let by_perm_rows =
    List.map
      (fun (p, n, mn, avg, mx) ->
        [
          Printf.sprintf "%o" p;
          Report.commas n;
          Report.bytes_human mn;
          Report.bytes_human avg;
          Report.bytes_human mx;
        ])
      s.Survey.Grouping.by_perm
  in
  Report.table ~title:"groups by permission class"
    [ "Perm"; "# Groups"; "Min size"; "Avg size"; "Max size" ]
    by_perm_rows

(* ==== Figure 7: FxMark ==================================================== *)

let fxmark_systems = [ FL.Zofs; FL.Pmfs; FL.Nova; FL.Ext4_dax ]

let series_table ~title ~row_label runs =
  Report.record_series ~title runs;
  let header = row_label :: List.map string_of_int !thread_counts in
  let rows =
    List.map
      (fun (label, points) ->
        label
        :: List.map
             (fun n ->
               match List.assoc_opt n points with
               | Some v -> Report.f3 v
               | None -> "-")
             !thread_counts)
      runs
  in
  Report.table ~title header rows

let fig7 ?only () =
  Report.section "Figure 7: FxMark throughput (Mops/s) vs threads";
  List.iter
    (fun w ->
      let skip =
        match only with
        | Some names -> not (List.mem w.Fx.wname names)
        | None -> false
      in
      if not skip then
        let runs =
          List.map
            (fun sys ->
              ( FL.label sys,
                List.map
                  (fun n ->
                    let r = w.Fx.run sys ~nthreads:n ~ops:!fx_ops in
                    (n, r.Workloads.Runner.mops_per_sec))
                  !thread_counts ))
            fxmark_systems
        in
        series_table
          ~title:(Printf.sprintf "%s (Figure %s)" w.Fx.wname w.Fx.figure)
          ~row_label:"FS \\ threads" runs)
    Fx.all

(* ==== Figure 8: DWOL throughput breakdown ================================= *)

let fig8 () =
  Report.section "Figure 8: throughput breakdown of DWOL (1 thread, Mops/s)";
  let systems =
    [
      FL.Zofs;
      FL.sysempty_variant;
      FL.kwrite_variant;
      FL.Nova_noindex;
      FL.Pmfs_nocache;
      FL.Novai_noindex;
      FL.Pmfs;
      FL.Nova;
      FL.Novai;
    ]
  in
  let rows =
    List.map
      (fun sys ->
        let r = Fx.dwol.Fx.run sys ~nthreads:1 ~ops:!fx_ops in
        [ FL.label sys; Report.f3 r.Workloads.Runner.mops_per_sec ])
      systems
  in
  Report.table
    ~title:
      "(paper groups: {ZoFS, ZoFS-sysempty} > {NOVA-noindex, PMFS-nocache,\n\
      \ ZoFS-kwrite, NOVAi-noindex} > {PMFS, NOVA, NOVAi})"
    [ "System"; "Mops/s" ] rows

(* ==== Figure 9 / Table 6: Filebench ======================================== *)

let fig9 ?only () =
  Report.section "Figure 9: Filebench throughput (kops/s) vs threads";
  List.iter
    (fun p ->
      let skip =
        match only with
        | Some names -> not (List.mem p.Fb.pname names)
        | None -> false
      in
      if not skip then begin
        let systems =
          if p.Fb.pname = "fileserver" || p.Fb.pname = "webserver" then
            fxmark_systems @ [ FL.Strata ]
          else fxmark_systems
        in
        let runs =
          List.map
            (fun sys ->
              ( FL.label sys,
                List.map
                  (fun n ->
                    let r = p.Fb.run sys ~nthreads:n ~ops:!fb_ops in
                    (n, r.Workloads.Runner.mops_per_sec *. 1000.0))
                  !thread_counts ))
            systems
        in
        let runs =
          if p.Fb.pname = "webproxy" || p.Fb.pname = "varmail" then
            runs
            @ [
                ( "ZoFS-20dirwidth",
                  List.map
                    (fun n ->
                      let r =
                        p.Fb.run ~dir_width:20 FL.Zofs ~nthreads:n ~ops:!fb_ops
                      in
                      (n, r.Workloads.Runner.mops_per_sec *. 1000.0))
                    !thread_counts );
              ]
          else runs
        in
        series_table
          ~title:
            (Printf.sprintf
               "%s (paper: %d files, dir-width %d, %s files; scaled — see \
                DESIGN.md)"
               p.Fb.pname p.Fb.nfiles p.Fb.dir_width
               (Report.bytes_human p.Fb.file_size))
          ~row_label:"FS \\ threads" runs
      end)
    Fb.all

(* ==== Figure 10: customized Filebench ====================================== *)

let fig10 () =
  Report.section "Figure 10: Filebench with customized configurations";
  let rows =
    List.map
      (fun sys ->
        let r = Fb.fileserver.Fb.run sys ~nthreads:1 ~ops:!fb_ops in
        [ FL.label sys; Report.f2 (r.Workloads.Runner.mops_per_sec *. 1000.0) ])
      (fxmark_systems @ [ FL.Strata ])
  in
  Report.table
    ~title:
      "(a) fileserver, 1 thread (kops/s; paper: ZoFS +30% over NOVA, +16% \
       over PMFS, +5% over Strata)"
    [ "System"; "kops/s" ] rows;
  let runs =
    List.map
      (fun sys ->
        ( FL.label sys,
          List.map
            (fun n ->
              let r =
                Fb.varmail.Fb.run ~dir_width:20 sys ~nthreads:n ~ops:!fb_ops
              in
              (n, r.Workloads.Runner.mops_per_sec *. 1000.0))
            !thread_counts ))
      fxmark_systems
  in
  series_table
    ~title:
      "(b) varmail with dir-width=20 (kops/s; paper: all scale, ZoFS up to \
       +13%/+46% over PMFS/NOVA)"
    ~row_label:"FS \\ threads" runs

(* ==== Table 7: LevelDB db_bench ============================================= *)

let table7 () =
  Report.section "Table 7: LevelDB (LSM store) db_bench latency (us)";
  let systems = [ FL.Ext4_dax; FL.Pmfs; FL.Nova; FL.Zofs ] in
  let rows =
    List.map
      (fun op ->
        Kvdb.Db_bench.op_name op
        :: List.map
             (fun sys ->
               let lat = ref 0.0 in
               Sim.run_thread ~proc:(root_proc ()) (fun () ->
                   let inst = FL.make ~pages:131072 sys in
                   lat := Kvdb.Db_bench.run inst.FL.fs ~n:!kv_ops op);
               Report.f3 !lat)
             systems)
      Kvdb.Db_bench.all_ops
  in
  Report.table
    ~title:
      "(paper shape: ZoFS lowest everywhere; PMFS second; NOVA loses to PMFS \
       from copy-on-write; Ext4-DAX slowest)"
    ([ "Latency/us" ] @ List.map FL.label systems)
    rows

(* ==== Figure 11 / Table 8: TPC-C ============================================= *)

let fig11 () =
  Report.section "Figure 11: TPC-C on the relational engine (txns/s)";
  let systems = [ FL.Ext4_dax; FL.Pmfs; FL.Nova; FL.Zofs ] in
  let workloads =
    [
      ("mixed", None);
      ("NEW", Some Litedb.Tpcc.NEW);
      ("OS", Some Litedb.Tpcc.OS);
      ("PAY", Some Litedb.Tpcc.PAY);
    ]
  in
  let rows =
    List.map
      (fun (wname, kind) ->
        wname
        :: List.map
             (fun sys ->
               let tps = ref 0.0 in
               Sim.run_thread ~proc:(root_proc ()) (fun () ->
                   let inst = FL.make ~pages:131072 sys in
                   let t =
                     match Litedb.Tpcc.create inst.FL.fs "/tpcc.db" with
                     | Ok t -> t
                     | Error e -> failwith (Treasury.Errno.to_string e)
                   in
                   tps := Litedb.Tpcc.run t ~n:!tpcc_txns ?kind ());
               Report.f2 !tps)
             systems)
      workloads
  in
  Report.table
    ~title:
      "(paper shape: ZoFS highest; mixed: ZoFS +9% over PMFS, +31% over NOVA; \
       OS > PAY > NEW)"
    ([ "Workload" ] @ List.map FL.label systems)
    rows

(* ==== Table 9: worst-case chmod / rename ===================================== *)

let table9 () =
  Report.section "Table 9: worst-case performance (ns/op)";
  let nfiles = 100 in
  let chmod_latency sys =
    let lat = ref 0.0 in
    Sim.run_thread ~proc:(root_proc ()) (fun () ->
        let inst = FL.make ~pages:131072 sys in
        let fs = inst.FL.fs in
        for i = 0 to nfiles - 1 do
          ok
            (V.write_file fs
               (Printf.sprintf "/f%d" i)
               ~mode:0o644 (String.make 32768 'x'))
        done;
        let t0 = Sim.now () in
        for i = 0 to nfiles - 1 do
          ok (V.chmod fs (Printf.sprintf "/f%d" i) 0o600)
        done;
        lat := float_of_int (Sim.now () - t0) /. float_of_int nfiles);
    !lat
  in
  let rename_latency sys =
    let lat = ref 0.0 in
    Sim.run_thread ~proc:(root_proc ()) (fun () ->
        let inst = FL.make ~pages:131072 sys in
        let fs = inst.FL.fs in
        ok (V.mkdir fs "/d1" 0o755);
        ok (V.mkdir fs "/d2" 0o700);
        for i = 0 to nfiles - 1 do
          ok
            (V.write_file fs
               (Printf.sprintf "/d1/f%d" i)
               ~mode:0o644 (String.make 32768 'x'));
          ok
            (V.write_file fs
               (Printf.sprintf "/d2/g%d" i)
               ~mode:0o600 (String.make 32768 'x'))
        done;
        let t0 = Sim.now () in
        for i = 0 to nfiles - 1 do
          ok
            (V.rename fs
               (Printf.sprintf "/d1/f%d" i)
               (Printf.sprintf "/d2/f%d" i))
        done;
        lat := float_of_int (Sim.now () - t0) /. float_of_int nfiles);
    !lat
  in
  let systems = [ FL.Nova; FL.Zofs; FL.one_coffer_variant ] in
  let rows =
    [
      "chmod"
      :: List.map (fun s -> Report.commas (int_of_float (chmod_latency s))) systems;
      "rename"
      :: List.map (fun s -> Report.commas (int_of_float (rename_latency s))) systems;
    ]
  in
  Report.table
    ~title:
      "(paper: chmod 1,830 / 23,342 / 675; rename 6,261 / 28,264 / 1,681 — \
       ZoFS pays for coffer splits, ZoFS-1coffer stays in user space)"
    ([ "Op" ] @ List.map FL.label systems)
    rows

(* ==== §6.5: safety and recovery =============================================== *)

let safety () =
  Report.section "Safety and recovery tests (paper 6.5)";
  let inst = ref None in
  Sim.run_thread ~proc:(root_proc ()) (fun () ->
      let i = FL.make ~pages:65536 FL.Zofs in
      ok (V.write_file i.FL.fs "/shared" ~mode:0o644 "protected data");
      inst := Some i);
  let i = Option.get !inst in
  let faults = ref 0 in
  Sim.run_thread ~proc:(root_proc ()) (fun () ->
      ignore (FL.zofs_fslib (Option.get i.FL.kernfs));
      let rng = Sim.Rng.create 0xBADL in
      for _ = 1 to 1000 do
        let addr = Sim.Rng.int rng (D.size i.FL.device - 8) in
        match D.write_u64 i.FL.device addr 0xDEAD with
        | () -> ()
        | exception Nvm.Fault _ -> incr faults
      done);
  Printf.printf
    "stray writes: 1000 random stores outside MPK windows -> %d faults \
     (paper: P2 never affected)\n"
    !faults;
  Sim.run_thread ~proc:(root_proc ()) (fun () ->
      let kfs = Option.get i.FL.kernfs in
      let disp = FL.zofs_dispatcher kfs in
      let fs = Treasury.Dispatcher.as_vfs disp in
      Mpk.with_kernel (Treasury.Kernfs.mpk kfs) (fun () ->
          Mpk.with_write_window (Treasury.Kernfs.mpk kfs) (fun () ->
              let root = Treasury.Kernfs.root_coffer kfs in
              let info = Option.get (Treasury.Coffer.read i.FL.device ~id:root) in
              match
                Zofs.Dir.lookup i.FL.device ~ino:info.Treasury.Coffer.root_file
                  "shared"
              with
              | Some de ->
                  Nvm.Device.write_u64 i.FL.device
                    (de.Zofs.Dir.de_addr + Zofs.Layout.d_inode)
                    (50 * Nvm.page_size);
                  Nvm.Device.persist_all i.FL.device
              | None -> ()));
      match V.read_file fs "/shared" with
      | Error e ->
          Printf.printf
            "graceful error return: reading a corrupted file -> %s (process \
             alive, %d faults converted)\n"
            (Treasury.Errno.to_string e)
            (Treasury.Dispatcher.graceful_error_count disp)
      | Ok _ -> print_endline "graceful error return: UNEXPECTED SUCCESS");
  (* recovery timing: 1,000 files of 32 KB (scaled from the paper's 2 MB) *)
  let w_inst = ref None in
  Sim.run_thread ~proc:(root_proc ()) (fun () ->
      let i = FL.make ~pages:262144 FL.Zofs in
      let block = String.make 4096 'r' in
      for f = 0 to 999 do
        let fd =
          ok
            (V.openf i.FL.fs
               (Printf.sprintf "/r%04d" f)
               [ Ft.O_CREAT; Ft.O_WRONLY ] 0o644)
        in
        for _ = 1 to 8 do
          ignore (ok (V.write i.FL.fs fd block))
        done;
        ok (V.close i.FL.fs fd)
      done;
      w_inst := Some i);
  let i = Option.get !w_inst in
  let report =
    Sim.run_thread ~proc:(root_proc ()) (fun () ->
        Zofs.Recovery.recover_all (Option.get i.FL.kernfs))
  in
  Printf.printf
    "recovery: %d coffer(s), %s pages in use, %s reclaimed; %.0f us total \
     (%.0f us user + %.0f us kernel)\n\
     (paper, 1,000 x 2MB files: 20,748 us = 5,386 us user + 15,362 us kernel)\n"
    report.Zofs.Recovery.coffers_scanned
    (Report.commas report.Zofs.Recovery.pages_in_use)
    (Report.commas report.Zofs.Recovery.pages_reclaimed)
    (float_of_int (report.Zofs.Recovery.user_ns + report.Zofs.Recovery.kernel_ns)
    /. 1000.0)
    (float_of_int report.Zofs.Recovery.user_ns /. 1000.0)
    (float_of_int report.Zofs.Recovery.kernel_ns /. 1000.0)

(* ==== Ablations (DESIGN.md §5) =================================================== *)

let ablations () =
  Report.section "Ablations";
  let dwol_with_protection = Fx.dwol.Fx.run FL.Zofs ~nthreads:1 ~ops:!fx_ops in
  let unprotected =
    Workloads.Runner.run ~nthreads:1 ~ops:!fx_ops
      ~setup:(fun () ->
        let inst = FL.make FL.Zofs in
        ok (V.write_file inst.FL.fs "/f0" ~mode:0o644 (String.make 4096 'x'));
        D.clear_protection_hook inst.FL.device;
        inst)
      ~worker:(fun inst ~tid ->
        ignore tid;
        let fs = inst.FL.fs in
        let fd = ok (V.openf fs "/f0" [ Ft.O_WRONLY ] 0) in
        let block = String.make 4096 'd' in
        fun ~i ->
          ignore i;
          ignore (ok (V.pwrite fs fd ~off:0 block)))
      ()
  in
  Report.table ~title:"(a) MPK + paging protection cost (DWOL, 1 thread)"
    [ "Config"; "Mops/s" ]
    [
      [
        "protected (MPK + page tables)";
        Report.f3 dwol_with_protection.Workloads.Runner.mops_per_sec;
      ];
      [
        "unprotected (hook removed)";
        Report.f3 unprotected.Workloads.Runner.mops_per_sec;
      ];
    ];
  let allocator v = FL.Zofs_variant (v, "ZoFS") in
  let mwcl_points global_alloc =
    let sys = allocator { Zofs.Ufs.default_variant with global_alloc } in
    List.map
      (fun n ->
        let r = Fx.mwcl.Fx.run sys ~nthreads:n ~ops:(max 20 (!fx_ops / 2)) in
        (n, r.Workloads.Runner.mops_per_sec))
      [ 1; 4; 8; 16 ]
  in
  let per_thread = mwcl_points false in
  let global = mwcl_points true in
  Report.table
    ~title:
      "(b) ZoFS allocator: leased per-thread vs single global list (MWCL \
       Mops/s, threads 1/4/8/16)"
    [ "Config"; "1"; "4"; "8"; "16" ]
    [
      "leased per-thread" :: List.map (fun (_, v) -> Report.f3 v) per_thread;
      "global list" :: List.map (fun (_, v) -> Report.f3 v) global;
    ];
  let batch_row b =
    let sys = allocator { Zofs.Ufs.default_variant with enlarge_batch = b } in
    let r = Fx.dwal.Fx.run sys ~nthreads:8 ~ops:!fx_ops in
    [ string_of_int b; Report.f3 r.Workloads.Runner.mops_per_sec ]
  in
  Report.table ~title:"(c) coffer_enlarge batch size (DWAL, 8 threads, Mops/s)"
    [ "Batch pages"; "Mops/s" ]
    (List.map batch_row [ 4; 16; 64 ])

(* ==== Persistence-instruction efficiency ======================================== *)

(* How many clwb/sfence each system issues for the same create/write/unlink
   sequence, and how many of those were redundant (flushing an already-clean
   line, fencing with nothing in flight) — the perf smells the checker in
   lib/check lints for. *)
let persist () =
  Report.section "Persistence instructions (100 x 4KB create/write + unlink)";
  let block = String.make 4096 'p' in
  List.iter
    (fun sys ->
      Sim.run_thread ~proc:(root_proc ()) (fun () ->
          let inst = FL.make ~pages:16384 sys in
          D.reset_stats inst.FL.device;
          for i = 0 to 99 do
            ok
              (V.write_file inst.FL.fs
                 (Printf.sprintf "/p%d" i)
                 ~mode:0o644 block)
          done;
          for i = 0 to 99 do
            ok (V.unlink inst.FL.fs (Printf.sprintf "/p%d" i))
          done;
          Report.device_persistence ~label:(FL.label sys) inst.FL.device))
    [ FL.Ext4_dax; FL.Pmfs; FL.Nova; FL.Zofs ]

(* ==== Bechamel: real host time of each experiment's kernel op ================= *)

let bechamel () =
  Report.section
    "Bechamel (host wall-clock of each experiment's core operation)";
  let open Bechamel in
  let open Toolkit in
  (* one simulated process shared by the preparation and every measured
     closure (mappings and FD tables are per process) *)
  let bproc = root_proc () in
  let zofs = ref None in
  Sim.run_thread ~proc:bproc (fun () ->
      let i = FL.make ~pages:65536 FL.Zofs in
      ok (V.write_file i.FL.fs "/bench" ~mode:0o644 (String.make 4096 'b'));
      ok (V.mkdir i.FL.fs "/bdir" 0o755);
      ok (V.write_file i.FL.fs "/bdir/sample" ~mode:0o644 "s");
      zofs := Some i);
  let zofs = Option.get !zofs in
  let pmfs = (FL.make ~pages:16384 FL.Pmfs).FL.fs in
  Sim.run_thread ~proc:bproc (fun () ->
      ok (V.write_file pmfs "/bench" ~mode:0o644 (String.make 4096 'b')));
  let dev = D.create ~perf:Nvm.Perf.optane ~size:(256 * Nvm.page_size) () in
  let counter = ref 0 in
  let in_sim f = Staged.stage (fun () -> Sim.run_thread ~proc:bproc f) in
  let block = String.make 4096 'x' in
  let fsl_small =
    Array.init 5_000 (fun i ->
        {
          Survey.Fsl.id = i;
          (* directories at multiples of 9; every file hangs off one *)
          parent =
            (if i = 0 then -1
             else if i mod 9 = 0 then i - 9
             else i / 9 * 9);
          kind = (if i mod 9 = 0 then Survey.Fsl.Directory else Survey.Fsl.Regular);
          perm = (if i mod 17 = 0 then 0o600 else 0o644);
          uid = 1000;
          gid = 1000;
          size = 1000;
        })
  in
  let tests =
    [
      Test.make ~name:"table1-ntstore-4k"
        (in_sim (fun () ->
             D.nt_write_string dev 0 block;
             D.sfence dev));
      Test.make ~name:"table2-zofs-append"
        (in_sim (fun () -> ok (V.append_file zofs.FL.fs "/bench" block)));
      Test.make ~name:"table3-survey-scan"
        (in_sim (fun () ->
             ignore (Survey.Appdirs.scan zofs.FL.fs ~system:"b" "/bdir")));
      Test.make ~name:"table4-grouping-5k"
        (Staged.stage (fun () -> ignore (Survey.Grouping.analyze fsl_small)));
      Test.make ~name:"fig7-zofs-overwrite-4k"
        (in_sim (fun () ->
             let fd = ok (V.openf zofs.FL.fs "/bench" [ Ft.O_WRONLY ] 0) in
             ignore (ok (V.pwrite zofs.FL.fs fd ~off:0 block));
             ok (V.close zofs.FL.fs fd)));
      Test.make ~name:"fig8-pmfs-overwrite-4k"
        (in_sim (fun () ->
             let fd = ok (V.openf pmfs "/bench" [ Ft.O_WRONLY ] 0) in
             ignore (ok (V.pwrite pmfs fd ~off:0 block));
             ok (V.close pmfs fd)));
      Test.make ~name:"fig9-zofs-create-delete"
        (in_sim (fun () ->
             incr counter;
             let p = Printf.sprintf "/bdir/t%d" !counter in
             ok (V.write_file zofs.FL.fs p ~mode:0o644 "x");
             ok (V.unlink zofs.FL.fs p)));
      Test.make ~name:"table9-zofs-stat"
        (in_sim (fun () -> ignore (ok (V.stat zofs.FL.fs "/bench"))));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let stats = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "  %-28s %12.0f ns/op (host)\n" name est
          | _ -> Printf.printf "  %-28s (no estimate)\n" name)
        stats)
    tests;
  print_newline ()

(* ==== driver ==================================================================== *)

let experiments =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("fig7", fun () -> fig7 ());
    ("fig8", fig8);
    ("fig9", fun () -> fig9 ());
    ("fig10", fig10);
    ("table7", table7);
    ("fig11", fig11);
    ("table9", table9);
    ("safety", safety);
    ("ablations", ablations);
    ("persist", persist);
    ("bechamel", bechamel);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    if List.mem "--quick" args then begin
      thread_counts := [ 1; 4; 12 ];
      (* keep the 64-tenant point even under --quick: the fleet-scale
         sharing path is exactly what the experiment exists to exercise *)
      shared_proc_counts := [ 1; 2; 64 ];
      fx_ops := 60;
      fb_ops := 25;
      kv_ops := 100;
      tpcc_txns := 40;
      lat_ops := 60;
      List.filter (( <> ) "--quick") args
    end
    else args
  in
  (* --obs: per-experiment latency histograms + layer split, and
     BENCH_obs_snapshot.json / trace.json at the end (the plain
     BENCH_obs.json name is the @obs gate's committed baseline — never
     clobber it).  --json: one machine-readable BENCH_<experiment>.json
     per experiment. *)
  let obs_on = List.mem "--obs" args in
  let json_on = List.mem "--json" args in
  let args = List.filter (fun a -> a <> "--obs" && a <> "--json") args in
  if obs_on then Obs.enable ();
  if json_on then Report.json_enable ".";
  let selected = if args = [] then List.map fst experiments else args in
  print_endline
    "ZoFS reproduction benchmark harness (simulated NVM; see DESIGN.md)";
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
          let before = if obs_on then Some (Obs.Snapshot.take ()) else None in
          Report.json_start name;
          let t0 = Unix.gettimeofday () in
          f ();
          (match before with
          | Some b ->
              let d = Obs.Snapshot.diff b (Obs.Snapshot.take ()) in
              print_string (Obs.Snapshot.render ~title:(name ^ " — obs") d);
              Report.json_field "obs" (Obs.Snapshot.to_json d)
          | None -> ());
          Report.json_finish ();
          Printf.printf "[%s done in %.1fs]\n%!" name (Unix.gettimeofday () -. t0)
      | None -> Printf.eprintf "unknown experiment %s\n" name)
    selected;
  if obs_on then begin
    let write_file path s =
      let oc = open_out path in
      output_string oc s;
      output_char oc '\n';
      close_out oc
    in
    write_file "BENCH_obs_snapshot.json"
      (Obs.Json.to_string (Obs.Snapshot.to_json (Obs.Snapshot.take ())));
    write_file "trace.json" (Obs.Json.to_string (Obs.Trace.to_json ()));
    Printf.printf
      "obs: wrote BENCH_obs_snapshot.json and trace.json (%d spans, %d \
       dropped, %d still open)\n"
      (Obs.Trace.recorded ()) (Obs.Trace.dropped ()) (Obs.Trace.open_spans ())
  end
