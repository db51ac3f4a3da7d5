(* The paper's evaluation (§6) and its §2.3 survey as values: each table and
   figure, plus the ablations of DESIGN.md §5 and the persistence-instruction
   counts, is an experiment that runs on the simulated NVM substrate at a
   given scale and returns what it measured as items.  Nothing here prints:
   bench/main.exe renders the items as text and as BENCH_<exp>.json, and a
   test or gate can check a claim on the returned rows.

   All numbers are simulated time, so every run of an experiment returns the
   same items. *)

module V = Treasury.Vfs
module Ft = Treasury.Fs_types
module FL = Workloads.Fslab
module Fx = Workloads.Fxmark
module Fb = Workloads.Filebench
module D = Nvm.Device

let ok = Workloads.Runner.ok

(* ---- values ------------------------------------------------------------- *)

(* How big a run is.  Table 2 scales the paper's two processes to
   [shared_proc_counts] tenants, each a full Sim.Proc with its own FSLib,
   to exercise the cross-process lease-handoff path at fleet size. *)
type scale = {
  thread_counts : int list;
  shared_proc_counts : int list;
  fx_ops : int;
  fb_ops : int;
  kv_ops : int;
  tpcc_txns : int;
  lat_ops : int;
}

let full =
  {
    thread_counts = [ 1; 2; 4; 8; 12; 16; 20 ];
    shared_proc_counts = [ 1; 2; 16; 64 ];
    fx_ops = 150;
    fb_ops = 60;
    kv_ops = 300;
    tpcc_txns = 120;
    lat_ops = 200;
  }

(* The 64-tenant point stays: the fleet-scale sharing path is exactly what
   Table 2's extension exists to exercise. *)
let quick =
  {
    thread_counts = [ 1; 4; 12 ];
    shared_proc_counts = [ 1; 2; 64 ];
    fx_ops = 60;
    fb_ops = 25;
    kv_ops = 100;
    tpcc_txns = 40;
    lat_ops = 60;
  }

(* A table cell keeps its number; [cell_to_string] is how it prints. *)
type cell =
  | Text of string
  | Int of int  (* with thousands separators: 1,807 *)
  | Bytes of int  (* human-readable: 903.5KB *)
  | Fixed of int * float  (* with that many decimals *)

type table = { title : string; header : string list; rows : cell list list }

type item =
  | Section of string
  | Table of table
  | Series of { title : string; series : (string * (int * float) list) list }
      (* numeric (threads, value) points behind a table *)
  | Persistence of {
      label : string;
      reads : int;
      writes : int;
      flushes : int;
      redundant_flushes : int;
      fences : int;
      redundant_fences : int;
    }  (* a device's flush/fence counts *)
  | Note of string  (* a line of free text, newline included *)

type t = { name : string; run : scale -> item list }

let commas n =
  let s = string_of_int n in
  let len = String.length s in
  let b = Buffer.create (len + len / 3) in
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char b ',';
      Buffer.add_char b c)
    s;
  Buffer.contents b

let bytes_human n =
  if n >= 1 lsl 30 then Printf.sprintf "%.1fGB" (float_of_int n /. 1073741824.0)
  else if n >= 1 lsl 20 then Printf.sprintf "%.1fMB" (float_of_int n /. 1048576.0)
  else if n >= 1 lsl 10 then Printf.sprintf "%.1fKB" (float_of_int n /. 1024.0)
  else Printf.sprintf "%dB" n

let cell_to_string = function
  | Text s -> s
  | Int n -> commas n
  | Bytes n -> bytes_human n
  | Fixed (d, v) -> Printf.sprintf "%.*f" d v

let f2 v = Fixed (2, v)
let f3 v = Fixed (3, v)
let table ~title header rows = Table { title; header; rows }

(* The persistence record of [dev]'s counters as they stand. *)
let persistence ~label dev =
  Persistence
    {
      label;
      reads = D.stat_reads dev;
      writes = D.stat_writes dev;
      flushes = D.stat_flushes dev;
      redundant_flushes = D.stat_redundant_flushes dev;
      fences = D.stat_fences dev;
      redundant_fences = D.stat_redundant_fences dev;
    }

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

let table1 _scale =
  let rows =
    List.map
      (fun (label, perf) ->
        let rl, rb, wl, wb = measure_device perf in
        [
          Text label;
          Text (Printf.sprintf "read: %.0f GB/s / %d ns" rb rl);
          Text (Printf.sprintf "write: %.0f GB/s / %d ns" wb wl);
        ])
      [ ("DRAM", Nvm.Perf.dram); ("Optane DC PM", Nvm.Perf.optane) ]
  in
  [
    Section "Table 1: DRAM and Optane DC PM latency and bandwidth";
    table
      ~title:
        "(paper: DRAM 115/79 GB/s, 81/86 ns; Optane 39/14 GB/s, 305/94 ns)"
      [ "Memory"; "Read (bw/lat)"; "Write (bw/lat)" ]
      rows;
  ]

(* ==== Table 2: shared append/create latency ============================= *)

type shared_sys = {
  ss_label : string;
  (* builds shared state once, returns a per-process fs factory *)
  ss_make : unit -> unit -> V.fs;
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

(* Mean latency of [op] over [ops] calls in each of [nprocs] processes,
   with think time between calls so the processes interleave (worst-case
   sharing).  Process 0 also runs the set-up.  A tenant's obs label is its
   index (pids are a global counter, not stable across runs), so
   zofs_top/zofs_stat attribute latency per tenant under --obs. *)
let run_shared sys ~nprocs ~ops ~op =
  let world = Sim.create () in
  let procs = Array.init nprocs (fun _ -> root_proc ()) in
  let stats = Sim.Stats.create () in
  Sim.spawn world ~proc:procs.(0) ~name:"setup" (fun () ->
      let factory = sys.ss_make () in
      let fs0 = factory () in
      ok (V.mkdir fs0 Workloads.Shared.dir 0o755);
      ok (V.write_file fs0 Workloads.Shared.file ~mode:0o644 "");
      for p = 0 to nprocs - 1 do
        Sim.spawn world ~proc:procs.(p) ~name:(Printf.sprintf "p%d" p)
          (fun () ->
            Obs.set_tenant p;
            let fs = if p = 0 then fs0 else factory () in
            let run_op = op fs p in
            for i = 0 to ops - 1 do
              let t0 = Sim.now () in
              run_op i;
              Sim.Stats.add stats (float_of_int (Sim.now () - t0));
              Sim.advance 500
            done)
      done);
  Sim.run world;
  Sim.Stats.mean stats

let table2 scale =
  let systems = shared_systems () in
  let rows =
    List.concat_map
      (fun (opname, op) ->
        List.map
          (fun nprocs ->
            Text (opname ^ " " ^ string_of_int nprocs)
            :: List.map
                 (fun sys ->
                   Int
                     (int_of_float
                        (run_shared sys ~nprocs ~ops:scale.lat_ops ~op)))
                 systems)
          scale.shared_proc_counts)
      [ ("append", Workloads.Shared.append); ("create", Workloads.Shared.create) ]
  in
  [
    Section "Table 2: latency (ns) of ops on a file/dir shared by processes";
    table
      ~title:
        "(paper, which stops at 2 processes: append 1p: Strata 1,653 / NOVA \
         2,172 / ZoFS 1,147; 2p: 34,551 / 3,882 / 1,703;\n\
        \ create 1p: 4,195 / 3,534 / 2,494; 2p: 283,972 / 6,167 / 3,459; \
         16p/64p rows are our fleet-scale extension)"
      ([ "Operation #p" ] @ List.map (fun s -> s.ss_label) systems)
      rows;
  ]

(* ==== Table 3: file permissions in databases and web servers ============ *)

let table3 _scale =
  let _dev, kfs =
    FL.make_zofs ~root_mode:0o777 ~pages:131072 ~perf:Nvm.Perf.free ()
  in
  let survey_one (system, uid, populate, root) =
    let proc = Sim.Proc.create ~uid ~gid:uid () in
    Sim.run_thread ~proc (fun () ->
        (* FSLibs is per process: build one for this user *)
        let fs = FL.zofs_fslib kfs in
        ok (populate fs root);
        List.map
          (fun r ->
            let open Survey.Appdirs in
            [
              Text system;
              Text (Ft.kind_to_string r.r_kind);
              Text (Printf.sprintf "%o" r.r_perm);
              Text (Printf.sprintf "%d/%d" r.r_uid r.r_gid);
              Int r.r_count;
              Bytes r.r_bytes;
            ])
          (Survey.Appdirs.scan fs ~system root))
  in
  let rows =
    List.concat_map survey_one
      [
        ("MySQL", 970, Survey.Appdirs.populate_mysql, "/mysql");
        ("PostgreSQL", 969, Survey.Appdirs.populate_postgres, "/pg");
        ( "DokuWiki",
          33,
          (fun fs root -> Survey.Appdirs.populate_dokuwiki ~scale:10 fs root),
          "/wiki" );
      ]
  in
  [
    Section "Table 3: file permissions in databases and web servers";
    table
      ~title:
        "(DokuWiki generated at 1/10 scale; sizes are synthetic — see DESIGN.md)"
      [ "System"; "Type"; "Perm."; "Uid/Gid"; "# Files"; "Size" ]
      rows;
  ]

(* ==== Table 4: FSL Homes snapshot + grouping ============================= *)

let table4 _scale =
  let files = Survey.Fsl.generate () in
  let m = Survey.Fsl.marginals files in
  let perms = [ 0o644; 0o600; 0o666; 0o444; 0o660; 0o640; 0o664; 0o440 ] in
  let count kind perm =
    Option.value ~default:0 (Hashtbl.find_opt m (kind, perm))
  in
  let kind_row label kind =
    Text label
    :: Int (Survey.Fsl.count_kind files kind)
    :: List.map (fun p -> Int (count kind p)) perms
  in
  let s = Survey.Grouping.analyze files in
  [
    Section "Table 4: file statistics in the (synthetic) FSL Homes snapshot";
    table ~title:"(marginals match the paper's Table 4 exactly)"
      ([ "Type"; "# Files" ] @ List.map (Printf.sprintf "%o") perms)
      [
        kind_row "Regular" Survey.Fsl.Regular;
        kind_row "Symlink" Survey.Fsl.Symlink;
        kind_row "Directory" Survey.Fsl.Directory;
      ];
    Note
      (Printf.sprintf
         "\n\
          grouping: %s groups (paper: 4,449); largest group holds %s files = \
          %.1f%% (paper: ~1/3);\n\
          single-file groups: %s (paper: 3,795, covering 0.6%% of files);\n\
          largest group bytes: %s (paper: 52.0GB)\n"
         (commas s.Survey.Grouping.n_groups)
         (commas s.Survey.Grouping.largest_files)
         (100.0
         *. float_of_int s.Survey.Grouping.largest_files
         /. float_of_int (Array.length files))
         (commas s.Survey.Grouping.single_file_groups)
         (bytes_human s.Survey.Grouping.largest_bytes));
    table ~title:"groups by permission class"
      [ "Perm"; "# Groups"; "Min size"; "Avg size"; "Max size" ]
      (List.map
         (fun (p, n, mn, avg, mx) ->
           [ Text (Printf.sprintf "%o" p); Int n; Bytes mn; Bytes avg; Bytes mx ])
         s.Survey.Grouping.by_perm);
  ]

(* ==== MobiGen: permission changes in smartphone syscall traces ========== *)

let mobigen _scale =
  let row (label, trace) =
    let c = Survey.Mobigen.analyze trace in
    Survey.Mobigen.
      [
        Text label; Int c.total; Int c.chmods; Int c.chowns; Int c.shadow_patterns;
      ]
  in
  [
    Section "MobiGen: permission changes in smartphone syscall traces";
    table
      ~title:
        "(paper: Facebook 64,282 syscalls, no chmod/chown; Twitter 25,306, 16 \
         chmods, each in a shadow-file pattern)"
      [ "Trace"; "Syscalls"; "chmod"; "chown"; "Shadow-file patterns" ]
      (List.map row
         [
           ("Facebook", Survey.Mobigen.facebook ());
           ("Twitter", Survey.Mobigen.twitter ());
         ]);
  ]

(* ==== Figure 7: FxMark ==================================================== *)

let fxmark_systems = [ FL.Zofs; FL.Pmfs; FL.Nova; FL.Ext4_dax ]

(* The (threads, value) points of each system, and their table. *)
let series_table scale ~title runs =
  let rows =
    List.map
      (fun (label, points) ->
        Text label
        :: List.map
             (fun n ->
               match List.assoc_opt n points with
               | Some v -> f3 v
               | None -> Text "-")
             scale.thread_counts)
      runs
  in
  [
    Series { title; series = runs };
    table ~title
      ("FS \\ threads" :: List.map string_of_int scale.thread_counts)
      rows;
  ]

(* [label, [(n, f n)]] over the scale's thread counts. *)
let sweep scale label f =
  (label, List.map (fun n -> (n, f n)) scale.thread_counts)

let fig7 scale =
  Section "Figure 7: FxMark throughput (Mops/s) vs threads"
  :: List.concat_map
       (fun w ->
         series_table scale
           ~title:(Printf.sprintf "%s (Figure %s)" w.Fx.wname w.Fx.figure)
           (List.map
              (fun sys ->
                sweep scale (FL.label sys) (fun n ->
                    (w.Fx.run sys ~nthreads:n ~ops:scale.fx_ops)
                      .Workloads.Runner.mops_per_sec))
              fxmark_systems))
       Fx.all

(* ==== Figure 8: DWOL throughput breakdown ================================= *)

let fig8 scale =
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
        let r = Fx.dwol.Fx.run sys ~nthreads:1 ~ops:scale.fx_ops in
        [ Text (FL.label sys); f3 r.Workloads.Runner.mops_per_sec ])
      systems
  in
  [
    Section "Figure 8: throughput breakdown of DWOL (1 thread, Mops/s)";
    table
      ~title:
        "(paper groups: {ZoFS, ZoFS-sysempty} > {NOVA-noindex, PMFS-nocache,\n\
        \ ZoFS-kwrite, NOVAi-noindex} > {PMFS, NOVA, NOVAi})"
      [ "System"; "Mops/s" ] rows;
  ]

(* ==== Figure 9 / Table 6: Filebench ======================================== *)

let kops r = r.Workloads.Runner.mops_per_sec *. 1000.0

let fig9 scale =
  let personality p =
    let systems =
      if p.Fb.pname = "fileserver" || p.Fb.pname = "webserver" then
        fxmark_systems @ [ FL.Strata ]
      else fxmark_systems
    in
    let runs =
      List.map
        (fun sys ->
          sweep scale (FL.label sys) (fun n ->
              kops (p.Fb.run sys ~nthreads:n ~ops:scale.fb_ops)))
        systems
    in
    let runs =
      if p.Fb.pname = "webproxy" || p.Fb.pname = "varmail" then
        runs
        @ [
            sweep scale "ZoFS-20dirwidth" (fun n ->
                kops
                  (p.Fb.run ~dir_width:20 FL.Zofs ~nthreads:n ~ops:scale.fb_ops));
          ]
      else runs
    in
    series_table scale
      ~title:
        (Printf.sprintf
           "%s (paper: %d files, dir-width %d, %s files; scaled — see \
            DESIGN.md)"
           p.Fb.pname p.Fb.nfiles p.Fb.dir_width (bytes_human p.Fb.file_size))
      runs
  in
  Section "Figure 9: Filebench throughput (kops/s) vs threads"
  :: List.concat_map personality Fb.all

(* ==== Figure 10: customized Filebench ====================================== *)

let fig10 scale =
  let rows =
    List.map
      (fun sys ->
        let r = Fb.fileserver.Fb.run sys ~nthreads:1 ~ops:scale.fb_ops in
        [ Text (FL.label sys); f2 (kops r) ])
      (fxmark_systems @ [ FL.Strata ])
  in
  let runs =
    List.map
      (fun sys ->
        sweep scale (FL.label sys) (fun n ->
            kops
              (Fb.varmail.Fb.run ~dir_width:20 sys ~nthreads:n
                 ~ops:scale.fb_ops)))
      fxmark_systems
  in
  Section "Figure 10: Filebench with customized configurations"
  :: table
       ~title:
         "(a) fileserver, 1 thread (kops/s; paper: ZoFS +30% over NOVA, +16% \
          over PMFS, +5% over Strata)"
       [ "System"; "kops/s" ] rows
  :: series_table scale
       ~title:
         "(b) varmail with dir-width=20 (kops/s; paper: all scale, ZoFS up to \
          +13%/+46% over PMFS/NOVA)"
       runs

(* ==== Table 7: LevelDB db_bench ============================================= *)

let app_systems = [ FL.Ext4_dax; FL.Pmfs; FL.Nova; FL.Zofs ]

(* [f fs] on a fresh instance of [sys], in a root thread of its own world. *)
let on_fresh sys f =
  Sim.run_thread ~proc:(root_proc ()) (fun () ->
      f (FL.make ~pages:131072 sys).FL.fs)

let table7 scale =
  let rows =
    List.map
      (fun op ->
        Text (Kvdb.Db_bench.op_name op)
        :: List.map
             (fun sys ->
               f3
                 (on_fresh sys (fun fs ->
                      Kvdb.Db_bench.run fs ~n:scale.kv_ops op)))
             app_systems)
      Kvdb.Db_bench.all_ops
  in
  [
    Section "Table 7: LevelDB (LSM store) db_bench latency (us)";
    table
      ~title:
        "(paper shape: ZoFS lowest everywhere; PMFS second; NOVA loses to PMFS \
         from copy-on-write; Ext4-DAX slowest)"
      ([ "Latency/us" ] @ List.map FL.label app_systems)
      rows;
  ]

(* ==== Figure 11 / Table 8: TPC-C ============================================= *)

let fig11 scale =
  let tps kind fs =
    let t = ok (Litedb.Tpcc.create fs "/tpcc.db") in
    Litedb.Tpcc.run t ~n:scale.tpcc_txns ?kind ()
  in
  let rows =
    List.map
      (fun (wname, kind) ->
        Text wname
        :: List.map (fun sys -> f2 (on_fresh sys (tps kind))) app_systems)
      [
        ("mixed", None);
        ("NEW", Some Litedb.Tpcc.NEW);
        ("OS", Some Litedb.Tpcc.OS);
        ("PAY", Some Litedb.Tpcc.PAY);
      ]
  in
  [
    Section "Figure 11: TPC-C on the relational engine (txns/s)";
    table
      ~title:
        "(paper shape: ZoFS highest; mixed: ZoFS +9% over PMFS, +31% over NOVA; \
         OS > PAY > NEW)"
      ([ "Workload" ] @ List.map FL.label app_systems)
      rows;
  ]

(* ==== Table 9: worst-case chmod / rename ===================================== *)

let table9 _scale =
  let nfiles = 100 in
  let big = String.make 32768 'x' in
  (* mean sim-ns of [op i] over the files, after [setup] *)
  let per_file sys ~setup ~op =
    on_fresh sys (fun fs ->
        setup fs;
        let t0 = Sim.now () in
        for i = 0 to nfiles - 1 do
          ok (op fs i)
        done;
        int_of_float (float_of_int (Sim.now () - t0) /. float_of_int nfiles))
  in
  let chmod_latency sys =
    per_file sys
      ~setup:(fun fs ->
        for i = 0 to nfiles - 1 do
          ok (V.write_file fs (Printf.sprintf "/f%d" i) ~mode:0o644 big)
        done)
      ~op:(fun fs i -> V.chmod fs (Printf.sprintf "/f%d" i) 0o600)
  in
  let rename_latency sys =
    per_file sys
      ~setup:(fun fs ->
        ok (V.mkdir fs "/d1" 0o755);
        ok (V.mkdir fs "/d2" 0o700);
        for i = 0 to nfiles - 1 do
          ok (V.write_file fs (Printf.sprintf "/d1/f%d" i) ~mode:0o644 big);
          ok (V.write_file fs (Printf.sprintf "/d2/g%d" i) ~mode:0o600 big)
        done)
      ~op:(fun fs i ->
        V.rename fs (Printf.sprintf "/d1/f%d" i) (Printf.sprintf "/d2/f%d" i))
  in
  let systems = [ FL.Nova; FL.Zofs; FL.one_coffer_variant ] in
  [
    Section "Table 9: worst-case performance (ns/op)";
    table
      ~title:
        "(paper: chmod 1,830 / 23,342 / 675; rename 6,261 / 28,264 / 1,681 — \
         ZoFS pays for coffer splits, ZoFS-1coffer stays in user space)"
      ([ "Op" ] @ List.map FL.label systems)
      [
        Text "chmod" :: List.map (fun s -> Int (chmod_latency s)) systems;
        Text "rename" :: List.map (fun s -> Int (rename_latency s)) systems;
      ];
  ]

(* ==== §6.5: safety and recovery =============================================== *)

let stray_writes () =
  let i =
    Sim.run_thread ~proc:(root_proc ()) (fun () ->
        let i = FL.make ~pages:65536 FL.Zofs in
        ok (V.write_file i.FL.fs "/shared" ~mode:0o644 "protected data");
        i)
  in
  let faults =
    Sim.run_thread ~proc:(root_proc ()) (fun () ->
        ignore (FL.zofs_fslib (Option.get i.FL.kernfs));
        let rng = Sim.Rng.create 0xBADL in
        let faults = ref 0 in
        for _ = 1 to 1000 do
          let addr = Sim.Rng.int rng (D.size i.FL.device - 8) in
          match D.write_u64 i.FL.device addr 0xDEAD with
          | () -> ()
          | exception Nvm.Fault _ -> incr faults
        done;
        !faults)
  in
  (i, faults)

let corrupted_read i =
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
                  D.write_u64 i.FL.device
                    (de.Zofs.Dir.de_addr + Zofs.Layout.d_inode)
                    (50 * Nvm.page_size);
                  D.persist_all i.FL.device
              | None -> ()));
      match V.read_file fs "/shared" with
      | Error e ->
          Printf.sprintf
            "graceful error return: reading a corrupted file -> %s (process \
             alive, %d faults converted)\n"
            (Treasury.Errno.to_string e)
            (Treasury.Dispatcher.graceful_error_count disp)
      | Ok _ -> "graceful error return: UNEXPECTED SUCCESS\n")

(* recovery timing: 1,000 files of 32 KB (scaled from the paper's 2 MB) *)
let recovery_timing () =
  let i =
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
        i)
  in
  let r =
    Sim.run_thread ~proc:(root_proc ()) (fun () ->
        Zofs.Recovery.recover_all (Option.get i.FL.kernfs))
  in
  let open Zofs.Recovery in
  Printf.sprintf
    "recovery: %d coffer(s), %s pages in use, %s reclaimed; %.0f us total \
     (%.0f us user + %.0f us kernel)\n\
     (paper, 1,000 x 2MB files: 20,748 us = 5,386 us user + 15,362 us kernel)\n"
    r.coffers_scanned (commas r.pages_in_use) (commas r.pages_reclaimed)
    (float_of_int (r.user_ns + r.kernel_ns) /. 1000.0)
    (float_of_int r.user_ns /. 1000.0)
    (float_of_int r.kernel_ns /. 1000.0)

let safety _scale =
  let i, faults = stray_writes () in
  let stray =
    Printf.sprintf
      "stray writes: 1000 random stores outside MPK windows -> %d faults \
       (paper: P2 never affected)\n"
      faults
  in
  let graceful = corrupted_read i in
  [
    Section "Safety and recovery tests (paper 6.5)";
    Note stray;
    Note graceful;
    Note (recovery_timing ());
  ]

(* ==== Ablations (DESIGN.md §5) =================================================== *)

let ablations scale =
  let dwol_with_protection =
    Fx.dwol.Fx.run FL.Zofs ~nthreads:1 ~ops:scale.fx_ops
  in
  let unprotected =
    Workloads.Runner.run ~nthreads:1 ~ops:scale.fx_ops
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
  let mops r = f3 r.Workloads.Runner.mops_per_sec in
  let allocator v = FL.Zofs_variant (v, "ZoFS") in
  let mwcl_row label global_alloc =
    let sys = allocator { Zofs.Ufs.default_variant with global_alloc } in
    Text label
    :: List.map
         (fun n ->
           mops
             (Fx.mwcl.Fx.run sys ~nthreads:n ~ops:(max 20 (scale.fx_ops / 2))))
         [ 1; 4; 8; 16 ]
  in
  let per_thread = mwcl_row "leased per-thread" false in
  let global = mwcl_row "global list" true in
  let batch_row b =
    let sys = allocator { Zofs.Ufs.default_variant with enlarge_batch = b } in
    [
      Text (string_of_int b);
      mops (Fx.dwal.Fx.run sys ~nthreads:8 ~ops:scale.fx_ops);
    ]
  in
  [
    Section "Ablations";
    table ~title:"(a) MPK + paging protection cost (DWOL, 1 thread)"
      [ "Config"; "Mops/s" ]
      [
        [ Text "protected (MPK + page tables)"; mops dwol_with_protection ];
        [ Text "unprotected (hook removed)"; mops unprotected ];
      ];
    table
      ~title:
        "(b) ZoFS allocator: leased per-thread vs single global list (MWCL \
         Mops/s, threads 1/4/8/16)"
      [ "Config"; "1"; "4"; "8"; "16" ]
      [ per_thread; global ];
    table ~title:"(c) coffer_enlarge batch size (DWAL, 8 threads, Mops/s)"
      [ "Batch pages"; "Mops/s" ]
      (List.map batch_row [ 4; 16; 64 ]);
  ]

(* ==== Persistence-instruction efficiency ======================================== *)

(* How many clwb/sfence each system issues for the same create/write/unlink
   sequence, and how many of those were redundant (flushing an already-clean
   line, fencing with nothing in flight) — the perf smells the checker in
   lib/check lints for. *)
let persist _scale =
  let block = String.make 4096 'p' in
  Section "Persistence instructions (100 x 4KB create/write + unlink)"
  :: List.map
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
             persistence ~label:(FL.label sys) inst.FL.device))
       app_systems

(* Every experiment, in the order bench/main.exe runs them. *)
let all =
  [
    { name = "table1"; run = table1 };
    { name = "table2"; run = table2 };
    { name = "table3"; run = table3 };
    { name = "table4"; run = table4 };
    { name = "mobigen"; run = mobigen };
    { name = "fig7"; run = fig7 };
    { name = "fig8"; run = fig8 };
    { name = "fig9"; run = fig9 };
    { name = "fig10"; run = fig10 };
    { name = "table7"; run = table7 };
    { name = "fig11"; run = fig11 };
    { name = "table9"; run = table9 };
    { name = "safety"; run = safety };
    { name = "ablations"; run = ablations };
    { name = "persist"; run = persist };
  ]
