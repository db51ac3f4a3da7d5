(* The hot-path performance gate, `perf` (DESIGN.md §14).

   A pinned set of deterministic single-thread experiments exercises the
   batched µFS commit paths — append growth (the Figure 7(d) staircase),
   create, unlink, same-directory rename (to a fresh name, and to an absent
   name in a live second-level page behind a cold cache), and truncate —
   the readdir
   scan of the two-level hash directory, the offline recovery scan (of one
   coffer, and of 21 coffers, more than a process has MPK keys) and a
   truncate through an indirect page, each in a fresh simulated world,
   and records per-operation simulated latency, persistence-instruction
   counts (clwb/sfence, with the redundancy split the device tracks),
   kernel crossings, demand faults, and coffer_enlarge calls.  One more
   cycles one process over 20 coffers, more than it has MPK keys, so its
   remaps fault their pages in; it audits the page table after every op,
   and two planted fault handlers (a page outside the coffer, a wrong key)
   must be caught by that audit.  Another lists 20 96-entry directories,
   one per sub-coffer, with the same audit: a listing after a remap
   prefaults the directory's second-level pages, and a planted prefault
   that installs pages that were not pending must be caught.  Two
   multi-process experiments ride along: 64 tenant processes — each with
   its own FSLib (dispatcher + FD table + per-process mappings) — hammer
   one shared file / one shared directory through the syscall gate, so the
   baseline also pins the cross-process lease-handoff cost.

   Everything measured is simulated and cooperatively scheduled, so two
   runs of the same binary produce byte-identical numbers; the committed
   baseline (BENCH_perf.json at the repository root) therefore encodes the
   exact cost of every hot path, and `dune build @perf` fails when any
   number moves, in either direction.  An improvement becomes the new
   baseline by re-running with --write-baseline. *)

module V = Treasury.Vfs
module Ft = Treasury.Fs_types
module FL = Workloads.Fslab
module J = Obs.Json

type metrics = {
  ops : int;
  sim_ns : int;  (* total simulated time of the measured phase *)
  flushes : int;
  redundant_flushes : int;
  fences : int;
  redundant_fences : int;
  crossings : int;  (* kernel syscalls during the measured phase *)
  faults : int;  (* demand faults on pending PTEs, no syscalls *)
  enlarge_calls : int;
}

type result = { r_name : string; r_m : metrics; r_violations : string list }

let per_op m total = float_of_int total /. float_of_int (max 1 m.ops)

(* ---- the pinned experiments ------------------------------------------- *)

let ok = function
  | Ok v -> v
  | Error e -> failwith ("perf_gate: " ^ Treasury.Errno.to_string e)

(* Open the measured phase of [ops] operations on [inst]: reset the device
   stats, read the syscall, demand-fault and enlarge counters and the
   clock.  The returned closure closes the phase and reads every metric. *)
let measure ~ops inst =
  let kfs = Option.get inst.FL.kernfs in
  let dev = inst.FL.device in
  let gate = Treasury.Kernfs.gate kfs in
  Nvm.Device.reset_stats dev;
  let c0 = Treasury.Gate.syscall_count gate in
  let f0 = Treasury.Gate.fault_count gate in
  let e0 = Treasury.Kernfs.enlarge_count kfs in
  let t0 = Sim.now () in
  fun () ->
    {
      ops;
      sim_ns = Sim.now () - t0;
      flushes = Nvm.Device.stat_flushes dev;
      redundant_flushes = Nvm.Device.stat_redundant_flushes dev;
      fences = Nvm.Device.stat_fences dev;
      redundant_fences = Nvm.Device.stat_redundant_fences dev;
      crossings = Treasury.Gate.syscall_count gate - c0;
      faults = Treasury.Gate.fault_count gate - f0;
      enlarge_calls = Treasury.Kernfs.enlarge_count kfs - e0;
    }

(* Run [measured] in a fresh single-thread ZoFS world after [setup], with
   [measure] bracketing exactly the measured phase.  [measured] gets the
   whole instance, so it can reach KernFS as well as the file system.
   [ufs], when given, is the µFS module the dispatcher serves instead of
   [Zofs.Ufs] (a negative plants one). *)
let in_world ?ufs ~ops ~setup ~measured () =
  Sim.run_thread ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ()) (fun () ->
      let pages = 16384 in
      let inst =
        match ufs with
        | None -> FL.make ~pages FL.Zofs
        | Some (module U : Treasury.Ufs_intf.S with type t = Zofs.Ufs.t) ->
            let device, kfs = FL.make_zofs ~pages ~perf:Nvm.Perf.optane () in
            let disp = Treasury.Dispatcher.create kfs in
            Treasury.Dispatcher.register_ufs disp (module U) (Zofs.Ufs.create kfs);
            {
              FL.fs = Treasury.Dispatcher.as_vfs disp;
              sys = FL.Zofs;
              kernfs = Some kfs;
              device;
            }
      in
      setup inst.FL.fs;
      let stop = measure ~ops inst in
      measured inst;
      stop ())

let block = String.make 4096 'p'

(* 4 KB appends to one file: the growth staircase.  [ops] pages plus the
   pointer pages the file needs, so the enlarge count exposes the
   batching/doubling policy directly. *)
let exp_append ~ops () =
  in_world ~ops
    ~setup:(fun fs -> ok (V.write_file fs "/a" ~mode:0o644 ""))
    ~measured:(fun { FL.fs; _ } ->
      let fd = ok (V.openf fs "/a" [ Ft.O_WRONLY; Ft.O_APPEND ] 0) in
      for _ = 1 to ops do
        ignore (ok (V.write fs fd block))
      done;
      ok (V.close fs fd))
    ()

(* Empty-file create (open O_CREAT + close), all in one directory. *)
let exp_create ~ops () =
  in_world ~ops
    ~setup:(fun fs -> ok (V.mkdir fs "/d" 0o755))
    ~measured:(fun { FL.fs; _ } ->
      for i = 1 to ops do
        let fd =
          ok
            (V.openf fs
               (Printf.sprintf "/d/c%d" i)
               [ Ft.O_CREAT; Ft.O_WRONLY ] 0o644)
        in
        ok (V.close fs fd)
      done)
    ()

(* Unlink of pre-created one-block files. *)
let exp_unlink ~ops () =
  in_world ~ops
    ~setup:(fun fs ->
      ok (V.mkdir fs "/d" 0o755);
      for i = 1 to ops do
        ok (V.write_file fs (Printf.sprintf "/d/u%d" i) ~mode:0o644 block)
      done)
    ~measured:(fun { FL.fs; _ } ->
      for i = 1 to ops do
        ok (V.unlink fs (Printf.sprintf "/d/u%d" i))
      done)
    ()

(* Same-directory rename of pre-created files (the MWRL op). *)
let exp_rename ~ops () =
  in_world ~ops
    ~setup:(fun fs ->
      ok (V.mkdir fs "/d" 0o755);
      for i = 1 to ops do
        ok (V.write_file fs (Printf.sprintf "/d/r%d" i) ~mode:0o644 "")
      done)
    ~measured:(fun { FL.fs; _ } ->
      for i = 1 to ops do
        ok
          (V.rename fs
             (Printf.sprintf "/d/r%d" i)
             (Printf.sprintf "/d/rn%d" i))
      done)
    ()

(* Same-directory renames to absent names whose second-level pages
   already exist (each destination shares its source's first-level slot):
   the destination's lookups, the walk's and the one under the lease, miss
   in a live page.  Every line is evicted before each rename, as a run of
   kernel entries would leave the cache, so each miss pays for the inline
   lines it reads. *)
let exp_rename_miss ~ops () =
  let dst src =
    let slot = Zofs.Layout.(l1_index (dir_hash src)) in
    let rec pick j =
      let name = Printf.sprintf "%s_m%d" src j in
      if Zofs.Layout.(l1_index (dir_hash name)) = slot then name else pick (j + 1)
    in
    pick 0
  in
  let srcs = List.init ops (fun i -> Printf.sprintf "s%d" i) in
  in_world ~ops
    ~setup:(fun fs ->
      ok (V.mkdir fs "/d" 0o755);
      List.iter (fun n -> ok (V.write_file fs ("/d/" ^ n) ~mode:0o644 "")) srcs)
    ~measured:(fun { FL.fs; device; _ } ->
      List.iter
        (fun src ->
          for _ = 1 to 8 do
            Nvm.Device.pollute_cache device
          done;
          ok (V.rename fs ("/d/" ^ src) ("/d/" ^ dst src)))
        srcs)
    ()

(* Shrinking truncate of 8-block files (the Trunc-intention path). *)
let exp_truncate ~ops () =
  in_world ~ops
    ~setup:(fun fs ->
      ok (V.mkdir fs "/d" 0o755);
      for i = 1 to ops do
        let fd =
          ok
            (V.openf fs
               (Printf.sprintf "/d/t%d" i)
               [ Ft.O_CREAT; Ft.O_WRONLY ] 0o644)
        in
        for _ = 1 to 8 do
          ignore (ok (V.write fs fd block))
        done;
        ok (V.close fs fd)
      done)
    ~measured:(fun { FL.fs; _ } ->
      for i = 1 to ops do
        ok (V.truncate fs (Printf.sprintf "/d/t%d" i) 4096)
      done)
    ()

(* Names that all hash to the first-level slot of [seed]: once more than
   16 of them live in one directory they spill from the second-level page's
   inline area into its bucket chains. *)
let same_l1_slot_names ~seed n =
  let slot = Zofs.Layout.(l1_index (dir_hash seed)) in
  let rec go i acc k =
    if k = 0 then List.rev acc
    else
      let name = Printf.sprintf "%s%d" seed i in
      if Zofs.Layout.(l1_index (dir_hash name)) = slot then
        go (i + 1) (name :: acc) (k - 1)
      else go (i + 1) acc k
  in
  go 0 [] n

(* A 96-entry directory (read-large's readdir) and one whose 48 entries
   share one first-level slot and so fill bucket chains. *)
let listed_dirs = [ ("/wide", 96); ("/chained", 48) ]

let make_listed_dirs fs =
  ok (V.mkdir fs "/wide" 0o755);
  for i = 0 to 95 do
    ok (V.write_file fs (Printf.sprintf "/wide/f%02d" i) ~mode:0o644 "")
  done;
  ok (V.mkdir fs "/chained" 0o755);
  List.iter
    (fun n -> ok (V.write_file fs ("/chained/" ^ n) ~mode:0o644 ""))
    (same_l1_slot_names ~seed:"c" 48)

(* A [blocks]-block file written 4 KB at a time. *)
let write_blocks fs path blocks =
  let fd = ok (V.openf fs path [ Ft.O_CREAT; Ft.O_WRONLY ] 0o644) in
  for _ = 1 to blocks do
    ignore (ok (V.write fs fd block))
  done;
  ok (V.close fs fd)

let exp_readdir ~rounds () =
  in_world ~ops:(rounds * List.length listed_dirs)
    ~setup:make_listed_dirs
    ~measured:(fun { FL.fs; _ } ->
      for _ = 1 to rounds do
        List.iter
          (fun (d, n) ->
            let got = List.length (ok (V.readdir fs d)) in
            if got <> n then
              failwith (Printf.sprintf "perf_gate: readdir %s: %d entries" d got))
          listed_dirs
      done)
    ()

(* The offline scan of paper §6.5 over one coffer holding both listed
   directories and a 40-block file, whose last 8 blocks sit behind an
   indirect page. *)
let exp_recovery () =
  in_world ~ops:1
    ~setup:(fun fs ->
      make_listed_dirs fs;
      write_blocks fs "/indirect" 40)
    ~measured:(fun inst ->
      ignore (Zofs.Recovery.recover_all (Option.get inst.FL.kernfs)))
    ()

(* The offline scan over more coffers than a process has MPK keys: "/"
   with four files, and 20 sub-coffers (directories whose mode differs
   from their parent's), each holding four one-block files. *)
let exp_recovery_multi_coffer () =
  in_world ~ops:1
    ~setup:(fun fs ->
      for f = 0 to 3 do
        ok (V.write_file fs (Printf.sprintf "/r%d" f) ~mode:0o644 block)
      done;
      for d = 0 to 19 do
        let dir = Printf.sprintf "/c%02d" d in
        ok (V.mkdir fs dir 0o700);
        for f = 0 to 3 do
          ok (V.write_file fs (Printf.sprintf "%s/f%d" dir f) ~mode:0o600 block)
        done
      done)
    ~measured:(fun inst ->
      ignore (Zofs.Recovery.recover_all (Option.get inst.FL.kernfs)))
    ()

(* Truncate to 0 of 64-block files: 32 direct blocks and 32 behind the
   indirect page, whose whole pointer array the shrink walks. *)
let exp_truncate_indirect ~ops () =
  in_world ~ops
    ~setup:(fun fs ->
      for i = 1 to ops do
        write_blocks fs (Printf.sprintf "/ti%d" i) 64
      done)
    ~measured:(fun { FL.fs; _ } ->
      for i = 1 to ops do
        ok (V.truncate fs (Printf.sprintf "/ti%d" i) 0)
      done)
    ()

(* One process cycles stat, then open+pread+close, over 20 sub-coffers of
   ~70 pages, more than its 15 MPK keys: an access that finds its coffer
   evicted pays a remap that unmaps the victim in the same syscall and
   leaves its PTEs pending, each installed on first touch, but for the
   coffer's three header pages, which the map installs (DESIGN.md §17).
   That costs 4,001 sim-ns/op here: 4,813 when the eviction was its own
   syscall after a failed map and the header pages faulted in, 12,807
   when those remaps also populated.  After every op the process's page
   table is audited against its mappings ([Kernfs.pte_violations]), so a
   fault that installs a page outside the faulting coffer, or under
   another key, is a violation; so is a failed op.  Round [r] preads the
   blocks [blocks r d] of the file in coffer [d], one open for them all.
   [fault_handler], when given, replaces KernFS's demand-fault handler
   once set-up is done (the negatives plant a broken one). *)
let remap_coffers = 20
let remap_file_pages = 64

(* After an op of process [pid]: a failed op, and every page-table
   violation, is recorded in [violations]. *)
let audit kfs ~pid violations what r =
  (match r with
  | Ok () -> ()
  | Error e ->
      violations :=
        Printf.sprintf "%s: %s" what (Treasury.Errno.to_string e) :: !violations);
  violations :=
    List.rev_append (Treasury.Kernfs.pte_violations kfs ~pid) !violations

let exp_remap_under_key_pressure ?fault_handler
    ?(blocks = fun r d -> [ (r + d) mod remap_file_pages ]) ~rounds () =
  let violations = ref [] in
  let m =
    in_world ~ops:(rounds * remap_coffers * 2)
      ~setup:(fun fs ->
        for d = 0 to remap_coffers - 1 do
          let dir = Printf.sprintf "/k%02d" d in
          ok (V.mkdir fs dir 0o700);
          ok
            (V.write_file fs (dir ^ "/f") ~mode:0o600
               (String.make (remap_file_pages * 4096) 'p'))
        done)
      ~measured:(fun inst ->
        let fs = inst.FL.fs and kfs = Option.get inst.FL.kernfs in
        let mpk = Treasury.Kernfs.mpk kfs in
        Option.iter (fun h -> Mpk.set_demand_fault mpk (h mpk)) fault_handler;
        let pid = (Sim.self_proc ()).Sim.Proc.pid in
        let buf = Bytes.create 4096 in
        let step = audit kfs ~pid violations in
        let pread path blocks =
          let ( let* ) = Result.bind in
          let* fd = V.openf fs path [ Ft.O_RDONLY ] 0 in
          let* () =
            List.fold_left
              (fun acc b ->
                let* () = acc in
                Result.map ignore (V.pread fs fd ~off:(b * 4096) buf 0 4096))
              (Ok ()) blocks
          in
          V.close fs fd
        in
        for r = 0 to rounds - 1 do
          for d = 0 to remap_coffers - 1 do
            let path = Printf.sprintf "/k%02d/f" d in
            step ("stat " ^ path) (Result.map ignore (V.stat fs path))
          done;
          for d = 0 to remap_coffers - 1 do
            let path = Printf.sprintf "/k%02d/f" d in
            step ("pread " ^ path) (pread path (blocks r d))
          done
        done)
      ()
  in
  (m, List.rev !violations)

(* The planted faults: a handler that installs the 16 pages from the
   faulting one, present under its key, whoever owns them (a fault-around
   that ignores the coffer's runs), and one that installs the faulting
   page under the next key.  The planted runs pread each file whole: its
   pages reach the end of its coffer's run, where that fault-around runs
   into the next coffer's pages. *)
let fault_around_blindly mpk ~pid ~page =
  let key = Option.value ~default:0 (Mpk.page_pkey mpk ~pid ~page) in
  let last = Nvm.Device.pages (Mpk.device mpk) - 1 in
  for p = page to min last (page + 15) do
    Mpk.map_page mpk ~pid ~page:p ~writable:true ~pkey:key
  done

let fault_under_next_key mpk ~pid ~page =
  let key = Option.value ~default:0 (Mpk.page_pkey mpk ~pid ~page) in
  Mpk.map_page mpk ~pid ~page ~writable:(Mpk.page_writable mpk ~pid ~page)
    ~pkey:((key mod (Mpk.nkeys - 1)) + 1)

let planted_fault fault_handler () =
  snd
    (exp_remap_under_key_pressure ~fault_handler
       ~blocks:(fun _ _ -> List.init remap_file_pages Fun.id)
       ~rounds:1 ())
  <> []

(* One process lists 20 sub-coffers in turn, each a 96-entry directory
   (read-large's readdir): more coffers than it has MPK keys, so a listing
   that finds its coffer evicted remaps it lazily, evicting another (13 of
   the 40 do), and the scan installs the directory's second-level pages
   with one [Kernfs.prefault] instead of a demand fault each.  The page
   table is audited after every listing, as in remap-under-key-pressure;
   a listing that fails or misses an entry is a violation too.  [ufs]
   replaces the µFS (the negative plants a broken prefault). *)
let listed_coffers = 20
let listed_entries = 96

let exp_readdir_after_remap ?ufs ~rounds () =
  let violations = ref [] in
  let m =
    in_world ?ufs ~ops:(rounds * listed_coffers)
      ~setup:(fun fs ->
        for d = 0 to listed_coffers - 1 do
          let dir = Printf.sprintf "/l%02d" d in
          ok (V.mkdir fs dir 0o700);
          for i = 0 to listed_entries - 1 do
            ok (V.write_file fs (Printf.sprintf "%s/f%02d" dir i) ~mode:0o600 "")
          done
        done)
      ~measured:(fun inst ->
        let fs = inst.FL.fs and kfs = Option.get inst.FL.kernfs in
        let step = audit kfs ~pid:(Sim.self_proc ()).Sim.Proc.pid violations in
        for _ = 1 to rounds do
          for d = 0 to listed_coffers - 1 do
            let dir = Printf.sprintf "/l%02d" d in
            step ("readdir " ^ dir)
              (Result.bind (V.readdir fs dir) (fun l ->
                   if List.length l = listed_entries then Ok ()
                   else Error Treasury.Errno.EIO))
          done
        done)
      ()
  in
  (m, List.rev !violations)

(* The planted prefault: it installs the 16 pages from each page it is
   handed, present under that page's key, pending or not and whoever owns
   them ([fault_around_blindly] for each).  The window past a directory's
   last second-level pages runs into the next coffer's pages. *)
module Blind_prefault_ufs = struct
  include Zofs.Ufs

  let readdir =
    readdir_with ~prefault:(fun kfs ~pages ->
        let mpk = Treasury.Kernfs.mpk kfs in
        let pid = (Sim.self_proc ()).Sim.Proc.pid in
        List.iter (fun page -> fault_around_blindly mpk ~pid ~page) pages)
end

let planted_prefault () =
  snd (exp_readdir_after_remap ~ufs:(module Blind_prefault_ufs) ~rounds:2 ())
  <> []

(* Like [in_world], but [nprocs] tenant processes.  Each tenant is a
   fresh [Sim.Proc] with its own FSLib built over the one shared KernFS —
   so every op crosses the syscall gate of its own process and contends
   for the shared coffer's lease against the other 63.  The sim schedules
   tenants by (time, seq): deterministic, so the committed baseline pins
   the cross-process interleaving cost exactly.  Tenants carry an obs
   label keyed by their index (not their pid — pids are a global counter,
   not stable across runs) so zofs_top/zofs_stat attribute latency per
   tenant when obs is enabled. *)
let in_shared_world ~nprocs ~ops_per_proc ~setup ~worker () =
  let world = Sim.create () in
  let result = ref None in
  Sim.spawn world
    ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ())
    ~name:"shared-setup"
    (fun () ->
      let inst = FL.make ~pages:16384 FL.Zofs in
      let kfs = Option.get inst.FL.kernfs in
      setup inst.FL.fs;
      let stop = measure ~ops:(nprocs * ops_per_proc) inst in
      let live = ref nprocs in
      for p = 0 to nprocs - 1 do
        Sim.spawn world
          ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ())
          ~name:(Printf.sprintf "tenant-%d" p)
          (fun () ->
            Obs.set_tenant p;
            let fs = FL.zofs_fslib kfs in
            let run_op = worker fs p in
            for i = 0 to ops_per_proc - 1 do
              run_op i;
              Sim.advance 200
            done;
            decr live;
            (* The last tenant to drain closes the measured phase.  Not a
               join by the setup thread: [Sim.live_threads] would still
               count it, parked, and that count prices NVM write
               bandwidth and [coffer_enlarge]. *)
            if !live = 0 then result := Some (stop ()))
      done);
  Sim.run world;
  Option.get !result

(* 64 processes appending 4 KB blocks to one shared file: the Table 2
   worst case, dominated by lease handoff between processes. *)
let exp_shared_append ~nprocs ~ops_per_proc () =
  in_shared_world ~nprocs ~ops_per_proc
    ~setup:(fun fs ->
      ok (V.write_file fs Workloads.Shared.file ~mode:0o644 ""))
    ~worker:Workloads.Shared.append ()

(* 64 processes creating empty files in one shared directory. *)
let exp_shared_create ~nprocs ~ops_per_proc () =
  in_shared_world ~nprocs ~ops_per_proc
    ~setup:(fun fs -> ok (V.mkdir fs Workloads.Shared.dir 0o755))
    ~worker:Workloads.Shared.create ()

let experiments =
  [
    ("append", fun () -> exp_append ~ops:128 ());
    ("create", fun () -> exp_create ~ops:48 ());
    ("unlink", fun () -> exp_unlink ~ops:48 ());
    ("rename", fun () -> exp_rename ~ops:48 ());
    ("rename-miss", fun () -> exp_rename_miss ~ops:48 ());
    ("truncate", fun () -> exp_truncate ~ops:24 ());
    ("readdir", fun () -> exp_readdir ~rounds:4 ());
    ("recovery", exp_recovery);
    ("recovery-multi-coffer", exp_recovery_multi_coffer);
    ("truncate-indirect", fun () -> exp_truncate_indirect ~ops:4 ());
    ( "shared-append-64p",
      fun () -> exp_shared_append ~nprocs:64 ~ops_per_proc:4 () );
    ( "shared-create-64p",
      fun () -> exp_shared_create ~nprocs:64 ~ops_per_proc:4 () );
  ]

let run_all () =
  List.map
    (fun (name, f) -> { r_name = name; r_m = f (); r_violations = [] })
    experiments
  @
  List.map
    (fun (name, f) ->
      let r_m, r_violations = f () in
      { r_name = name; r_m; r_violations })
    [
      ("remap-under-key-pressure", fun () -> exp_remap_under_key_pressure ~rounds:4 ());
      ("readdir-after-remap", fun () -> exp_readdir_after_remap ~rounds:2 ());
    ]

let to_json results =
  let metrics m =
    [
      ("ops", Gate.int m.ops);
      ("sim_ns", Gate.int m.sim_ns);
      ("flushes", Gate.int m.flushes);
      ("redundant_flushes", Gate.int m.redundant_flushes);
      ("fences", Gate.int m.fences);
      ("redundant_fences", Gate.int m.redundant_fences);
      ("crossings", Gate.int m.crossings);
      ("faults", Gate.int m.faults);
      ("enlarge_calls", Gate.int m.enlarge_calls);
    ]
  in
  J.Obj
    [
      ("schema", J.Str "zofs-perf-1");
      ( "experiments",
        J.Arr
          (List.map
             (fun r -> J.Obj (("name", J.Str r.r_name) :: metrics r.r_m))
             results) );
    ]

(* ---- rendering ---------------------------------------------------------- *)

let render_results results =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "  %-24s %6s %12s %10s %9s %10s %10s %9s\n" "experiment"
       "ops" "sim-ns/op" "flush/op" "fence/op" "cross/op" "fault/op" "enlarge");
  List.iter
    (fun r ->
      let m = r.r_m in
      Buffer.add_string b
        (Printf.sprintf "  %-24s %6d %12.0f %10.2f %9.2f %10.3f %10.3f %9d\n"
           r.r_name m.ops (per_op m m.sim_ns) (per_op m m.flushes)
           (per_op m m.fences) (per_op m m.crossings) (per_op m m.faults)
           m.enlarge_calls))
    results;
  Buffer.contents b

let gate =
  {
    Gate.name = "perf";
    run =
      (fun () ->
        let results = run_all () in
        print_string (render_results results);
        ( to_json results,
          List.concat_map
            (fun r -> List.map (fun v -> r.r_name ^ ": " ^ v) r.r_violations)
            results ));
    negatives =
      [
        ("fault_installs_foreign_pages", planted_fault fault_around_blindly);
        ("fault_installs_under_wrong_key", planted_fault fault_under_next_key);
        ("prefault_installs_unpending_pages", planted_prefault);
      ];
  }
