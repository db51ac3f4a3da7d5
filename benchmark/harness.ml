(* One world of one workload: build the file system in a fresh simulated
   world, run the workload's threads, then crash, recover and audit.  Also
   the metric arithmetic every workload shares. *)

type ctx = {
  scale : int;  (* 1 = full size; the smoke test runs at 1/50 *)
  seed : int;
  probe : Probe.t option;  (* Some _ in a traced world *)
  selfcheck : bool;
  setup_only : bool;  (* build the file system, time it, run nothing *)
}

let scaled c n = max 1 (n / c.scale)

(* What one world measured: host times, the raw latency samples (one
   population for a closed loop, one per rung for served-open), failures
   per population, and the simulated rate and recovery time.  A run pools
   several worlds, each from its own seed, into one set of metrics. *)
type world = {
  setup_s : float;  (* host CPU seconds to build and populate the FS *)
  host_rates : float list;  (* ops per host CPU ms of the measured phase, one per slice *)
  ops : int;
  failed : int;
  lat : Stats.t array;
  fails : int array;
  rate : float;  (* completed ops per simulated ns *)
  recovery_ns : int;
  layers : (string * string * float) list;  (* name, unit, value *)
  violations : string list;
}

(* Latency limit for [max_kops_at_slo]. *)
let slo_ns = 50_000

(* Bounded list of failure messages: the count is what matters, the first
   few name the problem. *)
type errors = { mutable n : int; mutable msgs : string list }

let errors () = { n = 0; msgs = [] }

let fail e msg =
  e.n <- e.n + 1;
  if e.n <= 20 then e.msgs <- msg :: e.msgs

let messages e = List.rev e.msgs

(* Record one op that started at [t0]: its latency, or — when it failed —
   an infinite one, so a failure misses every latency limit. *)
let record lat errs t0 = function
  | Ok () -> Stats.add lat (Sim.now () - t0)
  | Error msg ->
      fail errs msg;
      Stats.add lat max_int

(* After recovery: [path] holds [f]'s acknowledged cells, whole. *)
let check_file errs fs path (f : Model.file) =
  match World.read_all fs path with
  | Error e -> fail errs (Printf.sprintf "%s: %s" path (Treasury.Errno.to_string e))
  | Ok b when Bytes.length b <> f.Model.ncells * Model.cell ->
      fail errs (Printf.sprintf "%s: %d bytes after recovery" path (Bytes.length b))
  | Ok b ->
      for c = 0 to f.Model.ncells - 1 do
        Option.iter (fail errs) (Model.check_durable f c b (c * Model.cell))
      done

(* Op results as the workloads check them: an errno or a wrong answer. *)
let ( let* ) = Result.bind

let expect what = function
  | Ok v -> Ok v
  | Error e -> Error (Printf.sprintf "%s: %s" what (Treasury.Errno.to_string e))

let expect_len what n = function
  | Ok m when m = n -> Ok ()
  | Ok m -> Error (Printf.sprintf "%s: %d bytes, expected %d" what m n)
  | Error e -> Error (Printf.sprintf "%s: %s" what (Treasury.Errno.to_string e))

(* Host CPU time of the measured phase, sampled every [slice] completed
   ops.  Load from a neighbour on a shared machine only ever slows a
   slice down, so the run reports a fast slice rate (the 90th percentile),
   not the mean. *)
let slice = 5000

type clock = { mutable count : int; mutable mark : float; mutable rates : float list }

let clock = { count = 0; mark = 0.; rates = [] }

(* Called by the workloads once per completed op. *)
let tick () =
  clock.count <- clock.count + 1;
  if clock.count mod slice = 0 then begin
    let now = Sys.time () in
    if now > clock.mark then
      clock.rates <- float_of_int slice /. ((now -. clock.mark) *. 1000.) :: clock.rates;
    clock.mark <- now
  end

type outcome = {
  o_setup_s : float;
  o_host_rates : float list;
  o_recovery_ns : int;
  o_violations : string list;  (* from recovery and the durability audit *)
}

(* [run c ~pages ~threads ~setup ~start ~check ~final_write]:
   - [setup w fsw] populates the fresh file system from the driver thread
     of world [w] and returns the workload's state;
   - [start w fsw st ~go ~finish] spawns the workload's [threads] client
     threads.  Each warms up (builds its FSLib, opens what it keeps open),
     then calls [go ()]: threads park there until the last one arrives, and
     the measured phase starts for all of them at that instant.  Each calls
     [finish fs] with its unwrapped FSLib when done;
   - with [c.selfcheck], the last [finish] arms the fence-drop injection
     and makes one more acknowledged write ([final_write]) that the crash
     must lose;
   - after the crash, [check st fs] audits durability. *)
let run c ~pages ~threads ~setup ~start ~check ~final_write =
  let host0 = Sys.time () in
  let setup_s = ref 0. in
  let t_crash = ref 0 and finished = ref false in
  let state = ref None in
  let w = Sim.create ~seed:(Int64.of_int c.seed) () in
  Sim.spawn w ~proc:(World.proc ()) ~name:"driver" (fun () ->
      let fsw = World.make ~pages ~seed:c.seed c.probe in
      let st = setup w fsw in
      state := Some (fsw, st);
      setup_s := Sys.time () -. host0;
      let line = Sim.Mutex.create ~name:"start-line" () in
      Sim.Mutex.lock line;
      let arriving = ref threads and running = ref threads in
      let go () =
        decr arriving;
        if !arriving = 0 then begin
          clock.count <- 0;
          clock.mark <- Sys.time ();
          clock.rates <- [];
          Option.iter (fun p -> Probe.window_begin p fsw.World.kfs fsw.World.dev) c.probe;
          Sim.Mutex.unlock line
        end
        else begin
          (* woken by a handoff at the release instant; pass it on *)
          Sim.Mutex.lock line;
          Sim.Mutex.unlock line
        end
      in
      let finish fs =
        decr running;
        if !running = 0 then begin
          Option.iter (fun p -> Probe.window_end p fsw.World.kfs fsw.World.dev) c.probe;
          if c.selfcheck then begin
            Nvm.Device.inject_drop_fences fsw.World.dev max_int;
            final_write st fs
          end;
          t_crash := Sim.now ();
          finished := true
        end
      in
      if not c.setup_only then start w fsw st ~go ~finish);
  Sim.run w;
  match !state with
  | Some _ when c.setup_only ->
      { o_setup_s = !setup_s; o_host_rates = []; o_recovery_ns = 0; o_violations = [] }
  | Some (fsw, st) when !finished ->
      let recovery_ns, v = World.crash_and_recover fsw ~at:!t_crash ~check:(check st) in
      {
        o_setup_s = !setup_s;
        o_host_rates = clock.rates;
        o_recovery_ns = recovery_ns;
        o_violations = v;
      }
  | _ -> failwith "the workload's threads did not finish"

(* Spawn a process whose leader builds the process's FSLib and then runs
   [body fs 0]; threads [1 .. threads-1] of the same process share that
   FSLib ([body fs i]).  [on_fslib] sees the dispatcher first (the serving
   plane attaches its admission gate there). *)
let spawn_process w ~name ~threads ?(on_fslib = fun _ -> ()) kfs body =
  let proc = World.proc () in
  Sim.spawn w ~proc ~name:(name ^ "-0") (fun () ->
      let disp, fs = World.fslib kfs in
      on_fslib disp;
      for i = 1 to threads - 1 do
        Sim.spawn w ~proc ~name:(Printf.sprintf "%s-%d" name i) (fun () -> body fs i)
      done;
      body fs 0)

(* ---- shared metric arithmetic ----------------------------------------- *)

(* A closed loop's record: every op's latency and completion time, and
   when the client threads started and finished. *)
type loop = {
  lat : Stats.t;
  done_at : Stats.t;
  errs : errors;
  mutable last_start : int;
  mutable first_end : int;
}

let loop () =
  { lat = Stats.create (); done_at = Stats.create (); errs = errors (); last_start = 0;
    first_end = max_int }

(* One client thread's closed loop: [think k] (idle time before op [k]),
   then [f k op], timed. *)
let drive l ?(think = fun _ -> ()) ops f =
  l.last_start <- max l.last_start (Sim.now ());
  Array.iteri
    (fun k op ->
      think k;
      let s = Sim.now () in
      record l.lat l.errs s (f k op);
      Stats.add l.done_at (Sim.now ());
      tick ())
    ops;
  l.first_end <- min l.first_end (Sim.now ())

(* Ops per simulated ns while every client thread was running: stragglers
   and early finishers neither stretch nor shrink the window. *)
let steady_rate l =
  let a = l.last_start and b = l.first_end in
  let n = ref 0 in
  for i = 0 to Stats.count l.done_at - 1 do
    let t = l.done_at.Stats.a.(i) in
    if t > a && t <= b then incr n
  done;
  if b > a then float_of_int !n /. float_of_int (b - a) else 0.

let mean_of f (ws : world list) =
  List.fold_left (fun a w -> a +. f w) 0. ws /. float_of_int (List.length ws)

(* Latency of a sorted population.  The simulator charges fixed costs, so
   a latency population is mostly plateaus: an exact order statistic sits
   on one (the same value for every seed) or on the edge between two
   (jumping between them from seed to seed).  Each statistic is therefore
   the mean of the samples in a band of ranks around it: the middle half
   for the centre (the interquartile mean), 98.75-99.25% for p99 and
   99.85-99.95% for p99.9.  Still exact arithmetic on sorted samples —
   no histogram buckets. *)
let latency_metrics s =
  [
    ("iqm_ns", Stats.window_mean s 0.25 0.75);
    ("p99_ns", Stats.window_mean s 0.9875 0.9925);
    ("p999_ns", Stats.window_mean s 0.9985 0.9995);
  ]

(* The end-to-end metrics of a closed loop, pooled over worlds: latency of
   every op (a failed op counts as an infinite latency), ops per simulated
   second while every client ran, the rate of ops that met the latency
   limit, and recovery time. *)
let closed_metrics (ws : world list) =
  let s = Stats.sorted (Stats.concat (List.map (fun (w : world) -> w.lat.(0)) ws)) in
  let n = Array.length s in
  let within = ref 0 in
  Array.iter (fun v -> if v <= slo_ns then incr within) s;
  let kops = mean_of (fun w -> w.rate) ws *. 1e6 in
  ( latency_metrics s
    @ [
        ("throughput_kops", kops);
        ("max_kops_at_slo", if n = 0 then 0. else kops *. float_of_int !within /. float_of_int n);
        ("recovery_ms", mean_of (fun w -> float_of_int w.recovery_ns) ws /. 1e6);
      ],
    [ ("latency_samples", n) ] )

(* The world record of a closed-loop workload. *)
let closed_world l (o : outcome) =
  {
    setup_s = o.o_setup_s;
    host_rates = o.o_host_rates;
    ops = Stats.count l.lat;
    failed = l.errs.n;
    lat = [| l.lat |];
    fails = [| l.errs.n |];
    rate = steady_rate l;
    recovery_ns = o.o_recovery_ns;
    layers = [];
    violations = messages l.errs @ o.o_violations;
  }

(* Per-layer metrics every workload shares, from a traced world's probe;
   [ops] is the workload's op (or request) count. *)
let vfs_ops =
  [ "open"; "close"; "pread"; "pwrite"; "write"; "stat"; "unlink"; "rename";
    "ftruncate"; "readdir" ]

let layer_metrics (p : Probe.t) ~ops =
  let o = float_of_int (max 1 ops) in
  let per_op x = float_of_int x /. o in
  let per_kop x = 1000. *. per_op x in
  let obs = Probe.obs p and delta = Probe.delta p in
  let acq = obs "lease.acquires" and retries = obs "lease.retries" in
  let lat op q =
    match Hashtbl.find_opt p.Probe.vfs_lat op with
    | Some s -> float_of_int (Stats.percentile s q)
    | None -> 0.
  in
  [
    ("fslib.ns_per_op", "ns", per_op (obs "layer.fslib_ns"));
    ("kernfs.ns_per_op", "ns", per_op (obs "layer.kernfs_ns"));
    ("lease.wait_ns_per_op", "ns", per_op (obs "lease.wait_ns"));
    ( "lease.acquire_success_ratio",
      "ratio",
      if acq + retries = 0 then 1. else float_of_int acq /. float_of_int (acq + retries) );
    ("lease.steals", "count", float_of_int (obs "lease.steals"));
    ("lease.aborts", "count", float_of_int (obs "lease.aborts"));
    ("kernfs.crossings_per_op", "1/op", per_op (delta "crossings"));
    ("kernfs.enlarge_calls_per_kop", "1/kop", per_kop (delta "enlarges"));
    ("balloc.slot_lost_enlarges", "count", float_of_int (obs "balloc.slot_lost_enlarges"));
    ("zofs.coffer_maps_per_kop", "1/kop", per_kop (obs "coffer.maps"));
    ("zofs.coffer_evictions_per_kop", "1/kop", per_kop (obs "coffer.evictions"));
    ("zofs.flushes_per_op", "1/op", per_op (delta "flushes"));
    ("zofs.fences_per_op", "1/op", per_op (delta "fences"));
    ("zofs.redundant_flushes_per_op", "1/op", per_op (delta "redundant_flushes"));
    ( "nvm.bytes_written_per_user_byte",
      "B/B",
      if p.Probe.user_bytes = 0 then 0.
      else float_of_int p.Probe.bytes_written /. float_of_int p.Probe.user_bytes );
    ("nvm.media_ns_per_op", "ns", per_op p.Probe.media_ns);
    ("nvm.reads_per_op", "1/op", per_op p.Probe.loads);
    ("mpk.windows_per_op", "1/op", per_op p.Probe.windows);
    ("span.serve.self_ns_per_op", "ns", per_op (Probe.self_ns p "serve"));
    ("span.vfs.self_ns_per_op", "ns", per_op (Probe.self_ns p "vfs"));
  ]
  @ List.concat_map
      (fun op ->
        [
          (Printf.sprintf "dispatcher.%s.p50_ns" op, "ns", lat op 0.50);
          (Printf.sprintf "dispatcher.%s.p99_ns" op, "ns", lat op 0.99);
        ])
      vfs_ops

(* The traced run's conservation checks: the benchmark's own total of Vfs
   call time must match Obs [layer.total_ns], and Obs's four layers must
   sum to it, each within 0.1%. *)
let conservation (p : Probe.t) =
  let obs = Probe.obs p in
  let total = obs "layer.total_ns" in
  let parts =
    obs "layer.fslib_ns" + obs "layer.kernfs_ns" + obs "layer.media_ns"
    + obs "layer.lease_ns"
  in
  let close a b = abs (a - b) * 1000 <= max a b in
  (if close p.Probe.vfs_ns total then []
   else
     [
       Printf.sprintf "conservation: Vfs calls timed %d ns, Obs layer.total_ns %d ns"
         p.Probe.vfs_ns total;
     ])
  @ (if close parts total then []
     else
       [
         Printf.sprintf "conservation: fslib+kernfs+media+lease = %d ns, total %d ns"
           parts total;
       ])
  @
  if p.Probe.open_count = 0 then []
  else [ Printf.sprintf "trace: %d spans never closed" p.Probe.open_count ]
