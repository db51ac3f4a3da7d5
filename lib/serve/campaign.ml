(* The overload campaign: drives the serving frontend (Serve) with
   thousands of simulated clients and checks the containment promises of
   the serving plane the way lib/chaos checks the fault-domain promises:

     herd        1024 clients (16 processes x 64 threads) thundering onto
                 four hot files at once; the server must stay inside its
                 slot budget, shed with honest retry-afters, and account
                 every request
     mixed       a high-priority tenant sharing the server with 16
                 flooding tenants offering >= 2x the measured sustainable
                 load; WFQ + bounded queues must keep the high-priority
                 p99 inside its SLO and nobody fully starved
     hotfile     write fan-in on ONE shared inode with tight deadlines:
                 the end-to-end deadline must reach lease acquisition
                 (lease.aborts > 0) and every timeout must be accounted
     slow        an expensive-request tenant next to a cheap-request
                 tenant: WFQ cost charging must keep the cheap tenant's
                 latency independent of the elephant next door
     kills       clients SIGKILLed mid-request (queued and executing):
                 slots and tickets are reclaimed, lost <= kills, and the
                 server keeps serving afterwards
     degrade     the tier machine round-trips: coffer quarantine floors
                 the tier at read-only; a storm of timeouts drives it
                 down; recovery steps it back to normal

   True to the ZoFS model, every client PROCESS carries its own FSLib
   (dispatcher + µFS session) in its own address space; the server's
   admission gate is attached to each dispatcher, and processes share
   nothing but the kernel and the NVM device.

   Every scenario runs in its own simulated world; the aggregated report
   is deterministic (all numbers derive from the virtual clock), which is
   what lets the @serve gate pin BENCH_serve.json byte-for-byte.

   The campaign is also its own negative self-check: rerunning the mixed
   scenario with admission disabled (a naive unbounded-FIFO server) MUST
   produce a starvation violation — proving the campaign can see the
   failure class the serving plane exists to prevent. *)

module K = Treasury.Kernfs
module V = Treasury.Vfs
module E = Treasury.Errno
module Ft = Treasury.Fs_types

type report = {
  c_clients : int;  (* client threads simulated, all scenarios *)
  c_requests : int;  (* requests submitted *)
  c_done_ok : int;
  c_done_err : int;
  c_shed : int;
  c_timed_out : int;
  c_lost : int;
  c_kills : int;  (* client threads killed by injection *)
  c_capacity_rps : int;  (* measured sustainable requests/sec *)
  c_overload_x100 : int;  (* mixed-scenario offered load / capacity *)
  c_hi_p99_ns : int;  (* high-priority p99 under overload *)
  c_hi_slo_ns : int;  (* its objective *)
  c_lease_aborts : int;  (* deadline gave up inside lease acquisition *)
  c_degrade_downs : int;
  c_degrade_ups : int;
  c_final_tier : string;  (* after the degrade round-trip *)
  c_violations : string list;
}

(* ---- scenario plumbing --------------------------------------------------- *)

let with_world f =
  let w = Sim.create () in
  let proc = Sim.Proc.create ~uid:0 ~gid:0 () in
  let out = ref None in
  Sim.spawn w ~proc ~name:"serve-driver" (fun () -> out := Some (f w));
  Sim.run w;
  match !out with Some v -> v | None -> failwith "serve campaign: driver died"

(* One FSLib for the calling process (fs_mount registers that pid). *)
let fslib_for kfs =
  let disp = Workloads.Fslab.zofs_dispatcher kfs in
  (disp, Treasury.Dispatcher.as_vfs disp)

let make_fs ~pages =
  let dev, kfs =
    Workloads.Fslab.make_zofs ~nbuckets:1024 ~pages ~perf:Nvm.Perf.optane ()
  in
  let disp, fs = fslib_for kfs in
  (dev, kfs, disp, fs)

let ok = function
  | Ok v -> v
  | Error e -> failwith ("serve campaign setup: " ^ E.to_string e)

(* Spawn a fresh client process: a leader thread builds the process's own
   FSLib (the file system lives in the client's address space), attaches
   the server's admission gate to its dispatcher, then spawns the other
   workers.  [body fs i] runs in every worker, i in [0, threads); workers
   after the leader start [stagger] ns apart.  Returns the process's pid. *)
let spawn_clients w kfs srv ~name ~threads ?(stagger = 0) body =
  let proc = Sim.Proc.create ~uid:0 ~gid:0 () in
  Sim.spawn w ~proc ~name:(name ^ "-0") (fun () ->
      let disp, fs = fslib_for kfs in
      Serve.attach_dispatcher srv disp;
      for i = 1 to threads - 1 do
        Sim.spawn w ~proc
          ~name:(Printf.sprintf "%s-%d" name i)
          ~at:(Sim.now () + (i * stagger))
          (fun () -> body fs i)
      done;
      body fs 0);
  proc.Sim.Proc.pid

(* ---- request bodies ------------------------------------------------------ *)

let read_req fs path =
  match V.openf fs path [ Ft.O_RDONLY ] 0 with
  | Error e -> Error e
  | Ok fd ->
      let buf = Bytes.create 256 in
      let r =
        match V.pread fs fd ~off:0 buf 0 256 with
        | Ok _ -> Ok ()
        | Error e -> Error e
      in
      ignore (V.close fs fd);
      r

let append_req fs path data =
  match V.openf fs path [ Ft.O_WRONLY; Ft.O_APPEND ] 0 with
  | Error e -> Error e
  | Ok fd ->
      let r =
        match V.write fs fd data with Ok _ -> Ok () | Error e -> Error e
      in
      ignore (V.close fs fd);
      r

(* In-place overwrite: a deliberately expensive request (lots of media
   lines) with zero space growth, so overload scenarios can run forever. *)
let overwrite_req fs path data =
  match V.openf fs path [ Ft.O_WRONLY ] 0 with
  | Error e -> Error e
  | Ok fd ->
      let r =
        match V.pwrite fs fd ~off:0 data with
        | Ok _ -> Ok ()
        | Error e -> Error e
      in
      ignore (V.close fs fd);
      r

let payload = String.make 64 's'
let big_block = String.make 32_768 'B'
let huge_block = String.make 65_536 'H'

(* Per-client outcome tallies folded into the report. *)
type tally = {
  mutable t_sub : int;
  mutable t_ok : int;
  mutable t_err : int;
  mutable t_shed : int;
  mutable t_timed : int;
  mutable t_bad_retry_after : int;  (* shed with retry_after <= 0 *)
}

let mk_tally () =
  { t_sub = 0; t_ok = 0; t_err = 0; t_shed = 0; t_timed = 0;
    t_bad_retry_after = 0 }

let count tally = function
  | Serve.Done (Ok ()) -> tally.t_ok <- tally.t_ok + 1
  | Serve.Done (Error _) -> tally.t_err <- tally.t_err + 1
  | Serve.Shed { retry_after; _ } ->
      tally.t_shed <- tally.t_shed + 1;
      if retry_after <= 0 then
        tally.t_bad_retry_after <- tally.t_bad_retry_after + 1
  | Serve.Timed_out _ -> tally.t_timed <- tally.t_timed + 1

(* Join every client thread of the processes [pids], dead or alive.  A
   leader has spawned all its workers by the time it ends. *)
let join pids =
  List.iter
    (fun pid ->
      Sim.join (List.hd (Sim.proc_tids pid));
      List.iter Sim.join (Sim.proc_tids pid))
    pids

(* The per-tenant books must balance exactly: submitted = done + errors +
   timeouts + sheds + lost.  Every scenario closes with this audit. *)
let audit_accounting ~name srv violation =
  List.iter
    (fun s ->
      if Serve.accounted s <> s.Serve.ts_submitted then
        violation
          (Printf.sprintf
             "%s: tenant %d books don't balance: submitted=%d accounted=%d"
             name s.Serve.ts_id s.Serve.ts_submitted (Serve.accounted s)))
    (Serve.tenant_stats srv)

let fold_stats srv acc =
  List.fold_left
    (fun (a, b, c, d, e, f) s ->
      ( a + s.Serve.ts_submitted,
        b + s.Serve.ts_done_ok,
        c + s.Serve.ts_done_err,
        d + Serve.shed_total s,
        e + s.Serve.ts_timed_out,
        f + s.Serve.ts_lost ))
    acc (Serve.tenant_stats srv)

(* ---- calibration: the sustainable service rate --------------------------- *)

(* Closed-loop clients saturating the slot pool with the same expensive
   request the overload scenarios use; completions/elapsed is the ceiling
   the mixed scenario must exceed.  Deterministic. *)
let mixed_inflight = 2

let calibrate ~ops_per_client =
  with_world (fun w ->
      let _dev, kfs, _disp, fs = make_fs ~pages:4096 in
      let srv = Serve.create ~max_inflight:mixed_inflight () in
      Serve.add_tenant srv ~id:0 ~weight:1 ~rate_per_ms:1_000_000
        ~burst:1_000_000 ~queue_cap:256 ();
      ok (V.mkdir fs "/cal" 0o755);
      for i = 0 to 15 do
        ignore
          (ok
             (V.write_file fs
                (Printf.sprintf "/cal/f%d" i)
                ~mode:0o644 huge_block))
      done;
      let t0 = Sim.now () in
      let pid =
        spawn_clients w kfs srv ~name:"cal" ~threads:16 (fun fs i ->
            Obs.set_tenant 0;
            let path = Printf.sprintf "/cal/f%d" i in
            for _ = 1 to ops_per_client do
              ignore
                (Serve.submit srv ~tenant_id:0 (fun () ->
                     overwrite_req fs path huge_block))
            done)
      in
      join [ pid ];
      let elapsed = Sim.now () - t0 in
      let total = 16 * ops_per_client in
      if elapsed = 0 then 0
      else int_of_float (float_of_int total /. (float_of_int elapsed /. 1e9)))

(* ---- scenario: thundering herd ------------------------------------------- *)

let herd ~procs ~threads_per violation =
  with_world (fun w ->
      let _dev, kfs, _disp, fs = make_fs ~pages:4096 in
      let srv = Serve.create ~max_inflight:16 () in
      let n_tenants = 4 in
      for i = 0 to n_tenants - 1 do
        Serve.add_tenant srv ~id:i ~weight:1 ~rate_per_ms:400 ~burst:64
          ~queue_cap:64 ()
      done;
      for i = 0 to 3 do
        ignore
          (ok
             (V.write_file fs
                (Printf.sprintf "/hot%d" i)
                ~mode:0o644 (String.make 512 'h')))
      done;
      let n = procs * threads_per in
      let tally = mk_tally () in
      join
        (List.init procs (fun p ->
             spawn_clients w kfs srv
               ~name:(Printf.sprintf "herd%d" p)
               ~threads:threads_per ~stagger:800
               (fun fs i ->
                 let cid = (p * threads_per) + i in
                 let tenant_id = cid mod n_tenants in
                 Obs.set_tenant tenant_id;
                 let path = Printf.sprintf "/hot%d" (cid mod 4) in
                 let give_up_at = Sim.now () + 80_000_000 in
                 let rec attempt tries =
                   tally.t_sub <- tally.t_sub + 1;
                   let o =
                     Serve.submit srv ~tenant_id ~write:false
                       ~deadline_ns:10_000_000 (fun () -> read_req fs path)
                   in
                   count tally o;
                   match o with
                   | Serve.Shed { retry_after; _ }
                     when tries < 6 && Sim.now () + retry_after < give_up_at ->
                       (* honest retry-after: wait it out, then try again *)
                       Sim.advance (retry_after + (cid mod 17 * 311));
                       attempt (tries + 1)
                   | _ -> ()
                 in
                 attempt 0)));
      if Serve.inflight srv <> 0 then
        violation "herd: slots leaked (inflight != 0 after drain)";
      if tally.t_ok < Serve.max_inflight srv then
        violation
          (Printf.sprintf "herd: only %d requests ever completed" tally.t_ok);
      if tally.t_shed = 0 then
        violation "herd: 1024 clients against 16 slots shed nothing";
      if tally.t_err > 0 then
        violation
          (Printf.sprintf "herd: %d requests failed outright" tally.t_err);
      if tally.t_bad_retry_after > 0 then
        violation
          (Printf.sprintf "herd: %d sheds carried retry_after <= 0"
             tally.t_bad_retry_after);
      (* no starvation: every tenant got at least a sliver of service *)
      List.iter
        (fun s ->
          if s.Serve.ts_done_ok = 0 then
            violation
              (Printf.sprintf "herd: tenant %d fully starved" s.Serve.ts_id))
        (Serve.tenant_stats srv);
      audit_accounting ~name:"herd" srv violation;
      (n, srv))

(* ---- scenario: mixed priorities at >= 2x sustainable load ---------------- *)

(* Also the negative self-check body: with [admission:false] the server
   degenerates to a naive unbounded FIFO and the starvation check below
   MUST fire. *)
let mixed ~admission ~capacity_rps ~floods ~per_flood ~duration_ns
    violation =
  with_world (fun w ->
      let _dev, kfs, _disp, fs = make_fs ~pages:8192 in
      let srv = Serve.create ~max_inflight:mixed_inflight ~admission () in
      (* tenant 0: high priority — weight 8 and budget for its whole rate;
         tenants 1..floods: flooding bulk writers on a short queue *)
      Serve.add_tenant srv ~id:0 ~weight:16 ~rate_per_ms:200 ~burst:32
        ~queue_cap:64 ();
      for i = 1 to floods do
        Serve.add_tenant srv ~id:i ~weight:1 ~rate_per_ms:100 ~burst:16
          ~queue_cap:4 ()
      done;
      ok (V.mkdir fs "/m" 0o755);
      ignore (ok (V.write_file fs "/m/f0" ~mode:0o644 (String.make 256 'm')));
      for i = 1 to floods do
        ignore
          (ok (V.write_file fs (Printf.sprintf "/m/f%d" i) ~mode:0o644
                 huge_block))
      done;
      Obs.Slo.define ~name:"serve-hi" ~op:"req" ~p99_target_ns:1_500_000;
      let snap0 = Obs.Snapshot.take () in
      let stop_at = Sim.now () + duration_ns in
      let n_hi = 16 in
      let n = n_hi + (floods * per_flood) in
      (* high-priority clients: open-loop, paced inside their quota *)
      let hi =
        spawn_clients w kfs srv ~name:"hi" ~threads:n_hi ~stagger:3_000
          (fun fs c ->
            Obs.set_tenant 0;
            while Sim.now () < stop_at do
              ignore
                (Serve.submit srv ~tenant_id:0 ~write:false
                   ~deadline_ns:1_500_000 (fun () -> read_req fs "/m/f0"));
              Sim.advance (90_000 + (c * 1_009))
            done)
      in
      (* flood clients: closed-loop expensive overwrites, resubmitting the
         moment a shed's retry-after allows *)
      join
        (hi
        :: List.init floods (fun i ->
               let fl = i + 1 in
               spawn_clients w kfs srv
                 ~name:(Printf.sprintf "flood%d" fl)
                 ~threads:per_flood ~stagger:1_500
                 (fun fs c ->
                   Obs.set_tenant fl;
                   let path = Printf.sprintf "/m/f%d" fl in
                   while Sim.now () < stop_at do
                     (match
                        Serve.submit srv ~tenant_id:fl (fun () ->
                            overwrite_req fs path huge_block)
                      with
                     | Serve.Shed { retry_after; _ } ->
                         Sim.advance (retry_after + 30_000)
                     | _ -> Sim.advance 2_000);
                     Sim.advance (1_000 + (c * 97))
                   done)));
      let req, _, _, _, _, _ = fold_stats srv (0, 0, 0, 0, 0, 0) in
      let offered_rps =
        int_of_float (float_of_int req /. (float_of_int duration_ns /. 1e9))
      in
      let overload_x100 =
        if capacity_rps = 0 then 0 else offered_rps * 100 / capacity_rps
      in
      if admission && overload_x100 < 200 then
        violation
          (Printf.sprintf
             "mixed: offered load only %d.%02dx the sustainable rate (want \
              >= 2x)"
             (overload_x100 / 100) (overload_x100 mod 100));
      (* the SLO verdict for the high-priority tenant *)
      let snap = Obs.Snapshot.diff snap0 (Obs.Snapshot.take ()) in
      let reports = Obs.Slo.evaluate snap in
      let hi_p99, hi_target =
        match
          List.find_opt
            (fun r -> r.Obs.Slo.s_name = "serve-hi" && r.Obs.Slo.s_tenant = "0")
            reports
        with
        | None ->
            violation "mixed: no SLO samples for the high-priority tenant";
            (0, 1_500_000)
        | Some r ->
            if r.Obs.Slo.s_burn > 1.0 then
              violation
                (Printf.sprintf
                   "mixed: high-priority SLO violated under overload: p99 %d \
                    ns (target %d), burn %.2f"
                   r.Obs.Slo.s_p99 r.Obs.Slo.s_target r.Obs.Slo.s_burn);
            (r.Obs.Slo.s_p99, r.Obs.Slo.s_target)
      in
      (* starvation checks — the teeth of the negative self-check: the
         high-priority tenant must get >= 90% of its requests served, the
         floods must not be starved outright (>= 1%) *)
      List.iter
        (fun s ->
          let sub = s.Serve.ts_submitted in
          let num, den = if s.Serve.ts_id = 0 then (9, 10) else (1, 200) in
          if sub > 0 && s.Serve.ts_done_ok * den < sub * num then
            violation
              (Printf.sprintf "mixed: tenant %d starved (%d/%d served)"
                 s.Serve.ts_id s.Serve.ts_done_ok sub))
        (Serve.tenant_stats srv);
      audit_accounting ~name:"mixed" srv violation;
      Obs.Slo.clear_definitions ();
      (n, srv, overload_x100, hi_p99, hi_target))

(* ---- scenario: hot-file write fan-in with tight deadlines ---------------- *)

let hotfile ~procs ~per_proc violation =
  with_world (fun w ->
      let _dev, kfs, _disp, fs = make_fs ~pages:4096 in
      (* slots exceed the herd's concurrency appetite: the contention this
         scenario is about lives at the LEASE, not in the queue *)
      let srv = Serve.create ~max_inflight:32 ~window_ns:50_000_000 () in
      Serve.add_tenant srv ~id:0 ~weight:1 ~rate_per_ms:5_000 ~burst:512
        ~queue_cap:256 ();
      ignore (ok (V.write_file fs "/fanin" ~mode:0o644 "seed"));
      let aborts_at () =
        match Obs.Snapshot.counter_value (Obs.Snapshot.take ()) "lease.aborts"
        with
        | Some v -> v
        | None -> 0
      in
      let aborts0 = aborts_at () in
      let writers = procs * per_proc in
      let tally = mk_tally () in
      join
        (List.init procs (fun p ->
             spawn_clients w kfs srv
               ~name:(Printf.sprintf "fan%d" p)
               ~threads:per_proc ~stagger:500
               (fun fs _i ->
                 Obs.set_tenant 0;
                 for _ = 1 to 6 do
                   tally.t_sub <- tally.t_sub + 1;
                   (* deadline of the order of ONE leased append: most of the
                      herd must give up inside lease acquisition *)
                   count tally
                     (Serve.submit srv ~tenant_id:0 ~deadline_ns:120_000
                        (fun () -> append_req fs "/fanin" payload));
                   Sim.advance 3_000
                 done)));
      let aborts = aborts_at () - aborts0 in
      if aborts = 0 then
        violation
          "hotfile: no deadline ever gave up inside lease acquisition \
           (deadline not reaching Lease.acquire?)";
      if tally.t_timed = 0 then
        violation "hotfile: tight deadlines produced no timeouts";
      if tally.t_ok = 0 then violation "hotfile: nobody ever appended";
      (* the inode survived the stampede *)
      (match V.stat fs "/fanin" with
      | Ok _ -> ()
      | Error e ->
          violation ("hotfile: file unreadable after fan-in: " ^ E.to_string e));
      audit_accounting ~name:"hotfile" srv violation;
      (writers, srv, aborts))

(* ---- scenario: slow-client isolation ------------------------------------- *)

let slow violation =
  with_world (fun w ->
      let _dev, kfs, _disp, fs = make_fs ~pages:8192 in
      let srv = Serve.create ~max_inflight:4 () in
      Serve.add_tenant srv ~id:0 ~weight:4 ~rate_per_ms:2_000 ~burst:64
        ~queue_cap:64 () (* cheap *);
      Serve.add_tenant srv ~id:1 ~weight:1 ~rate_per_ms:300 ~burst:8
        ~queue_cap:6 () (* elephant: expensive writes, short queue *);
      ignore (ok (V.write_file fs "/cheap" ~mode:0o644 (String.make 256 'c')));
      ignore (ok (V.write_file fs "/slowf" ~mode:0o644 big_block));
      let cheap_lat = Sim.Stats.create () in
      let n_cheap = 12 and n_slow = 16 in
      let cheap_clients =
        spawn_clients w kfs srv ~name:"cheap" ~threads:n_cheap ~stagger:2_000
          (fun fs _ ->
            Obs.set_tenant 0;
            for _ = 1 to 40 do
              let t0 = Sim.now () in
              (match
                 Serve.submit srv ~tenant_id:0 ~write:false
                   ~deadline_ns:20_000_000 (fun () -> read_req fs "/cheap")
               with
              | Serve.Done (Ok ()) ->
                  Sim.Stats.add cheap_lat (float_of_int (Sim.now () - t0))
              | _ -> ());
              Sim.advance 25_000
            done)
      in
      let slow_clients =
        spawn_clients w kfs srv ~name:"slow" ~threads:n_slow ~stagger:2_000
          (fun fs _ ->
            Obs.set_tenant 1;
            for _ = 1 to 25 do
              (match
                 Serve.submit srv ~tenant_id:1 ~cost:8 ~deadline_ns:50_000_000
                   (fun () -> overwrite_req fs "/slowf" big_block)
               with
              | Serve.Shed { retry_after; _ } ->
                  Sim.advance (min retry_after 200_000)
              | _ -> Sim.advance 4_000);
              Sim.advance 2_000
            done)
      in
      join [ cheap_clients; slow_clients ];
      let stats = Serve.tenant_stats srv in
      let cheap = List.nth stats 0 and slowt = List.nth stats 1 in
      if cheap.Serve.ts_done_ok * 10 < cheap.Serve.ts_submitted * 9 then
        violation
          (Printf.sprintf
             "slow: cheap tenant lost service next to the elephant (%d/%d)"
             cheap.Serve.ts_done_ok cheap.Serve.ts_submitted);
      if Serve.shed_total slowt = 0 then
        violation
          "slow: the elephant was never backpressured (cost/quota dead?)";
      if Sim.Stats.count cheap_lat > 0
         && Sim.Stats.mean cheap_lat > 5_000_000. then
        violation
          (Printf.sprintf "slow: cheap tenant mean latency ballooned to %.0f ns"
             (Sim.Stats.mean cheap_lat));
      audit_accounting ~name:"slow" srv violation;
      (n_cheap + n_slow, srv))

(* ---- scenario: clients killed mid-request -------------------------------- *)

let kills ~procs ~per_proc violation =
  with_world (fun w ->
      let _dev, kfs, _disp, fs = make_fs ~pages:4096 in
      let srv = Serve.create ~max_inflight:8 () in
      Serve.add_tenant srv ~id:0 ~weight:1 ~rate_per_ms:2_000 ~burst:256
        ~queue_cap:128 ();
      ignore (ok (V.write_file fs "/kf" ~mode:0o644 (String.make 256 'k')));
      let clients = procs * per_proc in
      join
        (List.init procs (fun p ->
             spawn_clients w kfs srv
               ~name:(Printf.sprintf "kc%d" p)
               ~threads:per_proc ~stagger:2_000
               (fun fs i ->
                 let cid = (p * per_proc) + i in
                 (* every third client schedules its own death at a staggered
                    depth: some die waiting in the queue, some die holding an
                    execution slot *)
                 if cid mod 3 = 0 then
                   Sim.arm_kill ~tid:(Sim.self_tid ())
                     ~after:(20 + (cid * 29 mod 2_000));
                 Obs.set_tenant 0;
                 for _ = 1 to 8 do
                   ignore
                     (Serve.submit srv ~tenant_id:0 ~write:false
                        ~deadline_ns:20_000_000 (fun () -> read_req fs "/kf"));
                   Sim.advance 5_000
                 done)));
      let killed = Sim.killed_threads () (* the world's own kills *) in
      if killed = 0 then violation "kills: injector armed nothing";
      let stats = List.hd (Serve.tenant_stats srv) in
      if stats.Serve.ts_lost > killed then
        violation
          (Printf.sprintf "kills: lost %d > killed %d (phantom reclaim)"
             stats.Serve.ts_lost killed);
      if Serve.inflight srv <> 0 then
        violation "kills: a dead client still owns an execution slot";
      (* the server still serves after the massacre *)
      (match
         Serve.submit srv ~tenant_id:0 ~write:false (fun () ->
             read_req fs "/kf")
       with
      | Serve.Done (Ok ()) -> ()
      | _ -> violation "kills: server wedged after client deaths");
      audit_accounting ~name:"kills" srv violation;
      (clients, srv, killed))

(* ---- scenario: degrade / recover round-trip ------------------------------ *)

let degrade violation =
  with_world (fun _w ->
      let _dev, kfs, disp, fs = make_fs ~pages:4096 in
      ignore (ok (V.write_file fs "/deg" ~mode:0o600 (String.make 128 'd')));
      let cid = ok (K.coffer_find kfs "/deg") in
      let srv =
        Serve.create ~max_inflight:8 ~window_ns:400_000 ~cooldown_ns:800_000
          ~home:(kfs, cid) ()
      in
      Serve.add_tenant srv ~id:0 ~weight:1 ~rate_per_ms:5_000 ~burst:1_024
        ~queue_cap:256 ();
      Serve.attach_dispatcher srv disp;
      let wr () =
        Serve.submit srv ~tenant_id:0 (fun () -> append_req fs "/deg" payload)
      and rd () =
        Serve.submit srv ~tenant_id:0 ~write:false (fun () ->
            read_req fs "/deg")
      in
      (* 1. health floor: quarantining the home coffer forces read-only *)
      (match wr () with
      | Serve.Done (Ok ()) -> ()
      | _ -> violation "degrade: healthy server refused a write");
      K.set_coffer_health kfs cid K.Quarantined;
      if Serve.current_tier srv <> Serve.Read_only then
        violation "degrade: quarantined home coffer didn't floor tier";
      (match wr () with
      | Serve.Shed { reason = Serve.Degraded; _ } -> ()
      | _ -> violation "degrade: read-only tier admitted a write");
      (match rd () with
      | Serve.Done (Ok ()) -> ()
      | _ -> violation "degrade: read-only tier refused a read");
      K.set_coffer_health kfs cid K.Healthy;
      if Serve.current_tier srv <> Serve.Normal then
        violation "degrade: tier stuck after coffer healed";
      (* 2. outcome-driven: a storm of impossible deadlines must push the
         tier down; calm traffic must bring it back *)
      let downs0 = Serve.degrade_downs srv in
      let ups0 = Serve.degrade_ups srv in
      let saw_degraded = ref false in
      for _ = 1 to 120 do
        (* deadline shorter than any possible service: every one times out *)
        ignore
          (Serve.submit srv ~tenant_id:0 ~deadline_ns:80 (fun () ->
               append_req fs "/deg" payload));
        Sim.advance 10_000;
        if Serve.current_tier srv <> Serve.Normal then saw_degraded := true
      done;
      if Serve.degrade_downs srv <= downs0 then
        violation "degrade: a 100% timeout storm never degraded the tier";
      if not !saw_degraded then
        violation "degrade: tier never left Normal during the storm";
      (* calm: quiet windows + clean probes step the tier back up *)
      let recovered = ref false in
      let give_up = Sim.now () + 50_000_000 in
      while (not !recovered) && Sim.now () < give_up do
        (match rd () with _ -> ());
        Sim.advance 200_000;
        if Serve.current_tier srv = Serve.Normal then recovered := true
      done;
      if not !recovered then
        violation "degrade: tier never recovered to Normal after the storm";
      if Serve.degrade_ups srv <= ups0 then
        violation "degrade: recovery didn't step through degrade.up";
      (match wr () with
      | Serve.Done (Ok ()) -> ()
      | _ -> violation "degrade: recovered server still refuses writes");
      audit_accounting ~name:"degrade" srv violation;
      ( 1,
        srv,
        Serve.degrade_downs srv,
        Serve.degrade_ups srv,
        Serve.tier_name (Serve.current_tier srv) ))

(* ---- the campaign -------------------------------------------------------- *)

let run ?(quick = false) () =
  Obs.enable ();
  Obs.reset ();
  let violations = ref [] in
  let violation msg =
    Obs.Flight.invariant_failure msg;
    if List.length !violations < 40 then violations := msg :: !violations
  in
  let clients = ref 0 in
  let acc = ref (0, 0, 0, 0, 0, 0) in
  let add_srv n srv =
    clients := !clients + n;
    acc := fold_stats srv !acc
  in
  (* 0. ceiling *)
  let capacity = calibrate ~ops_per_client:(if quick then 12 else 30) in
  if capacity = 0 then violation "calibrate: zero sustainable throughput";
  (* 1. thundering herd: 16 procs x 64 threads = 1024 clients *)
  let herd_n, herd_srv = herd ~procs:16 ~threads_per:64 violation in
  add_srv herd_n herd_srv;
  (* 2. mixed priorities at >= 2x sustainable *)
  let mixed_n, mixed_srv, overload_x100, hi_p99, hi_slo =
    mixed ~admission:true ~capacity_rps:capacity ~floods:16 ~per_flood:20
      ~duration_ns:(if quick then 20_000_000 else 40_000_000)
      violation
  in
  add_srv mixed_n mixed_srv;
  (* 3. hot-file fan-in with deadlines inside lease acquisition *)
  let fan_n, fan_srv, lease_aborts =
    hotfile ~procs:(if quick then 4 else 8) ~per_proc:20 violation
  in
  add_srv fan_n fan_srv;
  (* 4. slow-client isolation *)
  let slow_n, slow_srv = slow violation in
  add_srv slow_n slow_srv;
  (* 5. killed clients *)
  let kill_n, kill_srv, killed =
    kills ~procs:4 ~per_proc:(if quick then 15 else 30) violation
  in
  add_srv kill_n kill_srv;
  (* 6. degrade / recover *)
  let deg_n, deg_srv, downs, ups, final_tier = degrade violation in
  add_srv deg_n deg_srv;
  let req, ok_, err, shed_, timed, lost = !acc in
  if !clients < 1000 then
    violation
      (Printf.sprintf "campaign: only %d clients simulated (want 1000+)"
         !clients);
  {
    c_clients = !clients;
    c_requests = req;
    c_done_ok = ok_;
    c_done_err = err;
    c_shed = shed_;
    c_timed_out = timed;
    c_lost = lost;
    c_kills = killed;
    c_capacity_rps = capacity;
    c_overload_x100 = overload_x100;
    c_hi_p99_ns = hi_p99;
    c_hi_slo_ns = hi_slo;
    c_lease_aborts = lease_aborts;
    c_degrade_downs = downs;
    c_degrade_ups = ups;
    c_final_tier = final_tier;
    c_violations = List.rev !violations;
  }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

(* The campaign must be able to DETECT the failure it polices: a naive
   FIFO server (admission off) under the same mixed overload must produce
   a starvation (or SLO) violation.  Returns true when it was caught. *)
let negative_selfcheck ?(quick = false) () =
  Obs.enable ();
  Obs.reset ();
  let violations = ref [] in
  let violation msg = violations := msg :: !violations in
  let _ =
    mixed ~admission:false ~capacity_rps:1 ~floods:16 ~per_flood:20
      ~duration_ns:(if quick then 20_000_000 else 40_000_000)
      violation
  in
  (* only the starvation/SLO class counts *)
  List.exists
    (fun v ->
      contains v "mixed"
      && (contains v "starved" || contains v "SLO" || contains v "no SLO"))
    !violations
