(* The serving-plane overload gate, `serve` (DESIGN.md §18).

   Drives ZoFS through lib/serve with thousands of simulated clients — a
   thundering herd, mixed-priority tenants at >= 2x the measured
   sustainable load, write fan-in on one hot inode under tight deadlines,
   an elephant tenant next to a cheap one, clients SIGKILLed mid-request,
   and a degrade/recover round-trip — and checks the serving-plane
   containment invariants: every request accounted exactly once, honest
   retry-afters, no tenant starved, the high-priority SLO held under
   overload, deadlines reaching lease acquisition, dead clients' slots
   reclaimed, and the tier machine returning to Normal.

   The negative reruns the mixed overload against a naive FIFO server
   (admission disabled): it must produce a starvation violation. *)

module C = Serving.Campaign
module J = Obs.Json

let run () =
  let r = C.run ~quick:true () in
  Printf.printf
    "serve campaign: %d clients, %d requests\n\
    \  outcomes: ok=%d err=%d shed=%d timed-out=%d lost=%d (client kills=%d)\n\
    \  capacity: %d req/s sustainable; mixed scenario offered %d.%02dx\n\
    \  hi-prio:  p99 %d ns (SLO %d ns) under overload\n\
    \  deadlines: %d lease acquisitions abandoned at deadline\n\
    \  tiers:    degrade down=%d up=%d, final tier %s\n%!"
    r.C.c_clients r.C.c_requests r.C.c_done_ok r.C.c_done_err r.C.c_shed
    r.C.c_timed_out r.C.c_lost r.C.c_kills r.C.c_capacity_rps
    (r.C.c_overload_x100 / 100)
    (r.C.c_overload_x100 mod 100)
    r.C.c_hi_p99_ns r.C.c_hi_slo_ns r.C.c_lease_aborts r.C.c_degrade_downs
    r.C.c_degrade_ups r.C.c_final_tier;
  let summary =
    J.Obj
      [
        ("campaign", J.Str "serve");
        ("clients", Gate.int r.C.c_clients);
        ("requests", Gate.int r.C.c_requests);
        ("done_ok", Gate.int r.C.c_done_ok);
        ("done_err", Gate.int r.C.c_done_err);
        ("shed", Gate.int r.C.c_shed);
        ("timed_out", Gate.int r.C.c_timed_out);
        ("lost", Gate.int r.C.c_lost);
        ("kills", Gate.int r.C.c_kills);
        ("capacity_rps", Gate.int r.C.c_capacity_rps);
        ("overload_x100", Gate.int r.C.c_overload_x100);
        ("hi_p99_ns", Gate.int r.C.c_hi_p99_ns);
        ("hi_slo_ns", Gate.int r.C.c_hi_slo_ns);
        ("lease_aborts", Gate.int r.C.c_lease_aborts);
        ("degrade_downs", Gate.int r.C.c_degrade_downs);
        ("degrade_ups", Gate.int r.C.c_degrade_ups);
        ("final_tier", J.Str r.C.c_final_tier);
        ("violations", J.Arr (List.map (fun v -> J.Str v) r.C.c_violations));
      ]
  in
  (summary, r.C.c_violations)

let gate =
  {
    Gate.name = "serve";
    run;
    negatives =
      [ ("naive_fifo", fun () -> C.negative_selfcheck ~quick:true ()) ];
  }
