(* The observability gate, `obs` (DESIGN.md §16).

   Two phases over the same workload pair (FxMark MWCL + Filebench
   varmail, 4 threads each, repeated for a measurable host time):

     phase A  observability fully OFF — reference simulated results and
              host CPU time
     phase B  observability fully ON  — labels, op tracing, flight
              recorder — same workloads

   Invariants: zero sim-time drift (every workload's simulated results
   are identical between phases); spans balanced; the Chrome trace
   well-formed and round-tripping; layer buckets never exceeding the
   total; labelled series, op-ids, parent/child span links, flight events
   and SLO reports all present; and phase B's host CPU time within
   [budget_pct] of phase A's, plus a small absolute slack for timer noise.

   The summary pins per-workload sim-ns, syscalls, kernel crossings, lease
   acquires and media-ns, the coverage totals, and the full label-sliced
   snapshot of phase B — host time stays out of it. *)

module FL = Workloads.Fslab
module Fx = Workloads.Fxmark
module Fb = Workloads.Filebench
module R = Workloads.Runner
module J = Obs.Json

let budget_pct = 150.0
let wall_slack_s = 0.20
let reps = 4
let fx_ops = 40
let fb_ops = 25

let cval name = Obs.Counter.value (Obs.Counter.make name)

(* One phase: run MWCL [reps] times, then varmail [reps] times.  Returns
   per workload its rep results and its summary row (counter deltas are
   all zero while obs is off), and the phase's host CPU seconds. *)
let run_phase () =
  let bracket name f =
    let s0 = Obs.Snapshot.take () in
    let results = List.init reps (fun _ -> f ()) in
    let d = Obs.Snapshot.diff s0 (Obs.Snapshot.take ()) in
    let cv n =
      Gate.int (Option.value ~default:0 (Obs.Snapshot.counter_value d n))
    in
    let sum sel = Gate.int (List.fold_left (fun a r -> a + sel r) 0 results) in
    ( results,
      J.Obj
        [
          ("name", J.Str name);
          ("ops", sum (fun r -> r.R.total_ops));
          ("sim_ns", sum (fun r -> r.R.elapsed_ns));
          ("syscalls", cv "syscall.count");
          ("crossings", cv "gate.crossings");
          ("lease_acquires", cv "lease.acquires");
          ("media_ns", cv "nvm.media_ns");
        ] )
  in
  let t0 = Sys.time () in
  let mwcl =
    bracket "mwcl" (fun () -> Fx.mwcl.Fx.run FL.Zofs ~nthreads:4 ~ops:fx_ops)
  in
  let varmail =
    bracket "varmail" (fun () -> Fb.varmail.Fb.run FL.Zofs ~nthreads:4 ~ops:fb_ops)
  in
  ([ mwcl; varmail ], Sys.time () -. t0)

let sim_signature phase =
  List.concat_map
    (fun (results, _) ->
      List.map (fun r -> (r.R.total_ops, r.R.elapsed_ns)) results)
    phase

let run () =
  let violations = ref [] in
  let checkpoint label ok detail =
    Printf.printf "  %-40s %s\n" label (if ok then "ok" else "FAIL");
    if not ok then
      violations :=
        (if detail = "" then label else label ^ ": " ^ detail) :: !violations
  in
  Obs.disable ();
  let off_phase, wall_off = run_phase () in
  Obs.enable ();
  Obs.reset ();
  Obs.Flight.set_autodump false;
  let on_phase, wall_on = run_phase () in

  checkpoint "zero sim-time drift (obs on = off)"
    (sim_signature off_phase = sim_signature on_phase)
    "simulated results differ between phases";
  checkpoint "spans recorded" (Obs.Trace.recorded () > 0) "trace ring is empty";
  checkpoint "all spans balanced"
    (Obs.Trace.open_spans () = 0)
    (Printf.sprintf "%d span(s) still open" (Obs.Trace.open_spans ()));
  let trace = Obs.Trace.to_json () in
  (match Obs.Trace.validate trace with
  | Ok () -> checkpoint "trace JSON well-formed" true ""
  | Error m -> checkpoint "trace JSON well-formed" false m);
  (match J.of_string (J.to_string trace) with
  | Error m -> checkpoint "trace JSON round-trips" false m
  | Ok j2 -> (
      match Obs.Trace.validate j2 with
      | Ok () -> checkpoint "trace JSON round-trips" true ""
      | Error m -> checkpoint "trace JSON round-trips" false m));

  checkpoint "syscalls observed" (cval "syscall.count" > 0) "";
  checkpoint "gate crossings observed" (cval "gate.crossings" > 0) "";
  checkpoint "lease acquires observed" (cval "lease.acquires" > 0) "";
  checkpoint "media time observed" (cval "nvm.media_ns" > 0) "";
  let total = cval "layer.total_ns" in
  let parts =
    cval "layer.fslib_ns" + cval "layer.kernfs_ns" + cval "layer.media_ns"
    + cval "layer.lease_ns"
  in
  checkpoint "layer buckets sum to total"
    (total > 0 && parts <= total)
    (Printf.sprintf "fslib+kernfs+media+lease = %d, total = %d" parts total);

  (* causal tracing: op-ids assigned, parent/child links connected *)
  let spans = Obs.Trace.spans () in
  checkpoint "op-ids on spans"
    (List.exists (fun s -> s.Obs.Trace.sp_op > 0) spans)
    "no span carries an op-id";
  let connected =
    match
      List.find_opt
        (fun s -> s.Obs.Trace.sp_cat = "kernfs" && s.Obs.Trace.sp_op > 0)
        spans
    with
    | None -> false
    | Some s ->
        List.exists
          (fun p -> p.Obs.Trace.sp_id = s.Obs.Trace.sp_parent)
          (Obs.Trace.spans_of_op s.Obs.Trace.sp_op)
  in
  checkpoint "kernel crossings parented on their syscall" connected
    "no kernfs trap span links to a parent span of the same op";

  (* dimensioned metrics + flight recorder + SLOs *)
  let snap = Obs.Snapshot.take () in
  let snap_json = Obs.Snapshot.to_json snap in
  let labeled_series =
    List.concat_map
      (fun sec ->
        match J.member sec snap_json with
        | Some (J.Obj l) -> List.filter (fun (k, _) -> String.contains k '{') l
        | _ -> [])
      [ "counters"; "gauges"; "histograms" ]
    |> List.length
  in
  checkpoint "labelled series recorded" (labeled_series > 0) "";
  checkpoint "per-tenant op latency recorded"
    (Obs.Snapshot.labeled snap ~base:"op.latency" <> [])
    "";
  checkpoint "flight events recorded" (Obs.Flight.total () > 0) "";
  Obs.Slo.define ~name:"open-p99" ~op:"open" ~p99_target_ns:2_000_000;
  Obs.Slo.define ~name:"write-p99" ~op:"write" ~p99_target_ns:2_000_000;
  checkpoint "SLO reports evaluated"
    (Obs.Slo.publish snap <> [])
    "no (slo, tenant) samples";
  let snap = Obs.Snapshot.take () in
  checkpoint "label-sliced top-k renders" (Obs.Snapshot.render_top snap <> "") "";
  (* snapshot JSON round-trip: what zofs_stat consumes *)
  (match Obs.Snapshot.of_json (Obs.Snapshot.to_json snap) with
  | Ok back ->
      checkpoint "snapshot JSON round-trips"
        (Obs.Snapshot.render back = Obs.Snapshot.render snap
        && Obs.Snapshot.render_top back = Obs.Snapshot.render_top snap)
        "render differs after round-trip"
  | Error m -> checkpoint "snapshot JSON round-trips" false m);

  let overhead_pct = 100.0 *. ((wall_on /. Float.max wall_off 1e-9) -. 1.0) in
  Printf.printf "  host CPU: off %.3fs on %.3fs (overhead %+.0f%%)\n" wall_off
    wall_on overhead_pct;
  checkpoint "obs overhead within budget"
    (wall_on <= (wall_off *. (1.0 +. (budget_pct /. 100.0))) +. wall_slack_s)
    (Printf.sprintf "overhead %+.0f%% exceeds budget %.0f%%" overhead_pct
       budget_pct);

  let summary =
    J.Obj
      [
        ("schema", J.Str "zofs-obs-1");
        ("overhead_budget_pct", J.Num budget_pct);
        ("workloads", J.Arr (List.map snd on_phase));
        ("spans", Gate.int (Obs.Trace.recorded () + Obs.Trace.dropped ()));
        ("labeled_series", Gate.int labeled_series);
        ("flight_events", Gate.int (Obs.Flight.total ()));
        ("obs", snap_json);
      ]
  in
  (summary, List.rev !violations)

let gate = { Gate.name = "obs"; run; negatives = [] }
