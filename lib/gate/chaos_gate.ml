(* The fault-injection gate, `chaos` (DESIGN.md §13).

   Runs application traffic under randomized mixed fault injection (NVM
   media poison, some sticky; lease-holder death mid-syscall; transient
   kernel allocation failures; MPK-blocked stray stores) and checks the
   fault-domain containment invariants of lib/chaos: no exception escapes
   the dispatcher, an untouched canary coffer stays available, quarantined
   coffers refuse writes, every armed fault is accounted for, and the
   post-campaign offline fsck is a clean fixpoint.  At least [min_faults]
   faults must trip.  The campaign arms flight-recorder auto-dump, so every
   coffer that leaves Healthy writes a flight-*.json into the working
   directory.

   The negative reruns the campaign with coffer quarantine disabled: it
   must report the containment violation of a persistently failing coffer
   that is never fenced off. *)

module Ch = Chaos
module J = Obs.Json

let seed = 11L
let pages = 12288
let min_faults = 200

(* The committed baseline records the negative's verdict next to the
   campaign, so [run] and the harness share one run of it. *)
let quarantine_off = lazy (Ch.negative_selfcheck ())

let print_report (r : Ch.report) =
  Printf.printf
    "campaign: %d rounds, %d ops\n\
    \  tripped: media-faults=%d kills=%d transients=%d scribbles=%d  \
     (total %d)\n\
    \  procs:   whole-process kills armed=%d fired=%d reaped=%d\n\
    \  healing: repairs ok/failed=%d/%d  lease-steals=%d intent-repairs=%d \
     graceful-EIO=%d\n\
    \  health:  quarantined=%d offline=%d   fsck findings=%d\n%!"
    r.Ch.c_rounds r.Ch.c_ops r.Ch.c_media_faults r.Ch.c_kills_fired
    r.Ch.c_transients_tripped r.Ch.c_scribbles_blocked r.Ch.c_faults_tripped
    r.Ch.c_armed_proc_kills r.Ch.c_proc_kills r.Ch.c_procs_reaped
    r.Ch.c_repairs_ok r.Ch.c_repairs_failed r.Ch.c_lease_steals
    r.Ch.c_intent_repairs r.Ch.c_graceful_errors r.Ch.c_quarantined
    r.Ch.c_offline r.Ch.c_fsck_findings

let run () =
  let r = Ch.run ~seed ~pages ~min_faults () in
  print_report r;
  let strs l = J.Arr (List.map (fun s -> J.Str s) l) in
  let counts =
    List.map
      (fun (k, n) -> (k, Gate.int n))
      [
         ("rounds", r.Ch.c_rounds);
         ("ops", r.Ch.c_ops);
         ("min_faults", min_faults);
         ("armed_poison", r.Ch.c_armed_poison);
         ("armed_kills", r.Ch.c_armed_kills);
         ("armed_transients", r.Ch.c_armed_transients);
         ("armed_scribbles", r.Ch.c_armed_scribbles);
         ("media_faults", r.Ch.c_media_faults);
         ("kills_fired", r.Ch.c_kills_fired);
         ("armed_proc_kills", r.Ch.c_armed_proc_kills);
         ("proc_kills", r.Ch.c_proc_kills);
         ("procs_reaped", r.Ch.c_procs_reaped);
         ("transients_tripped", r.Ch.c_transients_tripped);
         ("scribbles_blocked", r.Ch.c_scribbles_blocked);
         ("faults_tripped", r.Ch.c_faults_tripped);
         ("poison_healed", r.Ch.c_poison_healed);
         ("poison_scrubbed", r.Ch.c_poison_scrubbed);
         ("poison_fenced", r.Ch.c_poison_fenced);
         ("transient_residue", r.Ch.c_transient_residue);
         ("repairs_ok", r.Ch.c_repairs_ok);
         ("repairs_failed", r.Ch.c_repairs_failed);
         ("quarantined", r.Ch.c_quarantined);
         ("offline", r.Ch.c_offline);
         ("lease_steals", r.Ch.c_lease_steals);
         ("intent_repairs", r.Ch.c_intent_repairs);
         ("graceful_errors", r.Ch.c_graceful_errors);
         ("fsck_findings", r.Ch.c_fsck_findings);
       ]
  in
  let summary =
    J.Obj
      (counts
      @ [
          ("violations", strs r.Ch.c_violations);
          ("flight_dumps", strs r.Ch.c_flight_dumps);
          ("quarantine_selfcheck_caught", J.Bool (Lazy.force quarantine_off));
        ])
  in
  let too_few =
    if r.Ch.c_faults_tripped < min_faults then
      [ Printf.sprintf "only %d faults tripped (want >= %d)" r.Ch.c_faults_tripped
          min_faults ]
    else []
  in
  (summary, r.Ch.c_violations @ too_few)

let gate =
  {
    Gate.name = "chaos";
    run;
    negatives = [ ("quarantine_off", fun () -> Lazy.force quarantine_off) ];
  }
