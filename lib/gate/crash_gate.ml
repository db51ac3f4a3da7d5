(* The crash-consistency gate, `crash` (DESIGN.md §12).

   For each op script (fxmark, filebench, fslab, and three creates into
   one second-level page) lib/crashmc records the
   persistence events once, then explores a seeded sample of 180 crash
   points: replay to the k-th event, power-fail under a line-survival
   policy, recover, and compare the recovered tree against the oracle
   model at the prefix of acknowledged ops.  Any divergence is a
   violation.  Two negatives must be reported as divergences, proving the
   checker sees the bug classes it exists for: one drops a fence, one
   leaves a dentry at its second-level page's hwm without raising it. *)

module C = Crashmc
module Op = Workloads.Opscript
module J = Obs.Json

let points = 180
let seed = 1L

let run_workload (script : Op.script) =
  let name = script.Op.sname in
  let rep = C.check ~max_points:points ~seed script in
  Printf.printf "%-10s ops=%d events=%d points=%d divergences=%d findings=%d\n%!"
    name rep.C.r_ops rep.C.r_events rep.C.r_points
    (List.length rep.C.r_divergences)
    rep.C.r_findings;
  let violations =
    List.map
      (fun (d : C.divergence) ->
        Printf.sprintf "%s: divergence at event %d (%s, acked %d):\n    %s" name
          d.C.d_point d.C.d_policy d.C.d_acked
          (String.concat "\n    " (String.split_on_char '\n' d.C.d_reason)))
      rep.C.r_divergences
  in
  ( J.Obj
      [
        ("name", J.Str name);
        ("ops", Gate.int rep.C.r_ops);
        ("events", Gate.int rep.C.r_events);
        ("points", Gate.int rep.C.r_points);
        ("divergences", Gate.int (List.length rep.C.r_divergences));
        ("findings", Gate.int rep.C.r_findings);
        ("pages_reclaimed", Gate.int rep.C.r_pages_reclaimed);
        ("orphans_reattached", Gate.int rep.C.r_reattached);
        ("orphans_dropped", Gate.int rep.C.r_orphans_dropped);
      ],
    violations )

(* Three creates whose names share a second-level page: the named scripts
   never put two names in one, so without it no crash point lands on an
   hwm raise, and the hwm negative has no page to plant on. *)
let shared_page =
  {
    Op.sname = "shared-page";
    setup = [ Op.Mkdir "/h" ];
    body =
      List.map
        (fun n -> Op.Create { path = "/h/" ^ n; mode = 0o644; data = n })
        (Perf_gate.same_l1_slot_names ~seed:"h" 3);
  }

let run () =
  let rows =
    List.map run_workload
      (List.map Op.find [ "fxmark"; "filebench"; "fslab" ] @ [ shared_page ])
  in
  (J.Obj [ ("workloads", J.Arr (List.map fst rows)) ], List.concat_map snd rows)

let caught = function
  | Some reason ->
      Printf.printf "  %s\n%!"
        (String.concat "\n  " (String.split_on_char '\n' reason));
      true
  | None -> false

let gate =
  {
    Gate.name = "crash";
    run;
    negatives =
      [
        ("missing_fence", fun () -> caught (C.check_missing_fence (Op.find "fslab")));
        ("insert_skips_hwm_bump", fun () -> caught (C.check_hwm_skip ~dir:"/h" shared_page));
      ];
  }
