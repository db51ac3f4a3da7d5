(* The crash-consistency gate, `crash` (DESIGN.md §12).

   For each op script (fxmark, filebench, fslab, three creates into one
   second-level page, and in-place overwrites) lib/crashmc records the
   persistence events once, then explores a seeded sample of at most 240
   crash points, an equal share per op, each keyed by its op and its offset
   in the op (every point of the in-place script): replay to the k-th event,
   power-fail under a line-survival policy, recover, and compare the
   recovered tree against the oracle model at the prefix of acknowledged
   ops.  Any divergence is a violation, and so is an intention recovery
   finds pending in the in-place script, whose writes record none.  Four
   negatives must be reported as divergences, proving the checker sees
   the bug classes it exists for: one drops a fence, one leaves a dentry
   at its second-level page's hwm without raising it, one lets an append
   into a partial last block take the in-place path and leave the size
   behind, and one skips a created inode's flush, which the dentry's
   fence then leaves behind. *)

module C = Crashmc
module Op = Workloads.Opscript
module J = Obs.Json

let points = 240
let seed = 1L

(* [intent_free]: the script's writes record no intention, so one that
   recovery finds pending at any point is a violation. *)
let run_workload ?(max_points = points) ?(intent_free = false)
    (script : Op.script) =
  let name = script.Op.sname in
  let rep = C.check ~max_points ~seed script in
  Printf.printf "%-10s ops=%d events=%d points=%d divergences=%d findings=%d\n%!"
    name rep.C.r_ops rep.C.r_events rep.C.r_points
    (List.length rep.C.r_divergences)
    rep.C.r_findings;
  let intent_violations =
    if intent_free && rep.C.r_intents > 0 then
      [
        Printf.sprintf "%s: recovery found %d intention(s) pending" name
          rep.C.r_intents;
      ]
    else []
  in
  let violations =
    intent_violations
    @ List.map
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
        ("intents_cleared", Gate.int rep.C.r_intents);
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

(* Overwrites inside a pre-sized three-block file: one cell, one across a
   block boundary, one ending exactly at EOF, and a block's worth across
   two blocks.  Each ends within the size on mapped blocks, so each
   commits in place. *)
let in_place =
  let pwrite off tag len =
    Op.Pwrite { path = "/o"; off; data = Op.payload ~tag len }
  in
  {
    Op.sname = "in-place-overwrite";
    setup =
      [ Op.Create { path = "/o"; mode = 0o644; data = Op.payload ~tag:8 9000 } ];
    body =
      [ pwrite 0 9 512; pwrite 4000 10 200; pwrite 8192 11 808; pwrite 100 12 4096 ];
  }

(* An empty directory: no later store flushes its inode's lines, so only
   the create path's own flush makes it durable (the
   [create_inode_unflushed] negative; a file create's write flushes its
   size line). *)
let empty_mkdir =
  { Op.sname = "empty-mkdir"; setup = [ Op.Mkdir "/n" ]; body = [ Op.Mkdir "/n/d" ] }

let run () =
  let sampled =
    List.map run_workload
      (List.map Op.find [ "fxmark"; "filebench"; "fslab" ] @ [ shared_page ])
  in
  let rows = sampled @ [ run_workload ~max_points:0 ~intent_free:true in_place ] in
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
        ( "overwrite_past_eof_in_place",
          fun () -> caught (C.check_in_place_past_eof (Op.find "filebench")) );
        ( "create_inode_unflushed",
          fun () -> caught (C.check_create_inode_unflushed empty_mkdir) );
      ];
  }
