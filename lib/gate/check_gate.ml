(* The analysis-checker gate, `check` (DESIGN.md §10).

   Every FxMark microbenchmark and Filebench personality runs on ZoFS with
   the persistence, guideline and lock checkers of lib/check attached in
   fail mode.  This is the dynamic-analysis complement to `dune runtest`:
   the tests prove the rules fire on buggy code, this proves the real tree
   is silent under them.  The summary pins each workload's violation and
   lint counts. *)

module FL = Workloads.Fslab
module Fx = Workloads.Fxmark
module Fb = Workloads.Filebench
module J = Obs.Json

let threads = 2
let ops = 12

(* The workload suite, shared with the race gate. *)
let suite =
  List.map
    (fun w -> (w.Fx.wname, fun () -> ignore (w.Fx.run FL.Zofs ~nthreads:threads ~ops)))
    Fx.all
  @ List.map
      (fun p -> (p.Fb.pname, fun () -> ignore (p.Fb.run FL.Zofs ~nthreads:threads ~ops)))
      Fb.all

let run () =
  Check.enable_auto ~persist:Check.Fail ~guideline:Check.Fail ~lock:Check.Fail;
  Printf.printf "check: %d workloads, %d threads, %d ops/thread\n%!"
    (List.length suite) threads ops;
  let rows =
    List.map
      (fun (name, run) ->
        Check.reset_report ();
        let raised =
          match run () with
          | () -> None
          | exception Check.Violation v -> Some (Check.string_of_violation v)
        in
        let r = Check.report () in
        let nv = List.length r.Check.r_violations in
        let lints = List.sort compare r.Check.r_lints in
        Printf.printf "  %-12s %d violation(s), %d lint(s)\n%!" name nv
          (List.fold_left (fun a (_, n) -> a + n) 0 lints);
        if nv > 0 then Check.print_report ();
        let violations =
          match raised with
          | Some v -> [ name ^ ": " ^ v ]
          | None when nv > 0 -> [ Printf.sprintf "%s: %d violation(s)" name nv ]
          | None -> []
        in
        ( J.Obj
            [
              ("name", J.Str name);
              ("violations", Gate.int nv);
              ("lints", J.Obj (List.map (fun (k, n) -> (k, Gate.int n)) lints));
            ],
          violations ))
      suite
  in
  Check.disable_auto ();
  Check.detach ();
  (J.Obj [ ("workloads", J.Arr (List.map fst rows)) ], List.concat_map snd rows)

let gate = { Gate.name = "check"; run; negatives = [] }
