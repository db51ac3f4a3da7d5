(* Run one gate against its committed baseline (DESIGN.md §14).

     zofs_gate NAME BASELINE [--write-baseline]

   Runs gate NAME (check, crash, chaos, perf, race, serve or obs), then
   every one of its negatives, then compares its summary against the JSON
   in BASELINE for exact equality, printing every differing path.  Exits 1
   on any invariant violation, any negative that is not caught, or any
   baseline difference.  With --write-baseline the summary is written to
   BASELINE instead of compared; do that only after auditing the diff. *)

module Gate = Gates.Gate
module J = Obs.Json

let usage () =
  Printf.eprintf "usage: zofs_gate NAME BASELINE [--write-baseline]\n  NAME: %s\n"
    (String.concat " | " (List.map (fun g -> g.Gate.name) Gates.all));
  exit 2

let read_baseline path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> J.of_string (String.trim s)

let () =
  let name, path, write =
    match List.tl (Array.to_list Sys.argv) with
    | [ name; path ] -> (name, path, false)
    | [ name; path; "--write-baseline" ] -> (name, path, true)
    | _ -> usage ()
  in
  let gate =
    match List.find_opt (fun g -> g.Gate.name = name) Gates.all with
    | Some g -> g
    | None -> usage ()
  in
  let summary, violations = gate.Gate.run () in
  List.iter (fun v -> Printf.printf "VIOLATION %s\n" v) violations;
  let uncaught =
    List.filter
      (fun (neg, caught) ->
        let caught = caught () in
        Printf.printf "negative %s: %s\n%!" neg
          (if caught then "caught" else "NOT CAUGHT");
        not caught)
      gate.Gate.negatives
  in
  let differences =
    if write then begin
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (J.to_string summary ^ "\n"));
      Printf.printf "wrote %s\n" path;
      []
    end
    else
      match read_baseline path with
      | Error e -> [ Printf.sprintf "cannot read baseline %s: %s" path e ]
      | Ok baseline ->
          let differences, notes = Gate.compare ~baseline summary in
          List.iter (fun n -> Printf.printf "note %s\n" n) notes;
          differences
  in
  List.iter (fun d -> Printf.printf "DIFFERENCE %s\n" d) differences;
  if violations = [] && uncaught = [] && differences = [] then
    Printf.printf "zofs_gate %s: ok\n" name
  else begin
    Printf.printf
      "zofs_gate %s: FAILED (%d violation(s), %d negative(s) not caught, %d \
       baseline difference(s))\n"
      name (List.length violations) (List.length uncaught)
      (List.length differences);
    exit 1
  end
