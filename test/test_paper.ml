(* Paper claims checked on the rows an experiment returns (lib/paper), not
   on its printed table. *)

(* The [Int] cell of column [col] in the row whose first cell is [op], in
   the experiment's one table. *)
let cell items ~op ~col =
  match List.filter_map (function Paper.Table t -> Some t | _ -> None) items with
  | [ { header; rows; _ } ] -> (
      let row =
        List.find (function Paper.Text s :: _ -> s = op | _ -> false) rows
      in
      match List.assoc col (List.combine header row) with
      | Paper.Int n -> n
      | c -> Alcotest.failf "%s/%s: %s" op col (Paper.cell_to_string c))
  | _ -> Alcotest.fail "table9 returns one table"

(* Table 9: a chmod or rename that splits or merges coffers costs ZoFS more
   than NOVA, and ZoFS with one coffer stays in user space, cheapest. *)
let test_table9_ordering () =
  let e = List.find (fun e -> e.Paper.name = "table9") Paper.all in
  let items = e.Paper.run Paper.quick in
  List.iter
    (fun op ->
      let at col = cell items ~op ~col in
      let one = at "ZoFS-1coffer" and nova = at "NOVA" and zofs = at "ZoFS" in
      if not (one < nova && nova < zofs) then
        Alcotest.failf "%s: ZoFS-1coffer %d < NOVA %d < ZoFS %d does not hold" op
          one nova zofs)
    [ "chmod"; "rename" ]

let () =
  Alcotest.run "paper"
    [
      ( "claims",
        [ Alcotest.test_case "table9 ordering" `Quick test_table9_ordering ] );
    ]
