(* The gate record and its one baseline comparator (DESIGN.md §14).

   Every gate under `dune build @gates` is one value of [t], run by one
   executable (`zofs_gate NAME BASELINE [--write-baseline]`) against one
   committed BENCH_NAME.json.  The simulator is deterministic, so a gate's
   summary is compared for exact equality: any moved leaf is a failure
   that names its path.  Host time never goes into a summary. *)

module J = Obs.Json

type t = {
  name : string;
  run : unit -> J.t * string list;
      (* the deterministic summary and the invariant violations *)
  negatives : (string * (unit -> bool)) list;
      (* planted bugs the gate must see: each returns true when caught *)
}

let int n = J.Num (float_of_int n)

(* ---- the comparator ------------------------------------------------------ *)

let entry_name = function
  | J.Obj fields -> (
      match List.assoc_opt "name" fields with Some (J.Str s) -> Some s | _ -> None)
  | _ -> None

(* [Some] (name, element) pairs when every element carries a name. *)
let named l =
  let keyed =
    List.filter_map (fun e -> Option.map (fun n -> (n, e)) (entry_name e)) l
  in
  if List.length keyed = List.length l then Some keyed else None

let change a b =
  match (a, b) with
  | J.Num x, J.Num y when x <> 0.0 ->
      Printf.sprintf " (%+.1f%%)" (100.0 *. (y -. x) /. x)
  | _ -> ""

(* [compare ~baseline current] is [(differences, notes)].  A difference is
   a leaf whose value moved (with old value, new value and relative
   change), an array whose length moved, or an entry of [baseline] that
   [current] lacks.  An entry only [current] has is a note.  Entries are
   object members and the elements of arrays whose elements all carry a
   "name"; those are matched by name, other arrays by position. *)
let compare ~baseline current =
  let diffs = ref [] and notes = ref [] in
  let member path k = if path = "" then k else path ^ "." ^ k in
  let element path k = path ^ "[" ^ k ^ "]" in
  let rec go path a b =
    match (a, b) with
    | J.Obj fa, J.Obj fb -> entries (member path) fa fb
    | J.Arr la, J.Arr lb -> (
        match (named la, named lb) with
        | Some ka, Some kb -> entries (element path) ka kb
        | _ when List.length la = List.length lb ->
            List.iteri
              (fun i (x, y) -> go (element path (string_of_int i)) x y)
              (List.combine la lb)
        | _ -> leaf path a b)
    | _ -> if a <> b then leaf path a b
  and leaf path a b =
    diffs :=
      Printf.sprintf "%s: %s -> %s%s" path (J.to_string a) (J.to_string b)
        (change a b)
      :: !diffs
  and entries key ea eb =
    List.iter
      (fun (k, va) ->
        match List.assoc_opt k eb with
        | Some vb -> go (key k) va vb
        | None -> diffs := Printf.sprintf "%s: missing" (key k) :: !diffs)
      ea;
    List.iter
      (fun (k, _) ->
        if not (List.mem_assoc k ea) then
          notes := Printf.sprintf "%s: new entry" (key k) :: !notes)
      eb
  in
  go "" baseline current;
  (List.rev !diffs, List.rev !notes)
