(* The two renderings of a paper experiment's items (lib/paper): aligned
   plain-text tables for the terminal, and the BENCH_<experiment>.json
   document — tables, series and device-persistence records, plus any extra
   top-level fields (an obs snapshot) — so a change can diff a perf
   trajectory instead of scraping ASCII tables. *)

module J = Obs.Json
module P = Paper

let hrule widths =
  "+"
  ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths)
  ^ "+\n"

let render_row widths cells =
  "| "
  ^ String.concat " | "
      (List.map2 (fun w c -> Printf.sprintf "%-*s" w c) widths cells)
  ^ " |\n"

let cells row = List.map P.cell_to_string row

let text_table { P.title; header; rows } =
  let rows = List.map cells rows in
  let widths =
    List.mapi
      (fun i _ ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          0 (header :: rows))
      header
  in
  let line = hrule widths in
  String.concat ""
    ([ "\n" ^ title ^ "\n"; line; render_row widths header; line ]
    @ List.map (render_row widths) rows
    @ [ line ])

let item_text = function
  | P.Section name ->
      Printf.sprintf "\n=== %s %s\n" name
        (String.make (max 1 (72 - String.length name)) '=')
  | P.Table t -> text_table t
  | P.Series _ -> ""
  | P.Persistence p ->
      Printf.sprintf
        "  %-16s %s flushes (%s redundant), %s fences (%s redundant)\n" p.label
        (P.commas p.flushes)
        (P.commas p.redundant_flushes)
        (P.commas p.fences)
        (P.commas p.redundant_fences)
  | P.Note s -> s

let text items = String.concat "" (List.map item_text items)

let strs l = J.Arr (List.map (fun s -> J.Str s) l)
let num n = J.Num (float_of_int n)

let item_json = function
  | P.Section _ | P.Note _ -> None
  | P.Table { title; header; rows } ->
      Some
        (J.Obj
           [
             ("kind", J.Str "table");
             ("title", J.Str title);
             ("header", strs header);
             ("rows", J.Arr (List.map (fun r -> strs (cells r)) rows));
           ])
  | P.Series { title; series } ->
      let points l =
        J.Arr (List.map (fun (n, v) -> J.Arr [ num n; J.Num v ]) l)
      in
      Some
        (J.Obj
           [
             ("kind", J.Str "series");
             ("title", J.Str title);
             ( "series",
               J.Arr
                 (List.map
                    (fun (label, l) ->
                      J.Obj [ ("label", J.Str label); ("points", points l) ])
                    series) );
           ])
  | P.Persistence p ->
      Some
        (J.Obj
           [
             ("kind", J.Str "device_persistence");
             ("label", J.Str p.label);
             ("reads", num p.reads);
             ("writes", num p.writes);
             ("flushes", num p.flushes);
             ("redundant_flushes", num p.redundant_flushes);
             ("fences", num p.fences);
             ("redundant_fences", num p.redundant_fences);
           ])

(* BENCH_<name>.json of an experiment's items, [extra] fields last. *)
let json ~name ?(extra = []) items =
  J.Obj
    ([
       ("experiment", J.Str name);
       ("tables", J.Arr (List.filter_map item_json items));
     ]
    @ extra)
