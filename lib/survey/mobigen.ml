(* Synthetic MobiGen-style smartphone syscall traces (paper §2.3): two
   2-minute I/O traces.  The Facebook trace has 64,282 file-system calls and
   no chmod/chown; the Twitter trace has 25,306 calls including exactly 16
   chmods, used in a fixed shadow-file pattern: create with 600, write,
   chmod to 660, rename over the real file. *)

type syscall =
  | Open of string
  | Read of string
  | Write of string
  | Close of string
  | Create of string * int
  | Chmod of string * int
  | Chown of string * int * int
  | Rename of string * string
  | Unlink of string
  | Stat of string

let background_ops rng i =
  let f = Printf.sprintf "/data/cache/f%d" (i mod 500) in
  match Sim.Rng.int rng 5 with
  | 0 -> Open f
  | 1 -> Read f
  | 2 -> Write f
  | 3 -> Close f
  | _ -> Stat f

let shadow_file_pattern db =
  [
    Create (db ^ ".shadow", 0o600);
    Write (db ^ ".shadow");
    Write (db ^ ".shadow");
    Chmod (db ^ ".shadow", 0o660);
    Rename (db ^ ".shadow", db);
  ]

let facebook ?(seed = 0xFBL) () =
  let rng = Sim.Rng.create seed in
  List.init 64_282 (fun i -> background_ops rng i)

let twitter ?(seed = 0x7817L) () =
  let rng = Sim.Rng.create seed in
  (* 16 chmods = 16 shadow-file updates of the preferences database *)
  let patterns =
    List.concat_map
      (fun i -> shadow_file_pattern (Printf.sprintf "/data/prefs%d.db" (i mod 4)))
      (List.init 16 Fun.id)
  in
  let background = List.init (25_306 - List.length patterns) (fun i -> background_ops rng i) in
  (* interleave the patterns roughly evenly *)
  let rec weave bg pats acc =
    match (bg, pats) with
    | [], rest -> List.rev acc @ List.concat rest
    | rest, [] -> List.rev acc @ rest
    | _, p :: prest ->
        let chunk_len = 25_306 / 17 in
        let rec take n l acc' =
          if n = 0 then (List.rev acc', l)
          else
            match l with
            | [] -> (List.rev acc', [])
            | x :: r -> take (n - 1) r (x :: acc')
        in
        let chunk, bg_rest = take chunk_len bg [] in
        weave bg_rest prest (List.rev_append p (List.rev_append chunk acc))
  in
  weave background
    (List.init 16 (fun i ->
         let rec take n l = if n = 0 then [] else match l with [] -> [] | x :: r -> x :: take (n - 1) r in
         take 5 (List.filteri (fun j _ -> j >= i * 5) patterns)))
    []

(* ---- the analysis tool --------------------------------------------------------- *)

type counts = {
  total : int;
  chmods : int;
  chowns : int;
  shadow_patterns : int;  (* complete create→write→chmod→rename sequences *)
}

let analyze trace =
  let total = List.length trace in
  let chmods = List.length (List.filter (function Chmod _ -> true | _ -> false) trace) in
  let chowns = List.length (List.filter (function Chown _ -> true | _ -> false) trace) in
  (* detect shadow-file patterns: a chmod on a path later renamed away *)
  let chmod_paths =
    List.filter_map (function Chmod (p, _) -> Some p | _ -> None) trace
  in
  let renamed =
    List.filter_map (function Rename (src, _) -> Some src | _ -> None) trace
  in
  let shadow_patterns =
    List.length (List.filter (fun p -> List.mem p renamed) chmod_paths)
  in
  { total; chmods; chowns; shadow_patterns }
