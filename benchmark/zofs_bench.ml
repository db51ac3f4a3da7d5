(* zofs_bench: the Treasury benchmark.

     zofs_bench [--workload W]... [--seed N] [--seconds S] [--trace [0|1]]
                [--json PATH] [--selfcheck]
     zofs_bench --compare A.json B.json
     zofs_bench --smoke

   Runs each workload (default: all four) as a few independent simulated
   worlds whose seeds derive from [--seed]; each world is set-up, the
   measured phase, then crash -> remount -> recover and a durability
   audit.  The worlds' samples are pooled into the simulated-time metrics.
   Worlds are then repeated until [--seconds] of host time have passed (at
   least once); a repeat must reproduce its world's simulated times
   exactly.  Every metric is printed by name and unit, and the last line of
   standard output is one JSON object: {"correct", "attempted", "failed",
   "metrics"}.  With [--trace] the metrics are the per-layer ones of a
   traced repeat (Obs on, the benchmark's spans and subscribers attached),
   which must also reproduce the untraced simulated times and conserve
   time across layers.  A failed check exits 1.  See README.md. *)

module J = Obs.Json
open Harness

type workload = {
  w_name : string;
  w_closed : bool;  (* a closed loop: every op must succeed *)
  w_worlds : int;  (* independent worlds pooled into one run's metrics *)
  w_run : ctx -> world;
  w_metrics : world list -> (string * float) list * (string * int) list;
  w_layers : (string * string) list;  (* its own per-layer metrics *)
}

let workloads =
  [
    {
      w_name = Wl_private.name;
      w_closed = true;
      w_worlds = 3;
      w_run = Wl_private.run;
      w_metrics = closed_metrics;
      w_layers = [];
    };
    {
      w_name = Wl_shared.name;
      w_closed = true;
      w_worlds = 3;
      w_run = Wl_shared.run;
      w_metrics = closed_metrics;
      w_layers = [];
    };
    {
      w_name = Wl_read.name;
      w_closed = true;
      w_worlds = 2;
      w_run = Wl_read.run;
      w_metrics = closed_metrics;
      w_layers = [];
    };
    {
      w_name = Wl_served.name;
      w_closed = false;
      w_worlds = 3;
      w_run = Wl_served.run;
      w_metrics = Wl_served.metrics;
      w_layers = Wl_served.layers;
    };
  ]

(* units of the end-to-end metrics, in print order *)
let e2e_units =
  [
    ("setup_s", "s");
    ("iqm_ns", "ns");
    ("p99_ns", "ns");
    ("p999_ns", "ns");
    ("throughput_kops", "kops/s");
    ("max_kops_at_slo", "kops/s");
    ("recovery_ms", "ms");
    ("host_kops", "ops/ms");
  ]

type result = {
  r_name : string;
  r_e2e : (string * float * float list) list;  (* name, value, its samples *)
  r_layers : (string * string * float) list;
  r_counts : (string * int) list;
  r_attempted : int;
  r_failed : int;
  r_violations : string list;
}

let host_kops w = Stats.quantile_f w.host_rates 0.9

(* World [i] of a run with seed [seed]. *)
let sub_seed seed i = (seed * 100) + i

(* One run of a workload: [w_worlds] worlds from seeds derived from
   [seed], pooled into the simulated-time metrics; then repeats of those
   worlds — each must reproduce its first run's simulated times exactly —
   until [seconds] of host time have passed (at least one repeat).  With
   [trace] the repeat of world 0 is a traced world: it must reproduce the
   untraced simulated times too, and its probe gives the per-layer
   metrics.  With [selfcheck], only world 0 runs, with the fence-drop
   injection armed. *)
let measure wl ~scale ~seed ~seconds ~trace ~selfcheck ~out_dir =
  let t0 = Sys.time () in
  let world ?probe i =
    if probe <> None then begin
      Obs.enable ~spans:false ~flight:false ();
      Obs.reset ()
    end;
    let w =
      Fun.protect ~finally:Obs.disable (fun () ->
          wl.w_run { scale; seed = sub_seed seed i; probe; selfcheck; setup_only = false })
    in
    (* a world's device is garbage now: give its memory back before the
       next world allocates its own *)
    Gc.compact ();
    w
  in
  let k = if selfcheck then 1 else wl.w_worlds in
  let firsts = Array.init k (fun i -> world i) in
  let violations = ref [] in
  let digest w = fst (wl.w_metrics [ w ]) in
  let repeat ?probe i =
    let w = world ?probe i in
    List.iter2
      (fun (name, a) (_, b) ->
        if a <> b then
          violations :=
            !violations
            @ [
                Printf.sprintf "non-determinism: world %d %s = %.17g on a repeat, %.17g first"
                  i name b a;
              ])
      (digest firsts.(i)) (digest w);
    w
  in
  let probe = if trace && not selfcheck then Some (Probe.create ()) else None in
  let traced = Option.map (fun p -> repeat ~probe:p 0) probe in
  let repeats = ref [] in
  let next = ref 0 in
  while
    (not selfcheck)
    && ((!repeats = [] && traced = None) || Sys.time () -. t0 < seconds)
    && List.length !repeats < 40
  do
    repeats := repeat (!next mod k) :: !repeats;
    incr next
  done;
  let plain = Array.to_list firsts @ List.rev !repeats in
  let all = plain @ Option.to_list traced in
  (* set-up is timed in every world; small set-ups get extra set-up-only
     samples (up to 15, within a tenth of [seconds]) so their median holds *)
  let setups = ref (List.map (fun w -> w.setup_s) plain) in
  let spent = ref 0. and extra = ref 0 in
  while (not selfcheck) && !extra < 15 && !spent < seconds /. 10. do
    let w = wl.w_run { scale; seed = sub_seed seed (!extra mod k); probe = None; selfcheck;
                       setup_only = true } in
    Gc.compact ();
    setups := w.setup_s :: !setups;
    spent := !spent +. w.setup_s;
    incr extra
  done;
  violations := List.concat_map (fun w -> w.violations) all @ !violations;
  let layers =
    match (probe, traced) with
    | Some p, Some w ->
        violations := !violations @ conservation p;
        let json = Probe.chrome_json p in
        (match Result.bind (J.of_string json) Obs.Trace.validate with
        | Ok () -> ()
        | Error e -> violations := !violations @ [ "chrome trace: " ^ e ]);
        Option.iter
          (fun dir ->
            (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
            Out_channel.with_open_bin
              (Printf.sprintf "%s/%s-seed%d.trace.json" dir wl.w_name seed)
              (fun oc -> output_string oc json))
          out_dir;
        let own =
          List.concat_map (fun wl -> List.map (fun (name, u) -> (name, u, 0.)) wl.w_layers) workloads
        in
        List.map
          (fun (name, u, v) ->
            match List.find_opt (fun (n, _, _) -> n = name) w.layers with
            | Some x -> x
            | None -> (name, u, v))
          own
        @ layer_metrics p ~ops:w.ops
        @ [ ("trace_overhead", "ratio", host_kops firsts.(0) /. host_kops w) ]
    | _ -> []
  in
  let sim, counts = wl.w_metrics (Array.to_list firsts) in
  let per_world name = Array.to_list (Array.map (fun w -> List.assoc name (digest w)) firsts) in
  let e2e =
    ("setup_s", Stats.median_f !setups, List.rev !setups)
    :: List.map (fun (name, v) -> (name, v, per_world name)) sim
    @ [
        ( "host_kops",
          Stats.quantile_f (List.concat_map (fun w -> w.host_rates) plain) 0.9,
          List.map host_kops plain );
      ]
  in
  let failed = List.fold_left (fun a w -> a + w.failed) 0 all in
  if wl.w_closed && failed > 0 then
    violations := !violations @ [ Printf.sprintf "%d closed-loop op(s) failed" failed ];
  {
    r_name = wl.w_name;
    r_e2e = e2e;
    r_layers = layers;
    r_counts = counts;
    r_attempted = List.fold_left (fun a w -> a + w.ops) 0 all;
    r_failed = failed;
    r_violations = !violations;
  }

(* ---- output ------------------------------------------------------------ *)

let unit_of k = Option.value ~default:"" (List.assoc_opt k e2e_units)

let print_result r =
  Printf.printf "== %s: %d ops attempted, %d failed\n" r.r_name r.r_attempted r.r_failed;
  List.iter
    (fun (k, v, samples) ->
      Printf.printf "  %-28s %16.4f %-8s (%d sample%s)\n" k v (unit_of k) (List.length samples)
        (if List.length samples = 1 then "" else "s"))
    r.r_e2e;
  List.iter (fun (k, n) -> Printf.printf "  %-28s %16d\n" k n) r.r_counts;
  List.iter (fun (k, u, v) -> Printf.printf "  %-40s %16.4f %s\n" k v u) r.r_layers;
  List.iter (fun v -> Printf.printf "  CHECK FAILED: %s\n" v) r.r_violations

let num f = J.Num f

let result_line results ~trace =
  let single = List.length results = 1 in
  let key r k = if single then k else r.r_name ^ "." ^ k in
  let metric v u = J.Obj [ ("value", num v); ("unit", J.Str u) ] in
  let metrics =
    List.concat_map
      (fun r ->
        if trace then List.map (fun (k, u, v) -> (key r k, metric v u)) r.r_layers
        else List.map (fun (k, v, _) -> (key r k, metric v (unit_of k))) r.r_e2e)
      results
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  J.Obj
    [
      ("correct", J.Bool (List.for_all (fun r -> r.r_violations = []) results));
      ("attempted", num (float_of_int (sum (fun r -> r.r_attempted))));
      ("failed", num (float_of_int (sum (fun r -> r.r_failed))));
      ("metrics", J.Obj metrics);
    ]

let result_file results ~seed =
  J.Obj
    [
      ("seed", num (float_of_int seed));
      ( "workloads",
        J.Arr
          (List.map
             (fun r ->
               J.Obj
                 [
                   ("name", J.Str r.r_name);
                   ( "metrics",
                     J.Obj
                       (List.map
                          (fun (k, v, samples) ->
                            ( k,
                              J.Obj
                                [
                                  ("value", num v);
                                  ("unit", J.Str (unit_of k));
                                  ("samples", J.Arr (List.map num samples));
                                ] ))
                          r.r_e2e) );
                   ( "layers",
                     J.Obj
                       (List.map
                          (fun (k, u, v) -> (k, J.Obj [ ("value", num v); ("unit", J.Str u) ]))
                          r.r_layers) );
                   ( "counts",
                     J.Obj (List.map (fun (k, n) -> (k, num (float_of_int n))) r.r_counts) );
                   ("attempted", num (float_of_int r.r_attempted));
                   ("failed", num (float_of_int r.r_failed));
                   ("violations", J.Arr (List.map (fun s -> J.Str s) r.r_violations));
                 ])
             results) );
    ]

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  output_char oc '\n';
  close_out oc

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> J.of_string (String.trim s)

(* ---- compare ----------------------------------------------------------- *)

let member_exn k j =
  match J.member k j with Some v -> v | None -> failwith ("missing field " ^ k)

let to_num = function J.Num f -> f | _ -> failwith "expected a number"
let to_str = function J.Str s -> s | _ -> failwith "expected a string"
let to_list = function J.Arr l -> l | _ -> failwith "expected an array"

(* The spread of a metric's samples, as a share of their median. *)
let spread samples =
  match List.sort compare samples with
  | [] -> 0.
  | s ->
      let med = Stats.median_f s in
      if med = 0. then 0.
      else (List.nth s (List.length s - 1) -. List.hd s) /. Float.abs med

(* Metrics on the host clock; the others are simulated time, reproduced
   exactly by a rerun with the same seed. *)
let host_timed = [ "setup_s"; "host_kops" ]

(* One row per (workload, metric), judged against BENCHMARK.json: a move
   beyond the bound is a regression or an improvement, unless the
   metric's own spread in either file exceeds the bound — then it is
   unresolved.  The own spread of a host-timed metric is that of its
   samples; a simulated-time metric has none when both files used the
   same seed, and the spread of its per-world values when they did not.
   Returns the number of regressions. *)
let compare_files spec a b =
  let bounds =
    List.map
      (fun m ->
        ( to_str (member_exn "name" m),
          (to_str (member_exn "better" m), to_num (member_exn "bound" m)) ))
      (to_list (member_exn "end_to_end" spec))
  in
  let same_seed = to_num (member_exn "seed" a) = to_num (member_exn "seed" b) in
  let workloads j =
    List.map (fun w -> (to_str (member_exn "name" w), w)) (to_list (member_exn "workloads" j))
  in
  let wb = workloads b in
  let regressions = ref 0 in
  Printf.printf "%-12s %-16s %14s %14s %8s %7s  %s\n" "workload" "metric" "A" "B" "change"
    "bound" "verdict";
  List.iter
    (fun (w, ja) ->
      match List.assoc_opt w wb with
      | None -> Printf.printf "%-12s (missing from B)\n" w
      | Some jb ->
          List.iter
            (fun (metric, (better, bound)) ->
              let get j =
                Option.map
                  (fun m ->
                    ( to_num (member_exn "value" m),
                      List.map to_num (to_list (member_exn "samples" m)) ))
                  (J.member metric (member_exn "metrics" j))
              in
              match (get ja, get jb) with
              | Some (va, sa), Some (vb, sb) ->
                  let own s = if same_seed && not (List.mem metric host_timed) then 0. else spread s in
                  let change = if va = 0. then 0. else (vb -. va) /. Float.abs va in
                  let worse = if better = "lower" then change else -.change in
                  let verdict =
                    if Float.max (own sa) (own sb) > bound then "unresolved"
                    else if worse > bound then begin
                      incr regressions;
                      "REGRESSION"
                    end
                    else if -.worse > bound then "improved"
                    else "within bound"
                  in
                  Printf.printf "%-12s %-16s %14.4f %14.4f %+7.2f%% %6.1f%%  %s\n" w metric va vb
                    (100. *. change) (100. *. bound) verdict
              | _ -> Printf.printf "%-12s %-16s (missing)\n" w metric)
            bounds)
    (workloads a);
  !regressions

(* ---- main -------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: zofs_bench [--workload W]... [--seed N] [--seconds S] [--trace [0|1]] [--json \
     PATH] [--selfcheck]\n\
    \       zofs_bench --compare A.json B.json\n\
    \       zofs_bench --smoke";
  exit 2

let find_workload n =
  match List.find_opt (fun w -> w.w_name = n) workloads with
  | Some w -> w
  | None ->
      Printf.eprintf "zofs_bench: unknown workload %S (known: %s)\n" n
        (String.concat ", " (List.map (fun w -> w.w_name) workloads));
      exit 2

(* The tier-1 smoke: every workload at 1/50 scale with every check on
   (a traced repeat of world 0 checks determinism, trace neutrality and
   conservation), plus the negative self-check, which must report a lost
   acknowledged write.  Writes no files. *)
let smoke () =
  let bad = ref 0 in
  List.iter
    (fun wl ->
      let t0 = Sys.time () in
      let r = measure wl ~scale:50 ~seed:1 ~seconds:0. ~trace:true ~selfcheck:false ~out_dir:None in
      List.iter (fun v -> Printf.printf "smoke %s: CHECK FAILED: %s\n" wl.w_name v) r.r_violations;
      if r.r_violations <> [] then incr bad
      else
        Printf.printf "smoke %s: ok (%d ops, %.1f s)\n" wl.w_name r.r_attempted
          (Sys.time () -. t0))
    workloads;
  let r =
    measure (List.hd workloads) ~scale:50 ~seed:1 ~seconds:0. ~trace:false ~selfcheck:true
      ~out_dir:None
  in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  (match List.find_opt (fun v -> contains v "lost acknowledged write") r.r_violations with
  | Some v -> Printf.printf "smoke selfcheck: caught: %s\n" v
  | None ->
      incr bad;
      print_endline "smoke selfcheck: FAILED — dropped fences went unnoticed");
  exit (if !bad = 0 then 0 else 1)

let () =
  (* a world's device is a few hundred MB of simulated pages; keep the
     major heap close to what is live *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 80 };
  let names = ref [] and seed = ref 1 and seconds = ref 0. and trace = ref false in
  let json = ref None and selfcheck = ref false and compare = ref None in
  let smoke_ = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        names := !names @ [ w ];
        parse rest
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with Some v -> seed := v | None -> usage ());
        parse rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with Some v when v >= 0. -> seconds := v | _ -> usage ());
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := v = "1";
        parse rest
    | "--trace" :: rest ->
        trace := true;
        parse rest
    | "--json" :: p :: rest ->
        json := Some p;
        parse rest
    | "--selfcheck" :: rest ->
        selfcheck := true;
        parse rest
    | "--compare" :: a :: b :: rest ->
        compare := Some (a, b);
        parse rest
    | "--smoke" :: rest ->
        smoke_ := true;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !smoke_ then smoke ();
  (match !compare with
  | Some (a, b) -> (
      match (read_json "BENCHMARK.json", read_json a, read_json b) with
      | Ok s, Ok ja, Ok jb ->
          let n = try compare_files s ja jb with Failure m -> prerr_endline m; exit 2 in
          exit (if n = 0 then 0 else 1)
      | Error e, _, _ | _, Error e, _ | _, _, Error e ->
          Printf.eprintf "zofs_bench: %s\n" e;
          exit 2)
  | None -> ());
  let selected =
    if !names = [] then workloads else List.map find_workload !names
  in
  let results =
    List.map
      (fun wl ->
        let r =
          measure wl ~scale:1 ~seed:!seed ~seconds:!seconds ~trace:!trace
            ~selfcheck:!selfcheck ~out_dir:(Some "benchmark/out")
        in
        print_result r;
        r)
      selected
  in
  Option.iter (fun p -> write_file p (J.to_string (result_file results ~seed:!seed))) !json;
  let line = result_line results ~trace:!trace in
  print_endline (J.to_string line);
  exit (if List.for_all (fun r -> r.r_violations = []) results then 0 else 1)
