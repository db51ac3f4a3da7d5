(* Tests for the gate harness (lib/gate): the perf gate's pinned
   experiments must be deterministic (byte-identical JSON across runs — the
   property that lets every BENCH_*.json be committed and compared
   exactly), the one comparator must fail on any moved leaf and name its
   path, and every gate's negatives must still be caught. *)

module P = Gates.Perf_gate
module G = Gates.Gate
module J = Obs.Json
module V = Treasury.Vfs
module FL = Workloads.Fslab

(* ---- determinism --------------------------------------------------------- *)

(* Two independent runs of the full pinned set, same process: every counter
   and every simulated nanosecond must match, or the committed-baseline
   scheme breaks down into flaky gates.  The set includes the two
   64-tenant-process shared experiments, so this also proves the
   cross-process scheduling (64 FSLibs contending for one coffer lease)
   is reproducible down to the nanosecond. *)
let test_two_runs_identical () =
  let a = P.run_all () in
  let b = P.run_all () in
  Alcotest.(check string) "byte-identical JSON"
    (J.to_string (P.to_json a))
    (J.to_string (P.to_json b))

(* The stronger multi-process claim: not just the end-of-run counters but
   the full event stream — one line per completed op with its simulated
   completion time and tenant index, in completion order — is
   byte-identical across runs with 64 tenant processes.  The scheduler
   orders runnable threads by (time, seq) only and tenant labels are
   spawn indexes (not pids, which come from a global counter), so there
   is no hidden nondeterminism to absorb. *)
let shared_event_stream () =
  let buf = Buffer.create 8192 in
  let world = Sim.create () in
  let fail e = Alcotest.failf "op failed: %s" (Treasury.Errno.to_string e) in
  Sim.spawn world
    ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ())
    ~name:"setup"
    (fun () ->
      let _dev, kfs = FL.make_zofs ~pages:16384 ~perf:Nvm.Perf.optane () in
      let fs0 = FL.zofs_fslib kfs in
      (match V.write_file fs0 "/shared" ~mode:0o644 "" with
      | Ok () -> ()
      | Error e -> fail e);
      (match V.mkdir fs0 "/sdir" 0o755 with
      | Ok () -> ()
      | Error e -> fail e);
      for p = 0 to 63 do
        Sim.spawn world
          ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ())
          ~name:(Printf.sprintf "tenant-%d" p)
          (fun () ->
            Obs.set_tenant p;
            let fs = FL.zofs_fslib kfs in
            let payload = String.make 256 (Char.chr (65 + (p mod 26))) in
            for i = 0 to 3 do
              (match V.append_file fs "/shared" payload with
              | Ok () -> ()
              | Error e -> fail e);
              Buffer.add_string buf
                (Printf.sprintf "t=%d p=%d append i=%d\n" (Sim.now ()) p i);
              (match
                 V.write_file fs
                   (Printf.sprintf "/sdir/p%d_%d" p i)
                   ~mode:0o644 "x"
               with
              | Ok () -> ()
              | Error e -> fail e);
              Buffer.add_string buf
                (Printf.sprintf "t=%d p=%d create i=%d\n" (Sim.now ()) p i);
              Sim.advance 300
            done)
      done);
  Sim.run world;
  Buffer.contents buf

let test_64proc_event_stream_identical () =
  let a = shared_event_stream () in
  let b = shared_event_stream () in
  Alcotest.(check int) "stream non-trivial (64 procs x 8 events)"
    (64 * 8)
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' a)));
  Alcotest.(check string) "byte-identical event streams" a b

(* ---- the comparator ------------------------------------------------------ *)

let experiment name ~sim_ns =
  J.Obj
    [
      ("name", J.Str name);
      ("ops", G.int 100);
      ("sim_ns", G.int sim_ns);
      ("fences", G.int 210);
    ]

let summary ?(schema = "zofs-perf-1") experiments =
  J.Obj [ ("schema", J.Str schema); ("experiments", J.Arr experiments) ]

let base =
  summary
    [ experiment "append" ~sim_ns:100_000; experiment "create" ~sim_ns:50_000 ]

let with_append_ns ns =
  summary [ experiment "append" ~sim_ns:ns; experiment "create" ~sim_ns:50_000 ]

let differences current = fst (G.compare ~baseline:base current)

let test_json_roundtrip () =
  match J.of_string (J.to_string base) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok back ->
      Alcotest.(check (pair (list string) (list string)))
        "no differences, no notes" ([], [])
        (G.compare ~baseline:base back)

let test_bad_schema_rejected () =
  match differences (summary ~schema:"zofs-perf-999" []) with
  | [] -> Alcotest.fail "an unknown schema must differ"
  | d :: _ ->
      Alcotest.(check bool) "names the schema" true
        (String.starts_with ~prefix:"schema:" d)

let test_equal_passes () =
  Alcotest.(check (list string)) "no differences" [] (differences base)

(* One moved leaf fails, and the line names its path, both values and the
   relative change. *)
let test_synthetic_regression_fails () =
  Alcotest.(check (list string))
    "exactly the moved leaf"
    [ "experiments[append].sim_ns: 100000 -> 120000 (+20.0%)" ]
    (differences (with_append_ns 120_000))

(* The comparator is exact: what a 10% tolerance used to call noise fails. *)
let test_noise_fails () =
  Alcotest.(check int) "one difference" 1
    (List.length (differences (with_append_ns 105_000)))

(* An improvement moves the baseline too; it fails until re-baselined. *)
let test_improvement_fails () =
  Alcotest.(check int) "one difference" 1
    (List.length (differences (with_append_ns 70_000)))

(* A baseline entry the current run no longer produces fails: a silently
   dropped experiment must not weaken the gate. *)
let test_missing_experiment_fails () =
  Alcotest.(check (list string)) "missing entry"
    [ "experiments[create]: missing" ]
    (differences (summary [ experiment "append" ~sim_ns:100_000 ]))

(* Named entries are matched by name, not position, and a new one is only
   noted. *)
let test_new_entry_noted () =
  let current =
    summary
      [
        experiment "create" ~sim_ns:50_000;
        experiment "mkdir" ~sim_ns:10_000;
        experiment "append" ~sim_ns:100_000;
      ]
  in
  Alcotest.(check (pair (list string) (list string)))
    "passes with a note"
    ([], [ "experiments[mkdir]: new entry" ])
    (G.compare ~baseline:base current)

(* ---- negatives ------------------------------------------------------------- *)

(* Every planted bug a gate carries must still be caught. *)
let negative_cases =
  List.concat_map
    (fun g ->
      List.map
        (fun (neg, caught) ->
          Alcotest.test_case
            (Printf.sprintf "%s %s caught" g.G.name neg)
            `Quick
            (fun () -> Alcotest.(check bool) "caught" true (caught ())))
        g.G.negatives)
    Gates.all

let () =
  Alcotest.run "perf"
    [
      ( "determinism",
        [
          Alcotest.test_case "two runs byte-identical" `Quick
            test_two_runs_identical;
          Alcotest.test_case "64-process event stream byte-identical" `Quick
            test_64proc_event_stream_identical;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "bad schema rejected" `Quick
            test_bad_schema_rejected;
        ] );
      ( "comparator",
        [
          Alcotest.test_case "equal summary passes" `Quick test_equal_passes;
          Alcotest.test_case "+20%% fails" `Quick test_synthetic_regression_fails;
          Alcotest.test_case "+5%% fails: no tolerance" `Quick test_noise_fails;
          Alcotest.test_case "improvement fails until re-baselined" `Quick
            test_improvement_fails;
          Alcotest.test_case "missing experiment fails" `Quick
            test_missing_experiment_fails;
          Alcotest.test_case "new entry only noted" `Quick test_new_entry_noted;
        ] );
      ("negatives", negative_cases);
    ]
