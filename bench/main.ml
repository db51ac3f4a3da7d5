(* The benchmark harness: renders every table and figure of the paper's
   evaluation (§6), its §2.3 survey and the ablations of DESIGN.md §5, each
   an experiment of lib/paper, plus a Bechamel suite measuring real host
   time of each experiment's kernel operation.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- table2 fig7 --quick

   --quick runs at [Paper.quick] scale; --obs adds per-experiment latency
   histograms and the layer split, and writes BENCH_obs_snapshot.json and
   trace.json at the end (the plain BENCH_obs.json name is the @obs gate's
   committed baseline, never clobbered); --json writes one
   BENCH_<experiment>.json per experiment.

   All paper numbers are simulated time (deterministic); Bechamel numbers
   are host wall-clock. *)

module V = Treasury.Vfs
module Ft = Treasury.Fs_types
module FL = Workloads.Fslab
module D = Nvm.Device

let ok = Workloads.Runner.ok

(* ==== Bechamel: real host time of each experiment's kernel op ================= *)

let bechamel _scale =
  let open Bechamel in
  let open Toolkit in
  (* one simulated process shared by the preparation and every measured
     closure (mappings and FD tables are per process) *)
  let bproc = Sim.Proc.create ~uid:0 ~gid:0 () in
  let zofs =
    Sim.run_thread ~proc:bproc (fun () ->
        let i = FL.make ~pages:65536 FL.Zofs in
        ok (V.write_file i.FL.fs "/bench" ~mode:0o644 (String.make 4096 'b'));
        ok (V.mkdir i.FL.fs "/bdir" 0o755);
        ok (V.write_file i.FL.fs "/bdir/sample" ~mode:0o644 "s");
        i)
  in
  let pmfs = (FL.make ~pages:16384 FL.Pmfs).FL.fs in
  Sim.run_thread ~proc:bproc (fun () ->
      ok (V.write_file pmfs "/bench" ~mode:0o644 (String.make 4096 'b')));
  let dev = D.create ~perf:Nvm.Perf.optane ~size:(256 * Nvm.page_size) () in
  let counter = ref 0 in
  let in_sim f = Staged.stage (fun () -> Sim.run_thread ~proc:bproc f) in
  let block = String.make 4096 'x' in
  let fsl_small =
    Array.init 5_000 (fun i ->
        {
          Survey.Fsl.id = i;
          (* directories at multiples of 9; every file hangs off one *)
          parent =
            (if i = 0 then -1
             else if i mod 9 = 0 then i - 9
             else i / 9 * 9);
          kind = (if i mod 9 = 0 then Survey.Fsl.Directory else Survey.Fsl.Regular);
          perm = (if i mod 17 = 0 then 0o600 else 0o644);
          uid = 1000;
          gid = 1000;
          size = 1000;
        })
  in
  let tests =
    [
      Test.make ~name:"table1-ntstore-4k"
        (in_sim (fun () ->
             D.nt_write_string dev 0 block;
             D.sfence dev));
      Test.make ~name:"table2-zofs-append"
        (in_sim (fun () -> ok (V.append_file zofs.FL.fs "/bench" block)));
      Test.make ~name:"table3-survey-scan"
        (in_sim (fun () ->
             ignore (Survey.Appdirs.scan zofs.FL.fs ~system:"b" "/bdir")));
      Test.make ~name:"table4-grouping-5k"
        (Staged.stage (fun () -> ignore (Survey.Grouping.analyze fsl_small)));
      Test.make ~name:"fig7-zofs-overwrite-4k"
        (in_sim (fun () ->
             let fd = ok (V.openf zofs.FL.fs "/bench" [ Ft.O_WRONLY ] 0) in
             ignore (ok (V.pwrite zofs.FL.fs fd ~off:0 block));
             ok (V.close zofs.FL.fs fd)));
      Test.make ~name:"fig8-pmfs-overwrite-4k"
        (in_sim (fun () ->
             let fd = ok (V.openf pmfs "/bench" [ Ft.O_WRONLY ] 0) in
             ignore (ok (V.pwrite pmfs fd ~off:0 block));
             ok (V.close pmfs fd)));
      Test.make ~name:"fig9-zofs-create-delete"
        (in_sim (fun () ->
             incr counter;
             let p = Printf.sprintf "/bdir/t%d" !counter in
             ok (V.write_file zofs.FL.fs p ~mode:0o644 "x");
             ok (V.unlink zofs.FL.fs p)));
      Test.make ~name:"table9-zofs-stat"
        (in_sim (fun () -> ignore (ok (V.stat zofs.FL.fs "/bench"))));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let estimates test =
    let results = Benchmark.all cfg instances test in
    Hashtbl.fold
      (fun name ols_result acc ->
        let line =
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              Printf.sprintf "  %-28s %12.0f ns/op (host)\n" name est
          | _ -> Printf.sprintf "  %-28s (no estimate)\n" name
        in
        Paper.Note line :: acc)
      (Analyze.all ols Instance.monotonic_clock results)
      []
  in
  (Paper.Section
     "Bechamel (host wall-clock of each experiment's core operation)"
  :: List.concat_map estimates tests)
  @ [ Paper.Note "\n" ]

(* ==== driver ==================================================================== *)

let experiments = Paper.all @ [ { Paper.name = "bechamel"; run = bechamel } ]

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  output_char oc '\n';
  close_out oc

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flags = [ "--quick"; "--obs"; "--json" ] in
  let quick = List.mem "--quick" args
  and obs_on = List.mem "--obs" args
  and json_on = List.mem "--json" args in
  let args = List.filter (fun a -> not (List.mem a flags)) args in
  let scale = if quick then Paper.quick else Paper.full in
  if obs_on then Obs.enable ();
  let find name = List.find_opt (fun e -> e.Paper.name = name) experiments in
  (* Every name is checked before anything runs: a typo must not cost the
     run that precedes it, nor pass as success. *)
  (match List.filter (fun n -> find n = None) args with
  | [] -> ()
  | unknown ->
      List.iter (Printf.eprintf "unknown experiment %s\n") unknown;
      exit 2);
  let selected = if args = [] then experiments else List.filter_map find args in
  print_endline
    "ZoFS reproduction benchmark harness (simulated NVM; see DESIGN.md)";
  List.iter
    (fun e ->
      let name = e.Paper.name in
      let before = if obs_on then Some (Obs.Snapshot.take ()) else None in
      let t0 = Unix.gettimeofday () in
      let items = e.Paper.run scale in
      print_string (Report.text items);
      let extra =
        match before with
        | Some b ->
            let d = Obs.Snapshot.diff b (Obs.Snapshot.take ()) in
            print_string (Obs.Snapshot.render ~title:(name ^ " — obs") d);
            [ ("obs", Obs.Snapshot.to_json d) ]
        | None -> []
      in
      if json_on then
        write_file ("BENCH_" ^ name ^ ".json")
          (Obs.Json.to_string (Report.json ~name ~extra items));
      Printf.printf "[%s done in %.1fs]\n%!" name
        (Unix.gettimeofday () -. t0))
    selected;
  if obs_on then begin
    write_file "BENCH_obs_snapshot.json"
      (Obs.Json.to_string (Obs.Snapshot.to_json (Obs.Snapshot.take ())));
    write_file "trace.json" (Obs.Json.to_string (Obs.Trace.to_json ()));
    Printf.printf
      "obs: wrote BENCH_obs_snapshot.json and trace.json (%d spans, %d \
       dropped, %d still open)\n"
      (Obs.Trace.recorded ()) (Obs.Trace.dropped ()) (Obs.Trace.open_spans ())
  end
