(* Tests for the observability layer (lib/obs): histogram bucket math and
   merge laws, snapshot round-trips, multi-subscriber trace dispatch (the
   lib/check + lib/obs composition regression), lease retry accounting,
   span balance / Chrome-trace well-formedness, and the zero-sim-cost
   guarantee of enabling obs. *)

module D = Nvm.Device
module H = Obs.Hist
module J = Obs.Json
module V = Treasury.Vfs

let pg = Nvm.page_size

(* Run [f] with obs freshly enabled, then restore the disabled default so
   the global switch never leaks into other tests. *)
let with_obs ?(spans = true) f =
  Obs.enable ~spans ();
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

let cval name = Obs.Counter.value (Obs.Counter.make name)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ---- histogram edge cases ----------------------------------------------- *)

let test_hist_empty () =
  let h = H.create () in
  Alcotest.(check int) "count" 0 (H.count h);
  Alcotest.(check int) "min" 0 (H.min_value h);
  Alcotest.(check int) "max" 0 (H.max_value h);
  Alcotest.(check int) "sum" 0 (H.sum h);
  Alcotest.(check int) "p50" 0 (H.percentile h 0.5);
  Alcotest.(check int) "p99" 0 (H.percentile h 0.99);
  Alcotest.(check (list (pair int int))) "no buckets" [] (H.buckets h)

let test_hist_single () =
  let h = H.create () in
  H.add h 12345;
  Alcotest.(check int) "count" 1 (H.count h);
  Alcotest.(check int) "min" 12345 (H.min_value h);
  Alcotest.(check int) "max" 12345 (H.max_value h);
  Alcotest.(check int) "sum" 12345 (H.sum h);
  (* all percentiles of a single sample are that sample (clamped to the
     observed min/max even though the bucket is ~12.5% wide) *)
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "p%g" (q *. 100.))
        12345 (H.percentile h q))
    [ 0.01; 0.5; 0.9; 0.99; 1.0 ]

let test_hist_negative_clamped () =
  let h = H.create () in
  H.add h (-7);
  Alcotest.(check int) "count" 1 (H.count h);
  Alcotest.(check int) "clamped to 0" 0 (H.max_value h)

let test_hist_bucket_boundaries () =
  (* values 0..15 get exact singleton buckets *)
  for v = 0 to 15 do
    Alcotest.(check int) (Printf.sprintf "index %d" v) v (H.bucket_index v);
    Alcotest.(check (pair int int))
      (Printf.sprintf "bounds %d" v)
      (v, v)
      (H.bucket_bounds (H.bucket_index v))
  done;
  (* every bucket contains the values that index into it *)
  let probes =
    [ 15; 16; 17; 31; 32; 33; 63; 64; 100; 255; 256; 1023; 1024; 1_000_000;
      max_int / 2; max_int ]
  in
  List.iter
    (fun v ->
      let b = H.bucket_index v in
      Alcotest.(check bool)
        (Printf.sprintf "index %d in range" v)
        true
        (b >= 0 && b < H.nbuckets);
      let lo, hi = H.bucket_bounds b in
      Alcotest.(check bool)
        (Printf.sprintf "%d within [%d,%d]" v lo hi)
        true
        (lo <= v && v <= hi))
    probes;
  (* bucket_index is monotone across boundaries... *)
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "monotone at %d" v)
        true
        (H.bucket_index v <= H.bucket_index (v + 1)))
    [ 14; 15; 16; 17; 31; 32; 63; 64; 127; 128; 1023; 1024 ];
  (* ...and consecutive buckets tile the value space with no gap/overlap *)
  for b = 0 to 99 do
    let _, hi = H.bucket_bounds b in
    let lo', _ = H.bucket_bounds (b + 1) in
    Alcotest.(check int) (Printf.sprintf "adjacent %d" b) (hi + 1) lo'
  done

let hist_of values =
  let h = H.create () in
  List.iter (H.add h) values;
  h

let hist_eq name a b =
  Alcotest.(check int) (name ^ " count") (H.count a) (H.count b);
  Alcotest.(check int) (name ^ " sum") (H.sum a) (H.sum b);
  Alcotest.(check int) (name ^ " min") (H.min_value a) (H.min_value b);
  Alcotest.(check int) (name ^ " max") (H.max_value a) (H.max_value b);
  Alcotest.(check (list (pair int int)))
    (name ^ " buckets") (H.buckets a) (H.buckets b);
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "%s p%g" name (q *. 100.))
        (H.percentile a q) (H.percentile b q))
    [ 0.5; 0.9; 0.99 ]

let test_hist_merge_associative () =
  let a = hist_of [ 1; 5; 17; 100 ]
  and b = hist_of [ 0; 2_000; 2_001 ]
  and c = hist_of [ 12345; 7 ] in
  hist_eq "assoc" (H.merge (H.merge a b) c) (H.merge a (H.merge b c));
  hist_eq "comm" (H.merge a b) (H.merge b a);
  (* merge is pure: inputs unchanged *)
  Alcotest.(check int) "a untouched" 4 (H.count a);
  Alcotest.(check int) "b untouched" 3 (H.count b);
  (* merging the empty histogram is the identity *)
  hist_eq "unit" (H.merge a (H.create ())) a

(* ---- registry + snapshots ----------------------------------------------- *)

let test_disabled_is_noop () =
  Obs.disable ();
  Obs.reset ();
  Obs.cnt "test.noop" 5;
  Obs.observe "test.noop_h" 100;
  Alcotest.(check int) "counter untouched" 0 (cval "test.noop");
  Alcotest.(check int) "hist untouched" 0
    (H.count (Obs.Histogram.hist (Obs.Histogram.make "test.noop_h")))

let test_snapshot_diff_and_roundtrip () =
  with_obs (fun () ->
      Obs.cnt "test.ops" 10;
      Obs.observe "test.lat" 100;
      let s1 = Obs.Snapshot.take () in
      Obs.cnt "test.ops" 32;
      Obs.observe "test.lat" 3_000;
      let s2 = Obs.Snapshot.take () in
      let d = Obs.Snapshot.diff s1 s2 in
      (* the diff shows only the delta... *)
      let r = Obs.Snapshot.render ~title:"delta" d in
      Alcotest.(check bool) "delta counter" true (contains r "32");
      (* ...and snapshots survive a JSON round-trip bit-for-bit *)
      let json = Obs.Snapshot.to_json s2 in
      match Obs.Snapshot.of_json json with
      | Error e -> Alcotest.failf "of_json: %s" e
      | Ok s2' ->
          Alcotest.(check string)
            "render equal after round-trip"
            (Obs.Snapshot.render s2)
            (Obs.Snapshot.render s2');
          (* and the re-encoded JSON is identical *)
          Alcotest.(check string)
            "json stable"
            (J.to_string json)
            (J.to_string (Obs.Snapshot.to_json s2')))

let test_json_parse () =
  (match J.of_string {| {"a": [1, 2.5, true, null, "xA"], "b": {}} |} with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok j -> (
      match J.member "a" j with
      | Some (J.Arr [ J.Num 1.; J.Num 2.5; J.Bool true; J.Null; J.Str "xA" ])
        ->
          ()
      | _ -> Alcotest.fail "unexpected structure"));
  match J.of_string "{broken" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted malformed JSON"

(* ---- multi-subscriber trace dispatch (satellite: check + obs compose) --- *)

let test_device_subscribers_both_fire () =
  let dev = D.create ~perf:Nvm.Perf.free ~size:(4 * pg) () in
  let n1 = ref 0 and n2 = ref 0 in
  let s1 = D.add_trace_subscriber dev (fun _ -> incr n1) in
  let _s2 = D.add_trace_subscriber dev (fun _ -> incr n2) in
  D.write_u64 dev 0 42;
  Alcotest.(check bool) "first fired" true (!n1 > 0);
  Alcotest.(check int) "both saw the same events" !n1 !n2;
  D.remove_trace_subscriber dev s1;
  let before = !n2 in
  D.write_u64 dev 8 43;
  Alcotest.(check int) "removed subscriber silent" 1 !n1;
  Alcotest.(check bool) "remaining still fires" true (!n2 > before)

let test_mpk_subscribers_both_fire () =
  let dev = D.create ~perf:Nvm.Perf.free ~size:(4 * pg) () in
  let mpk = Mpk.create dev in
  let n1 = ref 0 and n2 = ref 0 in
  let s1 = Mpk.add_trace_subscriber mpk (fun _ -> incr n1) in
  let _s2 = Mpk.add_trace_subscriber mpk (fun _ -> incr n2) in
  let proc = Sim.Proc.create ~uid:0 ~gid:0 () in
  Sim.run_thread ~proc (fun () ->
      Mpk.wrpkru mpk [ (1, Mpk.Pk_read_write) ];
      Mpk.with_keys mpk [ (2, Mpk.Pk_read) ] (fun () -> ()));
  Alcotest.(check bool) "first fired" true (!n1 > 0);
  Alcotest.(check int) "both saw the same events" !n1 !n2;
  Mpk.remove_trace_subscriber mpk s1;
  let frozen = !n1 in
  Sim.run_thread ~proc (fun () -> Mpk.wrpkru mpk [ (1, Mpk.Pk_read) ]);
  Alcotest.(check int) "removed subscriber silent" frozen !n1

(* lib/check (named slot) and lib/obs (anonymous subscriber) attached to
   one device, both observing. *)
let test_check_and_obs_compose () =
  let dev = D.create ~perf:Nvm.Perf.optane ~size:(64 * pg) () in
  let _t =
    Check.attach ~persist:Check.Log ~guideline:Check.Off ~lock:Check.Off dev
  in
  Check.reset_report ();
  Fun.protect
    ~finally:(fun () ->
      Check.detach ();
      Check.reset_report ())
    (fun () ->
      with_obs (fun () ->
          Obs.attach_device dev;
          let media0 = cval "nvm.media_ns" in
          Sim.run_thread (fun () ->
              D.write_u64 dev 0 42;
              (* publish without flush: the checker must still fire *)
              Check.publish dev ~label:"inode-commit" 0 64);
          let rules =
            List.map
              (fun v -> v.Check.v_rule)
              (Check.report ()).Check.r_violations
          in
          Alcotest.(check (list string)) "check fires" [ "missing-flush" ]
            rules;
          Alcotest.(check bool) "obs accounted media time" true
            (cval "nvm.media_ns" > media0)))

(* ---- lease accounting (satellite) --------------------------------------- *)

let test_uncontended_acquire_zero_retries () =
  let dev = D.create ~perf:Nvm.Perf.free ~size:(4 * pg) () in
  with_obs (fun () ->
      let acq0 = cval "lease.acquires" and rty0 = cval "lease.retries" in
      Sim.run_thread (fun () ->
          Zofs.Lease.acquire dev pg;
          Zofs.Lease.release dev pg);
      Alcotest.(check int) "one acquire" (acq0 + 1) (cval "lease.acquires");
      Alcotest.(check int) "zero retries" rty0 (cval "lease.retries"))

let test_contended_acquire_counts_retries () =
  let dev = D.create ~perf:Nvm.Perf.free ~size:(4 * pg) () in
  with_obs (fun () ->
      Sim.run_thread (fun () ->
          (* a foreign owner holds the lease until t=10µs: the acquire must
             spin (backoff 200 ns per attempt) until it expires, then steal *)
          D.write_u64 dev pg ((10_000 lsl 16) lor 0xBEEF);
          Zofs.Lease.acquire dev pg);
      Alcotest.(check bool) "retries recorded" true (cval "lease.retries" > 0);
      Alcotest.(check bool) "wait recorded" true (cval "lease.wait_ns" > 0);
      Alcotest.(check int) "one acquire" 1 (cval "lease.acquires"))

(* ---- spans + Chrome trace export ---------------------------------------- *)

let test_spans_balanced_and_trace_valid () =
  with_obs (fun () ->
      Sim.run_thread (fun () ->
          Obs.span ~cat:"test" ~name:"outer" (fun () ->
              Sim.advance 100;
              Obs.span ~cat:"test" ~name:"inner" (fun () -> Sim.advance 50);
              Sim.advance 25);
          Obs.span ~cat:"test" ~name:"second" (fun () -> Sim.advance 10));
      Alcotest.(check int) "balanced" 0 (Obs.Trace.open_spans ());
      Alcotest.(check int) "recorded" 3 (Obs.Trace.recorded ());
      Alcotest.(check int) "no drops" 0 (Obs.Trace.dropped ());
      let json = Obs.Trace.to_json () in
      (match Obs.Trace.validate json with
      | Ok () -> ()
      | Error e -> Alcotest.failf "trace invalid: %s" e);
      (* sim-time monotonicity: spans are recorded at end time, so end
         timestamps (ts + dur) must be non-decreasing in export order, and
         every begin/end pair must be non-negative (Chrome trace format) *)
      let evs =
        match J.member "traceEvents" json with
        | Some (J.Arr evs) -> evs
        | _ -> Alcotest.fail "no traceEvents array"
      in
      Alcotest.(check int) "all spans exported" 3 (List.length evs);
      let num k ev =
        match J.member k ev with
        | Some (J.Num f) -> f
        | _ -> Alcotest.failf "missing numeric %s" k
      in
      let last_end = ref 0.0 in
      List.iter
        (fun ev ->
          (match J.member "ph" ev with
          | Some (J.Str "X") -> ()
          | _ -> Alcotest.fail "not a complete event");
          let ts = num "ts" ev and dur = num "dur" ev in
          Alcotest.(check bool) "ts >= 0" true (ts >= 0.0);
          Alcotest.(check bool) "dur >= 0" true (dur >= 0.0);
          Alcotest.(check bool) "ends ordered" true (ts +. dur >= !last_end);
          last_end := ts +. dur)
        evs;
      (* the exported JSON string round-trips through the parser and still
         validates (what the obs gate checks) *)
      match J.of_string (J.to_string json) with
      | Error e -> Alcotest.failf "reparse: %s" e
      | Ok j -> (
          match Obs.Trace.validate j with
          | Ok () -> ()
          | Error e -> Alcotest.failf "reparsed trace invalid: %s" e))

let test_span_ring_drops () =
  with_obs (fun () ->
      Obs.Trace.set_capacity 4;
      Fun.protect
        ~finally:(fun () -> Obs.Trace.set_capacity 65536)
        (fun () ->
          for i = 1 to 6 do
            Obs.span ~cat:"test" ~name:(string_of_int i) (fun () -> ())
          done;
          Alcotest.(check int) "ring holds capacity" 4 (Obs.Trace.recorded ());
          Alcotest.(check int) "drops counted" 2 (Obs.Trace.dropped ());
          let json = Obs.Trace.to_json () in
          (match Obs.Trace.validate json with
          | Ok () -> ()
          | Error e -> Alcotest.failf "trace invalid: %s" e);
          (* oldest spans were evicted: the survivors are 3..6 *)
          match J.member "traceEvents" json with
          | Some (J.Arr evs) ->
              let names =
                List.map
                  (fun ev ->
                    match J.member "name" ev with
                    | Some (J.Str s) -> s
                    | _ -> Alcotest.fail "unnamed span")
                  evs
              in
              Alcotest.(check (list string))
                "oldest evicted" [ "3"; "4"; "5"; "6" ] names
          | _ -> Alcotest.fail "no traceEvents array"))

let test_span_exception_safe () =
  with_obs (fun () ->
      (try
         Obs.span ~cat:"test" ~name:"boom" (fun () -> failwith "boom")
       with Failure _ -> ());
      Alcotest.(check int) "span closed on exception" 0
        (Obs.Trace.open_spans ());
      Alcotest.(check int) "span still recorded" 1 (Obs.Trace.recorded ()))

(* ---- syscall instrumentation + layer attribution ------------------------ *)

let test_with_syscall_histogram_and_layers () =
  with_obs (fun () ->
      Sim.run_thread (fun () ->
          Obs.with_syscall "probe" (fun () -> Sim.advance 100));
      Alcotest.(check int) "syscall counted" 1 (cval "syscall.count");
      let h = Obs.Histogram.hist (Obs.Histogram.make "syscall.probe") in
      Alcotest.(check int) "one sample" 1 (H.count h);
      Alcotest.(check int) "latency exact" 100 (H.percentile h 0.5);
      Alcotest.(check int) "total attributed" 100 (cval "layer.total_ns");
      (* no gate/media/lease inside: everything is FSLib time *)
      Alcotest.(check int) "fslib gets the rest" 100 (cval "layer.fslib_ns");
      let parts =
        cval "layer.fslib_ns" + cval "layer.kernfs_ns"
        + cval "layer.media_ns" + cval "layer.lease_ns"
      in
      Alcotest.(check bool) "parts <= total" true
        (parts <= cval "layer.total_ns"))

(* A fault taken inside a lease wait (the first touch of a pending page
   that holds the lease word) is kernel time, not wait: each nanosecond
   lands in exactly one layer. *)
let test_fault_inside_lease_wait_counted_once () =
  with_obs (fun () ->
      Sim.run_thread (fun () ->
          Obs.with_syscall "probe" (fun () ->
              let tok = Obs.lease_begin () in
              Sim.advance 30;
              Obs.with_kernel_fault (fun () -> Sim.advance 500);
              Sim.advance 20;
              Obs.lease_end tok ~retries:0));
      Alcotest.(check int) "total" 550 (cval "layer.total_ns");
      Alcotest.(check int) "kernfs: the fault" 500 (cval "layer.kernfs_ns");
      Alcotest.(check int) "lease: the wait around it" 50 (cval "layer.lease_ns");
      Alcotest.(check int) "fslib: nothing" 0 (cval "layer.fslib_ns");
      Alcotest.(check int) "one fault, no crossing" 1 (cval "coffer.faults");
      Alcotest.(check int) "no crossing" 0 (cval "gate.crossings"))

(* End-to-end through the real FS: the layer split must account the full
   syscall time and the trace must stay balanced. *)
let run_fs_ops w =
  Testkit.in_proc w (fun fs ->
      let t0 = Sim.now () in
      Testkit.ok_or_fail (V.mkdir fs "/d" 0o755);
      Testkit.ok_or_fail (V.write_file fs "/d/f" ~mode:0o644 "payload");
      Alcotest.(check string)
        "read back" "payload"
        (Testkit.ok_or_fail (V.read_file fs "/d/f"));
      Testkit.ok_or_fail (V.unlink fs "/d/f");
      Testkit.ok_or_fail (V.rmdir fs "/d");
      Sim.now () - t0)

let test_layer_split_end_to_end () =
  let w = Testkit.make_world () in
  with_obs (fun () ->
      Obs.attach_device w.Testkit.dev;
      let elapsed = run_fs_ops w in
      Alcotest.(check bool) "syscalls observed" true (cval "syscall.count" > 0);
      Alcotest.(check bool) "gate crossings" true (cval "gate.crossings" > 0);
      let total = cval "layer.total_ns" in
      Alcotest.(check bool) "total covers the ops" true
        (total > 0 && total <= elapsed);
      let parts =
        cval "layer.fslib_ns" + cval "layer.kernfs_ns"
        + cval "layer.media_ns" + cval "layer.lease_ns"
      in
      Alcotest.(check bool) "split sums within total" true (parts <= total);
      Alcotest.(check int) "trace balanced" 0 (Obs.Trace.open_spans ());
      Alcotest.(check bool) "spans recorded" true (Obs.Trace.recorded () > 0);
      match Obs.Trace.validate (Obs.Trace.to_json ()) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "trace invalid: %s" e)

(* A remap under MPK key pressure installs its pages on first touch: each
   fault is a [kernfs]/[fault] span counted in [coffer.faults], never in
   [gate.crossings], and its time lands in [layer.kernfs_ns] without being
   counted twice, so the layers sum exactly to the syscalls' total. *)
let test_fault_is_kernfs_time_not_a_crossing () =
  let w = Testkit.make_world ~pages:8192 () in
  let dirs = List.init 17 (Printf.sprintf "/k%02d") in
  Testkit.in_proc ~uid:0 w (fun fs ->
      List.iter
        (fun d ->
          Testkit.ok_or_fail (V.mkdir fs d 0o700);
          Testkit.ok_or_fail
            (V.write_file fs (d ^ "/f") ~mode:0o600 (String.make 65536 'k')))
        dirs);
  with_obs (fun () ->
      Obs.attach_device w.Testkit.dev;
      let gate = Treasury.Kernfs.gate w.Testkit.kfs in
      let s0 = Treasury.Gate.syscall_count gate in
      let syscalls =
        Testkit.in_proc ~uid:0 w (fun fs ->
            for _ = 1 to 2 do
              List.iter
                (fun d ->
                  Alcotest.(check int) "read back" 65536
                    (String.length (Testkit.ok_or_fail (V.read_file fs (d ^ "/f")))))
                dirs
            done;
            Treasury.Gate.syscall_count gate - s0)
      in
      let faults = cval "coffer.faults" in
      Alcotest.(check bool) "faults taken" true (faults > 0);
      Alcotest.(check int) "crossings are the syscalls only" syscalls
        (cval "gate.crossings");
      let fault_spans =
        List.filter
          (fun sp -> sp.Obs.Trace.sp_cat = "kernfs" && sp.Obs.Trace.sp_name = "fault")
          (Obs.Trace.spans ())
      in
      Alcotest.(check int) "one span per fault" faults (List.length fault_spans);
      Alcotest.(check int) "layers sum to the total" (cval "layer.total_ns")
        (cval "layer.fslib_ns" + cval "layer.kernfs_ns" + cval "layer.media_ns"
       + cval "layer.lease_ns");
      Alcotest.(check int) "trace balanced" 0 (Obs.Trace.open_spans ()))

(* Acceptance criterion: enabling obs must not change simulated time — not
   with spans, and not with the full plane (labels + tracing + flight
   recorder + SLOs) either.  run_fs_ops itself asserts the simulated
   *results* (read-back contents) are identical in every configuration. *)
let test_obs_costs_no_sim_time () =
  Obs.disable ();
  Obs.reset ();
  let elapsed_off = run_fs_ops (Testkit.make_world ()) in
  let elapsed_spans =
    with_obs (fun () ->
        let w = Testkit.make_world () in
        Obs.attach_device w.Testkit.dev;
        run_fs_ops w)
  in
  let elapsed_full =
    with_obs (fun () ->
        Obs.Slo.define ~name:"write-p99" ~op:"write" ~p99_target_ns:1;
        Fun.protect ~finally:Obs.Slo.clear_definitions (fun () ->
            let w = Testkit.make_world () in
            Obs.attach_device w.Testkit.dev;
            let elapsed = run_fs_ops w in
            ignore (Obs.Slo.publish (Obs.Snapshot.take ()));
            Alcotest.(check bool) "flight saw the ops" true
              (Obs.Flight.total () > 0);
            elapsed))
  in
  Alcotest.(check int) "sim-time identical with spans on" elapsed_off
    elapsed_spans;
  Alcotest.(check int) "sim-time identical with full obs on" elapsed_off
    elapsed_full

(* ---- JSON round-trips (satellite) --------------------------------------- *)

let test_json_string_escapes () =
  let nasty = "a\"b\\c\nd\te\rf\x01g" in
  let j = J.Obj [ (nasty, J.Arr [ J.Str nasty ]) ] in
  match J.of_string (J.to_string j) with
  | Error e -> Alcotest.failf "reparse: %s" e
  | Ok j' ->
      Alcotest.(check bool) "escaped string round-trips" true (j = j');
      (match J.member nasty j' with
      | Some (J.Arr [ J.Str s ]) ->
          Alcotest.(check string) "value intact" nasty s
      | _ -> Alcotest.fail "escaped key not found")

let test_json_nested_roundtrip () =
  let j =
    J.Arr
      [
        J.Arr [ J.Num 1.; J.Arr [ J.Num 2.; J.Arr [] ] ];
        J.Obj
          [
            ("k", J.Arr [ J.Bool true; J.Null; J.Obj [ ("", J.Str "") ] ]);
            ("n", J.Num (-0.5));
          ];
      ]
  in
  match J.of_string (J.to_string j) with
  | Error e -> Alcotest.failf "reparse: %s" e
  | Ok j' ->
      Alcotest.(check bool) "nested structure round-trips" true (j = j');
      Alcotest.(check string) "re-encoding stable" (J.to_string j)
        (J.to_string j')

let test_json_malformed () =
  List.iter
    (fun s ->
      match J.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed JSON: %s" s)
    [
      ""; "{"; "[1,"; "\"unterminated"; "{\"a\":}"; "tru"; "[1 2]";
      "{\"a\" 1}"; "{\"a\":1} trailing"; "nul"; "[]]";
    ]

(* ---- histogram percentiles at bucket edges + after merge (satellite) ---- *)

let test_hist_percentile_bucket_edges () =
  (* a single sample sitting exactly on a bucket edge reads back exactly *)
  List.iter
    (fun v ->
      let h = hist_of [ v ] in
      List.iter
        (fun q ->
          Alcotest.(check int)
            (Printf.sprintf "edge %d p%g" v (q *. 100.))
            v (H.percentile h q))
        [ 0.01; 0.5; 0.99; 1.0 ])
    [ 0; 15; 16; 31; 32; 33; 1023; 1024 ];
  (* within one histogram, percentile is monotone in q and clamped to the
     observed [min,max] even at the extreme quantiles *)
  let h = hist_of [ 16; 16; 16; 31 ] in
  Alcotest.(check int) "p100 = max" 31 (H.percentile h 1.0);
  (* low quantiles report a value within the minimum's bucket: the estimate
     is bucket-granular, never below the true min nor past its bucket *)
  let p1 = H.percentile h 0.01 in
  let _, min_hi = H.bucket_bounds (H.bucket_index (H.min_value h)) in
  Alcotest.(check bool) "p1 within min bucket" true (p1 >= 16 && p1 <= min_hi);
  let last = ref 0 in
  List.iter
    (fun q ->
      let p = H.percentile h q in
      Alcotest.(check bool)
        (Printf.sprintf "monotone at p%g" (q *. 100.))
        true (p >= !last);
      Alcotest.(check bool) "within [min,max]" true
        (p >= H.min_value h && p <= H.max_value h);
      last := p)
    [ 0.01; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ]

let test_hist_percentile_after_merge () =
  let a = hist_of (List.init 8 (fun i -> i + 1))
  and b = hist_of (List.init 8 (fun i -> 1000 + i)) in
  let m = H.merge a b in
  Alcotest.(check int) "count" 16 (H.count m);
  Alcotest.(check int) "min" 1 (H.min_value m);
  Alcotest.(check int) "max" 1007 (H.max_value m);
  Alcotest.(check int) "p100 = max" 1007 (H.percentile m 1.0);
  Alcotest.(check int) "p1 = min" 1 (H.percentile m 0.01);
  (* the two disjoint clusters are separated by the median *)
  Alcotest.(check bool) "p25 in low cluster" true (H.percentile m 0.25 < 500);
  Alcotest.(check bool) "p75 in high cluster" true (H.percentile m 0.75 > 500);
  (* merging preserves tail counting *)
  Alcotest.(check int) "count_over mid" 8 (H.count_over m 500);
  (* conservative: the bucket containing the threshold counts as under *)
  Alcotest.(check int) "count_over at max bucket" 0 (H.count_over m 1000);
  Alcotest.(check int) "count_over zero" 16 (H.count_over m 0)

(* ---- labels (tentpole: dimensioned metrics) ----------------------------- *)

let test_labels_canonical_and_series () =
  let a = Obs.Labels.v [ ("b", "2"); ("a", "1") ]
  and b = Obs.Labels.v [ ("a", "1"); ("b", "2") ] in
  Alcotest.(check string) "canonical order" "a=1,b=2" (Obs.Labels.to_string a);
  Alcotest.(check string) "interned equal" (Obs.Labels.to_string a)
    (Obs.Labels.to_string b);
  Alcotest.(check (list (pair string string)))
    "pairs sorted"
    [ ("a", "1"); ("b", "2") ]
    (Obs.Labels.pairs a);
  Alcotest.(check string) "series" "x{a=1,b=2}" (Obs.Labels.series "x" a);
  Alcotest.(check string) "empty series is bare" "x"
    (Obs.Labels.series "x" Obs.Labels.empty);
  let base, pairs = Obs.Labels.parse_series "x{a=1,b=2}" in
  Alcotest.(check string) "parse base" "x" base;
  Alcotest.(check (list (pair string string)))
    "parse pairs"
    [ ("a", "1"); ("b", "2") ]
    pairs;
  let base, pairs = Obs.Labels.parse_series "bare" in
  Alcotest.(check string) "bare base" "bare" base;
  Alcotest.(check (list (pair string string))) "bare pairs" [] pairs;
  Alcotest.(check (list (pair string string)))
    "of_coffer"
    [ ("coffer", "7") ]
    (Obs.Labels.pairs (Obs.Labels.of_coffer 7))

let test_labels_invalid () =
  List.iter
    (fun pairs ->
      match Obs.Labels.v pairs with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "accepted invalid labels")
    [
      [ ("a", "1"); ("a", "2") ];
      [ ("a,b", "1") ];
      [ ("a", "x=y") ];
      [ ("a", "{") ];
      [ ("}", "1") ];
    ]

let test_labeled_series_in_snapshot () =
  with_obs (fun () ->
      let l = Obs.Labels.v [ ("coffer", "3"); ("op", "append") ] in
      Obs.cnt_l "test.labeled" l 5;
      Obs.observe_l "test.labeled_h" l 128;
      let snap = Obs.Snapshot.take () in
      Alcotest.(check (option int))
        "labelled counter readable" (Some 5)
        (Obs.Snapshot.counter_value snap "test.labeled{coffer=3,op=append}");
      (match Obs.Snapshot.labeled snap ~base:"test.labeled_h" with
      | [ (pairs, Obs.Snapshot.L_hist h) ] ->
          Alcotest.(check (list (pair string string)))
            "slice pairs"
            [ ("coffer", "3"); ("op", "append") ]
            pairs;
          Alcotest.(check int) "slice count" 1 (H.count h)
      | _ -> Alcotest.fail "expected exactly one labelled slice");
      (* labelled series are excluded from the flat tables but render in
         the top-k view, and survive the JSON round-trip *)
      let r = Obs.Snapshot.render snap in
      Alcotest.(check bool) "flat render unpolluted" false
        (contains r "test.labeled{");
      match Obs.Snapshot.of_json (Obs.Snapshot.to_json snap) with
      | Error e -> Alcotest.failf "of_json: %s" e
      | Ok snap' ->
          Alcotest.(check (option int))
            "labelled counter survives round-trip" (Some 5)
            (Obs.Snapshot.counter_value snap'
               "test.labeled{coffer=3,op=append}"))

(* ---- causal op tracing (tentpole) --------------------------------------- *)

let test_op_ids_parent_child () =
  with_obs (fun () ->
      Sim.run_thread (fun () ->
          Obs.with_syscall "probe" (fun () ->
              Alcotest.(check bool) "op-id assigned" true (Obs.current_op () > 0);
              Obs.with_kernel_crossing (fun () -> Sim.advance 5);
              Sim.advance 1));
      let spans = Obs.Trace.spans () in
      Alcotest.(check int) "two spans" 2 (List.length spans);
      let find cat =
        match List.find_opt (fun s -> s.Obs.Trace.sp_cat = cat) spans with
        | Some s -> s
        | None -> Alcotest.failf "no %s span" cat
      in
      let sys = find "syscall" and trap = find "kernfs" in
      Alcotest.(check bool) "shared op-id" true
        (sys.Obs.Trace.sp_op > 0 && sys.Obs.Trace.sp_op = trap.Obs.Trace.sp_op);
      Alcotest.(check int) "trap parented on syscall" sys.Obs.Trace.sp_id
        trap.Obs.Trace.sp_parent;
      Alcotest.(check int) "syscall is the root" 0 sys.Obs.Trace.sp_parent;
      (* spans_of_op returns the whole connected trace of that op *)
      Alcotest.(check int) "spans_of_op complete" 2
        (List.length (Obs.Trace.spans_of_op sys.Obs.Trace.sp_op));
      (* and the Chrome export carries op/span/parent in args *)
      match J.member "traceEvents" (Obs.Trace.to_json ()) with
      | Some (J.Arr evs) ->
          List.iter
            (fun ev ->
              match J.member "args" ev with
              | Some args -> (
                  match (J.member "op" args, J.member "span" args) with
                  | Some (J.Num op), Some (J.Num _) ->
                      Alcotest.(check bool) "args.op positive" true (op > 0.)
                  | _ -> Alcotest.fail "span args incomplete")
              | None -> Alcotest.fail "span without args")
            evs
      | _ -> Alcotest.fail "no traceEvents")

(* ---- flight recorder (tentpole) ----------------------------------------- *)

let test_flight_ring_and_reset () =
  with_obs (fun () ->
      Obs.Flight.set_capacity 2;
      Fun.protect
        ~finally:(fun () -> Obs.Flight.set_capacity 2048)
        (fun () ->
          Obs.Flight.note "one" [];
          Obs.Flight.note "two" [ ("k", "v") ];
          Obs.Flight.note "three" [];
          Alcotest.(check int) "ring bounded" 2 (Obs.Flight.recorded ());
          Alcotest.(check int) "total counts drops" 3 (Obs.Flight.total ());
          (match Obs.Flight.events () with
          | [ a; b ] ->
              Alcotest.(check string) "oldest evicted" "two" a.Obs.Flight.e_kind;
              Alcotest.(check string) "latest kept" "three" b.Obs.Flight.e_kind;
              Alcotest.(check bool) "seqs increase" true
                (b.Obs.Flight.e_seq > a.Obs.Flight.e_seq);
              Alcotest.(check (list (pair string string)))
                "fields kept"
                [ ("k", "v") ]
                a.Obs.Flight.e_fields
          | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs));
          Obs.Flight.health_transition ~coffer:5 ~from_:"healthy"
            ~to_:"suspect";
          Alcotest.(check int) "history recorded" 1
            (List.length (Obs.Flight.health_history ~coffer:5));
          (* satellite: reset clears the ring AND the health histories *)
          Obs.reset ();
          Alcotest.(check int) "reset clears ring" 0 (Obs.Flight.recorded ());
          Alcotest.(check int) "reset clears total" 0 (Obs.Flight.total ());
          Alcotest.(check int) "reset clears history" 0
            (List.length (Obs.Flight.health_history ~coffer:5))))

let with_temp_dir f =
  let dir = Filename.temp_file "zofs-flight" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_flight_autodump_on_health_transition () =
  with_temp_dir (fun dir ->
      with_obs (fun () ->
          Obs.Flight.set_autodump ~dir ~max_dumps:4 true;
          Fun.protect
            ~finally:(fun () -> Obs.Flight.set_autodump false)
            (fun () ->
              Sim.run_thread (fun () ->
                  Obs.with_syscall "probe" (fun () ->
                      Sim.advance 10;
                      Obs.Flight.health_transition ~coffer:9 ~from_:"healthy"
                        ~to_:"suspect"));
              let path =
                match Obs.Flight.last_dump_path () with
                | Some p -> p
                | None -> Alcotest.fail "no dump written"
              in
              Alcotest.(check bool) "dump in requested dir" true
                (Filename.dirname path = dir);
              let j =
                match
                  J.of_string (In_channel.with_open_bin path In_channel.input_all)
                with
                | Ok j -> j
                | Error e -> Alcotest.failf "dump unparsable: %s" e
              in
              (match J.member "coffer" j with
              | Some (J.Num 9.) -> ()
              | _ -> Alcotest.fail "dump does not name the coffer");
              (match J.member "health_history" j with
              | Some (J.Obj [ ("9", J.Arr (_ :: _)) ]) -> ()
              | _ -> Alcotest.fail "dump lacks the coffer's health history");
              (match J.member "events" j with
              | Some (J.Arr (_ :: _)) -> ()
              | _ -> Alcotest.fail "dump lacks flight events");
              (* the in-flight op's spans are in the dump, marked open *)
              (match J.member "op_trace" j with
              | Some t -> (
                  match J.member "traceEvents" t with
                  | Some (J.Arr evs) ->
                      Alcotest.(check bool) "open syscall span captured" true
                        (List.exists
                           (fun ev ->
                             match J.member "args" ev with
                             | Some args -> J.member "open" args = Some (J.Bool true)
                             | None -> false)
                           evs)
                  | _ -> Alcotest.fail "op_trace lacks traceEvents")
              | None -> Alcotest.fail "dump lacks op_trace");
              (* rate-limited: the same (coffer, state) pair dumps once *)
              Obs.Flight.health_transition ~coffer:9 ~from_:"healthy"
                ~to_:"suspect";
              Alcotest.(check int) "same transition not re-dumped" 1
                (List.length (Obs.Flight.dump_paths ()));
              Obs.Flight.health_transition ~coffer:9 ~from_:"suspect"
                ~to_:"quarantined";
              Alcotest.(check int) "worse transition dumps again" 2
                (List.length (Obs.Flight.dump_paths ()));
              (* satellite: reset clears ring state but keeps dump paths *)
              Obs.reset ();
              Alcotest.(check int) "dump paths survive reset" 2
                (List.length (Obs.Flight.dump_paths ())))))

let test_flight_dump_on_invariant_failure () =
  with_temp_dir (fun dir ->
      with_obs (fun () ->
          Obs.Flight.set_autodump ~dir true;
          Fun.protect
            ~finally:(fun () -> Obs.Flight.set_autodump false)
            (fun () ->
              Obs.Flight.note "context" [ ("k", "v") ];
              Obs.Flight.invariant_failure "canary unavailable";
              match Obs.Flight.last_dump_path () with
              | None -> Alcotest.fail "invariant failure did not dump"
              | Some p -> (
                  let j =
                    match
                      J.of_string
                        (In_channel.with_open_bin p In_channel.input_all)
                    with
                    | Ok j -> j
                    | Error e -> Alcotest.failf "dump unparsable: %s" e
                  in
                  match J.member "reason" j with
                  | Some (J.Str r) ->
                      Alcotest.(check bool) "reason carries the message" true
                        (contains r "canary unavailable")
                  | _ -> Alcotest.fail "dump lacks reason"))))

(* ---- SLOs (tentpole) ----------------------------------------------------- *)

let test_slo_evaluate_publish_ledger () =
  with_obs (fun () ->
      Obs.Slo.define ~name:"probe-p99" ~op:"probe" ~p99_target_ns:100;
      Fun.protect ~finally:Obs.Slo.clear_definitions (fun () ->
          Sim.run_thread (fun () ->
              Obs.set_tenant 3;
              for _ = 1 to 100 do
                Obs.with_syscall "probe" (fun () -> Sim.advance 150)
              done);
          let snap = Obs.Snapshot.take () in
          (match Obs.Slo.evaluate snap with
          | [ r ] ->
              Alcotest.(check string) "slo name" "probe-p99" r.Obs.Slo.s_name;
              Alcotest.(check string) "tenant" "3" r.Obs.Slo.s_tenant;
              Alcotest.(check int) "samples" 100 r.Obs.Slo.s_count;
              Alcotest.(check int) "all over target" 100 r.Obs.Slo.s_over;
              Alcotest.(check bool) "p99 above target" true
                (r.Obs.Slo.s_p99 > 100);
              (* 100 over / (1% of 100) = 100x the error budget *)
              Alcotest.(check bool) "burn 100x" true
                (abs_float (r.Obs.Slo.s_burn -. 100.) < 1e-9)
          | rs -> Alcotest.failf "expected 1 report, got %d" (List.length rs));
          let reports = Obs.Slo.publish snap in
          Alcotest.(check bool) "rendered table flags violation" true
            (contains (Obs.Slo.render reports) "VIOLATED");
          Alcotest.(check bool) "ledger burn accumulated" true
            (Obs.Slo.ledger_burn ~name:"probe-p99" ~tenant:"3" > 1.0);
          (* published gauges surface in the labelled top-k view *)
          let snap = Obs.Snapshot.take () in
          Alcotest.(check bool) "burn in top-k render" true
            (contains
               (Obs.Snapshot.render_top snap)
               "top tenants by SLO error-budget burn");
          (* satellite: reset clears the ledger but keeps the definition *)
          Obs.reset ();
          Alcotest.(check (float 1e-9)) "reset clears ledger" 0.0
            (Obs.Slo.ledger_burn ~name:"probe-p99" ~tenant:"3");
          Alcotest.(check int) "definition survives reset" 1
            (List.length (Obs.Slo.definitions ()))))

let () =
  Alcotest.run "obs"
    [
      ( "hist",
        [
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "single sample" `Quick test_hist_single;
          Alcotest.test_case "negative clamped" `Quick
            test_hist_negative_clamped;
          Alcotest.test_case "bucket boundaries" `Quick
            test_hist_bucket_boundaries;
          Alcotest.test_case "merge associative" `Quick
            test_hist_merge_associative;
        ] );
      ( "registry",
        [
          Alcotest.test_case "disabled is no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "snapshot diff + round-trip" `Quick
            test_snapshot_diff_and_roundtrip;
          Alcotest.test_case "json parser" `Quick test_json_parse;
          Alcotest.test_case "json string escapes" `Quick
            test_json_string_escapes;
          Alcotest.test_case "json nested round-trip" `Quick
            test_json_nested_roundtrip;
          Alcotest.test_case "json malformed rejected" `Quick
            test_json_malformed;
        ] );
      ( "percentiles",
        [
          Alcotest.test_case "bucket edges" `Quick
            test_hist_percentile_bucket_edges;
          Alcotest.test_case "after merge + count_over" `Quick
            test_hist_percentile_after_merge;
        ] );
      ( "labels",
        [
          Alcotest.test_case "canonical + series" `Quick
            test_labels_canonical_and_series;
          Alcotest.test_case "invalid rejected" `Quick test_labels_invalid;
          Alcotest.test_case "labelled series in snapshot" `Quick
            test_labeled_series_in_snapshot;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "op-ids + parent/child links" `Quick
            test_op_ids_parent_child;
        ] );
      ( "flight",
        [
          Alcotest.test_case "bounded ring + reset" `Quick
            test_flight_ring_and_reset;
          Alcotest.test_case "autodump on health transition" `Quick
            test_flight_autodump_on_health_transition;
          Alcotest.test_case "dump on invariant failure" `Quick
            test_flight_dump_on_invariant_failure;
        ] );
      ( "slo",
        [
          Alcotest.test_case "evaluate + publish + ledger" `Quick
            test_slo_evaluate_publish_ledger;
        ] );
      ( "subscribers",
        [
          Alcotest.test_case "device: both fire" `Quick
            test_device_subscribers_both_fire;
          Alcotest.test_case "mpk: both fire" `Quick
            test_mpk_subscribers_both_fire;
          Alcotest.test_case "check + obs compose" `Quick
            test_check_and_obs_compose;
        ] );
      ( "lease",
        [
          Alcotest.test_case "uncontended: 0 retries" `Quick
            test_uncontended_acquire_zero_retries;
          Alcotest.test_case "contended: retries counted" `Quick
            test_contended_acquire_counts_retries;
        ] );
      ( "spans",
        [
          Alcotest.test_case "balanced + valid trace" `Quick
            test_spans_balanced_and_trace_valid;
          Alcotest.test_case "ring drops" `Quick test_span_ring_drops;
          Alcotest.test_case "exception safe" `Quick test_span_exception_safe;
        ] );
      ( "layers",
        [
          Alcotest.test_case "with_syscall histogram" `Quick
            test_with_syscall_histogram_and_layers;
          Alcotest.test_case "end-to-end layer split" `Quick
            test_layer_split_end_to_end;
          Alcotest.test_case "a fault is kernfs time, not a crossing" `Quick
            test_fault_is_kernfs_time_not_a_crossing;
          Alcotest.test_case "a fault in a lease wait counted once" `Quick
            test_fault_inside_lease_wait_counted_once;
          Alcotest.test_case "obs costs no sim time" `Quick
            test_obs_costs_no_sim_time;
        ] );
    ]
