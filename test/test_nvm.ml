(* Tests for the simulated NVM device: accessors, persistence protocol,
   crash semantics, and cost accounting. *)

module D = Nvm.Device

let mk ?(size = 64 * Nvm.page_size) ?(perf = Nvm.Perf.free) () =
  D.create ~perf ~size ()

let test_scalar_roundtrip () =
  let d = mk () in
  D.write_u8 d 0 0xAB;
  D.write_u16 d 2 0xBEEF;
  D.write_u32 d 4 0xDEADBEEF;
  D.write_u64 d 8 0x1122334455667788;
  Alcotest.(check int) "u8" 0xAB (D.read_u8 d 0);
  Alcotest.(check int) "u16" 0xBEEF (D.read_u16 d 2);
  Alcotest.(check int) "u32" 0xDEADBEEF (D.read_u32 d 4);
  Alcotest.(check int) "u64" 0x1122334455667788 (D.read_u64 d 8)

let test_truncation () =
  let d = mk () in
  D.write_u8 d 0 0x1FF;
  Alcotest.(check int) "u8 truncated" 0xFF (D.read_u8 d 0);
  D.write_u16 d 2 0x12345;
  Alcotest.(check int) "u16 truncated" 0x2345 (D.read_u16 d 2)

let test_zero_initialized () =
  let d = mk () in
  Alcotest.(check int) "fresh page is zero" 0 (D.read_u64 d (17 * Nvm.page_size));
  Alcotest.(check string) "fresh string" (String.make 8 '\000')
    (D.read_string d 123 8)

let test_string_roundtrip () =
  let d = mk () in
  D.write_string d 100 "hello coffer";
  Alcotest.(check string) "string" "hello coffer" (D.read_string d 100 12)

let test_blit_crosses_pages () =
  let d = mk () in
  let s = String.init 10000 (fun i -> Char.chr (i mod 256)) in
  D.write_string d (Nvm.page_size - 100) s;
  Alcotest.(check string) "cross-page blit" s
    (D.read_string d (Nvm.page_size - 100) 10000)

let test_scalar_page_cross_rejected () =
  let d = mk () in
  Alcotest.check_raises "u64 across page boundary"
    (Invalid_argument "Nvm: scalar access crosses a page boundary") (fun () ->
      D.write_u64 d (Nvm.page_size - 4) 1)

let test_bounds () =
  let d = mk ~size:(2 * Nvm.page_size) () in
  Alcotest.check_raises "past end"
    (Invalid_argument "Nvm: access [8192, 8200) out of device [0, 8192)")
    (fun () -> ignore (D.read_u64 d (2 * Nvm.page_size)))

let test_fill_and_copy () =
  let d = mk () in
  D.fill d 50 20 'x';
  Alcotest.(check string) "fill" (String.make 20 'x') (D.read_string d 50 20);
  D.copy_within d ~src:50 ~dst:500 ~len:20;
  Alcotest.(check string) "copy" (String.make 20 'x') (D.read_string d 500 20)

(* --- persistence ------------------------------------------------------- *)

let test_unflushed_lost_on_crash () =
  let d = mk () in
  D.write_u64 d 0 42;
  D.crash ~policy:`Drop_all d;
  Alcotest.(check int) "lost" 0 (D.read_u64 d 0)

let test_flushed_survives_crash () =
  let d = mk () in
  D.write_u64 d 0 42;
  D.clwb d 0;
  D.sfence d;
  D.crash ~policy:`Drop_all d;
  Alcotest.(check int) "survived" 42 (D.read_u64 d 0)

let test_clwb_without_fence_not_durable () =
  let d = mk () in
  D.write_u64 d 0 42;
  D.clwb d 0;
  (* no fence: write-back may not have completed *)
  D.crash ~policy:`Drop_all d;
  Alcotest.(check int) "not durable before fence" 0 (D.read_u64 d 0)

let test_nt_write_durable_after_fence () =
  let d = mk () in
  D.nt_write_u64 d 0 99;
  D.sfence d;
  D.crash ~policy:`Drop_all d;
  Alcotest.(check int) "ntstore durable" 99 (D.read_u64 d 0)

let test_persist_range () =
  let d = mk () in
  D.write_string d 1000 (String.make 300 'z');
  D.persist_range d 1000 300;
  D.crash ~policy:`Drop_all d;
  Alcotest.(check string) "range persisted" (String.make 300 'z')
    (D.read_string d 1000 300)

let test_partial_line_granularity () =
  (* Flushing one line must not persist a different dirty line. *)
  let d = mk () in
  D.write_u64 d 0 1;
  D.write_u64 d 128 2;
  (* separate line *)
  D.persist_range d 0 8;
  D.crash ~policy:`Drop_all d;
  Alcotest.(check int) "flushed line" 1 (D.read_u64 d 0);
  Alcotest.(check int) "unflushed line" 0 (D.read_u64 d 128)

let test_keep_all_crash () =
  let d = mk () in
  D.write_u64 d 0 7;
  D.crash ~policy:`Keep_all d;
  Alcotest.(check int) "kept" 7 (D.read_u64 d 0)

let test_crash_resets_to_last_persisted () =
  let d = mk () in
  D.write_u64 d 0 1;
  D.persist_range d 0 8;
  D.write_u64 d 0 2;
  (* overwrite, not persisted *)
  D.crash ~policy:`Drop_all d;
  Alcotest.(check int) "old value restored" 1 (D.read_u64 d 0)

let test_pending_lines_counter () =
  let d = mk () in
  Alcotest.(check int) "initially clean" 0 (D.pending_lines d);
  D.write_u64 d 0 1;
  D.write_u64 d 8 1;
  (* same line *)
  Alcotest.(check int) "one line" 1 (D.pending_lines d);
  D.write_u64 d 64 1;
  Alcotest.(check int) "two lines" 2 (D.pending_lines d);
  D.persist_all d;
  Alcotest.(check int) "clean after persist_all" 0 (D.pending_lines d)

let test_persist_all_durable () =
  let d = mk () in
  D.write_string d 0 "abcdef";
  D.persist_all d;
  D.crash ~policy:`Drop_all d;
  Alcotest.(check string) "persist_all" "abcdef" (D.read_string d 0 6)

let test_random_crash_policy_is_per_line () =
  (* With many independent lines pending, a `Random crash should keep some
     and drop some (probability of all-same is 2^-63). *)
  let d = mk () in
  for i = 0 to 63 do
    D.write_u64 d (i * Nvm.line_size) 1
  done;
  D.crash d;
  let kept = ref 0 in
  for i = 0 to 63 do
    if D.read_u64 d (i * Nvm.line_size) = 1 then incr kept
  done;
  Alcotest.(check bool) "some kept" true (!kept > 0);
  Alcotest.(check bool) "some dropped" true (!kept < 64)

(* A `Random crash draws one survival bit per pending line in ascending
   line order, whatever order the lines were written in. *)
let test_random_crash_draws_in_line_order () =
  let d = mk () in
  let lines = List.init 40 (fun i -> (i * 37) + (i mod 3)) in
  List.iter
    (fun line -> D.write_u64 d (line * Nvm.line_size) (line + 1))
    (List.rev lines);
  let seed = 2024L in
  D.set_crash_seed d seed;
  D.crash d;
  let rng = Sim.Rng.create seed in
  let expected = List.filter (fun _ -> Sim.Rng.bool rng) lines in
  let survived =
    List.filter (fun line -> D.read_u64 d (line * Nvm.line_size) <> 0) lines
  in
  Alcotest.(check (list int)) "survivors follow ascending draws" expected
    survived

(* --- snapshot / restore ------------------------------------------------- *)

let test_snapshot_restores_both_views () =
  let d = mk () in
  D.write_string d 0 "durable";
  D.persist_all d;
  D.write_string d 100 "volatile-only";
  let snap = D.snapshot d in
  (* Diverge: overwrite, persist new data, touch a fresh page. *)
  D.write_string d 0 "clobber";
  D.write_string d 100 "clobber-vol11";
  D.persist_all d;
  D.write_string d (10 * Nvm.page_size) "new page";
  D.restore d snap;
  Alcotest.(check string) "volatile view" "volatile-only" (D.read_string d 100 13);
  Alcotest.(check string)
    "fresh page gone" (String.make 8 '\000')
    (D.read_string d (10 * Nvm.page_size) 8);
  D.crash ~policy:`Drop_all d;
  Alcotest.(check string) "durable view" "durable" (D.read_string d 0 7);
  Alcotest.(check string)
    "unpersisted dropped" (String.make 13 '\000')
    (D.read_string d 100 13)

let test_snapshot_captures_pending_lines () =
  let d = mk () in
  D.write_u64 d 0 1;
  D.write_u64 d 64 2;
  D.clwb d 64 (* flushing but not fenced *);
  let snap = D.snapshot d in
  D.persist_all d;
  Alcotest.(check int) "drained" 0 (D.pending_lines d);
  D.restore d snap;
  Alcotest.(check int) "pending restored" 2 (D.pending_lines d);
  (* The restored flushing line becomes durable at the next fence; the
     dirty-but-unflushed line does not. *)
  D.sfence d;
  D.crash ~policy:`Drop_all d;
  Alcotest.(check int) "dirty line lost" 0 (D.read_u64 d 0);
  Alcotest.(check int) "flushing line persisted" 2 (D.read_u64 d 64)

(* Every line-state query reads the same after a snapshot/restore round
   trip that holds clean, Dirty and Flushing lines (clwb'd and nt-stored). *)
let test_snapshot_round_trips_line_states () =
  let d = mk () in
  D.write_u64 d 256 4;
  D.persist_range d 256 8 (* clean again *);
  D.write_u64 d 0 1 (* Dirty *);
  D.write_u64 d 64 2;
  D.clwb d 64 (* Flushing *);
  D.nt_write_u64 d 128 3 (* Flushing *);
  let addrs = [ 0; 64; 128; 192; 256 ] in
  let queries () =
    ( D.pending_lines d,
      D.flushing_lines d,
      List.map (D.line_needs_flush d) addrs )
  in
  let before = queries () in
  let snap = D.snapshot d in
  D.write_u64 d 192 5;
  D.clwb d 0;
  D.sfence d;
  D.restore d snap;
  let pp = Alcotest.(triple int int (list bool)) in
  Alcotest.check pp "queries unchanged" before (queries ());
  Alcotest.check pp "expected states" (3, 2, [ true; false; false; false; false ])
    before;
  D.sfence d;
  D.crash ~policy:`Drop_all d;
  Alcotest.(check (list int))
    "only the Flushing lines persist" [ 0; 2; 3; 0; 4 ]
    (List.map (D.read_u64 d) addrs)

let test_restore_is_reusable () =
  let d = mk () in
  D.write_u64 d 0 7;
  let snap = D.snapshot d in
  for round = 1 to 3 do
    D.restore d snap;
    Alcotest.(check int)
      (Printf.sprintf "round %d sees snapshot value" round)
      7 (D.read_u64 d 0);
    D.write_u64 d 0 (100 + round);
    D.persist_all d
  done;
  D.restore d snap;
  D.crash ~policy:`Drop_all d;
  Alcotest.(check int) "branch writes don't leak into snapshot" 0
    (D.read_u64 d 0)

let test_snapshot_captures_crash_rng () =
  let d = mk () in
  D.write_u64 d 0 1;
  let snap = D.snapshot d in
  let survival () =
    let kept = ref [] in
    for i = 0 to 63 do
      D.write_u64 d (i * Nvm.line_size) 1
    done;
    D.crash d;
    for i = 0 to 63 do
      if D.read_u64 d (i * Nvm.line_size) = 1 then kept := i :: !kept
    done;
    !kept
  in
  let first = survival () in
  D.restore d snap;
  let second = survival () in
  Alcotest.(check (list int)) "same RNG stream after restore" first second

let test_set_crash_seed_reproducible () =
  let d = mk () in
  let run seed =
    D.write_u64 d 0 1;
    D.persist_all d;
    let kept = ref [] in
    for i = 0 to 63 do
      D.write_u64 d (i * Nvm.line_size) 9
    done;
    D.set_crash_seed d seed;
    D.crash d;
    for i = 0 to 63 do
      if D.read_u64 d (i * Nvm.line_size) = 9 then kept := i :: !kept
    done;
    !kept
  in
  let a = run 1234L and b = run 1234L and c = run 99L in
  Alcotest.(check (list int)) "same seed, same pattern" a b;
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_inject_drop_fences () =
  let d = mk () in
  D.write_u64 d 0 42;
  D.clwb d 0;
  D.inject_drop_fences d 1;
  D.sfence d (* dropped: a no-op *);
  Alcotest.(check int) "line still pending" 1 (D.pending_lines d);
  D.crash ~policy:`Drop_all d;
  Alcotest.(check int) "nothing persisted" 0 (D.read_u64 d 0);
  (* Disarmed after the budget is spent: the next fence is real. *)
  D.write_u64 d 0 43;
  D.clwb d 0;
  D.sfence d;
  D.crash ~policy:`Drop_all d;
  Alcotest.(check int) "later fence works" 43 (D.read_u64 d 0)

(* --- cost model -------------------------------------------------------- *)

let test_read_latency_charged () =
  let d = D.create ~perf:Nvm.Perf.optane ~size:(64 * Nvm.page_size) () in
  let t =
    Sim.run_thread (fun () ->
        ignore (D.read_u64 d 0);
        Sim.now ())
  in
  Alcotest.(check int) "miss costs read latency" 305 t

let test_cache_hit_cheap () =
  let d = D.create ~perf:Nvm.Perf.optane ~size:(64 * Nvm.page_size) () in
  let t =
    Sim.run_thread (fun () ->
        ignore (D.read_u64 d 0);
        let t0 = Sim.now () in
        ignore (D.read_u64 d 8);
        (* same line: hit *)
        Sim.now () - t0)
  in
  Alcotest.(check int) "hit cost" 2 t

let test_pollute_cache () =
  let d = D.create ~perf:Nvm.Perf.optane ~size:(64 * Nvm.page_size) () in
  let t =
    Sim.run_thread (fun () ->
        ignore (D.read_u64 d 0);
        (* pollution evicts a 1/8 window per call; 8 calls sweep the cache *)
        for _ = 1 to 8 do
          D.pollute_cache d
        done;
        let t0 = Sim.now () in
        ignore (D.read_u64 d 0);
        Sim.now () - t0)
  in
  Alcotest.(check int) "miss again after pollution" 305 t

(* One world's load must not reach into the next: a measured world times
   the same on a fresh device as on one that an earlier world left with
   both bandwidth channels booked and thread 0's line cache warm on the
   very lines the measured world reads. *)
let test_worlds_isolated () =
  let size = 64 * Nvm.page_size in
  let measured d =
    Sim.run_thread (fun () ->
        let times = ref [] in
        let mark () = times := Sim.now () :: !times in
        for i = 0 to 15 do
          ignore (D.read_u64 d (i * Nvm.line_size));
          mark ()
        done;
        ignore (D.read_bytes d 0 (4 * Nvm.page_size));
        mark ();
        for i = 0 to 15 do
          D.write_u64 d (Nvm.page_size + (i * Nvm.line_size)) i
        done;
        D.persist_range d Nvm.page_size (16 * Nvm.line_size);
        mark ();
        List.rev !times)
  in
  let fresh = measured (D.create ~perf:Nvm.Perf.optane ~size ()) in
  let loaded = D.create ~perf:Nvm.Perf.optane ~size () in
  Sim.run_thread (fun () ->
      for i = 0 to 15 do
        ignore (D.read_u64 loaded (i * Nvm.line_size))
      done;
      ignore (D.read_bytes loaded 0 (32 * Nvm.page_size));
      D.fill loaded (2 * Nvm.page_size) (32 * Nvm.page_size) 'x';
      D.persist_range loaded (2 * Nvm.page_size) (32 * Nvm.page_size));
  Alcotest.(check (list int)) "every simulated time matches" fresh
    (measured loaded)

let test_fence_cost () =
  let d = D.create ~perf:Nvm.Perf.optane ~size:(64 * Nvm.page_size) () in
  let t =
    Sim.run_thread (fun () ->
        D.write_u64 d 0 1;
        let t0 = Sim.now () in
        D.clwb d 0;
        D.sfence d;
        Sim.now () - t0)
  in
  (* clwb instruction (4) + 64B writeback bandwidth (64/14 = 4ns) + fence
     (30) + write latency (94) *)
  Alcotest.(check int) "flush+fence cost" 132 t

let test_stats_counted () =
  let d = mk () in
  D.reset_stats d;
  ignore (D.read_u64 d 0);
  D.write_u64 d 0 1;
  D.clwb d 0;
  D.sfence d;
  Alcotest.(check int) "reads" 1 (D.stat_reads d);
  Alcotest.(check int) "writes" 1 (D.stat_writes d);
  Alcotest.(check int) "flushes" 1 (D.stat_flushes d);
  Alcotest.(check int) "fences" 1 (D.stat_fences d)

let test_protection_hook_called () =
  let d = mk () in
  let log = ref [] in
  D.set_protection_hook d (fun ~addr ~write -> log := (addr, write) :: !log);
  D.write_u64 d 8 1;
  ignore (D.read_u64 d 16);
  Alcotest.(check (list (pair int bool)))
    "hook calls"
    [ (16, false); (8, true) ]
    !log;
  D.clear_protection_hook d;
  D.write_u64 d 24 1;
  Alcotest.(check int) "no more calls" 2 (List.length !log)

let test_protection_hook_can_block () =
  let d = mk () in
  D.set_protection_hook d (fun ~addr ~write ->
      if write then raise (Nvm.Fault { addr; write; kind = Nvm.Protection; reason = "ro" }));
  ignore (D.read_u64 d 0);
  Alcotest.check_raises "write faults"
    (Nvm.Fault { addr = 0; write = true; kind = Nvm.Protection; reason = "ro" }) (fun () ->
      D.write_u64 d 0 1)

(* A bulk access passes every page it touches to the hook, in address
   order, and before its bounds check. *)
let test_protection_hook_every_page () =
  let d = mk ~size:(4 * Nvm.page_size) () in
  let log = ref [] in
  D.set_protection_hook d (fun ~addr ~write -> log := (addr, write) :: !log);
  let ps = Nvm.page_size in
  ignore (D.read_bytes d (ps - 8) (ps + 16));
  D.fill d (3 * ps) 8 'x';
  Alcotest.(check (list (pair int bool)))
    "one call per page"
    [ (ps - 8, false); (ps, false); (2 * ps, false); (3 * ps, true) ]
    (List.rev !log);
  log := [];
  Alcotest.check_raises "bounds checked after the hook"
    (Invalid_argument "Nvm: access [16376, 16392) out of device [0, 16384)")
    (fun () -> ignore (D.read_bytes d ((4 * ps) - 8) 16));
  Alcotest.(check (list (pair int bool)))
    "hook saw the page past the end"
    [ ((4 * ps) - 8, false); (4 * ps, false) ]
    (List.rev !log)

(* --- host cost of the hot path ------------------------------------------ *)

(* Untraced scalar loads and stores in a lone thread neither allocate nor
   switch context: no hashing into boxed options, no (page, off) tuple, and
   an [advance] with nobody else runnable keeps the thread running. *)
let test_scalar_access_allocates_nothing () =
  let d = mk ~perf:Nvm.Perf.optane () in
  let n = 1000 in
  let reads, writes =
    Sim.run_thread (fun () ->
        D.write_u64 d 64 1;
        ignore (D.read_u64 d 64);
        let w0 = Gc.minor_words () in
        for _ = 1 to n do
          ignore (Sys.opaque_identity (D.read_u64 d 64))
        done;
        let w1 = Gc.minor_words () in
        for i = 1 to n do
          D.write_u64 d 64 i
        done;
        let w2 = Gc.minor_words () in
        (w1 -. w0, w2 -. w1))
  in
  Alcotest.(check int) "read_u64 words per call" 0 (int_of_float reads / n);
  Alcotest.(check int) "write_u64 words per call" 0 (int_of_float writes / n)

(* Line caches are per thread: 200 threads read lines that share one cache
   slot, and each still hits its own line afterwards. *)
let test_line_caches_per_thread () =
  let d = mk ~size:(65536 * Nvm.page_size) ~perf:Nvm.Perf.optane () in
  let slot_stride = 4096 * Nvm.line_size in
  let hit_ns = Array.make 200 (-1) in
  let w = Sim.create () in
  for i = 0 to 199 do
    Sim.spawn w ~name:(Printf.sprintf "r%d" i) (fun () ->
        ignore (D.read_u64 d (i * slot_stride));
        Sim.advance 1000;
        let t0 = Sim.now () in
        ignore (D.read_u64 d (i * slot_stride));
        hit_ns.(i) <- Sim.now () - t0)
  done;
  Sim.run w;
  Array.iteri
    (fun i ns -> Alcotest.(check int) (Printf.sprintf "thread %d hits" i) 2 ns)
    hit_ns

(* --- property tests ---------------------------------------------------- *)

let qcheck_persisted_data_survives =
  QCheck.Test.make ~name:"persisted writes always survive a crash" ~count:50
    QCheck.(
      list_of_size (Gen.int_range 1 20)
        (pair (int_range 0 1000)
           (string_gen_of_size (Gen.int_range 1 50) Gen.printable)))
    (fun writes ->
      let d = mk ~size:(64 * Nvm.page_size) () in
      (* Apply writes at non-overlapping offsets spaced 4 KB apart. *)
      let entries =
        List.mapi (fun i (off, s) -> ((i * 2048) + (off mod 1024), s)) writes
      in
      List.iter (fun (addr, s) -> D.write_string d addr s) entries;
      D.persist_all d;
      D.crash d;
      List.for_all
        (fun (addr, s) -> D.read_string d addr (String.length s) = s)
        entries)

let qcheck_unpersisted_never_leaks_past_drop_all =
  QCheck.Test.make ~name:"drop_all crash erases all unflushed writes" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 20) (int_range 0 4000))
    (fun offs ->
      let d = mk ~size:(64 * Nvm.page_size) () in
      List.iter (fun off -> D.write_u8 d off 0xFF) offs;
      D.crash ~policy:`Drop_all d;
      List.for_all (fun off -> D.read_u8 d off = 0) offs)

(* --- line-state model ------------------------------------------------- *)

(* Random sequences of stores, flushes, fences, nt stores, nested atomic
   sections, snapshots, restores and crashes, checked against a reference
   model of each line's state (clean, dirty, flushing) and of the open
   section's undo set. *)
type op =
  | Store of int
  | Clwb of int
  | Nt of int
  | Sfence
  | Begin
  | Commit
  | Abort
  | Snap
  | Restore of int
  | Crash

let model_lines = [| 0; 1; 2; 63; 64; 65; 127; 200 |]
let model_addr i = model_lines.(i) * Nvm.line_size

let show_op = function
  | Store i -> Printf.sprintf "store %d" i
  | Clwb i -> Printf.sprintf "clwb %d" i
  | Nt i -> Printf.sprintf "nt %d" i
  | Sfence -> "sfence"
  | Begin -> "begin"
  | Commit -> "commit"
  | Abort -> "abort"
  | Snap -> "snap"
  | Restore k -> Printf.sprintf "restore %d" k
  | Crash -> "crash"

let gen_op =
  let line = QCheck.Gen.int_bound (Array.length model_lines - 1) in
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> Store i) line);
        (3, map (fun i -> Clwb i) line);
        (2, map (fun i -> Nt i) line);
        (2, return Sfence);
        (2, return Begin);
        (2, return Commit);
        (1, return Abort);
        (1, return Snap);
        (1, map (fun k -> Restore k) small_nat);
        (1, return Crash);
      ])

(* 0 clean, 1 dirty, 2 flushing *)
type model = {
  st : int array;
  mutable depth : int;
  mutable undo : int list;
  mutable snaps : (D.snapshot * int array) list;
}

let model_step d m op =
  let touch i = if m.depth > 0 && not (List.mem i m.undo) then m.undo <- i :: m.undo in
  let fence () = Array.iteri (fun i s -> if s = 2 then m.st.(i) <- 0) m.st in
  let close () =
    m.depth <- 0;
    m.undo <- []
  in
  match op with
  | Store i ->
      D.write_u64 d (model_addr i) (i + 1);
      touch i;
      if m.st.(i) = 0 then m.st.(i) <- 1
  | Clwb i ->
      D.clwb d (model_addr i);
      if m.st.(i) = 1 then m.st.(i) <- 2
  | Nt i ->
      D.nt_write_u64 d (model_addr i) (i + 1);
      touch i;
      m.st.(i) <- 2
  | Sfence ->
      D.sfence d;
      fence ()
  | Begin ->
      D.begin_atomic d;
      m.depth <- m.depth + 1
  | Commit ->
      if m.depth = 0 then begin
        match D.commit_atomic d with
        | () -> Alcotest.fail "commit with no open section did not raise"
        | exception Invalid_argument _ -> ()
      end
      else begin
        D.commit_atomic d;
        if m.depth > 1 then m.depth <- m.depth - 1
        else begin
          let need_fence = List.exists (fun i -> m.st.(i) <> 0) m.undo in
          List.iter (fun i -> if m.st.(i) = 1 then m.st.(i) <- 2) m.undo;
          if need_fence then fence ();
          close ()
        end
      end
  | Abort ->
      D.abort_atomic d;
      if m.depth > 1 then m.depth <- m.depth - 1
      else if m.depth = 1 then begin
        List.iter (fun i -> m.st.(i) <- 0) m.undo;
        close ()
      end
  | Snap -> m.snaps <- (D.snapshot d, Array.copy m.st) :: m.snaps
  | Restore k -> (
      match m.snaps with
      | [] -> ()
      | l ->
          let snap, st = List.nth l (k mod List.length l) in
          D.restore d snap;
          Array.blit st 0 m.st 0 (Array.length st);
          close ())
  | Crash ->
      D.crash d;
      Array.fill m.st 0 (Array.length m.st) 0;
      close ()

let model_agrees d m =
  let count p = Array.fold_left (fun n s -> if p s then n + 1 else n) 0 m.st in
  D.pending_lines d = count (fun s -> s <> 0)
  && D.flushing_lines d = count (fun s -> s = 2)
  && Array.for_all Fun.id
       (Array.mapi
          (fun i s -> D.line_needs_flush d (model_addr i) = (s = 1))
          m.st)

exception Subscriber_abort

(* A subscriber raising inside the outermost commit leaves the section
   open: the next crash rolls back every line in it, even under
   `Keep_all. *)
let raising_commit_rolls_back d m =
  while m.depth > 0 do
    model_step d m Commit
  done;
  Array.iteri
    (fun i _ ->
      D.write_u64 d (model_addr i) (500 + i);
      D.persist_range d (model_addr i) 8)
    model_lines;
  D.begin_atomic d;
  Array.iteri (fun i _ -> D.write_u64 d (model_addr i) (1000 + i)) model_lines;
  let sub =
    D.add_trace_subscriber d (function
      | D.T_clwb _ | D.T_fence _ -> raise Subscriber_abort
      | _ -> ())
  in
  let raised =
    match D.commit_atomic d with
    | () -> false
    | exception Subscriber_abort -> true
  in
  D.remove_trace_subscriber d sub;
  D.crash ~policy:`Keep_all d;
  raised
  && Array.for_all Fun.id
       (Array.mapi (fun i _ -> D.read_u64 d (model_addr i) = 500 + i) model_lines)

let qcheck_line_states_match_model =
  QCheck.Test.make ~name:"line states and pending count match a model"
    ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_op ops))
        Gen.(list_size (int_range 1 60) gen_op))
    (fun ops ->
      let d = mk ~size:(8 * Nvm.page_size) () in
      let m =
        {
          st = Array.make (Array.length model_lines) 0;
          depth = 0;
          undo = [];
          snaps = [];
        }
      in
      List.for_all
        (fun op ->
          model_step d m op;
          model_agrees d m)
        ops
      && raising_commit_rolls_back d m)

let () =
  Alcotest.run "nvm"
    [
      ( "accessors",
        [
          Alcotest.test_case "scalar roundtrip" `Quick test_scalar_roundtrip;
          Alcotest.test_case "truncation" `Quick test_truncation;
          Alcotest.test_case "zero initialized" `Quick test_zero_initialized;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "blit across pages" `Quick test_blit_crosses_pages;
          Alcotest.test_case "scalar page-cross rejected" `Quick
            test_scalar_page_cross_rejected;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "fill and copy" `Quick test_fill_and_copy;
        ] );
      ( "host cost",
        [
          Alcotest.test_case "scalar access allocates nothing" `Quick
            test_scalar_access_allocates_nothing;
          Alcotest.test_case "line caches per thread" `Quick
            test_line_caches_per_thread;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "unflushed lost" `Quick test_unflushed_lost_on_crash;
          Alcotest.test_case "flushed survives" `Quick test_flushed_survives_crash;
          Alcotest.test_case "clwb without fence" `Quick
            test_clwb_without_fence_not_durable;
          Alcotest.test_case "ntstore durable after fence" `Quick
            test_nt_write_durable_after_fence;
          Alcotest.test_case "persist_range" `Quick test_persist_range;
          Alcotest.test_case "line granularity" `Quick test_partial_line_granularity;
          Alcotest.test_case "keep_all crash" `Quick test_keep_all_crash;
          Alcotest.test_case "reset to last persisted" `Quick
            test_crash_resets_to_last_persisted;
          Alcotest.test_case "pending lines counter" `Quick test_pending_lines_counter;
          Alcotest.test_case "persist_all durable" `Quick test_persist_all_durable;
          Alcotest.test_case "random crash is per-line" `Quick
            test_random_crash_policy_is_per_line;
          Alcotest.test_case "random crash draws in line order" `Quick
            test_random_crash_draws_in_line_order;
          QCheck_alcotest.to_alcotest qcheck_line_states_match_model;
          QCheck_alcotest.to_alcotest qcheck_persisted_data_survives;
          QCheck_alcotest.to_alcotest qcheck_unpersisted_never_leaks_past_drop_all;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "restores both views" `Quick
            test_snapshot_restores_both_views;
          Alcotest.test_case "captures pending lines" `Quick
            test_snapshot_captures_pending_lines;
          Alcotest.test_case "round-trips line states" `Quick
            test_snapshot_round_trips_line_states;
          Alcotest.test_case "restore is reusable" `Quick test_restore_is_reusable;
          Alcotest.test_case "captures crash rng" `Quick
            test_snapshot_captures_crash_rng;
          Alcotest.test_case "set_crash_seed reproducible" `Quick
            test_set_crash_seed_reproducible;
          Alcotest.test_case "inject_drop_fences" `Quick test_inject_drop_fences;
        ] );
      ( "cost-model",
        [
          Alcotest.test_case "read latency" `Quick test_read_latency_charged;
          Alcotest.test_case "cache hit" `Quick test_cache_hit_cheap;
          Alcotest.test_case "pollute cache" `Quick test_pollute_cache;
          Alcotest.test_case "flush+fence cost" `Quick test_fence_cost;
          Alcotest.test_case "worlds do not share time" `Quick
            test_worlds_isolated;
          Alcotest.test_case "stats" `Quick test_stats_counted;
        ] );
      ( "protection-hook",
        [
          Alcotest.test_case "hook called" `Quick test_protection_hook_called;
          Alcotest.test_case "hook can block" `Quick test_protection_hook_can_block;
          Alcotest.test_case "bulk access hooks every page" `Quick
            test_protection_hook_every_page;
        ] );
    ]
