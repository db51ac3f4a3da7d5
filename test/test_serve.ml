(* The serving plane's sharp edges, pinned deterministically under the
   simulated clock:

   - deadline edges in lease acquisition: a deadline expiring while a
     steal is in flight, a deadline shorter than a single backoff step,
     and the zero-budget try-once degradation
   - the shared backoff helper: deterministic jitter, capped steps,
     deadline-aware waits
   - ambient deadline plumbing: nesting can only shrink the budget
   - the server itself: quota sheds, bounded queues, a late success
     reported as the timeout it is to the client, a freed slot granted
     straight to the next waiter, and a client that dies holding its
     slot or before it resumes, reclaimed at its death *)

open Testkit
module D = Nvm.Device
module E = Treasury.Errno
module Bk = Treasury.Backoff
module Dl = Treasury.Deadline
module Serve = Serving.Serve

let in_world f =
  let w = Sim.create () in
  let done_ = ref false in
  Sim.spawn w ~name:"t" (fun () ->
      f w;
      done_ := true);
  Sim.run w;
  Alcotest.(check bool) "test thread finished" true !done_

(* ---- deadline edges in lease acquisition -------------------------------- *)

(* Zero budget degrades to try-once: an uncontended lease still costs only
   one CAS, so a deadline already in the past must not fail it. *)
let test_zero_deadline_uncontended () =
  obs_on ();
  in_world (fun _w ->
      let dev = D.create ~perf:Nvm.Perf.free ~size:Nvm.page_size () in
      Sim.advance 1_000;
      Zofs.Lease.acquire ~deadline:(Sim.now () - 500) dev 512;
      Alcotest.(check bool) "lease taken" true (D.read_u64 dev 512 <> 0))

(* ... but against a validly held lease, the single attempt fails and the
   give-up is immediate: no backoff is paid past the (long-gone) deadline. *)
let test_zero_deadline_contended () =
  obs_on ();
  let snap0 = Obs.Snapshot.take () in
  in_world (fun w ->
      let dev = D.create ~perf:Nvm.Perf.free ~size:Nvm.page_size () in
      let held = ref false in
      Sim.spawn w ~name:"holder" (fun () ->
          Zofs.Lease.acquire ~duration:1_000_000 dev 512;
          held := true);
      while not !held do
        Sim.advance 100
      done;
      let t0 = Sim.now () in
      (match Zofs.Lease.acquire ~deadline:(t0 - 1) dev 512 with
      | () -> Alcotest.fail "acquired a held lease on zero budget"
      | exception Dl.Expired _ -> ());
      Alcotest.(check bool) "gave up without paying backoff" true
        (Sim.now () - t0 < Zofs.Lease.backoff_base));
  Alcotest.(check bool) "abort counted" true
    (counter_delta snap0 "lease.aborts" >= 1)

(* A deadline shorter than one backoff step: the wait is clamped to the
   deadline (never sleeps past it), one final attempt runs, and the
   expiry raises at — not beyond — the budget's edge. *)
let test_deadline_shorter_than_backoff () =
  obs_on ();
  in_world (fun w ->
      let dev = D.create ~perf:Nvm.Perf.free ~size:Nvm.page_size () in
      let held = ref false in
      Sim.spawn w ~name:"holder" (fun () ->
          Zofs.Lease.acquire ~duration:1_000_000 dev 512;
          held := true);
      while not !held do
        Sim.advance 100
      done;
      let budget = Zofs.Lease.backoff_base / 4 in
      let d = Sim.now () + budget in
      (match Zofs.Lease.acquire ~deadline:d dev 512 with
      | () -> Alcotest.fail "acquired a held lease inside a tiny budget"
      | exception Dl.Expired { deadline; now } ->
          Alcotest.(check int) "raised with the caller's deadline" d deadline;
          Alcotest.(check bool) "no sleep past the deadline" true
            (now - d <= Zofs.Lease.clock_gettime_cost + 1)))

(* Deadline expiring while a steal is in flight: the holder is killed, its
   lease has not yet expired, and the waiter's budget runs out mid-camp.
   The waiter must abort at its deadline; a second waiter with budget past
   the lease expiry completes the steal. *)
let test_deadline_while_steal_in_flight () =
  obs_on ();
  let snap0 = Obs.Snapshot.take () in
  in_world (fun w ->
      let dev = D.create ~perf:Nvm.Perf.free ~size:Nvm.page_size () in
      let tid =
        Sim.spawn_tid w ~name:"doomed-holder" (fun () ->
            Zofs.Lease.acquire ~duration:100_000 dev 512;
            (* hold forever: the kill below reclaims the thread without
               unwinding, so the lease word stays owned until it expires *)
            while true do
              Sim.advance 1_000
            done)
      in
      while D.read_u64 dev 512 = 0 do
        Sim.advance 100
      done;
      Sim.arm_kill ~tid ~after:1;
      Sim.advance 5_000;
      Alcotest.(check bool) "holder is dead" false (Sim.thread_alive tid);
      Alcotest.(check bool) "lease still held" true (D.read_u64 dev 512 <> 0);
      (* waiter 1: budget dies before the dead holder's lease does *)
      let d1 = Sim.now () + 20_000 in
      (match Zofs.Lease.acquire ~deadline:d1 dev 512 with
      | () -> Alcotest.fail "stole a lease that had not expired"
      | exception Dl.Expired _ ->
          Alcotest.(check bool) "aborted at its own deadline" true
            (Sim.now () >= d1 && Sim.now () < d1 + 1_000));
      (* waiter 2: budget outlives the lease — the steal lands *)
      Zofs.Lease.acquire ~deadline:(Sim.now () + 200_000) dev 512;
      Alcotest.(check int) "stealer owns the word" (Sim.self_tid () + 2)
        (D.read_u64 dev 512 land 0xFFFF));
  Alcotest.(check bool) "one abort, one steal" true
    (counter_delta snap0 "lease.aborts" >= 1
    && counter_delta snap0 "lease.steals" >= 1)

(* ---- the shared backoff helper ------------------------------------------ *)

let test_backoff_deterministic_and_capped () =
  in_world (fun _w ->
      let seq salt =
        let b = Bk.create ~base:200 ~cap:6_400 ~salt () in
        List.init 12 (fun _ ->
            let d = Bk.next_delay b in
            ignore (Bk.wait b);
            d)
      in
      let a = seq 7 in
      List.iter
        (fun d ->
          Alcotest.(check bool) "positive" true (d >= 1);
          (* cap + max positive jitter (span/2 = cap/4) *)
          Alcotest.(check bool) "capped" true (d <= 6_400 + 1_600))
        a;
      (* the tail must sit at the cap, not keep doubling *)
      let tail = List.nth a 11 in
      Alcotest.(check bool) "tail near cap" true (tail >= 6_400 - 1_600))

let test_backoff_wait_until_clamps () =
  in_world (fun _w ->
      let b = Bk.create ~base:1_000 ~cap:8_000 ~salt:1 () in
      let d = Sim.now () + 2_500 in
      (* keep waiting: each sleep is clamped, and the helper reports the
         deadline's arrival instead of sleeping past it *)
      let rec drain n = if Bk.wait_until b ~deadline:d then drain (n + 1) else n in
      let waits = drain 0 in
      Alcotest.(check bool) "waited at least once" true (waits >= 1);
      Alcotest.(check int) "parked exactly at the deadline" d (Sim.now ());
      Alcotest.(check bool) "false once reached" false
        (Bk.wait_until b ~deadline:d))

(* ---- ambient deadline nesting ------------------------------------------- *)

let test_deadline_nesting_shrinks () =
  in_world (fun _w ->
      Sim.advance 1_000;
      let outer = Sim.now () + 100 in
      Dl.with_deadline outer (fun () ->
          (* an inner, LARGER deadline must not extend the budget *)
          Dl.with_deadline (Sim.now () + 1_000_000) (fun () ->
              Alcotest.(check (option int)) "outer budget wins" (Some outer)
                (Dl.current ()));
          (* an inner, smaller deadline shrinks it... *)
          let inner = Sim.now () + 10 in
          Dl.with_deadline inner (fun () ->
              Alcotest.(check (option int)) "inner budget wins" (Some inner)
                (Dl.current ()));
          (* ...and is restored on the way out *)
          Alcotest.(check (option int)) "restored" (Some outer) (Dl.current ()));
      Alcotest.(check (option int)) "cleared" None (Dl.current ()))

(* ---- the server: sheds and late successes ------------------------------- *)

let test_serve_quota_shed () =
  obs_on ();
  in_world (fun _w ->
      let srv = Serve.create ~max_inflight:4 () in
      Serve.add_tenant srv ~id:0 ~weight:1 ~rate_per_ms:1 ~burst:1
        ~queue_cap:8 ();
      (match Serve.submit srv ~tenant_id:0 (fun () -> Ok ()) with
      | Serve.Done (Ok ()) -> ()
      | _ -> Alcotest.fail "first request inside burst must pass");
      (match Serve.submit srv ~tenant_id:0 (fun () -> Ok ()) with
      | Serve.Shed { reason = Serve.Quota; retry_after } ->
          Alcotest.(check bool) "honest retry_after" true (retry_after > 0);
          (* the quoted wait is sufficient: after it, the bucket has the
             token back *)
          Sim.advance retry_after;
          (match Serve.submit srv ~tenant_id:0 (fun () -> Ok ()) with
          | Serve.Done (Ok ()) -> ()
          | _ -> Alcotest.fail "retry after the quoted wait must pass")
      | _ -> Alcotest.fail "second request must shed on quota");
      (* every submission accounted exactly once *)
      let s = List.hd (Serve.tenant_stats srv) in
      Alcotest.(check int) "books balance" s.Serve.ts_submitted
        (Serve.accounted s))

let test_serve_queue_full_shed () =
  obs_on ();
  in_world (fun w ->
      let srv = Serve.create ~max_inflight:1 () in
      Serve.add_tenant srv ~id:0 ~weight:1 ~rate_per_ms:1_000 ~burst:100
        ~queue_cap:1 ();
      let outcomes = ref [] in
      for i = 0 to 2 do
        ignore
          (Sim.spawn_tid w
             ~name:(Printf.sprintf "c%d" i)
             ~at:(Sim.now () + (i * 10))
             (fun () ->
               let o =
                 Serve.submit srv ~tenant_id:0 (fun () ->
                     Sim.advance 50_000;
                     Ok ())
               in
               outcomes := o :: !outcomes))
      done;
      Sim.advance 400_000;
      let sheds =
        List.length
          (List.filter
             (function
               | Serve.Shed { reason = Serve.Queue_full; _ } -> true
               | _ -> false)
             !outcomes)
      in
      let okc =
        List.length
          (List.filter
             (function Serve.Done (Ok ()) -> true | _ -> false)
             !outcomes)
      in
      (* one executing, one queued, one shed *)
      Alcotest.(check int) "two served" 2 okc;
      Alcotest.(check int) "one shed on the bounded queue" 1 sheds;
      Alcotest.(check int) "no slot leak" 0 (Serve.inflight srv))

(* A request that finishes its work after its budget is a timeout to the
   client — and an Executing-stage one, so it feeds the degrade window. *)
let test_serve_late_success_is_timeout () =
  obs_on ();
  in_world (fun _w ->
      let srv = Serve.create ~max_inflight:2 () in
      Serve.add_tenant srv ~id:0 ~weight:1 ~rate_per_ms:1_000 ~burst:10
        ~queue_cap:8 ();
      (match
         Serve.submit srv ~tenant_id:0 ~deadline_ns:100 (fun () ->
             Sim.advance 5_000;
             Ok ())
       with
      | Serve.Timed_out { stage = Serve.Executing } -> ()
      | Serve.Done (Ok ()) -> Alcotest.fail "late success reported as success"
      | _ -> Alcotest.fail "unexpected outcome for a late success");
      let s = List.hd (Serve.tenant_stats srv) in
      Alcotest.(check int) "counted as timed out" 1 s.Serve.ts_timed_out;
      Alcotest.(check int) "books balance" s.Serve.ts_submitted
        (Serve.accounted s))

(* ---- direct grants ------------------------------------------------------ *)

(* A freed slot goes straight to the next ticket: with one slot, B's body
   starts at the very instant A's ends, not at B's next sweep.  A budget
   still ends a queued wait at exactly its deadline. *)
let test_grant_wakes_waiter () =
  obs_on ();
  in_world (fun w ->
      let srv = Serve.create ~max_inflight:1 () in
      Serve.add_tenant srv ~id:0 ~weight:1 ~rate_per_ms:1_000 ~burst:10
        ~queue_cap:8 ();
      let t0 = Sim.now () in
      let a_end = ref (-1) and b_start = ref (-1) and c_out = ref None in
      let client ~at f = Sim.spawn w ~name:"c" ~at:(t0 + at) f in
      client ~at:0 (fun () ->
          ignore
            (Serve.submit srv ~tenant_id:0 (fun () ->
                 Sim.advance 10_000;
                 a_end := Sim.now ();
                 Ok ())));
      client ~at:1_000 (fun () ->
          ignore
            (Serve.submit srv ~tenant_id:0 (fun () ->
                 b_start := Sim.now ();
                 Sim.advance 1_000;
                 Ok ())));
      client ~at:2_000 (fun () ->
          let o =
            Serve.submit srv ~tenant_id:0 ~deadline_ns:3_000 (fun () -> Ok ())
          in
          c_out := Some (o, Sim.now ()));
      Sim.advance 50_000;
      Alcotest.(check int) "A ran its 10 us" (t0 + 10_000) !a_end;
      Alcotest.(check int) "B queued exactly A's end - B's submit" 9_000
        (!b_start - (t0 + 1_000));
      (match !c_out with
      | Some (Serve.Timed_out { stage = Serve.Queued }, at) ->
          Alcotest.(check int) "C gave up at its deadline" (t0 + 5_000) at
      | _ -> Alcotest.fail "C must time out in the queue");
      let s = List.hd (Serve.tenant_stats srv) in
      Alcotest.(check int) "two done" 2 s.Serve.ts_done_ok;
      Alcotest.(check int) "books balance" s.Serve.ts_submitted
        (Serve.accounted s);
      Alcotest.(check int) "no slot leak" 0 (Serve.inflight srv))

(* A client killed after its grant but before it resumes frees its slot at
   its death, which counts it lost exactly once. *)
let test_killed_grantee_reclaimed () =
  obs_on ();
  in_world (fun w ->
      let srv = Serve.create ~max_inflight:1 () in
      Serve.add_tenant srv ~id:0 ~weight:1 ~rate_per_ms:1_000 ~burst:10
        ~queue_cap:8 ();
      let t0 = Sim.now () in
      let b = ref (-1) and at_grant = ref None in
      Sim.spawn w ~name:"a" ~at:t0 (fun () ->
          ignore
            (Serve.submit srv ~tenant_id:0 (fun () ->
                 Sim.advance 10_000;
                 (* B is queued and alive: it will be granted when this
                    body returns, and die when it next resumes *)
                 Sim.arm_kill ~tid:!b ~after:1;
                 Ok ()));
          at_grant := Some (Serve.inflight srv, Sim.thread_alive !b));
      b :=
        Sim.spawn_tid w ~name:"b" ~at:(t0 + 1_000) (fun () ->
            ignore
              (Serve.submit srv ~tenant_id:0 (fun () ->
                   Sim.advance 1_000;
                   Ok ())));
      Sim.advance 20_000;
      Alcotest.(check (option (pair int bool)))
        "B granted the slot while still alive" (Some (1, true)) !at_grant;
      Alcotest.(check bool) "B is dead" false (Sim.thread_alive !b);
      Alcotest.(check int) "freed at its death" 0 (Serve.inflight srv);
      (match
         Serve.submit srv ~tenant_id:0 ~deadline_ns:50_000 (fun () -> Ok ())
       with
      | Serve.Done (Ok ()) -> ()
      | _ -> Alcotest.fail "the next request must get the reclaimed slot");
      let s = List.hd (Serve.tenant_stats srv) in
      Alcotest.(check int) "lost once" 1 s.Serve.ts_lost;
      Alcotest.(check int) "books balance" s.Serve.ts_submitted
        (Serve.accounted s);
      Alcotest.(check int) "no slot leak" 0 (Serve.inflight srv))

(* A slot holder killed mid-body frees its slot at its death: the waiter,
   which has no deadline and so no timer, starts its body at exactly the
   holder's death time, its wait having suspended once.  The death is
   counted lost and the books balance with no sweep of any kind. *)
let test_holder_death_grants_at_once () =
  obs_on ();
  in_world (fun w ->
      let srv = Serve.create ~max_inflight:1 () in
      Serve.add_tenant srv ~id:0 ~weight:1 ~rate_per_ms:1_000 ~burst:10
        ~queue_cap:8 ();
      let t0 = Sim.now () in
      let died_at = ref (-1) and b_start = ref (-1) and b_runs = ref 0 in
      let b_switches = ref (-1) in
      let a =
        Sim.spawn_tid w ~name:"a" ~at:t0 (fun () ->
            ignore
              (Serve.submit srv ~tenant_id:0 (fun () ->
                   Sim.advance 10_000;
                   Sim.arm_kill ~tid:(Sim.self_tid ()) ~after:1;
                   died_at := Sim.now () + 1_000;
                   Sim.advance 1_000 (* dies at its end *);
                   Alcotest.fail "the holder outlived its kill")))
      in
      Sim.spawn w ~name:"b" ~at:(t0 + 1_000) (fun () ->
          let s0 = Sim.world_switches w in
          ignore
            (Serve.submit srv ~tenant_id:0 (fun () ->
                 b_start := Sim.now ();
                 b_switches := Sim.world_switches w - s0;
                 incr b_runs;
                 Ok ())));
      Sim.advance 50_000;
      Alcotest.(check bool) "A died mid-body" false (Sim.thread_alive a);
      Alcotest.(check int) "at 11 us" (t0 + 11_000) !died_at;
      Alcotest.(check int) "B starts at A's death" !died_at !b_start;
      Alcotest.(check int) "B's body ran once" 1 !b_runs;
      Alcotest.(check int) "B's wait suspended once" 1 !b_switches;
      let s = List.hd (Serve.tenant_stats srv) in
      Alcotest.(check int) "lost once" 1 s.Serve.ts_lost;
      Alcotest.(check int) "B done" 1 s.Serve.ts_done_ok;
      Alcotest.(check int) "books balance" s.Serve.ts_submitted
        (Serve.accounted s);
      Alcotest.(check int) "no slot leak" 0 (Serve.inflight srv))

let () =
  Alcotest.run "serve"
    [
      ( "lease-deadlines",
        [
          Alcotest.test_case "zero budget, uncontended: try-once wins" `Quick
            test_zero_deadline_uncontended;
          Alcotest.test_case "zero budget, contended: immediate abort" `Quick
            test_zero_deadline_contended;
          Alcotest.test_case "budget shorter than one backoff step" `Quick
            test_deadline_shorter_than_backoff;
          Alcotest.test_case "deadline expiring while steal in flight" `Quick
            test_deadline_while_steal_in_flight;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "deterministic, jittered, capped" `Quick
            test_backoff_deterministic_and_capped;
          Alcotest.test_case "wait_until clamps at the deadline" `Quick
            test_backoff_wait_until_clamps;
        ] );
      ( "deadline-plumbing",
        [
          Alcotest.test_case "nesting only shrinks the budget" `Quick
            test_deadline_nesting_shrinks;
        ] );
      ( "server",
        [
          Alcotest.test_case "quota shed with honest retry-after" `Quick
            test_serve_quota_shed;
          Alcotest.test_case "bounded queue sheds the overflow" `Quick
            test_serve_queue_full_shed;
          Alcotest.test_case "late success is a timeout" `Quick
            test_serve_late_success_is_timeout;
          Alcotest.test_case "a grant wakes its waiter" `Quick
            test_grant_wakes_waiter;
          Alcotest.test_case "a grantee killed before it resumes is reclaimed"
            `Quick test_killed_grantee_reclaimed;
          Alcotest.test_case "a holder's death grants its slot at once" `Quick
            test_holder_death_grants_at_once;
        ] );
    ]
