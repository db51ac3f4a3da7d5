(* Tests for the discrete-event simulation kernel. *)

let test_run_thread () =
  let r = Sim.run_thread (fun () -> 41 + 1) in
  Alcotest.(check int) "result" 42 r

let test_advance () =
  let r =
    Sim.run_thread (fun () ->
        Alcotest.(check int) "t0" 0 (Sim.now ());
        Sim.advance 100;
        Sim.advance 50;
        Sim.now ())
  in
  Alcotest.(check int) "time" 150 r

let test_outside_sim () =
  Alcotest.(check bool) "not in sim" false (Sim.in_sim ());
  Alcotest.(check int) "now=0" 0 (Sim.now ());
  Sim.advance 1000 (* no-op, must not raise *)

let test_interleaving () =
  (* Threads must run in virtual-time order regardless of spawn order. *)
  let order = ref [] in
  let w = Sim.create () in
  Sim.spawn w ~name:"slow" (fun () ->
      Sim.advance 100;
      order := "slow" :: !order);
  Sim.spawn w ~name:"fast" (fun () ->
      Sim.advance 10;
      order := "fast" :: !order);
  Sim.run w;
  Alcotest.(check (list string)) "order" [ "slow"; "fast" ] !order

let test_spawn_at () =
  let times = ref [] in
  let w = Sim.create () in
  Sim.spawn w ~at:500 ~name:"late" (fun () -> times := ("late", Sim.now ()) :: !times);
  Sim.spawn w ~name:"early" (fun () -> times := ("early", Sim.now ()) :: !times);
  Sim.run w;
  Alcotest.(check (list (pair string int)))
    "times"
    [ ("late", 500); ("early", 0) ]
    !times

let test_mutex_exclusion () =
  let m = Sim.Mutex.create () in
  let inside = ref 0 in
  let max_inside = ref 0 in
  let w = Sim.create () in
  for i = 1 to 4 do
    Sim.spawn w ~name:(Printf.sprintf "t%d" i) (fun () ->
        Sim.Mutex.with_lock m (fun () ->
            incr inside;
            if !inside > !max_inside then max_inside := !inside;
            Sim.advance 10;
            decr inside))
  done;
  Sim.run w;
  Alcotest.(check int) "mutual exclusion" 1 !max_inside

let test_mutex_contention_serializes_time () =
  (* 4 threads each hold the lock for 100ns: the last one must finish at
     >= 400ns of virtual time. *)
  let m = Sim.Mutex.create () in
  let finish = ref 0 in
  let w = Sim.create () in
  for i = 1 to 4 do
    Sim.spawn w ~name:(Printf.sprintf "t%d" i) (fun () ->
        Sim.Mutex.with_lock m (fun () -> Sim.advance 100);
        if Sim.now () > !finish then finish := Sim.now ())
  done;
  Sim.run w;
  Alcotest.(check int) "serialized" 400 !finish

let test_mutex_try_lock () =
  Sim.run_thread (fun () ->
      let m = Sim.Mutex.create () in
      Alcotest.(check bool) "first" true (Sim.Mutex.try_lock m);
      Alcotest.(check bool) "second" false (Sim.Mutex.try_lock m);
      Sim.Mutex.unlock m;
      Alcotest.(check bool) "after unlock" true (Sim.Mutex.try_lock m);
      Sim.Mutex.unlock m)

let test_rwlock_readers_parallel () =
  (* Readers overlap: each reads for 100ns, all finish at t=100. *)
  let l = Sim.Rwlock.create () in
  let finish = ref 0 in
  let w = Sim.create () in
  for i = 1 to 4 do
    Sim.spawn w ~name:(Printf.sprintf "r%d" i) (fun () ->
        Sim.Rwlock.with_rd l (fun () -> Sim.advance 100);
        if Sim.now () > !finish then finish := Sim.now ())
  done;
  Sim.run w;
  Alcotest.(check int) "parallel readers" 100 !finish

let test_rwlock_writer_excludes () =
  let l = Sim.Rwlock.create () in
  let finish = ref 0 in
  let w = Sim.create () in
  for i = 1 to 3 do
    Sim.spawn w ~name:(Printf.sprintf "w%d" i) (fun () ->
        Sim.Rwlock.with_wr l (fun () -> Sim.advance 100);
        if Sim.now () > !finish then finish := Sim.now ())
  done;
  Sim.run w;
  Alcotest.(check int) "serialized writers" 300 !finish

let test_rwlock_writer_waits_for_readers () =
  let l = Sim.Rwlock.create () in
  let writer_done = ref 0 in
  let w = Sim.create () in
  Sim.spawn w ~name:"reader" (fun () ->
      Sim.Rwlock.with_rd l (fun () -> Sim.advance 100));
  Sim.spawn w ~at:10 ~name:"writer" (fun () ->
      Sim.Rwlock.with_wr l (fun () -> Sim.advance 5);
      writer_done := Sim.now ());
  Sim.run w;
  Alcotest.(check int) "writer after reader" 105 !writer_done

let test_resource_serializes () =
  (* Two threads both request 100ns of the channel at t=0: second finishes at
     200. *)
  let r = Sim.Resource.create () in
  let finish = ref [] in
  let w = Sim.create () in
  for i = 1 to 2 do
    Sim.spawn w ~name:(Printf.sprintf "u%d" i) (fun () ->
        Sim.Resource.use r 100;
        finish := Sim.now () :: !finish)
  done;
  Sim.run w;
  Alcotest.(check (list int)) "finish times" [ 200; 100 ] !finish

let test_deadlock_detection () =
  let m = Sim.Mutex.create ~name:"held" () in
  let w = Sim.create () in
  Sim.spawn w ~name:"holder" (fun () ->
      Sim.Mutex.lock m (* never unlocked; thread ends while a waiter parks *);
      Sim.advance 10;
      Sim.Mutex.lock m (* self-deadlock *));
  Alcotest.check_raises "deadlock"
    (Sim.Deadlock "1 thread(s) blocked: #0 on held") (fun () -> Sim.run w)

let test_sleep_until () =
  Sim.run_thread (fun () ->
      Sim.sleep_until 1000;
      Alcotest.(check int) "slept" 1000 (Sim.now ());
      Sim.sleep_until 500;
      Alcotest.(check int) "no backwards" 1000 (Sim.now ()))

let test_proc_identity () =
  let p = Sim.Proc.create ~uid:7 ~gid:8 () in
  let uid =
    Sim.run_thread ~proc:p (fun () -> (Sim.self_proc ()).Sim.Proc.uid)
  in
  Alcotest.(check int) "uid" 7 uid;
  Alcotest.(check int) "outside proc is root" 0 (Sim.self_proc ()).Sim.Proc.uid

let test_kill_process_semantics () =
  (* SIGKILL for a whole pid: every thread dies at a suspension point, no
     finalizer runs, survivors in other processes observe the deaths. *)
  let victim = Sim.Proc.create ~uid:100 ~gid:100 () in
  let finalizers_ran = ref 0 in
  let victim_tids = ref [] in
  let observed = ref None in
  let w = Sim.create () in
  for i = 1 to 3 do
    let tid =
      Sim.spawn_tid w ~proc:victim ~name:(Printf.sprintf "victim%d" i)
        (fun () ->
          Fun.protect
            ~finally:(fun () -> incr finalizers_ran)
            (fun () ->
              for _ = 1 to 1000 do
                Sim.advance 10
              done))
    in
    victim_tids := tid :: !victim_tids
  done;
  Sim.spawn w ~name:"driver" (fun () ->
      Sim.advance 100;
      Sim.kill_process ~pid:victim.Sim.Proc.pid;
      (* Victims die at their next advance; pump until none is left. *)
      let budget = ref 100 in
      while Sim.proc_alive victim.Sim.Proc.pid && !budget > 0 do
        decr budget;
        Sim.advance 50
      done;
      observed :=
        Some
          ( Sim.proc_alive victim.Sim.Proc.pid,
            List.map Sim.thread_alive !victim_tids,
            Sim.killed_threads () ));
  Sim.run w;
  (match !observed with
  | None -> Alcotest.fail "driver did not run"
  | Some (alive, per_thread, killed) ->
      Alcotest.(check bool) "proc dead" false alive;
      Alcotest.(check (list bool))
        "every victim thread dead" [ false; false; false ] per_thread;
      Alcotest.(check int) "killed count" 3 killed);
  Alcotest.(check int) "no finalizer ran" 0 !finalizers_ran;
  (* pid->tid tracking is per-world: a fresh world knows nothing of pid. *)
  let w2 = Sim.create () in
  Sim.spawn w2 ~name:"check" (fun () ->
      Alcotest.(check (list int))
        "fresh world has no tids for the pid" []
        (Sim.proc_tids victim.Sim.Proc.pid));
  Sim.run w2

let test_kill_process_defers_past_no_kill () =
  (* A thread inside a no-kill section (modelling a syscall) completes the
     section before dying: the kill fires at the first advance outside. *)
  let victim = Sim.Proc.create () in
  let section_done = ref false and after_section = ref false in
  let w = Sim.create () in
  Sim.spawn w ~proc:victim ~name:"victim" (fun () ->
      Sim.advance 10;
      Sim.with_no_kill (fun () ->
          for _ = 1 to 20 do
            Sim.advance 10
          done;
          section_done := true);
      Sim.advance 10;
      after_section := true);
  Sim.spawn w ~name:"driver" (fun () ->
      Sim.advance 5;
      Sim.kill_process ~pid:victim.Sim.Proc.pid;
      let budget = ref 100 in
      while Sim.proc_alive victim.Sim.Proc.pid && !budget > 0 do
        decr budget;
        Sim.advance 50
      done);
  Sim.run w;
  Alcotest.(check bool) "no-kill section completed" true !section_done;
  Alcotest.(check bool) "died at first advance outside" false !after_section

let test_rng_deterministic () =
  let a = Sim.Rng.create 1L and b = Sim.Rng.create 1L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.next a) (Sim.Rng.next b)
  done

let test_rng_bounds () =
  let r = Sim.Rng.create 99L in
  for _ = 1 to 1000 do
    let v = Sim.Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of range"
  done;
  for _ = 1 to 1000 do
    let f = Sim.Rng.float r 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.fail "float out of range"
  done

let test_stats () =
  let s = Sim.Stats.create () in
  List.iter (Sim.Stats.add s) [ 1.0; 2.0; 3.0 ];
  Alcotest.(check int) "count" 3 (Sim.Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Sim.Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Sim.Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 3.0 (Sim.Stats.max s);
  Alcotest.(check (float 1e-9)) "total" 6.0 (Sim.Stats.total s)

let test_yield_fairness () =
  (* Two threads at the same timestamp alternate via yield in spawn order. *)
  let log = Buffer.create 16 in
  let w = Sim.create () in
  Sim.spawn w ~name:"a" (fun () ->
      for _ = 1 to 3 do
        Buffer.add_char log 'a';
        Sim.yield ()
      done);
  Sim.spawn w ~name:"b" (fun () ->
      for _ = 1 to 3 do
        Buffer.add_char log 'b';
        Sim.yield ()
      done);
  Sim.run w;
  Alcotest.(check string) "alternate" "ababab" (Buffer.contents log)

let test_nested_spawn () =
  let total = ref 0 in
  let w = Sim.create () in
  Sim.spawn w ~name:"parent" (fun () ->
      Sim.advance 10;
      for i = 1 to 3 do
        Sim.spawn w ~name:(Printf.sprintf "child%d" i) (fun () ->
            Alcotest.(check int) "child starts at parent time" 10 (Sim.now ());
            total := !total + i)
      done);
  Sim.run w;
  Alcotest.(check int) "children ran" 6 !total

let qcheck_mutex_never_negative =
  QCheck.Test.make ~name:"mutex critical sections never overlap" ~count:30
    QCheck.(list_of_size (Gen.int_range 1 8) (int_range 1 50))
    (fun durations ->
      let m = Sim.Mutex.create () in
      let inside = ref 0 in
      let ok = ref true in
      let w = Sim.create () in
      List.iteri
        (fun i d ->
          Sim.spawn w ~name:(Printf.sprintf "t%d" i) (fun () ->
              Sim.Mutex.with_lock m (fun () ->
                  incr inside;
                  if !inside <> 1 then ok := false;
                  Sim.advance d;
                  decr inside)))
        durations;
      Sim.run w;
      !ok)

let qcheck_resource_total_time =
  QCheck.Test.make ~name:"resource reservations sum up" ~count:30
    QCheck.(list_of_size (Gen.int_range 1 8) (int_range 1 100))
    (fun durations ->
      let r = Sim.Resource.create () in
      let latest = ref 0 in
      let w = Sim.create () in
      List.iteri
        (fun i d ->
          Sim.spawn w ~name:(Printf.sprintf "t%d" i) (fun () ->
              Sim.Resource.use r d;
              if Sim.now () > !latest then latest := Sim.now ()))
        durations;
      Sim.run w;
      !latest = List.fold_left ( + ) 0 durations)

(* --- exactness of the advance fast path -------------------------------- *)

(* Reference model of the scheduler with no fast path: every advance pushes
   (time, fresh seq) onto the heap and pops the minimum.  It replays a
   scenario and returns the global order of (tid, step).  Thread [i < n]
   starts at [starts.(i)]; thread 0, at step [spawn_step], spawns thread [n]
   [back] ns in its past. *)
let reference_order ~starts ~scripts ~spawn_step ~back ~child =
  let n = Array.length starts in
  let scripts = Array.append scripts [| child |] in
  let queue = ref [] and seq = ref 0 in
  let push time tid step =
    queue := (time, !seq, tid, step) :: !queue;
    incr seq
  in
  Array.iteri (fun tid start -> push start tid 0) starts;
  let order = ref [] in
  let rec loop () =
    match !queue with
    | [] -> ()
    | first :: rest ->
        let ((time, _, tid, step) as top) = List.fold_left min first rest in
        queue := List.filter (fun e -> e != top) !queue;
        let script = scripts.(tid) in
        if step < List.length script then begin
          order := (tid, step) :: !order;
          if tid = 0 && step = spawn_step then push (max 0 (time - back)) n 0;
          push (time + List.nth script step) tid (step + 1)
        end;
        loop ()
  in
  loop ();
  List.rev !order

let simulated_order ~starts ~scripts ~spawn_step ~back ~child =
  let w = Sim.create () in
  let order = ref [] in
  let rec body script () =
    List.iteri
      (fun step ns ->
        let tid = Sim.self_tid () in
        order := (tid, step) :: !order;
        if tid = 0 && step = spawn_step then
          Sim.spawn w ~at:(max 0 (Sim.now () - back)) ~name:"child" (body child);
        Sim.advance ns)
      script
  in
  Array.iteri
    (fun i start ->
      Sim.spawn w ~at:start ~name:(Printf.sprintf "t%d" i) (body scripts.(i)))
    starts;
  Sim.run w;
  List.rev !order

let qcheck_advance_matches_push_pop =
  let script = QCheck.Gen.(list_size (int_range 1 6) (int_range 0 3)) in
  let gen =
    QCheck.Gen.(
      int_range 3 6 >>= fun n ->
      array_size (return n) (int_range 0 3) >>= fun starts ->
      array_size (return n) script >>= fun scripts ->
      int_range 0 5 >>= fun spawn_step ->
      int_range 0 8 >>= fun back ->
      script >|= fun child -> (starts, scripts, spawn_step, back, child))
  in
  let print (starts, scripts, spawn_step, back, child) =
    let ints l = String.concat ";" (List.map string_of_int l) in
    Printf.sprintf "starts=[%s] scripts=[%s] spawn_step=%d back=%d child=[%s]"
      (ints (Array.to_list starts))
      (String.concat " | " (List.map ints (Array.to_list scripts)))
      spawn_step back (ints child)
  in
  QCheck.Test.make ~name:"advance keeps the push-then-pop order" ~count:300
    (QCheck.make ~print gen)
    (fun (starts, scripts, spawn_step, back, child) ->
      simulated_order ~starts ~scripts ~spawn_step ~back ~child
      = reference_order ~starts ~scripts ~spawn_step ~back ~child)

let () =
  Alcotest.run "sim"
    [
      ( "scheduler",
        [
          Alcotest.test_case "run_thread" `Quick test_run_thread;
          Alcotest.test_case "advance" `Quick test_advance;
          Alcotest.test_case "outside sim" `Quick test_outside_sim;
          Alcotest.test_case "interleaving by time" `Quick test_interleaving;
          Alcotest.test_case "spawn at" `Quick test_spawn_at;
          Alcotest.test_case "sleep_until" `Quick test_sleep_until;
          Alcotest.test_case "yield fairness" `Quick test_yield_fairness;
          Alcotest.test_case "nested spawn" `Quick test_nested_spawn;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
          Alcotest.test_case "proc identity" `Quick test_proc_identity;
          Alcotest.test_case "kill-whole-process semantics" `Quick
            test_kill_process_semantics;
          Alcotest.test_case "kill-process defers past no-kill" `Quick
            test_kill_process_defers_past_no_kill;
          QCheck_alcotest.to_alcotest qcheck_advance_matches_push_pop;
        ] );
      ( "sync",
        [
          Alcotest.test_case "mutex exclusion" `Quick test_mutex_exclusion;
          Alcotest.test_case "mutex serializes time" `Quick
            test_mutex_contention_serializes_time;
          Alcotest.test_case "try_lock" `Quick test_mutex_try_lock;
          Alcotest.test_case "rwlock readers parallel" `Quick
            test_rwlock_readers_parallel;
          Alcotest.test_case "rwlock writers exclude" `Quick
            test_rwlock_writer_excludes;
          Alcotest.test_case "writer waits for readers" `Quick
            test_rwlock_writer_waits_for_readers;
          Alcotest.test_case "resource serializes" `Quick
            test_resource_serializes;
          QCheck_alcotest.to_alcotest qcheck_mutex_never_negative;
          QCheck_alcotest.to_alcotest qcheck_resource_total_time;
        ] );
      ( "rng+stats",
        [
          Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
    ]
