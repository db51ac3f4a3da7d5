(* Tests for the discrete-event simulation kernel. *)

(* A thread body: [n] advances of [ns] each. *)
let steps n ns () =
  for _ = 1 to n do
    Sim.advance ns
  done

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
            (steps 1000 10))
    in
    victim_tids := tid :: !victim_tids
  done;
  Sim.spawn w ~name:"driver" (fun () ->
      Sim.advance 100;
      Sim.kill_process ~pid:victim.Sim.Proc.pid;
      let until = Sim.now () + 5_000 in
      List.iter (Sim.join ~until) (Sim.proc_tids victim.Sim.Proc.pid);
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
          steps 20 10 ();
          section_done := true);
      Sim.advance 10;
      after_section := true);
  Sim.spawn w ~name:"driver" (fun () ->
      Sim.advance 5;
      Sim.kill_process ~pid:victim.Sim.Proc.pid;
      let until = Sim.now () + 5_000 in
      List.iter (Sim.join ~until) (Sim.proc_tids victim.Sim.Proc.pid));
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

(* Join parks until the child ends and resumes at the child's end time,
   never earlier, with no switch counted (recovery's joins have no
   deadline); joining an ended thread returns at once, and a killed child
   ends a join as a returning one does. *)
let test_fork_join () =
  let log = ref [] in
  let note what = log := (what, Sim.now ()) :: !log in
  let proc = Sim.Proc.create () in
  Sim.run_thread (fun () ->
      Sim.advance 10;
      let child =
        Sim.fork ~proc ~name:"child" (fun () ->
            note "child starts";
            Alcotest.(check int) "child's process" proc.Sim.Proc.pid
              (Sim.self_proc ()).Sim.Proc.pid;
            Sim.advance 500;
            note "child ends")
      in
      Sim.advance 100;
      let s0 = Sim.total_switches () in
      Sim.join child;
      Alcotest.(check int) "no switch" s0 (Sim.total_switches ());
      note "joined";
      Sim.join child;
      note "joined again";
      let victim =
        Sim.fork ~name:"victim" (fun () ->
            steps 10 100 ();
            note "victim ends")
      in
      Sim.arm_kill ~tid:victim ~after:3;
      Sim.join victim;
      note "joined victim");
  Alcotest.(check (list (pair string int)))
    "order and times"
    [
      ("child starts", 10);
      ("child ends", 510);
      ("joined", 510);
      ("joined again", 510);
      ("joined victim", 810);
    ]
    (List.rev !log)

(* The join is a happens-before edge for lib/race: the child's NVM write,
   read by the parent after the join, is ordered; the same read after
   merely waiting past the child's end is a race. *)
let test_join_orders_child_writes () =
  let races ~join =
    Race.reset_report ();
    let dev =
      Nvm.Device.create ~perf:Nvm.Perf.free ~size:(4 * Nvm.page_size) ()
    in
    ignore (Race.attach ~mode:Race.Log dev);
    Fun.protect ~finally:Race.detach (fun () ->
        Sim.run_thread (fun () ->
            let child =
              Sim.fork ~name:"writer" (fun () ->
                  Nvm.Device.write_u64 dev 64 7;
                  Sim.advance 100)
            in
            if join then Sim.join child else Sim.advance 1000;
            ignore (Nvm.Device.read_u64 dev 64)));
    List.length (Race.report ()).Race.r_races
  in
  Alcotest.(check int) "after join" 0 (races ~join:true);
  Alcotest.(check int) "without join" 1 (races ~join:false)

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

(* ---- sleeps a wake can cut short ---------------------------------------- *)

let test_wake_before_timer () =
  let w = Sim.create () in
  let wk = ref None and woke_at = ref (-1) in
  Sim.spawn w ~name:"sleeper" (fun () ->
      let k = Sim.waker () in
      wk := Some k;
      Sim.sleep_until_woken ~until:1_000 k;
      woke_at := Sim.now ());
  Sim.spawn w ~name:"waker" (fun () ->
      Sim.advance 300;
      Option.iter Sim.wake !wk);
  Sim.run w;
  Alcotest.(check int) "resumed at the waker's time" 300 !woke_at

(* The timer alone ends a sleep at [t]; a wake that finds its target not
   sleeping, a second wake, and a woken sleep's old timer all do nothing. *)
let test_timer_and_stale_wakes () =
  let w = Sim.create () in
  let wk = ref None and times = ref [] in
  let mark () = times := Sim.now () :: !times in
  Sim.spawn w ~name:"sleeper" (fun () ->
      let k = Sim.waker () in
      wk := Some k;
      Sim.sleep_until_woken ~until:1_000 k (* no wake: the timer ends it *);
      mark ();
      Sim.advance 500 (* the wake at 1,200 lands here: no effect *);
      mark ();
      Sim.sleep_until_woken ~until:3_000 k (* woken twice at 2,000 *);
      mark ();
      Sim.sleep_until_woken ~until:4_000 k (* must not end at the old 3,000 *);
      mark ());
  Sim.spawn w ~name:"waker" (fun () ->
      let wake () = Option.iter Sim.wake !wk in
      Sim.advance 1_200;
      wake ();
      Sim.advance 800;
      wake ();
      wake ());
  Sim.run w;
  Alcotest.(check (list int))
    "resume times" [ 1_000; 1_500; 2_000; 4_000 ] (List.rev !times)

let test_kill_fires_on_wakeup () =
  let w = Sim.create () in
  let after = ref 0 and wk2 = ref None in
  let sleeper name set =
    Sim.spawn_tid w ~name (fun () ->
        let k = Sim.waker () in
        set k;
        Sim.sleep_until_woken ~until:1_000 k;
        incr after)
  in
  let s1 = sleeper "by-timer" ignore in
  let s2 = sleeper "by-wake" (fun k -> wk2 := Some k) in
  Sim.spawn w ~name:"driver" (fun () ->
      Sim.advance 200;
      Sim.arm_kill ~tid:s1 ~after:1;
      Sim.arm_kill ~tid:s2 ~after:1;
      Sim.advance 100;
      Option.iter Sim.wake !wk2;
      Sim.join s2;
      Alcotest.(check int) "woken sleeper died at the wake" 300 (Sim.now ());
      Sim.join s1;
      Alcotest.(check int) "timed sleeper died at its timer" 1_000 (Sim.now ());
      Alcotest.(check bool) "both dead" false
        (Sim.thread_alive s1 || Sim.thread_alive s2));
  Sim.run w;
  Alcotest.(check int) "neither ran past its sleep" 0 !after

let test_sleep_not_later_returns () =
  let w = Sim.create () in
  let ok = ref false in
  Sim.spawn w ~name:"sleeper" (fun () ->
      let k = Sim.waker () in
      Sim.advance 100;
      let s0 = Sim.world_switches w in
      Sim.sleep_until_woken ~until:100 k;
      Sim.sleep_until_woken ~until:50 k;
      Alcotest.(check int) "time unchanged" 100 (Sim.now ());
      Alcotest.(check int) "no switch" s0 (Sim.world_switches w);
      (* alone in the world, nothing can wake it early: no switch either *)
      Sim.sleep_until_woken ~until:1_000 k;
      Alcotest.(check int) "slept to the timer" 1_000 (Sim.now ());
      Alcotest.(check int) "still no switch" s0 (Sim.world_switches w);
      ok := true;
      let other = Sim.fork ~name:"intruder" (fun () ->
          Alcotest.check_raises "only the owner sleeps on a waker"
            (Invalid_argument "Sim.sleep_until_woken: not the waker's owner")
            (fun () -> Sim.sleep_until_woken ~until:5_000 k))
      in
      Sim.join other);
  Sim.run w;
  Alcotest.(check bool) "sleeper finished" true !ok

(* A wake takes its sleep's timer out of the heap: the sleeper woken at 300
   then advances past the old 1,000 timer with nothing left to switch to. *)
let test_wake_removes_timer () =
  let w = Sim.create () in
  let wk = ref None and result = ref None in
  Sim.spawn w ~name:"sleeper" (fun () ->
      let k = Sim.waker () in
      wk := Some k;
      Sim.sleep_until_woken ~until:1_000 k;
      let s0 = Sim.world_switches w in
      Sim.advance 2_000;
      result := Some (Sim.now (), Sim.world_switches w - s0));
  Sim.spawn w ~name:"waker" (fun () ->
      Sim.advance 300;
      Option.iter Sim.wake !wk);
  Sim.run w;
  Alcotest.(check (option (pair int int)))
    "past the old timer, no switch" (Some (2_300, 0)) !result

(* Without a timer only a wake ends the sleep; a wake that never comes is
   a deadlock, and the message names the sleeper. *)
let test_timerless_sleep () =
  let w = Sim.create () in
  let wk = ref None and woke_at = ref (-1) in
  Sim.spawn w ~name:"sleeper" (fun () ->
      let k = Sim.waker () in
      wk := Some k;
      Sim.sleep_until_woken k;
      woke_at := Sim.now ());
  Sim.spawn w ~name:"waker" (fun () ->
      Sim.advance 700;
      Option.iter Sim.wake !wk);
  Sim.run w;
  Alcotest.(check int) "ended by the wake" 700 !woke_at;
  let w = Sim.create () in
  Sim.spawn w ~name:"forgotten" (fun () ->
      Sim.sleep_until_woken (Sim.waker ()));
  Sim.spawn w ~name:"other" (fun () -> Sim.advance 1_000);
  Alcotest.check_raises "a lost wake deadlocks"
    (Sim.Deadlock "1 thread(s) blocked: #0 on waker") (fun () ->
      Sim.run w)

(* A death notice runs once, as the ending thread at its end time, on
   return and on kill alike; armed on a thread already ended, it runs at
   once as the caller. *)
let test_on_end () =
  let w = Sim.create () in
  let log = ref [] in
  let note what () = log := (what, Sim.self_tid (), Sim.now ()) :: !log in
  let returns = Sim.spawn_tid w ~name:"returns" (fun () -> Sim.advance 500) in
  let killed =
    Sim.spawn_tid w ~name:"killed" (steps 100 100)
  in
  let watcher =
    Sim.spawn_tid w ~name:"watcher" (fun () ->
        Sim.on_end returns (note "returned");
        Sim.on_end killed (note "killed");
        Sim.advance 250;
        Sim.arm_kill ~tid:killed ~after:1;
        Sim.advance 1_000;
        Sim.on_end returns (note "already ended"))
  in
  Sim.run w;
  Alcotest.(check (list (triple string int int)))
    "notices"
    [
      ("killed", killed, 400);
      ("returned", returns, 500);
      ("already ended", watcher, 1_250);
    ]
    (List.rev !log);
  Alcotest.check_raises "outside a running world"
    (Invalid_argument "Sim.on_end: no thread of the running world") (fun () ->
      Sim.on_end 0 ignore)

(* Timed joins.  A victim killed at 1,234 ns: the join resumes at that
   instant, with the join edge.  One absolute deadline over four tids, two
   of them ended by then: those return at once, the third at its end, the
   last at the deadline, alive and with no edge.  Killing that one later
   runs the notice its join left, which must not end the next join. *)
let test_timed_join () =
  let w = Sim.create () in
  let killed = Sim.spawn_tid w ~name:"killed" (steps 100 617) in
  let tids =
    List.map
      (fun (n, ns) -> Sim.spawn_tid w ~name:"t" (steps n ns))
      [ (1, 200); (1, 700); (1, 5_000); (90, 100) ]
  in
  let last = List.nth tids 3 in
  let long = Sim.spawn_tid w ~name:"long" (steps 1 50_000) in
  let seen = ref [] and edges = ref [] in
  let mark tid = seen := (Sim.now (), Sim.thread_alive tid) :: !seen in
  Sim.spawn w ~name:"joiner" (fun () ->
      Sim.arm_kill ~tid:killed ~after:1 (* its advance from 617 *);
      Sim.join ~until:20_000_000 killed;
      mark killed;
      List.iter
        (fun tid ->
          Sim.join ~until:6_000 tid;
          mark tid)
        tids;
      Sim.arm_kill ~tid:last ~after:1 (* dies at 6,100 *);
      Sim.join ~until:8_000 long;
      mark long;
      mark last);
  Sim.set_sync_hook (function
    | Sim.S_join { child; _ } -> edges := child :: !edges
    | _ -> ());
  Fun.protect ~finally:Sim.clear_sync_hook (fun () -> Sim.run w);
  Alcotest.(check (list (pair int bool)))
    "resume times, alive"
    [ (1_234, false); (1_234, false); (1_234, false); (5_000, false);
      (6_000, true); (8_000, true); (8_000, false) ]
    (List.rev !seen);
  Alcotest.(check (list int))
    "edges for the ended" (killed :: List.filteri (fun i _ -> i < 3) tids)
    (List.rev !edges)

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
          Alcotest.test_case "fork and join" `Quick test_fork_join;
          Alcotest.test_case "join orders the child's writes" `Quick
            test_join_orders_child_writes;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
          Alcotest.test_case "proc identity" `Quick test_proc_identity;
          Alcotest.test_case "kill-whole-process semantics" `Quick
            test_kill_process_semantics;
          Alcotest.test_case "kill-process defers past no-kill" `Quick
            test_kill_process_defers_past_no_kill;
          Alcotest.test_case "a wake cuts a sleep short" `Quick
            test_wake_before_timer;
          Alcotest.test_case "timer ends a sleep; stale wakes do nothing" `Quick
            test_timer_and_stale_wakes;
          Alcotest.test_case "a kill armed in a sleep fires on wakeup" `Quick
            test_kill_fires_on_wakeup;
          Alcotest.test_case "a wake takes its timer out" `Quick
            test_wake_removes_timer;
          Alcotest.test_case "a timer-less sleep ends only by a wake" `Quick
            test_timerless_sleep;
          Alcotest.test_case "death notices" `Quick test_on_end;
          Alcotest.test_case "a timed join: at the death or at until" `Quick
            test_timed_join;
          Alcotest.test_case "a sleep to the past returns at once" `Quick
            test_sleep_not_later_returns;
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
