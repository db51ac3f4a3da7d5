(* Runtime robustness: media-error injection, thread-kill injection,
   lease-steal repair of intention records, and the chaos campaign itself
   (smoke run + quarantine-disabled negative self-check). *)

open Testkit
module D = Nvm.Device
module K = Treasury.Kernfs
module V = Treasury.Vfs
module E = Treasury.Errno

(* ---- media-error injection ---------------------------------------------- *)

let test_poison_scrub_on_write () =
  let dev = D.create ~perf:Nvm.Perf.free ~size:(4 * Nvm.page_size) () in
  D.write_u64 dev 512 0xABCD;
  D.inject_poison dev 512;
  (match D.read_u64 dev 512 with
  | _ -> Alcotest.fail "poisoned load did not fault"
  | exception Nvm.Fault { kind = Nvm.Media; _ } -> ());
  Alcotest.(check int) "media fault counted" 1 (D.stat_media_faults dev);
  (* an ordinary store scrubs non-sticky poison *)
  D.write_u64 dev 512 7;
  Alcotest.(check bool) "store scrubbed the line" false (D.is_poisoned dev 512);
  Alcotest.(check int) "line readable again" 7 (D.read_u64 dev 512)

let test_poison_sticky () =
  let dev = D.create ~perf:Nvm.Perf.free ~size:(4 * Nvm.page_size) () in
  D.inject_poison ~sticky:true dev 1024;
  D.write_u64 dev 1024 1;
  Alcotest.(check bool) "sticky survives a store" true (D.is_poisoned dev 1024);
  (match D.read_u64 dev 1024 with
  | _ -> Alcotest.fail "sticky poisoned load did not fault"
  | exception Nvm.Fault { kind = Nvm.Media; _ } -> ());
  D.clear_poison dev 1024;
  Alcotest.(check bool) "clear_poison heals sticky" false
    (D.is_poisoned dev 1024);
  Alcotest.(check int) "no poisoned lines left" 0 (D.poisoned_lines dev)

(* ---- thread-kill injection ---------------------------------------------- *)

let test_kill_fires () =
  let w = Sim.create () in
  let finished = ref false and killed = ref (-1) in
  let tid =
    Sim.spawn_tid w ~name:"victim" (fun () ->
        for _ = 1 to 100 do
          Sim.advance 10
        done;
        finished := true)
  in
  Sim.spawn w ~name:"killer" (fun () -> Sim.arm_kill ~tid ~after:5);
  Sim.spawn w ~at:100_000 ~name:"observer" (fun () ->
      killed := Sim.killed_threads ());
  Sim.run w;
  Alcotest.(check bool) "victim did not finish" false !finished;
  Alcotest.(check int) "one thread killed" 1 !killed

let test_no_kill_defers () =
  let w = Sim.create () in
  let region_done = ref false and after_region = ref false in
  let killed = ref (-1) in
  let tid =
    Sim.spawn_tid w ~name:"victim" (fun () ->
        Sim.with_no_kill (fun () ->
            for _ = 1 to 20 do
              Sim.advance 10
            done;
            region_done := true);
        for _ = 1 to 20 do
          Sim.advance 10
        done;
        after_region := true)
  in
  Sim.spawn w ~name:"killer" (fun () -> Sim.arm_kill ~tid ~after:5);
  Sim.spawn w ~at:100_000 ~name:"observer" (fun () ->
      killed := Sim.killed_threads ());
  Sim.run w;
  Alcotest.(check bool) "protected region ran to completion" true !region_done;
  Alcotest.(check bool) "death landed after the region" false !after_region;
  Alcotest.(check int) "one thread killed" 1 !killed

(* ---- lease steal: stale holder cannot clobber --------------------------- *)

let test_stale_release_cannot_clobber () =
  obs_on ();
  let snap0 = Obs.Snapshot.take () in
  let dev = D.create ~perf:Nvm.Perf.free ~size:Nvm.page_size () in
  let addr = 512 in
  let w = Sim.create () in
  let a_acquired = ref false and b_stole = ref false in
  let b_code = ref 0 in
  Sim.spawn w ~name:"holder" (fun () ->
      Zofs.Lease.acquire ~duration:1_000 dev addr;
      a_acquired := true;
      while not !b_stole do
        Sim.advance 50
      done;
      (* the stale holder's release must see the steal, not zero the word *)
      Zofs.Lease.release dev addr);
  Sim.spawn w ~name:"stealer" (fun () ->
      while not !a_acquired do
        Sim.advance 50
      done;
      Sim.advance 2_000 (* let the holder's 1 µs lease expire *);
      Zofs.Lease.acquire ~duration:1_000_000 dev addr;
      b_code := Sim.self_tid () + 2;
      b_stole := true);
  Sim.run w;
  let word = D.read_u64 dev addr in
  Alcotest.(check bool) "stolen lease survived the stale release" true
    (word <> 0 && word land 0xFFFF = !b_code);
  Alcotest.(check bool) "steal counted" true
    (counter_delta snap0 "lease.steals" >= 1);
  Alcotest.(check bool) "stale holder detected the steal" true
    (counter_delta snap0 "lease.stolen_detected" >= 1)

(* ---- lease-holder death in a live µFS ----------------------------------- *)

(* A FSLibs instance for the CALLING process (fs_mount registers the pid of
   the sim thread that runs this): cross-process tests give every simulated
   process its own dispatcher + FD table this way. *)
let mk_fslib kfs =
  let disp = Workloads.Fslab.zofs_dispatcher kfs in
  Treasury.Dispatcher.set_repair disp (fun cid ->
      Zofs.Recovery.recover_one kfs cid);
  Treasury.Dispatcher.as_vfs disp

(* ZoFS + FSLib built inside the calling sim thread (the dispatcher's repair
   hook wired like the chaos campaign does). *)
let mk_zofs () =
  let dev, kfs =
    Workloads.Fslab.make_zofs ~root_mode:0o777 ~nbuckets:256 ~pages:1024
      ~perf:Nvm.Perf.optane ()
  in
  (dev, kfs, mk_fslib kfs)

(* Join every thread of process [pid] under one deadline. *)
let join_proc ~until pid = List.iter (Sim.join ~until) (Sim.proc_tids pid)

(* Run [op] in a fresh process A with its own FSLib; once A is ready, let
   it run [steps] x 75 ns, kill the whole process and join it.  A dead A
   is reaped, then [reaped landed ok] runs: [landed] tells whether the kill
   landed before A's op finished, [ok] whether the reap succeeded. *)
let kill_process_attempt w kfs ~name ~steps fails op ~reaped =
  let proc_a = Sim.Proc.create ~uid:0 ~gid:0 () in
  let pid = proc_a.Sim.Proc.pid in
  let ready = ref false in
  ignore
    (Sim.spawn_tid w ~proc:proc_a ~name (fun () ->
         let fs_a = mk_fslib kfs in
         ready := true;
         try match op fs_a with Ok () | Error _ -> ()
         with e -> fails ("exception escaped in A: " ^ Printexc.to_string e)));
  let budget = ref 100_000 in
  while (not !ready) && !budget > 0 do
    decr budget;
    Sim.advance 100
  done;
  if not !ready then fails "process A never became ready";
  for _ = 1 to steps do
    Sim.advance 75
  done;
  let k0 = Sim.killed_threads () in
  Sim.kill_process ~pid;
  join_proc ~until:(Sim.now () + 10_000_000) pid;
  if Sim.proc_alive pid then fails "process A still alive after kill budget"
  else
    let landed = Sim.killed_threads () > k0 in
    match K.reap_process kfs ~pid with
    | Ok () -> reaped landed true
    | Error e ->
        fails ("reap: " ^ E.to_string e);
        reaped landed false

let orig = String.make 120 'o'
let vblock = String.make 80 'V'
let dblock = String.make 40 'D'

(* Content must be [orig] followed by whole victim/driver blocks: a torn
   tail (partial block visible) means a dead holder's half-done append
   leaked past the size rollback. *)
let untorn s =
  let n = String.length s in
  n >= 120
  && String.sub s 0 120 = orig
  &&
  let rec go i =
    if i = n then true
    else if i + 80 <= n && String.sub s i 80 = vblock then go (i + 80)
    else if i + 40 <= n && String.sub s i 40 = dblock then go (i + 40)
    else false
  in
  go 120

let test_kill_mid_append_steal_repairs () =
  obs_on ();
  let snap0 = Obs.Snapshot.take () in
  let w = Sim.create () in
  let proc = Sim.Proc.create ~uid:0 ~gid:0 () in
  let failures = ref [] in
  let fails m = failures := m :: !failures in
  let kills = ref 0 and stole = ref false in
  Sim.spawn w ~proc ~name:"driver" (fun () ->
      let _dev, _kfs, fs = mk_zofs () in
      (match V.write_file fs "/f" orig with
      | Ok () -> ()
      | Error e -> fails ("setup: " ^ E.to_string e));
      (* Kill appenders at ever-later points, sweeping through the whole
         mutation, until a death lands inside the size-intention window (the
         follow-up append then steals the lease and repairs the record). *)
      let repaired () =
        counter_delta snap0 "lease.steals_repaired" >= 1
        || counter_delta snap0 "intent.repairs" >= 1
      in
      let attempt = ref 0 in
      while (not (repaired ())) && !attempt < 200 && !failures = [] do
        incr attempt;
        if
          kill_one_attempt w proc ~after:(1 + !attempt) fails (fun () ->
              V.append_file fs "/f" vblock)
        then begin
          incr kills;
          (* the next op on the inode steals the dead holder's lease and
             rolls any pending size intention back *)
          (match V.append_file fs "/f" dblock with
          | Ok () -> ()
          | Error e -> fails ("follow-up append: " ^ E.to_string e));
          if counter_delta snap0 "lease.steals" >= 1 then stole := true
        end
      done;
      match V.read_file fs "/f" with
      | Ok d ->
          if not (untorn d) then
            fails
              (Printf.sprintf "torn content (%d bytes) after %d kills"
                 (String.length d) !kills)
      | Error e -> fails ("final read: " ^ E.to_string e));
  Sim.run w;
  (match !failures with [] -> () | m :: _ -> Alcotest.fail m);
  Alcotest.(check bool) "at least one kill landed" true (!kills >= 1);
  Alcotest.(check bool) "a lease steal was observed" true !stole;
  Alcotest.(check bool) "size intention rolled back at least once" true
    (counter_delta snap0 "lease.steals_repaired" >= 1
    || counter_delta snap0 "intent.repairs" >= 1)

(* A death anywhere in a shrinking truncate: whatever residue it leaves
   (pending Trunc intention, half-walked block pointers), a redo must
   converge on the target state and offline fsck must reach a clean
   fixpoint. *)
let test_kill_mid_truncate_converges () =
  obs_on ();
  let w = Sim.create () in
  let proc = Sim.Proc.create ~uid:0 ~gid:0 () in
  let failures = ref [] in
  let fails m = failures := m :: !failures in
  let kills = ref 0 in
  let fixpoint = ref true in
  Sim.spawn w ~proc ~name:"driver" (fun () ->
      let _dev, kfs, fs = mk_zofs () in
      let big = String.init 9000 (fun i -> Char.chr (97 + (i mod 26))) in
      (match V.write_file fs "/g" big with
      | Ok () -> ()
      | Error e -> fails ("setup: " ^ E.to_string e));
      (* ftruncate records a packed Trunc intention before touching layout
         (file.ml): a death mid-shrink must surface as a graceful error or a
         consistent state, never an exception or torn metadata. *)
      let attempt = ref 0 in
      while !kills = 0 && !attempt < 80 && !failures = [] do
        incr attempt;
        if
          kill_one_attempt w proc ~after:(2 + (4 * !attempt)) fails (fun () ->
              V.truncate fs "/g" 100)
        then incr kills
      done;
      (* later callers: graceful errno or success, and a redo converges *)
      (match V.truncate fs "/g" 100 with
      | Ok () | Error _ -> ());
      (match V.read_file fs "/g" with
      | Ok d ->
          if String.length d <> 100 || String.sub d 0 100 <> String.sub big 0 100
          then fails "truncate redo did not converge"
      | Error e -> fails ("final read: " ^ E.to_string e));
      (* offline fsck must reach a clean fixpoint over the residue *)
      ignore (Zofs.Recovery.recover_all kfs);
      let rep2 = Zofs.Recovery.recover_all kfs in
      fixpoint := Zofs.Recovery.findings rep2 = []);
  Sim.run w;
  (match !failures with [] -> () | m :: _ -> Alcotest.fail m);
  Alcotest.(check bool) "at least one kill landed" true (!kills >= 1);
  Alcotest.(check bool) "fsck fixpoint clean after kill residue" true !fixpoint

(* Sweep kills through ever-later points of a shrinking truncate until one
   lands inside the Trunc-intention window (intention recorded, not yet
   cleared).  The next lease taker must then steal the dead holder's lease
   and roll the truncate FORWARD (intent.ml): the observable state is the
   post-truncate one, never a torn in-between. *)
let test_kill_mid_ftruncate_steal_rolls_forward () =
  obs_on ();
  let snap0 = Obs.Snapshot.take () in
  let w = Sim.create () in
  let proc = Sim.Proc.create ~uid:0 ~gid:0 () in
  let failures = ref [] in
  let fails m = failures := m :: !failures in
  let kills = ref 0 in
  Sim.spawn w ~proc ~name:"driver" (fun () ->
      let _dev, _kfs, fs = mk_zofs () in
      let big = String.init 9000 (fun i -> Char.chr (97 + (i mod 26))) in
      let repaired () = counter_delta snap0 "intent.repairs" >= 1 in
      let attempt = ref 0 in
      while (not (repaired ())) && !attempt < 250 && !failures = [] do
        incr attempt;
        (* Reset to the full file each round; when the previous round's
           victim died holding the lease, this write is the "next op" that
           steals it and repairs the pending intention. *)
        (match V.write_file fs "/t" big with
        | Ok () -> ()
        | Error e -> fails ("reset write: " ^ E.to_string e));
        if
          kill_one_attempt w proc ~after:(2 + (2 * !attempt)) fails (fun () ->
              V.truncate fs "/t" 2000)
        then incr kills
      done;
      (* converge and verify the roll-forward left no torn middle state *)
      (match V.truncate fs "/t" 2000 with Ok () | Error _ -> ());
      match V.read_file fs "/t" with
      | Ok d ->
          if String.length d <> 2000 || d <> String.sub big 0 2000 then
            fails
              (Printf.sprintf "content torn after %d kills (%d bytes)" !kills
                 (String.length d))
      | Error e -> fails ("final read: " ^ E.to_string e));
  Sim.run w;
  (match !failures with [] -> () | m :: _ -> Alcotest.fail m);
  Alcotest.(check bool) "at least one kill landed" true (!kills >= 1);
  Alcotest.(check bool) "a lease steal was observed" true
    (counter_delta snap0 "lease.steals" >= 1);
  Alcotest.(check bool) "the Trunc intention was rolled forward" true
    (counter_delta snap0 "intent.repairs" >= 1)

(* ---- cross-process whole-process kills ---------------------------------- *)

(* Process A (its own pid, its own FSLib) dies as a unit — every thread
   killed at its next suspension point by [Sim.kill_process] — while
   appending.  Process B reaps the dead pid, and B's next append on the same
   file steals the dead holder's lease and rolls the pending size intention
   back: the file never shows a torn tail, even though repairer and victim
   never shared a process. *)
let test_cross_process_kill_mid_append_steal_repairs () =
  obs_on ();
  let snap0 = Obs.Snapshot.take () in
  let w = Sim.create () in
  let proc_b = Sim.Proc.create ~uid:0 ~gid:0 () in
  let failures = ref [] in
  let fails m = failures := m :: !failures in
  let kills = ref 0 and reaps = ref 0 in
  Sim.spawn w ~proc:proc_b ~name:"process-B" (fun () ->
      let _dev, kfs, fs = mk_zofs () in
      (match V.write_file fs "/f" orig with
      | Ok () -> ()
      | Error e -> fails ("setup: " ^ E.to_string e));
      let repaired () =
        counter_delta snap0 "lease.steals_repaired" >= 1
        || counter_delta snap0 "intent.repairs" >= 1
      in
      let attempt = ref 0 in
      while (not (repaired ())) && !attempt < 200 && !failures = [] do
        incr attempt;
        kill_process_attempt w kfs ~name:"A-appender" ~steps:!attempt fails
          (fun fs_a -> V.append_file fs_a "/f" vblock)
          ~reaped:(fun landed ok ->
            if landed then incr kills;
            if ok then incr reaps;
            (* B's op on the shared file is the cross-process stealer *)
            match V.append_file fs "/f" dblock with
            | Ok () -> ()
            | Error e -> fails ("B append: " ^ E.to_string e))
      done;
      match V.read_file fs "/f" with
      | Ok d ->
          if not (untorn d) then
            fails
              (Printf.sprintf "torn content (%d bytes) after %d process kills"
                 (String.length d) !kills)
      | Error e -> fails ("final read: " ^ E.to_string e));
  Sim.run w;
  (match !failures with [] -> () | m :: _ -> Alcotest.fail m);
  Alcotest.(check bool) "at least one whole-process kill landed" true
    (!kills >= 1);
  Alcotest.(check bool) "every dead pid was reaped" true (!reaps >= !kills);
  Alcotest.(check bool) "a dead-holder steal crossed processes" true
    (counter_delta snap0 "lease.steals_dead_holder" >= 1);
  Alcotest.(check bool) "size intention rolled back at least once" true
    (counter_delta snap0 "lease.steals_repaired" >= 1
    || counter_delta snap0 "intent.repairs" >= 1)

(* Same shape for ftruncate: the Trunc intention of a whole dead PROCESS
   must be rolled FORWARD by another process — the observable state is the
   post-truncate one, never a torn in-between. *)
let test_cross_process_kill_mid_ftruncate_rolls_forward () =
  obs_on ();
  let snap0 = Obs.Snapshot.take () in
  let w = Sim.create () in
  let proc_b = Sim.Proc.create ~uid:0 ~gid:0 () in
  let failures = ref [] in
  let fails m = failures := m :: !failures in
  let kills = ref 0 in
  Sim.spawn w ~proc:proc_b ~name:"process-B" (fun () ->
      let _dev, kfs, fs = mk_zofs () in
      let big = String.init 9000 (fun i -> Char.chr (97 + (i mod 26))) in
      let repaired () = counter_delta snap0 "intent.repairs" >= 1 in
      let attempt = ref 0 in
      while (not (repaired ())) && !attempt < 200 && !failures = [] do
        incr attempt;
        (* B's reset write doubles as the stealer of the previous round's
           dead-process lease *)
        (match V.write_file fs "/t" big with
        | Ok () -> ()
        | Error e -> fails ("reset write: " ^ E.to_string e));
        kill_process_attempt w kfs ~name:"A-truncator" ~steps:!attempt fails
          (fun fs_a -> V.truncate fs_a "/t" 2000)
          ~reaped:(fun landed _ -> if landed then incr kills)
      done;
      (match V.truncate fs "/t" 2000 with Ok () | Error _ -> ());
      match V.read_file fs "/t" with
      | Ok d ->
          if String.length d <> 2000 || d <> String.sub big 0 2000 then
            fails
              (Printf.sprintf "content torn after %d process kills (%d bytes)"
                 !kills (String.length d))
      | Error e -> fails ("final read: " ^ E.to_string e));
  Sim.run w;
  (match !failures with [] -> () | m :: _ -> Alcotest.fail m);
  Alcotest.(check bool) "at least one whole-process kill landed" true
    (!kills >= 1);
  Alcotest.(check bool) "the Trunc intention was rolled forward" true
    (counter_delta snap0 "intent.repairs" >= 1)

(* Acceptance (ISSUE 9): every thread of a lease-holding process is killed
   while >= 4 other processes hammer the same coffer; the hammers steal the
   dead pid's lease, the dead pid is reaped, no write is ever torn, and the
   offline fsck over the residue is a clean fixpoint. *)
let test_whole_process_kill_under_hammer () =
  obs_on ();
  let snap0 = Obs.Snapshot.take () in
  let w = Sim.create () in
  let proc_d = Sim.Proc.create ~uid:0 ~gid:0 () in
  let failures = ref [] in
  let fails m = failures := m :: !failures in
  let stop = ref false in
  let hammer_ops = ref 0 in
  let proc_killed = ref false and reaped = ref false in
  let fixpoint = ref false in
  Sim.spawn w ~proc:proc_d ~name:"driver" (fun () ->
      let _dev, kfs, fs = mk_zofs () in
      (match V.write_file fs "/f" orig with
      | Ok () -> ()
      | Error e -> fails ("setup: " ^ E.to_string e));
      (* >= 4 hammer processes, each with its own FSLib, same coffer *)
      let hammer_tids =
        List.init 4 (fun i ->
            let hproc = Sim.Proc.create ~uid:0 ~gid:0 () in
            Sim.spawn_tid w ~proc:hproc
              ~name:(Printf.sprintf "hammer-%d" i)
              (fun () ->
                let hfs = mk_fslib kfs in
                while not !stop do
                  (match V.append_file hfs "/f" dblock with
                  | Ok () -> incr hammer_ops
                  | Error e -> fails ("hammer append: " ^ E.to_string e)
                  | exception e ->
                      fails ("hammer raised: " ^ Printexc.to_string e));
                  (* think time: keeps the lease mostly free so the victims
                     actually HOLD it (not just spin on it) when killed *)
                  Sim.advance 4_000
                done))
      in
      (* fresh victim processes (two appender threads each) until a kill
         lands while the pid holds the file lease, proven by a hammer
         stealing from a holder whose threads are all dead *)
      let attempt = ref 0 in
      while
        counter_delta snap0 "lease.steals_dead_holder" < 1
        && !attempt < 120 && !failures = []
      do
        incr attempt;
        let vproc = Sim.Proc.create ~uid:0 ~gid:0 () in
        let pid = vproc.Sim.Proc.pid in
        let spawn_appender () =
          ignore
            (Sim.spawn_tid w ~proc:vproc ~name:"victim-appender" (fun () ->
                 let vfs = mk_fslib kfs in
                 try
                   while true do
                     (match V.append_file vfs "/f" vblock with
                     | Ok () | Error _ -> ());
                     Sim.advance 200
                   done
                 with e ->
                   fails ("exception escaped in victim: " ^ Printexc.to_string e)))
        in
        spawn_appender ();
        spawn_appender ();
        Sim.advance (2_000 + (137 * !attempt));
        Sim.kill_process ~pid;
        join_proc ~until:(Sim.now () + 20_000_000) pid;
        if Sim.proc_alive pid then fails "victim process did not die"
        else begin
          proc_killed := true;
          match K.reap_process kfs ~pid with
          | Ok () -> reaped := true
          | Error e -> fails ("reap: " ^ E.to_string e)
        end
      done;
      stop := true;
      List.iter
        (fun tid ->
          Sim.join ~until:(Sim.now () + 20_000_000) tid;
          if Sim.thread_alive tid then fails "hammer thread failed to stop")
        hammer_tids;
      (match V.append_file fs "/f" dblock with
      | Ok () -> ()
      | Error e -> fails ("driver append: " ^ E.to_string e));
      (match V.read_file fs "/f" with
      | Ok d ->
          if not (untorn d) then
            fails
              (Printf.sprintf "torn content under multi-process hammer (%d \
                               bytes)"
                 (String.length d))
      | Error e -> fails ("final read: " ^ E.to_string e));
      ignore (Zofs.Recovery.recover_all kfs);
      let rep2 = Zofs.Recovery.recover_all kfs in
      fixpoint := Zofs.Recovery.findings rep2 = []);
  Sim.run w;
  (match !failures with [] -> () | m :: _ -> Alcotest.fail m);
  Alcotest.(check bool) "victim process was killed as a unit" true !proc_killed;
  Alcotest.(check bool) "the dead pid was reaped" true !reaped;
  Alcotest.(check bool) "a dead-holder steal crossed processes" true
    (counter_delta snap0 "lease.steals_dead_holder" >= 1);
  Alcotest.(check bool) "hammer processes made progress" true (!hammer_ops > 0);
  Alcotest.(check bool) "fsck fixpoint clean over the residue" true !fixpoint

(* ---- the campaign itself ------------------------------------------------ *)

let test_campaign_smoke () =
  let r = Chaos.run ~seed:42L ~pages:8192 ~min_faults:60 ~max_rounds:200 () in
  (match r.Chaos.c_violations with
  | [] -> ()
  | v :: _ -> Alcotest.fail ("containment violation: " ^ v));
  Alcotest.(check bool) "fault floor reached" true
    (r.Chaos.c_faults_tripped >= 60);
  Alcotest.(check bool) "all four kinds tripped" true
    (r.Chaos.c_media_faults > 0
    && r.Chaos.c_kills_fired > 0
    && r.Chaos.c_transients_tripped > 0
    && r.Chaos.c_scribbles_blocked > 0);
  Alcotest.(check bool) "whole-process kills fired and were reaped" true
    (r.Chaos.c_proc_kills > 0 && r.Chaos.c_procs_reaped >= r.Chaos.c_proc_kills);
  (* the campaign's fault counters must surface on the human-readable
     robustness line (zofs_stat / zofs_shell stats) *)
  let rendered = Obs.Snapshot.render (Obs.Snapshot.take ()) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "robustness line rendered" true
    (contains rendered "robustness: media-faults")

let test_campaign_negative_selfcheck () =
  Alcotest.(check bool) "quarantine-disabled campaign is flagged" true
    (Chaos.negative_selfcheck ())

(* Acceptance (ISSUE 8): a campaign with injected media faults auto-produces
   a flight-recorder dump that names the quarantined coffer, carries its
   health-transition history, and holds the connected parent/child span
   trace of the faulting op. *)
let test_campaign_flight_dump () =
  let dir = Filename.temp_file "zofs-chaos-flight" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> Sys.remove (Filename.concat dir n))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let r =
        Chaos.run ~seed:42L ~pages:8192 ~min_faults:60 ~max_rounds:200
          ~flight_dir:dir ()
      in
      Alcotest.(check bool) "media faults tripped" true
        (r.Chaos.c_media_faults > 0);
      Alcotest.(check bool) "a coffer left Healthy" true
        (r.Chaos.c_quarantined > 0 || r.Chaos.c_offline > 0);
      let path =
        match r.Chaos.c_flight_dumps with
        | p :: _ -> p
        | [] -> Alcotest.fail "campaign produced no flight-recorder dump"
      in
      let j =
        match
          Obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all)
        with
        | Ok j -> j
        | Error e -> Alcotest.failf "dump unparsable: %s" e
      in
      let coffer =
        match Obs.Json.member "coffer" j with
        | Some (Obs.Json.Num c) when c >= 0. -> int_of_float c
        | _ -> Alcotest.fail "dump does not name the triggering coffer"
      in
      (* the named coffer's health history is in the dump and ends in the
         non-Healthy state that triggered it *)
      (match Obs.Json.member "health_history" j with
      | Some (Obs.Json.Obj entries) -> (
          match List.assoc_opt (string_of_int coffer) entries with
          | Some (Obs.Json.Arr (_ :: _ as hist)) ->
              let last = List.nth hist (List.length hist - 1) in
              (match Obs.Json.member "to" last with
              | Some (Obs.Json.Str s) ->
                  Alcotest.(check bool) "last transition leaves Healthy" true
                    (String.lowercase_ascii s <> "healthy")
              | _ -> Alcotest.fail "transition without destination state")
          | _ -> Alcotest.fail "no history for the named coffer")
      | _ -> Alcotest.fail "dump lacks health_history");
      (match Obs.Json.member "events" j with
      | Some (Obs.Json.Arr (_ :: _)) -> ()
      | _ -> Alcotest.fail "dump lacks flight events");
      (* the faulting op's span trace is present and parent/child-connected:
         at least one span links to another span in the same dump *)
      match Obs.Json.member "op_trace" j with
      | Some t -> (
          match Obs.Json.member "traceEvents" t with
          | Some (Obs.Json.Arr (_ :: _ as evs)) ->
              let arg k ev =
                match Obs.Json.member "args" ev with
                | Some args -> (
                    match Obs.Json.member k args with
                    | Some (Obs.Json.Num v) -> int_of_float v
                    | _ -> 0)
                | None -> 0
              in
              let ids = List.map (arg "span") evs in
              Alcotest.(check bool) "parent/child links connected" true
                (List.exists
                   (fun ev ->
                     let p = arg "parent" ev in
                     p <> 0 && List.mem p ids)
                   evs)
          | _ -> Alcotest.fail "op_trace has no spans")
      | None -> Alcotest.fail "dump lacks op_trace")

let () =
  Alcotest.run "chaos"
    [
      ( "poison",
        [
          Alcotest.test_case "scrub on write" `Quick test_poison_scrub_on_write;
          Alcotest.test_case "sticky + clear" `Quick test_poison_sticky;
        ] );
      ( "kill",
        [
          Alcotest.test_case "armed kill fires" `Quick test_kill_fires;
          Alcotest.test_case "no-kill region defers" `Quick test_no_kill_defers;
        ] );
      ( "lease",
        [
          Alcotest.test_case "stale release cannot clobber a stolen lease"
            `Quick test_stale_release_cannot_clobber;
          Alcotest.test_case "kill mid-append: steal + size rollback" `Quick
            test_kill_mid_append_steal_repairs;
          Alcotest.test_case "kill mid-truncate: redo converges + fsck"
            `Quick test_kill_mid_truncate_converges;
          Alcotest.test_case "kill mid-ftruncate: steal + roll-forward"
            `Quick test_kill_mid_ftruncate_steal_rolls_forward;
        ] );
      ( "process",
        [
          Alcotest.test_case "whole-process kill mid-append: cross-process \
                              steal + rollback"
            `Quick test_cross_process_kill_mid_append_steal_repairs;
          Alcotest.test_case "whole-process kill mid-ftruncate: cross-process \
                              roll-forward"
            `Quick test_cross_process_kill_mid_ftruncate_rolls_forward;
          Alcotest.test_case "whole-process kill under 4-process hammer"
            `Quick test_whole_process_kill_under_hammer;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "smoke run, no violations" `Slow
            test_campaign_smoke;
          Alcotest.test_case "negative self-check" `Slow
            test_campaign_negative_selfcheck;
          Alcotest.test_case "flight-recorder dump on quarantine" `Slow
            test_campaign_flight_dump;
        ] );
    ]
