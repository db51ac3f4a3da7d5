(* Discrete-event simulation kernel: cooperative threads on a virtual clock.

   The scheduler keeps a min-heap of (time, seq, thunk).  A thunk resumes a
   suspended thread; the thread runs until it performs a [Suspend] effect
   (advance, lock wait, ...) or returns.  Because the runnable thread with
   the smallest timestamp always runs first, lock acquisition order and every
   other interleaving decision is a pure function of simulated time. *)

module Idtbl = Idtbl

module Proc = struct
  type t = {
    pid : int;
    mutable uid : int;
    mutable gid : int;
    mutable groups : int list;
  }

  let next_pid = ref 1

  let create ?(uid = 0) ?(gid = 0) ?(groups = []) () =
    let pid = !next_pid in
    incr next_pid;
    { pid; uid; gid; groups }

  let root = { pid = 0; uid = 0; gid = 0; groups = [] }
end

module Rng = struct
  type t = { mutable state : int64 }

  let create seed = { state = seed }

  (* splitmix64 *)
  let next t =
    let open Int64 in
    t.state <- add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let int t bound =
    if bound <= 0 then invalid_arg "Rng.int";
    let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
    v mod bound

  let float t bound =
    let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
    bound *. (v /. 9007199254740992.0)

  let bool t = Int64.logand (next t) 1L = 1L

  (* Expose the raw state so device snapshots can capture/replay the
     crash-policy stream deterministically. *)
  let get_state t = t.state
  let set_state t s = t.state <- s

  let shuffle t a =
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done
end

(* Min-heap of (time, seq, thunk); seq breaks ties FIFO.  Each entry keeps
   its slot in [arr] ([idx], -1 once out of the heap), so a pending entry
   can be taken out early ([remove]): a woken sleeper's timer. *)
module Heap = struct
  type entry = {
    time : int;
    seq : int;
    thunk : unit -> unit;
    mutable idx : int;  (* slot in [arr], or -1 *)
  }
  type t = { mutable arr : entry array; mutable len : int }

  let dummy = { time = 0; seq = 0; thunk = (fun () -> ()); idx = -1 }
  let create () = { arr = Array.make 64 dummy; len = 0 }
  let is_empty h = h.len = 0
  let top_time h = h.arr.(0).time
  let lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let set h i e =
    h.arr.(i) <- e;
    e.idx <- i

  (* Place [e] from the hole at [i], moving larger parents down into it. *)
  let sift_up h e i =
    let i = ref i in
    while !i > 0 && lt e h.arr.((!i - 1) / 2) do
      let parent = (!i - 1) / 2 in
      set h !i h.arr.(parent);
      i := parent
    done;
    set h !i e

  (* Place [e] from the hole at [i], moving smaller children up into it. *)
  let sift_down h e i =
    let i = ref i and continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 in
      if l >= h.len then continue_ := false
      else begin
        let r = l + 1 in
        let c = if r < h.len && lt h.arr.(r) h.arr.(l) then r else l in
        if lt h.arr.(c) e then begin
          set h !i h.arr.(c);
          i := c
        end
        else continue_ := false
      end
    done;
    set h !i e

  let push h e =
    if h.len = Array.length h.arr then begin
      let bigger = Array.make (2 * h.len) dummy in
      Array.blit h.arr 0 bigger 0 h.len;
      h.arr <- bigger
    end;
    h.len <- h.len + 1;
    sift_up h e (h.len - 1)

  (* Take out the entry at [i]: the last entry fills the hole, moving up
     or down from it. *)
  let remove_at h i =
    let e = h.arr.(i) in
    e.idx <- -1;
    let n = h.len - 1 in
    h.len <- n;
    let last = h.arr.(n) in
    h.arr.(n) <- dummy;
    if i < n then begin
      if i > 0 && lt last h.arr.((i - 1) / 2) then sift_up h last i
      else sift_down h last i
    end;
    e

  let pop h = remove_at h 0 (* the heap must not be empty *)
  let remove h e = if e.idx >= 0 then ignore (remove_at h e.idx)
end

type thread = {
  tid : int;
  tname : string;
  proc : Proc.t;
  mutable time : int;
  world : world;
}

and world = {
  wuid : int;  (* unique across all worlds ever created in this process *)
  mutable next_tid : int;
  mutable next_seq : int;
  mutable live : int;
  blocked : string Idtbl.t;  (* tid -> what it is parked on, no timer *)
  heap : Heap.t;
  mutable current : thread option;
  kills : (int, int) Hashtbl.t;  (* tid -> remaining advances before death *)
  nokill : int Idtbl.t;  (* tid -> no-kill nesting depth *)
  mutable killed : int;
  dead : int Idtbl.t;  (* tids that exited or were killed -> end time *)
  notices : (int, (unit -> unit) list) Hashtbl.t;  (* tid -> death notices *)
  proc_threads : (int, int list ref) Hashtbl.t;  (* pid -> tids, spawn order *)
  mutable switches : int;  (* reschedules: host context switches *)
}

exception Deadlock of string

(* ---- synchronization trace ---------------------------------------------- *)

(* Scheduler-level synchronization events, consumed by dynamic analyses
   (lib/race) that need the happens-before skeleton: thread creation and
   termination, and mutex acquire/release.  The hook is module-global (the
   sim layer cannot depend on its observers) and fires synchronously from
   the thread performing the event. *)
type sync_event =
  | S_spawn of { parent : int; child : int }
  | S_exit of { tid : int }  (* normal return *)
  | S_kill of { tid : int }  (* death via arm_kill: no unwinding happened *)
  | S_join of { tid : int; child : int }  (* [tid] saw [child] end *)
  | S_mutex_lock of { tid : int; id : int }
  | S_mutex_unlock of { tid : int; id : int }

let sync_hook : (sync_event -> unit) option ref = ref None
let set_sync_hook f = sync_hook := Some f
let clear_sync_hook () = sync_hook := None
let sync_emit ev = match !sync_hook with None -> () | Some f -> f ev

let next_wuid = ref 0

let create ?seed:_ () =
  incr next_wuid;
  {
    wuid = !next_wuid;
    next_tid = 0;
    next_seq = 0;
    live = 0;
    blocked = Idtbl.create ();
    heap = Heap.create ();
    current = None;
    kills = Hashtbl.create 8;
    nokill = Idtbl.create ();
    killed = 0;
    dead = Idtbl.create ();
    notices = Hashtbl.create 4;
    proc_threads = Hashtbl.create 8;
    switches = 0;
  }

(* The world currently executing [run]; single-domain, so a plain ref. *)
let active : world option ref = ref None

let current_thread () =
  match !active with None -> None | Some w -> w.current

let in_sim () = match current_thread () with None -> false | Some _ -> true
let now () = match current_thread () with None -> 0 | Some t -> t.time
let self_tid () = match current_thread () with None -> -1 | Some t -> t.tid

let self_proc () =
  match current_thread () with None -> Proc.root | Some t -> t.proc

let world_uid () = match !active with None -> 0 | Some w -> w.wuid

let live_threads () = match !active with None -> 1 | Some w -> max 1 w.live

type _ Effect.t +=
  | Suspend : ((unit, unit) Effect.Deep.continuation -> unit) -> unit Effect.t

let entry w time thunk =
  let seq = w.next_seq in
  w.next_seq <- seq + 1;
  { Heap.time; seq; thunk; idx = -1 }

let schedule w time thunk = Heap.push w.heap (entry w time thunk)

let suspend f = Effect.perform (Suspend f)

(* Park the current thread on a synchronization object.  [register] receives
   a [wake] function that, given a wake-up time, reschedules the thread. *)
let resume w t k =
  schedule w t.time (fun () ->
      w.current <- Some t;
      Effect.Deep.continue k ())

let park w t ~on:objname register =
  Idtbl.replace w.blocked t.tid objname;
  suspend (fun k ->
      let wake at =
        Idtbl.remove w.blocked t.tid;
        t.time <- max t.time at;
        resume w t k
      in
      register wake)

(* Reschedules, counted per world and over every world of this process:
   a deterministic count of the host context switches [advance],
   [yield] and [sleep_until_woken] could not skip. *)
let total_switches = ref 0

let count_switch w =
  w.switches <- w.switches + 1;
  incr total_switches

let reschedule w t =
  count_switch w;
  suspend (fun k -> resume w t k)

let world_switches w = w.switches
let total_switches () = !total_switches

(* ---- thread-kill injection --------------------------------------------- *)

(* An armed kill makes its target die at a later [advance] — the simulated
   equivalent of a process being SIGKILLed at an arbitrary point mid-syscall.
   Death drops the suspended continuation without unwinding: no [Fun.protect]
   finalizer, no lease release, no exception handler runs, exactly as when a
   real process vanishes.  Whatever the thread left half-done in NVM stays
   half-done; survivors must cope (lease expiry + intention-record repair).

   Kills fire only at [advance] suspension points, and never while the
   thread is inside a [with_no_kill] section — dying while holding a
   simulated kernel mutex would model a kernel panic, not a process death
   (the paper's trust model keeps KernFS alive). *)

let nokill_depth w tid =
  match Idtbl.find_opt w.nokill tid with Some d -> d | None -> 0

(* A thread's end, by return or by death: a kill still armed on it is
   dropped, and its death notices run, in the order they were armed, as
   the ending thread at its end time. *)
let thread_ended t ev =
  let w = t.world in
  w.live <- w.live - 1;
  Hashtbl.remove w.kills t.tid;
  Idtbl.replace w.dead t.tid t.time;
  sync_emit ev;
  match Hashtbl.find_opt w.notices t.tid with
  | None -> ()
  | Some fs ->
      Hashtbl.remove w.notices t.tid;
      List.iter (fun f -> f ()) (List.rev fs)

let die t =
  let w = t.world in
  w.killed <- w.killed + 1;
  thread_ended t (S_kill { tid = t.tid });
  (* Drop the continuation: the thread never resumes and nothing unwinds. *)
  suspend (fun _k -> ())

let maybe_kill t =
  let w = t.world in
  if Hashtbl.length w.kills > 0 then
    match Hashtbl.find_opt w.kills t.tid with
    | Some n when nokill_depth w t.tid = 0 ->
        if n <= 1 then die t else Hashtbl.replace w.kills t.tid (n - 1)
    | _ -> ()

let arm_kill ~tid ~after =
  match !active with
  | None -> ()
  | Some w -> Hashtbl.replace w.kills tid (max 1 after)

let disarm_kill ~tid =
  match !active with None -> () | Some w -> Hashtbl.remove w.kills tid

let killed_threads () =
  match !active with None -> 0 | Some w -> w.killed

let thread_alive tid =
  match !active with
  | None -> false
  | Some w -> tid >= 0 && tid < w.next_tid && not (Idtbl.mem w.dead tid)

(* ---- whole-process kill ------------------------------------------------- *)

(* Threads are indexed by the pid of their process at spawn time, in spawn
   order, so process-wide operations (kill, reap) iterate deterministically. *)

let proc_tids pid =
  match !active with
  | None -> []
  | Some w -> (
      match Hashtbl.find_opt w.proc_threads pid with
      | Some l -> List.rev !l
      | None -> [])

let proc_alive pid = List.exists thread_alive (proc_tids pid)

(* SIGKILL for a whole simulated process: every live thread of [pid] is armed
   to die at its very next suspension point outside a [with_no_kill] section.
   As with [arm_kill], death drops the continuation without unwinding — no
   finalizer, no lease release — and a thread inside a system call (no-kill)
   completes it first, so the kernel lock is never orphaned.  Threads parked
   on a sync object die at their first [advance] after being woken. *)
let kill_process ~pid =
  match !active with
  | None -> ()
  | Some w ->
      List.iter
        (fun tid ->
          if not (Idtbl.mem w.dead tid) then Hashtbl.replace w.kills tid 1)
        (proc_tids pid)

let with_no_kill f =
  match current_thread () with
  | None -> f ()
  | Some t ->
      let w = t.world in
      Idtbl.replace w.nokill t.tid (nokill_depth w t.tid + 1);
      let leave () =
        let d = nokill_depth w t.tid - 1 in
        if d <= 0 then Idtbl.remove w.nokill t.tid
        else Idtbl.replace w.nokill t.tid d
      in
      (match f () with
      | v ->
          leave ();
          v
      | exception e ->
          leave ();
          raise e)

(* Yield to the scheduler only when another entry could run first.
   Rescheduling pushes (t.time, fresh seq) and pops the minimum; a fresh seq
   loses every tie, so that minimum is this same thread exactly when the heap
   is empty or its top is strictly later.  Skipping the round trip then
   changes no order: seq only ranks entries against each other, and every
   later seq still exceeds every earlier one. *)
let switch_if_needed t =
  let h = t.world.heap in
  if not (Heap.is_empty h || t.time < Heap.top_time h) then reschedule t.world t

let advance ns =
  if ns < 0 then invalid_arg "Sim.advance: negative duration";
  match current_thread () with
  | None -> ()
  | Some t ->
      t.time <- t.time + ns;
      maybe_kill t;
      switch_if_needed t

let yield () =
  match current_thread () with None -> () | Some t -> switch_if_needed t

let sleep_until at =
  match current_thread () with
  | None -> ()
  | Some t -> if at > t.time then advance (at - t.time)

(* ---- sleeps a wake can cut short ---------------------------------------- *)

(* One reusable record per sleeper: [wk_k] holds the suspended continuation
   while its owner sleeps.  A sleep with a timer keeps that timer's heap
   entry in [wk_timer]; whichever of the wake and the timer comes first
   takes the continuation and, for a wake, takes the timer out of the heap,
   so nothing stale is left to run.  A sleep without a timer is parked on
   [w.blocked] instead, so a wake that never comes ends the world in a
   [Deadlock] that names the sleeper. *)
type waker = {
  wk_thread : thread option;  (* the owner; [None] outside a simulation *)
  mutable wk_k : (unit, unit) Effect.Deep.continuation option;
  mutable wk_at : int;  (* the sleep being parked: its timer, or [no_timer] *)
  mutable wk_timer : Heap.entry;  (* the pending timer, or [Heap.dummy] *)
  wk_fire : unit -> unit;  (* the timer's thunk, built once per waker *)
}

let no_timer = -1

let fire wk =
  match (wk.wk_k, wk.wk_thread) with
  | Some k, Some t ->
      wk.wk_k <- None;
      t.time <- wk.wk_timer.Heap.time;
      wk.wk_timer <- Heap.dummy;
      t.world.current <- Some t;
      Effect.Deep.continue k ()
  | _ -> ()

let waker () =
  let rec wk =
    {
      wk_thread = current_thread ();
      wk_k = None;
      wk_at = no_timer;
      wk_timer = Heap.dummy;
      wk_fire = (fun () -> fire wk);
    }
  in
  wk

let wake wk =
  match (wk.wk_k, wk.wk_thread) with
  | Some k, Some t ->
      let w = t.world in
      wk.wk_k <- None;
      if wk.wk_timer == Heap.dummy then Idtbl.remove w.blocked t.tid
      else begin
        Heap.remove w.heap wk.wk_timer;
        wk.wk_timer <- Heap.dummy
      end;
      t.time <- max t.time (now ());
      resume w t k
  | _ -> ()

(* The waker being put to sleep, handed to [park_sleeper] through a ref so
   that a sleep builds no closure of its own. *)
let parking = ref (waker ())

let park_sleeper k =
  let wk = !parking in
  wk.wk_k <- Some k;
  (* [sleep_until_woken] checked that the caller owns [wk] *)
  let t = Option.get wk.wk_thread in
  if wk.wk_at = no_timer then Idtbl.replace t.world.blocked t.tid "waker"
  else begin
    wk.wk_timer <- entry t.world wk.wk_at wk.wk_fire;
    Heap.push t.world.heap wk.wk_timer
  end

let sleep_on t wk at =
  count_switch t.world;
  wk.wk_at <- at;
  parking := wk;
  suspend park_sleeper;
  maybe_kill t

let sleep_until_woken ?until wk =
  match current_thread () with
  | None -> ()
  | Some t ->
      (match wk.wk_thread with
      | Some owner when owner == t -> ()
      | _ -> invalid_arg "Sim.sleep_until_woken: not the waker's owner");
      match until with
      | None -> sleep_on t wk no_timer
      | Some at when at > t.time ->
          let h = t.world.heap in
          (* Nothing runs before [at], so nothing can wake us before it:
             skip the round trip, as [switch_if_needed] does. *)
          if Heap.is_empty h || at < Heap.top_time h then begin
            t.time <- at;
            maybe_kill t
          end
          else sleep_on t wk at
      | Some _ -> ()

let spawn_tid w ?proc ?at ~name body =
  let proc =
    match proc with
    | Some p -> p
    | None -> ( match w.current with Some t -> t.proc | None -> Proc.root)
  in
  let start =
    match at with
    | Some a -> a
    | None -> ( match w.current with Some t -> t.time | None -> 0)
  in
  let tid = w.next_tid in
  w.next_tid <- tid + 1;
  w.live <- w.live + 1;
  (match Hashtbl.find_opt w.proc_threads proc.Proc.pid with
  | Some l -> l := tid :: !l
  | None -> Hashtbl.replace w.proc_threads proc.Proc.pid (ref [ tid ]));
  let t = { tid; tname = name; proc; time = start; world = w } in
  sync_emit
    (S_spawn
       {
         parent = (match w.current with Some p -> p.tid | None -> -1);
         child = tid;
       });
  let thunk () =
    w.current <- Some t;
    Effect.Deep.match_with body ()
      {
        retc = (fun () -> thread_ended t (S_exit { tid = t.tid }));
        exnc = (fun e -> raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Suspend f ->
                Some (f : (a, unit) Effect.Deep.continuation -> unit)
            | _ -> None);
      }
  in
  schedule w start thunk;
  tid

let spawn w ?proc ?at ~name body = ignore (spawn_tid w ?proc ?at ~name body)

let the_current () =
  match current_thread () with
  | Some t -> t
  | None -> failwith "Sim: blocking operation outside a simulated thread"

let fork ?proc ~name body = spawn_tid (the_current ()).world ?proc ~name body

let on_end tid f =
  match !active with
  | Some w when tid >= 0 && tid < w.next_tid -> (
      match Idtbl.find_opt w.dead tid with
      | Some _ -> f ()
      | None ->
          let fs = Option.value ~default:[] (Hashtbl.find_opt w.notices tid) in
          Hashtbl.replace w.notices tid (f :: fs))
  | _ -> invalid_arg "Sim.on_end: no thread of the running world"

(* A timed join sleeps on a waker of its own, so the notice a timed-out
   join leaves armed wakes nothing when [tid] ends later. *)
let join ?until tid =
  let t = the_current () in
  let w = t.world in
  if tid = t.tid || tid < 0 || tid >= w.next_tid then
    invalid_arg "Sim.join: not another thread of this world";
  (match (Idtbl.find_opt w.dead tid, until) with
  | Some ended, _ -> sleep_until ended
  | None, None ->
      park w t ~on:(Printf.sprintf "join #%d" tid) (fun wake ->
          on_end tid (fun () -> wake (now ())))
  | None, Some at ->
      if at > t.time then begin
        let wk = waker () in
        on_end tid (fun () -> wake wk);
        sleep_until_woken ~until:at wk
      end);
  if Idtbl.mem w.dead tid then sync_emit (S_join { tid = t.tid; child = tid })

let run w =
  let saved = !active in
  active := Some w;
  let restore () =
    w.current <- None;
    active := saved
  in
  let rec loop () =
    if not (Heap.is_empty w.heap) then begin
      (Heap.pop w.heap).Heap.thunk ();
      w.current <- None;
      loop ()
    end
    else if w.live > 0 then begin
      let names = ref [] in
      Idtbl.iter
        (fun tid obj -> names := Printf.sprintf "#%d on %s" tid obj :: !names)
        w.blocked;
      restore ();
      raise
        (Deadlock
           (Printf.sprintf "%d thread(s) blocked: %s" w.live
              (String.concat ", " (List.rev !names))))
    end
  in
  (try loop () with e -> restore (); raise e);
  restore ()

let run_thread ?proc f =
  let w = create () in
  let result = ref None in
  spawn w ?proc ~name:"main" (fun () -> result := Some (f ()));
  run w;
  match !result with
  | Some r -> r
  | None -> failwith "Sim.run_thread: thread did not complete"

module Mutex = struct
  type t = {
    mutable owner : int option;  (* tid *)
    waiters : (int -> unit) Queue.t;  (* wake functions *)
    name : string;
    id : int;  (* unique per mutex, for the sync trace *)
  }

  let next_id = ref 0

  let create ?(name = "mutex") () =
    let id = !next_id in
    incr next_id;
    { owner = None; waiters = Queue.create (); name; id }

  let lock m =
    match current_thread () with
    | None -> m.owner <- Some (-1)
    | Some t -> (
        match m.owner with
        | None ->
            m.owner <- Some t.tid;
            sync_emit (S_mutex_lock { tid = t.tid; id = m.id })
        | Some _ ->
            park t.world t ~on:m.name (fun wake -> Queue.push wake m.waiters);
            (* We are woken holding the lock (handoff). *)
            m.owner <- Some t.tid;
            sync_emit (S_mutex_lock { tid = t.tid; id = m.id }))

  let try_lock m =
    match m.owner with
    | None ->
        m.owner <- Some (self_tid ());
        (match current_thread () with
        | Some t -> sync_emit (S_mutex_lock { tid = t.tid; id = m.id })
        | None -> ());
        true
    | Some _ -> false

  let unlock m =
    if m.owner = None then invalid_arg "Mutex.unlock: not locked";
    (match current_thread () with
    | Some t -> sync_emit (S_mutex_unlock { tid = t.tid; id = m.id })
    | None -> ());
    m.owner <- None;
    if not (Queue.is_empty m.waiters) then begin
      let wake = Queue.pop m.waiters in
      (* Handoff: successor may not run before the current virtual time. *)
      m.owner <- Some (-2) (* reserved for the woken thread *);
      wake (now ())
    end

  let with_lock m f =
    lock m;
    match f () with
    | v ->
        unlock m;
        v
    | exception e ->
        unlock m;
        raise e
end

module Rwlock = struct
  type waiter = { write : bool; wake : int -> unit }

  type t = {
    mutable readers : int;
    mutable writer : bool;
    waiters : waiter Queue.t;
    name : string;
  }

  let create ?(name = "rwlock") () =
    { readers = 0; writer = false; waiters = Queue.create (); name }

  let rdlock l =
    match current_thread () with
    | None -> l.readers <- l.readers + 1
    | Some t ->
        if l.writer || not (Queue.is_empty l.waiters) then
          park t.world t ~on:l.name (fun wake ->
              Queue.push { write = false; wake } l.waiters)
        else l.readers <- l.readers + 1

  let wrlock l =
    match current_thread () with
    | None -> l.writer <- true
    | Some t ->
        if l.writer || l.readers > 0 then
          park t.world t ~on:l.name (fun wake ->
              Queue.push { write = true; wake } l.waiters)
        else l.writer <- true

  (* Grant as many waiters as compatible, FIFO. *)
  let rec drain l at =
    match Queue.peek_opt l.waiters with
    | None -> ()
    | Some w ->
        if w.write then begin
          if l.readers = 0 && not l.writer then begin
            ignore (Queue.pop l.waiters);
            l.writer <- true;
            w.wake at
          end
        end
        else if not l.writer then begin
          ignore (Queue.pop l.waiters);
          l.readers <- l.readers + 1;
          w.wake at;
          drain l at
        end

  let unlock l =
    if l.writer then l.writer <- false
    else if l.readers > 0 then l.readers <- l.readers - 1
    else invalid_arg "Rwlock.unlock: not locked";
    drain l (now ())

  let with_rd l f =
    rdlock l;
    match f () with
    | v ->
        unlock l;
        v
    | exception e ->
        unlock l;
        raise e

  let with_wr l f =
    wrlock l;
    match f () with
    | v ->
        unlock l;
        v
    | exception e ->
        unlock l;
        raise e
end

(* [free_at] is a time on the clock of world [wuid], the last world that
   used the resource: another world's booking ends with that world, so a
   world that finds a foreign stamp starts with the resource free. *)
module Resource = struct
  type t = { mutable free_at : int; mutable wuid : int; name : string }

  let create ?(name = "resource") () = { free_at = 0; wuid = 0; name }

  let use r ns =
    match current_thread () with
    | None -> ()
    | Some t ->
        if r.wuid <> t.world.wuid then begin
          r.wuid <- t.world.wuid;
          r.free_at <- 0
        end;
        let start = max t.time r.free_at in
        let finish = start + ns in
        r.free_at <- finish;
        advance (finish - t.time)
end

module Stats = struct
  type t = {
    mutable n : int;
    mutable sum : float;
    mutable minv : float;
    mutable maxv : float;
  }

  let create () = { n = 0; sum = 0.; minv = infinity; maxv = neg_infinity }

  let add t v =
    t.n <- t.n + 1;
    t.sum <- t.sum +. v;
    if v < t.minv then t.minv <- v;
    if v > t.maxv then t.maxv <- v

  let count t = t.n
  let mean t = if t.n = 0 then 0. else t.sum /. float_of_int t.n
  let min t = if t.n = 0 then 0. else t.minv
  let max t = if t.n = 0 then 0. else t.maxv
  let total t = t.sum
end
