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

(* Min-heap of (time, seq, thunk); seq breaks ties FIFO. *)
module Heap = struct
  type entry = { time : int; seq : int; thunk : unit -> unit }
  type t = { mutable arr : entry array; mutable len : int }

  let dummy = { time = 0; seq = 0; thunk = (fun () -> ()) }
  let create () = { arr = Array.make 64 dummy; len = 0 }
  let is_empty h = h.len = 0
  let top_time h = h.arr.(0).time
  let lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let push h e =
    if h.len = Array.length h.arr then begin
      let bigger = Array.make (2 * h.len) dummy in
      Array.blit h.arr 0 bigger 0 h.len;
      h.arr <- bigger
    end;
    let i = ref h.len in
    h.len <- h.len + 1;
    h.arr.(!i) <- e;
    let continue_up = ref true in
    while !continue_up && !i > 0 do
      let parent = (!i - 1) / 2 in
      if lt h.arr.(!i) h.arr.(parent) then begin
        let tmp = h.arr.(parent) in
        h.arr.(parent) <- h.arr.(!i);
        h.arr.(!i) <- tmp;
        i := parent
      end
      else continue_up := false
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.arr.(0) in
      h.len <- h.len - 1;
      h.arr.(0) <- h.arr.(h.len);
      h.arr.(h.len) <- dummy;
      let i = ref 0 in
      let continue_down = ref true in
      while !continue_down do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.len && lt h.arr.(l) h.arr.(!smallest) then smallest := l;
        if r < h.len && lt h.arr.(r) h.arr.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = h.arr.(!smallest) in
          h.arr.(!smallest) <- h.arr.(!i);
          h.arr.(!i) <- tmp;
          i := !smallest
        end
        else continue_down := false
      done;
      Some top
    end
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
  mutable blocked : (int * string) list;  (* threads parked on sync objects *)
  heap : Heap.t;
  mutable current : thread option;
  rng0 : Rng.t;
  kills : (int, int) Hashtbl.t;  (* tid -> remaining advances before death *)
  nokill : int Idtbl.t;  (* tid -> no-kill nesting depth *)
  mutable killed : int;
  dead : unit Idtbl.t;  (* tids that exited or were killed *)
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
  | S_mutex_lock of { tid : int; id : int }
  | S_mutex_unlock of { tid : int; id : int }

let sync_hook : (sync_event -> unit) option ref = ref None
let set_sync_hook f = sync_hook := Some f
let clear_sync_hook () = sync_hook := None
let sync_emit ev = match !sync_hook with None -> () | Some f -> f ev

let next_wuid = ref 0

let create ?(seed = 42L) () =
  incr next_wuid;
  {
    wuid = !next_wuid;
    next_tid = 0;
    next_seq = 0;
    live = 0;
    blocked = [];
    heap = Heap.create ();
    current = None;
    rng0 = Rng.create seed;
    kills = Hashtbl.create 8;
    nokill = Idtbl.create ();
    killed = 0;
    dead = Idtbl.create ();
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

let fallback_rng = Rng.create 0x5EEDL
let rng () = match !active with None -> fallback_rng | Some w -> w.rng0
let live_threads () = match !active with None -> 1 | Some w -> max 1 w.live

type _ Effect.t +=
  | Suspend : ((unit, unit) Effect.Deep.continuation -> unit) -> unit Effect.t

let schedule w time thunk =
  let seq = w.next_seq in
  w.next_seq <- seq + 1;
  Heap.push w.heap { Heap.time; seq; thunk }

let suspend f = Effect.perform (Suspend f)

(* Park the current thread on a synchronization object.  [register] receives
   a [wake] function that, given a wake-up time, reschedules the thread. *)
let resume w t k =
  schedule w t.time (fun () ->
      w.current <- Some t;
      Effect.Deep.continue k ())

let park w t ~on:objname register =
  w.blocked <- (t.tid, objname) :: w.blocked;
  suspend (fun k ->
      let wake at =
        w.blocked <- List.filter (fun (tid, _) -> tid <> t.tid) w.blocked;
        t.time <- max t.time at;
        resume w t k
      in
      register wake)

(* Reschedules, counted per world and over every world of this process:
   a deterministic count of the host context switches [advance] and
   [yield] could not skip. *)
let total_switches = ref 0

let reschedule w t =
  w.switches <- w.switches + 1;
  incr total_switches;
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

let die t =
  let w = t.world in
  w.live <- w.live - 1;
  w.killed <- w.killed + 1;
  Hashtbl.remove w.kills t.tid;
  Idtbl.replace w.dead t.tid ();
  sync_emit (S_kill { tid = t.tid });
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
        retc =
          (fun () ->
            w.live <- w.live - 1;
            Idtbl.replace w.dead t.tid ();
            sync_emit (S_exit { tid = t.tid }));
        exnc = (fun e -> raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Suspend f ->
                Some (fun (k : (a, unit) Effect.Deep.continuation) -> f k)
            | _ -> None);
      }
  in
  schedule w start thunk;
  tid

let spawn w ?proc ?at ~name body = ignore (spawn_tid w ?proc ?at ~name body)

let run w =
  let saved = !active in
  active := Some w;
  let restore () =
    w.current <- None;
    active := saved
  in
  let rec loop () =
    match Heap.pop w.heap with
    | Some { Heap.thunk; _ } ->
        thunk ();
        w.current <- None;
        loop ()
    | None ->
        if w.live > 0 then begin
          let names =
            List.map (fun (tid, obj) -> Printf.sprintf "#%d on %s" tid obj)
              w.blocked
          in
          restore ();
          raise
            (Deadlock
               (Printf.sprintf "%d thread(s) blocked: %s" w.live
                  (String.concat ", " names)))
        end
  in
  (try loop () with e -> restore (); raise e);
  restore ()

let run_thread ?seed ?proc f =
  let w = create ?seed () in
  let result = ref None in
  spawn w ?proc ~name:"main" (fun () -> result := Some (f ()));
  run w;
  match !result with
  | Some r -> r
  | None -> failwith "Sim.run_thread: thread did not complete"

let the_current () =
  match current_thread () with
  | Some t -> t
  | None -> failwith "Sim: blocking operation outside a simulated thread"

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

  let id m = m.id

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

  let locked m = m.owner <> None
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

module Resource = struct
  type t = { mutable free_at : int; name : string }

  let create ?(name = "resource") () = { free_at = 0; name }

  let use r ns =
    match current_thread () with
    | None -> ()
    | Some t ->
        let start = max t.time r.free_at in
        let finish = start + ns in
        r.free_at <- finish;
        advance (finish - t.time)

  let _ = ignore the_current
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
