(** Deterministic discrete-event simulation kernel.

    Everything in this reproduction that is timing-sensitive — NVM access
    latency, syscall costs, lock contention, lease expiry — runs on a virtual
    clock inside a {!world}.  Logical threads are cooperative (implemented
    with OCaml effects); the scheduler always resumes the thread with the
    smallest virtual timestamp, so executions are deterministic and
    interleavings are decided by simulated time, not by the host machine. *)

(** A simulated process: the unit of isolation for permissions and coffer
    mappings.  Threads belong to a process. *)
module Proc : sig
  type t = private {
    pid : int;
    mutable uid : int;
    mutable gid : int;
    mutable groups : int list;  (** supplementary groups *)
  }

  val create : ?uid:int -> ?gid:int -> ?groups:int list -> unit -> t

  val root : t
  (** The pre-existing root process (pid 0, uid 0), used by code that runs
      outside any simulation. *)
end

type world

val create : ?seed:int64 -> unit -> world
(** A fresh world.  [seed] is ignored: a world draws no random numbers
    (randomness comes from explicit {!Rng}s); it is accepted only for
    callers that still pass one. *)

val spawn : world -> ?proc:Proc.t -> ?at:int -> name:string -> (unit -> unit) -> unit
(** [spawn w ~name f] registers a new logical thread.  [at] is the virtual
    time at which it becomes runnable (default 0, or the current time when
    called from inside a running thread). *)

val spawn_tid :
  world -> ?proc:Proc.t -> ?at:int -> name:string -> (unit -> unit) -> int
(** Like {!spawn} but returns the new thread's id, so fault injectors can
    target it (see {!arm_kill}). *)

val fork : ?proc:Proc.t -> name:string -> (unit -> unit) -> int
(** [fork ~name f] spawns a thread into the running world, runnable at the
    caller's current time, in the caller's process unless [proc] is given;
    returns its id for {!join}.  Fails outside a simulated thread. *)

val on_end : int -> (unit -> unit) -> unit
(** [on_end tid f] arms a death notice: [f] runs once, when thread [tid]
    returns or is killed, as that ending thread and at its end time
    (notices on one thread run in the order they were armed).  If [tid]
    has already ended, [f] runs at once, as the caller.  [f] must not
    suspend: no {!advance}, lock or sleep.  [Invalid_argument] outside a
    running world or for a [tid] that is no thread of it. *)

val join : ?until:int -> int -> unit
(** [join tid] blocks until thread [tid] has returned or been killed and
    resumes at that thread's end time (an {!on_end} notice), or at once
    if that time has passed.  With [until], an absolute virtual time, it
    resumes at [until] (or now, if later) when [tid] is still alive then;
    {!thread_alive} tells the two apart, and a timed-out join's notice
    later wakes nothing.  A timed join that suspends counts a switch, as
    {!sleep_until_woken}.  Emits [S_join], the happens-before edge from
    everything [tid] did to what the caller does next, only if [tid]
    ended.  [Invalid_argument] when [tid] is the caller or no thread of
    this world. *)

exception Deadlock of string
(** Raised by {!run} if threads remain blocked with no runnable thread. *)

val run : world -> unit
(** Run the simulation until all threads have finished. *)

val run_thread : ?proc:Proc.t -> (unit -> 'a) -> 'a
(** Convenience: create a world, run [f] in a single thread, return its
    result. *)

val world_switches : world -> int
(** Reschedules so far in [world]: the {!advance}/{!yield} calls that did
    switch context because another thread could run first, and the
    {!sleep_until_woken} calls that did suspend.  Deterministic,
    so it measures the scheduling grain where host time cannot. *)

val total_switches : unit -> int
(** {!world_switches} summed over every world of this process. *)

(** {1 Inside a thread} *)

val in_sim : unit -> bool
(** [true] iff the caller is executing inside a simulated thread. *)

val now : unit -> int
(** Current thread's virtual time in nanoseconds (0 outside a sim). *)

val self_tid : unit -> int
(** Current thread id; [-1] outside a sim. *)

val self_proc : unit -> Proc.t
(** The current thread's process, or {!Proc.root} outside a sim. *)

val world_uid : unit -> int
(** A process-unique id of the active world (0 outside a sim).  Module-global
    per-thread state keyed by [(world_uid, self_tid)] can never leak between
    two worlds that happen to reuse the same thread ids — e.g. a deadline
    left behind by a killed thread (which never unwinds) must not apply to
    an unrelated thread of the next simulation. *)

val advance : int -> unit
(** Charge [ns] nanoseconds of virtual time to the current thread and yield
    to the scheduler.  No-op outside a simulation.  The host context switch
    is skipped when no other thread could run first (none is runnable at or
    before the new time); the schedule is the same either way. *)

val yield : unit -> unit
(** Yield without advancing time (other threads at the same timestamp may
    run). *)

val sleep_until : int -> unit
(** Advance the current thread to the given absolute virtual time (no-op if
    already past it). *)

type waker
(** A reusable wake record owned by one thread, for a sleep that another
    thread can cut short. *)

val waker : unit -> waker
(** A fresh waker owned by the calling thread (inert outside a
    simulation: sleeping on it is a no-op). *)

val sleep_until_woken : ?until:int -> waker -> unit
(** [sleep_until_woken ~until:t wk] suspends the owner of [wk] until
    virtual time [t] or until another thread calls [wake wk], whichever
    comes first.  Returns at once if [t] is not later than now.  When
    nothing else can run before [t], nothing can wake the sleeper either,
    and the host context switch is skipped as in {!advance}.  Without
    [until] the sleep has no timer: only a wake ends it, and a world whose
    other threads all end first raises {!Deadlock} naming the sleeper as
    blocked ["on waker"].  On
    resuming it runs the same kill check as {!advance}, so an armed kill
    fires here.  [Invalid_argument] if the caller does not own [wk]. *)

val wake : waker -> unit
(** [wake wk] resumes [wk]'s owner, if it sleeps in {!sleep_until_woken},
    at the caller's current time, and takes that sleep's timer out of the
    scheduler's heap.  A no-op when the owner is not sleeping: a second
    wake, or one after the timer fired, does nothing. *)

(** {1 Thread-kill injection}

    Fault injection for chaos testing: an armed kill makes its target thread
    die at a later {!advance} suspension point — the simulated equivalent of
    a process being SIGKILLed mid-syscall.  Death drops the thread's
    continuation {e without unwinding}: no finalizer, no exception handler,
    no lock release runs, exactly as when a real process vanishes.  Survivors
    must cope through crash-safe on-media protocols (lease expiry, intention
    records). *)

val arm_kill : tid:int -> after:int -> unit
(** [arm_kill ~tid ~after] arms the active world so thread [tid] dies at its
    [after]-th subsequent {!advance} (clamped to at least 1).  Re-arming
    replaces the countdown; no-op outside a running world. *)

val disarm_kill : tid:int -> unit

val killed_threads : unit -> int
(** Threads killed so far in the active world (0 outside a sim). *)

val thread_alive : int -> bool
(** [thread_alive tid] is [true] iff [tid] was spawned in the active world
    and has neither returned nor been killed.  [false] outside a running
    world.  Used by dynamic analyses: a dead thread's whole history is safe
    to order before the observer (it will never act again). *)

val with_no_kill : (unit -> 'a) -> 'a
(** Run [f] with kill delivery deferred for the current thread: an armed
    kill neither fires nor counts down inside.  Used around simulated-kernel
    critical sections — a thread dying while holding the KernFS mutex would
    model a kernel panic, not a process death. *)

(** {1 Whole-process kill}

    The multi-process analogue of {!arm_kill}: SIGKILL delivered to a whole
    simulated process.  Every thread of the pid dies at its next suspension
    point, with the same no-unwinding semantics — survivors in other
    processes must recover through the on-media protocols, and a surviving
    thread must reap the kernel-side state (see [Kernfs.reap_process]). *)

val kill_process : pid:int -> unit
(** Arm every live thread of [pid] in the active world to die at its next
    {!advance} outside a {!with_no_kill} section (a thread inside a system
    call completes it first; one parked on a sync object dies at its first
    [advance] after waking).  No-op outside a running world. *)

val proc_alive : int -> bool
(** [proc_alive pid] is [true] iff at least one thread spawned under [pid]
    in the active world is still alive. *)

val proc_tids : int -> int list
(** All tids ever spawned under [pid] in the active world (dead or alive),
    in spawn order.  Used by kernel-side reaping to drop per-thread
    protection state. *)

(** {1 Dense per-id tables} *)

module Idtbl = Idtbl

(** {1 Synchronization trace}

    Scheduler-level events consumed by dynamic analyses (lib/race) that need
    the happens-before skeleton.  The hook is module-global — the sim layer
    cannot depend on its observers — and fires synchronously from the thread
    performing the event (for [S_spawn], from the {e parent}'s context). *)

type sync_event =
  | S_spawn of { parent : int; child : int }
      (** [parent] is [-1] when spawned from outside any simulated thread. *)
  | S_exit of { tid : int }  (** normal thread return *)
  | S_kill of { tid : int }
      (** death via {!arm_kill}: the thread vanished without unwinding *)
  | S_join of { tid : int; child : int }
      (** {!join}: [tid] resumes after [child] ended *)
  | S_mutex_lock of { tid : int; id : int }
  | S_mutex_unlock of { tid : int; id : int }

val set_sync_hook : (sync_event -> unit) -> unit
val clear_sync_hook : unit -> unit

(** {1 Synchronization} *)

module Mutex : sig
  type t

  val create : ?name:string -> unit -> t
  val lock : t -> unit
  val try_lock : t -> bool
  val unlock : t -> unit
  val with_lock : t -> (unit -> 'a) -> 'a
end

module Rwlock : sig
  type t

  val create : ?name:string -> unit -> t
  val unlock : t -> unit
  val with_rd : t -> (unit -> 'a) -> 'a
  val with_wr : t -> (unit -> 'a) -> 'a
end

(** A serially-reusable resource (e.g. a memory channel's bandwidth): callers
    reserve it for a duration and are advanced past the end of their slot. *)
module Resource : sig
  type t

  val create : ?name:string -> unit -> t

  val use : t -> int -> unit
  (** [use r ns] reserves the resource for [ns] nanoseconds starting at the
      earliest instant it is free, and advances the calling thread to the end
      of the reservation.  A booking belongs to the world that made it: the
      first use from another world finds the resource free.  No-op outside a
      simulation. *)
end

(** {1 Deterministic pseudo-random numbers (splitmix64)} *)
module Rng : sig
  type t

  val create : int64 -> t
  val next : t -> int64
  val int : t -> int -> int
  (** [int t bound] uniform in [0, bound). *)

  val float : t -> float -> float
  val bool : t -> bool
  val shuffle : t -> 'a array -> unit

  val get_state : t -> int64
  (** Raw splitmix64 state, for snapshot/replay of a PRNG stream. *)

  val set_state : t -> int64 -> unit
end

val live_threads : unit -> int
(** Number of live threads in the active world (1 outside a sim); used by
    cost models that scale with concurrency. *)

(** {1 Statistics helpers used by the benchmark harnesses} *)
module Stats : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val min : t -> float
  val max : t -> float
  val total : t -> float
end
