(** Simulated byte-addressable non-volatile memory.

    The device keeps two views of every page: the {e volatile} view (what CPU
    loads see, i.e. caches + media) and the {e persistent} view (what
    survives a crash).  Stores only reach the persistent view through the
    cache-line write-back protocol: [store; clwb; sfence] or a non-temporal
    store followed by [sfence].  {!Device.crash} discards the volatile view —
    with each pending (unflushed) line independently and pseudo-randomly
    either written back or lost, exactly the non-determinism that makes
    update ordering matter on real NVM.

    Every access is charged simulated time according to a {!Perf} cost model
    (calibrated to the paper's Table 1 for Optane DC PM and DDR4 DRAM), and
    is passed to a protection hook so the MPK layer can enforce region
    permissions. *)

val page_size : int
(** 4096 bytes. *)

val line_size : int
(** 64 bytes (one cache line). *)

(** Cost model. *)
module Perf : sig
  type t = {
    label : string;
    read_latency : int;  (** ns charged on a line-cache miss *)
    write_latency : int;  (** ns charged when a line is written back *)
    read_bandwidth : float;  (** bytes/ns (= GB/s) *)
    write_bandwidth : float;  (** bytes/ns *)
    hit_cost : int;  (** ns for a cache hit / store into cache *)
    fence_cost : int;  (** ns for sfence *)
    write_bw_scale : int -> float;
        (** concurrency-dependent scaling of write bandwidth; Optane DC PM
            loses write bandwidth beyond ~12 concurrent writers (paper §6.1,
            Fig. 7(e)) *)
  }

  val optane : t
  (** Table 1: 305 ns read, 39 GB/s read bw, 94 ns write, 14 GB/s write bw. *)

  val dram : t
  (** Table 1: 81/86 ns, 115/79 GB/s; no degradation. *)

  val free : t
  (** Zero-cost model for functional unit tests. *)
end

(** What kind of hardware event a {!Fault} models: [Protection] is an access
    violation (raised by the MPK layer's protection hook), [Media] an
    uncorrectable NVM media error on a poisoned line (raised by the device
    itself on a load).  Handlers contain both the same way — graceful error
    return — but only [Media] makes the underlying data suspect and feeds
    the coffer health machinery. *)
type fault_kind = Protection | Media

(** Raised on an access violation (the simulated equivalent of a SIGSEGV
    delivered on an MPK or page-permission fault) or on a load from a
    poisoned line (the simulated machine check of an uncorrectable media
    error); see {!fault_kind}. *)
exception
  Fault of { addr : int; write : bool; kind : fault_kind; reason : string }

(** Trace-subscriber registry, shared by {!Device} and the MPK layer.
    Events go to anonymous subscribers first, in subscription order, then to
    named slots in {e name} order — deterministic regardless of install
    order, so co-installed checkers see identical event streams. *)
module Subscribers : sig
  type 'ev t

  val create : unit -> 'ev t

  val active : 'ev t -> bool
  (** Whether anyone listens; callers test this before building an event,
      so an untraced access neither reads the clock nor allocates. *)

  val add : 'ev t -> ('ev -> unit) -> int
  (** Register an anonymous subscriber; returns an id for {!remove}. *)

  val remove : 'ev t -> int -> unit
  (** Unregister; unknown ids are ignored. *)

  val subscribe_named : 'ev t -> name:string -> ('ev -> unit) -> unit
  (** One slot per name: subscribing again under the same name replaces the
      previous callback. *)

  val unsubscribe_named : 'ev t -> name:string -> unit
  (** Drop a named slot; unknown names are ignored. *)

  val emit : 'ev t -> 'ev -> unit
end

module Device : sig
  type t

  val create : ?perf:Perf.t -> ?seed:int64 -> size:int -> unit -> t
  (** [create ~size ()] makes a device of [size] bytes ([size] must be
      page-aligned).  Pages are allocated lazily, so large address spaces are
      cheap until touched.  A device outlives simulated worlds, but its cost
      state does not: each world starts with cold per-thread line caches and
      idle bandwidth channels, whatever an earlier world left booked. *)

  val size : t -> int
  val pages : t -> int
  val perf : t -> Perf.t

  val set_protection_hook : t -> (addr:int -> write:bool -> unit) -> unit
  (** Installed by the MPK layer; called before the bounds check, once per
      page an access touches, with the address of the access's first byte
      in that page.  May raise {!Fault}. *)

  val clear_protection_hook : t -> unit

  (** Trace events observed by analysis tooling (the checkers of
      [lib/check], the metrics of [lib/obs]).  An event fires after each
      access/persistence operation completes, so a checker can mirror the
      device's dirty → flushing → durable line state without access to the
      implementation.  [ns] is the simulated time charged to the operation,
      including any bandwidth-channel wait; it is measured only while at
      least one subscriber is attached (and is 0 outside a simulation). *)
  type trace_event =
    | T_store of { addr : int; len : int; ns : int }  (** cached store *)
    | T_nt_store of { addr : int; len : int; ns : int }
        (** non-temporal store *)
    | T_load of { addr : int; len : int; ns : int }
    | T_cas of { addr : int; len : int; ns : int }
        (** successful lock-cmpxchg: a store that is also an
            acquire/release synchronization point (lease words, allocator
            slot-owner words); a failed CAS emits nothing *)
    | T_clwb of { addr : int; ns : int }
    | T_fence of { nflushing : int; ns : int }
        (** lines persisted by this fence *)
    | T_media_fault of { addr : int; write : bool }
        (** a load touched a poisoned line; fires just before the [Media]
            {!Fault} is raised *)
    | T_reset  (** all pending lines resolved (crash / persist_all) *)

  val add_trace_subscriber : t -> (trace_event -> unit) -> int
  (** {!Subscribers.add} on the device's registry. *)

  val remove_trace_subscriber : t -> int -> unit

  val subscribe_named : t -> name:string -> (trace_event -> unit) -> unit
  (** Named slot for the analysis layers (lib/check uses ["check"], lib/race
      uses ["race"]); see {!Subscribers.subscribe_named}. *)

  val unsubscribe_named : t -> name:string -> unit

  (** {2 Loads and stores (volatile view)}

      Scalars are little-endian and must not cross a page boundary. *)

  val read_u8 : t -> int -> int
  val read_u16 : t -> int -> int
  val read_u32 : t -> int -> int
  val read_u64 : t -> int -> int
  val write_u8 : t -> int -> int -> unit
  val write_u16 : t -> int -> int -> unit
  val write_u32 : t -> int -> int -> unit
  val write_u64 : t -> int -> int -> unit

  val cas_u64 : t -> int -> expected:int -> desired:int -> bool
  (** Atomic compare-and-swap on a u64 (the [lock cmpxchg] the µFS lease
      locks are built on).  The compare+store pair is one linearization
      point in simulated time. *)

  val read_bytes : t -> int -> int -> bytes
  val read_string : t -> int -> int -> string
  val blit_to_bytes : t -> int -> bytes -> int -> int -> unit
  val write_string : t -> int -> string -> unit
  val fill : t -> int -> int -> char -> unit
  val copy_within : t -> src:int -> dst:int -> len:int -> unit

  (** {2 Persistence protocol} *)

  val clwb : t -> int -> unit
  (** Initiate write-back of the cache line containing [addr].  Durable only
      after the next {!sfence}. *)

  val flush_range : t -> int -> int -> unit
  (** [clwb] every line of [addr, addr+len). *)

  val sfence : t -> unit
  (** Complete all initiated write-backs: they reach the persistent view. *)

  val nt_write_u64 : t -> int -> int -> unit
  (** Non-temporal store: bypasses the cache; durable after next fence. *)

  val nt_write_string : t -> int -> string -> unit

  val nt_fill : t -> int -> int -> char -> unit
  (** Non-temporal memset (durable after next fence). *)

  val persist_range : t -> int -> int -> unit
  (** [flush_range] + [sfence]: the common "make this durable now" helper. *)

  val persist_all : t -> unit
  (** Make every written line durable (mkfs-time convenience). *)

  val pending_lines : t -> int
  (** Number of lines not yet durable (observable for tests). *)

  val flushing_lines : t -> int
  (** Number of lines flushed but not yet fenced.  When this is 0 an
      [sfence] would be a no-op (and is counted redundant); persist
      batchers use it to elide exactly those fences. *)

  val line_needs_flush : t -> int -> bool
  (** [line_needs_flush d addr] is true iff the cache line holding [addr]
      has stores that no [clwb] has reached yet (state Dirty).  A line
      already Flushing will persist its latest contents at the next fence,
      so re-flushing it is unnecessary; a clean line has nothing volatile.
      Persist batchers use this to coalesce same-cacheline flushes. *)

  (** {2 Crash simulation} *)

  type crash_policy =
    [ `Random
      (** each pending line independently persists or is lost: one draw of
          the crash PRNG per pending line, in ascending line order *)
    | `Drop_all  (** no pending line persists *)
    | `Keep_all  (** every pending line persists (power-fail-safe cache) *) ]

  val crash : ?policy:crash_policy -> t -> unit
  (** Simulate power failure: the volatile view is replaced by the persistent
      view; pending lines are resolved according to [policy] (default
      [`Random]). *)

  val set_crash_seed : t -> int64 -> unit
  (** Reseed the crash-policy PRNG, so each explored crash point draws a
      reproducible, independent [`Random] line-survival pattern. *)

  val inject_drop_fences : t -> int -> unit
  (** Fault injection: the next [n] calls to {!sfence} are complete no-ops
      (nothing persists, no stat, no trace event) — the simulated equivalent
      of a forgotten fence.  [inject_drop_fences d 0] disarms. *)

  (** {2 Media-error (poison) injection}

      A poisoned cache line models an uncorrectable NVM media error: any
      load touching it raises {!Fault} with [kind = Media] (after emitting
      {!T_media_fault} to trace subscribers).  A store to the line re-maps
      it (scrub-on-write) and clears the poison, unless it was injected
      [~sticky] — a persistently failing cell, used by negative
      self-checks.  Poison is a property of the medium: it survives
      {!crash} and is captured by {!snapshot}/{!restore}. *)

  val inject_poison : ?sticky:bool -> t -> int -> unit
  (** Poison the line containing [addr] ([sticky] defaults to [false]). *)

  val clear_poison : t -> int -> unit
  (** Clear any poison on the line containing [addr] (even sticky). *)

  val is_poisoned : t -> int -> bool

  val poisoned_lines : t -> int
  (** Number of currently poisoned lines. *)

  (** {2 Kernel atomic sections}

      The trusted kernel (KernFS) updates its metadata — allocation-table
      owner words, the coffer path map, root pages — with multi-fence store
      sequences that a real kernel would journal; a crash must never expose a
      partial update (the paper's §3.5 trust model: KernFS recovers its own
      metadata).  An atomic section gives exactly the journal's crash
      semantics without modelling journal bytes: all writes issued inside the
      section become durable together at {!commit_atomic}, and a {!crash}
      that lands inside an open section (or a {!commit_atomic} interrupted by
      a trace subscriber) rolls every one of them back.  Sections nest; only
      the outermost commit/abort acts.  µFS user-space writes run outside any
      section and keep raw line-granularity crash behaviour. *)

  val begin_atomic : t -> unit
  (** Open (or nest) a kernel atomic section. *)

  val commit_atomic : t -> unit
  (** Close the section.  At the outermost level, flushes any of the
      section's still-pending lines through the normal clwb/sfence path so
      the whole update is durable on return.  Raises [Invalid_argument] if no
      section is open. *)

  val abort_atomic : t -> unit
  (** Close the section discarding its durable effects (used when an
      exception escapes a kernel operation): pre-section durable contents are
      restored and the section's lines leave the pending set.  Volatile
      (store-visible) bytes are left as written. *)

  (** {2 Snapshot / restore (crash-exploration branching)} *)

  type snapshot
  (** Deep copy of everything that determines future device behaviour: both
      memory views (sparse), the pending/flushing line sets, the crash PRNG
      state, and the stats counters.  Per-thread line caches and bandwidth
      channel state are deliberately excluded — they only affect simulated
      cost and every explored branch runs in a fresh [Sim] world. *)

  val snapshot : t -> snapshot

  val restore : t -> snapshot -> unit
  (** Rewind the device to [snapshot].  The snapshot is not consumed: the
      same one can seed any number of branches.  Also clears any pending
      fence-drop injection and emits {!T_reset} to subscribers. *)

  (** {2 Host-file images (CLI tool persistence)} *)

  val save_image : t -> string -> unit
  (** Flush everything and write the durable view (sparsely) to a host
      file, so the CLI tools can reopen the simulated NVM across runs. *)

  val load_image :
    ?perf:Perf.t -> ?seed:int64 -> string -> (t, string) result
  (** Reopen an image [save_image] wrote.  [Error] names what is wrong
      with the file: a bad magic, a page count [<= 0], a page index
      outside the device, a truncated file, or a file that cannot be
      opened. *)

  (** {2 Cost accounting} *)

  val pollute_cache : t -> unit
  (** Invalidate the current thread's simulated line cache — models the
      cache pollution of a context switch into the kernel (paper §6.1). *)

  val stat_reads : t -> int
  val stat_writes : t -> int
  val stat_flushes : t -> int
  val stat_fences : t -> int

  val stat_redundant_flushes : t -> int
  (** [clwb]s that found their line clean or already flushing — wasted
      persistence ops the paper's flush-then-fence discipline tries to
      avoid. *)

  val stat_redundant_fences : t -> int
  (** [sfence]s issued with no write-back in flight. *)

  val stat_media_faults : t -> int
  (** Loads that tripped a poisoned line and raised a [Media] fault. *)

  val reset_stats : t -> unit
end
