(** Observability plane: a metrics registry (counters, gauges, log-bucketed
    latency histograms) with {e dimensioned} (labelled) series, sim-clock
    causal span tracing (per-operation op-ids with parent/child span links)
    exported as Chrome/Perfetto [trace_events] JSON, per-syscall layer time
    attribution (FSLib / KernFS-trap / NVM-media / lease-wait), an always-on
    bounded {e flight recorder} black box that dumps itself when a coffer
    leaves [Healthy], and per-tenant/per-op {e SLO} objects with
    error-budget burn accounting.

    Everything is driven by the deterministic simulation clock ({!Sim.now})
    and records through host-side state only: enabling observability never
    calls {!Sim.advance}, so simulated results are bit-identical with obs on
    or off.  All instrumentation entry points are cheap no-ops while
    disabled. *)

(** {1 Global switch} *)

val enable : ?spans:bool -> ?flight:bool -> unit -> unit
(** Turn instrumentation on.  [spans] (default [true]) also records span
    begin/end pairs into the trace ring buffer; [flight] (default [true])
    records structured events into the flight-recorder ring. *)

val disable : unit -> unit

val enabled : unit -> bool

val reset : unit -> unit
(** The reset contract: zero every registered metric (labelled series
    included), clear the span ring buffer, the per-thread layer-attribution
    frames, the flight-recorder ring with its per-coffer health histories
    and auto-dump rate-limit state, and the SLO error-budget burn ledger.
    Metric handles, metric registrations, SLO {e definitions}, label
    interning, the auto-dump configuration, and the list of dump files
    already written to disk all stay valid — reset clears {e state}, not
    {e structure}. *)

(** {1 Minimal JSON (zero-dependency)} *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string
  val of_string : string -> (t, string) result
  val member : string -> t -> t option
  (** Field lookup on [Obj]; [None] otherwise. *)
end

(** {1 Log-bucketed histograms (ns)}

    Values 0–15 get exact buckets; beyond that, 8 sub-buckets per power of
    two (~12.5% relative error), enough range for any int.  Histograms are
    mergeable: threads (or runs) can record separately and combine. *)

module Hist : sig
  type t

  val create : unit -> t
  val add : t -> int -> unit
  (** Negative samples are clamped to 0. *)

  val count : t -> int
  val min_value : t -> int  (** 0 when empty *)

  val max_value : t -> int  (** 0 when empty *)

  val sum : t -> int
  val mean : t -> float
  val percentile : t -> float -> int
  (** [percentile t 0.99]; returns the bucket's upper bound clamped to the
      observed min/max (exact when all samples share a bucket); 0 when
      empty. *)

  val merge : t -> t -> t
  (** Pure: neither input is modified. *)

  val count_over : t -> int -> int
  (** [count_over t threshold]: number of recorded samples that certainly
      exceed [threshold] — the sum of all buckets strictly above the one
      containing it.  Samples in the bucket {e containing} [threshold] are
      counted as under (conservative), so SLO burn never over-reports from
      bucket quantization. *)

  val buckets : t -> (int * int) list
  (** Non-empty buckets, [(index, count)], ascending. *)

  (** Bucket math, exposed for boundary tests. *)

  val nbuckets : int
  val bucket_index : int -> int
  val bucket_bounds : int -> int * int
  (** [(lo, hi)] inclusive value range of a bucket. *)
end

(** {1 Labels (dimensioned metrics)}

    A label set is a small vector of [key=value] pairs, canonicalized (keys
    sorted, duplicates rejected) and interned so the hot-path cost of a
    labelled recording is one string concatenation.  A labelled series is
    registered under ["base{k1=v1,k2=v2}"] and lives in the same registry —
    snapshots, diffs and JSON round-trips see it like any other metric. *)

module Labels : sig
  type t

  val empty : t

  val v : (string * string) list -> t
  (** Canonicalize (sort by key) and intern.  Raises [Invalid_argument] on
      duplicate keys or on a key/value containing '{', '}', ',' or '='. *)

  val pairs : t -> (string * string) list
  (** The canonical (sorted) pairs. *)

  val to_string : t -> string
  (** ["k1=v1,k2=v2"] (empty string for {!empty}). *)

  val series : string -> t -> string
  (** [series base l] is the registry key ["base{k1=v1,...}"], or [base]
      itself when [l] is {!empty}. *)

  val parse_series : string -> string * (string * string) list
  (** Inverse of {!series} on a registry key: ["base{k=v}"] becomes
      [("base", [(k, v)])]; a bare name parses as [(name, [])]. *)

  val of_coffer : int -> t
  (** Memoized [v [("coffer", string_of_int cid)]] — the hot single-label
      case. *)
end

(** {1 Registry}

    Metrics are registered by name (idempotently: [make] twice with one name
    yields the same underlying metric).  Handle operations always record;
    the convenience name-keyed helpers ({!cnt}, {!observe}, {!cnt_l},
    {!observe_l}) and all instrumentation entry points are gated on
    {!enabled}. *)

module Counter : sig
  type t

  val make : string -> t
  val add : t -> int -> unit
  val incr : t -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val make : string -> t
  val set : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val make : string -> t
  val observe : t -> int -> unit
  val hist : t -> Hist.t  (** the live underlying histogram *)
end

val cnt : string -> int -> unit
(** [cnt name n] adds [n] to the named counter — no-op while disabled. *)

val observe : string -> int -> unit
(** Record a sample in the named histogram — no-op while disabled. *)

val cnt_l : string -> Labels.t -> int -> unit
(** [cnt_l base labels n]: labelled counter — no-op while disabled. *)

val observe_l : string -> Labels.t -> int -> unit
(** Labelled histogram sample — no-op while disabled. *)

val cnt_coffer : string -> int -> unit
(** [cnt_coffer base n] adds to {e both} the global [base] counter and, when
    the current thread's in-flight operation has an ambient coffer (see
    {!set_op_coffer}), the labelled [base{coffer=C}] series. *)

(** {1 Operation context (tenants, coffers, op-ids)} *)

val set_tenant : int -> unit
(** Pin the calling thread's tenant id for SLO accounting and labelled
    series.  Defaults to the simulated thread id ({!Sim.self_tid}) — one
    simulated application thread is one tenant until a serving frontend
    multiplexes real tenants onto threads. *)

val current_tenant : unit -> int

val set_op_coffer : int -> unit
(** Called by the µFS when an operation anchors to (or walks into) a
    coffer: labels everything recorded for the rest of the in-flight
    syscall — lease waits, media time, pbatch elisions, graceful errors —
    with [coffer=C].  Cleared automatically when the outermost syscall
    finishes; no-op outside a syscall or while disabled. *)

val current_op : unit -> int
(** Op-id of the calling thread's in-flight dispatched operation, or 0 when
    none (op-ids start at 1). *)

(** {1 Snapshots} *)

module Snapshot : sig
  type t

  val take : unit -> t
  val diff : t -> t -> t
  (** [diff older newer]: counters and histograms subtract (gauges keep the
      newer value; histogram min/max come from the newer side). *)

  val counter_value : t -> string -> int option
  (** Value of a named counter in the snapshot, if present. *)

  (** A labelled series value, as returned by {!labeled}. *)
  type lv = L_counter of int | L_gauge of float | L_hist of Hist.t

  val labeled : t -> base:string -> ((string * string) list * lv) list
  (** Every series of the snapshot registered as [base{...}], with its
      parsed label pairs. *)

  val render : ?title:string -> t -> string
  (** Counter table, histogram table (count/p50/p90/p99/max), and — when the
      [layer.*] counters are present — a FSLib/KernFS/NVM-media/lease-wait
      split with percentages.  Labelled series are left out of the flat
      tables; render them with {!render_top}. *)

  val render_top : ?k:int -> t -> string
  (** The label-sliced view: top-[k] (default 5) coffers by p99 latency
      (over the [coffer.latency{coffer=..,op=..}] histograms, merged per
      coffer), top-[k] tenants by p99 (over [op.latency{op=..,tenant=..}]),
      and top-[k] tenants by SLO error-budget burn (over the
      [slo.burn{slo=..,tenant=..}] gauges published by {!Slo.publish}).
      Empty string when the snapshot has no labelled series. *)

  val to_json : t -> Json.t
  val of_json : Json.t -> (t, string) result
end

(** {1 Span tracing} *)

val span : cat:string -> name:string -> (unit -> 'a) -> 'a
(** Record a begin/end pair around [f] (sim-time timestamps, current thread
    id, fresh span id parented on the enclosing open span, current op-id)
    into the ring buffer; transparent while disabled. *)

module Trace : sig
  (** One completed span as stored in the ring.  [sp_id] is unique across
      the run; [sp_parent] is the id of the enclosing span (0 = root);
      [sp_op] ties the span to the dispatched operation it served (0 =
      outside any dispatched op). *)
  type span = {
    sp_name : string;
    sp_cat : string;
    sp_tid : int;
    sp_ts : int;
    sp_dur : int;
    sp_id : int;
    sp_parent : int;
    sp_op : int;
  }

  val set_capacity : int -> unit
  (** Ring-buffer capacity in spans (default 65536); clears the buffer. *)

  val reset : unit -> unit
  val recorded : unit -> int
  val dropped : unit -> int
  (** Spans overwritten because the ring wrapped. *)

  val open_spans : unit -> int
  (** Spans begun but not yet ended — nonzero means an unbalanced trace. *)

  val spans : unit -> span list
  (** Ring contents, oldest first. *)

  val spans_of_op : int -> span list
  (** The connected trace of one operation: every recorded span with the
      given op-id, oldest first. *)

  val to_json : unit -> Json.t
  (** Chrome/Perfetto trace: [{"traceEvents": [{"ph":"X", ...}, ...]}],
      timestamps in microseconds of simulated time.  Each event carries
      ["args": {"op", "span", "parent"}] so one operation's FSLib span, its
      kernel crossings, lease waits and media stalls form one connected
      parent/child tree in the viewer. *)

  val validate : Json.t -> (unit, string) result
  (** Structural well-formedness: a [traceEvents] array whose elements are
      complete ("X") events with string [name]/[cat] and non-negative
      numeric [ts]/[dur] (begin <= end), plus numeric [pid]/[tid]. *)
end

(** {1 Instrumentation entry points (used by the FS layers)} *)

val with_syscall : string -> (unit -> 'a) -> 'a
(** Wraps one Dispatcher syscall: span + [syscall.<name>] latency histogram
    + the labelled [op.latency{op=..,tenant=..}] histogram (and, when the
    op anchored to a coffer, [coffer.latency{coffer=..,op=..}]); the
    outermost syscall on a thread is assigned a fresh op-id, records
    flight-recorder begin/end events, and attributes its elapsed time to
    the [layer.*] counters (fslib/kernfs/media/lease/total). *)

val with_kernel_crossing : (unit -> 'a) -> 'a
(** Wraps one KernFS gate crossing: span (parented on the enclosing
    syscall span) + [gate.crossings] counter; inside a syscall, the
    crossing's time (minus NVM media time spent within) goes to
    [layer.kernfs_ns]. *)

val with_kernel_fault : (unit -> 'a) -> 'a
(** Wraps one demand fault on a pending PTE: a [kernfs]/[fault] span and
    the [coffer.faults] counter (not [gate.crossings]: a fault is no
    system call); inside a syscall its time goes to [layer.kernfs_ns] as a
    crossing's does. *)

type lease_token

val lease_begin : unit -> lease_token

val lease_end : lease_token -> retries:int -> unit
(** Records [lease.acquires]/[lease.retries]/[lease.wait_ns] (plus the
    coffer-labelled variants when an ambient coffer is set) and, when the
    wait was nonzero, a [lease]/[wait] span; inside a syscall the wait
    (minus the media and kernel time within) goes to [layer.lease_ns]. *)

val lease_abort : lease_token -> retries:int -> unit
(** An acquisition abandoned (request deadline expired while camped on a
    contended lease): records [lease.aborts]/[lease.retries]/[lease.wait_ns]
    and a [lease]/[wait_aborted] span, but no acquire — the lease was never
    taken. *)

val attach_device : Nvm.Device.t -> unit
(** Subscribe to the device's trace stream (multi-subscriber: composes with
    [lib/check]) and account each operation's charged simulated time to
    [nvm.media_ns] (plus [nvm.media_ns{coffer=C}] under an ambient coffer)
    and, inside a syscall, to [layer.media_ns].  A media fault becomes a
    flight-recorder event and a zero-duration [nvm]/[media_fault] span on
    the faulting op.  No-op while disabled — call after {!enable}. *)

(** {1 Flight recorder}

    A bounded, always-on (while enabled) black-box ring of structured
    events: syscall begin/end, lease steals, fault injections, coffer
    health transitions, invariant failures.  When auto-dump is armed, a
    coffer leaving [Healthy] (or an explicit {!Flight.invariant_failure})
    writes a post-mortem JSON dump: the triggering coffer and its health
    history, the ring contents, the connected span trace of the in-flight
    op, and a full metric snapshot. *)

module Flight : sig
  type event = {
    e_seq : int;  (** monotone sequence number *)
    e_ts : int;  (** sim time, ns *)
    e_tid : int;
    e_op : int;  (** op-id in flight on that thread, 0 if none *)
    e_kind : string;
    e_fields : (string * string) list;
  }

  val set_capacity : int -> unit
  (** Ring capacity in events (default 2048); clears the ring. *)

  val note : string -> (string * string) list -> unit
  (** Record one event (no-op while obs or flight recording is off). *)

  val recorded : unit -> int
  (** Events currently held in the ring. *)

  val total : unit -> int
  (** Events recorded since the last reset (ring drops included). *)

  val events : unit -> event list
  (** Ring contents, oldest first. *)

  val health_transition : coffer:int -> from_:string -> to_:string -> unit
  (** Called by KernFS on every coffer health change: records the event,
      appends to the coffer's health history, and — when auto-dump is armed
      and the destination state is not ["healthy"] — writes a dump (at most
      once per (coffer, destination-state) between resets). *)

  val health_history : coffer:int -> (int * string * string) list
  (** [(sim_ts, from, to)] transitions for one coffer, oldest first. *)

  val invariant_failure : string -> unit
  (** Record an [invariant_failure] event and, when auto-dump is armed,
      write a dump (dumps capped by [max_dumps]). *)

  val set_autodump : ?dir:string -> ?max_dumps:int -> bool -> unit
  (** Arm/disarm automatic dumping.  [dir] (default ".") is where dump
      files are written; [max_dumps] (default 16) caps files per armed
      window — arming resets the budget, so each campaign/fsck run gets
      its own allowance. *)

  val dump : reason:string -> ?coffer:int -> unit -> string option
  (** Write a dump now (even when auto-dump is disarmed); [None] if obs is
      disabled or the dump cap is reached.  The file is
      [<dir>/flight-<seq>[-c<coffer>].json]. *)

  val last_dump_path : unit -> string option
  val dump_paths : unit -> string list
  (** All dump files written since the process started, oldest first
      (deliberately {e not} cleared by {!reset} — the files exist). *)

  val reset : unit -> unit
  (** Clear the ring, health histories, and auto-dump rate-limit state
      (also performed by {!val:reset}). *)
end

(** {1 SLOs (per-tenant/per-op objectives)}

    An SLO states: 99% of [op] operations complete under [p99_target_ns].
    Evaluation runs over a snapshot (normally a diff between two points in
    time) against the [op.latency{op=..,tenant=..}] histograms the
    dispatcher records; the error budget is the 1% of operations allowed
    over target, and {e burn} is the fraction of that budget consumed
    ([> 1.0] means the objective is violated). *)

module Slo : sig
  type report = {
    s_name : string;
    s_op : string;
    s_tenant : string;
    s_count : int;  (** samples evaluated *)
    s_p99 : int;  (** achieved p99, ns *)
    s_target : int;  (** objective, ns *)
    s_over : int;  (** samples certainly over target *)
    s_burn : float;  (** error-budget burn: over / (1% of count) *)
  }

  val define : name:string -> op:string -> p99_target_ns:int -> unit
  (** Register (or redefine) an SLO.  Definitions survive {!val:reset}. *)

  val definitions : unit -> (string * string * int) list
  (** [(name, op, p99_target_ns)] of every defined SLO. *)

  val clear_definitions : unit -> unit

  val evaluate : Snapshot.t -> report list
  (** Pure: one report per (SLO, tenant) with samples in the snapshot. *)

  val publish : Snapshot.t -> report list
  (** {!evaluate}, then fold the reports into the cumulative burn ledger
      and publish [slo.p99{slo=..,tenant=..}] / [slo.burn{slo=..,tenant=..}]
      gauges so snapshots (and files rendered by [zofs_stat]/[zofs_top])
      carry the SLO state. *)

  val ledger_burn : name:string -> tenant:string -> float
  (** Cumulative burn accounted by {!publish} since the last reset. *)

  val render : report list -> string

  val reset : unit -> unit
  (** Clear the burn ledger (also performed by {!val:reset}); definitions
      stay. *)
end
