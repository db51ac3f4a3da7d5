(** Analysis layer over the simulated hardware: a pmemcheck-style
    persistence-ordering checker, an MPK guideline (G1–G3) checker, and an
    Eraser-style lease-lock discipline checker.

    One checker instance observes one {!Nvm.Device} (and optionally one
    {!Mpk.t}) through their trace hooks.  The µFS annotates its publish
    points — lease release, dentry insert, inode commit — and the checker
    verifies at each that everything the publish makes reachable has
    completed the flush-then-fence protocol.  Violations carry a
    simulated-time stamp and a call-site label; perf smells (redundant
    flushes/fences, overwritten-before-flush stores) are lint counters that
    never fail a run. *)

type mode = Off | Log | Fail
(** [Off]: don't even track.  [Log]: record violations.  [Fail]: record and
    raise {!Violation} at the detection site. *)

type checker = Persist | Guideline | Lock

type violation = {
  v_checker : checker;
  v_rule : string;
      (** "missing-flush", "missing-fence", "G1", "G2", "G3",
          "write-without-lease", "double-acquire", "unpaired-release" *)
  v_addr : int;
  v_tid : int;
  v_time : int;  (** simulated ns *)
  v_label : string;  (** publish-point / call-site label *)
}

exception Violation of violation

val string_of_violation : violation -> string

(** {1 Attach / detach} *)

type t

val attach :
  ?mpk:Mpk.t -> ?persist:mode -> ?guideline:mode -> ?lock:mode ->
  Nvm.Device.t -> t
(** Install the checker on [dev]'s (and [mpk]'s) trace hooks and make it the
    current instance consulted by the annotation API.  All modes default to
    [Log].  Without [mpk], the G1/G2 rules are inert (no PKRU stream) and
    kernel mode cannot be detected. *)

val detach : unit -> unit
val set_mode : t -> checker -> mode -> unit

(** {1 Deferred attach (CLI)}

    Workloads build their device inside the measurement setup, so the CLI
    cannot attach directly: it declares modes with {!enable_auto} and
    [Fslab.make_zofs] calls {!auto_attach} on every world it creates. *)

val enable_auto : persist:mode -> guideline:mode -> lock:mode -> unit
val disable_auto : unit -> unit
val auto_attach : Nvm.Device.t -> Mpk.t -> unit

(** {1 Annotations (no-ops unless attached to [dev])} *)

val publish : Nvm.Device.t -> label:string -> int -> int -> unit
(** [publish dev ~label addr len] declares that [addr, addr+len) becomes
    reachable now: any byte of it still dirty (missing-flush) or flushing
    but unfenced (missing-fence) is a violation. *)

val volatile : Nvm.Device.t -> int -> int -> unit
(** [volatile dev addr len]: the bytes just stored at [addr, addr+len) need
    not reach NVM by design (an allocator free list, which only recovery's
    reformat consumes after a crash).  They leave the persistence
    checker's pending state, so no publish flags them and storing them
    again is no overwrite-before-flush. *)

val register_lease :
  ?publish:bool -> Nvm.Device.t -> lease:int -> addr:int -> len:int -> unit
(** Declare that the lease word at [lease] protects [addr, addr+len).
    Writes to the range without holding the lease are violations — but only
    after the lease's first acquire, so initialization before the structure
    is published stays silent (Eraser-style grace).  The 8 lease-word bytes
    are exempt from durability checks (leases are deliberately never
    flushed: they expire by construction after a crash).  If [publish]
    (default true), releasing the lease is a publish point for the range. *)

val on_lease_acquired : Nvm.Device.t -> int -> unit
val on_lease_release : Nvm.Device.t -> int -> unit
(** Called by [Lease]; release checks pairing and (for registered leases)
    range durability {e before} the release store. *)

val on_free : Nvm.Device.t -> int -> int -> unit
(** [on_free dev addr len]: the structure occupying [addr, addr+len) was
    freed; unregister its leases and drop taints (the page will be recycled
    with a different layout). *)

val taint_cross : Nvm.Device.t -> int -> unit
(** Mark an address read out of {e another} coffer (G3 taint).  Dereferencing
    a tainted page before {!validate_cross} is a G3 violation. *)

val validate_cross : Nvm.Device.t -> int -> unit
(** The address has been validated (e.g. against KernFS's coffer mapping):
    clear its taint. *)

(** {1 Report} *)

type report = {
  r_violations : violation list;  (** oldest first *)
  r_lints : (string * int) list;
}

val report : unit -> report
val reset_report : unit -> unit
val print_report : unit -> unit
