(** Simulated memory protection: per-process page tables plus Intel MPK.

    This layer owns the NVM device's protection hook and enforces, on every
    simulated NVM access:

    - {b paging}: a process can only touch pages KernFS mapped into it, and
      only for write if the mapping is read-write;
    - {b MPK}: each mapped page carries a 4-bit protection key; each thread
      has a PKRU register with a 2-bit (access-disable / write-disable) field
      per key, updated by the non-privileged {!wrpkru} (~16 cycles);
    - {b kernel write windows}: kernel-mode code sees all of NVM, but
      read-only unless a CR0.WP write window is open (the PMFS stray-write
      defence that Treasury extends with MPK).

    Violations raise {!Nvm.Fault} — the simulated SIGSEGV. *)

type t

type pkey = int
(** Protection key, 0..15.  Key 0 is the default region. *)

val nkeys : int
(** 16 keys; 15 usable for coffers (paper §3.4.2). *)

val create : Nvm.Device.t -> t
(** Create the protection unit and install its hook on the device.  All
    pages start unmapped for every process; kernel-mode access is allowed
    (read-only without a write window). *)

val device : t -> Nvm.Device.t

(** {1 Page tables (privileged; called by KernFS)} *)

(** A PTE is absent, {e present}, or {e pending}: a pending PTE carries
    its key and writability but is not present, so the first user-mode
    access to its page traps to the {!set_demand_fault} handler, which
    installs it (the simulated page fault of a mapping made without
    [MAP_POPULATE]).  The paging and PKRU checks then run on the installed
    PTE, so a pending page whose key is closed still faults. *)

val map_page : t -> pid:int -> page:int -> writable:bool -> pkey:pkey -> unit
val unmap_all : t -> pid:int -> unit

val map_run :
  t ->
  pid:int ->
  start:int ->
  len:int ->
  writable:bool ->
  pkey:pkey ->
  read_only:int ->
  populate:bool ->
  unit
(** Map the pages [start .. start + len - 1] with one table lookup and one
    fill: present PTEs when [populate], pending ones otherwise.  Page
    [read_only] (the coffer root page), if inside the run, is mapped
    read-only whatever [writable] says. *)

val unmap_run : t -> pid:int -> start:int -> len:int -> int
(** Clear the run's PTEs, present and pending, and return how many were
    present (teardown pays only for those). *)

val install_pending : t -> pid:int -> page:int -> bool
(** Make [page]'s pending PTE present; [false] (and no change) when the
    PTE is not pending: never mapped, torn down, already installed, or
    [page] outside the device. *)

val set_demand_fault : t -> (pid:int -> page:int -> unit) -> unit
(** The handler a user-mode access to a pending page traps to (KernFS
    installs its own at mkfs/mount).  It runs before the access's checks
    and may block; afterwards the checks re-read the PTE.  The default does
    nothing, so the access faults "page not mapped". *)

val is_mapped : t -> pid:int -> page:int -> bool
(** The PTE is present. *)

val is_pending : t -> pid:int -> page:int -> bool

val page_pkey : t -> pid:int -> page:int -> pkey option
(** Key of a present or pending PTE. *)

val page_writable : t -> pid:int -> page:int -> bool

(** {1 Process teardown (privileged; called by KernFS reaping)} *)

val drop_process : t -> pid:int -> tids:int list -> unit
(** Forget [pid]'s page table entirely (unlike {!unmap_all}, which keeps a
    zero-filled one) and drop the per-thread PKRU / kernel-mode / write-window
    state of every listed thread.  A fresh thread later scheduled on the same
    simulated core starts from the all-disabled PKRU default — per-process
    protection context must never leak across a process switch. *)

val has_thread_state : t -> tid:int -> bool
(** [true] iff the unit still holds any per-thread state for [tid]
    (no-leak assertions in tests). *)

val has_table : t -> pid:int -> bool
(** [true] iff a page table exists for [pid] (even if empty). *)

(** {1 PKRU (unprivileged; called by FSLibs)} *)

type perm = Pk_none | Pk_read | Pk_read_write

val wrpkru : t -> (pkey * perm) list -> unit
(** Set the current thread's PKRU: listed keys get the given permission, all
    other nonzero keys are disabled.  Key 0 always remains read-write.
    Costs ~6 ns (16 cycles at 2.5 GHz). *)

val rdpkru : t -> (pkey * perm) list
(** Current thread's non-default permissions, for assertions in tests. *)

val with_keys : t -> (pkey * perm) list -> (unit -> 'a) -> 'a
(** [with_keys t ks f] grants exactly [ks] for the duration of [f] and
    restores the previous PKRU afterwards (guideline G1/G2 helper: pass a
    single key to make exactly one coffer accessible). *)

(** {1 Kernel mode} *)

val in_kernel : t -> bool

val with_kernel : t -> (unit -> 'a) -> 'a
(** Run [f] in kernel mode for the current thread: paging/MPK checks are
    bypassed, but NVM writes fault unless a write window is open. *)

val with_write_window : t -> (unit -> 'a) -> 'a
(** Open a CR0.WP write window (kernel mode only). *)

(** {1 Fault accounting} *)

val fault_count : t -> int
(** Number of protection faults delivered so far (for safety tests). *)

(** {1 Trace hook (analysis tooling)} *)

(** Fired on every PKRU update so the guideline checker ({!module:Check}) can
    track open coffer windows per thread: G1 (access with no window open) and
    G2 (two coffers writable at once) are both properties of this stream. *)
type trace_event =
  | M_wrpkru of { perms : (pkey * perm) list }  (** raw {!wrpkru} *)
  | M_scope_enter of { perms : (pkey * perm) list }  (** {!with_keys} entry *)
  | M_scope_exit  (** {!with_keys} exit (PKRU restored) *)

val add_trace_subscriber : t -> (trace_event -> unit) -> int
(** {!Nvm.Subscribers.add} on the unit's registry. *)

val remove_trace_subscriber : t -> int -> unit

val subscribe_named : t -> name:string -> (trace_event -> unit) -> unit
(** Named slot, as {!Nvm.Device.subscribe_named}. *)

val unsubscribe_named : t -> name:string -> unit
