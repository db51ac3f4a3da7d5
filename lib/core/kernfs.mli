(** KernFS: the kernel half of Treasury (paper §3.2–§3.5, §4.1).

    KernFS owns global NVM space (the persistent allocation table), the
    persistent path→coffer hash table, coffer metadata (root pages), and the
    per-process coffer mappings (page tables + MPK keys).  It treats coffers
    as black boxes: it knows which pages belong to a coffer, never what the
    µFS stores inside.

    Every entry point is a system call: it pays the {!Gate} cost (trap +
    cache pollution) and serializes on the global kernel lock for its work
    on KernFS's own structures (allocation table, path map, coffer table,
    mapper and MPK-key bookkeeping) — the reason very frequent
    [coffer_enlarge] calls bound ZoFS's scalability in the paper's Figure
    7(d)/(g).  Each process's page table has its own lock: every PTE write
    for a process holds that process's page-table lock, and the lock order
    is global lock, then page-table lock.  {!coffer_map} and
    {!coffer_unmap} write only the caller's PTEs, so they do that work
    after releasing the global lock, under the caller's page-table lock
    alone; two processes map in parallel.  All permission checks compare
    the *calling simulated process*'s credentials against the coffer's
    owner/mode. *)

val cid_pathmap : int
(** Owner id of path-map slab pages in the allocation table: the largest
    reserved id (0 is free, 1 the fixed metadata), so every coffer id is
    larger. *)

type t

(** What a process gets back from {!coffer_map}. *)
type mapping = {
  m_pkey : int;  (** the MPK region key protecting this coffer (1..15) *)
  m_writable : bool;  (** false when the caller only has read permission *)
  m_root_file : int;  (** byte address of the coffer's root-file inode page *)
  m_custom : int;  (** byte address of the µFS custom page *)
  m_ctype : int;  (** which µFS manages this coffer *)
  m_lazy : bool;
      (** made with [~populate:false]: pages may still be pending, so a
          {!prefault} can save faults; a populated mapping never has a
          pending page *)
}

val pte_update_cost : int
(** ns charged per PTE installed or torn down — PTE write + TLB
    bookkeeping. *)

(** {1 The caller's mappings (read-only mirror)} *)

val holds : t -> int -> mapping -> bool
(** [holds t cid m]: [m] is the calling process's mapping of [cid] — the
    very record the {!coffer_map} that made it returned — so a µFS that
    cached that record checks it is still current.  Every later
    [coffer_map] of a coffer already mapped returns the same record; once
    the mapping is torn down ({!coffer_unmap}, an eviction, or another
    process's {!coffer_chmod}, {!coffer_delete} or {!coffer_recover_begin})
    no record is held, and a remap makes a new one.  Free read, like
    health: not a syscall, a load from a read-only page; it allocates
    nothing. *)

(** {1 Fault-domain health (runtime state, volatile)} *)

(** Per-coffer health, driven by the dispatcher's fault handler: [Healthy]
    and [Suspect] serve everything, [Quarantined] is read-only, [Offline]
    rejects every access.  Rebuilt (all-Healthy) on mount. *)
type health = Healthy | Suspect | Quarantined | Offline

val coffer_health : t -> int -> health
(** Not a syscall: modeled as a load from a read-only shared page. *)

val set_coffer_health : t -> int -> health -> unit
(** Record a transition (bumps the matching [health.*] counter). *)

val quarantine_enabled : t -> bool

val set_quarantine_enabled : t -> bool -> unit
(** When disabled, repeated-failure coffers stay [Suspect] and keep serving
    writes — the chaos campaign's negative self-check must then detect the
    resulting containment violation. *)

val health_counts : t -> int * int * int * int
(** (healthy, suspect, quarantined, offline) over registered coffers. *)

val inject_transient : t -> ?errno:Errno.t -> n:int -> unit -> unit
(** Arm the next [n] allocation-path syscalls ([coffer_enlarge] /
    [coffer_map]) to fail with [errno] (default ENOMEM).  FSLib absorbs
    these with bounded retry + backoff. *)

val pending_transients : t -> int
(** Armed-but-not-yet-tripped transient failures (chaos accounting). *)

val clear_transients : t -> unit
(** Disarm any remaining transient failures (end-of-campaign drain, so a
    leftover injection cannot leak into the post-campaign fsck). *)

(** {1 Formatting and mounting} *)

val mkfs :
  Nvm.Device.t ->
  Mpk.t ->
  ?nbuckets:int ->
  root_ctype:int ->
  root_mode:int ->
  root_uid:int ->
  root_gid:int ->
  unit ->
  t
(** Format the device: superblock, allocation table, path map, and the root
    coffer at "/" (three pages, as every coffer: root page + root-file page
    + custom page).  The µFS must then initialize the root coffer's internal
    structure (e.g. {!Zofs.Ufs.mkfs}). *)

val mount : Nvm.Device.t -> Mpk.t -> t
(** Reload an existing file system: rescans the allocation table (owner
    words are authoritative; run-length hints are repaired) and the path
    map.  A coffer a crash left marked in recovery is durably unmarked: no
    recovery survives a mount. *)

val device : t -> Nvm.Device.t
val mpk : t -> Mpk.t
val gate : t -> Gate.t
val root_coffer : t -> int
val alloc_table : t -> Alloc_table.t

(** {1 FS registry (paper Table 5: fs_mount / fs_umount)} *)

val fs_mount : t -> (unit, Errno.t) result
(** Register the calling process as an FSLibs instance.  Required before
    any coffer operation. *)

val fs_umount : t -> (unit, Errno.t) result
(** Unmap everything and deregister the calling process. *)

val on_setuid : t -> (unit, Errno.t) result
(** Tear down all of the calling process's mappings (the kernel does this
    when uid/gid change, §3.3). *)

val reap_process : t -> pid:int -> (unit, Errno.t) result
(** Deregister a {e dead} process on its behalf: a process killed mid-run
    (see [Sim.kill_process]) can never call {!fs_umount} itself, so a
    surviving thread reaps it — unmaps every coffer, forgets the pid's page
    table, and drops its threads' PKRU/kernel-mode state.  Leases the victim
    held are left to expire in NVM (stealers + intention-record repair own
    that).  [EBUSY] while any thread of [pid] is still alive. *)

(** {1 Coffer operations (paper Table 5)} *)

val coffer_stat : t -> int -> (Coffer.info, Errno.t) result

val coffer_find : t -> string -> (int, Errno.t) result
(** Exact path-map lookup. *)

val coffer_locate : t -> string -> (string * int, Errno.t) result
(** Longest registered coffer prefix of a path (the µFS cold-cache anchor). *)

val coffer_new :
  t ->
  path:string ->
  ctype:int ->
  mode:int ->
  uid:int ->
  gid:int ->
  (Coffer.info, Errno.t) result
(** Create a coffer (3 pages) under the coffer owning the parent path; the
    caller must be able to write that parent coffer.  [ENAMETOOLONG] when
    the normalized path does not fit the path map; [EINVAL] for a NUL in
    the path or a mode outside [0..0o7777]. *)

val coffer_delete : t -> int -> (unit, Errno.t) result
(** Unmap everywhere, free all pages, remove the path-map entry.  [EBUSY]
    for the root coffer and during recovery.  Like every call that takes
    pages from a coffer, it tears down every mapper's PTEs for exactly
    those pages before the allocation table gives them away. *)

val coffer_enlarge : t -> int -> n:int -> ((int * int) list, Errno.t) result
(** Grant up to [n] more pages (as page runs) to the coffer and map them
    into every process currently mapping it.  Pays a TLB shootdown — the
    scalability-limiting kernel work of Figure 7(d)/(g).  Pages are granted
    in chunks: allocation pressure (a transient fault, or the table filling
    up) after the first chunk returns a partial, nonempty grant instead of
    an error, and the call's metrics ([enlarge_count], the shootdown) are
    paid exactly once either way.  An error means no pages were granted;
    [EBUSY] during recovery. *)

val coffer_shrink : t -> int -> runs:(int * int) list -> (unit, Errno.t) result
(** Return pages to the global pool (validated to belong to the coffer and
    to exclude its root page), tearing down every mapper's PTEs for them
    first ({!pte_update_cost} per present one, pending ones free).
    [EINVAL] for any run that fails this, including an empty run or one
    reaching outside the table; [EBUSY] during recovery. *)

val coffer_map :
  ?populate:bool -> ?evict:int -> t -> int -> (mapping, Errno.t) result
(** Permission-check the caller, assign a free MPK key (of the 15 usable),
    and map every page of the coffer — root page read-only — into the
    calling process.  The PTEs are written after the global lock is
    released, under the caller's page-table lock, one run at a time; a
    thread that finds the coffer already mapped waits for that lock, so it
    never gets back a half-written mapping.  [EMFILE] when all 15 regions
    are taken (the µFS should name a victim in [evict], §3.4.2); [EBUSY]
    during recovery.

    With [evict] naming another coffer the caller maps, the same call
    unmaps it: its mapping is forgotten under the global and page-table
    locks, the new mapping takes its key, and the tail tears its PTEs down
    ({!pte_update_cost} per present one, pending ones for free) before the
    new ones go in.  It is all-or-nothing: a map that fails (a transient,
    [EACCES], [EBUSY]) leaves the victim mapped, and one that succeeds
    leaves it unmapped, even when [cid] turns out to be mapped already.
    An [evict] naming [cid] itself or a coffer the caller does not map is
    ignored.

    With [populate] (the default, like [MAP_POPULATE]) every PTE is
    {e present}: the map pays {!pte_update_cost} per page.  With
    [~populate:false] every PTE is {e pending} — key and writability
    recorded, nothing charged — except the coffer's three header pages
    (root page, root-file inode, custom page), which the tail installs
    present at {!pte_update_cost} each: the µFS reads them as soon as it
    has the mapping.  The first user-mode touch of a pending page traps:
    the fault pays the {!Gate} enter and exit cost and its cache pollution
    plus one {!pte_update_cost}, under the faulting process's page-table
    lock alone (never the kernel lock), as a no-kill region; it counts in
    [coffer.faults] and {!Gate.fault_count}, not in the syscall count.
    The usual paging and PKRU checks then run on the installed PTE, so a
    touch with the coffer's key closed still faults.  Every teardown ({!coffer_unmap}
    and everything that unmaps pages from a process) clears pending PTEs
    for free and pays {!pte_update_cost} per present one.  Pages granted
    later by {!coffer_enlarge} or {!coffer_merge} are installed present. *)

val prefault : t -> pages:int list -> unit
(** Install, in one kernel entry, those of [pages] (page numbers) whose
    PTE is pending in the calling process's own page table: the gate's
    enter and exit cost and its cache pollution once, plus
    {!pte_update_cost} per page installed, under the caller's page-table
    lock alone (never the kernel lock, like a demand fault); no write
    window opens.  It counts as a syscall.  Every other page is ignored,
    not an error: present, pending only in another process, of no coffer
    the caller maps, negative or past the device end.  A pending PTE is
    one {!coffer_map} made, so a prefault grants no access the map did not
    (MADV_POPULATE_READ over a list of pages: a scan that knows which pages
    it is about to read pays one crossing for them instead of a fault
    each). *)

val coffer_unmap : t -> int -> (unit, Errno.t) result
(** Drop the caller's mapping: bookkeeping under both locks, the PTE
    teardown after the global lock is released. *)

val coffer_chmod : t -> int -> mode:int -> uid:int -> gid:int -> (unit, Errno.t) result
(** Change the whole coffer's permission in place (owner or root only) and
    unmap it everywhere so mappings are re-checked.  [EINVAL] for a mode
    outside [0..0o7777]. *)

val coffer_split :
  t ->
  src:int ->
  new_path:string ->
  ctype:int ->
  mode:int ->
  uid:int ->
  gid:int ->
  runs:(int * int) list ->
  root_file:int ->
  custom:int ->
  (Coffer.info, Errno.t) result
(** Move [runs] (chosen by the µFS) out of [src] into a brand-new coffer
    with a new permission — the expensive operation behind ZoFS's chmod
    (paper §6.4, Table 9).  Path and mode are checked as in {!coffer_new}
    before any run moves.  [EBUSY] while [src] is in recovery. *)

val coffer_merge : t -> dst:int -> src:int -> (unit, Errno.t) result
(** Absorb [src] (same permission required) into [dst]: every mapping of
    [src] is torn down, src's root page is freed, and every other page of
    [src] goes to [dst] and is installed present for dst's mappers, in the
    same kernel entry.  [EBUSY] while either is in recovery. *)

val coffer_rename : t -> int -> new_path:string -> (unit, Errno.t) result
(** Re-key the coffer and every descendant coffer in the path map, and
    update their root pages.  The new path is checked as in {!coffer_new}. *)

(** {1 Recovery protocol (paper §3.5)} *)

val recovery_lease_ns : int
(** How long a recovery holds its coffer: 1 s of simulated time. *)

val coffer_recover_begin : t -> int -> ((int * int) list, Errno.t) result
(** Mark in-recovery (with a lease of {!recovery_lease_ns} in the root
    page), unmap the coffer from everyone but the caller, and return its
    page runs, sorted by start.  Until the matching [coffer_recover_end] or
    the lease's expiry, the coffer is in recovery: [coffer_map],
    [coffer_recover_begin] and every call that changes which pages it owns
    return [EBUSY], so the runs stay exact.  A recovery whose lease has
    expired is taken over. *)

val coffer_recover_end : t -> int -> in_use:int list -> (unit, Errno.t) result
(** The initiator reports the page numbers still in use; every other page of
    the coffer is reclaimed into the global pool, and the initiator's PTEs
    for those pages are torn down first ({!pte_update_cost} per present
    one, pending ones for free), so no freed page stays mapped under the
    coffer's key.  [EINVAL] if the coffer
    is not in recovery; [EBUSY] if the caller did not begin its recovery,
    as when its lease expired and another process took over. *)

(** {1 File operations needing the kernel (paper §3.3)} *)

val file_mmap : t -> cid:int -> pages:int list -> (unit, Errno.t) result
(** Validate that [pages] belong to a coffer the caller has mapped ([EINVAL]
    for a page that is not the coffer's, out-of-range pages included), then
    install the user mapping ({!pte_update_cost} per page, charged in one
    advance). *)

val file_execve : t -> cid:int -> pages:int list -> (unit, Errno.t) result
(** Coffer pages are never executable; execve validates the image pages and
    builds a private executable copy ({!pte_update_cost} plus a page copy
    per page, charged in one advance).  [EACCES] unless the caller maps
    [cid]; [EINVAL] if a page is not [cid]'s. *)

(** {1 Introspection} *)

val list_coffers : t -> (Coffer.info list, Errno.t) result

val reclaim_orphan_runs : t -> ((int * int * int) list, Errno.t) result
(** fsck support: free allocation-table runs whose owner is not a registered
    coffer (residue of a coffer creation torn before its path-map insert
    persisted).  Returns the reclaimed [(owner, start, len)] runs. *)

val page_owner : t -> page:int -> (int, Errno.t) result
(** Owning coffer-ID of a page (0 = free); the dispatcher names the coffer
    a fault hit with it. *)

val pte_violations : t -> pid:int -> string list
(** The page-table invariant, one line per broken page: every PTE of
    [pid], present or pending, belongs to a coffer [pid] maps and carries
    that mapping's key and writability (the root page read-only), and every
    page of a mapped coffer has one.  Not a syscall; reads no NVM. *)

val enlarge_count : t -> int
val free_pages : t -> int
val mapped_coffers : t -> (int * mapping) list
