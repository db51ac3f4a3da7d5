(* The leased per-thread NVM page allocator (paper §5.2, Figure 6).

   Allocator state lives in the coffer's custom page: a global free list
   (head + count, protected by a lease) and a pool of leased per-thread
   free-list slots.  Free pages are chained through their own first u64.

   A thread allocates from "its" slot — claimed by CAS on the slot's
   owner+lease word — without any cross-thread synchronization; when the slot
   runs dry it refills from the global list, and when that is empty too it
   asks KernFS for more pages with coffer_enlarge (the kernel call whose
   contention flattens Figure 7(d)/(g)).  A thread that finds every slot
   claimed allocates from the global list under its lease.  If a thread
   dies, its slot's lease expires and the slot (with its pages) is reused
   by someone else.

   The free lists are volatile: their stores are never flushed or fenced
   ([push], [pop]).  After a crash the custom page's persisted lists may
   name pages in use, and the only code that may consume that image is
   recovery's [format], which rebuilds the page before anything allocates
   from the coffer again (DESIGN.md §14). *)

(* The default [coffer_enlarge] request, in pages.  Each allocator carries
   its own batch and its own [global] flag (set per FSLib through
   [Ufs.variant], for the ablation benches): the batch trades kernel calls
   against space slack; [global] disables the per-thread lists so every
   allocation takes the coffer-global lease (the paper's motivation for
   Figure 6). *)
let default_enlarge_batch = 16

(* Append-heavy workloads drain a fixed-size batch at a constant rate, so the
   kernel-crossing staircase of Figure 7(d) has a step every [enlarge_batch]
   pages.  Each time a thread's slot runs dry again it doubles its next
   request, up to [enlarge_cap] — growth-phase crossings become logarithmic
   while a thread that stops allocating keeps at most cap-1 slack pages.  A
   partial grant (the kernel under allocation pressure) resets the thread to
   the base batch. *)
let enlarge_cap = 256

type t = {
  dev : Nvm.Device.t;
  custom : int;  (* byte address of the custom page *)
  cid : int;
  kfs : Treasury.Kernfs.t;
  my_slot : (int, int) Hashtbl.t;  (* tid -> claimed slot index *)
  next_enlarge : (int, int) Hashtbl.t;  (* tid -> next request size *)
  enlarge_batch : int;  (* base coffer_enlarge request, in pages *)
  global : bool;  (* ablation: every allocation from the global list *)
}

let slot_addr t i = t.custom + Layout.c_slots + (i * Layout.slot_size)

(* Format a fresh custom page (at coffer creation / after recovery). *)
let format dev ~custom =
  Nvm.Device.write_u32 dev (custom + Layout.c_magic) Layout.custom_magic;
  Nvm.Device.write_u64 dev (custom + Layout.c_global_head) 0;
  Nvm.Device.write_u64 dev (custom + Layout.c_global_count) 0;
  Nvm.Device.write_u64 dev (custom + Layout.c_global_lease) 0;
  for i = 0 to Layout.n_slots - 1 do
    let a = custom + Layout.c_slots + (i * Layout.slot_size) in
    Nvm.Device.write_u64 dev (a + Layout.s_owner) 0;
    Nvm.Device.write_u64 dev (a + Layout.s_head) 0;
    Nvm.Device.write_u64 dev (a + Layout.s_count) 0
  done;
  Nvm.Device.persist_range dev custom Layout.page_size;
  (* The global lease guards head+count, but releasing it is not a publish
     point: the free lists are volatile (below). *)
  Check.register_lease dev ~publish:false
    ~lease:(custom + Layout.c_global_lease)
    ~addr:(custom + Layout.c_global_head) ~len:16

let attach ?(enlarge_batch = default_enlarge_batch) ?(global = false) dev
    ~custom ~cid kfs =
  if Nvm.Device.read_u32 dev (custom + Layout.c_magic) <> Layout.custom_magic
  then
    raise
      (Treasury.Ufs_intf.Zofs_corrupt
         (Printf.sprintf "coffer %d: bad custom page magic at 0x%x" cid custom));
  {
    dev;
    custom;
    cid;
    kfs;
    my_slot = Hashtbl.create 8;
    next_enlarge = Hashtbl.create 8;
    enlarge_batch;
    global;
  }

let create dev ~custom ~cid kfs =
  format dev ~custom;
  attach dev ~custom ~cid kfs

(* ---- per-thread slot management ---------------------------------------- *)

(* Claim a slot whose lease is free or expired.  The paper pre-allocates
   "sufficient" slots; with more live allocators than the 63 slots of a
   coffer this fails, and [alloc_page] falls back to the coffer-global
   list. *)
let claim_slot t =
  let me = Lease.owner_code () in
  let tnow = Sim.now () in
  let rec try_slot i =
    if i >= Layout.n_slots then None
    else
      let a = slot_addr t i in
      let v = Nvm.Device.read_u64 t.dev (a + Layout.s_owner) in
      if v = 0 || Lease.expiry_of v <= tnow then begin
        let desired = Lease.pack ~expiry:(tnow + Lease.default_duration) ~code:me in
        if Nvm.Device.cas_u64 t.dev (a + Layout.s_owner) ~expected:v ~desired
        then begin
          (* Taking over a slot whose previous owner let the lease expire is
             a steal: no release handoff ordered its list updates before
             ours. *)
          if v <> 0 then
            Race.on_lease_steal t.dev ~victim_tid:(Lease.code_of v - 2);
          Some i
        end
        else try_slot (i + 1)
      end
      else try_slot (i + 1)
  in
  try_slot 0

(* Re-validate — and renew to a full duration — ownership of [slot] after
   a potentially blocking wait (the global-lease queue, the kernel gate
   inside coffer_enlarge).  Under heavy cross-process contention the wait
   can outlive the slot lease, and the slot then belongs to a stealer that
   is doing its own list surgery on it: a stale owner touching the list
   would tear it into wild pointers.  A failed renewal CAS means a steal
   raced us just now — also not ours. *)
let own_slot t slot =
  let a = slot_addr t slot in
  let v = Nvm.Device.read_u64 t.dev (a + Layout.s_owner) in
  Lease.code_of v = Lease.owner_code ()
  && (Lease.expiry_of v - Sim.now () >= Lease.default_duration / 2
     || Nvm.Device.cas_u64 t.dev (a + Layout.s_owner) ~expected:v
          ~desired:
            (Lease.pack
               ~expiry:(Sim.now () + Lease.default_duration)
               ~code:(Lease.owner_code ())))

let rec my_slot t =
  let tid = Sim.self_tid () in
  match Hashtbl.find_opt t.my_slot tid with
  | Some i when own_slot t i -> Some i
  | Some _ ->
      (* Lease stolen (we must have stalled): forget and re-claim. *)
      Hashtbl.remove t.my_slot tid;
      my_slot t
  | None -> (
      match claim_slot t with
      | Some i ->
          Hashtbl.replace t.my_slot tid i;
          Some i
      | None -> None)

(* ---- free-list plumbing ------------------------------------------------- *)

let read_next t page_addr = Nvm.Device.read_u64 t.dev page_addr

(* A free-list store is neither flushed nor fenced (the lists are
   volatile, see the header), and [Check.volatile] tells the persistence
   checker so.  A thread that dies without a crash leaves the lists
   current in the volatile view. *)
let store t addr v =
  Nvm.Device.write_u64 t.dev addr v;
  Check.volatile t.dev addr 8

let push t ~head_addr ~count_addr page_addr =
  store t page_addr (Nvm.Device.read_u64 t.dev head_addr);
  store t head_addr page_addr;
  store t count_addr (Nvm.Device.read_u64 t.dev count_addr + 1)

let pop t ~head_addr ~count_addr =
  let head = Nvm.Device.read_u64 t.dev head_addr in
  if head = 0 then None
  else begin
    store t head_addr (read_next t head);
    store t count_addr (Nvm.Device.read_u64 t.dev count_addr - 1);
    Some head
  end

(* Move up to [n] pages from the global list into a thread slot (global
   lease held).  The caller just sat in the global-lease queue, so the
   slot may have been stolen meanwhile: refuse to touch it if so — the
   caller retries and re-claims. *)
let refill_from_global t slot n =
  if not (own_slot t slot) then 0
  else
  let a = slot_addr t slot in
  (* Slot-list words are guarded by slot ownership (the CAS-claimed owner
     word), not by a lease the detector can see — declare the ownership as
     a lockset entry for the duration of the list surgery. *)
  Race.locked t.dev ~addr:(a + Layout.s_owner) @@ fun () ->
  let moved = ref 0 in
  let continue_ = ref true in
  while !continue_ && !moved < n do
    match
      pop t
        ~head_addr:(t.custom + Layout.c_global_head)
        ~count_addr:(t.custom + Layout.c_global_count)
    with
    | Some page ->
        push t ~head_addr:(a + Layout.s_head) ~count_addr:(a + Layout.s_count)
          page;
        incr moved
    | None -> continue_ := false
  done;
  !moved

(* Ask KernFS for more pages and chain them into the slot.  Requests follow
   the per-thread doubling policy; the kernel may grant fewer pages than
   asked (a mid-batch transient fault or allocation pressure), which resets
   the thread's growth — and still counts as success, since the grant is
   nonempty. *)
let enlarge_into_slot t slot =
  let tid = Sim.self_tid () in
  let want =
    match Hashtbl.find_opt t.next_enlarge tid with
    | Some v -> v
    | None -> t.enlarge_batch
  in
  match
    Transient.retry (fun () ->
        Treasury.Kernfs.coffer_enlarge t.kfs t.cid ~n:want)
  with
  | Error e -> Error e
  | Ok runs ->
      let granted = List.fold_left (fun acc (_, len) -> acc + len) 0 runs in
      Hashtbl.replace t.next_enlarge tid
        (if granted >= want then min (want * 2) (max enlarge_cap t.enlarge_batch)
         else t.enlarge_batch);
      (if own_slot t slot then
         let a = slot_addr t slot in
         Race.locked t.dev ~addr:(a + Layout.s_owner) (fun () ->
             List.iter
               (fun (start, len) ->
                 for p = start to start + len - 1 do
                   push t ~head_addr:(a + Layout.s_head)
                     ~count_addr:(a + Layout.s_count)
                     (p * Layout.page_size)
                 done)
               runs)
       else begin
         (* The kernel-gate wait outlived the slot lease and a stealer owns
            the slot now: park the grant on the coffer-global list instead
            of scribbling on the stealer's surgery; the retrying caller
            (re-claiming a slot) refills from there. *)
         Obs.cnt "balloc.slot_lost_enlarges" 1;
         Lease.with_lease t.dev (t.custom + Layout.c_global_lease) (fun () ->
             List.iter
               (fun (start, len) ->
                 for p = start to start + len - 1 do
                   push t
                     ~head_addr:(t.custom + Layout.c_global_head)
                     ~count_addr:(t.custom + Layout.c_global_count)
                     (p * Layout.page_size)
                 done)
               runs)
       end);
      if granted = 0 then Error Treasury.Errno.ENOSPC else Ok ()

(* ---- public allocation API ---------------------------------------------- *)

(* Ablation path: every allocation goes through the coffer-global free list
   under its lease — the contended design Figure 6 avoids. *)
let rec alloc_page_global t =
  let r =
    Lease.with_lease t.dev (t.custom + Layout.c_global_lease) (fun () ->
        pop t
          ~head_addr:(t.custom + Layout.c_global_head)
          ~count_addr:(t.custom + Layout.c_global_count))
  in
  match r with
  | Some page ->
      Race.on_recycle t.dev page Layout.page_size;
      Ok page
  | None -> (
      match
        Transient.retry (fun () ->
            Treasury.Kernfs.coffer_enlarge t.kfs t.cid ~n:t.enlarge_batch)
      with
      | Error e -> Error e
      | Ok runs ->
          Lease.with_lease t.dev (t.custom + Layout.c_global_lease) (fun () ->
              List.iter
                (fun (start, len) ->
                  for p = start to start + len - 1 do
                    push t
                      ~head_addr:(t.custom + Layout.c_global_head)
                      ~count_addr:(t.custom + Layout.c_global_count)
                      (p * Layout.page_size)
                  done)
                runs);
          alloc_page_global t)

let rec alloc_page t =
  if t.global then alloc_page_global t
  else
    match my_slot t with
    | None ->
        (* Every slot is claimed by a live lease (more concurrent
           allocators than slots): allocate from the coffer-global list,
           as [free_page] frees to it. *)
        alloc_page_global t
    | Some slot -> (
        let a = slot_addr t slot in
        match
          Race.locked t.dev ~addr:(a + Layout.s_owner) (fun () ->
              pop t ~head_addr:(a + Layout.s_head)
                ~count_addr:(a + Layout.s_count))
        with
        | Some page ->
            (* The page leaves the allocator: its free-list life is over
               and its next structure starts with a clean access history. *)
            Race.on_recycle t.dev page Layout.page_size;
            Ok page
        | None ->
            (* Refill: first from the coffer-global list, then from KernFS.
               The global count is peeked without the lease first — in the
               steady growth state the global list stays empty, and taking
               (and fencing, at release) a coffer-shared lease on every
               refill would put a cross-thread contention point back on the
               disjoint-file fast path.  The unlocked read is advisory
               either way: a stale zero just goes to the kernel for fresh
               pages, a stale nonzero finds the list empty under the lease
               and falls through. *)
            let got =
              if
                Race.intentional_racy t.dev ~site:"balloc.global-count-peek"
                  ~justification:
                    "advisory peek: the count is written under the global \
                     lease, but a stale read is self-correcting — a stale \
                     zero goes to the kernel for fresh pages, a stale \
                     nonzero finds the list empty under the lease and falls \
                     through; taking the lease here would put a cross-thread \
                     fence back on the disjoint-file fast path"
                  (fun () ->
                    Nvm.Device.read_u64 t.dev (t.custom + Layout.c_global_count))
                = 0
              then 0
              else
                Lease.with_lease t.dev (t.custom + Layout.c_global_lease)
                  (fun () -> refill_from_global t slot t.enlarge_batch)
            in
            if got > 0 then alloc_page t
            else (
              match enlarge_into_slot t slot with
              | Ok () -> alloc_page t
              | Error e -> Error e))

(* Allocate and zero (fresh structure pages must not leak old content, and
   recycled pages carry stale bytes).  Zeroing uses non-temporal stores: one
   bandwidth-priced streaming memset. *)
let alloc_zeroed t =
  match alloc_page t with
  | Error e -> Error e
  | Ok page ->
      Nvm.Device.nt_fill t.dev page Layout.page_size '\000';
      Nvm.Device.sfence t.dev;
      Ok page

let free_page t page =
  (* Whatever structure lived here is gone; its lease (if any) no longer
     guards the page, and the free-list chaining below writes into it. *)
  Check.on_free t.dev page Layout.page_size;
  Race.on_recycle t.dev page Layout.page_size;
  if t.global then
    Lease.with_lease t.dev (t.custom + Layout.c_global_lease) (fun () ->
        push t
          ~head_addr:(t.custom + Layout.c_global_head)
          ~count_addr:(t.custom + Layout.c_global_count)
          page)
  else
  match my_slot t with
  | Some slot ->
      let a = slot_addr t slot in
      Race.locked t.dev ~addr:(a + Layout.s_owner) (fun () ->
          push t ~head_addr:(a + Layout.s_head) ~count_addr:(a + Layout.s_count)
            page)
  | None ->
      (* No slot available: hand it to the global list. *)
      Lease.with_lease t.dev (t.custom + Layout.c_global_lease) (fun () ->
          push t
            ~head_addr:(t.custom + Layout.c_global_head)
            ~count_addr:(t.custom + Layout.c_global_count)
            page)
