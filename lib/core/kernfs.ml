(* KernFS: the kernel half of Treasury (paper §3.2, §4.1).

   KernFS owns global NVM space management (the allocation table), the
   persistent path→coffer hash table, coffer metadata (root pages) and the
   per-process coffer mappings (page tables + MPK keys).  It treats coffers
   as black boxes: it knows which pages belong to a coffer but nothing about
   the µFS structures inside.

   All entry points are system calls: they pay the {!Gate} cost, and
   mutations of the global structures serialize on a kernel lock — which is
   exactly why very frequent coffer_enlarge calls flatten ZoFS's scalability
   in the paper's Figure 7(d)/(g).

   There are two lock levels.  The global kernel lock guards KernFS's own
   structures: the allocation table, the path map, the coffer table, and
   the mapper and MPK-key bookkeeping.  Each process's page table has its
   own lock (as the mm's mmap lock in Linux): every PTE write for pid P
   holds P's page-table lock, and P's [ps_mapped]/[ps_pkeys] change only
   with both locks held.  The lock order is global lock, then page-table
   lock; code holding a page-table lock never takes the global lock.
   [coffer_map] and [coffer_unmap] write only the caller's own PTEs, so they
   take the caller's page-table lock before dropping the global lock and do
   the PTE work after it; every path that writes other processes' PTEs
   (the enlarge fan-out, shrink/split/merge, unmap-everywhere, teardown)
   stays under the global lock and takes each target's page-table lock
   inside it. *)

(* Reserved owner ids in the allocation table (0 is free). *)
let cid_meta = 1 (* superblock + allocation table + path-map fixed region *)
let cid_pathmap = 2 (* path-map slab pages *)

let sb_magic = 0x54524553 (* "TRES" *)
let pte_update_cost = 120 (* ns per page (un)mapped: PTE write + TLB work *)

type mapping = {
  m_pkey : int;
  m_writable : bool;
  m_root_file : int;  (* byte address of the coffer's root-file inode page *)
  m_custom : int;
  m_ctype : int;
}

(* Per-coffer fault-domain health (runtime state, rebuilt on mount):
   [Healthy] serves everything; [Suspect] (a fault was observed, repair may
   be in flight) still serves; [Quarantined] is read-only; [Offline] rejects
   every access.  Transitions are driven by the dispatcher's fault handler;
   the table itself is volatile because after a crash every coffer restarts
   Healthy and the offline fsck decides what is actually usable. *)
type health = Healthy | Suspect | Quarantined | Offline

let health_to_string = function
  | Healthy -> "healthy"
  | Suspect -> "suspect"
  | Quarantined -> "quarantined"
  | Offline -> "offline"

type proc_state = {
  ps_pid : int;
  ps_pt : Sim.Mutex.t;  (* this process's page-table lock *)
  ps_mapped : (int, mapping) Hashtbl.t;  (* cid -> mapping *)
  mutable ps_pkeys : int;  (* bitmask of MPK keys in use *)
}

type t = {
  dev : Nvm.Device.t;
  mpk : Mpk.t;
  gate : Gate.t;
  at : Alloc_table.t;
  pm : Path_map.t;
  lock : Sim.Mutex.t;
  coffers : (int, Coffer.info) Hashtbl.t;  (* volatile cache of root pages *)
  procs : (int, proc_state) Hashtbl.t;
  mappers : (int, int list ref) Hashtbl.t;  (* cid -> pids mapping it *)
  mutable root_cid : int;
  mutable enlarge_calls : int;
  health : (int, health) Hashtbl.t;  (* cid -> health; absent = Healthy *)
  mutable quarantine_on : bool;  (* chaos negative self-check flips this *)
  (* Transient-failure injection: the next [transient_arm] allocation-path
     syscalls (coffer_enlarge / coffer_map) fail with [transient_errno]. *)
  mutable transient_arm : int;
  mutable transient_errno : Errno.t;
}

let ( let* ) = Result.bind

(* ---- layout ----------------------------------------------------------- *)

let at_base = Nvm.page_size (* allocation table starts at page 1 *)

let at_pages npages =
  (Alloc_table.table_bytes npages + Nvm.page_size - 1) / Nvm.page_size

let pm_base npages = at_base + (at_pages npages * Nvm.page_size)

let meta_pages npages nbuckets =
  1 + at_pages npages + Path_map.region_pages nbuckets

(* ---- internal helpers (called with the kernel lock held) -------------- *)

let coffer_info t cid =
  match Hashtbl.find_opt t.coffers cid with
  | Some c -> Ok c
  | None -> (
      match Coffer.read t.dev ~id:cid with
      | Some c ->
          Hashtbl.replace t.coffers cid c;
          Ok c
      | None -> Error Errno.EINVAL)

let proc_state t pid =
  match Hashtbl.find_opt t.procs pid with
  | Some ps -> Ok ps
  | None -> Error Errno.EINVAL (* fs_mount not called *)

let mappers_of t cid =
  match Hashtbl.find_opt t.mappers cid with
  | Some l -> !l
  | None -> []

let add_mapper t cid pid =
  match Hashtbl.find_opt t.mappers cid with
  | Some l -> if not (List.mem pid !l) then l := pid :: !l
  | None -> Hashtbl.replace t.mappers cid (ref [ pid ])

let remove_mapper t cid pid =
  match Hashtbl.find_opt t.mappers cid with
  | Some l -> l := List.filter (fun p -> p <> pid) !l
  | None -> ()

let cred () = Fs_types.cred_of_proc (Sim.self_proc ())

let check_access t cid wants =
  let* c = coffer_info t cid in
  if Fs_types.permits ~mode:c.Coffer.mode ~uid:c.Coffer.uid ~gid:c.Coffer.gid (cred ()) wants
  then Ok c
  else Error Errno.EACCES

(* Charge [n] pages of PTE work at [per_page] ns each, in one advance: the
   PTEs of one run appear in one step, and other threads run once per run,
   not once per page. *)
let charge_pages ~per_page n = if n > 0 then Sim.advance (per_page * n)

(* Map the pages of [runs] into [pid]'s page table ([pid]'s page-table lock
   held).  The coffer's root page (if part of the runs) is mapped read-only:
   user space may read coffer metadata but never change it. *)
let map_runs t ~pid ~cid ~pkey ~writable runs =
  List.iter
    (fun (start, len) ->
      for page = start to start + len - 1 do
        let w = writable && page <> cid in
        Mpk.map_page t.mpk ~pid ~page ~writable:w ~pkey
      done;
      charge_pages ~per_page:pte_update_cost len)
    runs

let unmap_runs t ~pid runs =
  List.iter
    (fun (start, len) ->
      for page = start to start + len - 1 do
        Mpk.unmap_page t.mpk ~pid ~page
      done;
      charge_pages ~per_page:pte_update_cost len)
    runs

(* Drop [ps]'s mapping of [cid] from the bookkeeping (both locks held) and
   return the page runs whose PTEs the caller must tear down. *)
let forget_mapping t ps cid m =
  Hashtbl.remove ps.ps_mapped cid;
  ps.ps_pkeys <- ps.ps_pkeys land lnot (1 lsl m.m_pkey);
  remove_mapper t cid ps.ps_pid;
  Alloc_table.runs_of t.at ~cid

let unmap_from_process t cid pid =
  match Hashtbl.find_opt t.procs pid with
  | None -> ()
  | Some ps -> (
      match Hashtbl.find_opt ps.ps_mapped cid with
      | None -> ()
      | Some m ->
          Sim.Mutex.with_lock ps.ps_pt (fun () ->
              unmap_runs t ~pid (forget_mapping t ps cid m)))

let unmap_everywhere t cid =
  List.iter (fun pid -> unmap_from_process t cid pid) (mappers_of t cid)

(* Fan [runs] of [cid] out to (or tear them down from) every process mapping
   [cid]: kernel lock held, each target's page-table lock taken inside it. *)
let map_everywhere t cid runs =
  List.iter
    (fun pid ->
      match Hashtbl.find_opt t.procs pid with
      | None -> ()
      | Some ps -> (
          match Hashtbl.find_opt ps.ps_mapped cid with
          | None -> ()
          | Some m ->
              Sim.Mutex.with_lock ps.ps_pt (fun () ->
                  map_runs t ~pid ~cid ~pkey:m.m_pkey ~writable:m.m_writable
                    runs)))
    (mappers_of t cid)

let unmap_runs_everywhere t cid runs =
  List.iter
    (fun pid ->
      match Hashtbl.find_opt t.procs pid with
      | None -> ()
      | Some ps -> Sim.Mutex.with_lock ps.ps_pt (fun () -> unmap_runs t ~pid runs))
    (mappers_of t cid)

(* Allocate pages and create a fresh coffer root at the first granted page. *)
let make_coffer t ~path ~ctype ~mode ~uid ~gid =
  (* 3 pages: root page, root-file inode page, custom page (paper §5). *)
  match Alloc_table.alloc t.at ~cid:(-1) ~n:3 with
  | None -> Error Errno.ENOSPC
  | Some runs ->
      let pages =
        List.concat_map (fun (s, l) -> List.init l (fun i -> s + i)) runs
      in
      let id, rest =
        match pages with
        | id :: rest -> (id, rest)
        | [] -> assert false
      in
      (* Re-own the provisional allocation under the real coffer-ID. *)
      List.iter
        (fun (start, len) -> Alloc_table.reassign t.at ~start ~len ~cid:id)
        runs;
      let root_file, custom =
        match rest with
        | [ a; b ] -> (a * Nvm.page_size, b * Nvm.page_size)
        | _ -> assert false
      in
      Coffer.write t.dev ~id ~ctype ~mode ~uid ~gid ~path ~root_file ~custom;
      let* () = Path_map.insert t.pm ~path ~cid:id in
      let info =
        {
          Coffer.id;
          ctype;
          mode;
          uid;
          gid;
          path;
          root_file;
          custom;
          in_recovery = false;
        }
      in
      Hashtbl.replace t.coffers id info;
      Ok info

(* ---- formatting and mounting ------------------------------------------ *)

let mkfs dev mpk ?(nbuckets = 4096) ~root_ctype ~root_mode ~root_uid ~root_gid ()
    =
  Mpk.with_kernel mpk @@ fun () ->
  Mpk.with_write_window mpk @@ fun () ->
  let npages = Nvm.Device.pages dev in
  let at = Alloc_table.format dev ~base:at_base ~npages in
  (* Reserve the metadata region. *)
  Alloc_table.reassign at ~start:0 ~len:(meta_pages npages nbuckets) ~cid:cid_meta;
  let alloc_page () =
    match Alloc_table.alloc at ~cid:cid_pathmap ~n:1 with
    | Some [ (p, 1) ] -> Some p
    | Some _ | None -> None
  in
  let pm = Path_map.format dev ~base:(pm_base npages) ~nbuckets ~alloc_page in
  (* Superblock last: its magic publishes the file system. *)
  Nvm.Device.write_u32 dev 0 sb_magic;
  Nvm.Device.write_u32 dev 4 1 (* version *);
  Nvm.Device.write_u64 dev 8 npages;
  Nvm.Device.write_u32 dev 16 nbuckets;
  Nvm.Device.persist_range dev 0 20;
  let t =
    {
      dev;
      mpk;
      gate = Gate.create mpk;
      at;
      pm;
      lock = Sim.Mutex.create ~name:"kernfs" ();
      coffers = Hashtbl.create 64;
      procs = Hashtbl.create 16;
      mappers = Hashtbl.create 64;
      root_cid = 0;
      enlarge_calls = 0;
      health = Hashtbl.create 16;
      quarantine_on = true;
      transient_arm = 0;
      transient_errno = Errno.ENOMEM;
    }
  in
  (match
     make_coffer t ~path:"/" ~ctype:root_ctype ~mode:root_mode ~uid:root_uid
       ~gid:root_gid
   with
  | Ok info -> t.root_cid <- info.Coffer.id
  | Error e -> failwith ("Kernfs.mkfs: " ^ Errno.to_string e));
  t

let mount dev mpk =
  Mpk.with_kernel mpk @@ fun () ->
  Mpk.with_write_window mpk @@ fun () ->
  if Nvm.Device.read_u32 dev 0 <> sb_magic then
    failwith "Kernfs.mount: no file system found";
  let npages = Nvm.Device.read_u64 dev 8 in
  if npages <> Nvm.Device.pages dev then failwith "Kernfs.mount: size mismatch";
  let at = Alloc_table.load dev ~base:at_base ~npages in
  let alloc_page () =
    match Alloc_table.alloc at ~cid:cid_pathmap ~n:1 with
    | Some [ (p, 1) ] -> Some p
    | Some _ | None -> None
  in
  let pm = Path_map.load dev ~base:(pm_base npages) ~alloc_page in
  let t =
    {
      dev;
      mpk;
      gate = Gate.create mpk;
      at;
      pm;
      lock = Sim.Mutex.create ~name:"kernfs" ();
      coffers = Hashtbl.create 64;
      procs = Hashtbl.create 16;
      mappers = Hashtbl.create 64;
      root_cid = 0;
      enlarge_calls = 0;
      health = Hashtbl.create 16;
      quarantine_on = true;
      transient_arm = 0;
      transient_errno = Errno.ENOMEM;
    }
  in
  Path_map.iter pm (fun path cid ->
      match Coffer.read dev ~id:cid with
      | Some info ->
          Hashtbl.replace t.coffers cid info;
          if path = "/" then t.root_cid <- cid
      | None -> ());
  if t.root_cid = 0 then failwith "Kernfs.mount: root coffer missing";
  t

let device t = t.dev
let mpk t = t.mpk
let gate t = t.gate
let root_coffer t = t.root_cid
let alloc_table t = t.at

(* Wrap a kernel operation: syscall gate + kernel lock.  [f] runs under the
   kernel lock and returns its result together with a tail, which runs
   after the kernel lock is released but before the syscall returns: the
   PTE work of [coffer_map]/[coffer_unmap], under a page-table lock taken
   inside [f] (hand-over-hand). *)
(* The locked part runs as one device atomic section: its NVM metadata
   writes commit durably together on release, and a crash landing
   mid-operation rolls them all back — the observable semantics of the
   journaling a real kernel applies to this metadata (paper §3.5: KernFS
   recovers its own structures; partial updates are never exposed).  The
   tail stays outside it: PTE work writes no NVM. *)
(* The whole syscall, tail included, is also a no-kill region: the chaos
   campaign models the death of *user* threads (a process can die at any
   instruction of its own code), but a thread inside a system call completes
   it — killing it while it holds the kernel mutex or a page-table lock
   would model a kernel panic, not a process death.  The pending kill
   countdown resumes at syscall return. *)
let kernel_op_then t f =
  Gate.syscall t.gate (fun () ->
      Sim.with_no_kill (fun () ->
          let r =
            Sim.Mutex.with_lock t.lock (fun () ->
                Nvm.Device.begin_atomic t.dev;
                Race.note "kernel atomic begin";
                match f () with
                | v ->
                    Nvm.Device.commit_atomic t.dev;
                    Race.note "kernel atomic commit";
                    v
                | exception e ->
                    Nvm.Device.abort_atomic t.dev;
                    Race.note "kernel atomic abort";
                    raise e)
          in
          match r with
          | Ok (v, tail) ->
              tail ();
              Ok v
          | Error e -> Error e))

let kernel_op t f =
  kernel_op_then t (fun () -> Result.map (fun v -> (v, ignore)) (f ()))

(* Trip one armed transient failure, if any (called from the allocation-path
   syscalls with the kernel lock held). *)
let trip_transient t =
  if t.transient_arm > 0 then begin
    t.transient_arm <- t.transient_arm - 1;
    Obs.cnt "fault.transient" 1;
    Some t.transient_errno
  end
  else None

(* ---- FS registry (fs_mount / fs_umount) ------------------------------- *)

let fs_mount t =
  kernel_op t (fun () ->
      let pid = (Sim.self_proc ()).Sim.Proc.pid in
      if Hashtbl.mem t.procs pid then Error Errno.EEXIST
      else begin
        Hashtbl.replace t.procs pid
          {
            ps_pid = pid;
            ps_pt = Sim.Mutex.create ~name:"page-table" ();
            ps_mapped = Hashtbl.create 8;
            ps_pkeys = 0;
          };
        Ok ()
      end)

let fs_umount t =
  kernel_op t (fun () ->
      let pid = (Sim.self_proc ()).Sim.Proc.pid in
      let* ps = proc_state t pid in
      let cids = Hashtbl.fold (fun cid _ acc -> cid :: acc) ps.ps_mapped [] in
      List.iter (fun cid -> unmap_from_process t cid pid) cids;
      Hashtbl.remove t.procs pid;
      Ok ())

(* Reap a dead process.  A process killed mid-run can never call fs_umount
   itself — death drops its continuations without unwinding — so a surviving
   thread (in a real system, the kernel's task-exit path; here the chaos
   driver or a peer FSLib noticing the death) deregisters it: every coffer
   mapping is torn down, the pid's page table is forgotten, and the
   per-thread PKRU/kernel-mode state of its threads is dropped so nothing of
   the victim's protection context survives the process switch.  Leases the
   victim held are deliberately NOT touched: they live in NVM and expire on
   their own; stealers + intention-record repair own that cleanup. *)
let reap_process t ~pid =
  kernel_op t (fun () ->
      if Sim.proc_alive pid then Error Errno.EBUSY
      else begin
        (match Hashtbl.find_opt t.procs pid with
        | None -> ()
        | Some ps ->
            let cids =
              Hashtbl.fold (fun cid _ acc -> cid :: acc) ps.ps_mapped []
            in
            List.iter (fun cid -> unmap_from_process t cid pid) cids;
            Hashtbl.remove t.procs pid);
        Mpk.drop_process t.mpk ~pid ~tids:(Sim.proc_tids pid);
        Obs.cnt "proc.reaped" 1;
        Ok ()
      end)

(* Called when a process changes uid/gid (setuid): all mappings are torn
   down, as in the paper (§3.3). *)
let on_setuid t =
  kernel_op t (fun () ->
      let pid = (Sim.self_proc ()).Sim.Proc.pid in
      match Hashtbl.find_opt t.procs pid with
      | None -> Ok ()
      | Some ps ->
          let cids = Hashtbl.fold (fun cid _ acc -> cid :: acc) ps.ps_mapped [] in
          List.iter (fun cid -> unmap_from_process t cid pid) cids;
          Ok ())

(* ---- coffer operations (Table 5) -------------------------------------- *)

let coffer_stat t cid = kernel_op t (fun () -> coffer_info t cid)

let coffer_find t path =
  kernel_op t (fun () ->
      match Path_map.lookup t.pm path with
      | Some cid -> Ok cid
      | None -> Error Errno.ENOENT)

(* Longest existing coffer prefix of [path]. *)
let coffer_locate t path =
  kernel_op t (fun () ->
      match Path_map.longest_prefix t.pm path with
      | Some (p, cid) -> Ok (p, cid)
      | None -> Error Errno.ENOENT)

let coffer_new t ~path ~ctype ~mode ~uid ~gid =
  kernel_op t (fun () ->
      let path = Pathx.normalize path in
      if String.length path > Pathx.max_path_length then
        Error Errno.ENAMETOOLONG
      else
        (* The caller must be able to write the enclosing coffer. *)
        let parent = Pathx.dirname path in
        match Path_map.longest_prefix t.pm parent with
        | None -> Error Errno.ENOENT
        | Some (_, parent_cid) ->
            let* _ = check_access t parent_cid [ `W ] in
            make_coffer t ~path ~ctype ~mode ~uid ~gid)

let coffer_delete t cid =
  kernel_op t (fun () ->
      let* c = coffer_info t cid in
      if cid = t.root_cid then Error Errno.EBUSY
      else
        let parent = Pathx.dirname c.Coffer.path in
        match Path_map.longest_prefix t.pm parent with
        | None -> Error Errno.EIO
        | Some (_, parent_cid) ->
            let* _ = check_access t parent_cid [ `W ] in
            unmap_everywhere t cid;
            let* () = Path_map.remove t.pm c.Coffer.path in
            Coffer.invalidate t.dev ~id:cid;
            Alloc_table.free_coffer t.at ~cid;
            Hashtbl.remove t.coffers cid;
            Hashtbl.remove t.mappers cid;
            Ok ())

(* Pages are granted in chunks so one large batched request degrades
   gracefully: allocation pressure (an armed transient fault, or the table
   running out) striking after the first chunk returns the pages already
   granted instead of failing — and forcing a retry of — the whole call.
   Partial grants therefore never double-count the enlarge metrics: the
   syscall, its TLB shootdown and [enlarge_calls] are paid exactly once
   whether the grant is full or partial. *)
let enlarge_chunk = 16

let coffer_enlarge t cid ~n =
  kernel_op t (fun () ->
      match trip_transient t with
      | Some e -> Error e
      | None ->
      t.enlarge_calls <- t.enlarge_calls + 1;
      Obs.cnt "enlarge.calls" 1;
      Obs.cnt_l "enlarge.calls" (Obs.Labels.of_coffer cid) 1;
      (* Growing a mapping requires a TLB shootdown across every CPU running
         a thread of a mapping process — serialized work that makes very
         frequent coffer_enlarge calls the scalability limit of Figure
         7(d)/(g). *)
      Sim.advance (1500 + (200 * Sim.live_threads ()));
      let* _ = check_access t cid [ `W ] in
      let rec grab acc got =
        if got >= n then Ok (List.rev acc)
        else if got > 0 && trip_transient t <> None then
          (* Mid-batch transient: absorb it, keep the partial grant. *)
          Ok (List.rev acc)
        else
          let m = min enlarge_chunk (n - got) in
          match Alloc_table.alloc t.at ~cid ~n:m with
          | None -> if got = 0 then Error Errno.ENOSPC else Ok (List.rev acc)
          | Some runs -> grab (List.rev_append runs acc) (got + m)
      in
      match grab [] 0 with
      | Error e -> Error e
      | Ok runs ->
          (* New pages become visible to every process mapping the coffer. *)
          map_everywhere t cid runs;
          Ok runs)

let coffer_shrink t cid ~runs =
  kernel_op t (fun () ->
      let* _ = check_access t cid [ `W ] in
      let valid =
        List.for_all
          (fun (start, len) ->
            len > 0
            && start + len <= Alloc_table.npages t.at
            && List.for_all
                 (fun p -> Alloc_table.owner_of t.at ~page:p = cid && p <> cid)
                 (List.init len (fun i -> start + i)))
          runs
      in
      if not valid then Error Errno.EINVAL
      else begin
        unmap_runs_everywhere t cid runs;
        List.iter (fun (start, len) -> Alloc_table.free_run t.at ~start ~len) runs;
        Ok ()
      end)

(* Bookkeeping under the kernel lock; the PTEs are installed after it is
   released, under the caller's page-table lock alone. *)
let coffer_map t cid =
  kernel_op_then t (fun () ->
      match trip_transient t with
      | Some e -> Error e
      | None ->
      let pid = (Sim.self_proc ()).Sim.Proc.pid in
      let* ps = proc_state t pid in
      let* c = coffer_info t cid in
      if c.Coffer.in_recovery then Error Errno.EBUSY
      else
        match Hashtbl.find_opt ps.ps_mapped cid with
        | Some m ->
            (* Already mapped, possibly by a sibling thread still installing
               the PTEs: wait for the page-table lock, so a mapping is never
               handed back half-installed. *)
            Ok (m, fun () -> Sim.Mutex.with_lock ps.ps_pt ignore)
        | None ->
            let cr = cred () in
            let readable =
              Fs_types.permits ~mode:c.Coffer.mode ~uid:c.Coffer.uid
                ~gid:c.Coffer.gid cr [ `R ]
            in
            let writable =
              Fs_types.permits ~mode:c.Coffer.mode ~uid:c.Coffer.uid
                ~gid:c.Coffer.gid cr [ `W ]
            in
            if not (readable || writable) then Error Errno.EACCES
            else begin
              (* Find a free MPK key (1..15). *)
              let rec free_key k =
                if k >= Mpk.nkeys then None
                else if ps.ps_pkeys land (1 lsl k) = 0 then Some k
                else free_key (k + 1)
              in
              match free_key 1 with
              | None -> Error Errno.EMFILE
              | Some pkey ->
                  (* Taken before the kernel lock is dropped and held across
                     the install (hand-over-hand). *)
                  Sim.Mutex.lock ps.ps_pt;
                  ps.ps_pkeys <- ps.ps_pkeys lor (1 lsl pkey);
                  let runs = Alloc_table.runs_of t.at ~cid in
                  let m =
                    {
                      m_pkey = pkey;
                      m_writable = writable;
                      m_root_file = c.Coffer.root_file;
                      m_custom = c.Coffer.custom;
                      m_ctype = c.Coffer.ctype;
                    }
                  in
                  Hashtbl.replace ps.ps_mapped cid m;
                  add_mapper t cid pid;
                  Ok
                    ( m,
                      fun () ->
                        map_runs t ~pid ~cid ~pkey ~writable runs;
                        Sim.Mutex.unlock ps.ps_pt )
            end)

(* The mirror image of [coffer_map]: bookkeeping under both locks, the PTE
   teardown after the kernel lock is released. *)
let coffer_unmap t cid =
  kernel_op_then t (fun () ->
      let pid = (Sim.self_proc ()).Sim.Proc.pid in
      let* ps = proc_state t pid in
      match Hashtbl.find_opt ps.ps_mapped cid with
      | None -> Error Errno.EINVAL
      | Some m ->
          Sim.Mutex.lock ps.ps_pt;
          let runs = forget_mapping t ps cid m in
          Ok
            ( (),
              fun () ->
                unmap_runs t ~pid runs;
                Sim.Mutex.unlock ps.ps_pt ))

(* Change a coffer's permission in place (allowed only when the coffer's
   files all change permission together — e.g. the ZoFS-1coffer variant or a
   chmod of a whole-coffer root).  Only the owner or root may do this. *)
let coffer_chmod t cid ~mode ~uid ~gid =
  kernel_op t (fun () ->
      let* c = coffer_info t cid in
      let cr = cred () in
      if cr.Fs_types.uid <> 0 && cr.Fs_types.uid <> c.Coffer.uid then
        Error Errno.EPERM
      else begin
        Coffer.set_perm t.dev ~id:cid ~mode ~uid ~gid;
        Hashtbl.replace t.coffers cid { c with Coffer.mode; uid; gid };
        (* Existing mappings may now exceed the new permission: tear them
           down; processes remap and get re-checked. *)
        unmap_everywhere t cid;
        Ok ()
      end)

(* Split [src]: move [runs] (page runs chosen by the µFS) into a brand-new
   coffer rooted at a fresh root page, with a new permission.  This is the
   expensive operation behind chmod in ZoFS (paper §6.4, Table 9). *)
let coffer_split t ~src ~new_path ~ctype ~mode ~uid ~gid ~runs ~root_file
    ~custom =
  kernel_op t (fun () ->
      let new_path = Pathx.normalize new_path in
      let* c = coffer_info t src in
      let cr = cred () in
      if cr.Fs_types.uid <> 0 && cr.Fs_types.uid <> c.Coffer.uid then
        Error Errno.EPERM
      else if Path_map.lookup t.pm new_path <> None then Error Errno.EEXIST
      else
        let pages_valid =
          List.for_all
            (fun (start, len) ->
              len > 0
              && List.for_all
                   (fun p ->
                     Alloc_table.owner_of t.at ~page:p = src && p <> src)
                   (List.init len (fun i -> start + i)))
            runs
        in
        if not pages_valid then Error Errno.EINVAL
        else
          match Alloc_table.alloc t.at ~cid:(-1) ~n:1 with
          | None -> Error Errno.ENOSPC
          | Some new_runs ->
              let id = match new_runs with (s, _) :: _ -> s | [] -> assert false in
              Alloc_table.reassign t.at ~start:id ~len:1 ~cid:id;
              (* Moved pages change owner; mappers of src lose them. *)
              unmap_runs_everywhere t src runs;
              List.iter
                (fun (start, len) ->
                  Alloc_table.reassign t.at ~start ~len ~cid:id)
                runs;
              Coffer.write t.dev ~id ~ctype ~mode ~uid ~gid ~path:new_path
                ~root_file ~custom;
              let* () = Path_map.insert t.pm ~path:new_path ~cid:id in
              let info =
                {
                  Coffer.id;
                  ctype;
                  mode;
                  uid;
                  gid;
                  path = new_path;
                  root_file;
                  custom;
                  in_recovery = false;
                }
              in
              Hashtbl.replace t.coffers id info;
              Ok info)

(* Merge [src] into [dst]: all of [src]'s pages change owner to [dst]; the
   src root page is freed.  Both coffers must carry the same permission. *)
let coffer_merge t ~dst ~src =
  kernel_op t (fun () ->
      if dst = src then Error Errno.EINVAL
      else
        let* csrc = coffer_info t src in
        let* cdst = coffer_info t dst in
        let* _ = check_access t dst [ `W ] in
        let* _ = check_access t src [ `W ] in
        if
          not
            (Fs_types.same_coffer_perm ~mode1:csrc.Coffer.mode
               ~uid1:csrc.Coffer.uid ~gid1:csrc.Coffer.gid
               ~mode2:cdst.Coffer.mode ~uid2:cdst.Coffer.uid
               ~gid2:cdst.Coffer.gid)
        then Error Errno.EPERM
        else begin
          unmap_everywhere t src;
          let runs = Alloc_table.runs_of t.at ~cid:src in
          List.iter
            (fun (start, len) -> Alloc_table.reassign t.at ~start ~len ~cid:dst)
            runs;
          Coffer.invalidate t.dev ~id:src;
          Alloc_table.free_run t.at ~start:src ~len:1;
          let* () = Path_map.remove t.pm csrc.Coffer.path in
          Hashtbl.remove t.coffers src;
          Hashtbl.remove t.mappers src;
          (* Make the adopted pages visible to dst's mappers. *)
          map_everywhere t dst (List.filter (fun (s, _l) -> s <> src) runs);
          Ok ()
        end)

(* Rename a coffer: its path-map key changes, together with the key of every
   descendant coffer (their paths share the prefix). *)
let coffer_rename t cid ~new_path =
  kernel_op t (fun () ->
      let new_path = Pathx.normalize new_path in
      let* c = coffer_info t cid in
      let* _ = check_access t cid [ `W ] in
      if String.length new_path > Pathx.max_path_length then
        Error Errno.ENAMETOOLONG
      else if Path_map.lookup t.pm new_path <> None then Error Errno.EEXIST
      else begin
        let old_path = c.Coffer.path in
        let to_move = ref [] in
        Path_map.iter t.pm (fun p id ->
            if Pathx.is_prefix ~prefix:old_path p then to_move := (p, id) :: !to_move);
        let results =
          List.map
            (fun (p, id) ->
              let p' =
                Pathx.replace_prefix ~old_prefix:old_path ~new_prefix:new_path p
              in
              let r = Path_map.rename t.pm ~old_path:p ~new_path:p' in
              (match r with
              | Ok () -> (
                  Coffer.set_path t.dev ~id ~path:p';
                  match Hashtbl.find_opt t.coffers id with
                  | Some ci -> Hashtbl.replace t.coffers id { ci with Coffer.path = p' }
                  | None -> ())
              | Error _ -> ());
              r)
            !to_move
        in
        match List.find_opt Result.is_error results with
        | Some (Error e) -> Error e
        | _ -> Ok ()
      end)

(* ---- recovery protocol (paper §3.5) ------------------------------------ *)

let recovery_lease_ns = 1_000_000_000

let coffer_recover_begin t cid =
  kernel_op t (fun () ->
      let* c = coffer_info t cid in
      let now = Sim.now () in
      if c.Coffer.in_recovery then Error Errno.EBUSY
      else begin
        let* _ = check_access t cid [ `W ] in
        Coffer.set_recovery t.dev ~id:cid ~active:true
          ~lease:(now + recovery_lease_ns);
        Hashtbl.replace t.coffers cid { c with Coffer.in_recovery = true };
        (* Unmap from every process except the initiator. *)
        let me = (Sim.self_proc ()).Sim.Proc.pid in
        List.iter
          (fun pid -> if pid <> me then unmap_from_process t cid pid)
          (mappers_of t cid);
        Ok (Alloc_table.runs_of t.at ~cid)
      end)

(* The initiator reports the pages still in use; KernFS reclaims the rest. *)
let coffer_recover_end t cid ~in_use =
  kernel_op t (fun () ->
      let* c = coffer_info t cid in
      if not c.Coffer.in_recovery then Error Errno.EINVAL
      else begin
        let keep = Hashtbl.create 256 in
        Hashtbl.replace keep cid ();
        List.iter (fun p -> Hashtbl.replace keep p ()) in_use;
        let runs = Alloc_table.runs_of t.at ~cid in
        List.iter
          (fun (start, len) ->
            for p = start to start + len - 1 do
              if not (Hashtbl.mem keep p) then
                Alloc_table.free_run t.at ~start:p ~len:1
            done)
          runs;
        Coffer.set_recovery t.dev ~id:cid ~active:false ~lease:0;
        Hashtbl.replace t.coffers cid { c with Coffer.in_recovery = false };
        Ok ()
      end)

(* ---- file operations that need the kernel (paper §3.3) ----------------- *)

(* The µFS passes the data page addresses backing a file; KernFS validates
   that they belong to a coffer the process has mapped and installs the
   user mapping. *)
let file_mmap t ~cid ~pages =
  kernel_op t (fun () ->
      let pid = (Sim.self_proc ()).Sim.Proc.pid in
      let* ps = proc_state t pid in
      if not (Hashtbl.mem ps.ps_mapped cid) then Error Errno.EACCES
      else if
        List.for_all (fun p -> Alloc_table.owner_of t.at ~page:p = cid) pages
      then begin
        charge_pages ~per_page:pte_update_cost (List.length pages);
        Ok ()
      end
      else Error Errno.EINVAL)

let file_execve t ~cid ~pages =
  (* Coffer pages are always mapped non-executable (paper §3.4.3); execve
     validates the image pages, then the kernel builds a private executable
     copy.  We model validation + per-page copy cost. *)
  kernel_op t (fun () ->
      let pid = (Sim.self_proc ()).Sim.Proc.pid in
      let* ps = proc_state t pid in
      if not (Hashtbl.mem ps.ps_mapped cid) then Error Errno.EACCES
      else if
        List.for_all (fun p -> Alloc_table.owner_of t.at ~page:p = cid) pages
      then begin
        charge_pages
          ~per_page:(pte_update_cost + (Nvm.page_size / 39))
          (List.length pages);
        Ok ()
      end
      else Error Errno.EINVAL)

let list_coffers t =
  kernel_op t (fun () ->
      Ok (Hashtbl.fold (fun _ c acc -> c :: acc) t.coffers []))

(* fsck support: free allocation-table runs whose owner id is not a
   registered coffer — the residue of a coffer creation torn before its
   path-map insert persisted (the provisional cid or a cid whose coffer
   descriptor never became durable).  Reserved metadata owners are kept.
   Returns the reclaimed [(owner, start, len)] runs. *)
let reclaim_orphan_runs t =
  kernel_op t (fun () ->
      let orphans = ref [] in
      let npages = Alloc_table.npages t.at in
      let p = ref 0 in
      while !p < npages do
        let cid = Alloc_table.owner_of t.at ~page:!p in
        let start = !p in
        incr p;
        while !p < npages && Alloc_table.owner_of t.at ~page:!p = cid do
          incr p
        done;
        if
          cid <> 0 && cid <> cid_meta && cid <> cid_pathmap
          && not (Hashtbl.mem t.coffers cid)
        then begin
          Alloc_table.free_run t.at ~start ~len:(!p - start);
          orphans := (cid, start, !p - start) :: !orphans
        end
      done;
      Ok (List.rev !orphans))

(* Which coffer owns [page] (0 = free)?  Used by the offline recovery tool
   to validate pointers before trusting them. *)
let page_owner t ~page =
  kernel_op t (fun () ->
      if page < 0 || page >= Alloc_table.npages t.at then Error Errno.EINVAL
      else Ok (Alloc_table.owner_of t.at ~page))

(* ---- observability ------------------------------------------------------ *)

let enlarge_count t = t.enlarge_calls
let free_pages t = Alloc_table.free_pages t.at

let mapped_coffers t =
  let pid = (Sim.self_proc ()).Sim.Proc.pid in
  match Hashtbl.find_opt t.procs pid with
  | None -> []
  | Some ps -> Hashtbl.fold (fun cid m acc -> (cid, m) :: acc) ps.ps_mapped []

(* ---- fault-domain health ------------------------------------------------ *)

(* Health reads are not syscalls: the table is mirrored into a read-only
   shared page every FSLib maps (like the vDSO), so checking it on the hot
   path costs a load, not a gate crossing. *)
let coffer_health t cid =
  match Hashtbl.find_opt t.health cid with Some h -> h | None -> Healthy

let set_coffer_health t cid h =
  let prev = coffer_health t cid in
  if prev <> h then begin
    (match h with
    | Healthy -> Hashtbl.remove t.health cid
    | _ -> Hashtbl.replace t.health cid h);
    let l = Obs.Labels.of_coffer cid in
    (match h with
    | Healthy ->
        if prev <> Healthy then begin
          Obs.cnt "health.recovered" 1;
          Obs.cnt_l "health.recovered" l 1
        end
    | Suspect ->
        Obs.cnt "health.suspect" 1;
        Obs.cnt_l "health.suspect" l 1
    | Quarantined ->
        Obs.cnt "health.quarantined" 1;
        Obs.cnt_l "health.quarantined" l 1
    | Offline ->
        Obs.cnt "health.offline" 1;
        Obs.cnt_l "health.offline" l 1);
    (* Black-box capture: the flight recorder keeps this coffer's health
       history and, when armed, auto-dumps the moment a coffer leaves
       Healthy — the post-mortem is written while the faulting op is still
       in flight, so its span trace makes it into the dump. *)
    Obs.Flight.health_transition ~coffer:cid ~from_:(health_to_string prev)
      ~to_:(health_to_string h)
  end

let quarantine_enabled t = t.quarantine_on
let set_quarantine_enabled t on = t.quarantine_on <- on

(* (healthy, suspect, quarantined, offline) across registered coffers. *)
let health_counts t =
  let s = ref 0 and q = ref 0 and o = ref 0 in
  Hashtbl.iter
    (fun _ h ->
      match h with
      | Suspect -> incr s
      | Quarantined -> incr q
      | Offline -> incr o
      | Healthy -> ())
    t.health;
  let total = Hashtbl.length t.coffers in
  (total - !s - !q - !o, !s, !q, !o)

(* ---- transient-failure injection ---------------------------------------- *)

let inject_transient t ?(errno = Errno.ENOMEM) ~n () =
  t.transient_arm <- t.transient_arm + max 0 n;
  t.transient_errno <- errno

let pending_transients t = t.transient_arm
let clear_transients t = t.transient_arm <- 0
