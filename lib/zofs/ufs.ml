(* ZoFS: the example µFS built on Treasury coffers (paper §5).

   One [t] per process (it is FSLibs state): it caches the coffers this
   process has mapped (path → coffer cache, KernFS's mapping per coffer),
   open file handles, and implements the µFS interface for the dispatcher.

   Protection guidelines (paper §3.4):
   - G1/G2: every coffer access happens inside [with_coffer], which opens
     exactly one MPK region and closes it afterwards;
   - G3: every cross-coffer dentry is validated — the target coffer's path
     must equal the dentry's path and the reference must point at the target
     coffer's root inode — before the target region is made accessible. *)

module K = Treasury.Kernfs
module E = Treasury.Errno
module Pathx = Treasury.Pathx
module Ft = Treasury.Fs_types
module Ui = Treasury.Ufs_intf
module Coffer = Treasury.Coffer

(* The coffer type ZoFS manages: stored in every coffer root page; mkfs
   callers pass it as [root_ctype]. *)
let ctype = 1

(* Cost of checking one path prefix against the user-space coffer cache
   (string hash + table probe); ZoFS parses paths backwards, so deep paths
   pay this per prefix (paper §6.2). *)
let prefix_check_cost = 45

(* One FSLib's configuration: the paper's ablations (Fig. 8's sysempty and
   kwrite, Table 9's one_coffer, §5.2's allocator batch and global list)
   and the race gate's negative, [elide_leases]: every inode lease of this
   FSLib is skipped, the locking bug the race sanitizer exists for. *)
type variant = {
  sysempty : bool;
  kwrite : bool;
  one_coffer : bool;
  enlarge_batch : int;
  global_alloc : bool;
  elide_leases : bool;
}

let default_variant =
  {
    sysempty = false;
    kwrite = false;
    one_coffer = false;
    enlarge_batch = Balloc.default_enlarge_batch;
    global_alloc = false;
    elide_leases = false;
  }

(* A session caches one coffer this process maps.  KernFS's mapping table
   is the only record of what the process maps: [cs_map] is the record
   [coffer_map] returned, and the session is live only while KernFS still
   holds that very record ([live]).  Another process's chmod, delete or
   recovery of the coffer unmaps it here too, and kills the session.
   [cs_listed] holds the directories (inode addresses) whose second-level
   pages a listing has prefaulted under [cs_map], and [cs_inserted] the
   second-level pages (page numbers) this session's dentry inserts touched
   under a lazy [cs_map], present since; both die with the session, as
   the mapping's PTEs do. *)
type coffer_sess = {
  cs_cid : int;
  mutable cs_path : string;
  cs_map : K.mapping;
  cs_balloc : Balloc.t;
  mutable cs_mode : int;
  mutable cs_uid : int;
  mutable cs_gid : int;
  mutable cs_pins : int;  (* ops inside this coffer ([with_pinned]) *)
  cs_listed : (int, unit) Hashtbl.t;
  cs_inserted : (int, unit) Hashtbl.t;
}

type handle = { h_ino : int; h_cid : int; h_readable : bool; h_writable : bool }

type t = {
  kfs : K.t;
  dev : Nvm.Device.t;
  mpk : Mpk.t;
  variant : variant;
  sessions : (int, coffer_sess) Hashtbl.t;
  by_path : (string, int) Hashtbl.t;
  handles : (int, handle) Hashtbl.t;
  refs : (int, int) Hashtbl.t;
      (* cid -> open handles into it; per coffer, not per session, so a
         remap keeps the count *)
  mutable next_handle : int;
}

let ( let* ) = Result.bind

(* ---- mkfs and attach ----------------------------------------------------- *)

(* Initialize the µFS structures of a coffer KernFS just created: format the
   custom (allocator) page and the root-file inode. *)
let init_coffer_structs dev ~root_file ~custom ~kind ~mode ~uid ~gid =
  Balloc.format dev ~custom;
  Inode.init dev ~ino:root_file ~kind ~mode ~uid ~gid

(* One-time format of the root coffer's internal structure; run as root when
   the file system is created (after Kernfs.mkfs with root_ctype = 1). *)
let mkfs kfs =
  let dev = K.device kfs in
  let mpk = K.mpk kfs in
  let root = K.root_coffer kfs in
  Mpk.with_kernel mpk (fun () ->
      Mpk.with_write_window mpk (fun () ->
          match Coffer.read dev ~id:root with
          | None -> failwith "Zofs.mkfs: no root coffer"
          | Some info ->
              init_coffer_structs dev ~root_file:info.Coffer.root_file
                ~custom:info.Coffer.custom ~kind:Inode.Directory
                ~mode:info.Coffer.mode ~uid:info.Coffer.uid
                ~gid:info.Coffer.gid))

let create ?(variant = default_variant) kfs =
  {
    kfs;
    dev = K.device kfs;
    mpk = K.mpk kfs;
    variant;
    sessions = Hashtbl.create 16;
    by_path = Hashtbl.create 16;
    handles = Hashtbl.create 64;
    refs = Hashtbl.create 16;
    next_handle = 1;
  }

(* ---- coffer sessions ------------------------------------------------------ *)

let with_coffer t cs ~write f =
  (* Fault-domain enforcement (one health load, see Kernfs.coffer_health):
     a quarantined coffer still serves reads — its data may be the only
     surviving copy — but refuses mutation; an offline coffer refuses
     everything.  The dispatcher maps the exception to EIO without another
     repair attempt. *)
  (match K.coffer_health t.kfs cs.cs_cid with
  | K.Healthy | K.Suspect -> ()
  | K.Quarantined ->
      if write then raise (Ui.Coffer_unavailable { cid = cs.cs_cid; write })
  | K.Offline -> raise (Ui.Coffer_unavailable { cid = cs.cs_cid; write }));
  Obs.set_op_coffer cs.cs_cid;
  let perm = if write then Mpk.Pk_read_write else Mpk.Pk_read in
  Mpk.with_keys t.mpk [ (cs.cs_map.K.m_pkey, perm) ] f

(* Take [ino]'s lease and, before running [f], roll forward/back any
   intention record a dead previous holder left mid-mutation (the record can
   only be pending here if its writer never reached its clearing store —
   i.e. the lease was stolen from a killed thread).  [balloc] lets a Trunc
   roll-forward return the freed pages to this coffer's allocator.

   The batched commit paths leave their last stores (size/mtime, intention
   clear, dentry valid byte) flushed but unfenced; [Lease.release] is the
   operation's final ordering point and fences them exactly once.  The
   [elide_leases] variant runs [f] with no lease at all. *)
let with_inode_lease t ?balloc ~ino f =
  let body () =
    let free = Option.map (fun b page -> Balloc.free_page b page) balloc in
    if Intent.repair ?free t.dev ~ino then Obs.cnt "lease.steals_repaired" 1;
    f ()
  in
  if t.variant.elide_leases then body ()
  else Lease.with_lease t.dev (Inode.lease_addr ~ino) body

let forget_session t cs =
  Hashtbl.remove t.sessions cs.cs_cid;
  (match Hashtbl.find_opt t.by_path cs.cs_path with
  | Some cid when cid = cs.cs_cid -> Hashtbl.remove t.by_path cs.cs_path
  | _ -> ())

(* KernFS still holds the mapping [cs] was made from (a free read that
   allocates nothing). *)
let live t cs = K.holds t.kfs cs.cs_cid cs.cs_map

(* [cid]'s session if it is live; a dead one is dropped. *)
let live_session t cid =
  match Hashtbl.find_opt t.sessions cid with
  | Some cs as found when live t cs -> found
  | Some cs ->
      forget_session t cs;
      None
  | None -> None

(* Coffers an op is inside stay mapped for the op: [with_pinned cs f]
   runs [f] with [cs] out of reach of eviction, as an open handle keeps its
   coffer (a parent directory across the creation of a sub-coffer under
   it, say). *)
let with_pinned cs f =
  cs.cs_pins <- cs.cs_pins + 1;
  Fun.protect ~finally:(fun () -> cs.cs_pins <- cs.cs_pins - 1) f

(* The coffer to give up for an MPK key: a live one with no open handles
   that no op is inside. *)
let victim t =
  Hashtbl.fold
    (fun _ cs acc ->
      match acc with
      | Some _ -> acc
      | None ->
          let idle = cs.cs_pins = 0 && not (Hashtbl.mem t.refs cs.cs_cid) in
          if idle && cs.cs_path <> "/" && live t cs then Some cs else None)
    t.sessions None

(* The kernel mapping alone.  When KernFS's table says every usable MPK
   key of this process is taken and [cid] is not mapped yet, the map names a
   victim and KernFS unmaps it in the same call (§3.4.2).  A map that
   evicts leaves its PTEs pending (but the coffer's header pages) and each
   page is installed on first touch: a coffer that has to evict to get a
   key is cycling through the keys, likely evicted again after touching a
   handful of its pages.  A map that gets a free key populates every PTE:
   a coffer mapped while keys are free tends to stay mapped, and its pages
   get touched (64 processes would otherwise fault on a shared log's pages
   while holding its lease).  [~populate:false] maps lazily even with a key
   free: recovery reads a fraction of a coffer's pages and prefaults what
   it reads. *)
let kernel_map ?(populate = true) t cid =
  let mapped = K.mapped_coffers t.kfs in
  let victim =
    if List.length mapped >= Mpk.nkeys - 1 && not (List.mem_assoc cid mapped)
    then victim t
    else None
  in
  let r =
    Transient.retry (fun () ->
        K.coffer_map ~populate:(populate && Option.is_none victim)
          ?evict:(Option.map (fun cs -> cs.cs_cid) victim)
          t.kfs cid)
  in
  (match (r, victim) with
  | Ok _, Some cs ->
      forget_session t cs;
      Obs.cnt "coffer.evictions" 1;
      Obs.cnt "coffer.unmaps" 1
  | _ -> ());
  r

let map_coffer ?populate t cid =
  Obs.set_op_coffer cid;
  Obs.span ~cat:"coffer" ~name:"map" @@ fun () ->
  match kernel_map ?populate t cid with
  | Ok m -> (
      let info =
        Mpk.with_keys t.mpk
          [ (m.K.m_pkey, Mpk.Pk_read) ]
          (fun () -> Coffer.read t.dev ~id:cid)
      in
      match info with
      | Some info ->
          let balloc =
            Mpk.with_keys t.mpk
              [ (m.K.m_pkey, Mpk.Pk_read) ]
              (fun () ->
                Balloc.attach ~enlarge_batch:t.variant.enlarge_batch
                  ~global:t.variant.global_alloc t.dev ~custom:m.K.m_custom
                  ~cid t.kfs)
          in
          let cs =
            {
              cs_cid = cid;
              cs_path = info.Coffer.path;
              cs_map = m;
              cs_balloc = balloc;
              cs_mode = info.Coffer.mode;
              cs_uid = info.Coffer.uid;
              cs_gid = info.Coffer.gid;
              cs_pins = 0;
              cs_listed = Hashtbl.create 8;
              cs_inserted = Hashtbl.create 8;
            }
          in
          (* An older session of the cid is dead (the coffer was unmapped,
             or deleted and its cid reused): it goes, and its path too. *)
          Option.iter (forget_session t) (Hashtbl.find_opt t.sessions cid);
          Hashtbl.replace t.sessions cid cs;
          Hashtbl.replace t.by_path info.Coffer.path cid;
          Obs.cnt "coffer.maps" 1;
          (* The root-file address now comes from the kernel's mapping, not
             from whatever dentry pointed here: validated (G3). *)
          Check.validate_cross t.dev cs.cs_map.K.m_root_file;
          Ok cs
      | None ->
          ignore (K.coffer_unmap t.kfs cid);
          Obs.cnt "coffer.unmaps" 1;
          Error E.EIO)
  | Error e -> Error e

(* A scan's prefault hook for [cs] ([Dir.scan]): byte addresses in, one
   [prefault] ([Kernfs.prefault] unless a negative plants another) for
   their pages but those this session's inserts touched ([cs_inserted]),
   none when no page is left.  Only a coffer mapped lazily can have
   pending pages, so a populated one gets no hook and pays no crossing.
   A listing of directory [dir] records it in [cs_listed], and a later
   listing of it under the same mapping gets no hook either: its
   second-level pages are installed, and one added since faults in on
   first touch. *)
let prefault_hook ?(prefault = K.prefault) ?dir t cs =
  let listed = Option.fold ~none:false ~some:(Hashtbl.mem cs.cs_listed) dir in
  if cs.cs_map.K.m_lazy && not listed then
    Some
      (fun addrs ->
        Option.iter (fun ino -> Hashtbl.replace cs.cs_listed ino ()) dir;
        let pending p = not (Hashtbl.mem cs.cs_inserted p) in
        match
          List.filter pending (List.map (fun a -> a / Layout.page_size) addrs)
        with
        | [] -> ()
        | pages -> prefault t.kfs ~pages)
  else None

let session_of_cid t cid =
  match live_session t cid with
  | Some cs ->
      (* Session cache hit: the kernel-backed session vouches for the root
         file, exactly like a fresh map_coffer would (G3). *)
      Obs.set_op_coffer cid;
      Check.validate_cross t.dev cs.cs_map.K.m_root_file;
      Ok cs
  | None -> map_coffer t cid

(* Deepest coffer covering [path]: ZoFS parses the path backwards against
   its user-space cache of mapped coffers, falling back to one kernel lookup
   on a cold cache (paper §6.2). *)
let rec anchor t path =
  let rec go p =
    Sim.advance prefix_check_cost;
    let cached =
      match Hashtbl.find_opt t.by_path p with
      | Some cid -> live_session t cid
      | None -> None
    in
    match cached with
    | Some cs when cs.cs_path = p ->
        Obs.set_op_coffer cs.cs_cid;
        Ok cs
    | _ -> if p = "/" then cold_anchor t path else go (Pathx.dirname p)
  in
  go path

and cold_anchor t path =
  match K.coffer_locate t.kfs path with
  | Error e -> Error e
  | Ok (_prefix, cid) -> map_coffer t cid

(* ---- path walk ------------------------------------------------------------ *)

type resolved = {
  r_cs : coffer_sess;
  r_ino : int;
  r_kind : Inode.kind;
  r_path : string;
}

(* Expand a symlink found at [link_path] with remaining components [rest]. *)
let expand_symlink ~link_path ~target rest =
  let base =
    if Pathx.is_absolute target then Pathx.normalize target
    else Pathx.concat (Pathx.dirname link_path) target
  in
  Pathx.normalize (String.concat "/" (base :: rest))

(* A parent directory a walk resolved: (session, dir inode, dir path,
   basename). *)
type parent = coffer_sess * int * string * string

(* The walk of [path]: [found] gets what it resolves to; a miss of its last
   component goes to [miss] with the directory it missed in, and a miss
   before the last component is ENOENT. *)
let walk_gen t path ~follow_last ~found ~(miss : parent -> _) =
  let path = Pathx.normalize path in
  match anchor t path with
  | Error e -> Error (Ui.Errno e)
  | Ok cs0 ->
      let rel = Pathx.strip_prefix ~prefix:cs0.cs_path path in
      let comps = Pathx.components rel in
      let rec step cs ino cur_path comps =
        (* Check the current inode, then look up the next component, all
           inside this coffer's MPK window (G1/G2). *)
        match comps with
        | [] ->
            let kind =
              Race.intentional_racy t.dev ~site:"dir.lockfree-walk"
                ~justification:
                  "path walk reads inode kind/valid bytes without the inode \
                   lease; a concurrent unlink can tear the view, but walk \
                   re-validates under the lease before any mutation and a \
                   stale answer only yields ENOENT/EIO to the caller"
              @@ fun () ->
              with_coffer t cs ~write:false (fun () ->
                  if Inode.valid t.dev ~ino then Inode.kind t.dev ~ino else None)
            in
            (match kind with
            | None -> Error (Ui.Errno E.EIO) (* corrupted inode *)
            | Some Inode.Symlink when follow_last ->
                let target =
                  with_coffer t cs ~write:false (fun () ->
                      Inode.symlink_target t.dev ~ino)
                in
                Error (Ui.Symlink (expand_symlink ~link_path:cur_path ~target []))
            | Some k ->
                Ok (found { r_cs = cs; r_ino = ino; r_kind = k; r_path = cur_path }))
        | name :: rest -> (
            let lookup =
              Race.intentional_racy t.dev ~site:"dir.lockfree-walk"
                ~justification:
                  "component lookup scans dentry pages without the directory \
                   lease (the ZoFS lock-free walk); inserts publish the \
                   dentry body before flipping the valid byte, so a torn \
                   observation degrades to ENOENT, never a wild pointer"
              @@ fun () ->
              with_coffer t cs ~write:false (fun () ->
                  if not (Inode.valid t.dev ~ino) then `Corrupted
                  else
                    match Inode.kind t.dev ~ino with
                    | Some Inode.Directory -> `Dentry (Dir.lookup t.dev ~ino name)
                    | Some Inode.Symlink ->
                        `Symlink (Inode.symlink_target t.dev ~ino)
                    | Some Inode.Regular -> `NotDir
                    | None -> `Corrupted)
            in
            match lookup with
            | `Corrupted -> Error (Ui.Errno E.EIO)
            | `NotDir -> Error (Ui.Errno E.ENOTDIR)
            | `Symlink target ->
                Error
                  (Ui.Symlink
                     (expand_symlink ~link_path:cur_path ~target (name :: rest)))
            | `Dentry None ->
                if rest = [] then miss (cs, ino, cur_path, name)
                else Error (Ui.Errno E.ENOENT)
            | `Dentry (Some de) ->
                let child_path = Pathx.concat cur_path name in
                if de.Dir.de_coffer = 0 then
                  step cs de.Dir.de_inode child_path rest
                else (
                  (* Cross-coffer reference: validate before switching
                     regions (G3). *)
                  match session_of_cid t de.Dir.de_coffer with
                  | Error E.EACCES -> Error (Ui.Errno E.EACCES)
                  | Error _ -> Error (Ui.Errno E.EIO)
                  | Ok tcs ->
                      if
                        tcs.cs_path <> child_path
                        || de.Dir.de_inode <> tcs.cs_map.K.m_root_file
                      then Error (Ui.Errno E.EIO) (* manipulated metadata *)
                      else step tcs tcs.cs_map.K.m_root_file child_path rest))
      in
      step cs0 cs0.cs_map.K.m_root_file cs0.cs_path comps

let walk t path ~follow_last : (resolved, Ui.fail) result =
  walk_gen t path ~follow_last ~found:Fun.id ~miss:(fun _ ->
      Error (Ui.Errno E.ENOENT))

(* Resolve the parent directory of [path] and return (session, dir inode,
   dir path, basename).  A symlink on the way to the parent redirects the
   whole [path]: the redirect names the link's target with the basename
   appended, never the parent itself. *)
let walk_parent t path : (parent, Ui.fail) result =
  let path = Pathx.normalize path in
  if path = "/" then Error (Ui.Errno E.EINVAL)
  else
    let dir = Pathx.dirname path and base = Pathx.basename path in
    match walk t dir ~follow_last:true with
    | Error (Ui.Symlink target) -> Error (Ui.Symlink (Pathx.concat target base))
    | Error f -> Error f
    | Ok r ->
        if r.r_kind <> Inode.Directory then Error (Ui.Errno E.ENOTDIR)
        else Ok (r.r_cs, r.r_ino, r.r_path, base)

(* [walk_parent] that follows its symlink redirects itself, as the
   dispatcher does for the path it dispatches on: for a second path of one
   call (a rename's destination). *)
let rec walk_parent_follow ?(depth = 0) t path =
  match walk_parent t path with
  | Error (Ui.Symlink target) ->
      if depth >= Treasury.Dispatcher.max_symlink_depth then
        Error (Ui.Errno E.ELOOP)
      else walk_parent_follow ~depth:(depth + 1) t target
  | r -> r

(* ---- creation -------------------------------------------------------------- *)

let cred () = Ft.cred_of_proc (Sim.self_proc ())

let same_perm_as_coffer cs ~mode ~uid ~gid =
  Ft.same_coffer_perm ~mode1:mode ~uid1:uid ~gid1:gid ~mode2:cs.cs_mode
    ~uid2:cs.cs_uid ~gid2:cs.cs_gid

(* Create a new coffer for a file whose permission differs from its parent's
   coffer, and initialize its µFS structures. *)
let create_sub_coffer t ~path ~kind ~mode ~uid ~gid =
  let* info = K.coffer_new t.kfs ~path ~ctype ~mode ~uid ~gid in
  (* Map first with the raw kernel mapping and initialize the µFS structures
     (custom page, root inode) before attaching the allocator. *)
  let* m = kernel_map t info.Coffer.id in
  Mpk.with_keys t.mpk
    [ (m.K.m_pkey, Mpk.Pk_read_write) ]
    (fun () ->
      init_coffer_structs t.dev ~root_file:m.K.m_root_file ~custom:m.K.m_custom
        ~kind ~mode ~uid ~gid);
  map_coffer t info.Coffer.id

(* Allocate and prepare an inode in [cs]'s coffer (same permission), to be
   committed by the dentry insert that links it ([insert_dentry ~fresh]).
   [Inode.prepare] writes every field a reader may consult, so the page
   does not need a full scrub first. *)
let new_inode_same_coffer t cs ~kind ~mode ~uid ~gid =
  with_coffer t cs ~write:true (fun () ->
      let* page = Balloc.alloc_page cs.cs_balloc in
      Inode.prepare t.dev ~ino:page ~kind ~mode ~uid ~gid;
      Ok page)

(* Insert a dentry under the parent-directory lease, re-checking for a
   concurrent duplicate.  [fresh]: [inode] was just prepared, and the
   insert commits it. *)
let insert_dentry ?fresh t cs ~dir_ino ~name ~kind ~coffer ~inode =
  with_coffer t cs ~write:true (fun () ->
      with_inode_lease t ~balloc:cs.cs_balloc ~ino:dir_ino (fun () ->
          match Dir.lookup t.dev ~ino:dir_ino name with
          | Some _ -> Error E.EEXIST
          | None ->
              let on_l2 =
                if cs.cs_map.K.m_lazy then
                  Some
                    (fun l2 ->
                      Hashtbl.replace cs.cs_inserted (l2 / Layout.page_size) ())
                else None
              in
              Dir.insert ?fresh ?on_l2 t.dev cs.cs_balloc ~ino:dir_ino ~name
                ~kind:(Inode.kind_code kind) ~coffer ~inode))

(* How a create resolves its path: one walk, whose last lookup either
   hits — [`Present r], resolved as [walk] resolves it (an existing file, a
   sub-coffer's root, a symlink's redirect) — or misses: [`Absent parent],
   the directory to create in, with no second walk. *)
let probe_create t path ~follow_last =
  walk_gen t path ~follow_last
    ~found:(fun r -> `Present r)
    ~miss:(fun parent -> Ok (`Absent parent))

(* Shared create path for regular files, directories and symlinks, in the
   directory a walk's last lookup missed in ([probe_create]).  A name a
   concurrent create inserted first is EEXIST. *)
let create_in t (pcs, dir_ino, dir_path, base) ~kind ~mode ?symlink_target () =
  if not pcs.cs_map.K.m_writable then Error (Ui.Errno E.EACCES)
  else
    let c = cred () in
    let uid = c.Ft.uid and gid = c.Ft.gid in
    let full_path = Pathx.concat dir_path base in
    let inherit_perm =
      (* Symlinks inherit the directory's permission so that linking never
         forces a coffer split. *)
      kind = Inode.Symlink || t.variant.one_coffer
      || same_perm_as_coffer pcs ~mode ~uid ~gid
    in
    if inherit_perm then begin
      let imode, iuid, igid =
        if kind = Inode.Symlink then (0o777, pcs.cs_uid, pcs.cs_gid)
        else (mode, uid, gid)
      in
      let* ino =
        match new_inode_same_coffer t pcs ~kind ~mode:imode ~uid:iuid ~gid:igid with
        | Ok i -> Ok i
        | Error e -> Error (Ui.Errno e)
      in
      (match symlink_target with
      | Some target ->
          with_coffer t pcs ~write:true (fun () ->
              Inode.set_symlink_target t.dev ~ino target)
      | None -> ());
      match
        insert_dentry ~fresh:true t pcs ~dir_ino ~name:base ~kind ~coffer:0
          ~inode:ino
      with
      | Ok () -> Ok (pcs, ino)
      | Error e ->
          (* Roll the inode back into the free list. *)
          with_coffer t pcs ~write:true (fun () ->
              Balloc.free_page pcs.cs_balloc ino);
          Error (Ui.Errno e)
    end
    else begin
      (* Different permission: the file gets its own coffer (paper §3.1).
         Mapping it must not evict the parent the dentry goes into. *)
      with_pinned pcs @@ fun () ->
      match create_sub_coffer t ~path:full_path ~kind ~mode ~uid ~gid with
      | Error e -> Error (Ui.Errno e)
      | Ok ncs -> (
          match
            insert_dentry t pcs ~dir_ino ~name:base ~kind ~coffer:ncs.cs_cid
              ~inode:ncs.cs_map.K.m_root_file
          with
          | Ok () -> Ok (ncs, ncs.cs_map.K.m_root_file)
          | Error e ->
              forget_session t ncs;
              ignore (K.coffer_delete t.kfs ncs.cs_cid);
              Error (Ui.Errno e))
    end

(* ---- handles -------------------------------------------------------------- *)

let open_refs t cid = Option.value ~default:0 (Hashtbl.find_opt t.refs cid)

let alloc_handle t cs ~ino ~readable ~writable =
  let h = t.next_handle in
  t.next_handle <- h + 1;
  Hashtbl.replace t.handles h
    { h_ino = ino; h_cid = cs.cs_cid; h_readable = readable; h_writable = writable };
  Hashtbl.replace t.refs cs.cs_cid (open_refs t cs.cs_cid + 1);
  h

let handle t h =
  match Hashtbl.find_opt t.handles h with
  | Some hd -> Ok hd
  | None -> Error E.EBADF

let handle_session t hd = session_of_cid t hd.h_cid

(* ---- µFS interface: path operations ---------------------------------------- *)

let openf t path flags mode : int Ui.outcome =
  let wants = Ft.wants_of_flags flags in
  let readable = List.mem `R wants || wants = [] in
  let writable = List.mem `W wants in
  let creat = Ft.flag_mem Ft.O_CREAT flags in
  let excl = creat && Ft.flag_mem Ft.O_EXCL flags in
  let open_resolved r =
    if excl then Ui.errno E.EEXIST
    else if r.r_kind = Inode.Directory && writable then Ui.errno E.EISDIR
    else if writable && not r.r_cs.cs_map.K.m_writable then Ui.errno E.EACCES
    else begin
      if Ft.flag_mem Ft.O_TRUNC flags && writable && r.r_kind = Inode.Regular
      then
        with_coffer t r.r_cs ~write:true (fun () ->
            with_inode_lease t ~balloc:r.r_cs.cs_balloc ~ino:r.r_ino (fun () ->
                ignore (File.truncate t.dev r.r_cs.cs_balloc ~ino:r.r_ino 0)));
      Ok (alloc_handle t r.r_cs ~ino:r.r_ino ~readable ~writable)
    end
  in
  (* A create that loses the race for the name to another one opens the
     winner's file (O_EXCL: EEXIST), by probing again. *)
  let rec create () =
    match probe_create t path ~follow_last:true with
    | Error f -> Error f
    | Ok (`Present r) -> open_resolved r
    | Ok (`Absent parent) -> (
        match create_in t parent ~kind:Inode.Regular ~mode () with
        | Ok (cs, ino) -> Ok (alloc_handle t cs ~ino ~readable ~writable)
        | Error (Ui.Errno E.EEXIST) when not excl -> create ()
        | Error f -> Error f)
  in
  if creat then create ()
  else
    let* r = walk t path ~follow_last:true in
    open_resolved r

(* [mkdir] and [symlink]: EEXIST when the walk's last lookup hits. *)
let create_new t path ~follow_last ~kind ~mode ?symlink_target () =
  match probe_create t path ~follow_last with
  | Error f -> Error f
  | Ok (`Present _) -> Ui.errno E.EEXIST
  | Ok (`Absent parent) ->
      Result.map ignore (create_in t parent ~kind ~mode ?symlink_target ())

let mkdir t path mode : unit Ui.outcome =
  create_new t path ~follow_last:true ~kind:Inode.Directory ~mode ()

let symlink t ~target ~link : unit Ui.outcome =
  create_new t link ~follow_last:false ~kind:Inode.Symlink ~mode:0o777
    ~symlink_target:target ()

let readlink t path : string Ui.outcome =
  let* r = walk t path ~follow_last:false in
  if r.r_kind <> Inode.Symlink then Ui.errno E.EINVAL
  else
    Ok
      (Race.intentional_racy t.dev ~site:"inode.lockfree-readlink"
         ~justification:
           "symlink targets are written once at symlink() time before the \
            dentry publish and never mutated in place; the only race is \
            against unlink, which frees the whole inode page"
         (fun () ->
           with_coffer t r.r_cs ~write:false (fun () ->
               Inode.symlink_target t.dev ~ino:r.r_ino)))

let stat_justification =
  "stat reads size/times/nlink without the inode lease (POSIX allows a \
   point-in-time snapshot); writers flush these fields before their \
   lease-release fence, so a torn read is at worst one update stale"

let stat t path : Ft.stat Ui.outcome =
  let* r = walk t path ~follow_last:true in
  Ok
    (Race.intentional_racy t.dev ~site:"inode.lockfree-stat"
       ~justification:stat_justification (fun () ->
         with_coffer t r.r_cs ~write:false (fun () ->
             Inode.stat t.dev ~ino:r.r_ino)))

let lstat t path : Ft.stat Ui.outcome =
  let* r = walk t path ~follow_last:false in
  Ok
    (Race.intentional_racy t.dev ~site:"inode.lockfree-stat"
       ~justification:stat_justification (fun () ->
         with_coffer t r.r_cs ~write:false (fun () ->
             Inode.stat t.dev ~ino:r.r_ino)))

(* [readdir] with the kernel's prefault as a parameter: the perf gate's
   negative lists through a planted one. *)
let readdir_with ~prefault t path : Ft.dirent list Ui.outcome =
  let* r = walk t path ~follow_last:true in
  if r.r_kind <> Inode.Directory then Ui.errno E.ENOTDIR
  else begin
    let acc = ref [] in
    Race.intentional_racy t.dev ~site:"dir.lockfree-readdir"
      ~justification:
        "readdir iterates dentry pages without the directory lease; \
         concurrent create/unlink may be missed or seen twice, which POSIX \
         permits for entries modified during the scan"
    @@ fun () ->
    with_coffer t r.r_cs ~write:false (fun () ->
        Dir.iter
          ?prefault:(prefault_hook ~prefault ~dir:r.r_ino t r.r_cs)
          t.dev ~ino:r.r_ino
          (fun de ->
            let kind =
              match Inode.kind_of_code de.Dir.de_kind with
              | Some k -> Inode.fs_kind k
              | None -> Ft.Regular
            in
            acc :=
              {
                Ft.d_name = de.Dir.de_name;
                d_kind = kind;
                d_ino = de.Dir.de_inode / Layout.page_size;
              }
              :: !acc));
    Ok (List.rev !acc)
  end

let readdir t path = readdir_with ~prefault:K.prefault t path

(* ---- unlink / rmdir --------------------------------------------------------- *)

let find_dentry t pcs ~dir_ino name =
  match
    Race.intentional_racy t.dev ~site:"dir.lockfree-lookup"
      ~justification:
        "pre-flight dentry probe before taking the directory lease; the \
         result is advisory — every caller re-checks or re-does the lookup \
         under the lease before mutating"
      (fun () ->
        with_coffer t pcs ~write:false (fun () ->
            Dir.lookup t.dev ~ino:dir_ino name))
  with
  | Some de -> Ok de
  | None -> Error E.ENOENT

let remove_dentry_locked t pcs ~dir_ino name =
  with_coffer t pcs ~write:true (fun () ->
      with_inode_lease t ~balloc:pcs.cs_balloc ~ino:dir_ino (fun () ->
          Dir.remove t.dev ~ino:dir_ino name))

let unlink t path : unit Ui.outcome =
  let* pcs, dir_ino, _, base = walk_parent t path in
  if not pcs.cs_map.K.m_writable then Ui.errno E.EACCES
  else
    match find_dentry t pcs ~dir_ino base with
    | Error e -> Error (Ui.Errno e)
    | Ok de ->
        if de.Dir.de_kind = Layout.kind_directory then Ui.errno E.EISDIR
        else if de.Dir.de_coffer <> 0 then begin
          (* The file is its own coffer: KernFS reclaims all its pages. *)
          match K.coffer_delete t.kfs de.Dir.de_coffer with
          | Error e -> Error (Ui.Errno e)
          | Ok () -> (
              Hashtbl.remove t.refs de.Dir.de_coffer;
              match remove_dentry_locked t pcs ~dir_ino base with
              | Ok () -> Ok ()
              | Error e -> Error (Ui.Errno e))
        end
        else begin
          match remove_dentry_locked t pcs ~dir_ino base with
          | Error e -> Error (Ui.Errno e)
          | Ok () ->
              with_coffer t pcs ~write:true (fun () ->
                  let ino = de.Dir.de_inode in
                  if de.Dir.de_kind = Layout.kind_regular then
                    File.free_all t.dev pcs.cs_balloc ~ino;
                  Balloc.free_page pcs.cs_balloc ino);
              Ok ()
        end

let rmdir t path : unit Ui.outcome =
  let* pcs, dir_ino, _, base = walk_parent t path in
  if not pcs.cs_map.K.m_writable then Ui.errno E.EACCES
  else
    match find_dentry t pcs ~dir_ino base with
    | Error e -> Error (Ui.Errno e)
    | Ok de ->
        if de.Dir.de_kind <> Layout.kind_directory then Ui.errno E.ENOTDIR
        else if de.Dir.de_coffer <> 0 then begin
          (* Mapping the directory's coffer must not evict its parent. *)
          with_pinned pcs @@ fun () ->
          match session_of_cid t de.Dir.de_coffer with
          | Error e -> Error (Ui.Errno e)
          | Ok tcs ->
              let empty =
                Race.intentional_racy t.dev ~site:"dir.lockfree-is-empty"
                  ~justification:
                    "advisory emptiness probe before the delete path; a \
                     racing create loses either way — the dentry remove runs \
                     under the directory lease and a stale answer only turns \
                     into ENOTEMPTY or a benign retry"
                  (fun () ->
                    with_coffer t tcs ~write:false (fun () ->
                        Dir.is_empty t.dev ~ino:tcs.cs_map.K.m_root_file))
              in
              if not empty then Ui.errno E.ENOTEMPTY
              else begin
                forget_session t tcs;
                match K.coffer_delete t.kfs de.Dir.de_coffer with
                | Error e -> Error (Ui.Errno e)
                | Ok () -> (
                    Hashtbl.remove t.refs de.Dir.de_coffer;
                    match remove_dentry_locked t pcs ~dir_ino base with
                    | Ok () -> Ok ()
                    | Error e -> Error (Ui.Errno e))
              end
        end
        else begin
          let ino = de.Dir.de_inode in
          let empty =
            Race.intentional_racy t.dev ~site:"dir.lockfree-is-empty"
              ~justification:
                "advisory emptiness probe before the delete path; a racing \
                 create loses either way — the dentry remove runs under the \
                 directory lease and a stale answer only turns into \
                 ENOTEMPTY or a benign retry"
              (fun () ->
                with_coffer t pcs ~write:false (fun () ->
                    Dir.is_empty t.dev ~ino))
          in
          if not empty then Ui.errno E.ENOTEMPTY
          else
            match remove_dentry_locked t pcs ~dir_ino base with
            | Error e -> Error (Ui.Errno e)
            | Ok () ->
                with_coffer t pcs ~write:true (fun () ->
                    List.iter
                      (fun p -> Balloc.free_page pcs.cs_balloc p)
                      (Dir.structure_pages t.dev ~ino);
                    Balloc.free_page pcs.cs_balloc ino);
                Ok ()
        end

(* ---- rename ----------------------------------------------------------------- *)

(* Collect every same-coffer page reachable from [ino] (the subtree), for
   cross-coffer moves and for chmod-driven splits. *)
let rec subtree_pages t dev ~ino acc =
  let acc = ino :: acc in
  match Inode.kind_exn dev ~ino with
  | Inode.Regular -> File.data_pages dev ~ino @ acc
  | Inode.Symlink -> acc
  | Inode.Directory ->
      let pages = ref [] and below = ref [] in
      Dir.walk dev ~ino
        ~on_page:(fun p -> pages := p :: !pages)
        ~on_dentry:(fun de ->
          if de.Dir.de_coffer = 0 then
            below := subtree_pages t dev ~ino:de.Dir.de_inode !below);
      !below @ !pages @ acc

(* Turn a page list (byte addresses) into page-number runs. *)
let runs_of_pages pages =
  let sorted = List.sort_uniq compare (List.map (fun a -> a / Layout.page_size) pages) in
  let rec go acc = function
    | [] -> List.rev acc
    | p :: rest -> (
        match acc with
        | (start, len) :: tl when start + len = p -> go ((start, len + 1) :: tl) rest
        | _ -> go ((p, 1) :: acc) rest)
  in
  go [] sorted

let rename t src dst : unit Ui.outcome =
  if src = dst then Ok ()
  else if Pathx.is_prefix ~prefix:src dst then Ui.errno E.EINVAL
  else
    let* spcs, sdir, _sdirpath, sbase = walk_parent t src in
    (* The walk to the destination must not evict the source's parent. *)
    with_pinned spcs @@ fun () ->
    let* dpcs, ddir, ddirpath, dbase = walk_parent_follow t dst in
    if not (spcs.cs_map.K.m_writable && dpcs.cs_map.K.m_writable) then Ui.errno E.EACCES
    else
      match find_dentry t spcs ~dir_ino:sdir sbase with
      | Error e -> Error (Ui.Errno e)
      | Ok de -> (
          (* Displace an existing destination (files only). *)
          let* () =
            match find_dentry t dpcs ~dir_ino:ddir dbase with
            | Error E.ENOENT -> Ok ()
            | Error e -> Error (Ui.Errno e)
            | Ok dde ->
                if dde.Dir.de_kind = Layout.kind_directory then
                  Ui.errno E.EISDIR
                else unlink t (Pathx.concat ddirpath dbase)
          in
          let dst_path = Pathx.concat ddirpath dbase in
          if de.Dir.de_coffer <> 0 then begin
            (* The moved file is a coffer root: rename the coffer (and all
               descendant coffer paths) in the kernel, then move the
               dentry. *)
            match K.coffer_rename t.kfs de.Dir.de_coffer ~new_path:dst_path with
            | Error e -> Error (Ui.Errno e)
            | Ok () ->
                (* Fix the user-space path caches for every session under
                   the old prefix. *)
                let old_prefix = Pathx.normalize src in
                Hashtbl.iter
                  (fun _ cs ->
                    if Pathx.is_prefix ~prefix:old_prefix cs.cs_path then begin
                      Hashtbl.remove t.by_path cs.cs_path;
                      cs.cs_path <-
                        Pathx.replace_prefix ~old_prefix ~new_prefix:dst_path
                          cs.cs_path;
                      Hashtbl.replace t.by_path cs.cs_path cs.cs_cid
                    end)
                  t.sessions;
                let* () =
                  match
                    insert_dentry t dpcs ~dir_ino:ddir ~name:dbase
                      ~kind:
                        (match Inode.kind_of_code de.Dir.de_kind with
                        | Some k -> k
                        | None -> Inode.Regular)
                      ~coffer:de.Dir.de_coffer ~inode:de.Dir.de_inode
                  with
                  | Ok () -> Ok ()
                  | Error e -> Error (Ui.Errno e)
                in
                (match remove_dentry_locked t spcs ~dir_ino:sdir sbase with
                | Ok () -> Ok ()
                | Error e -> Error (Ui.Errno e))
          end
          else if spcs.cs_cid = dpcs.cs_cid then begin
            (* Cheap case: both directories live in the same coffer — move
               the dentry. *)
            let kind =
              match Inode.kind_of_code de.Dir.de_kind with
              | Some k -> k
              | None -> Inode.Regular
            in
            let* () =
              match
                insert_dentry t dpcs ~dir_ino:ddir ~name:dbase ~kind
                  ~coffer:0 ~inode:de.Dir.de_inode
              with
              | Ok () -> Ok ()
              | Error e -> Error (Ui.Errno e)
            in
            match remove_dentry_locked t spcs ~dir_ino:sdir sbase with
            | Ok () -> Ok ()
            | Error e -> Error (Ui.Errno e)
          end
          else begin
            (* The worst case (paper §6.4): moving a plain file into a
               directory owned by a different coffer.  The pages must change
               coffer: split them out of the source coffer and merge them
               into the destination's. *)
            if de.Dir.de_kind = Layout.kind_directory then Ui.errno E.EXDEV
            else begin
              let ino = de.Dir.de_inode in
              let pages =
                with_coffer t spcs ~write:false (fun () ->
                    if de.Dir.de_kind = Layout.kind_regular then
                      ino :: File.data_pages t.dev ~ino
                    else [ ino ])
              in
              (* Stage 1: split the file's pages into a transient coffer
                 with the destination coffer's permission. *)
              let tmp_custom =
                with_coffer t spcs ~write:true (fun () ->
                    Balloc.alloc_page spcs.cs_balloc)
              in
              match tmp_custom with
              | Error e -> Error (Ui.Errno e)
              | Ok custom -> (
                  with_coffer t spcs ~write:true (fun () ->
                      Balloc.format t.dev ~custom);
                  let tmp_path = dst_path ^ ".zofs-mv" in
                  match
                    K.coffer_split t.kfs ~src:spcs.cs_cid ~new_path:tmp_path
                      ~ctype ~mode:dpcs.cs_mode ~uid:dpcs.cs_uid
                      ~gid:dpcs.cs_gid
                      ~runs:(runs_of_pages (custom :: pages))
                      ~root_file:ino ~custom
                  with
                  | Error e -> Error (Ui.Errno e)
                  | Ok info -> (
                      (* Stage 2: link the destination name *first*, as a
                         cross-coffer reference to the transient coffer, and
                         only then unlink the source and merge.  At every
                         crash point at least one durable name reaches the
                         file: before the link the transient coffer's
                         registered scratch path is the breadcrumb; after
                         the merge the destination dentry is, and the only
                         remaining fixup is retargeting its coffer field —
                         which recovery can redo from page ownership. *)
                      let kind =
                        match Inode.kind_of_code de.Dir.de_kind with
                        | Some k -> k
                        | None -> Inode.Regular
                      in
                      let* () =
                        match
                          insert_dentry t dpcs ~dir_ino:ddir ~name:dbase
                            ~kind ~coffer:info.Coffer.id ~inode:ino
                        with
                        | Ok () -> Ok ()
                        | Error e -> Error (Ui.Errno e)
                      in
                      let* () =
                        match
                          remove_dentry_locked t spcs ~dir_ino:sdir sbase
                        with
                        | Ok () -> Ok ()
                        | Error e -> Error (Ui.Errno e)
                      in
                      (* Stage 3: merge the transient coffer into the
                         destination coffer and retarget the dentry to the
                         now-local inode. *)
                      match
                        K.coffer_merge t.kfs ~dst:dpcs.cs_cid
                          ~src:info.Coffer.id
                      with
                      | Error e -> Error (Ui.Errno e)
                      | Ok () ->
                          with_coffer t dpcs ~write:true (fun () ->
                              (match
                                 Dir.retarget t.dev ~ino:ddir dbase ~coffer:0
                                   ~inode:ino
                               with
                              | Ok () | Error _ -> ());
                              (* The custom page of the transient coffer is
                                 now an ordinary page of dst's coffer. *)
                              Balloc.free_page dpcs.cs_balloc custom);
                          Ok ()))
            end
          end)

(* ---- chmod / chown ----------------------------------------------------------- *)

let apply_perm_change t path ~new_mode ~new_uid ~new_gid : unit Ui.outcome =
  let* r = walk t path ~follow_last:true in
  let cs = r.r_cs in
  let cur_uid, cur_gid =
    Race.intentional_racy t.dev ~site:"inode.lockfree-perm-read"
      ~justification:
        "chmod/chown reads the current owner/mode without the inode lease \
         to fill in unchanged fields; a concurrent perm change is a \
         last-writer-wins race POSIX already exposes, and rw-bit changes \
         are serialized by the kernel coffer_chmod path"
      (fun () ->
        with_coffer t cs ~write:false (fun () ->
            (Inode.uid t.dev ~ino:r.r_ino, Inode.gid t.dev ~ino:r.r_ino)))
  in
  let mode = match new_mode with Some m -> m | None ->
    Race.intentional_racy t.dev ~site:"inode.lockfree-perm-read"
      ~justification:
        "chmod/chown reads the current owner/mode without the inode lease \
         to fill in unchanged fields; a concurrent perm change is a \
         last-writer-wins race POSIX already exposes, and rw-bit changes \
         are serialized by the kernel coffer_chmod path"
      (fun () ->
        with_coffer t cs ~write:false (fun () -> Inode.mode t.dev ~ino:r.r_ino))
  in
  let uid = Option.value ~default:cur_uid new_uid in
  let gid = Option.value ~default:cur_gid new_gid in
  let c = cred () in
  if c.Ft.uid <> 0 && c.Ft.uid <> cur_uid then Ui.errno E.EPERM
  else if t.variant.one_coffer then begin
    (* ZoFS-1coffer: permissions live only in the inode; everything is
       handled in user space (paper §6.4). *)
    if not cs.cs_map.K.m_writable then Ui.errno E.EACCES
    else begin
      with_coffer t cs ~write:true (fun () ->
          Inode.set_mode t.dev ~ino:r.r_ino mode;
          Inode.set_owner t.dev ~ino:r.r_ino ~uid ~gid);
      Ok ()
    end
  end
  else if same_perm_as_coffer cs ~mode ~uid ~gid then begin
    (* Only non-rw bits changed: a pure user-space inode update. *)
    with_coffer t cs ~write:true (fun () ->
        Inode.set_mode t.dev ~ino:r.r_ino mode;
        Inode.set_owner t.dev ~ino:r.r_ino ~uid ~gid);
    Ok ()
  end
  else if r.r_ino = cs.cs_map.K.m_root_file then begin
    (* The file is a coffer root: change the coffer's permission in the
       kernel. *)
    match K.coffer_chmod t.kfs cs.cs_cid ~mode ~uid ~gid with
    | Error e -> Error (Ui.Errno e)
    | Ok () -> (
        (* The kernel unmapped the coffer from everyone; remap. *)
        let finish_inode () =
          match map_coffer t cs.cs_cid with
          | Ok ncs ->
              with_coffer t ncs ~write:true (fun () ->
                  Inode.set_mode t.dev ~ino:r.r_ino mode;
                  Inode.set_owner t.dev ~ino:r.r_ino ~uid ~gid);
              Ok (Some ncs)
          | Error _ ->
              (* We may no longer have access under the new permission; the
                 change itself succeeded. *)
              Ok None
        in
        match finish_inode () with
        | Error e -> Error (Ui.Errno e)
        | Ok None -> Ok ()
        | Ok (Some ncs) ->
            (* If the new permission matches the parent directory's coffer,
               the split is no longer needed: merge back (coffer_merge,
               paper §3.3) and turn the dentry into a same-coffer entry. *)
            if r.r_path = "/" then Ok ()
            else (
              match walk_parent t r.r_path with
              | Error _ -> Ok ()
              | Ok (pcs, dir_ino, _, base) ->
                  if
                    pcs.cs_cid <> ncs.cs_cid
                    && same_perm_as_coffer pcs ~mode ~uid ~gid
                  then begin
                    let custom = ncs.cs_map.K.m_custom in
                    forget_session t ncs;
                    match K.coffer_merge t.kfs ~dst:pcs.cs_cid ~src:ncs.cs_cid with
                    | Error _ -> Ok () (* split state remains; still correct *)
                    | Ok () ->
                        let retargeted =
                          with_coffer t pcs ~write:true (fun () ->
                              with_inode_lease t ~balloc:pcs.cs_balloc
                                ~ino:dir_ino (fun () ->
                                  Dir.retarget t.dev ~ino:dir_ino base ~coffer:0
                                    ~inode:r.r_ino))
                        in
                        (match retargeted with
                        | Ok () ->
                            (* the old custom page is now an ordinary page of
                               the parent coffer *)
                            with_coffer t pcs ~write:true (fun () ->
                                Balloc.free_page pcs.cs_balloc
                                  (custom / Layout.page_size * Layout.page_size));
                            Ok ()
                        | Error e -> Error (Ui.Errno e))
                  end
                  else Ok ()))
  end
  else begin
    (* The expensive path (paper §6.4, Table 9): split the file's pages into
       a brand-new coffer with the new permission. *)
    let* pcs, dir_ino, _, base = walk_parent t path in
    let custom_r =
      with_coffer t cs ~write:true (fun () -> Balloc.alloc_page cs.cs_balloc)
    in
    match custom_r with
    | Error e -> Error (Ui.Errno e)
    | Ok custom -> (
        with_coffer t cs ~write:true (fun () -> Balloc.format t.dev ~custom);
        let pages =
          Race.intentional_racy t.dev ~site:"inode.lockfree-subtree-scan"
            ~justification:
              "coffer-split page census walks the subtree without leases; \
               the kernel's coffer_split re-validates the run list against \
               its own page ownership map, so a concurrent mutation can \
               only fail the split, never corrupt ownership"
            (fun () ->
              with_coffer t cs ~write:false (fun () ->
                  subtree_pages t t.dev ~ino:r.r_ino []))
        in
        match
          K.coffer_split t.kfs ~src:cs.cs_cid ~new_path:r.r_path ~ctype ~mode
            ~uid ~gid
            ~runs:(runs_of_pages (custom :: pages))
            ~root_file:r.r_ino ~custom
        with
        | Error e -> Error (Ui.Errno e)
        | Ok info -> (
            (* Point the parent dentry at the new coffer. *)
            let retargeted =
              with_coffer t pcs ~write:true (fun () ->
                  with_inode_lease t ~balloc:pcs.cs_balloc ~ino:dir_ino
                    (fun () ->
                      Dir.retarget t.dev ~ino:dir_ino base
                        ~coffer:info.Coffer.id ~inode:r.r_ino))
            in
            match retargeted with
            | Error e -> Error (Ui.Errno e)
            | Ok () -> (
                match map_coffer t info.Coffer.id with
                | Ok ncs ->
                    with_coffer t ncs ~write:true (fun () ->
                        Inode.set_mode t.dev ~ino:r.r_ino mode;
                        Inode.set_owner t.dev ~ino:r.r_ino ~uid ~gid);
                    Ok ()
                | Error _ -> Ok ())))
  end

let chmod t path mode = apply_perm_change t path ~new_mode:(Some mode) ~new_uid:None ~new_gid:None
let chown t path uid gid =
  apply_perm_change t path ~new_mode:None ~new_uid:(Some uid) ~new_gid:(Some gid)

(* ---- handle operations -------------------------------------------------------- *)

let close t h =
  let* hd = handle t h in
  Hashtbl.remove t.handles h;
  (* A deleted coffer's count is gone already ([unlink], [rmdir]). *)
  (match open_refs t hd.h_cid with
  | 0 -> ()
  | 1 -> Hashtbl.remove t.refs hd.h_cid
  | n -> Hashtbl.replace t.refs hd.h_cid (n - 1));
  Ok ()

let read t h ~off buf boff len =
  let* hd = handle t h in
  if not hd.h_readable then Error E.EBADF
  else
    let* cs = handle_session t hd in
    Race.intentional_racy t.dev ~site:"file.lockfree-read"
      ~justification:
        "read() takes no lease (the ZoFS disjoint-access fast path); \
         writers flush data pages and size before their lease-release \
         fence, so a racing read sees either the old or new bytes of each \
         word — torn reads across an in-flight write are the documented \
         POSIX-relaxation the paper accepts for lock-free reads"
      (fun () ->
        with_coffer t cs ~write:false (fun () ->
            File.read t.dev ~ino:hd.h_ino ~off buf boff len))

let write t h ~off data =
  let* hd = handle t h in
  if not hd.h_writable then Error E.EBADF
  else
    let* cs = handle_session t hd in
    if not cs.cs_map.K.m_writable then Error E.EACCES
    else begin
      (* Figure 8 variants: ZoFS-sysempty pays an empty system call per
         write; ZoFS-kwrite runs the write body in kernel context. *)
      if t.variant.sysempty then Treasury.Gate.empty_syscall (K.gate t.kfs);
      let body () =
        with_coffer t cs ~write:true (fun () ->
            with_inode_lease t ~balloc:cs.cs_balloc ~ino:hd.h_ino (fun () ->
                let real_off =
                  match off with
                  | `At o -> o
                  | `Append -> Inode.size t.dev ~ino:hd.h_ino
                in
                match File.write t.dev cs.cs_balloc ~ino:hd.h_ino ~off:real_off data with
                | Error e -> Error e
                | Ok n -> Ok (n, real_off + n)))
      in
      if t.variant.kwrite then
        Treasury.Gate.syscall (K.gate t.kfs) (fun () ->
            (* kernel implementation: argument validation + copy_from_user *)
            Sim.advance 300;
            body ())
      else body ()
    end

let fsync t h =
  (* ZoFS is synchronous: all updates are durable when the call returns. *)
  let* _ = handle t h in
  Sim.advance 20;
  Ok ()

let fstat t h =
  let* hd = handle t h in
  let* cs = handle_session t hd in
  Ok
    (Race.intentional_racy t.dev ~site:"inode.lockfree-stat"
       ~justification:stat_justification (fun () ->
         with_coffer t cs ~write:false (fun () ->
             Inode.stat t.dev ~ino:hd.h_ino)))

let ftruncate t h len =
  let* hd = handle t h in
  if not hd.h_writable then Error E.EBADF
  else
    let* cs = handle_session t hd in
    with_coffer t cs ~write:true (fun () ->
        with_inode_lease t ~balloc:cs.cs_balloc ~ino:hd.h_ino (fun () ->
            File.truncate t.dev cs.cs_balloc ~ino:hd.h_ino len))

(* Drop cached session state for [cid] (dispatcher callback after an online
   repair rewrote the coffer's structures).  The repair ran in this
   process, so KernFS kept this process's mapping and [live] cannot tell
   that the session's allocator state is stale.  Open handles into the
   coffer keep working — their next operation remaps it through
   [session_of_cid]. *)
let invalidate_coffer t cid =
  match Hashtbl.find_opt t.sessions cid with
  | Some cs ->
      forget_session t cs;
      ignore (K.coffer_unmap t.kfs cid);
      Obs.cnt "coffer.unmaps" 1
  | None -> ()
