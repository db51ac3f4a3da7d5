(* Offline recovery (paper §3.5 and §5.3).

   For each coffer: map it, start the kernel recovery protocol
   (coffer_recover_begin unmaps it from everyone else and leases it to us),
   traverse from the coffer root page, validate and collect every in-use
   page, repair what can be repaired and drop what cannot, then report the
   in-use set to KernFS, which reclaims the rest.  A final pass validates
   every cross-coffer reference recorded during the traversals (G3 at
   fsck time).

   Coffers are independent fault domains, so [recover_all] works through
   them on a pool of [pool_size] workers: the calling thread and helper
   processes, each with its own FSLib mapping (DESIGN.md §20).  Each coffer
   fills its own report and cross-reference list; they are merged in
   coffer order after every worker is done, so the findings and every
   later pass come out exactly as a one-by-one walk would give them.  A
   report's [user_ns] and [kernel_ns] are therefore sums over coffers,
   not elapsed time once coffers overlap; [wall_ns] is the elapsed time. *)

module K = Treasury.Kernfs
module E = Treasury.Errno
module Coffer = Treasury.Coffer

(* Structured record of every repair action recovery took — the crash model
   checker (lib/crashmc) uses these to explain a post-crash state, and a
   second recovery run proving a fixpoint must produce none. *)
type finding =
  | Dropped_dentry of { coffer : int; path : string }
      (* dentry pointed at a missing/corrupt inode and was cleared *)
  | Reinitialized_root of { coffer : int; path : string }
      (* coffer root inode unrecoverable; reset to an empty directory *)
  | Repaired_cross_ref of { coffer : int; path : string }
      (* cross-coffer dentry disagreed with the kernel path map; rewritten *)
  | Dropped_cross_ref of { coffer : int; path : string }
      (* cross-coffer dentry named a path with no registered coffer *)
  | Dropped_orphan_coffer of { coffer : int; path : string }
      (* registered coffer unreachable from any surviving dentry and not
         repairable: deleted, pages reclaimed *)
  | Reattached_coffer of { coffer : int; path : string }
      (* registered coffer with a healthy root but no referencing dentry
         (crash mid coffer-create or mid cross-coffer rename): a fresh
         dentry was inserted at its kernel-registered path *)
  | Freed_orphan_run of { owner : int; start : int; len : int }
      (* allocation-table run owned by an unregistered coffer id *)
  | Completed_migration of { coffer : int; path : string }
      (* transient "<dst>.zofs-mv" coffer from an in-flight cross-coffer
         rename: rolled forward (merged into the destination's coffer and
         linked at the destination path) *)
  | Cleared_intent of { coffer : int; ino : int }
      (* a thread died between recording a mutation intention and clearing
         it: the intention was applied (rolled forward/back, see Intent) and
         cleared, so a later online lease acquirer can never roll back
         post-fsck state *)

let finding_to_string = function
  | Dropped_dentry { coffer; path } ->
      Printf.sprintf "dropped dentry %s (coffer %d)" path coffer
  | Reinitialized_root { coffer; path } ->
      Printf.sprintf "reinitialized root of coffer %d (%s)" coffer path
  | Repaired_cross_ref { coffer; path } ->
      Printf.sprintf "repaired cross-coffer ref %s (from coffer %d)" path coffer
  | Dropped_cross_ref { coffer; path } ->
      Printf.sprintf "dropped cross-coffer ref %s (from coffer %d)" path coffer
  | Dropped_orphan_coffer { coffer; path } ->
      Printf.sprintf "dropped orphan coffer %d (%s)" coffer path
  | Reattached_coffer { coffer; path } ->
      Printf.sprintf "reattached orphan coffer %d at %s" coffer path
  | Freed_orphan_run { owner; start; len } ->
      Printf.sprintf "freed orphan run [%d,+%d) owned by %d" start len owner
  | Completed_migration { coffer; path } ->
      Printf.sprintf "completed migration of coffer %d to %s" coffer path
  | Cleared_intent { coffer; ino } ->
      Printf.sprintf "cleared stale intention on inode 0x%x (coffer %d)" ino
        coffer

type report = {
  mutable coffers_scanned : int;
  mutable pages_in_use : int;
  mutable pages_reclaimed : int;
  mutable cross_refs_checked : int;
  mutable findings : finding list;  (* reverse chronological *)
  mutable above_hwm : (string * int) list;
      (* with [~audit]: valid inline dentries at or above their page's hwm,
         as (directory path, slot address), newest first *)
  mutable user_ns : int;  (* simulated user-space time, summed over coffers *)
  mutable kernel_ns : int;  (* simulated kernel time, summed over coffers *)
  mutable wall_ns : int;  (* elapsed simulated time of recover_all *)
}

let fresh_report () =
  {
    coffers_scanned = 0;
    pages_in_use = 0;
    pages_reclaimed = 0;
    cross_refs_checked = 0;
    findings = [];
    above_hwm = [];
    user_ns = 0;
    kernel_ns = 0;
    wall_ns = 0;
  }

let add_finding report f = report.findings <- f :: report.findings

let findings report = List.rev report.findings

(* How many findings of one kind the report holds. *)
let count report kind = List.length (List.filter kind report.findings)

let dentries_dropped r =
  count r (function Dropped_dentry _ -> true | _ -> false)

let inodes_reinitialized r =
  count r (function Reinitialized_root _ -> true | _ -> false)

let cross_refs_repaired r =
  count r (function Repaired_cross_ref _ -> true | _ -> false)

let cross_refs_dropped r =
  count r (function Dropped_cross_ref _ -> true | _ -> false)

let orphan_coffers_dropped r =
  count r (function Dropped_orphan_coffer _ -> true | _ -> false)

let orphan_coffers_reattached r =
  count r (function Reattached_coffer _ -> true | _ -> false)

(* fsck's audit of the hwm invariant (DESIGN.md §19).  No reader sees a
   dentry above its page's hwm, recovery included, so its file is lost to
   the namespace; the protocol never leaves one, so each is damage to the
   first-level slot (a lowered hwm) or a stray store. *)
let hwm_audit report = List.rev report.above_hwm

type cross_ref = {
  xr_src_cid : int;
  xr_dentry : int;  (* dentry byte address *)
  xr_expected_path : string;
  xr_target_cid : int;
  xr_target_inode : int;
}

let page_of addr = addr / Layout.page_size

(* Does one of [runs] (disjoint [(start, len)] page runs, sorted by start)
   hold [page]?  A binary search over the runs. *)
let in_runs runs page =
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      let start, len = runs.(mid) in
      if page < start then go lo mid
      else if page >= start + len then go (mid + 1) hi
      else true
  in
  go 0 (Array.length runs)

(* Traverse one coffer, collecting in-use pages and cross-coffer refs;
   corrupted dentries are cleared, a corrupted root inode is reinitialized
   as an empty directory.  [runs] are the coffer's page runs as
   coffer_recover_begin handed them over, sorted by start: while the coffer
   is in recovery no other process can map it or change what it owns, and
   the scan allocates and frees nothing, so they answer "does this coffer
   own the page?" for every pointer followed without a system call.
   [prefault] (given when the coffer was mapped lazily) installs pages
   ahead of the scan, one kernel entry per batch: each directory's
   second-level pages, then the inode pages of its same-coffer children.
   Every other page the scan reads faults in on first touch, and the pages
   it never reads (file data) stay pending.  With [audit], each directory
   the scan reads also has the inline slots above its pages' hwms read
   for [report.above_hwm]; a fault there only ends the audit of that
   directory. *)
let scan_coffer ?prefault ~audit dev kfs report ~runs (info : Coffer.info)
    xrefs =
  let cid = info.Coffer.id in
  let in_use : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let mark addr = Hashtbl.replace in_use (page_of addr) () in
  let owned addr = in_runs runs (page_of addr) in
  let drop_dentry (de, child_path) =
    Dir.clear_dentry dev de.Dir.de_addr;
    add_finding report (Dropped_dentry { coffer = cid; path = child_path })
  in
  (* A fault while traversing (a torn pointer into an unmapped page — the
     simulated SIGSEGV of §3.4.2) marks the inode unrecoverable, like any
     other corruption: the referencing dentry is dropped. *)
  let rec scan_inode ino cur_path =
    try scan_inode_body ino cur_path with Nvm.Fault _ -> false
  and scan_inode_body ino cur_path =
    if (not (owned ino)) || not (Inode.valid dev ~ino) then false
    else begin
      mark ino;
      (* A mutation intention still recorded here means its writer died
         mid-operation: apply it now (same repair an online lease stealer
         would run), before trusting size / dentries below. *)
      if Intent.pending dev ~ino then begin
        ignore (Intent.repair dev ~ino);
        add_finding report (Cleared_intent { coffer = cid; ino })
      end;
      (match Inode.kind dev ~ino with
      | Some Inode.Regular ->
          List.iter
            (fun p -> if owned p then mark p)
            (File.data_pages dev ~ino)
      | Some Inode.Symlink -> ()
      | Some Inode.Directory ->
          (* The whole directory is read before any page is marked or any
             child scanned: a fault in its index drops it untouched. *)
          let pages = ref [] and children = ref [] in
          Dir.walk ?prefault dev ~ino
            ~on_page:(fun p -> pages := p :: !pages)
            ~on_dentry:(fun de -> children := de :: !children);
          List.iter (fun p -> if owned p then mark p) !pages;
          if audit then begin
            try
              List.iter
                (fun a -> report.above_hwm <- (cur_path, a) :: report.above_hwm)
                (Dir.above_hwm dev ~ino)
            with Nvm.Fault _ -> ()
          end;
          Option.iter
            (fun f ->
              f
                (List.filter_map
                   (fun de ->
                     if de.Dir.de_coffer = 0 && owned de.Dir.de_inode then
                       Some de.Dir.de_inode
                     else None)
                   !children))
            prefault;
          let to_drop = ref [] in
          List.rev !children
          |> List.iter (fun de ->
              let child_path = Treasury.Pathx.concat cur_path de.Dir.de_name in
              if de.Dir.de_coffer <> 0 then begin
                let registered =
                  match K.coffer_stat kfs de.Dir.de_coffer with
                  | Ok _ -> true
                  | Error _ -> false
                in
                if (not registered) && owned de.Dir.de_inode then begin
                  (* A cross-coffer rename that crashed after its merge but
                     before the dentry retarget: the transient coffer is
                     gone and the inode's pages already belong to this
                     coffer.  Finish the retarget and scan the file as
                     local. *)
                  (match
                     Dir.retarget dev ~ino de.Dir.de_name ~coffer:0
                       ~inode:de.Dir.de_inode
                   with
                  | Ok () | Error _ -> ());
                  add_finding report
                    (Repaired_cross_ref { coffer = cid; path = child_path });
                  if not (scan_inode de.Dir.de_inode child_path) then
                    to_drop := (de, child_path) :: !to_drop
                end
                else
                  (* Cross-coffer: validated in the second pass. *)
                  xrefs :=
                    {
                      xr_src_cid = cid;
                      xr_dentry = de.Dir.de_addr;
                      xr_expected_path = child_path;
                      xr_target_cid = de.Dir.de_coffer;
                      xr_target_inode = de.Dir.de_inode;
                    }
                    :: !xrefs
              end
              else if not (scan_inode de.Dir.de_inode child_path) then
                to_drop := (de, child_path) :: !to_drop);
          List.iter drop_dentry !to_drop
      | None -> ());
      true
    end
  in
  let root_file = info.Coffer.root_file in
  if not (scan_inode root_file info.Coffer.path) then begin
    (* The coffer's root inode is unrecoverable: reinitialize it empty,
       with the permission KernFS keeps for the coffer. *)
    Inode.init dev ~ino:root_file ~kind:Inode.Directory ~mode:info.Coffer.mode
      ~uid:info.Coffer.uid ~gid:info.Coffer.gid;
    add_finding report
      (Reinitialized_root { coffer = cid; path = info.Coffer.path });
    Hashtbl.replace in_use (page_of root_file) ()
  end;
  in_use

(* Recover a single coffer; the caller must be able to map it (recovery runs
   as root).  The map is lazy (header pages installed), so the scan pays
   only for the pages it reads and the pages it frees are still pending
   when [coffer_recover_end] tears them down.  Returns true when the coffer
   was scanned and left readable.

   The report's user/kernel split (§6.5): every kernel entry from the map
   to the end of the scan (the map, [coffer_recover_begin], the scan's
   prefaults and demand faults) is kernel time, by the gate's count of the
   calling thread's time in the kernel; the rest of that span is user
   time; everything after the scan ([coffer_recover_end] and the
   allocator reset) is kernel time. *)
let recover_coffer ?(audit = false) ufs kfs report xrefs (info : Coffer.info) =
  let dev = K.device kfs in
  (* A crash during coffer creation can leave the custom (allocator) page
     unformatted; mapping would refuse to attach to it.  Its entire content
     is rebuilt after the scan anyway, so reformat it up front (kernel mode:
     the coffer is not mapped yet). *)
  let mpk = K.mpk kfs in
  Mpk.with_kernel mpk (fun () ->
      (* An unreadable magic (media error) is as bad as a wrong one: the
         rebuild's stores scrub non-sticky poison off the page. *)
      let magic_ok =
        try
          Nvm.Device.read_u32 dev (info.Coffer.custom + Layout.c_magic)
          = Layout.custom_magic
        with Nvm.Fault { kind = Nvm.Media; _ } -> false
      in
      if not magic_ok then
        Mpk.with_write_window mpk (fun () ->
            Balloc.format dev ~custom:info.Coffer.custom));
  let gate = K.gate kfs in
  let t_map = Sim.now () and k_map = Treasury.Gate.kernel_ns gate in
  match Ufs.map_coffer ~populate:false ufs info.Coffer.id with
  | Error _ -> false
  | Ok cs -> (
      match K.coffer_recover_begin kfs info.Coffer.id with
      | Error _ -> false
      | Ok runs ->
          let total_pages =
            List.fold_left (fun acc (_, l) -> acc + l) 0 runs
          in
          let in_use =
            Ufs.with_coffer ufs cs ~write:true (fun () ->
                scan_coffer
                  ?prefault:(Ufs.prefault_hook ufs cs)
                  ~audit dev kfs report ~runs:(Array.of_list runs) info xrefs)
          in
          Hashtbl.replace in_use (page_of info.Coffer.custom) ();
          let t_scan = Sim.now () in
          let k_scan = Treasury.Gate.kernel_ns gate - k_map in
          let pages = Hashtbl.fold (fun p () acc -> p :: acc) in_use [] in
          (match K.coffer_recover_end kfs info.Coffer.id ~in_use:pages with
          | Ok () -> ()
          | Error _ -> ());
          (* Reset the allocator: freed pages went back to KernFS. *)
          Ufs.with_coffer ufs cs ~write:true (fun () ->
              Balloc.format dev ~custom:info.Coffer.custom);
          let t_end = Sim.now () in
          report.coffers_scanned <- report.coffers_scanned + 1;
          report.pages_in_use <- report.pages_in_use + List.length pages;
          report.pages_reclaimed <-
            report.pages_reclaimed + (total_pages - 1 - List.length pages);
          report.user_ns <- report.user_ns + (t_scan - t_map - k_scan);
          report.kernel_ns <- report.kernel_ns + k_scan + (t_end - t_scan);
          (* Probe: the scan drops structures it cannot read, but a sticky
             media error on a page recovery itself rewrites (the root inode,
             the allocator's custom page) survives the stores.  Re-read
             those lines so a still-faulting coffer fails its recovery —
             letting the dispatcher quarantine it — instead of looping
             fault -> "successful" repair -> fault on every later op. *)
          try
            Ufs.with_coffer ufs cs ~write:false (fun () ->
                ignore (Inode.valid dev ~ino:info.Coffer.root_file);
                let a = ref info.Coffer.custom in
                while !a < info.Coffer.custom + Layout.page_size do
                  ignore (Nvm.Device.read_u64 dev !a);
                  a := !a + 64
                done);
            true
          with Nvm.Fault { kind = Nvm.Media; _ } -> false)

(* Validate the recorded cross-coffer references against KernFS metadata
   (G3 at fsck time).  The path map is kernel-maintained and trusted, so a
   manipulated dentry whose path still names a registered coffer is
   repaired from it; a dentry whose target coffer is gone is dropped. *)
let validate_cross_refs ufs kfs report xrefs =
  let dev = K.device kfs in
  List.iter
    (fun xr ->
      report.cross_refs_checked <- report.cross_refs_checked + 1;
      let ok =
        match K.coffer_stat kfs xr.xr_target_cid with
        | Error _ -> false
        | Ok tinfo ->
            tinfo.Coffer.path = xr.xr_expected_path
            && tinfo.Coffer.root_file = xr.xr_target_inode
      in
      if not ok then begin
        match Ufs.session_of_cid ufs xr.xr_src_cid with
        | Error _ -> ()
        | Ok cs -> (
            let true_target =
              match K.coffer_find kfs xr.xr_expected_path with
              | Error _ -> None
              | Ok cid -> (
                  match K.coffer_stat kfs cid with
                  | Ok tinfo -> Some (cid, tinfo.Coffer.root_file)
                  | Error _ -> None)
            in
            match true_target with
            | Some (cid, root_file) ->
                Ufs.with_coffer ufs cs ~write:true (fun () ->
                    Nvm.Device.write_u64 dev
                      (xr.xr_dentry + Layout.d_coffer)
                      cid;
                    Nvm.Device.write_u64 dev (xr.xr_dentry + Layout.d_inode)
                      root_file;
                    Nvm.Device.persist_range dev
                      (xr.xr_dentry + Layout.d_coffer)
                      16);
                add_finding report
                  (Repaired_cross_ref
                     { coffer = xr.xr_src_cid; path = xr.xr_expected_path })
            | None ->
                Ufs.with_coffer ufs cs ~write:true (fun () ->
                    Dir.clear_dentry dev xr.xr_dentry);
                add_finding report
                  (Dropped_cross_ref
                     { coffer = xr.xr_src_cid; path = xr.xr_expected_path }))
      end)
    xrefs

(* A registered coffer that no surviving cross-coffer dentry reaches from
   the root is an orphan: the residue of a sub-coffer creation whose parent
   dentry never became durable, or of a cross-coffer rename crashed between
   the kernel path-map update and the dentry moves.  The kernel path map is
   the trusted side of G3, so if the coffer's root inode is healthy we
   repair the user-space namespace from it — insert a fresh dentry at the
   registered path.  A coffer whose root had to be reinitialized (nothing
   recoverable inside) is deleted instead, and KernFS reclaims its pages.
   Reachability is a fixpoint so a whole torn subtree cascades. *)
let orphan_coffer_pass ufs kfs report xrefs =
  match K.list_coffers kfs with
  | Error _ -> ()
  | Ok coffers ->
      let dev = K.device kfs in
      let reachable = Hashtbl.create 16 in
      Hashtbl.replace reachable (K.root_coffer kfs) ();
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun xr ->
            if Hashtbl.mem reachable xr.xr_src_cid then
              match K.coffer_find kfs xr.xr_expected_path with
              | Ok cid when not (Hashtbl.mem reachable cid) ->
                  Hashtbl.replace reachable cid ();
                  changed := true
              | Ok _ | Error _ -> ())
          xrefs
      done;
      let reinitialized =
        List.filter_map
          (function Reinitialized_root { coffer; _ } -> Some coffer | _ -> None)
          report.findings
      in
      let delete (c : Coffer.info) =
        let free_before = K.free_pages kfs in
        match K.coffer_delete kfs c.Coffer.id with
        | Ok () ->
            report.pages_reclaimed <-
              report.pages_reclaimed + (K.free_pages kfs - free_before);
            add_finding report
              (Dropped_orphan_coffer
                 { coffer = c.Coffer.id; path = c.Coffer.path })
        | Error _ -> ()
      in
      let attach_attempt (c : Coffer.info) =
          match Ufs.session_of_cid ufs c.Coffer.id with
          | Error _ -> false
          | Ok cs -> (
              let root = c.Coffer.root_file in
              let healthy =
                (not (List.mem c.Coffer.id reinitialized))
                && Ufs.with_coffer ufs cs ~write:false (fun () ->
                       Inode.valid dev ~ino:root
                       && Inode.kind dev ~ino:root <> None)
              in
              if not healthy then false
              else
                match Ufs.walk_parent ufs c.Coffer.path with
                | Error _ -> false
                | Ok (pcs, dir_ino, _, base) -> (
                    let kind =
                      Ufs.with_coffer ufs cs ~write:false (fun () ->
                          Inode.kind_exn dev ~ino:root)
                    in
                    match
                      Ufs.insert_dentry ufs pcs ~dir_ino ~name:base ~kind
                        ~coffer:c.Coffer.id ~inode:root
                    with
                    | Ok () ->
                        add_finding report
                          (Reattached_coffer
                             { coffer = c.Coffer.id; path = c.Coffer.path });
                        true
                    | Error E.EEXIST ->
                        (* A dentry for this name already exists; if it
                           points at this coffer the namespace is already
                           whole (a parent reattached above us). *)
                        Ufs.with_coffer ufs pcs ~write:false (fun () ->
                            match Dir.lookup dev ~ino:dir_ino base with
                            | Some de -> de.Dir.de_coffer = c.Coffer.id
                            | None -> false)
                    | Error _ -> false))
      in
      let reattach (c : Coffer.info) =
        (* As in the scans, a fault while probing the orphan means it is
           not repairable. *)
        let attached = try attach_attempt c with Nvm.Fault _ -> false in
        if not attached then delete c
      in
      coffers
      |> List.filter (fun c -> not (Hashtbl.mem reachable c.Coffer.id))
      (* Shallowest-first, so a reattached parent makes its children's
         parent walks resolve. *)
      |> List.sort (fun a b -> compare a.Coffer.path b.Coffer.path)
      |> List.iter reattach

(* An in-flight cross-coffer file rename (paper §6.4) moves the file's pages
   through a transient coffer registered at "<dst>.zofs-mv"; a crash between
   the split and the final dentry updates leaves that coffer behind.  The
   scratch path records the destination and the pages are already inside the
   transient coffer, so the rename is rolled *forward*: merge into the
   destination directory's coffer and link the destination dentry.  The
   stale source dentry needs no action here — its inode's pages left the
   source coffer at the split, so the ordinary per-coffer scan drops it.
   Runs before the scans so the destination scan sees the merged pages as
   referenced. *)
let mv_suffix = ".zofs-mv"

let migration_pass ufs kfs report =
  match K.list_coffers kfs with
  | Error _ -> ()
  | Ok coffers ->
      let dev = K.device kfs in
      List.iter
        (fun (c : Coffer.info) ->
          if Filename.check_suffix c.Coffer.path mv_suffix then begin
            let finish () =
              let final = Filename.chop_suffix c.Coffer.path mv_suffix in
              match Ufs.session_of_cid ufs c.Coffer.id with
              | Error _ -> false
              | Ok cs -> (
                  let root = c.Coffer.root_file in
                  let kind =
                    Ufs.with_coffer ufs cs ~write:false (fun () ->
                        if Inode.valid dev ~ino:root then
                          Inode.kind dev ~ino:root
                        else None)
                  in
                  match kind with
                  | None -> false
                  | Some kind -> (
                      match Ufs.walk_parent ufs final with
                      | Error _ -> false
                      | Ok (pcs, dir_ino, _, base) -> (
                          (* The rename may have linked the destination
                             name (as a cross-ref to the transient coffer)
                             before the crash. *)
                          let existing =
                            Ufs.with_coffer ufs pcs ~write:false (fun () ->
                                Dir.lookup dev ~ino:dir_ino base)
                          in
                          match
                            K.coffer_merge kfs ~dst:pcs.Ufs.cs_cid
                              ~src:c.Coffer.id
                          with
                          | Error _ -> false
                          | Ok () -> (
                              match existing with
                              | Some de when de.Dir.de_coffer = c.Coffer.id
                                ->
                                  Ufs.with_coffer ufs pcs ~write:true
                                    (fun () ->
                                      match
                                        Dir.retarget dev ~ino:dir_ino base
                                          ~coffer:0 ~inode:root
                                      with
                                      | Ok () ->
                                          (* The crashed rename may have died
                                             between committing this dentry
                                             and clearing its insert
                                             intention; this roll-forward
                                             supersedes the per-coffer scan's
                                             rollback, which would otherwise
                                             invalidate the dentry again. *)
                                          if Intent.pending dev ~ino:dir_ino
                                          then
                                            Intent.clear_durable dev
                                              ~ino:dir_ino;
                                          true
                                      | Error _ -> false)
                              | Some de ->
                                  de.Dir.de_coffer = 0
                                  && de.Dir.de_inode = root
                              | None -> (
                                  match
                                    Ufs.insert_dentry ufs pcs ~dir_ino
                                      ~name:base ~kind ~coffer:0 ~inode:root
                                  with
                                  | Ok () -> true
                                  | Error _ -> false)))))
            in
            let finished = try finish () with Nvm.Fault _ -> false in
            if finished then
              add_finding report
                (Completed_migration
                   { coffer = c.Coffer.id; path = c.Coffer.path })
            else begin
              (* Not repairable (torn beyond the protocol's invariants):
                 drop the scratch coffer rather than leak a ".zofs-mv" name
                 into the namespace. *)
              match K.coffer_delete kfs c.Coffer.id with
              | Ok () ->
                  add_finding report
                    (Dropped_orphan_coffer
                       { coffer = c.Coffer.id; path = c.Coffer.path })
              | Error _ -> ()
            end
          end)
        coffers

(* Workers of the offline scan: the calling thread and [pool_size - 1]
   helper processes.  Past four, read-large's 22 coffers recover no faster
   (5.0 ms at four workers, 5.1 at eight): the root coffer's own scan is
   the floor. *)
let pool_size = 4

(* One coffer's share of the offline scan. *)
type job = {
  j_info : Coffer.info;
  j_report : report;
  j_xrefs : cross_ref list ref;
}

(* Fold a job's report (the fields [recover_coffer] writes) into the
   total; called in coffer order, so the findings and the cross-refs (both
   newest first) read as if the coffers had been scanned one after
   another. *)
let merge_job report xrefs j =
  let r = j.j_report in
  report.coffers_scanned <- report.coffers_scanned + r.coffers_scanned;
  report.pages_in_use <- report.pages_in_use + r.pages_in_use;
  report.pages_reclaimed <- report.pages_reclaimed + r.pages_reclaimed;
  report.findings <- r.findings @ report.findings;
  report.above_hwm <- r.above_hwm @ report.above_hwm;
  report.user_ns <- report.user_ns + r.user_ns;
  report.kernel_ns <- report.kernel_ns + r.kernel_ns;
  xrefs := !(j.j_xrefs) @ !xrefs

(* Scan every coffer that is not fenced off, in path order ("/" first, the
   largest coffer of a typical tree).  Workers pull from one shared queue;
   a helper is a process of its own, so it maps with its own MPK keys and
   page-table lock, and no sibling's eviction can unmap a coffer it is
   scanning.  One coffer spawns no helper. *)
let recover_coffers ~audit ufs kfs report xrefs =
  let jobs =
    match K.list_coffers kfs with
    | Error _ -> []
    | Ok coffers ->
        coffers
        |> List.sort (fun a b -> compare a.Coffer.path b.Coffer.path)
        (* Quarantined / offline coffers are fenced-off fault domains:
           their media keeps faulting under load, so rescanning them here
           would just re-drop the same structures every run.  Leave them
           alone; a fresh mount resets health and the next fsck (or the
           online repair path) re-assesses them. *)
        |> List.filter (fun (c : Coffer.info) ->
               match K.coffer_health kfs c.Coffer.id with
               | K.Quarantined | K.Offline -> false
               | K.Healthy | K.Suspect -> true)
        |> List.map (fun info ->
               {
                 j_info = info;
                 j_report = fresh_report ();
                 j_xrefs = ref [];
               })
  in
  let queue = ref jobs in
  let rec work ufs =
    match !queue with
    | [] -> ()
    | j :: rest ->
        queue := rest;
        ignore (recover_coffer ~audit ufs kfs j.j_report j.j_xrefs j.j_info);
        work ufs
  in
  let me = Sim.self_proc () in
  let helpers =
    List.init
      (max 0 (min (pool_size - 1) (List.length jobs - 1)))
      (fun i ->
        let proc =
          Sim.Proc.create ~uid:me.Sim.Proc.uid ~gid:me.Sim.Proc.gid
            ~groups:me.Sim.Proc.groups ()
        in
        Sim.fork ~proc ~name:(Printf.sprintf "recovery-%d" (i + 1)) (fun () ->
            (match K.fs_mount kfs with Ok () | Error _ -> ());
            work (Ufs.create kfs);
            match K.fs_umount kfs with Ok () | Error _ -> ()))
  in
  work ufs;
  List.iter Sim.join helpers;
  (* A helper's coffer_recover_begin unmapped its coffer from this process:
     a session the migration pass left behind is dead, and the next use
     remaps it. *)
  List.iter (merge_job report xrefs) jobs

(* Recover every coffer in the file system (offline: run as root with no
   other process active).  [audit] (fsck) also fills [hwm_audit]. *)
let recover_all ?(audit = false) kfs =
  let t0 = Sim.now () in
  (match K.fs_mount kfs with Ok () | Error _ -> ());
  let ufs = Ufs.create kfs in
  let report = fresh_report () in
  let xrefs = ref [] in
  migration_pass ufs kfs report;
  recover_coffers ~audit ufs kfs report xrefs;
  validate_cross_refs ufs kfs report !xrefs;
  orphan_coffer_pass ufs kfs report !xrefs;
  (* Pages owned by a coffer id the path map does not know (a torn
     make_coffer that never registered) are invisible to the per-coffer
     scans above; reclaim them from the allocation table directly. *)
  (match K.reclaim_orphan_runs kfs with
  | Error _ -> ()
  | Ok runs ->
      List.iter
        (fun (owner, start, len) ->
          report.pages_reclaimed <- report.pages_reclaimed + len;
          add_finding report (Freed_orphan_run { owner; start; len }))
        runs);
  (match K.fs_umount kfs with Ok () | Error _ -> ());
  report.wall_ns <- Sim.now () - t0;
  report

(* Scoped online fsck: recover exactly one coffer while the rest of the
   file system keeps serving — this is the dispatcher's repair callback
   after a media fault.  Same scan/reset machinery as the offline pass
   restricted to [cid]; coffer_recover_begin unmaps the coffer from every
   other process for the duration, and the initiator's own stale sessions
   were already invalidated by the dispatcher.  Returns true when the
   coffer came back consistent and readable. *)
let recover_one kfs cid =
  match K.coffer_stat kfs cid with
  | Error _ -> false
  | Ok info ->
      let ufs = Ufs.create kfs in
      let report = fresh_report () in
      let xrefs = ref [] in
      let ok = recover_coffer ufs kfs report xrefs info in
      if ok then validate_cross_refs ufs kfs report !xrefs;
      ok
