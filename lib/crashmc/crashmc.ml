(* crashmc: systematic crash-point enumeration with recovery replay.

   The device (lib/nvm) already models the machinery that makes NVM crash
   consistency hard: stores land in a volatile view and only reach the
   durable view through clwb/sfence (or nt-store + sfence), and a crash
   resolves each pending line independently.  This checker turns that into
   a model checker:

     1. [prepare] runs a workload's setup, persists it, and snapshots the
        device.  An in-memory oracle ({!Model}) mirrors the op list.
     2. A record pass replays the body from the snapshot and counts every
        persistence-level trace event (store / nt-store / clwb / sfence).
        Each event index is a candidate crash point: "power failed right
        after this much reached the memory subsystem".
     3. For each chosen point the body is replayed again from the same
        snapshot — byte-for-byte identical, the simulator is deterministic —
        and aborted mid-flight at the k-th event.  The device then crashes
        under a line-survival policy, a fresh "reboot" mounts it,
        {!Zofs.Recovery.recover_all} repairs it, and the resulting tree is
        read back and compared against the oracle.
     4. The recovered state must equal the model at the prefix of
        acknowledged ops, modulo the one op that was in flight when power
        failed (whose torn intermediate states are enumerated per op kind).
        Recovery must also be a fixpoint (a second run repairs nothing) and
        leave the allocation table internally consistent.

   ZoFS acknowledges an op only after fencing it (§5.2: in-place updates
   ordered by clwb/sfence), so acknowledged-implies-durable is the honest
   contract to check — and exactly what the fence-drop negative test
   ({!check_missing_fence}) proves the checker can see breaking. *)

module Model = Model
module D = Nvm.Device
module K = Treasury.Kernfs
module V = Treasury.Vfs
module Ft = Treasury.Fs_types
module E = Treasury.Errno
module Pathx = Treasury.Pathx
module Op = Workloads.Opscript
module Recovery = Zofs.Recovery

exception Crash_now

(* ---- running a script against ZoFS ------------------------------------- *)

(* A per-"boot" FSLibs instance: dispatcher + ZoFS µFS, as a Vfs. *)
let make_fs kfs = Workloads.Fslab.zofs_fslib kfs

(* Full recursive listing of the mounted tree, in {!Model.entry} form. *)
let read_fs fs : Model.entry list =
  let acc = ref [] in
  let rec go path =
    match V.readdir fs path with
    | Error e ->
        failwith (Printf.sprintf "read_fs: readdir %s: %s" path (E.to_string e))
    | Ok entries ->
        List.iter
          (fun de ->
            let p = Pathx.concat path de.Ft.d_name in
            match de.Ft.d_kind with
            | Ft.Directory ->
                acc := (p, `Dir) :: !acc;
                go p
            | Ft.Regular | Ft.Symlink -> (
                match V.read_file fs p with
                | Ok data -> acc := (p, `File data) :: !acc
                | Error e ->
                    failwith
                      (Printf.sprintf "read_fs: read %s: %s" p (E.to_string e))))
          entries
  in
  go "/";
  List.sort compare !acc

type world = {
  w_name : string;
  w_dev : D.t;
  w_snap : D.snapshot;  (* device state after setup, fully persisted *)
  w_body : Op.op array;
  w_models : Model.t array;  (* w_models.(i) = oracle after i body ops *)
  w_results : (unit, E.t) result array;  (* oracle verdict of each body op *)
}

let prepare ?(pages = 1024) (s : Op.script) =
  let dev =
    Sim.run_thread (fun () ->
        let dev, kfs =
          Workloads.Fslab.make_zofs ~root_mode:0o777 ~nbuckets:512 ~pages
            ~perf:Nvm.Perf.free ()
        in
        let fs = make_fs kfs in
        List.iter
          (fun op ->
            match Op.apply fs op with
            | Ok () -> ()
            | Error e ->
                failwith
                  (Printf.sprintf "crashmc %s: setup op %s failed: %s"
                     s.Op.sname (Op.op_to_string op) (E.to_string e)))
          s.Op.setup;
        D.persist_all dev;
        dev)
  in
  let snap = D.snapshot dev in
  let m0 = Model.create () in
  List.iter (fun op -> ignore (Model.apply m0 op)) s.Op.setup;
  let body = Array.of_list s.Op.body in
  let n = Array.length body in
  let models = Array.make (n + 1) m0 in
  let results = Array.make (max n 1) (Ok ()) in
  for i = 0 to n - 1 do
    let m = Model.copy models.(i) in
    results.(i) <- Model.apply m body.(i);
    models.(i + 1) <- m
  done;
  {
    w_name = s.Op.sname;
    w_dev = dev;
    w_snap = snap;
    w_body = body;
    w_models = models;
    w_results = results;
  }

let count_event = function
  | D.T_store _ | D.T_nt_store _ | D.T_cas _ | D.T_clwb _ | D.T_fence _ ->
      true
  | D.T_load _ | D.T_media_fault _ | D.T_reset -> false

type replay_result = {
  rp_events : int;  (* persistence events counted (at the crash, or body end) *)
  rp_acked : int;  (* body ops that completed before the crash *)
  rp_dump : Model.entry list option;  (* tree listing; no-crash replays only *)
}

(* Replay the body from the setup snapshot in a fresh boot.  [crash_at k]
   aborts mid-syscall the instant the k-th persistence event has been
   applied.  [fence_drop (i, n)] arms the device's fence-drop injection just
   before body op [i].  The trace subscriber is attached only after
   [K.mount], because mounting itself repairs allocation-table run-length
   hints (writes) that are not part of the workload's event stream; record
   and exploration passes share this exact code path, so their event
   numbering agrees.

   [procs > 1] replays the body from that many simulated PROCESSES: body op
   [i] is issued by process [i mod procs] through that process's own FSLib
   (own dispatcher, own mappings), in body order — a deterministic baton, so
   the oracle's linear semantics still apply, but every op observes the
   previous op's publish from a different process, and a crash point can
   land exactly between one process's publish and the other's read of it.
   A [Crash_now] raised in any process aborts the whole world (power fails
   for everyone at once). *)
let replay ?crash_at ?fence_drop ?(procs = 1) w =
  D.restore w.w_dev w.w_snap;
  let events = ref 0 and acked = ref 0 in
  let body_events = ref 0 in
  let sub = ref None in
  let dump = ref None in
  let attach_subscriber () =
    sub :=
      Some
        (D.add_trace_subscriber w.w_dev (fun ev ->
             if count_event ev then begin
               incr events;
               match crash_at with
               | Some k when !events >= k -> raise Crash_now
               | _ -> ()
             end))
  in
  let arm_fence_drop i =
    match fence_drop with
    | Some (target, n) when i = target -> D.inject_drop_fences w.w_dev n
    | _ -> ()
  in
  (try
     if procs <= 1 then
       Sim.run_thread (fun () ->
           let mpk = Mpk.create w.w_dev in
           let kfs = K.mount w.w_dev mpk in
           attach_subscriber ();
           let fs = make_fs kfs in
           Array.iteri
             (fun i op ->
               arm_fence_drop i;
               ignore (Op.apply fs op);
               acked := i + 1)
             w.w_body;
           body_events := !events;
           if crash_at = None then dump := Some (read_fs fs))
     else begin
       let wld = Sim.create () in
       let n = Array.length w.w_body in
       let next = ref 0 in
       (* one op in flight at a time, in body order; everyone else sleeps
          on its own waker (inert until its process makes it) *)
       let turn = Array.init procs (fun _ -> Sim.waker ()) in
       let apply_slice me fs =
         turn.(me) <- Sim.waker ();
         while !next < n do
           if !next mod procs = me then begin
             let i = !next in
             arm_fence_drop i;
             ignore (Op.apply fs w.w_body.(i));
             acked := i + 1;
             incr next;
             if !next < n then Sim.wake turn.(!next mod procs)
             else Array.iter Sim.wake turn
           end
           else Sim.sleep_until_woken turn.(me)
         done
       in
       Sim.spawn wld
         ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ())
         ~name:"proc-0"
         (fun () ->
           let mpk = Mpk.create w.w_dev in
           let kfs = K.mount w.w_dev mpk in
           attach_subscriber ();
           for p = 1 to procs - 1 do
             Sim.spawn wld
               ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ())
               ~name:(Printf.sprintf "proc-%d" p)
               (fun () -> apply_slice p (make_fs kfs))
           done;
           let fs0 = make_fs kfs in
           apply_slice 0 fs0;
           body_events := !events;
           if crash_at = None then dump := Some (read_fs fs0));
       Sim.run wld
     end
   with Crash_now -> ());
  (match !sub with Some id -> D.remove_trace_subscriber w.w_dev id | None -> ());
  {
    rp_events = (if !body_events > 0 then !body_events else !events);
    rp_acked = !acked;
    rp_dump = !dump;
  }

(* ---- recovery + structural checks --------------------------------------- *)

(* Reboot the crashed device, recover, and read the tree back.  Raises
   [Failure] when a structural invariant breaks: allocation-table
   inconsistency, or recovery failing to reach a fixpoint (the second run
   must find nothing left to repair). *)
let recover_and_dump w =
  Sim.run_thread (fun () ->
      let mpk = Mpk.create w.w_dev in
      let kfs = K.mount w.w_dev mpk in
      let rep = Recovery.recover_all kfs in
      (* the allocation table lives in kernel pages *)
      Mpk.with_kernel mpk (fun () ->
          Treasury.Alloc_table.verify (K.alloc_table kfs));
      (* Fixpoint: a second recovery must repair nothing.  Every repair
         produces a finding; [pages_reclaimed] alone is not one — when the
         first run's own repairs allocate (e.g. a reattach inserting a
         dentry grows the coffer by a run), the second run legitimately
         returns the unused tail of that run to the kernel. *)
      let rep2 = Recovery.recover_all kfs in
      (match Recovery.findings rep2 with
      | [] -> ()
      | fs2 ->
          failwith
            (Printf.sprintf "recovery is not a fixpoint: 2nd run: %s"
               (String.concat "; " (List.map Recovery.finding_to_string fs2))));
      let fs = make_fs kfs in
      (rep, read_fs fs))

(* ---- the oracle comparison ---------------------------------------------- *)

let string_of_dump d =
  match d with
  | [] -> "(empty)"
  | _ -> String.concat ", " (List.map Model.entry_to_string d)

let remove_path d p = List.filter (fun (q, _) -> q <> p) d

let subtree d p =
  List.filter (fun (q, _) -> q = p || Pathx.is_prefix ~prefix:p q) d

(* Tolerated recovered states for an in-flight content op on [path]: every
   other path strict, the target file absent only if it did not exist
   before, and if present its length must be one of the sizes the op's
   single atomic [set_size] could have left, with every byte explainable as
   old data, new data, or an allocation-time zero fill. *)
let content_tolerant ~path ~sizes ~old_c ~new_c ~before dump =
  if remove_path dump path <> remove_path before path then
    Error "in-flight content op: a bystander path changed"
  else
    match List.assoc_opt path dump with
    | None ->
        if old_c = None then Ok ()
        else Error (Printf.sprintf "pre-existing file %s vanished" path)
    | Some `Dir -> Error (Printf.sprintf "file %s became a directory" path)
    | Some (`File c) ->
        let len = String.length c in
        if not (List.mem len sizes) then
          Error
            (Printf.sprintf "torn %s: size %d not in {%s}" path len
               (String.concat "," (List.map string_of_int sizes)))
        else begin
          let old_s = Option.value old_c ~default:"" in
          let bad = ref None in
          String.iteri
            (fun i ch ->
              if !bad = None then begin
                let from_old = i < String.length old_s && old_s.[i] = ch in
                let from_new = i < String.length new_c && new_c.[i] = ch in
                if not (from_old || from_new || ch = '\000') then bad := Some i
              end)
            c;
          match !bad with
          | None -> Ok ()
          | Some i ->
              Error
                (Printf.sprintf
                   "torn %s: byte %d is neither old, new, nor zero" path i)
        end

(* The recovered states a crashed-then-recovered rename may legally leave:
   untouched, done, both names linked (crash between the dst insert and the
   src removal), or only the displaced dst file unlinked. *)
let rename_candidates ~src ~dst ~before ~after ~result =
  if result <> Ok () then [ after ]
  else begin
    let both_linked = List.sort compare (after @ subtree before src) in
    let displaced =
      match List.assoc_opt dst before with
      | Some (`File _) -> [ List.sort compare (remove_path before dst) ]
      | _ -> []
    in
    [ after; both_linked ] @ displaced
  end

(* Is [dump] (the recovered tree) consistent with the oracle given that
   [acked] body ops were acknowledged before the crash?  The acked prefix is
   binding; only op [acked] (if any) may be visible in a torn intermediate
   form. *)
let verify w ~acked dump =
  let n = Array.length w.w_body in
  let before = Model.dump w.w_models.(acked) in
  if dump = before then Ok ()
  else if acked >= n then
    Error
      (Printf.sprintf "final state diverges after all %d ops acked:\n  fs:    %s\n  model: %s"
         n (string_of_dump dump) (string_of_dump before))
  else begin
    let after = Model.dump w.w_models.(acked + 1) in
    let result = w.w_results.(acked) in
    let fail reason =
      Error
        (Printf.sprintf "%s (in-flight op: %s)\n  fs:     %s\n  before: %s\n  after:  %s"
           reason
           (Op.op_to_string w.w_body.(acked))
           (string_of_dump dump) (string_of_dump before) (string_of_dump after))
    in
    match w.w_body.(acked) with
    | Op.Mkdir _ | Op.Unlink _ | Op.Rmdir _ ->
        if result = Ok () && dump = after then Ok ()
        else fail "in-flight namespace op left a state that is neither before nor after"
    | Op.Rename { src; dst } ->
        let src = Pathx.normalize src and dst = Pathx.normalize dst in
        if List.mem dump (rename_candidates ~src ~dst ~before ~after ~result)
        then Ok ()
        else fail "in-flight rename left an unexplained state"
    | Op.Create { path; data; _ } ->
        if result <> Ok () then fail "in-flight op errored yet changed durable state"
        else begin
          let path = Pathx.normalize path in
          let old_c =
            match List.assoc_opt path before with
            | Some (`File s) -> Some s
            | _ -> None
          in
          (* O_TRUNC at open, one write, one set_size: size is old, 0, or new *)
          let sizes =
            0 :: String.length data
            :: (match old_c with Some s -> [ String.length s ] | None -> [])
          in
          match content_tolerant ~path ~sizes ~old_c ~new_c:data ~before dump with
          | Ok () -> Ok ()
          | Error r -> fail r
        end
    | Op.Pwrite { path; off; data } ->
        if result <> Ok () then fail "in-flight op errored yet changed durable state"
        else begin
          let path = Pathx.normalize path in
          let old_c =
            match List.assoc_opt path before with
            | Some (`File s) -> Some s
            | _ -> None
          in
          let new_c =
            match List.assoc_opt path after with
            | Some (`File s) -> s
            | _ -> ""
          in
          let old_len = String.length (Option.value old_c ~default:"") in
          let sizes = [ old_len; max old_len (off + String.length data) ] in
          match content_tolerant ~path ~sizes ~old_c ~new_c ~before dump with
          | Ok () -> Ok ()
          | Error r -> fail r
        end
    | Op.Append { path; data } ->
        if result <> Ok () then fail "in-flight op errored yet changed durable state"
        else begin
          let path = Pathx.normalize path in
          let old_c =
            match List.assoc_opt path before with
            | Some (`File s) -> Some s
            | _ -> None
          in
          let new_c = Option.value old_c ~default:"" ^ data in
          let sizes =
            match old_c with
            | None -> [ 0; String.length data ]
            | Some s -> [ String.length s; String.length s + String.length data ]
          in
          match content_tolerant ~path ~sizes ~old_c ~new_c ~before dump with
          | Ok () -> Ok ()
          | Error r -> fail r
        end
  end

(* ---- the checking loops -------------------------------------------------- *)

type divergence = {
  d_point : int;  (* crash after this many persistence events *)
  d_policy : string;
  d_acked : int;
  d_reason : string;
}

type report = {
  r_name : string;
  r_ops : int;
  r_events : int;  (* persistence events in a full body replay *)
  r_points : int;  (* crash points explored *)
  r_divergences : divergence list;
  r_findings : int;  (* recovery repair actions across all points *)
  r_pages_reclaimed : int;
  r_reattached : int;  (* orphan coffers reattached by recovery *)
  r_orphans_dropped : int;
}

let all_policies : D.crash_policy list = [ `Drop_all; `Random; `Keep_all ]

let policy_name = function
  | `Drop_all -> "drop-all"
  | `Random -> "random"
  | `Keep_all -> "keep-all"

let mix seed k =
  Int64.add seed (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (k + 1)))

(* Explore one crash point: deterministic re-run aborted at event [k], crash
   under [policy], reboot + recover, compare with the oracle. *)
let explore_point w ~seed ~policy ~procs k =
  let rp = replay ~crash_at:k ~procs w in
  D.set_crash_seed w.w_dev (mix seed k);
  D.crash ~policy w.w_dev;
  match recover_and_dump w with
  | exception Failure reason ->
      (rp.rp_acked, None, Error reason)
  | rep, dump -> (rp.rp_acked, Some rep, verify w ~acked:rp.rp_acked dump)

(* Check one script.  All crash points are explored when the body generates
   at most [max_points] persistence events; otherwise a seeded sample (always
   including the first and last event) keeps the run bounded.  [procs]
   spreads the body over that many simulated processes (see {!replay}). *)
let check ?(pages = 1024) ?(max_points = 0) ?(seed = 1L) ?(progress = ignore)
    ?(procs = 1) (s : Op.script) =
  let w = prepare ~pages s in
  let n = Array.length w.w_body in
  (* Record pass: count the events and prove the oracle itself agrees with
     ZoFS when no crash happens at all. *)
  let rp = replay ~procs w in
  (match rp.rp_dump with
  | Some d ->
      let md = Model.dump w.w_models.(n) in
      if d <> md then
        failwith
          (Printf.sprintf "crashmc %s: oracle drift with no crash:\n  fs:    %s\n  model: %s"
             w.w_name (string_of_dump d) (string_of_dump md))
  | None -> assert false);
  let total = rp.rp_events in
  let points =
    if max_points <= 0 || total <= max_points then
      List.init total (fun i -> i + 1)
    else begin
      let rng = Sim.Rng.create seed in
      let arr = Array.init total (fun i -> i + 1) in
      Sim.Rng.shuffle rng arr;
      let chosen = Array.sub arr 0 max_points in
      chosen.(0) <- 1;
      chosen.(max_points - 1) <- total;
      List.sort_uniq compare (Array.to_list chosen)
    end
  in
  let divergences = ref [] in
  let findings = ref 0 and reclaimed = ref 0 in
  let reattached = ref 0 and dropped = ref 0 in
  List.iteri
    (fun i k ->
      let policy = List.nth all_policies (i mod List.length all_policies) in
      let acked, rep, verdict = explore_point w ~seed ~policy ~procs k in
      (match rep with
      | Some r ->
          findings := !findings + List.length (Recovery.findings r);
          reclaimed := !reclaimed + r.Recovery.pages_reclaimed;
          reattached := !reattached + Recovery.orphan_coffers_reattached r;
          dropped := !dropped + Recovery.orphan_coffers_dropped r
      | None -> ());
      (match verdict with
      | Ok () -> ()
      | Error reason ->
          divergences :=
            { d_point = k; d_policy = policy_name policy; d_acked = acked;
              d_reason = reason }
            :: !divergences);
      progress (i + 1))
    points;
  {
    r_name = w.w_name;
    r_ops = n;
    r_events = total;
    r_points = List.length points;
    r_divergences = List.rev !divergences;
    r_findings = !findings;
    r_pages_reclaimed = !reclaimed;
    r_reattached = !reattached;
    r_orphans_dropped = !dropped;
  }

(* Negative self-check: suppress the fences of the last state-changing op
   (the device acks them as no-ops), let the op be acknowledged, then lose
   every still-pending line.  An acknowledged op has now been silently
   undone — exactly the bug class the checker exists for — so [verify] must
   report a divergence.  Returns [Some reason] when the injected bug was
   caught, [None] when it slipped through. *)
let check_missing_fence ?(pages = 1024) (s : Op.script) =
  let w = prepare ~pages s in
  let n = Array.length w.w_body in
  let target = ref (-1) in
  for i = 0 to n - 1 do
    if Model.dump w.w_models.(i) <> Model.dump w.w_models.(i + 1) then
      target := i
  done;
  if !target < 0 then
    invalid_arg "check_missing_fence: script has no state-changing op";
  let rp = replay ~fence_drop:(!target, 16) w in
  D.inject_drop_fences w.w_dev 0;
  D.crash ~policy:`Drop_all w.w_dev;
  match recover_and_dump w with
  | exception Failure reason -> Some reason
  | _rep, dump -> (
      match verify w ~acked:rp.rp_acked dump with
      | Ok () -> None
      | Error reason -> Some reason)

(* Negative self-check: an insert that writes its dentry at slot hwm
   without raising hwm.  The script runs to the end (every op
   acknowledged); then the first second-level page of [dir] (found by
   lookups from the root, in whichever coffer) whose top inline slot
   (hwm - 1) holds a dentry has its hwm put back by one, the state that
   insert leaves, made durable.  No reader sees that dentry, so after
   recovery the final-state comparison must miss its name.  [Some reason]
   when caught, [None] when it slipped through or [dir] has no page with
   two inline dentries to plant on. *)
let check_hwm_skip ?(pages = 1024) ~dir (s : Op.script) =
  let w = prepare ~pages s in
  let rp = replay w in
  let planted =
    Sim.run_thread (fun () ->
        let mpk = Mpk.create w.w_dev in
        let kfs = K.mount w.w_dev mpk in
        Mpk.with_kernel mpk (fun () ->
            let root =
              Option.get (Treasury.Coffer.read w.w_dev ~id:(K.root_coffer kfs))
            in
            let ino =
              List.fold_left
                (fun ino name ->
                  match Zofs.Dir.lookup w.w_dev ~ino name with
                  | Some de -> de.Zofs.Dir.de_inode
                  | None -> failwith ("check_hwm_skip: no directory " ^ dir))
                root.Treasury.Coffer.root_file
                (String.split_on_char '/' dir |> List.filter (( <> ) ""))
            in
            let l1 = Zofs.Dir.l1_page w.w_dev ~ino in
            let planted = ref false in
            if l1 <> 0 then
              for l1i = 0 to Zofs.Layout.l1_entries - 1 do
                let slot = l1 + (l1i * 8) in
                let word = D.read_u64 w.w_dev slot in
                let l2 = Zofs.Dir.l2_of_slot word in
                let h = Zofs.Dir.hwm_of_slot word in
                if
                  (not !planted) && l2 <> 0 && h >= 2
                  && Zofs.Dir.dentry_valid w.w_dev (Zofs.Dir.inline_slot l2 (h - 1))
                then begin
                  Mpk.with_write_window mpk (fun () ->
                      D.write_u64 w.w_dev slot (l2 lor (h - 1)));
                  planted := true
                end
              done;
            D.persist_all w.w_dev;
            !planted))
  in
  if not planted then None
  else
    match recover_and_dump w with
    | exception Failure reason -> Some reason
    | _rep, dump -> (
        match verify w ~acked:rp.rp_acked dump with
        | Ok () -> None
        | Error reason -> Some reason)
