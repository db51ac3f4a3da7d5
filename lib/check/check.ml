(* Always-available analysis layer over the simulated hardware, in the
   spirit of pmemcheck (persistence ordering) and Eraser (lock discipline):

   - the persistence checker mirrors Nvm.Device's per-line dirty -> flushing
     -> durable state from the trace-event stream and verifies, at declared
     publish points, that everything a publish makes reachable is durable;
   - the guideline checker watches Mpk's PKRU stream and every NVM access to
     enforce the paper's coffer guidelines G1-G3 (section 3.4);
   - the lock checker tracks Lease.acquire/release pairing and flags writes
     to lease-protected ranges made without holding the lease.

   One checker instance is attached to one device at a time (the workloads
   build exactly one device per measurement); the violation log and lint
   counters are module-global so a run that spans many short-lived devices
   still yields one report. *)

type mode = Off | Log | Fail
type checker = Persist | Guideline | Lock

type violation = {
  v_checker : checker;
  v_rule : string;
  v_addr : int;
  v_tid : int;
  v_time : int;  (* simulated ns *)
  v_label : string;  (* call-site / publish-point label *)
}

exception Violation of violation

let checker_name = function
  | Persist -> "persist"
  | Guideline -> "guideline"
  | Lock -> "lock"

let string_of_violation v =
  Printf.sprintf "[%s] %s at 0x%x (tid %d, t=%dns, %s)" (checker_name v.v_checker)
    v.v_rule v.v_addr v.v_tid v.v_time v.v_label

(* ---- module-global report state -------------------------------------- *)

let all_violations : violation list ref = ref []
let lints : (string, int ref) Hashtbl.t = Hashtbl.create 16

let lint name =
  match Hashtbl.find_opt lints name with
  | Some r -> incr r
  | None -> Hashtbl.replace lints name (ref 1)

type report = {
  r_violations : violation list;  (* oldest first *)
  r_lints : (string * int) list;
}

let report () =
  {
    r_violations = List.rev !all_violations;
    r_lints =
      Hashtbl.fold (fun k r acc -> (k, !r) :: acc) lints []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
  }

let reset_report () =
  all_violations := [];
  Hashtbl.reset lints

let print_report () =
  let r = report () in
  List.iter (fun v -> Printf.printf "  %s\n" (string_of_violation v)) r.r_violations;
  List.iter (fun (name, n) -> Printf.printf "  lint %-32s %d\n" name n) r.r_lints;
  if r.r_violations = [] && r.r_lints = [] then Printf.printf "  clean\n"

(* ---- checker instance ------------------------------------------------- *)

(* Byte-granular mirror of one cache line's pending state.  Byte granularity
   matters because a lease word shares its line with inode metadata: the
   lease word is deliberately never made durable (leases expire by
   construction after a crash, section 5.2), and must not mask — or trigger —
   durability findings for its neighbours. *)
type pline = {
  dirty : Bytes.t;  (* line_size bytes, '\001' = written since last durable *)
  mutable ndirty : int;
  mutable flushing : bool;  (* clwb/nt-store issued, fence still pending *)
}

type lease_info = {
  li_lease : int;  (* address of the lease word *)
  li_addr : int;  (* protected range *)
  li_len : int;
  li_publish : bool;  (* releasing this lease is a publish point *)
  mutable li_enforced : bool;  (* set at first acquire (Eraser-style grace) *)
}

type modes = {
  mutable m_persist : mode;
  mutable m_guideline : mode;
  mutable m_lock : mode;
}

type t = {
  dev : Nvm.Device.t;
  mpk : Mpk.t option;
  modes : modes;
  (* persist *)
  lines : (int, pline) Hashtbl.t;  (* line index -> pending state *)
  mutable flushing_lines : int list;
  exempt : (int, unit) Hashtbl.t;  (* 8-aligned addr of a lease word *)
  (* guideline *)
  scope_depth : (int, int) Hashtbl.t;  (* tid -> with_keys nesting *)
  taints : (int, unit) Hashtbl.t;  (* page base -> cross-coffer, unvalidated *)
  g1_seen : (int * int, unit) Hashtbl.t;  (* (tid, page) already reported *)
  (* lock *)
  leases : (int, lease_info) Hashtbl.t;  (* lease word addr -> info *)
  by_page : (int, int list ref) Hashtbl.t;  (* page -> lease word addrs *)
  held : (int * int, unit) Hashtbl.t;  (* (tid, lease word addr) *)
  lock_seen : (int * int, unit) Hashtbl.t;  (* (tid, lease) already reported *)
}

let mode_of t = function
  | Persist -> t.modes.m_persist
  | Guideline -> t.modes.m_guideline
  | Lock -> t.modes.m_lock

let now () = if Sim.in_sim () then Sim.now () else 0
let tid () = Sim.self_tid ()

let violate t ck rule ~addr ~label =
  match mode_of t ck with
  | Off -> ()
  | m ->
      let v =
        {
          v_checker = ck;
          v_rule = rule;
          v_addr = addr;
          v_tid = tid ();
          v_time = now ();
          v_label = label;
        }
      in
      all_violations := v :: !all_violations;
      if m = Fail then raise (Violation v)

let in_kernel t =
  match t.mpk with Some m -> Mpk.in_kernel m | None -> false

(* ---- persistence checker ---------------------------------------------- *)

let line_size = Nvm.line_size

let pline t line =
  match Hashtbl.find_opt t.lines line with
  | Some st -> st
  | None ->
      let st = { dirty = Bytes.make line_size '\000'; ndirty = 0; flushing = false } in
      Hashtbl.replace t.lines line st;
      st

let start_flushing t line st =
  if not st.flushing then begin
    st.flushing <- true;
    t.flushing_lines <- line :: t.flushing_lines
  end

let persist_store t addr len ~nt =
  if t.modes.m_persist <> Off && len > 0 then begin
    let first = addr / line_size and last = (addr + len - 1) / line_size in
    let overwrote = ref false in
    for line = first to last do
      let st = pline t line in
      if nt then start_flushing t line st;
      let lo = max addr (line * line_size)
      and hi = min (addr + len) ((line + 1) * line_size) in
      for b = lo to hi - 1 do
        let off = b - (line * line_size) in
        if Bytes.get st.dirty off = '\001' then overwrote := true
        else begin
          Bytes.set st.dirty off '\001';
          st.ndirty <- st.ndirty + 1
        end
      done
    done;
    if !overwrote && not nt then lint "store-overwritten-before-flush"
  end

let persist_clwb t addr =
  if t.modes.m_persist <> Off then begin
    let line = addr / line_size in
    match Hashtbl.find_opt t.lines line with
    | Some st when (not st.flushing) && st.ndirty > 0 -> start_flushing t line st
    | _ -> lint "redundant-flush"
  end

let persist_fence t =
  if t.modes.m_persist <> Off then begin
    if t.flushing_lines = [] then lint "redundant-fence"
    else List.iter (fun line -> Hashtbl.remove t.lines line) t.flushing_lines;
    t.flushing_lines <- []
  end

let persist_volatile t addr len =
  if t.modes.m_persist <> Off && len > 0 then begin
    let first = addr / line_size and last = (addr + len - 1) / line_size in
    for line = first to last do
      match Hashtbl.find_opt t.lines line with
      | None -> ()
      | Some st ->
          let lo = max addr (line * line_size)
          and hi = min (addr + len) ((line + 1) * line_size) in
          for b = lo to hi - 1 do
            let off = b - (line * line_size) in
            if Bytes.get st.dirty off = '\001' then begin
              Bytes.set st.dirty off '\000';
              st.ndirty <- st.ndirty - 1
            end
          done;
          if st.ndirty = 0 && not st.flushing then Hashtbl.remove t.lines line
    done
  end

let persist_reset t =
  Hashtbl.reset t.lines;
  t.flushing_lines <- []

let byte_exempt t b = Hashtbl.mem t.exempt (b land lnot 7)

(* A publish point: every non-exempt byte of [addr, addr+len) written since
   it was last durable must have completed the flush-then-fence protocol. *)
let do_publish t ~label addr len =
  if t.modes.m_persist <> Off && len > 0 then begin
    let first = addr / line_size and last = (addr + len - 1) / line_size in
    for line = first to last do
      match Hashtbl.find_opt t.lines line with
      | None -> ()
      | Some st ->
          let lo = max addr (line * line_size)
          and hi = min (addr + len) ((line + 1) * line_size) in
          let bad = ref (-1) in
          for b = hi - 1 downto lo do
            if Bytes.get st.dirty (b - (line * line_size)) = '\001'
               && not (byte_exempt t b)
            then bad := b
          done;
          if !bad >= 0 then
            if st.flushing then
              violate t Persist "missing-fence" ~addr:!bad ~label
            else violate t Persist "missing-flush" ~addr:!bad ~label
    done
  end

(* ---- guideline checker ------------------------------------------------- *)

let depth tbl k = match Hashtbl.find_opt tbl k with Some d -> d | None -> 0

let bump tbl k delta =
  let d = depth tbl k + delta in
  if d <= 0 then Hashtbl.remove tbl k else Hashtbl.replace tbl k d

(* G2: no thread may make two coffers writable at once (one stray pointer
   could then corrupt both). *)
let check_g2 t perms ~label =
  if t.modes.m_guideline <> Off then begin
    let writable =
      List.filter_map
        (fun (k, p) -> if k <> 0 && p = Mpk.Pk_read_write then Some k else None)
        perms
      |> List.sort_uniq compare
    in
    if List.length writable >= 2 then
      violate t Guideline "G2" ~addr:0 ~label
  end

let guideline_access t addr ~write:_ =
  if t.modes.m_guideline <> Off && not (in_kernel t) then begin
    let base = addr - (addr mod Nvm.page_size) in
    (* G3: dereferencing an address read out of another coffer without
       validating it first.  Taints are set by Dir.read_dentry on
       cross-coffer entries and cleared by validate_cross. *)
    if Hashtbl.mem t.taints base then begin
      Hashtbl.remove t.taints base;
      violate t Guideline "G3" ~addr ~label:"cross-coffer-deref-unvalidated"
    end;
    (* G1: user-mode NVM access to a keyed page with no coffer window open. *)
    match t.mpk with
    | None -> ()
    | Some m ->
        if Sim.in_sim () then begin
          let page = addr / Nvm.page_size in
          match
            Mpk.page_pkey m ~pid:(Sim.self_proc ()).Sim.Proc.pid ~page
          with
          | Some key when key <> 0 && depth t.scope_depth (tid ()) = 0 ->
              if not (Hashtbl.mem t.g1_seen (tid (), page)) then begin
                Hashtbl.replace t.g1_seen (tid (), page) ();
                violate t Guideline "G1" ~addr ~label:"nvm-access-outside-window"
              end
          | _ -> ()
        end
  end

(* ---- lock-discipline checker ------------------------------------------- *)

let lock_store t addr len =
  if t.modes.m_lock <> Off && not (in_kernel t) && len > 0 then begin
    let first = addr / Nvm.page_size and last = (addr + len - 1) / Nvm.page_size in
    for page = first to last do
      match Hashtbl.find_opt t.by_page page with
      | None -> ()
      | Some ls ->
          List.iter
            (fun l ->
              match Hashtbl.find_opt t.leases l with
              | Some info
                when info.li_enforced
                     && addr < info.li_addr + info.li_len
                     && addr + len > info.li_addr
                     && not (addr >= l && addr + len <= l + 8)
                     && not (Hashtbl.mem t.held (tid (), l)) ->
                  if not (Hashtbl.mem t.lock_seen (tid (), l)) then begin
                    Hashtbl.replace t.lock_seen (tid (), l) ();
                    violate t Lock "write-without-lease" ~addr ~label:"store"
                  end
              | _ -> ())
            !ls
    done
  end

(* ---- event plumbing ---------------------------------------------------- *)

let on_nvm_event t (ev : Nvm.Device.trace_event) =
  match ev with
  | T_store { addr; len; _ } ->
      persist_store t addr len ~nt:false;
      guideline_access t addr ~write:true;
      lock_store t addr len
  | T_nt_store { addr; len; _ } ->
      persist_store t addr len ~nt:true;
      guideline_access t addr ~write:true;
      lock_store t addr len
  | T_cas { addr; len; _ } ->
      (* A successful CAS is a store for persistence/guideline/lock
         purposes; its synchronization role only matters to lib/race. *)
      persist_store t addr len ~nt:false;
      guideline_access t addr ~write:true;
      lock_store t addr len
  | T_load { addr; _ } -> guideline_access t addr ~write:false
  | T_clwb { addr; _ } -> persist_clwb t addr
  | T_fence _ -> persist_fence t
  | T_media_fault _ ->
      (* An uncorrectable media error is an environment fault, not a software
         rule violation: record it as a lint so reports show the run was
         exposed to injected hardware failures. *)
      lint "media-fault"
  | T_reset -> persist_reset t

let on_mpk_event t (ev : Mpk.trace_event) =
  match ev with
  | M_wrpkru { perms } -> check_g2 t perms ~label:"wrpkru"
  | M_scope_enter { perms } ->
      check_g2 t perms ~label:"with_keys";
      bump t.scope_depth (tid ()) 1
  | M_scope_exit -> bump t.scope_depth (tid ()) (-1)

(* ---- attach / detach --------------------------------------------------- *)

let current : t option ref = ref None

let attach ?mpk ?(persist = Log) ?(guideline = Log) ?(lock = Log) dev =
  (match !current with
  | Some old ->
      Nvm.Device.unsubscribe_named old.dev ~name:"check";
      (match old.mpk with
      | Some m -> Mpk.unsubscribe_named m ~name:"check"
      | None -> ())
  | None -> ());
  let t =
    {
      dev;
      mpk;
      modes = { m_persist = persist; m_guideline = guideline; m_lock = lock };
      lines = Hashtbl.create 1024;
      flushing_lines = [];
      exempt = Hashtbl.create 64;
      scope_depth = Hashtbl.create 16;
      taints = Hashtbl.create 16;
      g1_seen = Hashtbl.create 16;
      leases = Hashtbl.create 64;
      by_page = Hashtbl.create 64;
      held = Hashtbl.create 16;
      lock_seen = Hashtbl.create 16;
    }
  in
  Nvm.Device.subscribe_named dev ~name:"check" (on_nvm_event t);
  (match mpk with
  | Some m -> Mpk.subscribe_named m ~name:"check" (on_mpk_event t)
  | None -> ());
  current := Some t;
  t

let detach () =
  match !current with
  | None -> ()
  | Some t ->
      Nvm.Device.unsubscribe_named t.dev ~name:"check";
      (match t.mpk with
      | Some m -> Mpk.unsubscribe_named m ~name:"check"
      | None -> ());
      current := None

let set_mode t ck m =
  match ck with
  | Persist -> t.modes.m_persist <- m
  | Guideline -> t.modes.m_guideline <- m
  | Lock -> t.modes.m_lock <- m

(* Deferred attach for CLI use: the workloads build their device inside the
   measurement setup, so Fslab calls [auto_attach] on every world it makes
   and the CLI just declares the modes up front. *)
let auto_modes : (mode * mode * mode) option ref = ref None
let enable_auto ~persist ~guideline ~lock = auto_modes := Some (persist, guideline, lock)
let disable_auto () = auto_modes := None

let auto_attach dev mpk =
  match !auto_modes with
  | None -> ()
  | Some (persist, guideline, lock) ->
      ignore (attach ~mpk ~persist ~guideline ~lock dev)

(* ---- annotation API (no-ops unless attached to this device) ------------ *)

let with_current dev f =
  match !current with Some t when t.dev == dev -> f t | _ -> ()

let publish dev ~label addr len =
  with_current dev (fun t -> do_publish t ~label addr len)

let volatile dev addr len = with_current dev (fun t -> persist_volatile t addr len)

let register_lease ?(publish = true) dev ~lease ~addr ~len =
  with_current dev (fun t ->
      Hashtbl.replace t.leases lease
        { li_lease = lease; li_addr = addr; li_len = len; li_publish = publish;
          li_enforced = false };
      Hashtbl.replace t.exempt lease ();
      let first = addr / Nvm.page_size and last = (addr + len - 1) / Nvm.page_size in
      for page = first to last do
        match Hashtbl.find_opt t.by_page page with
        | Some ls -> if not (List.mem lease !ls) then ls := lease :: !ls
        | None -> Hashtbl.replace t.by_page page (ref [ lease ])
      done)

let on_lease_acquired dev lease =
  with_current dev (fun t ->
      (match Hashtbl.find_opt t.leases lease with
      | Some info -> info.li_enforced <- true
      | None -> ());
      if t.modes.m_lock <> Off then
        if Hashtbl.mem t.held (tid (), lease) then
          violate t Lock "double-acquire" ~addr:lease ~label:"lease-acquire"
        else Hashtbl.replace t.held (tid (), lease) ())

let on_lease_release dev lease =
  with_current dev (fun t ->
      (* Releasing a lease publishes the structure it protects: check the
         range's durability before the release store happens. *)
      (match Hashtbl.find_opt t.leases lease with
      | Some info when info.li_publish ->
          do_publish t ~label:"lease-release" info.li_addr info.li_len
      | _ -> ());
      if t.modes.m_lock <> Off then
        if Hashtbl.mem t.held (tid (), lease) then
          Hashtbl.remove t.held (tid (), lease)
        else violate t Lock "unpaired-release" ~addr:lease ~label:"lease-release")

(* Structure freed: stop enforcing its lease (the page will be recycled with
   a different layout) and drop any taint on it. *)
let on_free dev addr len =
  with_current dev (fun t ->
      let first = addr / Nvm.page_size and last = (addr + len - 1) / Nvm.page_size in
      for page = first to last do
        Hashtbl.remove t.taints (page * Nvm.page_size);
        match Hashtbl.find_opt t.by_page page with
        | None -> ()
        | Some ls ->
            List.iter
              (fun l ->
                (match Hashtbl.find_opt t.leases l with
                | Some info
                  when info.li_addr >= addr && info.li_addr + info.li_len <= addr + len
                  ->
                    Hashtbl.remove t.leases l;
                    Hashtbl.remove t.exempt l;
                    let stale =
                      Hashtbl.fold
                        (fun ((_, hl) as k) () acc -> if hl = l then k :: acc else acc)
                        t.held []
                    in
                    List.iter (Hashtbl.remove t.held) stale
                | _ -> ()))
              !ls;
            ls := List.filter (Hashtbl.mem t.leases) !ls;
            if !ls = [] then Hashtbl.remove t.by_page page
      done)

let taint_cross dev value =
  with_current dev (fun t ->
      if t.modes.m_guideline <> Off && not (in_kernel t) then
        Hashtbl.replace t.taints value ())

let validate_cross dev value =
  with_current dev (fun t -> Hashtbl.remove t.taints value)
