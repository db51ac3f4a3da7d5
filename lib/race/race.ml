(* Dynamic race detector over the simulator: a ThreadSanitizer-style
   happens-before + lockset hybrid for NVM word accesses (DESIGN.md §15).

   Every simulated thread carries a vector clock; an 8-byte shadow word map
   over the device records the last writer and last readers of each word
   (epoch = the accessor's own clock component at access time).  The
   happens-before skeleton is fed by:

   - thread spawn (child inherits the parent's clock) and join (the joiner
     takes the ended child's clock) — [Sim.sync_event];
   - [Sim.Mutex] lock/unlock (the KernFS gate serializes kernel NVM writes
     under the "kernfs" mutex);
   - successful CAS ([Nvm.Device.T_cas]): lease words and allocator
     slot-owner words are acquire/release points, and any word that was
     ever CAS'd is a {e sync word} — permanently exempt from shadow
     tracking (its transfers are modeled through its word clock instead);
   - lease acquire/release/steal (lib/zofs/lease.ml): release publishes
     every write the holder made under the lease (see below) and the
     release→acquire CAS chain carries the clock to the next holder;
   - publish fences (Zofs.Pbatch barriers at commit points, surfaced as
     [publish] annotations): a published range gets a {e publish clock} — a
     snapshot of the publisher's whole vector clock — which any later
     accessor of those words joins first.  Because the snapshot is the
     full clock, message-passing patterns chain: reading a published
     dentry word orders the reader after everything its inserter did
     before the publish (inode init, symlink target, data), exactly the
     valid-byte protocol the µFS relies on.

   Conflicts (same word, different threads, at least one write, no
   happens-before edge) consult the lockset next: if both sides held a
   common lock (lease word or kernel mutex) the access pair is ordered by
   mutual exclusion and allowed.  What survives is reported with both
   sides' synchronization history.  [intentional_racy] scopes (mandatory
   justification) allowlist the few deliberate lock-free reads; hits are
   counted per site so the allowlist cannot rot silently. *)

module D = Nvm.Device

type mode = Off | Log | Fail

(* One side of a conflicting access pair. *)
type side = {
  s_tid : int;
  s_time : int;  (* sim ns at access *)
  s_clk : int;  (* accessor's own epoch at access *)
  s_write : bool;
  s_site : string option;  (* innermost intentional_racy scope, if any *)
  s_locks : int list;  (* lockset: lease word addrs (>=0), mutexes (<0) *)
  s_hist : string list;  (* recent sync history, newest first *)
}

type violation = { v_word : int; v_prev : side; v_cur : side }

exception Race_found of violation

let string_of_lock l =
  if l >= 0 then Printf.sprintf "lease@0x%x" l
  else Printf.sprintf "mutex#%d" (-l - 1)

let string_of_side s =
  Printf.sprintf "%s by tid %d at t=%dns (epoch %d)%s%s\n      sync history: %s"
    (if s.s_write then "write" else "read")
    s.s_tid s.s_time s.s_clk
    (match s.s_locks with
    | [] -> ", no locks held"
    | ls ->
        ", holding " ^ String.concat "+" (List.map string_of_lock ls))
    (match s.s_site with
    | Some site -> Printf.sprintf " [scope %s]" site
    | None -> "")
    (match s.s_hist with
    | [] -> "(none)"
    | h -> String.concat " <- " h)

let string_of_violation v =
  Printf.sprintf
    "[race] unsynchronized %s-%s on word 0x%x:\n    prev: %s\n    cur:  %s"
    (if v.v_prev.s_write then "W" else "R")
    (if v.v_cur.s_write then "W" else "R")
    (v.v_word * 8)
    (string_of_side v.v_prev) (string_of_side v.v_cur)

(* ---- module-global report state (mirrors lib/check) -------------------- *)

let all_races : violation list ref = ref []
let allowlist_hits : (string, int ref) Hashtbl.t = Hashtbl.create 16
let g_words_tracked = ref 0
let g_sync_words = ref 0

(* Nominal per-record footprint (word key + writer side + reader slot +
   table overhead), used to report shadow-map memory overhead
   deterministically: the estimate depends only on how many words were
   tracked, never on GC or host state. *)
let bytes_per_word = 88

type report = {
  r_races : violation list;  (* oldest first *)
  r_allowlist : (string * int) list;  (* site -> suppressed conflicts *)
  r_words_tracked : int;  (* distinct shadow words ever created *)
  r_sync_words : int;  (* distinct words ever CAS'd *)
  r_shadow_bytes : int;  (* nominal shadow-map footprint *)
}

let report () =
  {
    r_races = List.rev !all_races;
    r_allowlist =
      Hashtbl.fold (fun site r acc -> (site, !r) :: acc) allowlist_hits []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    r_words_tracked = !g_words_tracked;
    r_sync_words = !g_sync_words;
    r_shadow_bytes = !g_words_tracked * bytes_per_word;
  }

let reset_report () =
  all_races := [];
  Hashtbl.reset allowlist_hits;
  g_words_tracked := 0;
  g_sync_words := 0

let print_report () =
  let r = report () in
  List.iter (fun v -> Printf.printf "  %s\n" (string_of_violation v)) r.r_races;
  List.iter
    (fun (site, n) -> Printf.printf "  allowlist %-32s %d hit(s)\n" site n)
    r.r_allowlist;
  Printf.printf "  %d shadow word(s), %d sync word(s), ~%d shadow bytes\n"
    r.r_words_tracked r.r_sync_words r.r_shadow_bytes;
  if r.r_races = [] then Printf.printf "  no races\n"

(* ---- vector clocks ------------------------------------------------------ *)

let clk_get a i = if i >= 0 && i < Array.length a then a.(i) else 0

let grow a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make n 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* join dst src, in place when dst is large enough; returns dst. *)
let join dst src =
  let n = Array.length src in
  let dst = grow dst (max n (Array.length dst)) in
  for i = 0 to n - 1 do
    if src.(i) > dst.(i) then dst.(i) <- src.(i)
  done;
  dst

(* ---- per-thread and per-word state -------------------------------------- *)

type tstate = {
  t_tid : int;
  mutable vc : int array;
  mutable locks : int list;
  mutable scopes : string list;  (* intentional_racy nesting, innermost first *)
  mutable fenced : int array;  (* clock snapshot at this thread's last fence *)
  mutable wlog : (int * int) list;  (* (addr, len) written while leased *)
  mutable hist : string list;  (* newest first, capped *)
}

type wrec = {
  mutable w_writer : side option;
  mutable w_readers : (int * side) list;  (* tid -> last read *)
  mutable w_pub : int array option;  (* publish clock *)
}

type t = {
  dev : D.t;
  mpk : Mpk.t option;
  mutable mode : mode;
  threads : (int, tstate) Hashtbl.t;
  words : (int, wrec) Hashtbl.t;  (* word index (addr/8) -> shadow record *)
  sync_clocks : (int, int array) Hashtbl.t;  (* CAS'd word -> word clock *)
  mutex_clocks : (int, int array) Hashtbl.t;  (* mutex id -> clock *)
  reported : (int * int * int, unit) Hashtbl.t;  (* (word, prev, cur) dedup *)
}

let hist_cap = 8

let note_ts ts entry =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  ts.hist <- take hist_cap (entry :: ts.hist)

let get_ts t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some ts -> ts
  | None ->
      let vc = Array.make (tid + 1) 0 in
      vc.(tid) <- 1;
      let ts =
        {
          t_tid = tid;
          vc;
          locks = [];
          scopes = [];
          fenced = [||];
          wlog = [];
          hist = [];
        }
      in
      Hashtbl.replace t.threads tid ts;
      ts

let bump ts = ts.vc.(ts.t_tid) <- ts.vc.(ts.t_tid) + 1

let get_wrec t w =
  match Hashtbl.find_opt t.words w with
  | Some r -> r
  | None ->
      let r = { w_writer = None; w_readers = []; w_pub = None } in
      Hashtbl.replace t.words w r;
      incr g_words_tracked;
      r

let mk_side ts ~write =
  {
    s_tid = ts.t_tid;
    s_time = Sim.now ();
    s_clk = ts.vc.(ts.t_tid);
    s_write = write;
    s_site = (match ts.scopes with s :: _ -> Some s | [] -> None);
    s_locks = ts.locks;
    s_hist = ts.hist;
  }

(* ---- conflict engine ----------------------------------------------------- *)

let common_locks l1 l2 = List.exists (fun l -> List.mem l l2) l1

let allowlist_hit site =
  (match Hashtbl.find_opt allowlist_hits site with
  | Some r -> incr r
  | None -> Hashtbl.replace allowlist_hits site (ref 1));
  Obs.cnt "race.allowlist_hits" 1

let violate t v =
  let key = (v.v_word, v.v_prev.s_tid, v.v_cur.s_tid) in
  if not (Hashtbl.mem t.reported key) then begin
    Hashtbl.replace t.reported key ();
    all_races := v :: !all_races;
    Obs.cnt "race.races" 1;
    if t.mode = Fail then raise (Race_found v)
  end

(* [prev] and the current access by [ts] touch word [w]; at least one is a
   write.  Ordered if prev's thread's epoch is visible in the current
   clock; failing that, allowed if a common lock orders them by mutual
   exclusion; failing that, an [intentional_racy] scope on either side
   downgrades it to a counted allowlist hit.  Otherwise: race. *)
let check_pair t ts w prev ~write =
  if
    prev.s_tid <> ts.t_tid
    && clk_get ts.vc prev.s_tid < prev.s_clk
    && not (common_locks prev.s_locks ts.locks)
  then
    match (ts.scopes, prev.s_site) with
    | site :: _, _ -> allowlist_hit site
    | [], Some site -> allowlist_hit site
    | [], None -> violate t { v_word = w; v_prev = prev; v_cur = mk_side ts ~write }

let join_pub ts r =
  match r.w_pub with Some p -> ts.vc <- join ts.vc p | None -> ()

let holds_lease ts = List.exists (fun l -> l >= 0) ts.locks

let words_of addr len f =
  let w0 = addr asr 3 and w1 = (addr + len - 1) asr 3 in
  for w = w0 to w1 do
    f w
  done

let on_write t ts addr len =
  words_of addr len (fun w ->
      if not (Hashtbl.mem t.sync_clocks w) then begin
        let r = get_wrec t w in
        join_pub ts r;
        (match r.w_writer with
        | Some prev -> check_pair t ts w prev ~write:true
        | None -> ());
        List.iter
          (fun (rtid, rs) ->
            if rtid <> ts.t_tid then check_pair t ts w rs ~write:true)
          r.w_readers;
        r.w_writer <- Some (mk_side ts ~write:true);
        r.w_readers <- []
      end);
  if holds_lease ts then ts.wlog <- (addr, len) :: ts.wlog

let on_read t ts addr len =
  words_of addr len (fun w ->
      if not (Hashtbl.mem t.sync_clocks w) then
        match Hashtbl.find_opt t.words w with
        | None -> ()  (* never written while traced: nothing to race with *)
        | Some r ->
            join_pub ts r;
            (match r.w_writer with
            | Some prev -> check_pair t ts w prev ~write:false
            | None -> ());
            r.w_readers <-
              (ts.t_tid, mk_side ts ~write:false)
              :: List.remove_assoc ts.t_tid r.w_readers)

(* A successful CAS makes its word a sync word forever: the word carries a
   clock (acquire: join it; release: store the joined result back) and its
   plain shadow record is dropped — lease handoffs are ordered through
   exactly this chain of CAS clocks. *)
let on_cas t ts addr =
  let w = addr asr 3 in
  if Hashtbl.mem t.words w then Hashtbl.remove t.words w;
  (match Hashtbl.find_opt t.sync_clocks w with
  | Some wc -> ts.vc <- join ts.vc wc
  | None -> incr g_sync_words);
  Hashtbl.replace t.sync_clocks w (Array.copy ts.vc);
  bump ts

let do_publish t ts addr len =
  words_of addr len (fun w ->
      if not (Hashtbl.mem t.sync_clocks w) then begin
        let r = get_wrec t w in
        let p = match r.w_pub with Some p -> p | None -> [||] in
        r.w_pub <- Some (join (Array.copy ts.vc) p)
      end)

(* ---- event handlers ------------------------------------------------------ *)

let on_nvm_event t (ev : D.trace_event) =
  if Sim.in_sim () then
    let tid = Sim.self_tid () in
    match ev with
    | T_store { addr; len; _ } | T_nt_store { addr; len; _ } ->
        on_write t (get_ts t tid) addr len
    | T_load { addr; len; _ } -> on_read t (get_ts t tid) addr len
    | T_cas { addr; _ } -> on_cas t (get_ts t tid) addr
    | T_fence _ ->
        let ts = get_ts t tid in
        ts.fenced <- Array.copy ts.vc;
        (* Advance the epoch past the snapshot: accesses after the fence
           must NOT be covered by a stealer that joins [fenced] (they are
           the unfenced tail an expiry takeover is allowed to race with). *)
        bump ts
    | T_clwb _ | T_media_fault _ | T_reset -> ()

let on_sync t (ev : Sim.sync_event) =
  match ev with
  | S_spawn { parent; child } ->
      if parent >= 0 then begin
        let pts = get_ts t parent in
        let cvc = Array.copy (grow pts.vc (child + 1)) in
        cvc.(child) <- clk_get pts.vc child + 1;
        Hashtbl.replace t.threads child
          {
            t_tid = child;
            vc = cvc;
            locks = [];
            scopes = [];
            fenced = [||];
            wlog = [];
            hist = [ Printf.sprintf "t=%d spawned by #%d" (Sim.now ()) parent ];
          };
        bump pts;
        note_ts pts (Printf.sprintf "t=%d spawn #%d" (Sim.now ()) child)
      end
  | S_exit { tid } ->
      note_ts (get_ts t tid) (Printf.sprintf "t=%d exit" (Sim.now ()))
  | S_kill { tid } ->
      (* State is kept: a lease stealer joins the dead holder's clock. *)
      note_ts (get_ts t tid) (Printf.sprintf "t=%d killed" (Sim.now ()))
  | S_join { tid; child } ->
      let ts = get_ts t tid in
      ts.vc <- join ts.vc (get_ts t child).vc;
      note_ts ts (Printf.sprintf "t=%d join #%d" (Sim.now ()) child)
  | S_mutex_lock { tid; id } ->
      let ts = get_ts t tid in
      (match Hashtbl.find_opt t.mutex_clocks id with
      | Some mc -> ts.vc <- join ts.vc mc
      | None -> ());
      ts.locks <- (-id - 1) :: ts.locks;
      note_ts ts (Printf.sprintf "t=%d lock mutex#%d" (Sim.now ()) id)
  | S_mutex_unlock { tid; id } ->
      let ts = get_ts t tid in
      let rec remove_first = function
        | [] -> []
        | l :: rest -> if l = -id - 1 then rest else l :: remove_first rest
      in
      ts.locks <- remove_first ts.locks;
      let old =
        match Hashtbl.find_opt t.mutex_clocks id with Some c -> c | None -> [||]
      in
      Hashtbl.replace t.mutex_clocks id (join (Array.copy ts.vc) old);
      bump ts;
      note_ts ts (Printf.sprintf "t=%d unlock mutex#%d" (Sim.now ()) id)

(* ---- attach / detach ----------------------------------------------------- *)

let current : t option ref = ref None

let attach ?mpk ?(mode = Log) dev =
  (match !current with
  | Some old ->
      D.unsubscribe_named old.dev ~name:"race";
      Sim.clear_sync_hook ()
  | None -> ());
  let t =
    {
      dev;
      mpk;
      mode;
      threads = Hashtbl.create 16;
      words = Hashtbl.create 4096;
      sync_clocks = Hashtbl.create 64;
      mutex_clocks = Hashtbl.create 16;
      reported = Hashtbl.create 16;
    }
  in
  D.subscribe_named dev ~name:"race" (on_nvm_event t);
  Sim.set_sync_hook (fun ev -> on_sync t ev);
  current := Some t;
  t

let detach () =
  match !current with
  | None -> ()
  | Some t ->
      D.unsubscribe_named t.dev ~name:"race";
      Sim.clear_sync_hook ();
      current := None

let set_mode t m = t.mode <- m

(* Deferred attach for CLI use, mirroring Check: the workloads build their
   device inside the measurement setup, so Fslab calls [auto_attach] on
   every ZoFS world it makes and the CLI just declares the mode up front. *)
let auto_mode : mode option ref = ref None
let enable_auto mode = auto_mode := Some mode
let disable_auto () = auto_mode := None

let auto_attach dev mpk =
  match !auto_mode with
  | None -> ()
  | Some mode -> ignore (attach ~mpk ~mode dev)

(* ---- annotations (no-ops unless attached to this device) ----------------- *)

let with_current dev f =
  match !current with Some t when t.dev == dev -> f t | _ -> ()

let with_ts t f =
  if Sim.in_sim () then f (get_ts t (Sim.self_tid ()))

let publish dev ~label addr len =
  with_current dev (fun t ->
      with_ts t (fun ts ->
          do_publish t ts addr len;
          bump ts;
          note_ts ts (Printf.sprintf "t=%d publish %s@0x%x" (Sim.now ()) label addr)))

let on_lease_acquired dev lease =
  with_current dev (fun t ->
      with_ts t (fun ts ->
          ts.locks <- lease :: ts.locks;
          note_ts ts (Printf.sprintf "t=%d acquire lease@0x%x" (Sim.now ()) lease)))

(* Release publishes everything written while leased: [Lease.release] runs
   its Pbatch barrier first, so by the time this hook fires the holder's
   writes are fenced and any later lock-free reader may observe them —
   exactly what a publish clock asserts.  The release→acquire CAS chain
   separately orders holder-to-holder handoff. *)
let on_lease_release dev lease =
  with_current dev (fun t ->
      with_ts t (fun ts ->
          List.iter (fun (addr, len) -> do_publish t ts addr len) ts.wlog;
          ts.wlog <- [];
          let rec remove_first = function
            | [] -> []
            | l :: rest -> if l = lease then rest else l :: remove_first rest
          in
          ts.locks <- remove_first ts.locks;
          bump ts;
          note_ts ts (Printf.sprintf "t=%d release lease@0x%x" (Sim.now ()) lease)))

(* Lease (or allocator-slot) stolen from [victim_tid].  A dead victim will
   never act again, so its entire clock may be ordered before the stealer;
   a live victim (expiry takeover) is only safe up to its last fence — its
   unfenced tail genuinely races with the stealer and stays visible to the
   detector. *)
let on_lease_steal dev ~victim_tid =
  with_current dev (fun t ->
      with_ts t (fun ts ->
          (match Hashtbl.find_opt t.threads victim_tid with
          | Some vts ->
              ts.vc <-
                join ts.vc
                  (if Sim.thread_alive victim_tid then vts.fenced else vts.vc)
          | None -> ());
          note_ts ts
            (Printf.sprintf "t=%d steal from #%d%s" (Sim.now ()) victim_tid
               (if Sim.thread_alive victim_tid then " (alive)" else " (dead)"))))

(* Pseudo-lock scope for ownership protocols that are not lease words but
   exclude concurrent access by construction (Balloc per-thread slots: the
   slot's owner word is CAS-claimed and expiry-reclaimed like a lease). *)
let locked dev ~addr f =
  match !current with
  | Some t when t.dev == dev && Sim.in_sim () ->
      let ts = get_ts t (Sim.self_tid ()) in
      ts.locks <- addr :: ts.locks;
      let pop () =
        let rec remove_first = function
          | [] -> []
          | l :: rest -> if l = addr then rest else l :: remove_first rest
        in
        ts.locks <- remove_first ts.locks
      in
      (match f () with
      | v ->
          pop ();
          v
      | exception e ->
          pop ();
          raise e)
  | _ -> f ()

let intentional_racy dev ~site ~justification f =
  if String.trim justification = "" then
    invalid_arg "Race.intentional_racy: a justification is mandatory";
  match !current with
  | Some t when t.dev == dev && Sim.in_sim () ->
      let ts = get_ts t (Sim.self_tid ()) in
      ts.scopes <- site :: ts.scopes;
      let pop () =
        match ts.scopes with _ :: rest -> ts.scopes <- rest | [] -> ()
      in
      (match f () with
      | v ->
          pop ();
          v
      | exception e ->
          pop ();
          raise e)
  | _ -> f ()

(* Page recycled by the allocator (freed or handed out fresh): its words
   start a new life under a new structure, so their old access history must
   not conflict with the new owner's writes. *)
let on_recycle dev addr len =
  with_current dev (fun t ->
      words_of addr len (fun w -> Hashtbl.remove t.words w))

(* History-only breadcrumbs for the sync reports. *)
let note entry =
  match !current with
  | Some t when Sim.in_sim () ->
      note_ts (get_ts t (Sim.self_tid ())) (Printf.sprintf "t=%d %s" (Sim.now ()) entry)
  | _ -> ()

let on_gate_enter () = note "gate enter"
let on_gate_exit () = note "gate exit"

(* ---- stats for zofs_stat / bench ---------------------------------------- *)

let publish_obs_gauges () =
  Obs.cnt "race.words_tracked" !g_words_tracked;
  Obs.cnt "race.sync_words" !g_sync_words
