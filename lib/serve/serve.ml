(* The serving plane: an overload-robust session multiplexer in front of
   the per-process FSLibs dispatchers.

   ZoFS moves the file system into the address space of every client, so
   there is no kernel scheduler between a misbehaving tenant and the NVM:
   a thundering herd of opens, a tenant flooding writes, or a client that
   dies mid-request all land directly on the coffers and their leases.
   This module is the missing front door.  It multiplexes thousands of
   simulated client threads onto a bounded set of execution slots and
   stays well-behaved under overload:

     admission    per-tenant token buckets (rate + burst) shed work the
                  tenant has no budget for, with an honest retry-after;
                  bounded per-tenant queues shed work that would only rot
                  in line (EAGAIN-with-retry-after, never silent drops)
     fairness     weighted fair queueing across tenants: each ticket gets
                  a virtual finish time [max(server vtime, tenant vtime) +
                  cost/weight]; grants always pick the smallest, so a
                  flooding tenant cannot starve a polite one
     deadlines    every request may carry an end-to-end budget; it is
                  pinned on the executing thread (Treasury.Deadline) and
                  honoured all the way down — the dispatcher refuses to
                  start new ops on it, lease acquisition gives up camping
                  (Lease.acquire ~deadline), the transient-errno absorber
                  stops retrying — and a request still in the queue when
                  its budget dies abandons its ticket
     degradation  a tier machine (Normal > Read_only > Rejecting) driven
                  by a sliding window of service outcomes (timeouts, EIO)
                  and floored by the health of the home coffer: a sick
                  server first refuses writes, then refuses everything but
                  a probe trickle, and steps back up through the same
                  tiers once probes come back clean after a cooldown

   Everything is deterministic under the simulated clock: grants happen in
   (vfinish, tenant, seq) order and no shared RNG stream is consumed.

   Grants are direct: whichever client frees a slot (or submits into a
   free one) grants the next tickets and wakes their owners ([Sim.wake]),
   so a grantee starts at the instant its slot freed.  A waiting ticket
   sleeps until its grant or its deadline, and nothing polls.  A simulated
   client that dies never unwinds, so its death is reclaimed by the death
   notice ([Sim.on_end]) the server arms on the client's thread at its
   first submit: at the instant of death the notice frees the client's
   granted slot, or abandons its waiting ticket, counts the request lost,
   and grants the freed slot on. *)

module E = Treasury.Errno
module K = Treasury.Kernfs

type tier = Normal | Read_only | Rejecting

let tier_rank = function Normal -> 0 | Read_only -> 1 | Rejecting -> 2
let tier_name = function
  | Normal -> "normal"
  | Read_only -> "read_only"
  | Rejecting -> "rejecting"

type shed_reason = Quota | Queue_full | Degraded

let reason_name = function
  | Quota -> "quota"
  | Queue_full -> "queue_full"
  | Degraded -> "degraded"

type stage = Queued | Executing

type outcome =
  | Done of (unit, E.t) result
  | Shed of { retry_after : int; reason : shed_reason }
  | Timed_out of { stage : stage }

(* ---- tickets and tenants ------------------------------------------------ *)

type ticket_state = Waiting | Granted | Abandoned

type ticket = {
  tk_tenant : int;
  tk_vf : int;  (* virtual finish time, fixed-point *)
  tk_seq : int;  (* global submission order: the deterministic tiebreak *)
  tk_wake : Sim.waker;  (* the owner's queue wait, cut short by its grant *)
  mutable tk_state : ticket_state;
}

type tenant = {
  tn_id : int;
  tn_weight : int;
  tn_rate : int;  (* work units per simulated millisecond *)
  tn_burst : int;  (* bucket capacity, work units *)
  tn_qcap : int;  (* bounded queue length *)
  tn_queue : ticket Queue.t;
  mutable tn_qlen : int;  (* live (non-abandoned) tickets in tn_queue *)
  mutable tn_vtime : int;  (* last assigned virtual finish *)
  mutable tn_tokens : int;  (* fixed-point: units * fp_scale *)
  mutable tn_refill_at : int;  (* sim time of last refill *)
  (* accounting — the campaign reconciles these exactly *)
  mutable tn_submitted : int;
  mutable tn_done_ok : int;
  mutable tn_done_err : int;
  mutable tn_timed_out : int;
  mutable tn_shed_quota : int;
  mutable tn_shed_queue : int;
  mutable tn_shed_degraded : int;
  mutable tn_lost : int;  (* client died while queued or executing *)
}

type t = {
  sv_admission : bool;
      (* false = the naive server the negative self-check needs: one
         global FIFO, no quotas, no bounds, no tiers.  Deadlines still
         hold (clients give up), so starvation becomes observable. *)
  sv_max_inflight : int;
  sv_window_ns : int;
  sv_cooldown_ns : int;
  sv_home : (K.t * int) option;  (* coffer whose health floors the tier *)
  sv_tenants : (int, tenant) Hashtbl.t;
  mutable sv_tenant_order : tenant list;  (* ascending id, for scans *)
  mutable sv_inflight : int;
  mutable sv_vtime : int;
  mutable sv_seq : int;
  sv_clients : (int, ticket option ref) Hashtbl.t;
      (* tid -> that client's live ticket, waiting or granted; the entry
         exists from the client's first submit, when its death notice is
         armed, to its death *)
  sv_probing : (int, unit) Hashtbl.t;  (* tids bypassing the tier gate *)
  (* degradation machine *)
  mutable sv_tier : tier;
  mutable sv_window_end : int;
  mutable sv_cooldown_until : int;
  mutable sv_w_total : int;
  mutable sv_w_bad : int;
  mutable sv_probe_seq : int;
  mutable sv_downs : int;
  mutable sv_ups : int;
}

let fp_scale = 1_000_000 (* token bucket fixed point; rates are per ms *)
let wfq_scale = 1_024 (* virtual-time fixed point *)
let ticket_drain_ns = 2_000 (* one queued ticket's estimated drain time *)
let min_window_samples = 8 (* don't judge a window on fewer outcomes *)
let probe_every = 16 (* in Rejecting, admit 1 request in N as a probe *)
let down_frac = 0.5 (* window bad fraction that degrades a tier *)
let up_frac = 0.1 (* window bad fraction that allows recovery *)

let create ?(max_inflight = 32) ?(window_ns = 2_000_000)
    ?(cooldown_ns = 4_000_000) ?(admission = true) ?home () =
  {
    sv_admission = admission;
    sv_max_inflight = max_inflight;
    sv_window_ns = window_ns;
    sv_cooldown_ns = cooldown_ns;
    sv_home = home;
    sv_tenants = Hashtbl.create 16;
    sv_tenant_order = [];
    sv_inflight = 0;
    sv_vtime = 0;
    sv_seq = 0;
    sv_clients = Hashtbl.create 64;
    sv_probing = Hashtbl.create 8;
    sv_tier = Normal;
    sv_window_end = Sim.now () + window_ns;
    sv_cooldown_until = 0;
    sv_w_total = 0;
    sv_w_bad = 0;
    sv_probe_seq = 0;
    sv_downs = 0;
    sv_ups = 0;
  }

let add_tenant t ~id ?(weight = 1) ?(rate_per_ms = 50) ?(burst = 16)
    ?(queue_cap = 64) () =
  if weight <= 0 || rate_per_ms <= 0 || burst <= 0 || queue_cap <= 0 then
    invalid_arg "Serve.add_tenant";
  let tn =
    {
      tn_id = id;
      tn_weight = weight;
      tn_rate = rate_per_ms;
      tn_burst = burst;
      tn_qcap = queue_cap;
      tn_queue = Queue.create ();
      tn_qlen = 0;
      tn_vtime = 0;
      tn_tokens = burst * fp_scale;
      tn_refill_at = Sim.now ();
      tn_submitted = 0;
      tn_done_ok = 0;
      tn_done_err = 0;
      tn_timed_out = 0;
      tn_shed_quota = 0;
      tn_shed_queue = 0;
      tn_shed_degraded = 0;
      tn_lost = 0;
    }
  in
  Hashtbl.replace t.sv_tenants id tn;
  t.sv_tenant_order <-
    List.sort
      (fun a b -> compare a.tn_id b.tn_id)
      (Hashtbl.fold (fun _ v acc -> v :: acc) t.sv_tenants [])

let tenant t id =
  match Hashtbl.find_opt t.sv_tenants id with
  | Some tn -> tn
  | None -> invalid_arg (Printf.sprintf "Serve: unknown tenant %d" id)

(* ---- degradation tiers -------------------------------------------------- *)

let health_floor t =
  match t.sv_home with
  | None -> Normal
  | Some (kfs, cid) -> (
      match K.coffer_health kfs cid with
      | K.Healthy | K.Suspect -> Normal
      | K.Quarantined -> Read_only
      | K.Offline -> Rejecting)

let effective_tier t =
  let f = health_floor t in
  if tier_rank f > tier_rank t.sv_tier then f else t.sv_tier

let set_tier t tier =
  if tier <> t.sv_tier then begin
    let going_down = tier_rank tier > tier_rank t.sv_tier in
    Obs.Flight.note "serve_tier"
      [ ("from", tier_name t.sv_tier); ("to", tier_name tier) ];
    if going_down then begin
      t.sv_downs <- t.sv_downs + 1;
      Obs.cnt "serve.degrade.down" 1
    end
    else begin
      t.sv_ups <- t.sv_ups + 1;
      Obs.cnt "serve.degrade.up" 1
    end;
    t.sv_tier <- tier
  end

let step_down = function Normal -> Read_only | _ -> Rejecting
let step_up = function Rejecting -> Read_only | _ -> Normal

(* Close the outcome window when its time is up.  Too many bad outcomes
   (timeouts, EIO — NOT quota sheds: shedding is the system working) step
   the tier down and start a cooldown; a clean (or quiet) window after the
   cooldown steps it back up.  Quiet windows count as clean so a server
   whose clients gave up entirely can still probe its way back. *)
let maybe_roll_window t =
  let now = Sim.now () in
  if t.sv_admission && now >= t.sv_window_end then begin
    let frac =
      if t.sv_w_total >= min_window_samples then
        float_of_int t.sv_w_bad /. float_of_int t.sv_w_total
      else 0.0
    in
    if t.sv_w_total >= min_window_samples && frac >= down_frac then begin
      if t.sv_tier <> Rejecting then set_tier t (step_down t.sv_tier);
      t.sv_cooldown_until <- now + t.sv_cooldown_ns
    end
    else if t.sv_tier <> Normal && now >= t.sv_cooldown_until && frac <= up_frac
    then set_tier t (step_up t.sv_tier);
    t.sv_w_total <- 0;
    t.sv_w_bad <- 0;
    t.sv_window_end <- now + t.sv_window_ns;
    Obs.Gauge.set (Obs.Gauge.make "serve.tier")
      (float_of_int (tier_rank (effective_tier t)))
  end

let window_outcome t ~bad =
  if t.sv_admission then begin
    t.sv_w_total <- t.sv_w_total + 1;
    if bad then t.sv_w_bad <- t.sv_w_bad + 1
  end;
  maybe_roll_window t

(* ---- the dispatcher-side tier gate -------------------------------------- *)

(* Ops that mutate the namespace or file data; refused in Read_only.  The
   dispatcher distinguishes creating opens ("creat") from plain opens so a
   read-only tier still serves reads of existing files. *)
let write_ops =
  [
    "creat"; "mkdir"; "rmdir"; "unlink"; "rename"; "chmod"; "chown";
    "symlink"; "truncate"; "write"; "pwrite"; "ftruncate";
  ]

let is_write_op op = List.mem op write_ops

(* Installed via Dispatcher.set_admission: consulted BEFORE any µFS work,
   so a degraded server refuses ops without touching NVM.  Probe threads
   bypass the gate — they exist to sense recovery. *)
let attach_dispatcher t disp =
  Treasury.Dispatcher.set_admission disp (fun ~op ->
      maybe_roll_window t;
      if Hashtbl.mem t.sv_probing (Sim.self_tid ()) then Ok ()
      else
        match effective_tier t with
        | Normal -> Ok ()
        | Read_only ->
            if is_write_op op then begin
              Obs.cnt "serve.gate.read_only_refused" 1;
              Error E.EAGAIN
            end
            else Ok ()
        | Rejecting ->
            if op = "close" then Ok () (* resource release always passes *)
            else begin
              Obs.cnt "serve.gate.rejecting_refused" 1;
              Error E.EAGAIN
            end)

(* ---- direct grants ------------------------------------------------------ *)

(* Earlier virtual finish wins; ties (same vfinish) break by submission
   order, so grants are a deterministic total order. *)
let better a b =
  match b with
  | None -> true
  | Some b -> a.tk_vf < b.tk_vf || (a.tk_vf = b.tk_vf && a.tk_seq < b.tk_seq)

(* Drop abandoned tickets off a queue head: each was already accounted,
   by its owner (queue-stage timeout) or by its owner's death notice. *)
let rec live_head tn =
  match Queue.peek_opt tn.tn_queue with
  | None -> None
  | Some tk -> (
      match tk.tk_state with
      | Waiting -> Some tk
      | Abandoned | Granted (* cannot happen: popped at grant time *) ->
          ignore (Queue.pop tn.tn_queue);
          live_head tn)

(* Fill free slots with the globally smallest-vfinish waiting tickets and
   wake their owners.  ANY client may perform grants (for itself or
   others), and so may a client's death notice: the server has no thread
   of its own. *)
let try_grant t =
  let continue_ = ref true in
  while t.sv_inflight < t.sv_max_inflight && !continue_ do
    let best = ref None in
    List.iter
      (fun tn ->
        match live_head tn with
        | Some tk when better tk !best -> best := Some tk
        | _ -> ())
      t.sv_tenant_order;
    match !best with
    | None -> continue_ := false
    | Some tk ->
        let tn = tenant t tk.tk_tenant in
        ignore (Queue.pop tn.tn_queue);
        tn.tn_qlen <- tn.tn_qlen - 1;
        tk.tk_state <- Granted;
        t.sv_inflight <- t.sv_inflight + 1;
        if tk.tk_vf > t.sv_vtime then t.sv_vtime <- tk.tk_vf;
        Sim.wake tk.tk_wake
  done

(* ---- token buckets ------------------------------------------------------ *)

let refill tn =
  let now = Sim.now () in
  let dt = now - tn.tn_refill_at in
  if dt > 0 then begin
    (* tn_rate units/ms = tn_rate * fp / 1e6 token-fp per ns *)
    let add = dt * tn.tn_rate in
    tn.tn_tokens <- min (tn.tn_burst * fp_scale) (tn.tn_tokens + add);
    tn.tn_refill_at <- now
  end

(* ns until [cost] units will be available at the tenant's refill rate *)
let eta_for tn ~cost_fp =
  let missing = cost_fp - tn.tn_tokens in
  if missing <= 0 then 0 else (missing + tn.tn_rate - 1) / tn.tn_rate

(* ---- the serving path --------------------------------------------------- *)

let labels_of tn = Obs.Labels.v [ ("tenant", string_of_int tn.tn_id) ]

(* A client's death notice: a simulated client that dies never unwinds, so
   whatever ticket it holds is reclaimed here, at the instant of death.  A
   granted ticket frees its slot, a waiting one is abandoned in its queue;
   either way the request is counted lost, once, and the slot granted on. *)
let reclaim t tid live () =
  Hashtbl.remove t.sv_clients tid;
  Hashtbl.remove t.sv_probing tid;
  match !live with
  | None -> ()
  | Some tk ->
      live := None;
      let tn = tenant t tk.tk_tenant in
      if tk.tk_state = Granted then t.sv_inflight <- t.sv_inflight - 1
      else begin
        tk.tk_state <- Abandoned;
        tn.tn_qlen <- tn.tn_qlen - 1
      end;
      tn.tn_lost <- tn.tn_lost + 1;
      Obs.cnt "serve.lost_clients" 1;
      Obs.Flight.note "serve_reclaim"
        [ ("tid", string_of_int tid); ("tenant", string_of_int tk.tk_tenant) ];
      try_grant t

(* The calling client's live-ticket cell, made and its death notice armed
   at the client's first submit. *)
let client t =
  let tid = Sim.self_tid () in
  match Hashtbl.find_opt t.sv_clients tid with
  | Some live -> live
  | None ->
      let live = ref None in
      Hashtbl.replace t.sv_clients tid live;
      Sim.on_end tid (reclaim t tid live);
      live

let shed _t tn ~reason ~retry_after =
  (match reason with
  | Quota -> tn.tn_shed_quota <- tn.tn_shed_quota + 1
  | Queue_full -> tn.tn_shed_queue <- tn.tn_shed_queue + 1
  | Degraded -> tn.tn_shed_degraded <- tn.tn_shed_degraded + 1);
  Obs.cnt_l "serve.shed" (labels_of tn) 1;
  Obs.cnt ("serve.shed." ^ reason_name reason) 1;
  Shed { retry_after = max 1 retry_after; reason }

(* [submit t ~tenant_id f] runs one client request through the full serving
   path: admission -> weighted-fair queue -> deadline-scoped execution ->
   accounting.  [cost] is the request's work-unit charge (tokens + WFQ),
   [write] whether a read-only tier must refuse it, [deadline_ns] the
   end-to-end budget relative to now.  Returns the outcome; every submitted
   request is accounted exactly once (or counted lost if its client dies). *)
let submit t ~tenant_id ?(cost = 1) ?(write = true) ?deadline_ns f =
  let tn = tenant t tenant_id in
  tn.tn_submitted <- tn.tn_submitted + 1;
  Obs.cnt_l "serve.submitted" (labels_of tn) 1;
  maybe_roll_window t;
  let t0 = Sim.now () in
  let deadline = Option.map (fun d -> t0 + d) deadline_ns in
  let probing = ref false in
  (* --- admission ---------------------------------------------------- *)
  let admitted =
    if not t.sv_admission then Ok ()
    else begin
      match effective_tier t with
      | Rejecting ->
          t.sv_probe_seq <- t.sv_probe_seq + 1;
          if t.sv_probe_seq mod probe_every = 0 then begin
            probing := true;
            Ok ()
          end
          else
            Error (shed t tn ~reason:Degraded ~retry_after:t.sv_window_ns)
      | Read_only when write ->
          Error (shed t tn ~reason:Degraded ~retry_after:t.sv_window_ns)
      | Read_only | Normal ->
          refill tn;
          let cost_fp = cost * fp_scale in
          if tn.tn_tokens < cost_fp then
            Error (shed t tn ~reason:Quota ~retry_after:(eta_for tn ~cost_fp))
          else if tn.tn_qlen >= tn.tn_qcap then
            (* a full queue sheds BEFORE charging tokens: the client will
               retry, and its budget should still be there when it does *)
            Error
              (shed t tn ~reason:Queue_full
                 ~retry_after:(ticket_drain_ns * tn.tn_qcap))
          else begin
            tn.tn_tokens <- tn.tn_tokens - cost_fp;
            Ok ()
          end
    end
  in
  match admitted with
  | Error o -> o
  | Ok () -> (
      (* --- enqueue under WFQ ------------------------------------------ *)
      t.sv_seq <- t.sv_seq + 1;
      let vf =
        if not t.sv_admission then t.sv_seq (* plain global FIFO *)
        else begin
          let start = max t.sv_vtime tn.tn_vtime in
          let fin = start + (cost * wfq_scale / tn.tn_weight) in
          tn.tn_vtime <- fin;
          fin
        end
      in
      let tk =
        {
          tk_tenant = tenant_id;
          tk_vf = vf;
          tk_seq = t.sv_seq;
          tk_wake = Sim.waker ();
          tk_state = Waiting;
        }
      in
      let live = client t in
      live := Some tk;
      Queue.push tk tn.tn_queue;
      tn.tn_qlen <- tn.tn_qlen + 1;
      (* --- wait for a slot: until a grant wakes us or the budget dies --- *)
      let rec await () =
        try_grant t;
        match tk.tk_state with
        | Granted -> `Run
        | Abandoned -> `Dead (* unreachable: only a timeout or death abandons *)
        | Waiting -> (
            match deadline with
            | Some d when Sim.now () >= d ->
                tk.tk_state <- Abandoned;
                tn.tn_qlen <- tn.tn_qlen - 1;
                live := None;
                `Dead
            | _ ->
                Sim.sleep_until_woken ?until:deadline tk.tk_wake;
                await ())
      in
      (* Only execution-stage timeouts feed the degrade window: a budget
         dying in the queue is overload (admission's job), not sickness. *)
      let timed_out ~stage =
        tn.tn_timed_out <- tn.tn_timed_out + 1;
        Obs.cnt_l "serve.timed_out" (labels_of tn) 1;
        window_outcome t ~bad:(stage = Executing);
        Timed_out { stage }
      in
      match await () with
      | `Dead ->
          Obs.cnt "serve.queue_timeouts" 1;
          timed_out ~stage:Queued
      | `Run -> (
          Obs.cnt "serve.queue_wait_ns" (Sim.now () - t0);
          (* the budget can die between grant and first instruction *)
          match deadline with
          | Some d when Sim.now () >= d ->
              live := None;
              t.sv_inflight <- t.sv_inflight - 1;
              try_grant t;
              timed_out ~stage:Queued
          | _ ->
              if !probing then
                Hashtbl.replace t.sv_probing (Sim.self_tid ()) ();
              let finish () =
                Hashtbl.remove t.sv_probing (Sim.self_tid ());
                live := None;
                t.sv_inflight <- t.sv_inflight - 1;
                try_grant t
              in
              let res =
                match
                  match deadline with
                  | Some d -> Treasury.Deadline.with_deadline d f
                  | None -> f ()
                with
                | r ->
                    finish ();
                    r
                | exception Treasury.Deadline.Expired _ ->
                    (* a bare Deadline.check between ops of a composite
                       request; op-level expiry is already ETIMEDOUT *)
                    finish ();
                    Error E.ETIMEDOUT
                | exception e ->
                    finish ();
                    raise e
              in
              (* deadline-exceeded beats success: a request that finished
                 its work past its budget is a timeout to the client (the
                 side effects stand — aborts only happen at safe points —
                 but the response is late), and late completions are
                 exactly the sickness the degrade window watches for *)
              let res =
                match (res, deadline) with
                | Ok (), Some d when Sim.now () >= d -> Error E.ETIMEDOUT
                | _ -> res
              in
              let dt = Sim.now () - t0 in
              Obs.observe_l "op.latency"
                (Obs.Labels.v
                   [ ("op", "req"); ("tenant", string_of_int tn.tn_id) ])
                dt;
              (match res with
              | Ok () ->
                  tn.tn_done_ok <- tn.tn_done_ok + 1;
                  Obs.cnt_l "serve.done" (labels_of tn) 1;
                  window_outcome t ~bad:false
              | Error E.ETIMEDOUT ->
                  tn.tn_timed_out <- tn.tn_timed_out + 1;
                  Obs.cnt_l "serve.timed_out" (labels_of tn) 1;
                  window_outcome t ~bad:true
              | Error e ->
                  tn.tn_done_err <- tn.tn_done_err + 1;
                  Obs.cnt_l "serve.done_err" (labels_of tn) 1;
                  window_outcome t ~bad:(e = E.EIO));
              match res with
              | Error E.ETIMEDOUT -> Timed_out { stage = Executing }
              | r -> Done r))

(* ---- introspection (campaign + zofs_top) -------------------------------- *)

type tenant_stats = {
  ts_id : int;
  ts_submitted : int;
  ts_done_ok : int;
  ts_done_err : int;
  ts_timed_out : int;
  ts_shed_quota : int;
  ts_shed_queue : int;
  ts_shed_degraded : int;
  ts_lost : int;
}

let tenant_stats t =
  List.map
    (fun tn ->
      {
        ts_id = tn.tn_id;
        ts_submitted = tn.tn_submitted;
        ts_done_ok = tn.tn_done_ok;
        ts_done_err = tn.tn_done_err;
        ts_timed_out = tn.tn_timed_out;
        ts_shed_quota = tn.tn_shed_quota;
        ts_shed_queue = tn.tn_shed_queue;
        ts_shed_degraded = tn.tn_shed_degraded;
        ts_lost = tn.tn_lost;
      })
    t.sv_tenant_order

let shed_total s = s.ts_shed_quota + s.ts_shed_queue + s.ts_shed_degraded

(* submitted = done + errors + timeouts + sheds + lost, exactly — the
   accounting invariant the overload campaign asserts per tenant. *)
let accounted s =
  s.ts_done_ok + s.ts_done_err + s.ts_timed_out + shed_total s + s.ts_lost

let current_tier = effective_tier
let degrade_downs t = t.sv_downs
let degrade_ups t = t.sv_ups
let inflight t = t.sv_inflight
let max_inflight t = t.sv_max_inflight
