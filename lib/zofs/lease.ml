(* Lease locks (paper §5.2).

   A lease is a single u64 on NVM: [(expiry_ns << 16) | owner_code], 0 when
   free.  Owners acquire and release with compare-and-swap; the timestamp
   comes from the simulated clock (the paper uses clock_gettime through the
   vDSO, which is why taking a timestamp is cheap).  If a thread dies while
   holding a lease, the lease expires and any other thread can steal it —
   that is the whole point of leases over plain locks in a file system
   mapped into untrusted processes. *)

let default_duration = 100_000 (* 100 µs of simulated time *)
let clock_gettime_cost = 25 (* ns: vDSO call *)
let backoff_base = 200 (* ns: first inter-attempt delay *)
let backoff_cap = 6_400 (* ns: delays stop growing here *)

let owner_code () = Sim.self_tid () + 2 (* >= 1 even for the non-sim tid -1 *)

let pack ~expiry ~code = (expiry lsl 16) lor (code land 0xFFFF)
let expiry_of v = v lsr 16
let code_of v = v land 0xFFFF

let now () =
  Sim.advance clock_gettime_cost;
  Sim.now ()

(* Acquire the lease at [addr]; backs off (capped exponential with
   deterministic jitter, Treasury.Backoff) while another thread holds a
   valid lease.

   [deadline] is an absolute simulated time after which the caller would
   rather give up than keep camping on the lease; it defaults to the
   request's ambient deadline (Treasury.Deadline), so the serving plane's
   end-to-end budget reaches all the way into lock acquisition without any
   signature changes in between.  Expiry raises [Treasury.Deadline.Expired]
   BEFORE the lease is taken — never after, so a deadlined request cannot
   abandon a critical section halfway.  A deadline already in the past
   still grants one CAS attempt: an uncontended lease costs one try, so
   "zero budget" degrades to try-once rather than fail-always. *)
let acquire ?(duration = default_duration) ?deadline dev addr =
  let deadline =
    match deadline with Some _ as d -> d | None -> Treasury.Deadline.current ()
  in
  let me = owner_code () in
  let tok = Obs.lease_begin () in
  let retries = ref 0 in
  let bo = Treasury.Backoff.create ~base:backoff_base ~cap:backoff_cap ~salt:addr () in
  let give_up () =
    Obs.lease_abort tok ~retries:!retries;
    let d = match deadline with Some d -> d | None -> assert false in
    raise (Treasury.Deadline.Expired { deadline = d; now = Sim.now () })
  in
  (* Sleep one backoff step before the next attempt; when a deadline is set,
     never sleep past it, and once it is reached the attempt that follows is
     the final one ([last] below). *)
  let pause () =
    incr retries;
    match deadline with
    | None ->
        ignore (Treasury.Backoff.wait bo);
        `Again
    | Some d ->
        if Treasury.Backoff.wait_until bo ~deadline:d then `Again else `Last
  in
  (* After a CAS-failure backoff the previous timestamp is at most one
     backoff step stale — well within lease granularity — so the retry
     reuses it instead of paying clock_gettime_cost a second time. *)
  let rec attempt ~fresh_clock ~last =
    let v = Nvm.Device.read_u64 dev addr in
    let t = if fresh_clock then now () else Sim.now () in
    if v = 0 || expiry_of v <= t || code_of v = me then begin
      (* No flush: lease state is coordination only — after a crash every
         lease has expired by construction. *)
      let desired = pack ~expiry:(t + duration) ~code:me in
      if Nvm.Device.cas_u64 dev addr ~expected:v ~desired then begin
        (* Taking over a nonzero expired word is a steal: the holder died
           (or stalled past its lease) mid-operation. *)
        if v <> 0 && code_of v <> me then begin
          let victim_tid = code_of v - 2 in
          Obs.cnt_coffer "lease.steals" 1;
          (* Stealing from a thread that no longer exists (its whole process
             was SIGKILLed, possibly a different process than ours) is the
             cross-process recovery path of §5.2 — count it separately so
             the chaos campaign can reconcile process kills against steals. *)
          if not (Sim.thread_alive victim_tid) then
            Obs.cnt "lease.steals_dead_holder" 1;
          Obs.Flight.note "lease_steal"
            [
              ("addr", string_of_int addr);
              ("victim_tid", string_of_int victim_tid);
              ("victim_alive", string_of_bool (Sim.thread_alive victim_tid));
            ];
          (* The dead (or stalled) holder never released: hand the race
             detector the ordering edge the CAS chain cannot provide. *)
          Race.on_lease_steal dev ~victim_tid
        end;
        Obs.lease_end tok ~retries:!retries;
        Check.on_lease_acquired dev addr;
        Race.on_lease_acquired dev addr
      end
      else if last then give_up ()
      else
        match pause () with
        | `Again -> attempt ~fresh_clock:false ~last:false
        | `Last -> attempt ~fresh_clock:false ~last:true
    end
    else if last then give_up ()
    else
      match pause () with
      | `Again -> attempt ~fresh_clock:true ~last:false
      | `Last -> attempt ~fresh_clock:true ~last:true
  in
  let already_expired =
    match deadline with Some d -> Sim.now () >= d | None -> false
  in
  attempt ~fresh_clock:true ~last:already_expired

(* Renew the current thread's lease (no-op if it was stolen).  The CAS with
   the exact word read means a stale holder can never clobber a stealer's
   lease; a failed CAS (or a word already carrying another owner's code) is
   the moment a steal becomes visible to the old holder — counted so the
   chaos campaign can reconcile steals against detections. *)
let renew ?(duration = default_duration) dev addr =
  let me = owner_code () in
  let v = Nvm.Device.read_u64 dev addr in
  if code_of v = me then begin
    let t = now () in
    if
      not
        (Nvm.Device.cas_u64 dev addr ~expected:v
           ~desired:(pack ~expiry:(t + duration) ~code:me))
    then Obs.cnt "lease.stolen_detected" 1
  end
  else if v <> 0 then Obs.cnt "lease.stolen_detected" 1

let release dev addr =
  let me = owner_code () in
  (* Release is the operation's final ordering point: the batched commit
     paths leave their last stores (size/mtime, intention clear, dentry
     valid byte) flushed but unfenced, and this barrier makes them durable
     exactly once — before the durability audit below, and elided entirely
     when nothing is in flight (e.g. after a read-only critical section). *)
  Pbatch.barrier dev;
  Check.on_lease_release dev addr;
  Race.on_lease_release dev addr;
  let v = Nvm.Device.read_u64 dev addr in
  if code_of v = me then begin
    if not (Nvm.Device.cas_u64 dev addr ~expected:v ~desired:0) then
      Obs.cnt "lease.stolen_detected" 1
  end
  else if v <> 0 then Obs.cnt "lease.stolen_detected" 1

let holds dev addr =
  let v = Nvm.Device.read_u64 dev addr in
  code_of v = owner_code () && expiry_of v > Sim.now ()

let with_lease ?duration ?deadline dev addr f =
  acquire ?duration ?deadline dev addr;
  match f () with
  | v ->
      release dev addr;
      v
  | exception e ->
      release dev addr;
      raise e
