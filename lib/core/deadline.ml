(* End-to-end request deadlines, carried ambiently through dispatch.

   The serving frontend (lib/serve) admits a request with a deadline; the
   dispatcher, the µFS commit paths, lease acquisition and the transient
   kernel-errno retry loop all sit below it and must be able to observe
   "this request's time budget is gone" without threading a parameter
   through every signature.  The deadline is therefore pinned on the
   simulated thread executing the request — one thread serves one request
   at a time, exactly like the FD table and PKRU state are per-thread.

   Deadlines only abort at SAFE-TO-ABORT points: before a lease is taken,
   or between kernel-call retries.  Code that has started mutating under a
   lease runs to completion (bounded by the lease duration); a request is
   never torn in the middle of a commit sequence by its own deadline.
   [Expired] escapes to the dispatcher, which converts it into ETIMEDOUT —
   the same graceful-error discipline as the fault paths.

   Entries are keyed by (world uid, tid): a thread killed by chaos
   injection never unwinds, so its deadline entry survives it.  Nothing
   reads that entry again: tids are never reused within a world, the world
   uid keeps it from applying to a thread of a later simulation that
   reuses the tid, and the first use of the table in a new world
   ([roll_world]) drops it. *)

exception Expired of { deadline : int; now : int }

let table : (int * int, int) Hashtbl.t = Hashtbl.create 64
let cur_world = ref (-1)

let key () = (Sim.world_uid (), Sim.self_tid ())

(* Entries of finished worlds are garbage; drop them wholesale the first
   time a new world touches the table. *)
let roll_world () =
  let w = Sim.world_uid () in
  if w <> !cur_world then begin
    cur_world := w;
    Hashtbl.reset table
  end

let current () =
  roll_world ();
  Hashtbl.find_opt table (key ())

(* [with_deadline d f]: run [f] with the calling thread's deadline set to
   the absolute simulated time [d], restoring the previous deadline (for
   nesting) afterwards.  A tighter enclosing deadline wins: deadlines can
   only shrink the budget, never extend it. *)
let with_deadline d f =
  roll_world ();
  let k = key () in
  let prev = Hashtbl.find_opt table k in
  let eff = match prev with Some p -> min p d | None -> d in
  Hashtbl.replace table k eff;
  let restore () =
    match prev with
    | Some p -> Hashtbl.replace table k p
    | None -> Hashtbl.remove table k
  in
  match f () with
  | v ->
      restore ();
      v
  | exception e ->
      restore ();
      raise e

let remaining () =
  match current () with None -> None | Some d -> Some (d - Sim.now ())

let expired () =
  match current () with None -> false | Some d -> Sim.now () >= d

(* Raise [Expired] when the ambient budget is gone.  Callers place this at
   safe-to-abort points only (see the module comment). *)
let check () =
  match current () with
  | Some d when Sim.now () >= d -> raise (Expired { deadline = d; now = Sim.now () })
  | _ -> ()
