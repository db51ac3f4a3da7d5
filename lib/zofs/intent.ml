(* Intention records for online lease-steal repair.

   A thread that dies mid-mutation leaves its lease to expire and its update
   half-done; the next acquirer (the "stealer") must make the structure
   consistent before using it.  Every µFS mutation protected by an inode
   lease but one therefore records an intention in the inode page — ONE
   u64 at [Layout.i_intent] packing the tag in the top byte and the
   argument in the low 56 bits, so a single store publishes tag and
   argument together and no crash point can pair a fresh tag with a stale
   argument — before touching the structure, and clears it as its last
   persist before releasing the lease.  The exception is an in-place
   overwrite (File.write: within the size, over blocks already mapped): it
   moves no pointer and no size, so a dead writer leaves each line old or
   new and there is nothing to roll back; it records nothing.  The
   records:

     Insert  arg = dentry slot address   repair rolls the insert back
                                         (invalidate the slot)
     Remove  arg = dentry slot address   repair rolls the removal forward
                                         (invalidate the slot)
     Size    arg = previous file size    repair rolls the size back
     Trunc   arg = target (new) size     repair rolls the truncate FORWARD
                                         (re-running the shrink to [arg])

   Both dentry repairs converge on "slot invalid" because a half-written
   insert must not become visible and a half-done removal must finish; the
   size rollback pairs with the write path's write-data-then-publish-size
   order.  Trunc is the one roll-forward record: rolling a truncate back
   would resurrect pointers to freed pages, so the record is made durable
   *before* the first destructive store and repair completes the shrink
   instead (idempotent: already-zeroed pointers are skipped, so a page is
   never both referenced and freed).  All repairs are idempotent, so a
   stealer that is itself killed mid-repair leaves a state the next stealer
   repairs identically.

   Persistence: [record] and [clear] only *flush* the word (Pbatch); the
   record rides the operation's first ordering point and the clear rides
   the lease-release fence, which is exactly late enough — a lost clear
   only re-runs an idempotent repair.  The Trunc caller adds its own
   barrier after [record] (roll-forward records must be durable before the
   mutation's destructive stores are).  Repair itself persists eagerly
   ([clear_durable]): it also runs from offline recovery where no
   lease-release fence follows.

   Offline recovery clears any stale intention it finds during inode scans
   (applying the same repair), so a post-crash mount never leaves a record
   that would make a later online acquirer roll back blessed state. *)

open Layout

type kind = Insert | Remove | Size | Trunc

let tag_of = function Insert -> 1 | Remove -> 2 | Size -> 3 | Trunc -> 4

let kind_of_tag = function
  | 1 -> Some Insert
  | 2 -> Some Remove
  | 3 -> Some Size
  | 4 -> Some Trunc
  | _ -> None

(* Device addresses and file sizes both fit 56 bits with room to spare. *)
let arg_mask = (1 lsl 56) - 1

let record dev ~ino kind ~arg =
  assert (arg land arg_mask = arg);
  Nvm.Device.write_u64 dev (ino + i_intent) ((tag_of kind lsl 56) lor arg);
  Pbatch.flush dev (ino + i_intent) 8

let clear dev ~ino =
  Nvm.Device.write_u64 dev (ino + i_intent) 0;
  Pbatch.flush dev (ino + i_intent) 8

let clear_durable dev ~ino =
  Nvm.Device.write_u64 dev (ino + i_intent) 0;
  Nvm.Device.persist_range dev (ino + i_intent) 8

let pending dev ~ino = Nvm.Device.read_u64 dev (ino + i_intent) <> 0

(* Dir.clear_dentry's primitive, inlined to keep Intent below Dir in the
   module graph (Dir records intents; Intent must not call back into Dir). *)
let invalidate_slot dev slot =
  Nvm.Device.write_u8 dev (slot + d_valid) 0;
  Nvm.Device.persist_range dev (slot + d_valid) 1

(* The Trunc roll-forward is file-layout surgery (block-pointer walks), which
   lives in File — above this module.  File installs its repair here at
   load time; the [free] callback returns pages to the caller's allocator
   when one is at hand (online steal), and is [None] offline, where leaked
   pages are reclaimed by fsck's reachability rebuild anyway. *)
let trunc_repair :
    (Nvm.Device.t -> free:(int -> unit) option -> ino:int -> int -> unit) ref =
  ref (fun _ ~free:_ ~ino:_ _ ->
      failwith "Intent: truncate repair not installed (File not linked?)")

let set_trunc_repair f = trunc_repair := f

(* Apply and clear a pending intention on [ino].  Called by the new holder
   right after acquiring the inode lease (and by offline recovery during
   inode scans).  Returns [true] when a repair was applied. *)
let repair ?free dev ~ino =
  let word = Nvm.Device.read_u64 dev (ino + i_intent) in
  if word = 0 then false
  else begin
    let tag = word lsr 56 in
    let arg = word land arg_mask in
    (match kind_of_tag tag with
    | Some Insert | Some Remove ->
        (* Bounds-sanity only: a record is written before the mutation, so
           the slot always lies in a structure page the directory owned. *)
        if arg > 0 && arg + dentry_size <= Nvm.Device.size dev then
          invalidate_slot dev arg
    | Some Size ->
        if Nvm.Device.read_u64 dev (ino + i_size) <> arg then begin
          Nvm.Device.write_u64 dev (ino + i_size) arg;
          Nvm.Device.persist_range dev (ino + i_size) 8
        end
    | Some Trunc -> !trunc_repair dev ~free ~ino arg
    | None -> () (* unknown tag: just clear it *));
    clear_durable dev ~ino;
    Obs.cnt "intent.repairs" 1;
    true
  end
