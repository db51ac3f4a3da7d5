(* The per-operation persist batcher (speed campaign, ROADMAP item 3).

   The µFS commit paths used to persist every metadata store on the spot
   with [persist_range] (clwb + sfence).  Most of those fences order
   nothing: within one operation only the *publish points* — the moments
   the persistence checker audits (a dentry-insert publish, an
   inode-commit publish, a lease release) — need everything earlier to be
   durable.  Between publish points, stores only have to be *flushed*
   (clwb), and flushes of the same cache line coalesce: a line that is
   already Flushing persists its latest contents at the next fence, so
   re-flushing it buys nothing (lib/check lints exactly this as
   "redundant-flush", and the device counts it).

   One fence can serve two publish points: a create's new inode is only
   flushed ([Inode.prepare]), and the fence before its dentry's valid
   byte commits both ([Dir.write_dentry ~fresh]).  Some stores need no
   flush at all: the allocator's free lists are volatile, and recovery
   rebuilds them after a crash ([Balloc]).

   So the batcher exposes two primitives:

     [flush dev addr len]   clwb each line of the range that actually has
                            unflushed stores; lines already in flight (or
                            clean) are skipped.  Never fences.
     [barrier dev]          sfence only if some line is flushed-but-
                            unfenced; otherwise the fence would be a
                            recorded no-op and is elided.

   Both consult the device's own line-state table
   ([Nvm.Device.line_needs_flush] / [flushing_lines]) rather than a
   shadow set kept here.  That is deliberate: a kernel call in the middle
   of a µFS operation (e.g. coffer_enlarge committing its atomic section)
   issues a real fence, and a privately-kept "already flushed" set would
   go stale and skip a clwb that is needed again — silent data loss.  The
   device table is the ground truth a careful library would maintain for
   its own stores, and using it makes every elision *individually* safe:
   a skipped clwb is one the device would have counted redundant, and a
   skipped sfence is one with nothing in flight to order.

   The negative self-check for an over-aggressive elision is the device's
   own fault, [Nvm.Device.inject_drop_fences]: the needed fence is not
   issued, and the persistence checker and the crash model checker must
   both catch the resulting missing-fence bug. *)

(* Elision counters (lib/obs): how much work the batcher saved. *)
let flushes_elided = "pbatch.flushes_elided"
let fences_elided = "pbatch.fences_elided"

let flush dev addr len =
  let first = addr / Nvm.line_size and last = (addr + len - 1) / Nvm.line_size in
  for line = first to last do
    let a = line * Nvm.line_size in
    if Nvm.Device.line_needs_flush dev a then Nvm.Device.clwb dev a
    else Obs.cnt_coffer flushes_elided 1
  done

let barrier dev =
  if Nvm.Device.flushing_lines dev > 0 then Nvm.Device.sfence dev
  else Obs.cnt_coffer fences_elided 1

(* [flush] + [barrier]: a batched [persist_range] for the spots that are
   themselves ordering points. *)
let persist dev addr len =
  flush dev addr len;
  barrier dev
