(* Regular-file data management: ext4-style direct / indirect /
   double-indirect 4 KB block mapping (paper §5.1).

   Data is written with non-temporal stores (the paper confirms ZoFS uses
   non-temporal writes for all experiments).  A write that allocates a
   block or moves the size publishes in the order data → block pointer →
   size, each flushed, so a crash never exposes a size that covers
   unwritten data.  An overwrite in place — within the size, over blocks
   already mapped — publishes nothing: its data needs only the
   lease-release fence (see [write]). *)

open Layout

let block_of_off off = off / page_size
let blocks_for len = (len + page_size - 1) / page_size

(* Address of the pointer word for block [b] of the file; allocates
   intermediate indirect pages when an allocator is supplied. *)
let pointer_addr dev balloc ~ino b =
  let alloc_indirect () =
    match balloc with
    | None -> Ok 0
    | Some a -> ( match Balloc.alloc_zeroed a with Error e -> Error e | Ok p -> Ok p)
  in
  if b < n_direct then Ok (Some (Inode.direct_addr ~ino b))
  else if b < n_direct + ptrs_per_page then begin
    let ind = Inode.indirect dev ~ino in
    if ind <> 0 then Ok (Some (ind + ((b - n_direct) * 8)))
    else
      match alloc_indirect () with
      | Error e -> Error e
      | Ok 0 -> Ok None
      | Ok page ->
          Inode.set_indirect dev ~ino page;
          Ok (Some (page + ((b - n_direct) * 8)))
  end
  else if b < max_blocks then begin
    let idx = b - n_direct - ptrs_per_page in
    let outer = idx / ptrs_per_page and inner = idx mod ptrs_per_page in
    match
      let dind = Inode.double_indirect dev ~ino in
      if dind <> 0 then Ok dind
      else
        match alloc_indirect () with
        | Error e -> Error e
        | Ok 0 -> Ok 0
        | Ok page ->
            Inode.set_double_indirect dev ~ino page;
            Ok page
    with
    | Error e -> Error e
    | Ok 0 -> Ok None
    | Ok dind -> (
        let outer_addr = dind + (outer * 8) in
        match
          let mid = Nvm.Device.read_u64 dev outer_addr in
          if mid <> 0 then Ok mid
          else
            match alloc_indirect () with
            | Error e -> Error e
            | Ok 0 -> Ok 0
            | Ok page ->
                Nvm.Device.write_u64 dev outer_addr page;
                Pbatch.flush dev outer_addr 8;
                Ok page
        with
        | Error e -> Error e
        | Ok 0 -> Ok None
        | Ok mid -> Ok (Some (mid + (inner * 8))))
  end
  else Error Treasury.Errno.EFBIG

let block_addr dev ~ino b =
  match pointer_addr dev None ~ino b with
  | Ok (Some ptr) -> Nvm.Device.read_u64 dev ptr
  | Ok None -> 0
  | Error _ -> 0

(* [ensure_block] returns the block's byte address, allocating on demand.
   [zero] skips the scrub when the caller immediately overwrites the whole
   block — the common case for 4 KB appends, and the difference between a
   one-write and a two-write data path. *)
let ensure_block dev balloc ~ino ~zero b =
  match pointer_addr dev (Some balloc) ~ino b with
  | Error e -> Error e
  | Ok None -> Error Treasury.Errno.EIO
  | Ok (Some ptr) -> (
      let existing = Nvm.Device.read_u64 dev ptr in
      if existing <> 0 then Ok existing
      else
        match Balloc.alloc_page balloc with
        | Error e -> Error e
        | Ok page ->
            if zero then Nvm.Device.nt_fill dev page page_size '\000';
            Nvm.Device.write_u64 dev ptr page;
            Pbatch.flush dev ptr 8;
            Ok page)

(* ---- read ---------------------------------------------------------------- *)

let read dev ~ino ~off buf boff len =
  let fsize = Inode.size dev ~ino in
  if off >= fsize then Ok 0
  else begin
    let len = min len (fsize - off) in
    let remaining = ref len and src = ref off and dst = ref boff in
    while !remaining > 0 do
      let b = block_of_off !src in
      let in_block = !src mod page_size in
      let n = min !remaining (page_size - in_block) in
      let addr = block_addr dev ~ino b in
      if addr = 0 then
        (* hole *)
        Bytes.fill buf !dst n '\000'
      else Nvm.Device.blit_to_bytes dev (addr + in_block) buf !dst n;
      src := !src + n;
      dst := !dst + n;
      remaining := !remaining - n
    done;
    Ok len
  end

(* ---- write ---------------------------------------------------------------- *)

(* Negative self-check (the crash gate's [overwrite_past_eof_in_place]):
   when set, the in-place test skips its size bound, so a write that ends
   past EOF inside an allocated block commits in place and leaves the size
   behind. *)
let inject_in_place_past_eof = ref false

(* The addresses of the blocks that [off, off + len) covers, or [None] when
   one of them is a hole or sits behind a missing pointer page.  [len] > 0. *)
let mapped_blocks dev ~ino ~off len =
  let first = block_of_off off in
  let addrs = Array.make (block_of_off (off + len - 1) - first + 1) 0 in
  let rec go k =
    if k = Array.length addrs then Some addrs
    else
      let addr = block_addr dev ~ino (first + k) in
      if addr = 0 then None
      else begin
        addrs.(k) <- addr;
        go (k + 1)
      end
  in
  go 0

(* Store [data] at file offset [off] with non-temporal stores, block by
   block; [block_at b ~whole] is block [b]'s address, [whole] when the
   store covers all of it. *)
let store dev ~off data block_at =
  let len = String.length data in
  let rec loop src_off dst_off =
    if src_off >= len then Ok ()
    else
      let b = block_of_off dst_off in
      let in_block = dst_off mod page_size in
      let n = min (len - src_off) (page_size - in_block) in
      match block_at b ~whole:(in_block = 0 && n = page_size) with
      | Error e -> Error e
      | Ok addr ->
          Nvm.Device.nt_write_string dev (addr + in_block)
            (String.sub data src_off n);
          loop (src_off + n) (dst_off + n)
  in
  loop 0 off

(* A write that extends the size, fills a hole or allocates a pointer
   page.  Intention: if this thread dies mid-write the stealer rolls the
   size back to [old_size], hiding any half-written data beyond it (data
   within the old size may be torn, which POSIX allows for an
   unacknowledged write). *)
let write_allocating dev balloc ~ino ~off ~old_size data =
  Intent.record dev ~ino Intent.Size ~arg:old_size;
  match
    store dev ~off data (fun b ~whole ->
        ensure_block dev balloc ~ino ~zero:(not whole) b)
  with
  | Error e ->
      (* Size never moved, so the record is moot — drop it (the clear
         rides the lease-release fence). *)
      Intent.clear dev ~ino;
      Error e
  | Ok () ->
      (* One ordering point makes the intention record, the data and the
         block pointers durable together; the size/mtime update and the
         intention clear after it ride the lease-release fence.  Any crash
         combination of those two pending lines is safe: size-new with the
         record still present is rolled back by the stealer, size-old is
         the op never happening — both fine for an unacknowledged write.
         Two fences per append, down from four. *)
      Pbatch.barrier dev;
      let new_end = off + String.length data in
      if new_end > Inode.size dev ~ino then Inode.set_size dev ~ino new_end
      else Inode.touch_mtime dev ~ino;
      Intent.clear dev ~ino;
      Ok (String.length data)

(* The write decides its own protocol.  An in-place overwrite — it ends
   within the size and every block it covers is already mapped — moves no
   pointer and no size, so it has nothing to publish and nothing a stealer
   could roll back: it stores the data through the block addresses it
   looked up, touches mtime, records no intention and issues no fence.
   The lease-release fence makes data and mtime durable together, one
   fence per op.  A holder that dies first leaves each line old or new, as
   the allocating protocol already did before its first fence.  Every
   other write takes [write_allocating]'s two fences. *)
let write dev balloc ~ino ~off data =
  let len = String.length data in
  if len = 0 then Ok 0
  else begin
    let old_size = Inode.size dev ~ino in
    match
      if off + len <= old_size || !inject_in_place_past_eof then
        mapped_blocks dev ~ino ~off len
      else None
    with
    | None -> write_allocating dev balloc ~ino ~off ~old_size data
    | Some addrs ->
        let first = block_of_off off in
        ignore (store dev ~off data (fun b ~whole:_ -> Ok addrs.(b - first)));
        Inode.touch_mtime dev ~ino;
        Ok len
  end

(* ---- truncate -------------------------------------------------------------- *)

(* The pointer words [lo, hi) of the pointer page at [page], read with one
   sequential load (element [k] is slot [lo + k]).  The full walks below read
   every word of such a range anyway; the device charges a load wider than a
   line as one read latency plus bandwidth, where word-by-word loads miss
   once per line. *)
let load_ptrs dev page lo hi =
  if hi <= lo then [||]
  else begin
    let buf = Bytes.create ((hi - lo) * 8) in
    Nvm.Device.blit_to_bytes dev (page + (lo * 8)) buf 0 (Bytes.length buf);
    Array.init (hi - lo) (fun k -> Int64.to_int (Bytes.get_int64_le buf (k * 8)))
  end

(* Zero the block pointer at [ptr], which holds page [addr], then free the
   page.  The reference is always scrubbed and flushed BEFORE the page goes
   to a free list — whose chaining writes into the page — so no
   interruption point leaves a page both referenced and freed, and a repair
   re-run can use "pointer still set" as "page still mine".  [free] is
   [None] during offline intent repair, where the page is simply leaked
   until fsck's reachability rebuild reclaims it. *)
let scrub_ptr dev ~free ptr addr =
  Nvm.Device.write_u64 dev ptr 0;
  Pbatch.flush dev ptr 8;
  match free with Some f -> f addr | None -> ()

let drop_ptr dev ~free ptr =
  let addr = Nvm.Device.read_u64 dev ptr in
  if addr <> 0 then scrub_ptr dev ~free ptr addr

(* Drop pointers [lo, ptrs_per_page) of pointer page [page], in slot order. *)
let drop_range dev ~free page lo =
  Array.iteri
    (fun k addr ->
      if addr <> 0 then scrub_ptr dev ~free (page + ((lo + k) * 8)) addr)
    (load_ptrs dev page lo ptrs_per_page)

(* The shrink body shared by [truncate] and the Trunc intent repair.  It
   walks the pointer STRUCTURE (not the size): a repair must not trust
   [i_size], which a crash may have already advanced to the target while
   some pointer scrubs were lost.  Idempotent — already-zero pointers are
   skipped. *)
let shrink_to dev ~free ~ino new_size =
  let first_dead = blocks_for new_size in
  (* direct blocks *)
  for b = first_dead to n_direct - 1 do
    drop_ptr dev ~free (Inode.direct_addr ~ino b)
  done;
  (* single-indirect tree: blocks [n_direct, n_direct + ptrs_per_page) *)
  let ind = Inode.indirect dev ~ino in
  if ind <> 0 then begin
    drop_range dev ~free ind (max 0 (first_dead - n_direct));
    if first_dead <= n_direct then begin
      Inode.set_indirect dev ~ino 0;
      (match free with Some f -> f ind | None -> ())
    end
  end;
  (* double-indirect tree: mid page [o] maps the [ptrs_per_page] blocks from
     [base + o * ptrs_per_page]; those below [o_lo] are wholly live *)
  let dind = Inode.double_indirect dev ~ino in
  if dind <> 0 then begin
    let base = n_direct + ptrs_per_page in
    let o_lo = max 0 (first_dead - base) / ptrs_per_page in
    Array.iteri
      (fun k mid ->
        if mid <> 0 then begin
          let o = o_lo + k in
          let mid_base = base + (o * ptrs_per_page) in
          drop_range dev ~free mid (max 0 (first_dead - mid_base));
          if first_dead <= mid_base then
            (* the mid page itself is dead: scrub its reference first *)
            scrub_ptr dev ~free (dind + (o * 8)) mid
        end)
      (load_ptrs dev dind o_lo ptrs_per_page);
    if first_dead <= base then begin
      Inode.set_double_indirect dev ~ino 0;
      (match free with Some f -> f dind | None -> ())
    end
  end;
  (* Partial last block: zero the tail so growth re-exposes zeros. *)
  if new_size mod page_size <> 0 then begin
    let b = block_of_off new_size in
    let addr = block_addr dev ~ino b in
    if addr <> 0 then begin
      let tail = new_size mod page_size in
      Nvm.Device.fill dev (addr + tail) (page_size - tail) '\000';
      Pbatch.flush dev (addr + tail) (page_size - tail)
    end
  end

(* Free the data blocks beyond [new_size] (and any indirect pages that become
   entirely unused).  Three ordering points: the Trunc intention must be
   durable before the first destructive store (roll-FORWARD records, unlike
   the roll-back kinds, cannot ride the mutation's own fence), the scrubs
   and the new size must be durable before the intention clear is flushed,
   and the clear itself rides the lease-release fence. *)
let truncate dev balloc ~ino new_size =
  let old_size = Inode.size dev ~ino in
  if new_size >= old_size then begin
    if new_size > old_size then Inode.set_size dev ~ino new_size;
    Ok ()
  end
  else begin
    Intent.record dev ~ino Intent.Trunc ~arg:new_size;
    Pbatch.barrier dev;
    shrink_to dev ~free:(Some (Balloc.free_page balloc)) ~ino new_size;
    Inode.set_size dev ~ino new_size;
    Pbatch.barrier dev;
    Intent.clear dev ~ino;
    Ok ()
  end

(* The Trunc intent roll-forward (see intent.ml): complete the shrink to the
   recorded target size.  Runs under the stolen lease online, or during
   offline inode scans. *)
let () =
  Intent.set_trunc_repair (fun dev ~free ~ino new_size ->
      shrink_to dev ~free ~ino new_size;
      if Inode.size dev ~ino <> new_size then Inode.set_size dev ~ino new_size;
      Nvm.Device.sfence dev)

(* Every data / indirect page of the file — for unlink and recovery.  The
   list runs backwards: the mid pages (last first), the double-indirect
   page, the indirect page, then the data pages of the blocks below the
   size, last block first. *)
let data_pages dev ~ino =
  let nblocks = min (blocks_for (Inode.size dev ~ino)) max_blocks in
  let live from = max 0 (min ptrs_per_page (nblocks - from)) in
  let pages = ref [] in
  let add addr = if addr <> 0 then pages := addr :: !pages in
  for b = 0 to min nblocks n_direct - 1 do
    add (Inode.read_direct dev ~ino b)
  done;
  let ind = Inode.indirect dev ~ino in
  if ind <> 0 then Array.iter add (load_ptrs dev ind 0 (live n_direct));
  let dind = Inode.double_indirect dev ~ino in
  let mids = if dind = 0 then [||] else load_ptrs dev dind 0 ptrs_per_page in
  let base = n_direct + ptrs_per_page in
  Array.iteri
    (fun o mid ->
      if mid <> 0 then
        Array.iter add (load_ptrs dev mid 0 (live (base + (o * ptrs_per_page)))))
    mids;
  add ind;
  add dind;
  Array.iter add mids;
  !pages

(* Free every page backing the file (not the inode page itself). *)
let free_all dev balloc ~ino =
  List.iter (fun p -> Balloc.free_page balloc p) (data_pages dev ~ino)
