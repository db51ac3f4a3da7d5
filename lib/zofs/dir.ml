(* The adaptive two-level hash-table directory (paper §5.1).

   direct[0] of a directory inode points to the first-level page: 512
   pointers to second-level pages, allocated on demand.  Each second-level
   page stores 16 dentries inline in its first half and a 256-bucket hash
   table in its second half; each bucket heads a chain of dentry pages with
   31 dentries each.  New dentries go to the inline area first and spill
   into the chains only when it is full — that is what keeps huge
   directories (webproxy/varmail, Figure 9) fast.

   Consistency: a dentry is written completely and flushed before its valid
   byte is set (and flushed); removal clears the valid byte.  The fence
   between the two also commits the inode a create's dentry names, which
   the create only flushed.  Second-level and chain pages are zeroed
   before their pointers are published.

   A first-level slot holds its second-level page's address, page-aligned,
   and in the 12 low bits the page's inline high-water mark (hwm): how
   many inline slots have ever held a dentry, 1 to 16 (low bits 0, a slot
   written before the hwm existed, read as 16).  A new page is
   published with hwm 1 in the same 8-byte store as its address; an insert
   reuses the lowest free slot below hwm before it raises hwm, and the
   raise is flushed before the dentry's pre-publish fence, so no crash
   state has a valid dentry at or above the durable hwm.  hwm never falls
   (removal and intention rollback leave it alone).  Every reader reads
   only slots [0, hwm), and the bucket heads and chains only when hwm is
   16: a chain is linked only once all 16 inline slots are valid.  A miss
   in a page that has held one name reads one inline line, not 16 and a
   bucket head. *)

open Layout

type dentry = {
  de_addr : int;  (* byte address of the dentry slot *)
  de_name : string;
  de_kind : int;  (* Layout.kind_* cache for readdir *)
  de_coffer : int;  (* 0 = same coffer *)
  de_inode : int;  (* inode byte address (target coffer root file if cross) *)
}

let read_dentry dev addr =
  let name_len = Nvm.Device.read_u16 dev (addr + d_name_len) in
  if name_len = 0 || name_len > max_name then None
  else begin
    let de_coffer = Nvm.Device.read_u64 dev (addr + d_coffer) in
    let de_inode = Nvm.Device.read_u64 dev (addr + d_inode) in
    (* A cross-coffer target address came out of another protection domain
       and is untrusted until validated against KernFS (guideline G3). *)
    if de_coffer <> 0 then Check.taint_cross dev de_inode;
    Some
      {
        de_addr = addr;
        de_name = Nvm.Device.read_string dev (addr + d_name) name_len;
        de_kind = Nvm.Device.read_u8 dev (addr + d_kind);
        de_coffer;
        de_inode;
      }
  end

let dentry_valid dev addr = Nvm.Device.read_u8 dev (addr + d_valid) = 1

(* [index] is the address of the word that makes the slot reachable (the
   first-level slot holding an inline slot's hwm, or a chain's bucket
   head); it is published with the dentry.  [fresh] is set when [inode]
   was just created ([Inode.prepare]: flushed, not fenced): the dentry's
   pre-publish fence makes it durable too, and it is audited here, where
   it becomes reachable. *)
let write_dentry ?(fresh = false) dev addr ~index ~name ~kind ~coffer ~inode =
  Nvm.Device.write_u8 dev (addr + d_valid) 0;
  Nvm.Device.write_u8 dev (addr + d_kind) kind;
  Nvm.Device.write_u16 dev (addr + d_name_len) (String.length name);
  Nvm.Device.write_u32 dev (addr + d_hash) (dir_hash name);
  Nvm.Device.write_u64 dev (addr + d_coffer) coffer;
  Nvm.Device.write_u64 dev (addr + d_inode) inode;
  Nvm.Device.write_string dev (addr + d_name) name;
  (* One coalesced flush of the body, one fence right before the publish
     point — which also makes the caller's intention record (same-line with
     the inode's direct pointers) and a fresh inode durable in the same
     ordering stroke. *)
  Pbatch.flush dev addr dentry_size;
  Pbatch.barrier dev;
  if fresh then Inode.publish dev ~ino:inode;
  Check.publish dev ~label:"dentry-insert" addr dentry_size;
  Check.publish dev ~label:"dentry-insert" index 8;
  Race.publish dev ~label:"dentry-insert" addr dentry_size;
  Nvm.Device.write_u8 dev (addr + d_valid) 1;
  (* The valid byte's flush rides the lease-release fence: if it is lost the
     insert simply never happened (the op was not yet acknowledged). *)
  Pbatch.flush dev addr 1

(* Durable variant, used outside lease-protected operations (recovery's
   dentry drops, which have no release fence to ride). *)
let clear_dentry dev addr =
  Nvm.Device.write_u8 dev (addr + d_valid) 0;
  Nvm.Device.persist_range dev addr 1

(* ---- page navigation ----------------------------------------------------- *)

let l1_page dev ~ino = Inode.read_direct dev ~ino 0
let l1_slot_addr l1 hash = l1 + (l1_index hash * 8)

(* A first-level slot's two halves.  Every page is published with hwm 1 or
   more, so low bits 0 are a slot written before the hwm existed: it reads
   as 16, the whole page, as it was read then.  No slot value widens a read
   past the inline area and the bucket heads or off its page. *)
let hwm_bits = page_size - 1
let l2_of_slot word = word land lnot hwm_bits

let hwm_of_slot word =
  let h = word land hwm_bits in
  if h = 0 || h > l2_inline_dentries then l2_inline_dentries else h

let l1_slot dev l1 hash = Nvm.Device.read_u64 dev (l1_slot_addr l1 hash)
let l2_page dev l1 hash = l2_of_slot (l1_slot dev l1 hash)
let hwm dev l1 hash = hwm_of_slot (l1_slot dev l1 hash)
let inline_slot l2 i = l2 + (i * dentry_size)
let bucket_addr l2 hash = l2 + l2_bucket_base + (l2_bucket hash * 8)
let chain_next dev page = Nvm.Device.read_u64 dev page
let chain_slot page i = page + (i * dentry_size) (* i in 1..chain_dentries *)

(* Ensure the directory has its first-level page. *)
let ensure_l1 dev balloc ~ino =
  let l1 = l1_page dev ~ino in
  if l1 <> 0 then Ok l1
  else
    match Balloc.alloc_zeroed balloc with
    | Error e -> Error e
    | Ok page ->
        Inode.write_direct dev ~ino 0 page;
        Ok page

(* Store [l2] with hwm [h] in the first-level slot of [hash].  The store
   only has to be durable before the dentry that needs it is visible, so
   its flush rides the insert's pre-publish barrier. *)
let publish_l2 dev l1 hash l2 h =
  Nvm.Device.write_u64 dev (l1_slot_addr l1 hash) (l2 lor h);
  Pbatch.flush dev (l1_slot_addr l1 hash) 8

(* The second-level page of [hash] and its hwm; a new page (zeroed and
   fenced by alloc_zeroed) is published with hwm 1. *)
let ensure_l2 dev balloc l1 hash =
  let word = l1_slot dev l1 hash in
  let l2 = l2_of_slot word in
  if l2 <> 0 then Ok (l2, hwm_of_slot word)
  else
    match Balloc.alloc_zeroed balloc with
    | Error e -> Error e
    | Ok page ->
        publish_l2 dev l1 hash page 1;
        Ok (page, 1)

(* ---- lookup -------------------------------------------------------------- *)

let match_at dev addr ~name ~hash =
  dentry_valid dev addr
  && Nvm.Device.read_u32 dev (addr + d_hash) = hash
  && Nvm.Device.read_u16 dev (addr + d_name_len) = String.length name
  && Nvm.Device.read_string dev (addr + d_name) (String.length name) = name

let lookup dev ~ino name =
  let hash = dir_hash name in
  let l1 = l1_page dev ~ino in
  if l1 = 0 then None
  else
    let word = l1_slot dev l1 hash in
    let l2 = l2_of_slot word and h = hwm_of_slot word in
    if l2 = 0 then None
    else
      let rec inline i =
        if i >= h then
          if h < l2_inline_dentries then None
          else chains (Nvm.Device.read_u64 dev (bucket_addr l2 hash))
        else
          let a = inline_slot l2 i in
          if match_at dev a ~name ~hash then read_dentry dev a else inline (i + 1)
      and chains page =
        if page = 0 then None
        else
          let rec slots i =
            if i > chain_dentries then chains (chain_next dev page)
            else
              let a = chain_slot page i in
              if match_at dev a ~name ~hash then read_dentry dev a
              else slots (i + 1)
          in
          slots 1
      in
      inline 0

(* ---- insert -------------------------------------------------------------- *)

(* The lowest free inline slot below [h]. *)
let find_free_inline dev l2 h =
  let rec go i =
    if i >= h then None
    else if not (dentry_valid dev (inline_slot l2 i)) then Some (inline_slot l2 i)
    else go (i + 1)
  in
  go 0

let find_free_in_chain dev page =
  let rec go i =
    if i > chain_dentries then None
    else if not (dentry_valid dev (chain_slot page i)) then Some (chain_slot page i)
    else go (i + 1)
  in
  go 1

(* Insert assumes the caller holds the directory lease and has checked for
   duplicates.  [fresh]: as for [write_dentry].  [on_l2] is handed the
   second-level page the insert touched. *)
let insert ?fresh ?(on_l2 = ignore) dev balloc ~ino ~name ~kind ~coffer ~inode =
  if not (Treasury.Pathx.valid_name name) then Error Treasury.Errno.EINVAL
  else
    let hash = dir_hash name in
    match ensure_l1 dev balloc ~ino with
    | Error e -> Error e
    | Ok l1 -> (
        match ensure_l2 dev balloc l1 hash with
        | Error e -> Error e
        | Ok (l2, h) -> (
            on_l2 l2;
            (* The free slot and the word that makes it reachable. *)
            let slot =
              match find_free_inline dev l2 h with
              | Some a -> Ok (a, l1_slot_addr l1 hash)
              | None when h < l2_inline_dentries ->
                  (* Raise hwm over the next unused slot. *)
                  publish_l2 dev l1 hash l2 (h + 1);
                  Ok (inline_slot l2 h, l1_slot_addr l1 hash)
              | None ->
                  (* spill into the bucket chains *)
                  let bucket = bucket_addr l2 hash in
                  let rec hunt page =
                    if page = 0 then None
                    else
                      match find_free_in_chain dev page with
                      | Some a -> Some a
                      | None -> hunt (chain_next dev page)
                  in
                  (match hunt (Nvm.Device.read_u64 dev bucket) with
                  | Some a -> Ok (a, bucket)
                  | None -> (
                      match Balloc.alloc_zeroed balloc with
                      | Error e -> Error e
                      | Ok page ->
                          (* Link the new chain page at the bucket head.  The
                             page's next pointer must be durable BEFORE the
                             bucket points at it (or a crash truncates the
                             old chain), so a real fence separates the two;
                             the bucket store itself rides the insert's
                             pre-publish barrier. *)
                          Nvm.Device.write_u64 dev page
                            (Nvm.Device.read_u64 dev bucket);
                          Pbatch.persist dev page 8;
                          Nvm.Device.write_u64 dev bucket page;
                          Pbatch.flush dev bucket 8;
                          Ok (chain_slot page 1, bucket)))
            in
            match slot with
            | Error e -> Error e
            | Ok (addr, index) ->
                (* Intention first: if this thread dies before the final
                   clear, the lease stealer rolls the half-inserted dentry
                   back (the op was never acknowledged). *)
                Intent.record dev ~ino Intent.Insert ~arg:addr;
                write_dentry ?fresh dev addr ~index ~name ~kind ~coffer ~inode;
                Inode.touch_mtime dev ~ino;
                Intent.clear dev ~ino;
                Ok ()))

let remove dev ~ino name =
  match lookup dev ~ino name with
  | None -> Error Treasury.Errno.ENOENT
  | Some de ->
      (* Intention first: a stealer finding this record rolls the removal
         forward (re-clearing the slot is idempotent).  Nothing here needs
         an ordering point of its own — every store (record, valid byte,
         mtime, clear) rides the lease-release fence, in any combination of
         which the directory is consistent — so a remove costs ZERO fences
         beyond the release. *)
      Intent.record dev ~ino Intent.Remove ~arg:de.de_addr;
      Nvm.Device.write_u8 dev (de.de_addr + d_valid) 0;
      Pbatch.flush dev (de.de_addr + d_valid) 1;
      Inode.touch_mtime dev ~ino;
      Intent.clear dev ~ino;
      Ok ()

(* Update an existing dentry's target in place (used by coffer split: the
   entry becomes a cross-coffer reference). *)
let retarget dev ~ino name ~coffer ~inode =
  match lookup dev ~ino name with
  | None -> Error Treasury.Errno.ENOENT
  | Some de ->
      Nvm.Device.write_u64 dev (de.de_addr + d_coffer) coffer;
      Nvm.Device.write_u64 dev (de.de_addr + d_inode) inode;
      Nvm.Device.persist_range dev (de.de_addr + d_coffer) 16;
      ignore ino;
      Ok ()

(* ---- iteration ----------------------------------------------------------- *)

(* A full scan reads each array it visits with one sequential load into a
   buffer and decodes the slots from it: the first-level page's 512 slots,
   a second-level page's inline slots below its hwm, and the 31 dentries
   of a chain page (its next pointer, in slot 0, stays a scalar load).  A
   second-level page whose hwm is 16 is read whole instead (16 inline
   dentries, then 256 bucket heads: one 4 KB load); one below 16 has no
   chains, so its bucket heads are not read.  A scan with no [on_dentry]
   loads only the bucket heads of full pages.  The device charges a load
   wider than a line as one read latency plus bandwidth, where
   slot-by-slot loads miss once per line.  Dentries are decoded with
   [read_dentry]'s checks.  The buffers belong to one scan: the callbacks
   may start another scan and may yield to other threads.

   A dentry-area load also touches lines the slot-by-slot scan never read:
   the unused tail of each slot.  A media error there must not fail a scan
   that would not have read it, so a [Media] fault from a load that covers
   dentries falls back: a whole second-level page to one load of its
   inline dentries and one of its bucket heads, a dentry area to
   slot-by-slot loads.

   [prefault], when given, is handed the second-level pages the
   first-level page names, once, before any of them is read: a scan of a
   coffer mapped lazily installs them in one kernel entry
   ([Kernfs.prefault]) instead of taking a demand fault on each.

   A scan that may stop early ([is_empty]) loads slot by slot ([~bulk:false])
   so it never reads a line past the point where it stops. *)
let load_index dev ~bulk buf off addr len =
  if bulk then Nvm.Device.blit_to_bytes dev addr buf off len

let index_slot dev ~bulk buf off addr i =
  if bulk then Int64.to_int (Bytes.get_int64_le buf (off + (i * 8)))
  else Nvm.Device.read_u64 dev (addr + (i * 8))

(* [read_dentry] over the slot at offset [off] of [buf], loaded from [addr]. *)
let decode_dentry dev buf off addr =
  let name_len = Bytes.get_uint16_le buf (off + d_name_len) in
  if name_len = 0 || name_len > max_name then None
  else begin
    let de_coffer = Int64.to_int (Bytes.get_int64_le buf (off + d_coffer)) in
    let de_inode = Int64.to_int (Bytes.get_int64_le buf (off + d_inode)) in
    if de_coffer <> 0 then Check.taint_cross dev de_inode;
    Some
      {
        de_addr = addr;
        de_name = Bytes.sub_string buf (off + d_name) name_len;
        de_kind = Bytes.get_uint8 buf (off + d_kind);
        de_coffer;
        de_inode;
      }
  end

(* Hand [f] every valid dentry among the [n] slots at offset [off] of
   [buf], loaded from [base]. *)
let decode_dentries dev buf off base n f =
  for i = 0 to n - 1 do
    let o = off + (i * dentry_size) in
    if Bytes.get_uint8 buf (o + d_valid) = 1 then
      match decode_dentry dev buf o (base + o - off) with
      | Some de -> f de
      | None -> ()
  done

(* Hand [f] every valid dentry in slots [first..last] of [page]. *)
let visit_dentries ~bulk dev buf page first last f =
  let one_by_one () =
    for i = first to last do
      let a = page + (i * dentry_size) in
      if dentry_valid dev a then
        match read_dentry dev a with Some de -> f de | None -> ()
    done
  in
  if not bulk then one_by_one ()
  else
    let base = page + (first * dentry_size) in
    let n = last - first + 1 in
    match Nvm.Device.blit_to_bytes dev base buf 0 (n * dentry_size) with
    | exception Nvm.Fault { kind = Nvm.Media; _ } -> one_by_one ()
    | () -> decode_dentries dev buf 0 base n f

(* Visit the directory of [ino] in slot order: [on_page] for its first-level
   page, then for each second-level page and every page of its bucket
   chains, bucket by bucket; [on_dentry] for every valid dentry, right after
   the page holding it.  Without [on_dentry] no dentry is loaded. *)
let scan ~bulk ?prefault ?(on_page = ignore) ?on_dentry dev ~ino =
  let l1 = l1_page dev ~ino in
  if l1 <> 0 then begin
    let sized n = Bytes.create (if bulk then n else 0) in
    let l1_buf = sized (l1_entries * 8) and l2_buf = sized page_size in
    let de_buf = sized (if on_dentry = None then 0 else chain_dentries * dentry_size) in
    let dentries page first last =
      match on_dentry with
      | Some f -> visit_dentries ~bulk dev de_buf page first last f
      | None -> ()
    in
    let load_heads l2 =
      load_index dev ~bulk l2_buf l2_bucket_base (l2 + l2_bucket_base)
        (l2_buckets * 8)
    in
    (* The inline dentries of [l2] below [h] and, when [h] is 16, its
       bucket heads, into [l2_buf]. *)
    let visit_l2 l2 h =
      match on_dentry with
      | Some f when bulk && h = l2_inline_dentries -> (
          match Nvm.Device.blit_to_bytes dev l2 l2_buf 0 page_size with
          | exception Nvm.Fault { kind = Nvm.Media; _ } ->
              dentries l2 0 (h - 1);
              load_heads l2
          | () -> decode_dentries dev l2_buf 0 l2 h f)
      | Some _ | None ->
          dentries l2 0 (h - 1);
          if h = l2_inline_dentries then load_heads l2
    in
    on_page l1;
    load_index dev ~bulk l1_buf 0 l1 (l1_entries * 8);
    let l1_word l1i = index_slot dev ~bulk l1_buf 0 l1 l1i in
    (match prefault with
    | Some f when bulk ->
        let l2s = ref [] in
        for l1i = l1_entries - 1 downto 0 do
          let l2 = l2_of_slot (l1_word l1i) in
          if l2 <> 0 then l2s := l2 :: !l2s
        done;
        f !l2s
    | Some _ | None -> ());
    for l1i = 0 to l1_entries - 1 do
      let word = l1_word l1i in
      let l2 = l2_of_slot word and h = hwm_of_slot word in
      if l2 <> 0 then begin
        on_page l2;
        visit_l2 l2 h;
        let heads = l2 + l2_bucket_base in
        if h = l2_inline_dentries then
          for b = 0 to l2_buckets - 1 do
            let rec chase page =
              if page <> 0 then begin
                on_page page;
                dentries page 1 chain_dentries;
                chase (chain_next dev page)
              end
            in
            chase (index_slot dev ~bulk l2_buf l2_bucket_base heads b)
          done
      end
    done
  end

(* One pass over the index pages and the valid dentries together — for
   recovery and subtree collection, which need both. *)
let walk ?prefault dev ~ino ~on_page ~on_dentry =
  scan ~bulk:true ?prefault ~on_page ~on_dentry dev ~ino

let iter ?prefault dev ~ino f = scan ~bulk:true ?prefault ~on_dentry:f dev ~ino

exception Stop

let is_empty dev ~ino =
  try
    scan ~bulk:false ~on_dentry:(fun _ -> raise Stop) dev ~ino;
    true
  with Stop -> false

let count dev ~ino =
  let n = ref 0 in
  iter dev ~ino (fun _ -> incr n);
  !n

(* The valid inline dentries at or above their page's hwm, as slot
   addresses: no reader sees them, so none may exist (fsck's audit).  It
   reads every inline slot's valid byte. *)
let above_hwm dev ~ino =
  let l1 = l1_page dev ~ino in
  let found = ref [] in
  if l1 <> 0 then
    for l1i = l1_entries - 1 downto 0 do
      let word = Nvm.Device.read_u64 dev (l1 + (l1i * 8)) in
      let l2 = l2_of_slot word in
      if l2 <> 0 then
        for i = l2_inline_dentries - 1 downto hwm_of_slot word do
          let a = inline_slot l2 i in
          if dentry_valid dev a then found := a :: !found
        done
    done;
  !found

(* All pages used by the directory index itself (L1 page, second-level
   pages, chain pages), last visited first — for deletion and recovery. *)
let structure_pages dev ~ino =
  let pages = ref [] in
  scan ~bulk:true ~on_page:(fun page -> pages := page :: !pages) dev ~ino;
  !pages
