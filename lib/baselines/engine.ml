(* A parameterizable kernel-space NVM file system engine.

   The paper's comparison systems — Ext4-DAX, PMFS, NOVA (and NOVAi), plus
   the kernel area of Strata — share a structure (inode table, block-mapped
   files, dentry-block directories) and differ in the design decisions the
   paper attributes their performance to: how every operation crosses the
   kernel boundary, how the journal/log is written, whether data writes are
   in-place or copy-on-write, how the allocator is partitioned, and how
   directories are searched.  Those decisions are the [config] knobs; see
   pmfs.ml / nova.ml / ext4_dax.ml for the paper-faithful settings.  The
   module is itself a [Treasury.Vfs.S]: pack it as [(module Engine)].

   The on-NVM format is shared (a simplification documented in DESIGN.md):
   what differs between the baselines is charged through the cost model and
   the concurrency structure, which is what the paper's experiments
   measure. *)

module E = Treasury.Errno
module Ft = Treasury.Fs_types
module Pathx = Treasury.Pathx
module Gate = Treasury.Gate

let page_size = Nvm.page_size

type journal_kind =
  | J_none
  | J_undo of int  (** PMFS: per-op undo record of ~n bytes, no global lock *)
  | J_jbd2 of int  (** Ext4: transactions serialized on the journal lock *)
  | J_log of int  (** NOVA: per-inode log append of ~n bytes *)

type alloc_kind =
  | A_global_lock  (** PMFS: one free list, one lock (stops scaling, §6.1) *)
  | A_global_bitmap  (** Ext4: bitmap scan under a lock *)
  | A_per_thread of int  (** NOVA: the free space pre-split into n pools *)

type data_write_kind =
  | W_in_place_nt  (** non-temporal stores (PMFS-nocache, NOVA data path) *)
  | W_in_place_clwb  (** normal stores + clwb per line (default PMFS) *)
  | W_cow  (** NOVA: allocate new pages, write, swap, free old *)

type dir_kind =
  | D_linear  (** scan dentry blocks (PMFS/Ext4) *)
  | D_dram_index  (** DRAM index, cost grows with log2(n) (NOVA) *)

type config = {
  label : string;
  journal : journal_kind;
  alloc : alloc_kind;
  data_write : data_write_kind;
  dir : dir_kind;
  index_update : bool;  (** false for the -noindex variants of Figure 8 *)
  gated : bool;  (** every op pays the syscall cost (kernel FS) *)
  op_overhead : int;  (** ns of fixed per-op software overhead (VFS etc.) *)
}

(* ---- on-NVM layout -------------------------------------------------------- *)

let inode_size = 256
let inodes_per_page = page_size / inode_size
let dentry_size = 64
let dentries_per_page = page_size / dentry_size
let max_name = 53

(* inode field offsets *)
let i_kind = 0 (* 0 = free *)
let i_mode = 4
let i_uid = 8
let i_gid = 12
let i_nlink = 16
let i_size = 24
let i_mtime = 32
let i_direct = 40 (* 12 × u64 *)
let n_direct = 12
let i_indirect = i_direct + (n_direct * 8)
let i_dindirect = i_indirect + 8
let i_symlink = i_dindirect + 8 (* u16 len + bytes, up to ~100 *)
let max_symlink = inode_size - i_symlink - 2

let kind_regular = 1
let kind_directory = 2
let kind_symlink = 3

(* dentry field offsets *)
let d_ino = 0 (* u64; 0 = free slot *)
let d_kind = 8
let d_namelen = 9
let d_name = 10

let ptrs_per_page = page_size / 8

type fd_state = {
  fd_ino : int;
  mutable fd_offset : int;
  fd_append : bool;
  fd_readable : bool;
  fd_writable : bool;
}

type t = {
  cfg : config;
  dev : Nvm.Device.t;
  mpk : Mpk.t;
  gate : Gate.t;
  ninodes : int;
  inode_base : int;  (* byte offset of the inode table *)
  data_first_page : int;
  npages : int;
  (* volatile state *)
  free_pools : (int * Sim.Mutex.t) ref array;  (* head page per pool *)
  journal_lock : Sim.Mutex.t;
  inode_locks : (int, Sim.Rwlock.t) Hashtbl.t;
  dir_index : (int, (string, int) Hashtbl.t) Hashtbl.t;  (* dir ino -> name -> ino *)
  dir_free_slots : (int, int list ref) Hashtbl.t;  (* dir ino -> freed dentry addrs *)
  file_index_cost : int;  (* per-write radix-tree update cost (NOVA) *)
  fds : (int, fd_state) Hashtbl.t;
  mutable next_fd : int;
  (* inode allocation is partitioned like the block pools: per-core for
     NOVA, a single contended cursor for PMFS/Ext4 *)
  inode_cursors : (int ref * Sim.Mutex.t) array;
}

(* ---- low-level helpers ---------------------------------------------------- *)

let inode_addr t ino = t.inode_base + (ino * inode_size)
let rd32 t a = Nvm.Device.read_u32 t.dev a
let rd64 t a = Nvm.Device.read_u64 t.dev a

let wr32 t a v =
  Nvm.Device.write_u32 t.dev a v;
  Nvm.Device.persist_range t.dev a 4

let wr64 t a v =
  Nvm.Device.write_u64 t.dev a v;
  Nvm.Device.persist_range t.dev a 8

let inode_lock t ino =
  match Hashtbl.find_opt t.inode_locks ino with
  | Some l -> l
  | None ->
      let l = Sim.Rwlock.create ~name:(Printf.sprintf "%s-ino%d" t.cfg.label ino) () in
      Hashtbl.replace t.inode_locks ino l;
      l

(* ---- journal / log charging ------------------------------------------------ *)

(* Each metadata operation pays its consistency mechanism.  The journal
   area is modelled as a ring we only charge writes into. *)
let journal_commit t ~bytes_hint =
  match t.cfg.journal with
  | J_none -> ()
  | J_undo n ->
      (* PMFS fine-grained undo logging: record + flush + commit + fence *)
      Sim.advance 40;
      Nvm.Device.nt_write_string t.dev 0 (String.make (min 64 (n + bytes_hint)) '\000')
      |> ignore;
      Nvm.Device.sfence t.dev
  | J_jbd2 n ->
      Sim.Mutex.with_lock t.journal_lock (fun () ->
          Sim.advance 120;
          Nvm.Device.nt_write_string t.dev 0
            (String.make (min 256 (n + bytes_hint)) '\000');
          Nvm.Device.sfence t.dev;
          Nvm.Device.sfence t.dev (* commit record ordering *))
  | J_log n ->
      (* NOVA per-inode log append: entry + flush + tail update *)
      Sim.advance 30;
      Nvm.Device.nt_write_string t.dev 0 (String.make (min 64 (n + bytes_hint)) '\000');
      Nvm.Device.sfence t.dev

(* The journal writes above target byte 0 of the device only as a cost
   carrier; byte 0 is the superblock's scratch area reserved for this. *)

(* ---- block allocation ------------------------------------------------------- *)

let pool_of_thread t =
  match t.cfg.alloc with
  | A_global_lock | A_global_bitmap -> 0
  | A_per_thread n -> (Sim.self_tid () land max_int) mod n

(* Free pages are chained through their first u64.  A thread allocates
   from its own pool; when that one is empty it takes from the next pools in
   turn, as NOVA's per-CPU allocator does, so ENOSPC means every pool is
   empty. *)
let alloc_page t =
  let own = pool_of_thread t in
  let npools = Array.length t.free_pools in
  let rec from i =
    if i = npools then Error E.ENOSPC
    else
      let pool = t.free_pools.((own + i) mod npools) in
      let _, lock = !pool in
      let r =
        Sim.Mutex.with_lock lock (fun () ->
            (* Work performed while holding the allocator lock: this is what
               makes PMFS's global allocator stop scaling after a few
               threads (Figure 7(d)) while NOVA's per-core pools barely
               serialize. *)
            (match t.cfg.alloc with
            | A_global_lock ->
                Sim.advance 700 (* free-list bookkeeping + undo log *)
            | A_global_bitmap -> Sim.advance 900 (* bitmap scan + jbd2 credit *)
            | A_per_thread _ -> Sim.advance 80);
            let head, _ = !pool in
            if head = 0 then None
            else begin
              let next = rd64 t (head * page_size) in
              pool := (next, lock);
              Some head
            end)
      in
      match r with Some page -> Ok page | None -> from (i + 1)
  in
  from 0

let free_page t page =
  let pool_idx = pool_of_thread t in
  let pool = t.free_pools.(pool_idx) in
  let _, lock = !pool in
  Sim.Mutex.with_lock lock (fun () ->
      let head, _ = !pool in
      wr64 t (page * page_size) head;
      pool := (page, lock))

let alloc_zeroed_page t =
  match alloc_page t with
  | Error e -> Error e
  | Ok page ->
      Nvm.Device.fill t.dev (page * page_size) page_size '\000';
      Nvm.Device.persist_range t.dev (page * page_size) page_size;
      Ok page

(* ---- inode management --------------------------------------------------------- *)

let init_inode t ino ~kind ~mode ~uid ~gid =
  let a = inode_addr t ino in
  Nvm.Device.fill t.dev a inode_size '\000';
  Nvm.Device.write_u32 t.dev (a + i_mode) mode;
  Nvm.Device.write_u32 t.dev (a + i_uid) uid;
  Nvm.Device.write_u32 t.dev (a + i_gid) gid;
  Nvm.Device.write_u32 t.dev (a + i_nlink) (if kind = kind_directory then 2 else 1);
  Nvm.Device.write_u64 t.dev (a + i_size) 0;
  Nvm.Device.write_u64 t.dev (a + i_mtime) (Sim.now ());
  Nvm.Device.persist_range t.dev a inode_size;
  (* publish through the kind word *)
  wr32 t (a + i_kind) kind

let alloc_inode t ~kind ~mode ~uid ~gid =
  let npools = Array.length t.inode_cursors in
  let pool = pool_of_thread t mod npools in
  let cursor, lock = t.inode_cursors.(pool) in
  Sim.Mutex.with_lock lock (fun () ->
      (match t.cfg.alloc with
      | A_per_thread _ -> Sim.advance 60
      | A_global_lock | A_global_bitmap -> Sim.advance 250);
      (* each pool owns a contiguous share of the inode space; when the
         share runs out, steal from the global tail (with a scan cost) *)
      let share = (t.ninodes - 1) / npools in
      let base = 1 + (pool * share) in
      let rec hunt i tried =
        if tried >= share then steal 1
        else
          let ino = base + ((!cursor + i) mod share) in
          if rd32 t (inode_addr t ino + i_kind) = 0 then begin
            cursor := (!cursor + i + 1) mod share;
            init_inode t ino ~kind ~mode ~uid ~gid;
            Ok ino
          end
          else hunt (i + 1) (tried + 1)
      and steal ino =
        if ino >= t.ninodes then Error E.ENOSPC
        else if rd32 t (inode_addr t ino + i_kind) = 0 then begin
          Sim.advance 200;
          init_inode t ino ~kind ~mode ~uid ~gid;
          Ok ino
        end
        else steal (ino + 1)
      in
      hunt 0 0)

let inode_kind t ino = rd32 t (inode_addr t ino + i_kind)
let inode_size_of t ino = rd64 t (inode_addr t ino + i_size)

let set_inode_size t ino v =
  wr64 t (inode_addr t ino + i_size) v;
  wr64 t (inode_addr t ino + i_mtime) (Sim.now ())

let free_inode t ino = wr32 t (inode_addr t ino + i_kind) 0

(* ---- block mapping -------------------------------------------------------------- *)

let pointer_addr t ~alloc ino b =
  let ia = inode_addr t ino in
  let get_or_alloc addr =
    let v = rd64 t addr in
    if v <> 0 then Ok v
    else if not alloc then Ok 0
    else
      match alloc_zeroed_page t with
      | Error e -> Error e
      | Ok page ->
          wr64 t addr page;
          Ok page
  in
  if b < n_direct then Ok (Some (ia + i_direct + (b * 8)))
  else if b < n_direct + ptrs_per_page then
    match get_or_alloc (ia + i_indirect) with
    | Error e -> Error e
    | Ok 0 -> Ok None
    | Ok ind -> Ok (Some ((ind * page_size) + ((b - n_direct) * 8)))
  else
    let idx = b - n_direct - ptrs_per_page in
    if idx >= ptrs_per_page * ptrs_per_page then Error E.EFBIG
    else
      match get_or_alloc (ia + i_dindirect) with
      | Error e -> Error e
      | Ok 0 -> Ok None
      | Ok dind -> (
          let outer_addr = (dind * page_size) + (idx / ptrs_per_page * 8) in
          match get_or_alloc outer_addr with
          | Error e -> Error e
          | Ok 0 -> Ok None
          | Ok mid -> Ok (Some ((mid * page_size) + (idx mod ptrs_per_page * 8))))

let block_page t ino b =
  match pointer_addr t ~alloc:false ino b with
  | Ok (Some ptr) -> rd64 t ptr
  | Ok None | Error _ -> 0

let ensure_block t ino b =
  match pointer_addr t ~alloc:true ino b with
  | Error e -> Error e
  | Ok None -> Error E.EIO
  | Ok (Some ptr) -> (
      let page = rd64 t ptr in
      if page <> 0 then Ok page
      else
        match alloc_zeroed_page t with
        | Error e -> Error e
        | Ok page ->
            wr64 t ptr page;
            Ok page)

(* ---- directories ------------------------------------------------------------------ *)

let dir_index t ino =
  match Hashtbl.find_opt t.dir_index ino with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 64 in
      Hashtbl.replace t.dir_index ino h;
      h

let dir_nblocks t ino = (inode_size_of t ino + page_size - 1) / page_size

(* Linear scan over dentry blocks, charging real NVM reads. *)
let dir_scan t ino f =
  let nb = dir_nblocks t ino in
  let result = ref None in
  let b = ref 0 in
  while !result = None && !b < nb do
    let page = block_page t ino !b in
    if page <> 0 then begin
      let i = ref 0 in
      while !result = None && !i < dentries_per_page do
        let a = (page * page_size) + (!i * dentry_size) in
        let dino = rd64 t (a + d_ino) in
        if dino <> 0 then begin
          let nl = Nvm.Device.read_u8 t.dev (a + d_namelen) in
          let name = Nvm.Device.read_string t.dev (a + d_name) nl in
          match f ~addr:a ~ino:dino ~name ~kind:(Nvm.Device.read_u8 t.dev (a + d_kind)) with
          | Some r -> result := Some r
          | None -> ()
        end;
        incr i
      done
    end;
    incr b
  done;
  !result

let dir_lookup t ino name =
  match t.cfg.dir with
  | D_dram_index -> (
      (* NOVA-style DRAM index: cost grows with directory size. *)
      let idx = dir_index t ino in
      let n = max 1 (Hashtbl.length idx) in
      Sim.advance (40 + (30 * int_of_float (Float.log2 (float_of_int n))));
      match Hashtbl.find_opt idx name with
      | Some dino -> Some dino
      | None -> None)
  | D_linear ->
      dir_scan t ino (fun ~addr:_ ~ino:dino ~name:n ~kind:_ ->
          if n = name then Some dino else None)

let dir_free_list t ino =
  match Hashtbl.find_opt t.dir_free_slots ino with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.replace t.dir_free_slots ino l;
      l

let dir_insert t ino ~name ~child ~kind =
  if String.length name > max_name then Error E.ENAMETOOLONG
  else begin
    (* O(1) slot choice: a freed slot if one is cached, else the append
       position derived from the directory size (slots are allocated
       densely, removals go through [dir_remove] which caches them). *)
    let free_list = dir_free_list t ino in
    let slot_r =
      match !free_list with
      | a :: rest ->
          free_list := rest;
          Ok a
      | [] -> (
          let size = inode_size_of t ino in
          let nb = size / page_size in
          let used_in_last = size mod page_size / dentry_size in
          if size mod page_size <> 0 then begin
            let page = block_page t ino nb in
            set_inode_size t ino (size + dentry_size);
            Ok ((page * page_size) + (used_in_last * dentry_size))
          end
          else
            match ensure_block t ino nb with
            | Error e -> Error e
            | Ok page ->
                set_inode_size t ino (size + dentry_size);
                Ok (page * page_size))
    in
    match slot_r with
    | Error e -> Error e
    | Ok a ->
        Nvm.Device.write_u8 t.dev (a + d_kind) kind;
        Nvm.Device.write_u8 t.dev (a + d_namelen) (String.length name);
        Nvm.Device.write_string t.dev (a + d_name) name;
        Nvm.Device.persist_range t.dev a dentry_size;
        wr64 t (a + d_ino) child;
        (match t.cfg.dir with
        | D_dram_index -> Hashtbl.replace (dir_index t ino) name child
        | D_linear -> ());
        journal_commit t ~bytes_hint:dentry_size;
        Ok ()
  end

let dir_remove t ino name =
  let found =
    dir_scan t ino (fun ~addr ~ino:dino ~name:n ~kind ->
        if n = name then Some (addr, dino, kind) else None)
  in
  match found with
  | None -> Error E.ENOENT
  | Some (addr, dino, kind) ->
      wr64 t (addr + d_ino) 0;
      let free_list = dir_free_list t ino in
      free_list := addr :: !free_list;
      (match t.cfg.dir with
      | D_dram_index -> Hashtbl.remove (dir_index t ino) name
      | D_linear -> ());
      journal_commit t ~bytes_hint:16;
      Ok (dino, kind)

let dir_entries t ino =
  let acc = ref [] in
  ignore
    (dir_scan t ino (fun ~addr:_ ~ino:dino ~name ~kind ->
         acc := (name, dino, kind) :: !acc;
         None));
  List.rev !acc

let dir_is_empty t ino = dir_entries t ino = []

(* ---- format / create --------------------------------------------------------------- *)

(* Format [dev] as [cfg].  The free pools get the pages from the first data
   page up to [data_end] (default: the device end); pages from [data_end]
   on are left to the caller (Strata's per-process logs). *)
let format ?data_end cfg dev mpk =
  let npages = Nvm.Device.pages dev in
  let data_end = Option.value data_end ~default:npages in
  let ninodes = max 1024 (min 65536 (npages / 4 * inodes_per_page / 16)) in
  let inode_pages = (ninodes + inodes_per_page - 1) / inodes_per_page in
  let data_first = 1 + inode_pages in
  let npools = match cfg.alloc with A_per_thread n -> n | _ -> 1 in
  let t =
    {
      cfg;
      dev;
      mpk;
      gate = Gate.create mpk;
      ninodes;
      inode_base = page_size;
      data_first_page = data_first;
      npages;
      free_pools =
        Array.init npools (fun i ->
            ref (0, Sim.Mutex.create ~name:(Printf.sprintf "%s-pool%d" cfg.label i) ()));
      journal_lock = Sim.Mutex.create ~name:(cfg.label ^ "-journal") ();
      inode_locks = Hashtbl.create 256;
      dir_index = Hashtbl.create 64;
      dir_free_slots = Hashtbl.create 64;
      file_index_cost = 1600;
      fds = Hashtbl.create 64;
      next_fd = 3;
      inode_cursors =
        Array.init npools (fun i ->
            (ref 0, Sim.Mutex.create ~name:(Printf.sprintf "%s-ialloc%d" cfg.label i) ()));
    }
  in
  Mpk.with_kernel mpk (fun () ->
      Mpk.with_write_window mpk (fun () ->
          (* chain the free pages, split across the pools *)
          let per_pool = (data_end - data_first) / npools in
          for pool = 0 to npools - 1 do
            let first = data_first + (pool * per_pool) in
            let last =
              if pool = npools - 1 then data_end - 1 else first + per_pool - 1
            in
            let head = ref 0 in
            for p = last downto first do
              Nvm.Device.write_u64 dev (p * page_size) !head;
              head := p
            done;
            let _, lock = !(t.free_pools.(pool)) in
            t.free_pools.(pool) := (!head, lock)
          done;
          Nvm.Device.persist_all dev;
          (* root directory = inode 1 *)
          init_inode t 1 ~kind:kind_directory ~mode:0o777 ~uid:0 ~gid:0));
  t

(* A fresh device of [pages] pages, formatted as [cfg]. *)
let create ?data_end cfg ~pages ~perf =
  let dev = Nvm.Device.create ~perf ~size:(pages * Nvm.page_size) () in
  format ?data_end cfg dev (Mpk.create dev)

let root_ino = 1

(* ---- path resolution ----------------------------------------------------------------- *)

let rec resolve t path ~follow_last ~depth =
  if depth > 40 then Error E.ELOOP
  else begin
    let comps = Pathx.components (Pathx.normalize path) in
    let rec step ino cur_path = function
      | [] -> Ok ino
      | name :: rest -> (
          if inode_kind t ino <> kind_directory then Error E.ENOTDIR
          else
            match dir_lookup t ino name with
            | None -> Error E.ENOENT
            | Some child -> (
                let child_path = Pathx.concat cur_path name in
                match inode_kind t child with
                | k when k = kind_symlink && (rest <> [] || follow_last) ->
                    let a = inode_addr t child in
                    let len = Nvm.Device.read_u16 t.dev (a + i_symlink) in
                    let target =
                      Nvm.Device.read_string t.dev (a + i_symlink + 2) len
                    in
                    let base =
                      if Pathx.is_absolute target then Pathx.normalize target
                      else Pathx.concat (Pathx.dirname child_path) target
                    in
                    let full =
                      Pathx.normalize (String.concat "/" (base :: rest))
                    in
                    resolve t full ~follow_last ~depth:(depth + 1)
                | _ -> step child child_path rest))
    in
    step root_ino "/" comps
  end

let resolve_parent t path =
  let path = Pathx.normalize path in
  if path = "/" then Error E.EINVAL
  else
    match resolve t (Pathx.dirname path) ~follow_last:true ~depth:0 with
    | Error e -> Error e
    | Ok dino ->
        if inode_kind t dino <> kind_directory then Error E.ENOTDIR
        else Ok (dino, Pathx.basename path)

(* ---- the syscall wrapper ---------------------------------------------------------------- *)

let op t f =
  if t.cfg.gated then
    Gate.syscall t.gate (fun () ->
        Sim.advance t.cfg.op_overhead;
        f ())
  else
    Mpk.with_kernel t.mpk (fun () ->
        Mpk.with_write_window t.mpk (fun () ->
            Sim.advance t.cfg.op_overhead;
            f ()))

(* ---- data path ------------------------------------------------------------------------- *)

let write_block_data t page ~off data_sub =
  let addr = (page * page_size) + off in
  match t.cfg.data_write with
  | W_in_place_nt | W_cow -> Nvm.Device.nt_write_string t.dev addr data_sub
  | W_in_place_clwb ->
      (* normal stores followed by clwb per line: the slow default-PMFS path
         of Figure 8 *)
      Nvm.Device.write_string t.dev addr data_sub;
      Nvm.Device.flush_range t.dev addr (String.length data_sub);
      (* cache-line-at-a-time write-back is much slower than streaming
         non-temporal stores on Optane (Figure 8, PMFS vs PMFS-nocache);
         capped: large writes amortize the write-back pipeline *)
      Sim.advance (min 1024 (String.length data_sub / 6))

let do_write t ino ~off data =
  let len = String.length data in
  if len = 0 then Ok 0
  else begin
    let rec loop src =
      if src >= len then Ok ()
      else begin
        let file_off = off + src in
        let b = file_off / page_size in
        let in_block = file_off mod page_size in
        let n = min (len - src) (page_size - in_block) in
        let chunk = String.sub data src n in
        let block_r =
          match t.cfg.data_write with
          | W_cow -> (
              (* copy-on-write: fresh page; untouched bytes are preserved by
                 copying — unless the write covers the whole block, the
                 common aligned-4KB case where NOVA copies nothing *)
              let old_page = block_page t ino b in
              (* log-structuring bookkeeping when a block is replaced:
                 log-entry append, tail update, old-version accounting —
                 why NOVA loses to PMFS on write-heavy SQLite/LevelDB
                 (paper 6.3); plain appends allocate fresh blocks and skip
                 it *)
              Sim.advance 900;
              match alloc_page t with
              | Error e -> Error e
              | Ok fresh ->
                  (if n = page_size then ()
                   else if old_page <> 0 then begin
                     Nvm.Device.copy_within t.dev ~src:(old_page * page_size)
                       ~dst:(fresh * page_size) ~len:page_size;
                     Nvm.Device.persist_range t.dev (fresh * page_size) page_size
                   end
                   else begin
                     Nvm.Device.fill t.dev (fresh * page_size) page_size '\000';
                     Nvm.Device.persist_range t.dev (fresh * page_size) page_size
                   end);
                  (match pointer_addr t ~alloc:true ino b with
                  | Ok (Some ptr) ->
                      wr64 t ptr fresh;
                      if old_page <> 0 then free_page t old_page;
                      Ok fresh
                  | Ok None -> Error E.EIO
                  | Error e -> Error e))
          | W_in_place_nt | W_in_place_clwb -> ensure_block t ino b
        in
        match block_r with
        | Error e -> Error e
        | Ok page ->
            write_block_data t page ~off:in_block chunk;
            if t.cfg.index_update then Sim.advance t.file_index_cost;
            loop (src + n)
      end
    in
    match loop 0 with
    | Error e -> Error e
    | Ok () ->
        Nvm.Device.sfence t.dev;
        journal_commit t ~bytes_hint:32;
        let new_end = off + len in
        if new_end > inode_size_of t ino then set_inode_size t ino new_end;
        Ok len
  end

let do_read t ino ~off buf boff len =
  let fsize = inode_size_of t ino in
  if off >= fsize then Ok 0
  else begin
    let len = min len (fsize - off) in
    let remaining = ref len and src = ref off and dst = ref boff in
    while !remaining > 0 do
      let b = !src / page_size in
      let in_block = !src mod page_size in
      let n = min !remaining (page_size - in_block) in
      let page = block_page t ino b in
      if page = 0 then Bytes.fill buf !dst n '\000'
      else
        Nvm.Device.blit_to_bytes t.dev
          ((page * page_size) + in_block)
          buf !dst n;
      src := !src + n;
      dst := !dst + n;
      remaining := !remaining - n
    done;
    Ok len
  end

let file_blocks t ino =
  let nb = (inode_size_of t ino + page_size - 1) / page_size in
  let acc = ref [] in
  for b = 0 to nb - 1 do
    let p = block_page t ino b in
    if p <> 0 then acc := p :: !acc
  done;
  let ia = inode_addr t ino in
  let ind = rd64 t (ia + i_indirect) in
  if ind <> 0 then acc := ind :: !acc;
  let dind = rd64 t (ia + i_dindirect) in
  if dind <> 0 then begin
    acc := dind :: !acc;
    for o = 0 to ptrs_per_page - 1 do
      let mid = rd64 t ((dind * page_size) + (o * 8)) in
      if mid <> 0 then acc := mid :: !acc
    done
  end;
  !acc

let free_file_blocks t ino = List.iter (fun p -> free_page t p) (file_blocks t ino)

(* ---- stat ------------------------------------------------------------------------------- *)

let stat_of t ino : Ft.stat =
  let a = inode_addr t ino in
  let kind =
    match rd32 t (a + i_kind) with
    | k when k = kind_directory -> Ft.Directory
    | k when k = kind_symlink -> Ft.Symlink
    | _ -> Ft.Regular
  in
  {
    Ft.st_ino = ino;
    st_kind = kind;
    st_mode = rd32 t (a + i_mode);
    st_uid = rd32 t (a + i_uid);
    st_gid = rd32 t (a + i_gid);
    st_size = rd64 t (a + i_size);
    st_nlink = rd32 t (a + i_nlink);
    st_atime = rd64 t (a + i_mtime);
    st_mtime = rd64 t (a + i_mtime);
    st_ctime = rd64 t (a + i_mtime);
  }

let permits t ino wants =
  let a = inode_addr t ino in
  Ft.permits ~mode:(rd32 t (a + i_mode)) ~uid:(rd32 t (a + i_uid))
    ~gid:(rd32 t (a + i_gid))
    (Ft.cred_of_proc (Sim.self_proc ()))
    wants

(* ---- Vfs.S implementation ----------------------------------------------------------------- *)

let name t = t.cfg.label
let ( let* ) = Result.bind

let create_file t path ~kind ~mode ?symlink_target () =
  let* dino, base = resolve_parent t path in
  if not (permits t dino [ `W ]) then Error E.EACCES
  else if not (Pathx.valid_name base) then Error E.EINVAL
  else
    Sim.Rwlock.with_wr (inode_lock t dino) (fun () ->
        match dir_lookup t dino base with
        | Some _ -> Error E.EEXIST
        | None ->
            let c = Ft.cred_of_proc (Sim.self_proc ()) in
            let* ino = alloc_inode t ~kind ~mode ~uid:c.Ft.uid ~gid:c.Ft.gid in
            (match symlink_target with
            | Some target when String.length target <= max_symlink ->
                let a = inode_addr t ino in
                Nvm.Device.write_u16 t.dev (a + i_symlink) (String.length target);
                Nvm.Device.write_string t.dev (a + i_symlink + 2) target;
                Nvm.Device.persist_range t.dev (a + i_symlink)
                  (2 + String.length target)
            | Some _ -> ()
            | None -> ());
            journal_commit t ~bytes_hint:inode_size;
            (* NOVA pays a second log for the dir entry; PMFS journals both
               in one transaction — dir_insert's commit covers it. *)
            let* () = dir_insert t dino ~name:base ~child:ino ~kind in
            Ok ino)

let openf t path flags mode =
  op t (fun () ->
      let wants = Ft.wants_of_flags flags in
      let readable = List.mem `R wants || wants = [] in
      let writable = List.mem `W wants in
      let get_ino () =
        match resolve t path ~follow_last:true ~depth:0 with
        | Ok ino ->
            if Ft.flag_mem Ft.O_EXCL flags && Ft.flag_mem Ft.O_CREAT flags then
              Error E.EEXIST
            else if inode_kind t ino = kind_directory && writable then
              Error E.EISDIR
            else if not (permits t ino wants) then Error E.EACCES
            else begin
              if
                Ft.flag_mem Ft.O_TRUNC flags && writable
                && inode_kind t ino = kind_regular
              then
                Sim.Rwlock.with_wr (inode_lock t ino) (fun () ->
                    free_file_blocks t ino;
                    let a = inode_addr t ino in
                    for i = 0 to n_direct - 1 do
                      Nvm.Device.write_u64 t.dev (a + i_direct + (i * 8)) 0
                    done;
                    Nvm.Device.write_u64 t.dev (a + i_indirect) 0;
                    Nvm.Device.write_u64 t.dev (a + i_dindirect) 0;
                    Nvm.Device.persist_range t.dev (a + i_direct)
                      ((n_direct + 2) * 8);
                    set_inode_size t ino 0;
                    journal_commit t ~bytes_hint:64);
              Ok ino
            end
        | Error E.ENOENT when Ft.flag_mem Ft.O_CREAT flags ->
            create_file t path ~kind:kind_regular ~mode ()
        | Error e -> Error e
      in
      let* ino = get_ino () in
      let fd = t.next_fd in
      t.next_fd <- fd + 1;
      Hashtbl.replace t.fds fd
        {
          fd_ino = ino;
          fd_offset = 0;
          fd_append = Ft.flag_mem Ft.O_APPEND flags;
          fd_readable = readable;
          fd_writable = writable;
        };
      Ok fd)

let mkdir t path mode =
  op t (fun () ->
      match resolve t path ~follow_last:true ~depth:0 with
      | Ok _ -> Error E.EEXIST
      | Error E.ENOENT ->
          let* _ = create_file t path ~kind:kind_directory ~mode () in
          Ok ()
      | Error e -> Error e)

let symlink t ~target ~link =
  op t (fun () ->
      match resolve t link ~follow_last:false ~depth:0 with
      | Ok _ -> Error E.EEXIST
      | Error E.ENOENT ->
          let* _ =
            create_file t link ~kind:kind_symlink ~mode:0o777
              ~symlink_target:target ()
          in
          Ok ()
      | Error e -> Error e)

let readlink t path =
  op t (fun () ->
      let* ino = resolve t path ~follow_last:false ~depth:0 in
      if inode_kind t ino <> kind_symlink then Error E.EINVAL
      else begin
        let a = inode_addr t ino in
        let len = Nvm.Device.read_u16 t.dev (a + i_symlink) in
        Ok (Nvm.Device.read_string t.dev (a + i_symlink + 2) len)
      end)

let unlink t path =
  op t (fun () ->
      let* dino, base = resolve_parent t path in
      if not (permits t dino [ `W ]) then Error E.EACCES
      else
        Sim.Rwlock.with_wr (inode_lock t dino) (fun () ->
            match dir_lookup t dino base with
            | None -> Error E.ENOENT
            | Some ino ->
                if inode_kind t ino = kind_directory then Error E.EISDIR
                else begin
                  let* _ = dir_remove t dino base in
                  if inode_kind t ino = kind_regular then free_file_blocks t ino;
                  free_inode t ino;
                  journal_commit t ~bytes_hint:64;
                  Ok ()
                end))

let rmdir t path =
  op t (fun () ->
      let* dino, base = resolve_parent t path in
      if not (permits t dino [ `W ]) then Error E.EACCES
      else
        Sim.Rwlock.with_wr (inode_lock t dino) (fun () ->
            match dir_lookup t dino base with
            | None -> Error E.ENOENT
            | Some ino ->
                if inode_kind t ino <> kind_directory then Error E.ENOTDIR
                else if not (dir_is_empty t ino) then Error E.ENOTEMPTY
                else begin
                  let* _ = dir_remove t dino base in
                  free_file_blocks t ino;
                  free_inode t ino;
                  Hashtbl.remove t.dir_index ino;
                  Hashtbl.remove t.dir_free_slots ino;
                  journal_commit t ~bytes_hint:64;
                  Ok ()
                end))

let rename t src dst =
  op t (fun () ->
      let* sdino, sbase = resolve_parent t src in
      let* ddino, dbase = resolve_parent t dst in
      if not (permits t sdino [ `W ] && permits t ddino [ `W ]) then
        Error E.EACCES
      else
        Sim.Rwlock.with_wr (inode_lock t sdino) (fun () ->
            match dir_lookup t sdino sbase with
            | None -> Error E.ENOENT
            | Some ino ->
                let kind =
                  match inode_kind t ino with
                  | k when k = kind_directory -> kind_directory
                  | k when k = kind_symlink -> kind_symlink
                  | _ -> kind_regular
                in
                (* displace an existing destination file *)
                (match dir_lookup t ddino dbase with
                | Some old when old <> ino ->
                    if inode_kind t old <> kind_directory then begin
                      ignore (dir_remove t ddino dbase);
                      if inode_kind t old = kind_regular then
                        free_file_blocks t old;
                      free_inode t old
                    end
                | _ -> ());
                let* () = dir_insert t ddino ~name:dbase ~child:ino ~kind in
                let* _ = dir_remove t sdino sbase in
                journal_commit t ~bytes_hint:128;
                Ok ()))

let stat t path =
  op t (fun () ->
      let* ino = resolve t path ~follow_last:true ~depth:0 in
      Ok (stat_of t ino))

let lstat t path =
  op t (fun () ->
      let* ino = resolve t path ~follow_last:false ~depth:0 in
      Ok (stat_of t ino))

let readdir t path =
  op t (fun () ->
      let* ino = resolve t path ~follow_last:true ~depth:0 in
      if inode_kind t ino <> kind_directory then Error E.ENOTDIR
      else
        Ok
          (List.map
             (fun (name, dino, kind) ->
               let k =
                 if kind = kind_directory then Ft.Directory
                 else if kind = kind_symlink then Ft.Symlink
                 else Ft.Regular
               in
               { Ft.d_name = name; d_kind = k; d_ino = dino })
             (dir_entries t ino)))

let chmod t path mode =
  op t (fun () ->
      let* ino = resolve t path ~follow_last:true ~depth:0 in
      let a = inode_addr t ino in
      let c = Ft.cred_of_proc (Sim.self_proc ()) in
      if c.Ft.uid <> 0 && c.Ft.uid <> rd32 t (a + i_uid) then Error E.EPERM
      else begin
        wr32 t (a + i_mode) mode;
        journal_commit t ~bytes_hint:16;
        Ok ()
      end)

let chown t path uid gid =
  op t (fun () ->
      let* ino = resolve t path ~follow_last:true ~depth:0 in
      let a = inode_addr t ino in
      let c = Ft.cred_of_proc (Sim.self_proc ()) in
      if c.Ft.uid <> 0 then Error E.EPERM
      else begin
        wr32 t (a + i_uid) uid;
        wr32 t (a + i_gid) gid;
        journal_commit t ~bytes_hint:16;
        Ok ()
      end)

let fd t fdnum =
  match Hashtbl.find_opt t.fds fdnum with
  | Some s -> Ok s
  | None -> Error E.EBADF

let close t fdnum =
  op t (fun () ->
      let* _ = fd t fdnum in
      Hashtbl.remove t.fds fdnum;
      Ok ())

let read t fdnum buf boff len =
  op t (fun () ->
      let* s = fd t fdnum in
      if not s.fd_readable then Error E.EBADF
      else
        Sim.Rwlock.with_rd (inode_lock t s.fd_ino) (fun () ->
            let* n = do_read t s.fd_ino ~off:s.fd_offset buf boff len in
            s.fd_offset <- s.fd_offset + n;
            Ok n))

let pread t fdnum ~off buf boff len =
  op t (fun () ->
      let* s = fd t fdnum in
      if not s.fd_readable then Error E.EBADF
      else
        Sim.Rwlock.with_rd (inode_lock t s.fd_ino) (fun () ->
            do_read t s.fd_ino ~off buf boff len))

let write t fdnum data =
  op t (fun () ->
      let* s = fd t fdnum in
      if not s.fd_writable then Error E.EBADF
      else
        Sim.Rwlock.with_wr (inode_lock t s.fd_ino) (fun () ->
            let off =
              if s.fd_append then inode_size_of t s.fd_ino else s.fd_offset
            in
            let* n = do_write t s.fd_ino ~off data in
            s.fd_offset <- off + n;
            Ok n))

let pwrite t fdnum ~off data =
  op t (fun () ->
      let* s = fd t fdnum in
      if not s.fd_writable then Error E.EBADF
      else
        Sim.Rwlock.with_wr (inode_lock t s.fd_ino) (fun () ->
            do_write t s.fd_ino ~off data))

let lseek t fdnum pos whence =
  op t (fun () ->
      let* s = fd t fdnum in
      let target =
        match whence with
        | Ft.SEEK_SET -> pos
        | Ft.SEEK_CUR -> s.fd_offset + pos
        | Ft.SEEK_END -> inode_size_of t s.fd_ino + pos
      in
      if target < 0 then Error E.EINVAL
      else begin
        s.fd_offset <- target;
        Ok target
      end)

let fsync t fdnum =
  op t (fun () ->
      let* _ = fd t fdnum in
      (* synchronous engines: everything already flushed; jbd2 pays a
         transaction flush *)
      (match t.cfg.journal with
      | J_jbd2 _ -> journal_commit t ~bytes_hint:128
      | _ -> Nvm.Device.sfence t.dev);
      Ok ())

let fstat t fdnum =
  op t (fun () ->
      let* s = fd t fdnum in
      Ok (stat_of t s.fd_ino))

let ftruncate t fdnum len =
  op t (fun () ->
      let* s = fd t fdnum in
      if not s.fd_writable then Error E.EBADF
      else
        Sim.Rwlock.with_wr (inode_lock t s.fd_ino) (fun () ->
            let old = inode_size_of t s.fd_ino in
            if len < old then begin
              (* free whole blocks past len *)
              let first_dead = (len + page_size - 1) / page_size in
              let last = (old + page_size - 1) / page_size - 1 in
              for b = first_dead to last do
                match pointer_addr t ~alloc:false s.fd_ino b with
                | Ok (Some ptr) ->
                    let p = rd64 t ptr in
                    if p <> 0 then begin
                      wr64 t ptr 0;
                      free_page t p
                    end
                | Ok None | Error _ -> ()
              done
            end;
            set_inode_size t s.fd_ino len;
            journal_commit t ~bytes_hint:32;
            Ok ()))

let truncate t path len =
  op t (fun () ->
      let* ino = resolve t path ~follow_last:true ~depth:0 in
      Sim.Rwlock.with_wr (inode_lock t ino) (fun () ->
          let old = inode_size_of t ino in
          if len < old then begin
            let first_dead = (len + page_size - 1) / page_size in
            let last = (old + page_size - 1) / page_size - 1 in
            for b = first_dead to last do
              match pointer_addr t ~alloc:false ino b with
              | Ok (Some ptr) ->
                  let p = rd64 t ptr in
                  if p <> 0 then begin
                    wr64 t ptr 0;
                    free_page t p
                  end
              | Ok None | Error _ -> ()
            done
          end;
          set_inode_size t ino len;
          journal_commit t ~bytes_hint:32;
          Ok ()))
