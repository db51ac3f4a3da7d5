(* Inode accessors.  An inode occupies a full 4 KB page (paper §5.1); its
   byte address is its identity (st_ino).  Regular files use ext4-style
   direct / indirect / double-indirect block pointers; symlinks store their
   target inline; directories point to their first-level hash page through
   direct[0]. *)

open Layout

type kind = Regular | Directory | Symlink

let kind_code = function
  | Regular -> kind_regular
  | Directory -> kind_directory
  | Symlink -> kind_symlink

let kind_of_code = function
  | c when c = kind_regular -> Some Regular
  | c when c = kind_directory -> Some Directory
  | c when c = kind_symlink -> Some Symlink
  | _ -> None

let fs_kind = function
  | Regular -> Treasury.Fs_types.Regular
  | Directory -> Treasury.Fs_types.Directory
  | Symlink -> Treasury.Fs_types.Symlink

(* Negative for the crash gate: [prepare] skips its flush, so a created
   inode never becomes durable and an acknowledged create is lost. *)
let inject_skip_flush = ref false

(* Write every field of a fresh inode a reader may consult, and flush it,
   without a fence: the create path's dentry insert ([Dir.write_dentry]
   ~fresh) fences the inode together with the dentry that makes it
   reachable, and audits it there. *)
let prepare dev ~ino ~kind ~mode ~uid ~gid =
  let now = Sim.now () in
  (* The inode lease protects the whole inode page; the page may be a
     recycled one, so this also retires any stale registration. *)
  Check.register_lease dev ~lease:(ino + i_lease) ~addr:ino ~len:page_size;
  Nvm.Device.write_u32 dev (ino + i_magic) inode_magic;
  Nvm.Device.write_u32 dev (ino + i_kind) (kind_code kind);
  Nvm.Device.write_u32 dev (ino + i_mode) mode;
  Nvm.Device.write_u32 dev (ino + i_uid) uid;
  Nvm.Device.write_u32 dev (ino + i_gid) gid;
  Nvm.Device.write_u32 dev (ino + i_nlink) (if kind = Directory then 2 else 1);
  Nvm.Device.write_u64 dev (ino + i_size) 0;
  Nvm.Device.write_u64 dev (ino + i_atime) now;
  Nvm.Device.write_u64 dev (ino + i_mtime) now;
  Nvm.Device.write_u64 dev (ino + i_ctime) now;
  Nvm.Device.write_u64 dev (ino + i_lease) 0;
  (* Zero the intention record (the page may be recycled with a stale one);
     the persist_range below covers bytes 0..i_double_indirect+8, so this is
     made durable with the rest of the inode. *)
  Nvm.Device.write_u64 dev (ino + i_intent) 0;
  Nvm.Device.write_u64 dev (ino + i_intent + 8) 0;
  for i = 0 to n_direct - 1 do
    Nvm.Device.write_u64 dev (ino + i_direct + (i * 8)) 0
  done;
  Nvm.Device.write_u64 dev (ino + i_indirect) 0;
  Nvm.Device.write_u64 dev (ino + i_double_indirect) 0;
  (* One coalesced flush of the written lines. *)
  if not !inject_skip_flush then Pbatch.flush dev ino (i_double_indirect + 8)

(* The inode-commit audit: [ino] is durable as it becomes reachable. *)
let publish dev ~ino =
  Check.publish dev ~label:"inode-commit" ino page_size;
  Race.publish dev ~label:"inode-commit" ino page_size

(* [prepare] and commit at once, for an inode no dentry insert publishes:
   a coffer's root at coffer set-up and recovery's re-initialized root. *)
let init dev ~ino ~kind ~mode ~uid ~gid =
  prepare dev ~ino ~kind ~mode ~uid ~gid;
  Pbatch.barrier dev;
  publish dev ~ino

let valid dev ~ino = Nvm.Device.read_u32 dev (ino + i_magic) = inode_magic

let kind dev ~ino = kind_of_code (Nvm.Device.read_u32 dev (ino + i_kind))

let kind_exn dev ~ino =
  match kind dev ~ino with
  | Some k -> k
  | None ->
      raise
        (Treasury.Ufs_intf.Zofs_corrupt
           (Printf.sprintf "inode 0x%x: bad kind byte" ino))

let mode dev ~ino = Nvm.Device.read_u32 dev (ino + i_mode)
let uid dev ~ino = Nvm.Device.read_u32 dev (ino + i_uid)
let gid dev ~ino = Nvm.Device.read_u32 dev (ino + i_gid)
let nlink dev ~ino = Nvm.Device.read_u32 dev (ino + i_nlink)
let size dev ~ino = Nvm.Device.read_u64 dev (ino + i_size)

let set_mode dev ~ino v =
  Nvm.Device.write_u32 dev (ino + i_mode) v;
  Nvm.Device.persist_range dev (ino + i_mode) 4

let set_owner dev ~ino ~uid:u ~gid:g =
  Nvm.Device.write_u32 dev (ino + i_uid) u;
  Nvm.Device.write_u32 dev (ino + i_gid) g;
  Nvm.Device.persist_range dev (ino + i_uid) 8

(* Size and mtime updates happen under the inode lease; their flush rides
   the lease-release fence (the publish point that audits them), so neither
   issues a fence of its own. *)
let set_size dev ~ino v =
  Nvm.Device.write_u64 dev (ino + i_size) v;
  Nvm.Device.write_u64 dev (ino + i_mtime) (Sim.now ());
  Pbatch.flush dev (ino + i_size) 24

let touch_mtime dev ~ino =
  Nvm.Device.write_u64 dev (ino + i_mtime) (Sim.now ());
  Pbatch.flush dev (ino + i_mtime) 8

let lease_addr ~ino = ino + i_lease

let stat dev ~ino : Treasury.Fs_types.stat =
  {
    st_ino = ino / page_size;
    st_kind = fs_kind (kind_exn dev ~ino);
    st_mode = mode dev ~ino;
    st_uid = uid dev ~ino;
    st_gid = gid dev ~ino;
    st_size = size dev ~ino;
    st_nlink = nlink dev ~ino;
    st_atime = Nvm.Device.read_u64 dev (ino + i_atime);
    st_mtime = Nvm.Device.read_u64 dev (ino + i_mtime);
    st_ctime = Nvm.Device.read_u64 dev (ino + i_ctime);
  }

(* ---- symlinks ------------------------------------------------------------ *)

(* Part of [prepare]'s work for a new symlink: flushed, and fenced by the
   dentry insert that links it. *)
let set_symlink_target dev ~ino target =
  let len = String.length target in
  if len > max_symlink_target then invalid_arg "Zofs: symlink target too long";
  Nvm.Device.write_u16 dev (ino + i_symlink_len) len;
  Nvm.Device.write_string dev (ino + i_symlink_target) target;
  Nvm.Device.write_u64 dev (ino + i_size) len;
  Pbatch.flush dev (ino + i_size) 8;
  Pbatch.flush dev (ino + i_symlink_len) (2 + len)

let symlink_target dev ~ino =
  let len = Nvm.Device.read_u16 dev (ino + i_symlink_len) in
  Nvm.Device.read_string dev (ino + i_symlink_target) len

(* ---- block pointers ------------------------------------------------------ *)

let direct_addr ~ino i = ino + i_direct + (i * 8)
let read_direct dev ~ino i = Nvm.Device.read_u64 dev (direct_addr ~ino i)

(* Block-pointer stores are flushed but not fenced here: the pointed-to
   page's contents are already durable (alloc_zeroed fences, data writes
   fence before size publish), and the pointer itself must only be durable
   before the size / dentry that exposes it — ordered by the enclosing
   operation's barrier. *)
let write_direct dev ~ino i v =
  Nvm.Device.write_u64 dev (direct_addr ~ino i) v;
  Pbatch.flush dev (direct_addr ~ino i) 8

let indirect dev ~ino = Nvm.Device.read_u64 dev (ino + i_indirect)

let set_indirect dev ~ino v =
  Nvm.Device.write_u64 dev (ino + i_indirect) v;
  Pbatch.flush dev (ino + i_indirect) 8

let double_indirect dev ~ino = Nvm.Device.read_u64 dev (ino + i_double_indirect)

let set_double_indirect dev ~ino v =
  Nvm.Device.write_u64 dev (ino + i_double_indirect) v;
  Pbatch.flush dev (ino + i_double_indirect) 8
