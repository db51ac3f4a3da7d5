(* Shared file-system types: file kinds, credentials, permission bits and the
   permission check used both by KernFS (at coffer granularity) and by the
   baseline kernel file systems (at file granularity). *)

type file_kind = Regular | Directory | Symlink

let kind_to_string = function
  | Regular -> "regular"
  | Directory -> "directory"
  | Symlink -> "symlink"

type cred = { uid : int; gid : int; groups : int list }

let cred_of_proc (p : Sim.Proc.t) =
  { uid = p.Sim.Proc.uid; gid = p.Sim.Proc.gid; groups = p.Sim.Proc.groups }

type want = [ `R | `W | `X ]

(* Classic owner/group/other check; uid 0 bypasses (as in Linux, modulo the
   execute subtlety which the paper also ignores). *)
let permits ~mode ~uid ~gid (c : cred) (wants : want list) =
  if c.uid = 0 then true
  else
    let shift =
      if c.uid = uid then 6
      else if c.gid = gid || List.mem gid c.groups then 3
      else 0
    in
    let bits = (mode lsr shift) land 0o7 in
    List.for_all
      (fun w ->
        let bit = match w with `R -> 0o4 | `W -> 0o2 | `X -> 0o1 in
        bits land bit <> 0)
      wants

(* The "permission" the paper groups files by: rw bits + owner + group
   (execute bits are ignored; §2.3). *)
let coffer_perm_key ~mode ~uid ~gid = ((mode land 0o666), uid, gid)

let same_coffer_perm ~mode1 ~uid1 ~gid1 ~mode2 ~uid2 ~gid2 =
  coffer_perm_key ~mode:mode1 ~uid:uid1 ~gid:gid1
  = coffer_perm_key ~mode:mode2 ~uid:uid2 ~gid:gid2

type stat = {
  st_ino : int;
  st_kind : file_kind;
  st_mode : int;
  st_uid : int;
  st_gid : int;
  st_size : int;
  st_nlink : int;
  st_atime : int;  (* ns since boot of the simulated clock *)
  st_mtime : int;
  st_ctime : int;
}

type dirent = { d_name : string; d_kind : file_kind; d_ino : int }

(* Open flags, the subset the benchmarks and applications need. *)
type open_flag = O_RDONLY | O_WRONLY | O_RDWR | O_CREAT | O_TRUNC | O_APPEND | O_EXCL

let flag_mem f flags = List.mem f flags

let wants_of_flags flags : want list =
  let readable = flag_mem O_RDONLY flags || flag_mem O_RDWR flags in
  let writable =
    flag_mem O_WRONLY flags || flag_mem O_RDWR flags || flag_mem O_APPEND flags
    || flag_mem O_TRUNC flags
  in
  (if readable then [ `R ] else []) @ if writable then [ `W ] else []

type whence = SEEK_SET | SEEK_CUR | SEEK_END
