(* Table 2's ops on one file and one directory shared by processes (paper
   §6.2).  A tenant [p] of a multi-process world builds its op once, as
   [append fs p] or [create fs p], and calls it with each op index; the
   world's set-up creates [file] and [dir] first. *)

module V = Treasury.Vfs
module Ft = Treasury.Fs_types

let ok = Runner.ok
let file = "/sfile"
let dir = "/sdir"
let block = String.make 4096 'a'

(* 4 KB appends to [file], opened on the tenant's first op. *)
let append fs _p =
  let fd = lazy (ok (V.openf fs file [ Ft.O_WRONLY; Ft.O_APPEND ] 0)) in
  fun _i -> ignore (ok (V.write fs (Lazy.force fd) block))

(* An empty file in [dir] (open O_CREAT + close), a fresh name each op. *)
let create fs p i =
  let fd =
    ok
      (V.openf fs
         (Printf.sprintf "%s/p%d_f%d" dir p i)
         [ Ft.O_CREAT; Ft.O_WRONLY ] 0o644)
  in
  ok (V.close fs fd)
