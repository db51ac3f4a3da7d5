(* The interface a µFS exposes to the FSLibs dispatcher (paper §3.2, §4.2).

   Path operations may run into a symbolic link mid-walk; following it is the
   dispatcher's job ("whenever one symlink is expanded in a µFS, the new path
   will be returned to the dispatcher, which will re-dispatch the file
   request", §4.2), so every path operation can fail with [Symlink]. *)

type fail =
  | Errno of Errno.t
  | Symlink of string
      (** the expanded absolute path the dispatcher must re-dispatch *)

(* Raised by a µFS when an on-NVM structure fails a validity check (bad
   magic, impossible kind byte, poisoned allocator page).  The dispatcher
   catches exactly this — not blanket [Failure _] — and converts it to the
   paper's graceful EIO, so genuine programming bugs are no longer masked as
   I/O errors.  The [string] names the structure and check that failed. *)
exception Zofs_corrupt of string

(* Raised by a µFS when an operation needs to write a coffer whose health
   state forbids it (Quarantined is read-only, Offline rejects everything).
   Carries the coffer id; the dispatcher maps it to EIO *without* triggering
   another repair attempt — the coffer is already known-bad. *)
exception Coffer_unavailable of { cid : int; write : bool }

type 'a outcome = ('a, fail) result

let errno e : 'a outcome = Error (Errno e)

module type S = sig
  type t

  (* Path operations (paths absolute within the FS, normalized). *)
  val openf : t -> string -> Fs_types.open_flag list -> int -> int outcome
  val mkdir : t -> string -> int -> unit outcome
  val rmdir : t -> string -> unit outcome
  val unlink : t -> string -> unit outcome
  val rename : t -> string -> string -> unit outcome
  val stat : t -> string -> Fs_types.stat outcome
  val lstat : t -> string -> Fs_types.stat outcome
  val readdir : t -> string -> Fs_types.dirent list outcome
  val chmod : t -> string -> int -> unit outcome
  val chown : t -> string -> int -> int -> unit outcome
  val symlink : t -> target:string -> link:string -> unit outcome
  val readlink : t -> string -> string outcome

  (* Handle operations (a handle is the µFS's open-file token). *)
  val close : t -> int -> (unit, Errno.t) result

  val read : t -> int -> off:int -> bytes -> int -> int -> (int, Errno.t) result

  val write :
    t -> int -> off:[ `At of int | `Append ] -> string -> (int * int, Errno.t) result
  (** Returns [(bytes_written, end_offset)]; [`Append] resolves the offset
      atomically under the file lease. *)

  val fsync : t -> int -> (unit, Errno.t) result
  val fstat : t -> int -> (Fs_types.stat, Errno.t) result
  val ftruncate : t -> int -> int -> (unit, Errno.t) result

  val invalidate_coffer : t -> int -> unit
  (** Drop any cached session/mapping state for coffer [cid] (called by the
      dispatcher after an online repair remapped or reformatted coffer
      structures, so stale cached addresses are re-walked). *)
end
