(* POSIX-style error codes returned by every file-system operation in the
   reproduction.  FSLibs converts internal faults (MPK violations, corrupted
   metadata) into [EIO] — the paper's "graceful error return" (§3.4.2). *)

type t =
  | ENOENT
  | EEXIST
  | ENOTDIR
  | EISDIR
  | ENOTEMPTY
  | EACCES
  | EPERM
  | EBADF
  | EINVAL
  | ENOSPC
  | ENAMETOOLONG
  | EMFILE
  | ENOSYS
  | EIO
  | EXDEV
  | ELOOP
  | EFBIG
  | EAGAIN
  | EBUSY
  | ENOMEM
  | ETIMEDOUT

let to_string = function
  | ENOENT -> "ENOENT"
  | EEXIST -> "EEXIST"
  | ENOTDIR -> "ENOTDIR"
  | EISDIR -> "EISDIR"
  | ENOTEMPTY -> "ENOTEMPTY"
  | EACCES -> "EACCES"
  | EPERM -> "EPERM"
  | EBADF -> "EBADF"
  | EINVAL -> "EINVAL"
  | ENOSPC -> "ENOSPC"
  | ENAMETOOLONG -> "ENAMETOOLONG"
  | EMFILE -> "EMFILE"
  | ENOSYS -> "ENOSYS"
  | EIO -> "EIO"
  | EXDEV -> "EXDEV"
  | ELOOP -> "ELOOP"
  | EFBIG -> "EFBIG"
  | EAGAIN -> "EAGAIN"
  | EBUSY -> "EBUSY"
  | ENOMEM -> "ENOMEM"
  | ETIMEDOUT -> "ETIMEDOUT"

let message = function
  | ENOENT -> "No such file or directory"
  | EEXIST -> "File exists"
  | ENOTDIR -> "Not a directory"
  | EISDIR -> "Is a directory"
  | ENOTEMPTY -> "Directory not empty"
  | EACCES -> "Permission denied"
  | EPERM -> "Operation not permitted"
  | EBADF -> "Bad file descriptor"
  | EINVAL -> "Invalid argument"
  | ENOSPC -> "No space left on device"
  | ENAMETOOLONG -> "File name too long"
  | EMFILE -> "Too many open files"
  | ENOSYS -> "Function not implemented"
  | EIO -> "Input/output error"
  | EXDEV -> "Cross-device link"
  | ELOOP -> "Too many levels of symbolic links"
  | EFBIG -> "File too large"
  | EAGAIN -> "Resource temporarily unavailable"
  | EBUSY -> "Device or resource busy"
  | ENOMEM -> "Cannot allocate memory"
  | ETIMEDOUT -> "Operation timed out"

let pp fmt e = Format.pp_print_string fmt (to_string e)
let equal (a : t) b = a = b

(* Convenience combinators for the pervasive [('a, t) result] style. *)
let ( let* ) = Result.bind
let ok = Result.ok
let error = Result.error
