(** A table keyed by a thread or process id ([>= -1]), for per-thread and
    per-process state read on every simulated access.  Unlike [Hashtbl], a
    lookup neither hashes nor allocates: the value lives in slot [id + 1] of
    an array that grows to fit the largest id stored. *)

type 'a t

val create : unit -> 'a t
val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool

val replace : 'a t -> int -> 'a -> unit
(** Raises [Invalid_argument] for an id below [-1]. *)

val remove : 'a t -> int -> unit
val reset : 'a t -> unit
