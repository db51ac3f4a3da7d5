(* The user-space FD mapping table (paper §4.2).

   Applications see ordinary small integers; the table maps them to the
   µFS's open-file handles.  Allocation always returns the lowest available
   number — the property Strata's threshold scheme breaks and bash's dup
   depends on — and dup/dup2 share the open-file description (offset), as
   POSIX requires.  The table can be serialized to a base64 string and
   rebuilt on the other side of an exec (the paper passes it in a dedicated
   environment variable). *)

type ofd = {
  handle : int;  (* the µFS's open-file token *)
  mutable offset : int;
  mutable refcount : int;
  append : bool;
}

(* [free_hint] caches a lower bound on the lowest free fd, making the
   open/close-heavy paths (every FxMark metadata workload opens per op)
   amortized O(1) instead of a scan over every live descriptor: closing
   lowers it, allocating resumes the scan from it.  Invariant: no fd in
   [first_fd, free_hint) is free.

   Concurrency audit (race sanitizer): the hint is host DRAM, not NVM, so
   it is outside the sanitizer's shadow map; and the fd table is
   per-process state touched only between [Sim.advance] points, so under
   the cooperative scheduler a read-modify-write of [free_hint] can never
   interleave with another thread's.  Even if it could, a stale hint only
   costs a longer [lowest_free] scan — the invariant is a lower bound,
   re-established by the scan itself.  Benign; no annotation needed. *)
type t = { mutable slots : ofd option array; first_fd : int; mutable free_hint : int }

let create ?(first_fd = 3) () =
  { slots = Array.make 16 None; first_fd; free_hint = first_fd }

let ensure t fd =
  if fd >= Array.length t.slots then begin
    let bigger = Array.make (max (fd + 1) (2 * Array.length t.slots)) None in
    Array.blit t.slots 0 bigger 0 (Array.length t.slots);
    t.slots <- bigger
  end

let lowest_free t =
  let rec go fd =
    if fd >= Array.length t.slots then fd
    else match t.slots.(fd) with None -> fd | Some _ -> go (fd + 1)
  in
  let fd = go (max t.first_fd t.free_hint) in
  t.free_hint <- fd;
  fd

let note_filled t fd = if fd = t.free_hint then t.free_hint <- fd + 1
let note_freed t fd = if fd < t.free_hint then t.free_hint <- fd

let alloc t ?(append = false) handle =
  let fd = lowest_free t in
  ensure t fd;
  t.slots.(fd) <- Some { handle; offset = 0; refcount = 1; append };
  note_filled t fd;
  fd

let get t fd =
  if fd < 0 || fd >= Array.length t.slots then None else t.slots.(fd)

let lookup t fd =
  match get t fd with Some ofd -> Ok ofd | None -> Error Errno.EBADF

let dup t fd =
  match get t fd with
  | None -> Error Errno.EBADF
  | Some ofd ->
      let nfd = lowest_free t in
      ensure t nfd;
      ofd.refcount <- ofd.refcount + 1;
      t.slots.(nfd) <- Some ofd;
      note_filled t nfd;
      Ok nfd

(* Returns the handle to really close if the new fd displaced the last
   reference to an open file. *)
let dup2 t fd nfd =
  if nfd < 0 then Error Errno.EBADF
  else
    match get t fd with
    | None -> Error Errno.EBADF
    | Some ofd -> (
        ensure t nfd;
        match t.slots.(nfd) with
        | Some old when old == ofd -> Ok (nfd, None)
        | existing ->
            let displaced =
              match existing with
              | Some old ->
                  old.refcount <- old.refcount - 1;
                  if old.refcount = 0 then Some old.handle else None
              | None -> None
            in
            ofd.refcount <- ofd.refcount + 1;
            t.slots.(nfd) <- Some ofd;
            note_filled t nfd;
            Ok (nfd, displaced))

(* Returns the handle to really close when the last reference drops. *)
let close t fd =
  match get t fd with
  | None -> Error Errno.EBADF
  | Some ofd ->
      t.slots.(fd) <- None;
      note_freed t fd;
      ofd.refcount <- ofd.refcount - 1;
      if ofd.refcount = 0 then Ok (Some ofd.handle) else Ok None

let open_count t =
  Array.fold_left (fun acc s -> if s = None then acc else acc + 1) 0 t.slots

let iter t f =
  Array.iteri (fun fd s -> match s with Some ofd -> f fd ofd | None -> ()) t.slots

(* ---- serialization across exec (base64, as in the paper) --------------- *)

let b64_alphabet =
  "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

let b64_encode s =
  let n = String.length s in
  let buf = Buffer.create ((n + 2) / 3 * 4) in
  let i = ref 0 in
  while !i < n do
    let b0 = Char.code s.[!i] in
    let b1 = if !i + 1 < n then Char.code s.[!i + 1] else 0 in
    let b2 = if !i + 2 < n then Char.code s.[!i + 2] else 0 in
    Buffer.add_char buf b64_alphabet.[b0 lsr 2];
    Buffer.add_char buf b64_alphabet.[((b0 land 0x3) lsl 4) lor (b1 lsr 4)];
    if !i + 1 < n then
      Buffer.add_char buf b64_alphabet.[((b1 land 0xF) lsl 2) lor (b2 lsr 6)]
    else Buffer.add_char buf '=';
    if !i + 2 < n then Buffer.add_char buf b64_alphabet.[b2 land 0x3F]
    else Buffer.add_char buf '=';
    i := !i + 3
  done;
  Buffer.contents buf

let b64_value c =
  match c with
  | 'A' .. 'Z' -> Char.code c - Char.code 'A'
  | 'a' .. 'z' -> Char.code c - Char.code 'a' + 26
  | '0' .. '9' -> Char.code c - Char.code '0' + 52
  | '+' -> 62
  | '/' -> 63
  | _ -> invalid_arg "Fd_table: bad base64"

let b64_decode s =
  let buf = Buffer.create (String.length s * 3 / 4) in
  let i = ref 0 in
  while !i + 3 < String.length s do
    let v0 = b64_value s.[!i] and v1 = b64_value s.[!i + 1] in
    Buffer.add_char buf (Char.chr ((v0 lsl 2) lor (v1 lsr 4)));
    if s.[!i + 2] <> '=' then begin
      let v2 = b64_value s.[!i + 2] in
      Buffer.add_char buf (Char.chr (((v1 land 0xF) lsl 4) lor (v2 lsr 2)));
      if s.[!i + 3] <> '=' then begin
        let v3 = b64_value s.[!i + 3] in
        Buffer.add_char buf (Char.chr (((v2 land 0x3) lsl 6) lor v3))
      end
    end;
    i := !i + 4
  done;
  Buffer.contents buf

(* Wire format, one record per fd: "fd,handle,offset,append,group", where
   dup'd fds sharing an open file description carry the same group id. *)
let serialize t =
  (* Assign group ids so dup-shared descriptions stay shared after exec. *)
  let groups : (ofd * int) list ref = ref [] in
  let next_group = ref 0 in
  let group_of ofd =
    match List.find_opt (fun (o, _) -> o == ofd) !groups with
    | Some (_, g) -> g
    | None ->
        let g = !next_group in
        incr next_group;
        groups := (ofd, g) :: !groups;
        g
  in
  let records = ref [] in
  iter t (fun fd ofd ->
      records :=
        Printf.sprintf "%d,%d,%d,%b,%d" fd ofd.handle ofd.offset ofd.append
          (group_of ofd)
        :: !records);
  b64_encode (String.concat ";" (List.rev !records))

let deserialize ?(first_fd = 3) s =
  let t = create ~first_fd () in
  let raw = b64_decode s in
  if raw = "" then t
  else begin
    let by_group : (int, ofd) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun record ->
        match String.split_on_char ',' record with
        | [ fd; handle; offset; append; group ] ->
            let fd = int_of_string fd
            and handle = int_of_string handle
            and offset = int_of_string offset
            and append = bool_of_string append
            and group = int_of_string group in
            let ofd =
              match Hashtbl.find_opt by_group group with
              | Some ofd ->
                  ofd.refcount <- ofd.refcount + 1;
                  ofd
              | None ->
                  let ofd = { handle; offset; refcount = 1; append } in
                  Hashtbl.replace by_group group ofd;
                  ofd
            in
            ensure t fd;
            t.slots.(fd) <- Some ofd
        | _ -> invalid_arg "Fd_table.deserialize: bad record")
      (String.split_on_char ';' raw);
    t
  end
