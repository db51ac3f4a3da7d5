(* The generator's model of file contents, and the stamps that let every
   read be checked against it.

   Data moves in 512-byte cells.  A cell's bytes are one 16-byte token
   repeated: a stamp as a little-endian int64, then its complement.  A stamp
   is [writer lsl 32 lor seq]; writer 0 is set-up content, numbered per
   cell, so every cell of every file starts distinct.

   Readers may race writers of other threads (read-large, served-open), so
   the model keeps, per cell, the writes a read could still observe: each
   with its start time and acknowledgement time on the simulated clock.  A
   read over [rs, re] may return the stamp of any write that started by
   [re] and had not been overwritten by a write acknowledged before [rs].
   After recovery, with every write acknowledged, a cell must hold a write
   that no later write overwrote: anything older is a lost acknowledged
   write. *)

let cell = 512
let tokens_per_cell = cell / 16
let stamp ~writer ~seq = (writer lsl 32) lor seq

let describe st =
  if st lsr 32 = 0 then Printf.sprintf "set-up cell %d" (st land 0xffffffff)
  else Printf.sprintf "writer %d seq %d" (st lsr 32) (st land 0xffffffff)

let fill b off st =
  let x = Int64.of_int st in
  let y = Int64.lognot x in
  for i = 0 to tokens_per_cell - 1 do
    Bytes.set_int64_le b (off + (16 * i)) x;
    Bytes.set_int64_le b (off + (16 * i) + 8) y
  done

(* [ncells] cells, cell [i] stamped [st i]. *)
let payload ncells st =
  let b = Bytes.create (ncells * cell) in
  for i = 0 to ncells - 1 do
    fill b (i * cell) (st i)
  done;
  Bytes.unsafe_to_string b

let read_token b o =
  let x = Bytes.get_int64_le b o and y = Bytes.get_int64_le b (o + 8) in
  if Int64.lognot x = y then Some (Int64.to_int x) else None

(* The stamp cell [off] holds, when its first and last tokens are well
   formed and agree. *)
let read_cell b off =
  match (read_token b off, read_token b (off + cell - 16)) with
  | Some x, Some y when x = y -> Some x
  | _ -> None

(* ---- cell histories -------------------------------------------------- *)

type write = { st : int; t0 : int; mutable t1 : int (* max_int in flight *) }

type file = { name : string; hist : write list array; ncells : int }

(* Start times of the reads in flight: a write history is pruned only of
   entries that no read in flight can still observe. *)
type t = { mutable reads : int list; mutable next_seq : int }

let create () = { reads = []; next_seq = 0 }

let file m ~name ~ncells =
  let f =
    {
      name;
      hist =
        Array.init ncells (fun i ->
            [ { st = stamp ~writer:0 ~seq:(m.next_seq + i); t0 = 0; t1 = 0 } ]);
      ncells;
    }
  in
  m.next_seq <- m.next_seq + ncells;
  f

(* The set-up content of [f], as one string. *)
let initial f =
  payload f.ncells (fun i ->
      match f.hist.(i) with w :: _ -> w.st | [] -> invalid_arg "Model.initial")

(* [b] began after [a] was acknowledged: [b] overwrote [a]. *)
let overwrites b a = b.t0 > a.t1

let prune h horizon =
  let last =
    List.fold_left
      (fun acc w ->
        if w.t1 >= horizon then acc
        else match acc with Some c when c.t1 >= w.t1 -> acc | _ -> Some w)
      None h
  in
  match last with
  | None -> h
  | Some c ->
      List.filter (fun w -> w == c || w.t1 >= horizon || not (overwrites c w)) h

let write_begin m f ~first ~n st =
  let now = Sim.now () in
  let w = { st; t0 = now; t1 = max_int } in
  let horizon = List.fold_left min now m.reads in
  for c = first to first + n - 1 do
    f.hist.(c) <- w :: prune f.hist.(c) horizon
  done;
  w

let write_end w = w.t1 <- Sim.now ()

let read_begin m =
  let t = Sim.now () in
  m.reads <- t :: m.reads;
  t

let read_end m t =
  let rec drop = function
    | [] -> []
    | x :: r -> if x = t then r else x :: drop r
  in
  m.reads <- drop m.reads

let visible f c ~rs ~re st =
  let h = f.hist.(c) in
  List.exists
    (fun w ->
      w.st = st && w.t0 <= re
      && (w.t1 >= rs
         || not (List.exists (fun w' -> w' != w && overwrites w' w && w'.t1 < rs) h)))
    h

(* Check [len] bytes read into [b] at [off] from the start of cell [first]
   over [rs, re]; [None] when every cell holds a write the read may
   observe.  A partial last cell is judged by its first token. *)
let check_read f ~first ~len b off ~rs ~re =
  let rec go i =
    let have = len - (i * cell) in
    if have < 16 then None
    else
      let c = first + i in
      let o = off + (i * cell) in
      match if have >= cell then read_cell b o else read_token b o with
      | Some st when visible f c ~rs ~re st -> go (i + 1)
      | Some st ->
          Some
            (Printf.sprintf "%s cell %d: read %s, which the model rules out"
               f.name c (describe st))
      | None -> Some (Printf.sprintf "%s cell %d: torn or foreign bytes" f.name c)
  in
  go 0

(* After recovery: cell [c] must hold a write no later write overwrote. *)
let check_durable f c b off =
  let h = f.hist.(c) in
  let live = List.filter (fun w -> not (List.exists (fun w' -> overwrites w' w) h)) h in
  match read_cell b off with
  | Some st when List.exists (fun w -> w.st = st) live -> None
  | found ->
      let want = String.concat " or " (List.map (fun w -> describe w.st) live) in
      Some
        (Printf.sprintf "lost acknowledged write: %s cell %d should hold %s, holds %s"
           f.name c want
           (match found with Some st -> describe st | None -> "torn bytes"))
