(* Paged storage with a rollback journal — the SQLite file/journal protocol,
   which is exactly the file-system footprint the paper's TPC-C experiment
   measures: per transaction, a journal file is created, filled with
   before-images, fsynced; the database pages are written and fsynced; the
   journal is deleted.  Crash recovery replays the journal's before-images.

   Pages are cached in DRAM (SQLite's page cache): reads of cached pages
   cost nothing on the FS; misses pread from the database file. *)

module V = Treasury.Vfs
module Ft = Treasury.Fs_types

let page_size = 4096
let default_cache_pages = 256 (* 1 MB, SQLite's default ballpark *)

type t = {
  cache_pages : int;
  fs : V.fs;
  path : string;
  journal_path : string;
  mutable db_fd : int option;  (* SQLite keeps the database fd open *)
  cache : (int, bytes) Hashtbl.t;
  lru : int Queue.t;  (* FIFO eviction order of cached pages *)
  mutable npages : int;
  mutable in_txn : bool;
  mutable dirty : (int, unit) Hashtbl.t;
  mutable before_images : (int * bytes) list;  (* first-touch order *)
  mutable txn_commits : int;
}

let ( let* ) = Result.bind

(* Apply a leftover journal (crash during the previous commit). *)
let recover fs path journal_path =
  match V.read_file fs journal_path with
  | Error Treasury.Errno.ENOENT -> Ok ()
  | Error e -> Error e
  | Ok data ->
      let n = String.length data in
      let* fd = V.openf fs path [ Ft.O_CREAT; Ft.O_WRONLY ] 0o644 in
      let entry = 4 + page_size in
      let count = n / entry in
      for i = 0 to count - 1 do
        let off = i * entry in
        let page =
          Char.code data.[off]
          lor (Char.code data.[off + 1] lsl 8)
          lor (Char.code data.[off + 2] lsl 16)
          lor (Char.code data.[off + 3] lsl 24)
        in
        ignore
          (V.pwrite fs fd ~off:(page * page_size)
             (String.sub data (off + 4) page_size))
      done;
      let* () = V.fsync fs fd in
      let* () = V.close fs fd in
      V.unlink fs journal_path

let open_ ?(cache_pages = default_cache_pages) fs path =
  let journal_path = path ^ "-journal" in
  let* () = recover fs path journal_path in
  let* npages =
    match V.stat fs path with
    | Ok st -> Ok ((st.Ft.st_size + page_size - 1) / page_size)
    | Error Treasury.Errno.ENOENT ->
        let* () = V.write_file fs path "" in
        Ok 0
    | Error e -> Error e
  in
  Ok
    {
      cache_pages;
      fs;
      path;
      journal_path;
      db_fd = None;
      cache = Hashtbl.create 256;
      lru = Queue.create ();
      npages;
      in_txn = false;
      dirty = Hashtbl.create 16;
      before_images = [];
      txn_commits = 0;
    }

let npages t = t.npages

let db_fd t =
  match t.db_fd with
  | Some fd -> Ok fd
  | None ->
      let* fd = V.openf t.fs t.path [ Ft.O_RDWR ] 0 in
      t.db_fd <- Some fd;
      Ok fd

(* Evict clean pages beyond the cache budget (page 0 — the catalog — and
   pages dirty in the open transaction are pinned). *)
let evict_to_budget t =
  let attempts = ref (Queue.length t.lru) in
  while
    Hashtbl.length t.cache > t.cache_pages
    && (not (Queue.is_empty t.lru))
    && !attempts > 0
  do
    decr attempts;
    let victim = Queue.pop t.lru in
    if Hashtbl.mem t.cache victim && victim <> 0 then
      if Hashtbl.mem t.dirty victim then Queue.push victim t.lru
      else Hashtbl.remove t.cache victim
  done

let cache_insert t page b =
  Hashtbl.replace t.cache page b;
  Queue.push page t.lru;
  evict_to_budget t

let read_page t page =
  match Hashtbl.find_opt t.cache page with
  | Some b -> b
  | None ->
      let b = Bytes.make page_size '\000' in
      (match db_fd t with
      | Ok fd -> ignore (V.pread t.fs fd ~off:(page * page_size) b 0 page_size)
      | Error _ -> ());
      cache_insert t page b;
      b

(* Mark a page dirty within the current transaction, capturing its
   before-image on first touch. *)
let touch t page =
  if not t.in_txn then invalid_arg "Pager.touch: no transaction";
  if not (Hashtbl.mem t.dirty page) then begin
    let before =
      if page < t.npages then Bytes.copy (read_page t page)
      else Bytes.make page_size '\000'
    in
    t.before_images <- (page, before) :: t.before_images;
    Hashtbl.replace t.dirty page ()
  end

let write_page t page (b : bytes) =
  touch t page;
  Hashtbl.replace t.cache page b

let alloc_page t =
  let page = t.npages in
  t.npages <- page + 1;
  let b = Bytes.make page_size '\000' in
  cache_insert t page b;
  if t.in_txn then touch t page;
  page

let begin_txn t =
  if t.in_txn then invalid_arg "Pager.begin_txn: nested transaction";
  t.in_txn <- true;
  t.dirty <- Hashtbl.create 16;
  t.before_images <- []

let rollback t =
  if not t.in_txn then invalid_arg "Pager.rollback: no transaction";
  (* restore before-images in the cache; nothing reached the files *)
  List.iter
    (fun (page, before) -> Hashtbl.replace t.cache page before)
    t.before_images;
  (* freshly allocated pages disappear *)
  let max_before =
    List.fold_left (fun acc (p, _) -> max acc (p + 1)) 0 t.before_images
  in
  ignore max_before;
  t.in_txn <- false;
  t.dirty <- Hashtbl.create 16;
  t.before_images <- []

let commit t =
  if not t.in_txn then invalid_arg "Pager.commit: no transaction";
  if Hashtbl.length t.dirty = 0 then begin
    t.in_txn <- false;
    Ok ()
  end
  else begin
    (* 1. journal the before-images and fsync *)
    let jbuf = Buffer.create 8192 in
    List.iter
      (fun (page, before) ->
        Buffer.add_int32_le jbuf (Int32.of_int page);
        Buffer.add_bytes jbuf before)
      (List.rev t.before_images);
    let* jfd =
      V.openf t.fs t.journal_path [ Ft.O_CREAT; Ft.O_WRONLY; Ft.O_TRUNC ] 0o644
    in
    let* _ = V.write t.fs jfd (Buffer.contents jbuf) in
    let* () = V.fsync t.fs jfd in
    let* () = V.close t.fs jfd in
    (* 2. write the dirty database pages and fsync *)
    let* fd = db_fd t in
    let pages = Hashtbl.fold (fun p () acc -> p :: acc) t.dirty [] in
    List.iter
      (fun page ->
        let b = read_page t page in
        ignore
          (V.pwrite t.fs fd ~off:(page * page_size) (Bytes.to_string b)))
      (List.sort compare pages);
    let* () = V.fsync t.fs fd in
    (* 3. the commit point: delete the journal *)
    let* () = V.unlink t.fs t.journal_path in
    t.in_txn <- false;
    t.dirty <- Hashtbl.create 16;
    t.before_images <- [];
    t.txn_commits <- t.txn_commits + 1;
    Ok ()
  end

let commit_count t = t.txn_commits
