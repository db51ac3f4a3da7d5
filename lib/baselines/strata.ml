(* Strata (Kwon et al., SOSP'17) as needed for the paper's comparison: a
   cross-media file system whose LibFS appends every update to a per-process
   NVM log in user space (fast: no system call) and relies on the kernel to
   *digest* the log into the shared area later.

   The two properties the paper measures:
   - the fast path: an append is one log write + fence in user space, so
     single-process appends beat even NOVA (Table 2);
   - the sharing collapse: leases are per-process, so when two processes
     touch the same file or directory, every ping-pong forces a kernel
     digest of the holder's log before the lease moves — append latency
     jumps from 1.7 µs to 35 µs and create to 284 µs (Table 2, §2.2), and
     creates write two log records to keep metadata consistent.

   The digested (shared) area is an ungated Engine instance; digests enter
   the kernel once per batch.  Pending data lives in the DRAM overlay and
   its NVM log writes are charged against the device.  The module is itself
   a [Treasury.Vfs.S]: pack it as [(module Strata)]. *)

module E = Treasury.Errno
module Ft = Treasury.Fs_types
module Pathx = Treasury.Pathx
module Gate = Treasury.Gate

let log_record_header = 64
let digest_threshold = 1 lsl 20 (* 1 MB of pending log *)

type pending_file = {
  mutable p_created : (int * int) option;  (* kind, mode — if not yet digested *)
  mutable p_extents : (int * string) list;  (* newest first *)
  mutable p_size : int;  (* size including pending writes; -1 = unknown *)
  mutable p_unlinked : bool;
  p_shared : bool;  (* the path existed in the shared area when first logged *)
}

type pstate = {
  ps_pid : int;
  ps_log_base : int;  (* byte offset of this process's log region *)
  mutable ps_log_used : int;
  ps_pending : (string, pending_file) Hashtbl.t;
  ps_leases : (string, unit) Hashtbl.t;
  ps_fds : (int, fd_state) Hashtbl.t;
  mutable ps_next_fd : int;
  ps_lock : Sim.Mutex.t;
      (* the per-process LibFS lock: one update log per process, so threads
         of a process serialize — why Strata stays flat as threads grow in
         the paper's Figure 9(a)/(b) *)
}

and fd_state = {
  fd_path : string;
  mutable fd_offset : int;
  fd_append : bool;
  fd_writable : bool;
}

type t = {
  kernel : Engine.t;
  dev : Nvm.Device.t;
  gate : Gate.t;
  procs : (int, pstate) Hashtbl.t;
  leases : (string, int) Hashtbl.t;  (* path -> holder pid *)
  log_area_base : int;
  log_area_per_proc : int;
  mutable next_log_slot : int;
  mutable digests : int;  (* observability *)
  lease_lock : Sim.Mutex.t;  (* serializes lease acquisition in the kernel *)
}

let ( let* ) = Result.bind

let create ?(pages = 65536) ?(perf = Nvm.Perf.optane) () =
  let cfg =
    {
      Engine.label = "strata-shared";
      journal = Engine.J_log 64;
      alloc = Engine.A_per_thread 4;
      data_write = Engine.W_in_place_nt;
      dir = Engine.D_dram_index;
      index_update = false;
      gated = false;  (* digests batch their own kernel entry *)
      op_overhead = 60;
    }
  in
  (* Log regions are carved from the top 1,024 pages of the device address
     space, which the shared area therefore never allocates from; log writes
     are charged as NVM traffic against a per-process window. *)
  let log_pages = 1024 in
  let kernel = Engine.create ~data_end:(pages - log_pages) cfg ~pages ~perf in
  {
    kernel;
    dev = kernel.Engine.dev;
    gate = Gate.create kernel.Engine.mpk;
    procs = Hashtbl.create 8;
    leases = Hashtbl.create 64;
    log_area_base = (pages - log_pages) * Nvm.page_size;
    log_area_per_proc = 256 * Nvm.page_size;
    next_log_slot = 0;
    digests = 0;
    lease_lock = Sim.Mutex.create ~name:"strata-leases" ();
  }

let pstate t =
  let pid = (Sim.self_proc ()).Sim.Proc.pid in
  match Hashtbl.find_opt t.procs pid with
  | Some ps -> ps
  | None ->
      let slot = t.next_log_slot in
      t.next_log_slot <- slot + 1;
      let ps =
        {
          ps_pid = pid;
          ps_log_base = t.log_area_base + (slot mod 4 * t.log_area_per_proc);
          ps_log_used = 0;
          ps_pending = Hashtbl.create 32;
          ps_leases = Hashtbl.create 32;
          ps_fds = Hashtbl.create 16;
          ps_next_fd = 3;
          ps_lock = Sim.Mutex.create ~name:(Printf.sprintf "strata-libfs-%d" pid) ();
        }
      in
      (* The kernel maps the process's log region into its address space so
         the LibFS can append without system calls. *)
      Gate.syscall t.gate (fun () ->
          let first = ps.ps_log_base / Nvm.page_size in
          let count = t.log_area_per_proc / Nvm.page_size in
          for page = first to first + count - 1 do
            Mpk.map_page t.kernel.Engine.mpk ~pid ~page ~writable:true ~pkey:0
          done);
      Hashtbl.replace t.procs pid ps;
      ps

let pending t ps path =
  match Hashtbl.find_opt ps.ps_pending path with
  | Some p -> p
  | None ->
      let size =
        match Engine.stat t.kernel path with
        | Ok st -> st.Ft.st_size
        | Error _ -> -1
      in
      let p =
        {
          p_created = None;
          p_extents = [];
          p_size = size;
          p_unlinked = false;
          p_shared = size >= 0;
        }
      in
      Hashtbl.replace ps.ps_pending path p;
      p

(* Append a record to the process log: user-space NVM write + fence, plus
   the LibFS bookkeeping (record construction, checksum, in-DRAM index
   update) that makes a Strata append slower than a ZoFS one despite both
   avoiding the kernel (Table 2). *)
let log_append t ps ~bytes =
  Sim.advance 900;
  let total = log_record_header + bytes in
  let room = t.log_area_per_proc - 8192 in
  let addr = ps.ps_log_base + (ps.ps_log_used mod room) in
  (* charge the whole record; wrap the address if it straddles the end *)
  let n1 = min total (room - (ps.ps_log_used mod room)) in
  Nvm.Device.nt_write_string t.dev addr (String.make n1 '\000');
  if total > n1 then
    Nvm.Device.nt_write_string t.dev ps.ps_log_base (String.make (total - n1) '\000');
  Nvm.Device.sfence t.dev;
  ps.ps_log_used <- ps.ps_log_used + total

(* Digest a process's log into the shared area (runs in the kernel).  Each
   pending op is re-applied — the double write the paper charges Strata
   for.  Every entry is applied even after one fails; the first error is
   returned (the log is consumed either way).  A path created and unlinked
   within the log never reached the shared area, so only a path that was
   shared is unlinked there. *)
let digest t ps =
  t.digests <- t.digests + 1;
  Gate.syscall t.gate (fun () ->
      let entries =
        Hashtbl.fold (fun path p acc -> (path, p) :: acc) ps.ps_pending []
        |> List.sort compare
      in
      (* fixed digestion overhead (log scan, lease bookkeeping, journaling)
         plus per-entry validation — the reason shared files are 19x slower
         on Strata (paper 2.2) *)
      Sim.advance (6000 + (2000 * List.length entries));
      let first_error = ref None in
      let note = function
        | Ok _ -> ()
        | Error e -> if !first_error = None then first_error := Some e
      in
      List.iter
        (fun (path, p) ->
          (* re-read the log (charged) *)
          let pending_bytes =
            List.fold_left (fun a (_, d) -> a + String.length d) 0 p.p_extents
          in
          if pending_bytes > 0 then
            ignore (Nvm.Device.read_bytes t.dev ps.ps_log_base (min 4096 pending_bytes));
          (match p.p_created with
          | Some (kind, mode) when not p.p_unlinked ->
              if kind = Engine.kind_directory then
                note (Engine.mkdir t.kernel path mode)
              else
                note
                  (let* fd =
                     Engine.openf t.kernel path [ Ft.O_CREAT; Ft.O_WRONLY ] mode
                   in
                   Engine.close t.kernel fd)
          | _ -> ());
          if (not p.p_unlinked) && p.p_extents <> [] then
            note
              (let* fd = Engine.openf t.kernel path [ Ft.O_WRONLY ] 0 in
               List.iter
                 (fun (off, data) -> note (Engine.pwrite t.kernel fd ~off data))
                 (List.rev p.p_extents);
               Engine.close t.kernel fd);
          if p.p_unlinked && p.p_shared then note (Engine.unlink t.kernel path))
        entries;
      Hashtbl.reset ps.ps_pending;
      ps.ps_log_used <- 0;
      match !first_error with None -> Ok () | Some e -> Error e)

(* Acquire the lease on [path] for the calling process.  If another process
   holds it, its log is digested first (lease revocation). *)
let ensure_lease t ps path =
  if Hashtbl.mem ps.ps_leases path then begin
    Sim.advance 15 (* cached lease check *);
    Ok ()
  end
  else begin
    (* Lease acquisition is a kernel operation, serialized by the lease
       manager's lock: the check, the revocation (which digests the current
       holder's log) and the handover are one atomic step. *)
    Sim.Mutex.with_lock t.lease_lock (fun () ->
        Gate.syscall t.gate (fun () ->
            match Hashtbl.find_opt t.leases path with
            | Some holder when holder <> ps.ps_pid -> (
                match Hashtbl.find_opt t.procs holder with
                | Some hps -> Hashtbl.remove hps.ps_leases path
                | None -> ())
            | _ -> ());
        (* revocation digests the holder's log before the lease moves *)
        let digested =
          match Hashtbl.find_opt t.leases path with
          | Some holder when holder <> ps.ps_pid -> (
              match Hashtbl.find_opt t.procs holder with
              | Some hps -> digest t hps
              | None -> Ok ())
          | _ -> Ok ()
        in
        Hashtbl.replace t.leases path ps.ps_pid;
        Hashtbl.replace ps.ps_leases path ();
        digested)
  end

let maybe_self_digest t ps =
  if ps.ps_log_used > digest_threshold then digest t ps else Ok ()

(* Any operation we did not give a fast path digests first and falls back to
   the shared area. *)
let slow_path t ps f =
  let* () = digest t ps in
  f ()

(* ---- Vfs.S ------------------------------------------------------------------- *)

let name _ = "strata"

let exists_now t ps path =
  match Hashtbl.find_opt ps.ps_pending path with
  | Some p -> if p.p_unlinked then false else p.p_created <> None || p.p_size >= 0
  | None -> Result.is_ok (Engine.stat t.kernel path)

let parent_exists t ps path =
  let dir = Pathx.dirname path in
  dir = "/" || exists_now t ps dir

let openf t path flags mode =
  let ps = pstate t in
  Sim.Mutex.with_lock ps.ps_lock @@ fun () ->
  let path = Pathx.normalize path in
  let* () = ensure_lease t ps path in
  let wants = Ft.wants_of_flags flags in
  let writable = List.mem `W wants in
  (* take the parent's lease first: a revocation digests whoever created
     the directory, making it visible in the shared area *)
  let* () = ensure_lease t ps (Pathx.dirname path) in
  let present = exists_now t ps path in
  if (not present) && not (Ft.flag_mem Ft.O_CREAT flags) then Error E.ENOENT
  else if (not present) && not (parent_exists t ps path) then Error E.ENOENT
  else if present && Ft.flag_mem Ft.O_CREAT flags && Ft.flag_mem Ft.O_EXCL flags
  then Error E.EEXIST
  else begin
    if not present then begin
      (* metadata consistency requires two log records per create (§2.2) *)
      log_append t ps ~bytes:64;
      log_append t ps ~bytes:64;
      let p = pending t ps path in
      p.p_created <- Some (Engine.kind_regular, mode);
      p.p_unlinked <- false;
      p.p_size <- 0
    end
    else if Ft.flag_mem Ft.O_TRUNC flags && writable then begin
      log_append t ps ~bytes:32;
      let p = pending t ps path in
      p.p_extents <- [];
      p.p_size <- 0;
      if p.p_created = None then p.p_created <- Some (Engine.kind_regular, mode)
    end;
    let* () = maybe_self_digest t ps in
    let fd = ps.ps_next_fd in
    ps.ps_next_fd <- fd + 1;
    Hashtbl.replace ps.ps_fds fd
      {
        fd_path = path;
        fd_offset = 0;
        fd_append = Ft.flag_mem Ft.O_APPEND flags;
        fd_writable = writable;
      };
    Ok fd
  end

let fd_of t fdn =
  let ps = pstate t in
  match Hashtbl.find_opt ps.ps_fds fdn with
  | Some s -> Ok (ps, s)
  | None -> Error E.EBADF

let file_size t ps path =
  match Hashtbl.find_opt ps.ps_pending path with
  | Some p when p.p_size >= 0 -> p.p_size
  | _ -> ( match Engine.stat t.kernel path with Ok st -> st.Ft.st_size | Error _ -> 0)

let write t fdn data =
  let* ps, s = fd_of t fdn in
  if not s.fd_writable then Error E.EBADF
  else
    Sim.Mutex.with_lock ps.ps_lock @@ fun () ->
    begin
    let* () = ensure_lease t ps s.fd_path in
    let off = if s.fd_append then file_size t ps s.fd_path else s.fd_offset in
    log_append t ps ~bytes:(String.length data);
    let p = pending t ps s.fd_path in
    p.p_extents <- (off, data) :: p.p_extents;
    p.p_size <- max (max p.p_size 0) (off + String.length data);
    s.fd_offset <- off + String.length data;
    let* () = maybe_self_digest t ps in
    Ok (String.length data)
    end

let pwrite t fdn ~off data =
  let* ps, s = fd_of t fdn in
  if not s.fd_writable then Error E.EBADF
  else
    Sim.Mutex.with_lock ps.ps_lock @@ fun () ->
    begin
    let* () = ensure_lease t ps s.fd_path in
    log_append t ps ~bytes:(String.length data);
    let p = pending t ps s.fd_path in
    p.p_extents <- (off, data) :: p.p_extents;
    p.p_size <- max (max p.p_size 0) (off + String.length data);
    let* () = maybe_self_digest t ps in
    Ok (String.length data)
    end

(* Read = shared-area content overlaid with pending extents (LibFS checks
   its own log first). *)
let read_merged t ps path ~off buf boff len =
  (* LibFS extent-index search *)
  Sim.advance 400;
  let size = file_size t ps path in
  if off >= size then Ok 0
  else begin
    let len = min len (size - off) in
    (* base content from the shared area *)
    (match Engine.openf t.kernel path [ Ft.O_RDONLY ] 0 with
    | Ok fd ->
        ignore (Engine.pread t.kernel fd ~off buf boff len);
        ignore (Engine.close t.kernel fd)
    | Error _ -> Bytes.fill buf boff len '\000');
    (* overlay pending extents, oldest first *)
    (match Hashtbl.find_opt ps.ps_pending path with
    | Some p ->
        List.iter
          (fun (eoff, data) ->
            let elen = String.length data in
            let lo = max off eoff and hi = min (off + len) (eoff + elen) in
            if lo < hi then begin
              (* charged read of the log extent *)
              ignore (Nvm.Device.read_bytes t.dev ps.ps_log_base (min 4096 (hi - lo)));
              Bytes.blit_string data (lo - eoff) buf (boff + lo - off) (hi - lo)
            end)
          (List.rev p.p_extents)
    | None -> ());
    Ok len
  end

let read t fdn buf boff len =
  let* ps, s = fd_of t fdn in
  Sim.Mutex.with_lock ps.ps_lock @@ fun () ->
  let* () = ensure_lease t ps s.fd_path in
  let* n = read_merged t ps s.fd_path ~off:s.fd_offset buf boff len in
  s.fd_offset <- s.fd_offset + n;
  Ok n

let pread t fdn ~off buf boff len =
  let* ps, s = fd_of t fdn in
  Sim.Mutex.with_lock ps.ps_lock @@ fun () ->
  let* () = ensure_lease t ps s.fd_path in
  read_merged t ps s.fd_path ~off buf boff len

let close t fdn =
  let* ps, _ = fd_of t fdn in
  Hashtbl.remove ps.ps_fds fdn;
  Ok ()

let lseek t fdn pos whence =
  let* ps, s = fd_of t fdn in
  let target =
    match whence with
    | Ft.SEEK_SET -> pos
    | Ft.SEEK_CUR -> s.fd_offset + pos
    | Ft.SEEK_END -> file_size t ps s.fd_path + pos
  in
  if target < 0 then Error E.EINVAL
  else begin
    s.fd_offset <- target;
    Ok target
  end

let fsync t fdn =
  let* ps, _ = fd_of t fdn in
  (* log writes are already fenced; fsync is cheap *)
  ignore ps;
  Sim.advance 30;
  Ok ()

let fstat t fdn =
  let* ps, s = fd_of t fdn in
  match Engine.stat t.kernel s.fd_path with
  | Ok st -> Ok { st with Ft.st_size = file_size t ps s.fd_path }
  | Error _ ->
      if exists_now t ps s.fd_path then
        Ok
          {
            Ft.st_ino = 0;
            st_kind = Ft.Regular;
            st_mode = 0o644;
            st_uid = (Sim.self_proc ()).Sim.Proc.uid;
            st_gid = (Sim.self_proc ()).Sim.Proc.gid;
            st_size = file_size t ps s.fd_path;
            st_nlink = 1;
            st_atime = Sim.now ();
            st_mtime = Sim.now ();
            st_ctime = Sim.now ();
          }
      else Error E.EBADF

let mkdir t path mode =
  let ps = pstate t in
  Sim.Mutex.with_lock ps.ps_lock @@ fun () ->
  let path = Pathx.normalize path in
  let* () = ensure_lease t ps (Pathx.dirname path) in
  let* () = ensure_lease t ps path in
  if exists_now t ps path then Error E.EEXIST
  else if not (parent_exists t ps path) then Error E.ENOENT
  else begin
    log_append t ps ~bytes:64;
    log_append t ps ~bytes:64;
    let p = pending t ps path in
    p.p_created <- Some (Engine.kind_directory, mode);
    p.p_size <- 0;
    let* () = maybe_self_digest t ps in
    Ok ()
  end

let unlink t path =
  let ps = pstate t in
  Sim.Mutex.with_lock ps.ps_lock @@ fun () ->
  let path = Pathx.normalize path in
  let* () = ensure_lease t ps path in
  let* () = ensure_lease t ps (Pathx.dirname path) in
  if not (exists_now t ps path) then Error E.ENOENT
  else begin
    log_append t ps ~bytes:64;
    let p = pending t ps path in
    p.p_unlinked <- true;
    p.p_created <- None;
    p.p_extents <- [];
    p.p_size <- -1;
    let* () = maybe_self_digest t ps in
    Ok ()
  end

let stat t path =
  let ps = pstate t in
  let path = Pathx.normalize path in
  match Hashtbl.find_opt ps.ps_pending path with
  | Some p when p.p_unlinked -> Error E.ENOENT
  | Some p when p.p_created <> None ->
      let kind, mode = Option.get p.p_created in
      Ok
        {
          Ft.st_ino = 0;
          st_kind =
            (if kind = Engine.kind_directory then Ft.Directory else Ft.Regular);
          st_mode = mode;
          st_uid = (Sim.self_proc ()).Sim.Proc.uid;
          st_gid = (Sim.self_proc ()).Sim.Proc.gid;
          st_size = max 0 p.p_size;
          st_nlink = 1;
          st_atime = Sim.now ();
          st_mtime = Sim.now ();
          st_ctime = Sim.now ();
        }
  | _ -> (
      match Engine.stat t.kernel path with
      | Ok st -> Ok { st with Ft.st_size = file_size t ps path }
      | Error e -> Error e)

let lstat = stat

(* Operations without a LibFS fast path: digest, then shared area. *)
let rmdir t path =
  let ps = pstate t in
  slow_path t ps (fun () -> Engine.rmdir t.kernel path)

let rename t a b =
  let ps = pstate t in
  slow_path t ps (fun () -> Engine.rename t.kernel a b)

let readdir t path =
  let ps = pstate t in
  slow_path t ps (fun () -> Engine.readdir t.kernel path)

let chmod t path mode =
  let ps = pstate t in
  slow_path t ps (fun () -> Engine.chmod t.kernel path mode)

let chown t path uid gid =
  let ps = pstate t in
  slow_path t ps (fun () -> Engine.chown t.kernel path uid gid)

let symlink t ~target ~link =
  let ps = pstate t in
  slow_path t ps (fun () -> Engine.symlink t.kernel ~target ~link)

let readlink t path =
  let ps = pstate t in
  slow_path t ps (fun () -> Engine.readlink t.kernel path)

let truncate t path len =
  let ps = pstate t in
  slow_path t ps (fun () -> Engine.truncate t.kernel path len)

let ftruncate t fdn len =
  let* ps, s = fd_of t fdn in
  slow_path t ps (fun () -> Engine.truncate t.kernel s.fd_path len)

let digest_count t = t.digests
