(* FSLibs: the user-space half of Treasury (paper §4.2).

   One dispatcher instance per process.  It intercepts the file-system calls
   of the application (here: the Vfs.S interface), translates user FDs
   through the FD mapping table, tracks the current working directory,
   routes each request to the µFS in charge, follows symbolic links by
   re-dispatching the expanded path, and converts any fault raised while a
   µFS walks possibly-corrupted coffers into a graceful EIO (the
   sigsetjmp/siglongjmp trick of §3.4.2). *)

type ufs = U : (module Ufs_intf.S with type t = 'a) * 'a -> ufs

type t = {
  kfs : Kernfs.t;
  mount_path : string;
  mutable cwd : string;
  fds : Fd_table.t;
  ufss : (int, ufs) Hashtbl.t;  (* ctype -> µFS *)
  mutable default_ctype : int;
  kernel_fs : Vfs.fs option;  (* handles paths outside the mount, if any *)
  mutable graceful_errors : int;  (* faults converted into errno (§6.5) *)
  mutable repair : (int -> bool) option;
      (* online scoped fsck for one coffer (wired by the embedder; e.g.
         Zofs.Recovery.recover_one).  Returns true when the coffer was made
         consistent again. *)
  mutable admission : (op:string -> (unit, Errno.t) result) option;
      (* serving-plane admission hook (wired by lib/serve): consulted at the
         head of every dispatched operation, BEFORE any µFS work, so a
         degraded or over-quota tenant is refused without touching NVM.
         [op] is the syscall name; the hook returns the errno to surface
         (typically EAGAIN for backpressure, EIO for a rejecting tier). *)
}

let ( let* ) = Result.bind

let create ?(mount_path = "/") ?kernel_fs kfs =
  (match Kernfs.fs_mount kfs with
  | Ok () | Error Errno.EEXIST -> ()
  | Error e -> failwith ("Dispatcher.create: fs_mount: " ^ Errno.to_string e));
  {
    kfs;
    mount_path = Pathx.normalize mount_path;
    cwd = "/";
    fds = Fd_table.create ();
    ufss = Hashtbl.create 4;
    default_ctype = -1;
    kernel_fs;
    graceful_errors = 0;
    repair = None;
    admission = None;
  }

let register_ufs t (type a) (module F : Ufs_intf.S with type t = a) (inst : a) =
  Hashtbl.replace t.ufss F.ctype (U ((module F), inst));
  if t.default_ctype = -1 then t.default_ctype <- F.ctype

let shutdown t = ignore (Kernfs.fs_umount t.kfs)

let kernfs t = t.kfs
let graceful_error_count t = t.graceful_errors

(* ---- path routing ------------------------------------------------------ *)

type route =
  | To_ufs of string (* path inside the mount, mount prefix stripped *)
  | To_kernel of string

let resolve_user_path t path =
  let abs = if Pathx.is_absolute path then Pathx.normalize path else Pathx.concat t.cwd path in
  if Pathx.is_prefix ~prefix:t.mount_path abs then
    To_ufs (Pathx.strip_prefix ~prefix:t.mount_path abs)
  else To_kernel abs

let ufs_for t _path =
  (* With several µFSs the coffer type of the longest matching prefix would
     pick the library; with one registered µFS it handles the whole mount. *)
  match Hashtbl.find_opt t.ufss t.default_ctype with
  | Some u -> Ok u
  | None -> Error Errno.ENOSYS

(* ---- admission control (serving plane) ---------------------------------- *)

let set_admission t f = t.admission <- Some f
let clear_admission t = t.admission <- None

(* Consulted at the head of every dispatched operation.  A refusal is
   counted per-tenant so shed traffic is always observable.  A request
   whose end-to-end budget is already gone is refused before any µFS work:
   this is the cheapest safe-to-abort point there is. *)
let admit t ~op =
  if op <> "close" && Deadline.expired () then begin
    (* close is exempt: refusing resource release on an expired budget
       would leak the descriptor — the op a timed-out request MUST still
       be allowed to finish its cleanup with. *)
    Obs.cnt_l "dispatch.deadline_expired"
      (Obs.Labels.v [ ("tenant", string_of_int (Obs.current_tenant ())) ])
      1;
    Error Errno.ETIMEDOUT
  end
  else
    match t.admission with
  | None -> Ok ()
  | Some f -> (
      match f ~op with
      | Ok () -> Ok ()
      | Error e ->
          Obs.cnt_l "dispatch.refused"
            (Obs.Labels.v
               [ ("tenant", string_of_int (Obs.current_tenant ())) ])
            1;
          Error e)

(* ---- fault handling and online self-healing (graceful error return) ----- *)

let set_repair t f = t.repair <- Some f

let max_op_retries = 3 (* re-runs of a faulted op after a successful repair *)
let max_repair_attempts = 3 (* scoped-fsck attempts per fault *)
let repair_backoff = 10_000 (* ns; doubled per attempt, capped below *)
let max_repair_backoff = 200_000

(* After a repair rewrote coffer structures, every µFS must drop its cached
   session state for that coffer so stale addresses are re-walked. *)
let invalidate_everywhere t cid =
  Hashtbl.iter (fun _ (U ((module F), u)) -> F.invalidate_coffer u cid) t.ufss

(* Attribute a faulting NVM address to the coffer owning its page; metadata
   regions and free pages have no coffer to quarantine. *)
let owner_of_addr t addr =
  match Kernfs.page_owner t.kfs ~page:(addr / Nvm.page_size) with
  | Ok cid when cid > Kernfs.cid_pathmap -> Some cid
  | Ok _ | Error _ -> None

let attempt_repair t cid =
  match t.repair with
  | None -> false
  | Some f ->
      let rec go attempt =
        if attempt >= max_repair_attempts then false
        else begin
          Obs.cnt "health.repair_attempts" 1;
          let ok =
            (* The repairing thread holds the kernel recovery lease; dying
               mid-fsck would wedge the coffer in-recovery, so repairs run
               with death masked (the countdown resumes afterwards). *)
            Sim.with_no_kill (fun () ->
                try f cid
                with Nvm.Fault _ | Ufs_intf.Zofs_corrupt _ -> false)
          in
          if ok then true
          else begin
            Sim.advance (min (repair_backoff lsl attempt) max_repair_backoff);
            go (attempt + 1)
          end
        end
      in
      go 0

(* A media fault escaped a µFS operation: mark the owning coffer suspect,
   run the online scoped fsck (other coffers keep serving — the fault domain
   is one coffer), and either return it to service or quarantine it after
   repeated failure.  Returns true when the faulted operation should be
   retried. *)
let handle_media_fault t addr =
  match owner_of_addr t addr with
  | None -> false
  | Some cid -> (
      match Kernfs.coffer_health t.kfs cid with
      | Kernfs.Offline -> false
      | Kernfs.Quarantined ->
          (* Still faulting on the read-only path: take it fully offline. *)
          Kernfs.set_coffer_health t.kfs cid Kernfs.Offline;
          invalidate_everywhere t cid;
          false
      | Kernfs.Healthy | Kernfs.Suspect ->
          Kernfs.set_coffer_health t.kfs cid Kernfs.Suspect;
          if attempt_repair t cid then begin
            Obs.cnt "health.repairs_ok" 1;
            invalidate_everywhere t cid;
            Kernfs.set_coffer_health t.kfs cid Kernfs.Healthy;
            true
          end
          else begin
            Obs.cnt "health.repairs_failed" 1;
            if Kernfs.quarantine_enabled t.kfs then begin
              Kernfs.set_coffer_health t.kfs cid Kernfs.Quarantined;
              invalidate_everywhere t cid
            end;
            false
          end)

(* Convert faults and detected corruption into errno (graceful error
   return): the simulated SIGSEGV handler + siglongjmp of §3.4.2.  The catch
   is deliberately narrow — NVM faults, [Zofs_corrupt] validity-check
   failures and [Coffer_unavailable] health rejections; a genuine
   programming bug ([Failure], [Invalid_argument], ...) escapes loudly
   instead of masquerading as EIO. *)

let graceful t =
  t.graceful_errors <- t.graceful_errors + 1;
  Obs.cnt_coffer "fault.graceful_errors" 1

let protect_gen t wrap f =
  let rec run retries =
    match f () with
    | v -> v
    | exception Nvm.Fault { addr; kind = Nvm.Media; _ } ->
        if retries < max_op_retries && handle_media_fault t addr then begin
          Obs.cnt "retry.fault" 1;
          run (retries + 1)
        end
        else begin
          graceful t;
          Error (wrap Errno.EIO)
        end
    | exception (Nvm.Fault _ | Ufs_intf.Zofs_corrupt _) ->
        graceful t;
        Error (wrap Errno.EIO)
    | exception Ufs_intf.Coffer_unavailable _ ->
        (* The coffer is already known-bad: EIO without another repair. *)
        graceful t;
        Error (wrap Errno.EIO)
    | exception Deadline.Expired _ ->
        (* The request's end-to-end budget ran out at a safe-to-abort point
           (lease wait, kernel-retry backoff).  Not a fault: the µFS state
           is exactly as a crash at that point would leave it — any pending
           intention record is repaired by the next lease holder. *)
        Obs.cnt_l "dispatch.deadline_expired"
          (Obs.Labels.v [ ("tenant", string_of_int (Obs.current_tenant ())) ])
          1;
        Error (wrap Errno.ETIMEDOUT)
  in
  run 0

let protect t f = protect_gen t (fun e -> Ufs_intf.Errno e) f
let protect_fd t f = protect_gen t (fun e -> e) f

let max_symlink_depth = 40

(* Dispatch a path operation, following symlink redirects. *)
let rec dispatch_path :
    'a.
    t ->
    string ->
    depth:int ->
    on_ufs:(ufs -> string -> 'a Ufs_intf.outcome) ->
    on_kernel:(Vfs.fs -> string -> ('a, Errno.t) result) ->
    ('a, Errno.t) result =
 fun t path ~depth ~on_ufs ~on_kernel ->
  if depth > max_symlink_depth then Error Errno.ELOOP
  else
    match resolve_user_path t path with
    | To_kernel p -> (
        match t.kernel_fs with
        | Some fs -> on_kernel fs p
        | None -> Error Errno.ENOENT)
    | To_ufs p -> (
        let* u = ufs_for t p in
        match protect t (fun () -> on_ufs u p) with
        | Ok v -> Ok v
        | Error (Ufs_intf.Errno e) -> Error e
        | Error (Ufs_intf.Symlink target) ->
            (* Re-dispatch the expanded path (which is FS-internal). *)
            let user_path =
              if t.mount_path = "/" then target
              else if Pathx.is_absolute target then t.mount_path ^ target
              else target
            in
            dispatch_path t user_path ~depth:(depth + 1) ~on_ufs ~on_kernel)

(* ---- Vfs.S implementation ---------------------------------------------- *)

let name _ = "zofs-fslibs"

let openf t path flags mode =
  Obs.with_syscall "open" @@ fun () ->
  (* creating opens are write-class for the serving plane's tier gate *)
  let* () =
    admit t ~op:(if List.mem Fs_types.O_CREAT flags then "creat" else "open")
  in
  let* fd_target =
    dispatch_path t path ~depth:0
      ~on_ufs:(fun (U ((module F), u)) p ->
        match F.openf u p flags mode with
        | Ok h -> Ok (Fd_table.Ufs { ctype = F.ctype; handle = h })
        | Error e -> Error e)
      ~on_kernel:(fun fs p ->
        match Vfs.openf fs p flags mode with
        | Ok kfd -> Ok (Fd_table.Kernel kfd)
        | Error e -> Error e)
  in
  let append = Fs_types.flag_mem Fs_types.O_APPEND flags in
  Ok (Fd_table.alloc t.fds ~append fd_target)

let mkdir t path mode =
  Obs.with_syscall "mkdir" @@ fun () ->
  let* () = admit t ~op:"mkdir" in
  dispatch_path t path ~depth:0
    ~on_ufs:(fun (U ((module F), u)) p -> F.mkdir u p mode)
    ~on_kernel:(fun fs p -> Vfs.mkdir fs p mode)

let rmdir t path =
  Obs.with_syscall "rmdir" @@ fun () ->
  let* () = admit t ~op:"rmdir" in
  dispatch_path t path ~depth:0
    ~on_ufs:(fun (U ((module F), u)) p -> F.rmdir u p)
    ~on_kernel:(fun fs p -> Vfs.rmdir fs p)

let unlink t path =
  Obs.with_syscall "unlink" @@ fun () ->
  let* () = admit t ~op:"unlink" in
  dispatch_path t path ~depth:0
    ~on_ufs:(fun (U ((module F), u)) p -> F.unlink u p)
    ~on_kernel:(fun fs p -> Vfs.unlink fs p)

let stat t path =
  Obs.with_syscall "stat" @@ fun () ->
  let* () = admit t ~op:"stat" in
  dispatch_path t path ~depth:0
    ~on_ufs:(fun (U ((module F), u)) p -> F.stat u p)
    ~on_kernel:(fun fs p -> Vfs.stat fs p)

let lstat t path =
  Obs.with_syscall "lstat" @@ fun () ->
  let* () = admit t ~op:"lstat" in
  dispatch_path t path ~depth:0
    ~on_ufs:(fun (U ((module F), u)) p -> F.lstat u p)
    ~on_kernel:(fun fs p -> Vfs.lstat fs p)

let readdir t path =
  Obs.with_syscall "readdir" @@ fun () ->
  let* () = admit t ~op:"readdir" in
  dispatch_path t path ~depth:0
    ~on_ufs:(fun (U ((module F), u)) p -> F.readdir u p)
    ~on_kernel:(fun fs p -> Vfs.readdir fs p)

let chmod t path mode =
  Obs.with_syscall "chmod" @@ fun () ->
  let* () = admit t ~op:"chmod" in
  dispatch_path t path ~depth:0
    ~on_ufs:(fun (U ((module F), u)) p -> F.chmod u p mode)
    ~on_kernel:(fun fs p -> Vfs.chmod fs p mode)

let chown t path uid gid =
  Obs.with_syscall "chown" @@ fun () ->
  let* () = admit t ~op:"chown" in
  dispatch_path t path ~depth:0
    ~on_ufs:(fun (U ((module F), u)) p -> F.chown u p uid gid)
    ~on_kernel:(fun fs p -> Vfs.chown fs p uid gid)

let readlink t path =
  Obs.with_syscall "readlink" @@ fun () ->
  let* () = admit t ~op:"readlink" in
  dispatch_path t path ~depth:0
    ~on_ufs:(fun (U ((module F), u)) p -> F.readlink u p)
    ~on_kernel:(fun fs p -> Vfs.readlink fs p)

let symlink t ~target ~link =
  Obs.with_syscall "symlink" @@ fun () ->
  let* () = admit t ~op:"symlink" in
  dispatch_path t link ~depth:0
    ~on_ufs:(fun (U ((module F), u)) p -> F.symlink u ~target ~link:p)
    ~on_kernel:(fun fs p -> Vfs.symlink fs ~target ~link:p)

let rename t src dst =
  Obs.with_syscall "rename" @@ fun () ->
  let* () = admit t ~op:"rename" in
  (* Both paths must land in the same file system. *)
  match (resolve_user_path t src, resolve_user_path t dst) with
  | To_kernel a, To_kernel b -> (
      match t.kernel_fs with
      | Some fs -> Vfs.rename fs a b
      | None -> Error Errno.ENOENT)
  | To_ufs _, To_ufs _ ->
      dispatch_path t src ~depth:0
        ~on_ufs:(fun (U ((module F), u)) p ->
          match resolve_user_path t dst with
          | To_ufs q -> F.rename u p q
          | To_kernel _ -> Ufs_intf.errno Errno.EXDEV)
        ~on_kernel:(fun _ _ -> Error Errno.EXDEV)
  | _ -> Error Errno.EXDEV

let truncate t path len =
  Obs.with_syscall "truncate" @@ fun () ->
  let* () = admit t ~op:"truncate" in
  let* fd = openf t path [ Fs_types.O_WRONLY ] 0 in
  let finish r =
    match Fd_table.close t.fds fd with
    | Ok _ | Error _ -> r
  in
  finish
    (match Fd_table.lookup t.fds fd with
    | Error e -> Error e
    | Ok ofd -> (
        match ofd.Fd_table.target with
        | Fd_table.Ufs { ctype; handle } -> (
            match Hashtbl.find_opt t.ufss ctype with
            | Some (U ((module F), u)) ->
                let r = protect_fd t (fun () -> F.ftruncate u handle len) in
                ignore (F.close u handle);
                r
            | None -> Error Errno.ENOSYS)
        | Fd_table.Kernel kfd -> (
            match t.kernel_fs with
            | Some fs ->
                let r = Vfs.ftruncate fs kfd len in
                ignore (Vfs.close fs kfd);
                r
            | None -> Error Errno.EBADF)))

(* ---- descriptor operations --------------------------------------------- *)

let with_ofd t fd f =
  let* ofd = Fd_table.lookup t.fds fd in
  f ofd

let ufs_of_ctype t ctype =
  match Hashtbl.find_opt t.ufss ctype with
  | Some u -> Ok u
  | None -> Error Errno.ENOSYS

let close t fd =
  Obs.with_syscall "close" @@ fun () ->
  let* () = admit t ~op:"close" in
  let* closed = Fd_table.close t.fds fd in
  match closed with
  | None -> Ok ()
  | Some (Fd_table.Ufs { ctype; handle }) ->
      let* (U ((module F), u)) = ufs_of_ctype t ctype in
      protect_fd t (fun () -> F.close u handle)
  | Some (Fd_table.Kernel kfd) -> (
      match t.kernel_fs with
      | Some fs -> Vfs.close fs kfd
      | None -> Error Errno.EBADF)

let read t fd buf boff len =
  Obs.with_syscall "read" @@ fun () ->
  let* () = admit t ~op:"read" in
  with_ofd t fd (fun ofd ->
      match ofd.Fd_table.target with
      | Fd_table.Ufs { ctype; handle } ->
          let* (U ((module F), u)) = ufs_of_ctype t ctype in
          let* n =
            protect_fd t (fun () ->
                F.read u handle ~off:ofd.Fd_table.offset buf boff len)
          in
          ofd.Fd_table.offset <- ofd.Fd_table.offset + n;
          Ok n
      | Fd_table.Kernel kfd -> (
          match t.kernel_fs with
          | Some fs -> Vfs.read fs kfd buf boff len
          | None -> Error Errno.EBADF))

let pread t fd ~off buf boff len =
  Obs.with_syscall "pread" @@ fun () ->
  let* () = admit t ~op:"pread" in
  with_ofd t fd (fun ofd ->
      match ofd.Fd_table.target with
      | Fd_table.Ufs { ctype; handle } ->
          let* (U ((module F), u)) = ufs_of_ctype t ctype in
          protect_fd t (fun () -> F.read u handle ~off buf boff len)
      | Fd_table.Kernel kfd -> (
          match t.kernel_fs with
          | Some fs -> Vfs.pread fs kfd ~off buf boff len
          | None -> Error Errno.EBADF))

let write t fd data =
  Obs.with_syscall "write" @@ fun () ->
  let* () = admit t ~op:"write" in
  with_ofd t fd (fun ofd ->
      match ofd.Fd_table.target with
      | Fd_table.Ufs { ctype; handle } ->
          let* (U ((module F), u)) = ufs_of_ctype t ctype in
          let off =
            if ofd.Fd_table.append then `Append else `At ofd.Fd_table.offset
          in
          let* n, end_off = protect_fd t (fun () -> F.write u handle ~off data) in
          ofd.Fd_table.offset <- end_off;
          Ok n
      | Fd_table.Kernel kfd -> (
          match t.kernel_fs with
          | Some fs -> Vfs.write fs kfd data
          | None -> Error Errno.EBADF))

let pwrite t fd ~off data =
  Obs.with_syscall "pwrite" @@ fun () ->
  let* () = admit t ~op:"pwrite" in
  with_ofd t fd (fun ofd ->
      match ofd.Fd_table.target with
      | Fd_table.Ufs { ctype; handle } ->
          let* (U ((module F), u)) = ufs_of_ctype t ctype in
          let* n, _ = protect_fd t (fun () -> F.write u handle ~off:(`At off) data) in
          Ok n
      | Fd_table.Kernel kfd -> (
          match t.kernel_fs with
          | Some fs -> Vfs.pwrite fs kfd ~off data
          | None -> Error Errno.EBADF))

let fstat t fd =
  Obs.with_syscall "fstat" @@ fun () ->
  let* () = admit t ~op:"fstat" in
  with_ofd t fd (fun ofd ->
      match ofd.Fd_table.target with
      | Fd_table.Ufs { ctype; handle } ->
          let* (U ((module F), u)) = ufs_of_ctype t ctype in
          protect_fd t (fun () -> F.fstat u handle)
      | Fd_table.Kernel kfd -> (
          match t.kernel_fs with
          | Some fs -> Vfs.fstat fs kfd
          | None -> Error Errno.EBADF))

let fsync t fd =
  Obs.with_syscall "fsync" @@ fun () ->
  let* () = admit t ~op:"fsync" in
  with_ofd t fd (fun ofd ->
      match ofd.Fd_table.target with
      | Fd_table.Ufs { ctype; handle } ->
          let* (U ((module F), u)) = ufs_of_ctype t ctype in
          protect_fd t (fun () -> F.fsync u handle)
      | Fd_table.Kernel kfd -> (
          match t.kernel_fs with
          | Some fs -> Vfs.fsync fs kfd
          | None -> Error Errno.EBADF))

let ftruncate t fd len =
  Obs.with_syscall "ftruncate" @@ fun () ->
  let* () = admit t ~op:"ftruncate" in
  with_ofd t fd (fun ofd ->
      match ofd.Fd_table.target with
      | Fd_table.Ufs { ctype; handle } ->
          let* (U ((module F), u)) = ufs_of_ctype t ctype in
          protect_fd t (fun () -> F.ftruncate u handle len)
      | Fd_table.Kernel kfd -> (
          match t.kernel_fs with
          | Some fs -> Vfs.ftruncate fs kfd len
          | None -> Error Errno.EBADF))

let lseek t fd pos whence =
  Obs.with_syscall "lseek" @@ fun () ->
  with_ofd t fd (fun ofd ->
      let* size =
        match whence with
        | Fs_types.SEEK_END ->
            let* st = fstat t fd in
            Ok st.Fs_types.st_size
        | _ -> Ok 0
      in
      let target =
        match whence with
        | Fs_types.SEEK_SET -> pos
        | Fs_types.SEEK_CUR -> ofd.Fd_table.offset + pos
        | Fs_types.SEEK_END -> size + pos
      in
      if target < 0 then Error Errno.EINVAL
      else begin
        ofd.Fd_table.offset <- target;
        Ok target
      end)

(* ---- process-level calls ------------------------------------------------ *)

let chdir t path =
  Obs.with_syscall "chdir" @@ fun () ->
  let abs = if Pathx.is_absolute path then Pathx.normalize path else Pathx.concat t.cwd path in
  let* st = stat t abs in
  if st.Fs_types.st_kind = Fs_types.Directory then begin
    t.cwd <- abs;
    Ok ()
  end
  else Error Errno.ENOTDIR

let getcwd t = t.cwd
let dup t fd = Obs.with_syscall "dup" @@ fun () -> Fd_table.dup t.fds fd

let dup2 t fd nfd =
  Obs.with_syscall "dup2" @@ fun () ->
  let* nfd, displaced = Fd_table.dup2 t.fds fd nfd in
  (match displaced with
  | Some (Fd_table.Ufs { ctype; handle }) -> (
      match ufs_of_ctype t ctype with
      | Ok (U ((module F), u)) -> ignore (F.close u handle)
      | Error _ -> ())
  | Some (Fd_table.Kernel kfd) -> (
      match t.kernel_fs with Some fs -> ignore (Vfs.close fs kfd) | None -> ())
  | None -> ());
  Ok nfd

(* The FD table serialized for exec (passed via an environment variable in
   the paper). *)
let serialize_fds t = Fd_table.serialize t.fds

let fd_table t = t.fds

(* Pack a dispatcher as a Vfs.fs. *)
module As_vfs = struct
  type nonrec t = t

  let name = name
  let openf = openf
  let mkdir = mkdir
  let rmdir = rmdir
  let unlink = unlink
  let rename = rename
  let stat = stat
  let lstat = lstat
  let readdir = readdir
  let chmod = chmod
  let chown = chown
  let symlink = symlink
  let readlink = readlink
  let truncate = truncate
  let close = close
  let read = read
  let pread = pread
  let write = write
  let pwrite = pwrite
  let lseek = lseek
  let fsync = fsync
  let fstat = fstat
  let ftruncate = ftruncate
end

let as_vfs t = Vfs.Fs ((module As_vfs), t)
