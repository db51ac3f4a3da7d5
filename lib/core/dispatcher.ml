(* FSLibs: the user-space half of Treasury (paper §4.2).

   One dispatcher instance per process, serving the one µFS registered with
   it.  It intercepts the file-system calls of the application (here: the
   Vfs.S interface), translates user FDs through the FD mapping table,
   resolves paths against the current working directory, follows symbolic
   links by re-dispatching the expanded path, and converts any fault raised
   while the µFS walks possibly-corrupted coffers into a graceful EIO (the
   sigsetjmp/siglongjmp trick of §3.4.2). *)

type ufs = U : (module Ufs_intf.S with type t = 'a) * 'a -> ufs

type t = {
  kfs : Kernfs.t;
  mutable cwd : string;
  fds : Fd_table.t;
  mutable ufs : ufs option;  (* a call that reaches it is ENOSYS until set *)
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

let create kfs =
  (match Kernfs.fs_mount kfs with
  | Ok () | Error Errno.EEXIST -> ()
  | Error e -> failwith ("Dispatcher.create: fs_mount: " ^ Errno.to_string e));
  {
    kfs;
    cwd = "/";
    fds = Fd_table.create ();
    ufs = None;
    graceful_errors = 0;
    repair = None;
    admission = None;
  }

let register_ufs t (type a) (module F : Ufs_intf.S with type t = a) (inst : a) =
  t.ufs <- Some (U ((module F), inst))

let shutdown t = ignore (Kernfs.fs_umount t.kfs)
let graceful_error_count t = t.graceful_errors

let the_ufs t = match t.ufs with Some u -> Ok u | None -> Error Errno.ENOSYS

(* Every path reaches the µFS absolute and normalized. *)
let resolve t path = Pathx.concat t.cwd path

(* ---- admission control (serving plane) ---------------------------------- *)

let set_admission t f = t.admission <- Some f

(* Consulted at the head of every dispatched operation.  A refusal is
   counted per-tenant so shed traffic is always observable.  A request
   whose end-to-end budget is already gone is refused before any µFS work:
   this is the cheapest safe-to-abort point there is. *)
let count_for_tenant name =
  Obs.cnt_l name
    (Obs.Labels.v [ ("tenant", string_of_int (Obs.current_tenant ())) ])
    1

let admit t ~op =
  if op <> "close" && Deadline.expired () then begin
    (* close is exempt: refusing resource release on an expired budget
       would leak the descriptor — the op a timed-out request MUST still
       be allowed to finish its cleanup with. *)
    count_for_tenant "dispatch.deadline_expired";
    Error Errno.ETIMEDOUT
  end
  else
    match t.admission with
    | None -> Ok ()
    | Some f ->
        let r = f ~op in
        if Result.is_error r then count_for_tenant "dispatch.refused";
        r

(* ---- fault handling and online self-healing (graceful error return) ----- *)

let set_repair t f = t.repair <- Some f

let max_op_retries = 3 (* re-runs of a faulted op after a successful repair *)
let max_repair_attempts = 3 (* scoped-fsck attempts per fault *)
let repair_backoff = 10_000 (* ns; doubled per attempt, capped below *)
let max_repair_backoff = 200_000

(* After a repair rewrote coffer structures, the µFS must drop its cached
   session state for that coffer so stale addresses are re-walked. *)
let invalidate t cid =
  match t.ufs with
  | Some (U ((module F), u)) -> F.invalidate_coffer u cid
  | None -> ()

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
          invalidate t cid;
          false
      | Kernfs.Healthy | Kernfs.Suspect ->
          Kernfs.set_coffer_health t.kfs cid Kernfs.Suspect;
          if attempt_repair t cid then begin
            Obs.cnt "health.repairs_ok" 1;
            invalidate t cid;
            Kernfs.set_coffer_health t.kfs cid Kernfs.Healthy;
            true
          end
          else begin
            Obs.cnt "health.repairs_failed" 1;
            if Kernfs.quarantine_enabled t.kfs then begin
              Kernfs.set_coffer_health t.kfs cid Kernfs.Quarantined;
              invalidate t cid
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
        count_for_tenant "dispatch.deadline_expired";
        Error (wrap Errno.ETIMEDOUT)
  in
  run 0

let protect t f = protect_gen t (fun e -> Ufs_intf.Errno e) f
let protect_fd t f = protect_gen t (fun e -> e) f

let max_symlink_depth = 40

(* Dispatch a path operation, following symlink redirects. *)
let rec dispatch_path t path ~depth f =
  if depth > max_symlink_depth then Error Errno.ELOOP
  else
    let* u = the_ufs t in
    let p = resolve t path in
    match protect t (fun () -> f u p) with
    | Ok v -> Ok v
    | Error (Ufs_intf.Errno e) -> Error e
    | Error (Ufs_intf.Symlink target) ->
        dispatch_path t target ~depth:(depth + 1) f

(* The head every path call shares: the syscall span, admission, then the
   dispatch. *)
let path_call t ~op path f =
  Obs.with_syscall op @@ fun () ->
  let* () = admit t ~op in
  dispatch_path t path ~depth:0 f

(* ---- Vfs.S implementation ---------------------------------------------- *)

(* The dispatcher is a Vfs.S: [as_vfs] packs it. *)
module As_vfs = struct
  type nonrec t = t

  let name _ = "zofs-fslibs"

  let openf t path flags mode =
    Obs.with_syscall "open" @@ fun () ->
    (* creating opens are write-class for the serving plane's tier gate *)
    let* () =
      admit t ~op:(if List.mem Fs_types.O_CREAT flags then "creat" else "open")
    in
    let* handle =
      dispatch_path t path ~depth:0 (fun (U ((module F), u)) p ->
          F.openf u p flags mode)
    in
    let append = Fs_types.flag_mem Fs_types.O_APPEND flags in
    Ok (Fd_table.alloc t.fds ~append handle)

  let mkdir t path mode =
    path_call t ~op:"mkdir" path (fun (U ((module F), u)) p -> F.mkdir u p mode)

  let rmdir t path =
    path_call t ~op:"rmdir" path (fun (U ((module F), u)) p -> F.rmdir u p)

  let unlink t path =
    path_call t ~op:"unlink" path (fun (U ((module F), u)) p -> F.unlink u p)

  let stat t path =
    path_call t ~op:"stat" path (fun (U ((module F), u)) p -> F.stat u p)

  let lstat t path =
    path_call t ~op:"lstat" path (fun (U ((module F), u)) p -> F.lstat u p)

  let readdir t path =
    path_call t ~op:"readdir" path (fun (U ((module F), u)) p -> F.readdir u p)

  let chmod t path mode =
    path_call t ~op:"chmod" path (fun (U ((module F), u)) p -> F.chmod u p mode)

  let chown t path uid gid =
    path_call t ~op:"chown" path (fun (U ((module F), u)) p ->
        F.chown u p uid gid)

  let readlink t path =
    path_call t ~op:"readlink" path (fun (U ((module F), u)) p ->
        F.readlink u p)

  let symlink t ~target ~link =
    path_call t ~op:"symlink" link (fun (U ((module F), u)) p ->
        F.symlink u ~target ~link:p)

  let rename t src dst =
    path_call t ~op:"rename" src (fun (U ((module F), u)) p ->
        F.rename u p (resolve t dst))

  let truncate t path len =
    Obs.with_syscall "truncate" @@ fun () ->
    let* () = admit t ~op:"truncate" in
    let* fd = openf t path [ Fs_types.O_WRONLY ] 0 in
    let r =
      let* ofd = Fd_table.lookup t.fds fd in
      let* (U ((module F), u)) = the_ufs t in
      let r = protect_fd t (fun () -> F.ftruncate u ofd.Fd_table.handle len) in
      ignore (F.close u ofd.Fd_table.handle);
      r
    in
    ignore (Fd_table.close t.fds fd);
    r

  (* ---- descriptor operations --------------------------------------------- *)

  (* The head every descriptor call shares: the syscall span, admission, the
     FD lookup, then the µFS call under fault protection. *)
  let fd_call t ~op fd f =
    Obs.with_syscall op @@ fun () ->
    let* () = admit t ~op in
    let* ofd = Fd_table.lookup t.fds fd in
    let* u = the_ufs t in
    protect_fd t (fun () -> f u ofd)

  let close t fd =
    Obs.with_syscall "close" @@ fun () ->
    let* () = admit t ~op:"close" in
    let* closed = Fd_table.close t.fds fd in
    match closed with
    | None -> Ok ()
    | Some handle ->
        let* (U ((module F), u)) = the_ufs t in
        protect_fd t (fun () -> F.close u handle)

  let read t fd buf boff len =
    fd_call t ~op:"read" fd (fun (U ((module F), u)) ofd ->
        let* n = F.read u ofd.Fd_table.handle ~off:ofd.offset buf boff len in
        ofd.offset <- ofd.offset + n;
        Ok n)

  let pread t fd ~off buf boff len =
    fd_call t ~op:"pread" fd (fun (U ((module F), u)) ofd ->
        F.read u ofd.Fd_table.handle ~off buf boff len)

  let write t fd data =
    fd_call t ~op:"write" fd (fun (U ((module F), u)) ofd ->
        let off = if ofd.Fd_table.append then `Append else `At ofd.offset in
        let* n, end_off = F.write u ofd.handle ~off data in
        ofd.offset <- end_off;
        Ok n)

  let pwrite t fd ~off data =
    fd_call t ~op:"pwrite" fd (fun (U ((module F), u)) ofd ->
        let* n, _ = F.write u ofd.Fd_table.handle ~off:(`At off) data in
        Ok n)

  let fstat t fd =
    fd_call t ~op:"fstat" fd (fun (U ((module F), u)) ofd ->
        F.fstat u ofd.Fd_table.handle)

  let fsync t fd =
    fd_call t ~op:"fsync" fd (fun (U ((module F), u)) ofd ->
        F.fsync u ofd.Fd_table.handle)

  let ftruncate t fd len =
    fd_call t ~op:"ftruncate" fd (fun (U ((module F), u)) ofd ->
        F.ftruncate u ofd.Fd_table.handle len)

  let lseek t fd pos whence =
    Obs.with_syscall "lseek" @@ fun () ->
    let* ofd = Fd_table.lookup t.fds fd in
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
    end
end

(* ---- process-level calls ------------------------------------------------ *)

let chdir t path =
  Obs.with_syscall "chdir" @@ fun () ->
  let abs = resolve t path in
  let* st = As_vfs.stat t abs in
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
  (match (displaced, t.ufs) with
  | Some handle, Some (U ((module F), u)) -> ignore (F.close u handle)
  | _ -> ());
  Ok nfd

let as_vfs t = Vfs.Fs ((module As_vfs), t)
