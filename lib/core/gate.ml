(* The user/kernel boundary.  Every kernel entry charges the syscall cost
   and pollutes the calling thread's simulated line cache (the context-switch
   and cache-pollution penalty the paper attributes kernel file systems'
   slowness to, §6.1).  A system call's body then runs in kernel mode with a
   CR0.WP write window open (kernel FS code is trusted to write NVM); a
   demand fault's runs in kernel mode without one. *)

let enter_cost = 250 (* ns: trap + switch in *)
let exit_cost = 150 (* ns: return to user *)

type t = {
  mpk : Mpk.t;
  dev : Nvm.Device.t;
  mutable syscalls : int;
  mutable faults : int;  (* demand faults on pending PTEs *)
  in_kernel : int ref Sim.Idtbl.t;
      (* tid -> simulated ns the thread spent in kernel entries *)
}

let create mpk =
  {
    mpk;
    dev = Mpk.device mpk;
    syscalls = 0;
    faults = 0;
    in_kernel = Sim.Idtbl.create ();
  }

let kernel_cell t =
  let tid = Sim.self_tid () in
  match Sim.Idtbl.find_opt t.in_kernel tid with
  | Some c -> c
  | None ->
      let c = ref 0 in
      Sim.Idtbl.replace t.in_kernel tid c;
      c

(* One kernel entry: trap in, the line-cache pollution, [f] in kernel mode,
   return.  Its time counts toward [kernel_ns] however it ends. *)
let enter t f =
  let t0 = Sim.now () in
  Fun.protect
    ~finally:(fun () ->
      let c = kernel_cell t in
      c := !c + (Sim.now () - t0))
  @@ fun () ->
  Sim.advance enter_cost;
  Nvm.Device.pollute_cache t.dev;
  Race.on_gate_enter ();
  let r = Mpk.with_kernel t.mpk f in
  Race.on_gate_exit ();
  Sim.advance exit_cost;
  r

let syscall t f =
  t.syscalls <- t.syscalls + 1;
  Obs.with_kernel_crossing @@ fun () ->
  enter t (fun () -> Mpk.with_write_window t.mpk f)

(* A system call that writes no NVM ([Kernfs.prefault]): counted and
   charged as a syscall, but it opens no write window and, like every
   kernel entry, completes once entered (no-kill). *)
let syscall_ro t f =
  t.syscalls <- t.syscalls + 1;
  Obs.with_kernel_crossing @@ fun () -> Sim.with_no_kill @@ fun () -> enter t f

(* A demand fault on a pending PTE: a kernel entry that pays what a syscall
   pays, but is no syscall (counted in [faults], not [syscalls]) and opens
   no write window, since it writes no NVM.  The calling thread completes it like any
   kernel entry (no-kill). *)
let fault t f =
  t.faults <- t.faults + 1;
  Obs.with_kernel_fault @@ fun () -> Sim.with_no_kill @@ fun () -> enter t f

(* An empty system call (the ZoFS-sysempty variant of Figure 8). *)
let empty_syscall t = syscall t (fun () -> ())

let syscall_count t = t.syscalls
let fault_count t = t.faults

(* Simulated time the calling thread has spent in kernel entries (system
   calls and demand faults, trap to return).  Thread ids restart in every
   world, so only the difference of two readings taken by one
   thread means anything. *)
let kernel_ns t = !(kernel_cell t)
