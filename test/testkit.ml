(* Shared setup for ZoFS integration tests: device + MPK + KernFS + ZoFS +
   a per-process FSLibs dispatcher exposed through the Vfs interface. *)

module K = Treasury.Kernfs
module E = Treasury.Errno

type world = {
  dev : Nvm.Device.t;
  mpk : Mpk.t;
  kfs : K.t;
}

(* Create a formatted ZoFS world.  [root_mode] defaults to 0o777 so arbitrary
   test users can create files under "/". *)
let make_world ?(pages = 4096) ?(perf = Nvm.Perf.free) ?(root_mode = 0o777) () =
  let dev, kfs =
    Workloads.Fslab.make_zofs ~root_mode ~nbuckets:512 ~pages ~perf ()
  in
  { dev; mpk = K.mpk kfs; kfs }

(* An FSLibs instance (dispatcher + ZoFS µFS) for the calling process. *)
let fslib ?variant w = Workloads.Fslab.zofs_dispatcher ?variant w.kfs

let vfs ?variant w = Treasury.Dispatcher.as_vfs (fslib ?variant w)

(* Run [f] in a fresh simulated process/thread with its own FSLibs. *)
let in_proc ?(uid = 1000) ?variant w f =
  let proc = Sim.Proc.create ~uid ~gid:uid () in
  Sim.run_thread ~proc (fun () -> f (vfs ?variant w))

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error %s" (E.to_string e)

let expect_err expected = function
  | Ok _ -> Alcotest.failf "expected error %s" (E.to_string expected)
  | Error e ->
      Alcotest.(check string) "errno" (E.to_string expected) (E.to_string e)

(* --- seeded randomness (property tests / crash exploration) -------------- *)

(* All test randomness flows from an explicit seed through the simulator's
   splitmix64 PRNG, so any failing case replays exactly from its seed. *)
let rng seed = Sim.Rng.create seed

(* Seeded random op sequences over a bounded namespace (lib/workloads).
   The same generator feeds the crash checker's sampled long histories and
   the oracle-agreement property test, so both explore the same op
   distribution. *)
let random_ops ?mode600_every ?max_len ~seed ~nops () =
  Workloads.Opscript.generate ?mode600_every ?max_len ~seed ~nops ()

let random_script ?mode600_every ?max_len ~seed ~nops () =
  Workloads.Opscript.random_script ?mode600_every ?max_len ~seed ~nops ()

(* --- obs counters and thread kills ----------------------------------------- *)

let obs_on () = if not (Obs.enabled ()) then Obs.enable ~spans:false ()

(* How far counter [name] moved since [snap0]. *)
let counter_delta snap0 name =
  let d = Obs.Snapshot.diff snap0 (Obs.Snapshot.take ()) in
  Option.value ~default:0 (Obs.Snapshot.counter_value d name)

(* Spawn [op] in a victim thread, arm a kill, and join the victim until it
   finishes or dies, for at most 10 ms.  Returns [true] if the kill landed. *)
let kill_one_attempt w proc ~after fails op =
  let k0 = Sim.killed_threads () in
  let tid =
    Sim.spawn_tid w ~proc ~name:"victim" (fun () ->
        try ignore (op ())
        with e -> fails ("exception escaped: " ^ Printexc.to_string e))
  in
  Sim.arm_kill ~tid ~after;
  Sim.join ~until:(Sim.now () + 10_000_000) tid;
  if Sim.thread_alive tid then begin
    fails "victim thread neither finished nor died";
    false
  end
  else if Sim.killed_threads () > k0 then true
  else begin
    Sim.disarm_kill ~tid;
    false
  end
