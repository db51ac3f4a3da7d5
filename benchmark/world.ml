(* Building a Treasury, giving processes their FSLib, and the end-of-run
   crash -> remount -> recover that every workload closes with. *)

module D = Nvm.Device
module K = Treasury.Kernfs
module V = Treasury.Vfs
module Ft = Treasury.Fs_types
module E = Treasury.Errno

type t = { dev : D.t; kfs : K.t }

(* Format a fresh device.  Call inside a simulated thread; in a traced run
   Obs is already enabled, so [Obs.attach_device] subscribes it. *)
let make ~pages ~seed probe =
  let dev =
    D.create ~perf:Nvm.Perf.optane ~seed:(Int64.of_int seed)
      ~size:(pages * Nvm.page_size) ()
  in
  let mpk = Mpk.create dev in
  Obs.attach_device dev;
  Option.iter (fun p -> Probe.attach p dev mpk) probe;
  let kfs =
    K.mkfs dev mpk ~nbuckets:4096 ~root_ctype:Zofs.Ufs.ctype ~root_mode:0o755
      ~root_uid:0 ~root_gid:0 ()
  in
  Zofs.Ufs.mkfs kfs;
  { dev; kfs }

(* One FSLib (dispatcher + µFS session) for the calling process. *)
let fslib kfs =
  let disp = Treasury.Dispatcher.create kfs in
  Treasury.Dispatcher.register_ufs disp (module Zofs.Ufs) (Zofs.Ufs.create kfs);
  (disp, Treasury.Dispatcher.as_vfs disp)

(* Run [f fs] through a temporary FSLib of the calling process, then
   unmount it: a set-up process left mounted would keep its coffer
   mappings, and every later coffer_enlarge would pay to update them. *)
let with_fslib kfs f =
  let disp, fs = fslib kfs in
  let r = f fs in
  Treasury.Dispatcher.shutdown disp;
  r

let proc () = Sim.Proc.create ~uid:0 ~gid:0 ()

(* Set-up must not fail: an error here is a broken benchmark, not a
   measurement. *)
let ok what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "set-up: %s: %s" what (E.to_string e))

(* Write [data] as a new file. *)
let create_file fs path mode data =
  let fd = ok path (V.openf fs path [ Ft.O_CREAT; Ft.O_WRONLY; Ft.O_TRUNC ] mode) in
  if String.length data > 0 then ignore (ok path (V.write fs fd data));
  ok path (V.close fs fd)

(* Read a whole file (for the post-recovery checks). *)
let read_all fs path =
  match V.openf fs path [ Ft.O_RDONLY ] 0 with
  | Error e -> Error e
  | Ok fd ->
      let r =
        match V.fstat fs fd with
        | Error e -> Error e
        | Ok st ->
            let buf = Bytes.create st.Ft.st_size in
            let rec go off =
              if off >= st.Ft.st_size then Ok buf
              else
                match V.pread fs fd ~off buf off (st.Ft.st_size - off) with
                | Ok 0 -> Error E.EIO
                | Ok n -> go (off + n)
                | Error e -> Error e
            in
            go 0
      in
      ignore (V.close fs fd);
      r

(* Power-fail the device right after the workload's last acknowledged op,
   then remount and recover on a clock that keeps running from [at] (a
   real machine's clock does not restart at a reboot, and lease expiry is
   measured on it).  Returns the recovery time (crash -> mount ->
   recover_all) in sim ns and the violations found: the allocation table
   must verify, a second recovery must find nothing to repair, and
   [check fs] — the workload's durability audit, run through a fresh FSLib
   — must find every acknowledged op. *)
let crash_and_recover w ~at ~check =
  D.crash ~policy:`Drop_all w.dev;
  let world = Sim.create () in
  let out = ref (0, [ "recovery did not complete" ]) in
  Sim.spawn world ~proc:(proc ()) ~at ~name:"recovery" (fun () ->
      let t0 = Sim.now () in
      let mpk = Mpk.create w.dev in
      let kfs = K.mount w.dev mpk in
      ignore (Zofs.Recovery.recover_all kfs);
      let ns = Sim.now () - t0 in
      let v = ref [] in
      (match
         Mpk.with_kernel mpk (fun () -> Treasury.Alloc_table.verify (K.alloc_table kfs))
       with
      | () -> ()
      | exception Failure m -> v := m :: !v);
      (match Zofs.Recovery.findings (Zofs.Recovery.recover_all kfs) with
      | [] -> ()
      | fs ->
          v :=
            ("recovery is not a fixpoint: "
            ^ String.concat "; " (List.map Zofs.Recovery.finding_to_string fs))
            :: !v);
      let _, fs = fslib kfs in
      out := (ns, List.rev !v @ check fs));
  Sim.run world;
  !out
