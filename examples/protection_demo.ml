(* The protection story of the paper (§3.4, §6.5), live:
   1. stray writes from buggy application code are caught by MPK;
   2. corruption inside a coffer surfaces as a graceful errno, not a crash;
   3. a manipulated cross-coffer reference is detected by guideline G3;
   4. offline recovery repairs the damage.

     dune exec examples/protection_demo.exe *)

module V = Treasury.Vfs
module K = Treasury.Kernfs
module D = Nvm.Device

let ok = function
  | Ok v -> v
  | Error e -> failwith ("protection_demo: " ^ Treasury.Errno.to_string e)

let () =
  let dev, kfs = Workloads.Fslab.make_zofs ~pages:16384 ~perf:Nvm.Perf.optane () in
  let mpk = K.mpk kfs in
  let fslib () =
    let disp = Workloads.Fslab.zofs_dispatcher kfs in
    (disp, Treasury.Dispatcher.as_vfs disp)
  in

  (* some files to protect *)
  Sim.run_thread ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ()) (fun () ->
      let _, fs = fslib () in
      ok (V.write_file fs "/ledger" ~mode:0o644 "balance: 1000 coins\n");
      ok (V.write_file fs "/audit" ~mode:0o640 "clean\n"));

  (* 1. stray writes *)
  Sim.run_thread ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ()) (fun () ->
      let _, fs = fslib () in
      ignore (ok (V.read_file fs "/ledger")) (* coffer mapped, region closed *);
      let rng = Sim.Rng.create 1L in
      let caught = ref 0 in
      for _ = 1 to 100 do
        let addr = Sim.Rng.int rng (D.size dev - 8) in
        match D.write_u64 dev addr 0xBADBAD with
        | () -> ()
        | exception Nvm.Fault _ -> incr caught
      done;
      Printf.printf "1. stray writes: %d/100 wild stores caught by MPK\n" !caught;
      Printf.printf "   ledger intact: %s" (ok (V.read_file fs "/ledger")));

  (* 2+3. corrupt a dentry and watch FSLibs convert the fault *)
  Sim.run_thread ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ()) (fun () ->
      Mpk.with_kernel mpk (fun () ->
          Mpk.with_write_window mpk (fun () ->
              let root = K.root_coffer kfs in
              let info = Option.get (Treasury.Coffer.read dev ~id:root) in
              match Zofs.Dir.lookup dev ~ino:info.Treasury.Coffer.root_file "ledger" with
              | Some de ->
                  (* point the dentry at an address outside the coffer *)
                  D.write_u64 dev (de.Zofs.Dir.de_addr + Zofs.Layout.d_inode)
                    (99 * Nvm.page_size);
                  D.persist_all dev
              | None -> ())));
  Sim.run_thread ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ()) (fun () ->
      let disp, fs = fslib () in
      (match V.read_file fs "/ledger" with
      | Error e ->
          Printf.printf
            "2. corrupted metadata: read returns %s instead of crashing (%d \
             faults converted)\n"
            (Treasury.Errno.to_string e)
            (Treasury.Dispatcher.graceful_error_count disp)
      | Ok _ -> print_endline "2. UNEXPECTED: corruption not detected");
      (* other files keep working *)
      Printf.printf "   audit still readable: %s" (ok (V.read_file fs "/audit")));

  (* 4. offline recovery *)
  let report =
    Sim.run_thread ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ()) (fun () ->
        Zofs.Recovery.recover_all kfs)
  in
  Printf.printf
    "3. fsck: scanned %d coffers, dropped %d bad dentries, reclaimed %d pages\n"
    report.Zofs.Recovery.coffers_scanned report.Zofs.Recovery.dentries_dropped
    report.Zofs.Recovery.pages_reclaimed;
  Sim.run_thread ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ()) (fun () ->
      let _, fs = fslib () in
      (match V.read_file fs "/ledger" with
      | Error e ->
          Printf.printf
            "   /ledger was unrecoverable and stays gone (%s) — consistent, \
             not corrupt\n"
            (Treasury.Errno.to_string e)
      | Ok s -> Printf.printf "   /ledger recovered: %s" s);
      Printf.printf "   /audit: %s" (ok (V.read_file fs "/audit")));
  print_endline "protection_demo: done"
