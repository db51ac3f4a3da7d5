(* Quickstart: build a ZoFS world on simulated NVM and use it through the
   POSIX-ish Vfs interface.

     dune exec examples/quickstart.exe *)

module V = Treasury.Vfs
module Ft = Treasury.Fs_types

let ok = function
  | Ok v -> v
  | Error e -> failwith ("quickstart: " ^ Treasury.Errno.to_string e)

let () =
  (* 1. A 64 MB simulated NVM device with the Optane cost model, protected
     by simulated MPK, formatted with KernFS + ZoFS. *)
  let dev = Nvm.Device.create ~perf:Nvm.Perf.optane ~size:(16384 * Nvm.page_size) () in
  let mpk = Mpk.create dev in
  let kfs =
    Treasury.Kernfs.mkfs dev mpk ~root_ctype:Zofs.Ufs.ctype ~root_mode:0o755
      ~root_uid:0 ~root_gid:0 ()
  in
  Zofs.Ufs.mkfs kfs;

  (* 2. Everything runs inside the deterministic simulator: one simulated
     process with its own FSLibs (dispatcher + µFS). *)
  Sim.run_thread ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ()) (fun () ->
      let fs = Workloads.Fslab.zofs_fslib kfs in

      (* 3. Ordinary file operations — all handled in user space. *)
      ok (V.mkdir fs "/projects" 0o755);
      ok (V.write_file fs "/projects/notes.txt" "coffers separate protection from management\n");
      ok (V.append_file fs "/projects/notes.txt" "so user space can go fast\n");
      Printf.printf "notes.txt:\n%s" (ok (V.read_file fs "/projects/notes.txt"));

      let st = ok (V.stat fs "/projects/notes.txt") in
      Printf.printf "size=%d mode=%o uid=%d\n" st.Ft.st_size st.Ft.st_mode st.Ft.st_uid;

      (* 4. Descriptor-level I/O with the user-space FD table. *)
      let fd = ok (V.openf fs "/projects/data.bin" [ Ft.O_CREAT; Ft.O_RDWR ] 0o644) in
      ignore (ok (V.write fs fd (String.make 10000 'z')));
      let buf = Bytes.create 5 in
      ignore (ok (V.pread fs fd ~off:9995 buf 0 5));
      Printf.printf "tail of data.bin: %S\n" (Bytes.to_string buf);
      ok (V.close fs fd);

      (* 5. Symlinks resolve through the dispatcher's re-dispatch loop. *)
      ok (V.symlink fs ~target:"/projects/notes.txt" ~link:"/latest");
      Printf.printf "via symlink: %s" (ok (V.read_file fs "/latest"));

      (* 6. A file with a different permission gets its own coffer,
         registered with the kernel. *)
      ok (V.write_file fs "/projects/secret.key" ~mode:0o600 "hunter2\n");
      let cid = ok (Treasury.Kernfs.coffer_find kfs "/projects/secret.key") in
      let info = ok (Treasury.Kernfs.coffer_stat kfs cid) in
      Printf.printf "secret.key lives in its own coffer %d (mode %o)\n" cid
        info.Treasury.Coffer.mode;

      Printf.printf "simulated time elapsed: %.1f us\n"
        (float_of_int (Sim.now ()) /. 1000.0));
  print_endline "quickstart: done"
