(* An interactive shell over a ZoFS file system on simulated NVM.

     dune exec bin/zofs_shell.exe                      # fresh 64 MB world
     dune exec bin/zofs_shell.exe -- --image fs.img    # persistent image

   The NVM device can be saved to / loaded from a host file, so a shell
   session's file system survives across runs ("save" + --image). *)

module V = Treasury.Vfs
module K = Treasury.Kernfs
module Ft = Treasury.Fs_types

type world = {
  dev : Nvm.Device.t;
  kfs : K.t;
  proc : Sim.Proc.t;
  mutable disp : Treasury.Dispatcher.t;
  mutable fs : V.fs;
}

(* A fresh FSLib for the shell's process; call inside its sim thread. *)
let fslib kfs =
  let disp = Workloads.Fslab.zofs_dispatcher kfs in
  (disp, Treasury.Dispatcher.as_vfs disp)

let make_world ~image ~pages =
  (* The shell always runs with observability on: every syscall it issues
     lands in the metric registry and the `stats' command renders them. *)
  Obs.enable ();
  let dev, fresh =
    match image with
    | Some path when Sys.file_exists path ->
        (Nvm.Device.load_image path, false)
    | _ -> (Nvm.Device.create ~perf:Nvm.Perf.optane ~size:(pages * Nvm.page_size) (), true)
  in
  let mpk = Mpk.create dev in
  let kfs =
    if fresh then begin
      let kfs =
        K.mkfs dev mpk ~root_ctype:Zofs.Ufs.ctype ~root_mode:0o755 ~root_uid:0
          ~root_gid:0 ()
      in
      Zofs.Ufs.mkfs kfs;
      kfs
    end
    else K.mount dev mpk
  in
  let proc = Sim.Proc.create ~uid:0 ~gid:0 () in
  let disp, fs = Sim.run_thread ~proc (fun () -> fslib kfs) in
  Obs.attach_device dev;
  { dev; kfs; proc; disp; fs }

let commas n =
  let s = string_of_int n in
  let len = String.length s in
  let b = Buffer.create (len + len / 3) in
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char b ',';
      Buffer.add_char b c)
    s;
  Buffer.contents b

let show = function
  | Ok () -> ()
  | Error e -> Printf.printf "error: %s\n" (Treasury.Errno.message e)


let help () =
  print_string
    "commands:\n\
    \  ls [dir]            list directory\n\
    \  cat FILE            print file contents\n\
    \  write FILE TEXT..   (over)write a file\n\
    \  append FILE TEXT..  append to a file\n\
    \  mkdir DIR           create directory\n\
    \  rm FILE / rmdir DIR remove\n\
    \  mv SRC DST          rename\n\
    \  stat PATH           file metadata\n\
    \  chmod MODE PATH     change permission (octal)\n\
    \  ln TARGET LINK      symbolic link\n\
    \  cd DIR / pwd        working directory\n\
    \  coffers             list all coffers (kernel view)\n\
    \  fsck                offline recovery\n\
    \  save FILE           save NVM image to a host file\n\
    \  time                simulated time consumed so far\n\
    \  stats               observability: syscall latencies, per-coffer/\n\
    \                      per-tenant top-k + SLO burn, device stats\n\
    \  help / exit\n"

let run_command w line =
  let parts =
    String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "")
  in
  Sim.run_thread ~proc:w.proc (fun () ->
      match parts with
      | [] -> ()
      | [ "help" ] -> help ()
      | "ls" :: rest -> (
          let dir =
            match rest with [] -> Treasury.Dispatcher.getcwd w.disp | d :: _ -> d
          in
          match V.readdir w.fs dir with
          | Error e -> Printf.printf "error: %s\n" (Treasury.Errno.message e)
          | Ok entries ->
              List.iter
                (fun d ->
                  let suffix =
                    match d.Ft.d_kind with
                    | Ft.Directory -> "/"
                    | Ft.Symlink -> "@"
                    | Ft.Regular -> ""
                  in
                  Printf.printf "%s%s\n" d.Ft.d_name suffix)
                (List.sort compare entries))
      | [ "cat"; f ] -> (
          match V.read_file w.fs f with
          | Ok s ->
              print_string s;
              if s = "" || s.[String.length s - 1] <> '\n' then print_newline ()
          | Error e -> Printf.printf "error: %s\n" (Treasury.Errno.message e))
      | "write" :: f :: rest ->
          show (V.write_file w.fs f (String.concat " " rest ^ "\n"))
      | "append" :: f :: rest ->
          show (V.append_file w.fs f (String.concat " " rest ^ "\n"))
      | [ "mkdir"; d ] -> show (V.mkdir w.fs d 0o755)
      | [ "rm"; f ] -> show (V.unlink w.fs f)
      | [ "rmdir"; d ] -> show (V.rmdir w.fs d)
      | [ "mv"; a; b ] -> show (V.rename w.fs a b)
      | [ "stat"; p ] -> (
          match V.stat w.fs p with
          | Error e -> Printf.printf "error: %s\n" (Treasury.Errno.message e)
          | Ok st ->
              Printf.printf "%s ino=%d mode=%o uid=%d gid=%d size=%d nlink=%d\n"
                (Ft.kind_to_string st.Ft.st_kind)
                st.Ft.st_ino st.Ft.st_mode st.Ft.st_uid st.Ft.st_gid st.Ft.st_size
                st.Ft.st_nlink)
      | [ "chmod"; mode; p ] -> (
          match int_of_string_opt ("0o" ^ mode) with
          | Some m -> show (V.chmod w.fs p m)
          | None -> print_endline "chmod: bad octal mode")
      | [ "ln"; target; link ] -> show (V.symlink w.fs ~target ~link)
      | [ "cd"; d ] -> show (Treasury.Dispatcher.chdir w.disp d)
      | [ "pwd" ] -> print_endline (Treasury.Dispatcher.getcwd w.disp)
      | [ "coffers" ] -> (
          match K.list_coffers w.kfs with
          | Error e -> Printf.printf "error: %s\n" (Treasury.Errno.message e)
          | Ok coffers ->
              List.iter
                (fun c ->
                  Printf.printf "coffer %-6d mode %-4o uid %-5d %s\n"
                    c.Treasury.Coffer.id c.Treasury.Coffer.mode
                    c.Treasury.Coffer.uid c.Treasury.Coffer.path)
                (List.sort
                   (fun a b -> compare a.Treasury.Coffer.path b.Treasury.Coffer.path)
                   coffers))
      | [ "fsck" ] ->
          let r = Zofs.Recovery.recover_all w.kfs in
          Printf.printf
            "fsck: %d coffers scanned, %d dentries dropped, %d cross-refs \
             repaired, %d pages reclaimed\n"
            r.Zofs.Recovery.coffers_scanned r.Zofs.Recovery.dentries_dropped
            r.Zofs.Recovery.cross_refs_repaired r.Zofs.Recovery.pages_reclaimed;
          (* Recovery ends by unmounting this process's coffers, so the
             shell's FSLib is stale: attach a fresh one in the same cwd. *)
          let cwd = Treasury.Dispatcher.getcwd w.disp in
          let disp, fs = fslib w.kfs in
          w.disp <- disp;
          w.fs <- fs;
          show (Treasury.Dispatcher.chdir disp cwd)
      | [ "save"; path ] ->
          Nvm.Device.save_image w.dev path;
          Printf.printf "saved NVM image to %s\n" path
      | [ "stats" ] | [ "stats"; "--top" ] ->
          let snap = Obs.Snapshot.take () in
          print_string (Obs.Snapshot.render ~title:"shell session" snap);
          (* label-sliced view: worst coffers/tenants by p99 + SLO burn *)
          (match Obs.Snapshot.render_top snap with
          | "" -> ()
          | s ->
              print_newline ();
              print_string s);
          Printf.printf
            "device: %s reads, %s writes, %s flushes (%s redundant), %s \
             fences (%s redundant)\n"
            (commas (Nvm.Device.stat_reads w.dev))
            (commas (Nvm.Device.stat_writes w.dev))
            (commas (Nvm.Device.stat_flushes w.dev))
            (commas (Nvm.Device.stat_redundant_flushes w.dev))
            (commas (Nvm.Device.stat_fences w.dev))
            (commas (Nvm.Device.stat_redundant_fences w.dev))
      | [ "time" ] ->
          Printf.printf "%.1f us simulated\n" (float_of_int (Sim.now ()) /. 1000.0)
      | [ "exit" ] | [ "quit" ] -> raise Exit
      | cmd :: _ -> Printf.printf "unknown command %s (try help)\n" cmd)

let () =
  let image = ref None and pages = ref 16384 in
  let rec parse = function
    | [] -> ()
    | "--image" :: p :: rest ->
        image := Some p;
        parse rest
    | "--size-mb" :: n :: rest ->
        pages := int_of_string n * 256;
        parse rest
    | a :: _ -> failwith ("unknown argument " ^ a)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w = make_world ~image:!image ~pages:!pages in
  Printf.printf "ZoFS shell on simulated NVM (%d MB). Type 'help'.\n"
    (Nvm.Device.size w.dev / 1048576);
  (try
     while true do
       print_string "zofs> ";
       flush stdout;
       match In_channel.input_line stdin with
       | None -> raise Exit
       | Some line -> run_command w line
     done
   with Exit -> ());
  (match !image with
  | Some path ->
      Nvm.Device.save_image w.dev path;
      Printf.printf "\nsaved image to %s\n" path
  | None -> ());
  print_endline "bye"
