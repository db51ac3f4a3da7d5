(* Deterministic operation scripts for crash-consistency checking.

   A script is a list of whole-syscall operations (create-with-data, pwrite,
   append, mkdir, rename, unlink, rmdir) that both the real file system and
   the crashmc oracle model can apply.  Scripts come in two flavours: three
   named workloads modelled on the FxMark / Filebench / fslab patterns used
   by the benchmarks, and a seeded weighted random generator shared with the
   property tests.  Everything is a pure function of the seed, so a crash
   point found by the crash gate can be replayed exactly. *)

module V = Treasury.Vfs

type op =
  | Mkdir of string
  | Create of { path : string; mode : int; data : string }
      (* open O_CREAT|O_WRONLY|O_TRUNC + write all + close *)
  | Pwrite of { path : string; off : int; data : string }
  | Append of { path : string; data : string }
  | Unlink of string
  | Rmdir of string
  | Rename of { src : string; dst : string }

type script = { sname : string; setup : op list; body : op list }

let op_to_string = function
  | Mkdir p -> Printf.sprintf "mkdir %s" p
  | Create { path; mode; data } ->
      Printf.sprintf "create %s mode=%o len=%d" path mode (String.length data)
  | Pwrite { path; off; data } ->
      Printf.sprintf "pwrite %s off=%d len=%d" path off (String.length data)
  | Append { path; data } ->
      Printf.sprintf "append %s len=%d" path (String.length data)
  | Unlink p -> Printf.sprintf "unlink %s" p
  | Rmdir p -> Printf.sprintf "rmdir %s" p
  | Rename { src; dst } -> Printf.sprintf "rename %s -> %s" src dst

(* Apply one op through the VFS.  [Ok] means the syscall chain was
   acknowledged to the application; errors are returned (not raised) so the
   caller can decide whether an errno is part of the expected run. *)
let apply fs op : (unit, Treasury.Errno.t) result =
  let ( let* ) = Result.bind in
  match op with
  | Mkdir p -> V.mkdir fs p 0o755
  | Create { path; mode; data } ->
      let* fd = V.openf fs path [ O_CREAT; O_WRONLY; O_TRUNC ] mode in
      let* n = V.write fs fd data in
      let* () = V.close fs fd in
      if n = String.length data then Ok () else Error Treasury.Errno.EIO
  | Pwrite { path; off; data } ->
      let* fd = V.openf fs path [ O_WRONLY ] 0 in
      let res = V.pwrite fs fd ~off data in
      let* () = V.close fs fd in
      let* n = res in
      if n = String.length data then Ok () else Error Treasury.Errno.EIO
  | Append { path; data } -> V.append_file fs path data
  | Unlink p -> V.unlink fs p
  | Rmdir p -> V.rmdir fs p
  | Rename { src; dst } -> V.rename fs src dst

(* Paths an op touches — the oracle probes these after recovery, which
   catches path-map vs. directory disagreements readdir alone would miss. *)
let touched = function
  | Mkdir p | Unlink p | Rmdir p -> [ p ]
  | Create { path; _ } | Pwrite { path; _ } | Append { path; _ } -> [ path ]
  | Rename { src; dst } -> [ src; dst ]

(* Deterministic per-op payloads: position-dependent so torn writes are
   visible at byte granularity. *)
let payload ~tag len =
  String.init len (fun i -> Char.chr (97 + ((tag * 131) + (i * 7)) mod 26))

(* --- named workloads ---------------------------------------------------- *)

(* FxMark-style metadata churn (MWCL/MWUL/MWRL): per-"core" private
   directories, create/rename/unlink cycles of small files. *)
let fxmark () =
  let setup = List.init 3 (fun c -> Mkdir (Printf.sprintf "/d%d" c)) in
  let body = ref [] in
  let push op = body := op :: !body in
  for c = 0 to 2 do
    let dir = Printf.sprintf "/d%d" c in
    for i = 0 to 3 do
      push
        (Create
           {
             path = Printf.sprintf "%s/f%d" dir i;
             mode = 0o644;
             data = payload ~tag:((c * 10) + i) (64 + (i * 80));
           })
    done;
    push
      (Rename
         { src = dir ^ "/f0"; dst = Printf.sprintf "/d%d/r0" ((c + 1) mod 3) });
    push (Unlink (dir ^ "/f1"))
  done;
  { sname = "fxmark"; setup; body = List.rev !body }

(* Filebench varmail-style: create a mail file, append to it twice, delete
   an older one; appends grow across a page boundary. *)
let filebench () =
  let setup = [ Mkdir "/mail" ] in
  let body = ref [] in
  let push op = body := op :: !body in
  for i = 0 to 5 do
    let path = Printf.sprintf "/mail/m%d" i in
    push (Create { path; mode = 0o644; data = payload ~tag:i 200 });
    push (Append { path; data = payload ~tag:(i + 100) 150 });
    if i mod 2 = 0 then
      push (Pwrite { path; off = 40; data = payload ~tag:(i + 200) 64 });
    if i >= 2 then push (Unlink (Printf.sprintf "/mail/m%d" (i - 2)))
  done;
  { sname = "filebench"; setup; body = List.rev !body }

(* fslab-style mixed namespace work, including 0600 files that land in their
   own sub-coffers (exercising cross-coffer refs and G3 recovery). *)
let fslab () =
  let setup = [ Mkdir "/a"; Mkdir "/a/b"; Mkdir "/c" ] in
  let body =
    [
      Create { path = "/a/pub"; mode = 0o644; data = payload ~tag:1 300 };
      Create { path = "/a/priv"; mode = 0o600; data = payload ~tag:2 120 };
      Create { path = "/a/b/deep"; mode = 0o644; data = payload ~tag:3 80 };
      Mkdir "/a/b/sub";
      Rename { src = "/a/pub"; dst = "/c/pub" };
      Append { path = "/c/pub"; data = payload ~tag:4 4000 };
      Create { path = "/c/priv2"; mode = 0o600; data = payload ~tag:5 60 };
      Unlink "/a/priv";
      Pwrite { path = "/c/pub"; off = 4096; data = payload ~tag:6 100 };
      Rename { src = "/a/b/deep"; dst = "/a/b/sub/deep" };
      Rmdir "/c2" (* expected ENOENT: errors must be deterministic too *);
      Unlink "/c/priv2";
      Rmdir "/a/b/sub/deep" (* ENOTDIR *);
      Create { path = "/a/fresh"; mode = 0o644; data = payload ~tag:7 40 };
    ]
  in
  { sname = "fslab"; setup; body }

let named = [ ("fxmark", fxmark); ("filebench", filebench); ("fslab", fslab) ]

let find name =
  match List.assoc_opt name named with
  | Some f -> f ()
  | None -> invalid_arg ("Opscript.find: unknown script " ^ name)

(* --- seeded random generator -------------------------------------------- *)

(* Weighted random op sequences over a bounded namespace.  The generator
   tracks the namespace it has built so most ops hit live paths, with a
   deliberate minority targeting missing ones (deterministic errno paths).
   [mode600_every]: roughly one in that many creates is 0600, putting the
   file in its own sub-coffer. *)
let generate ?(mode600_every = 8) ?(max_len = 6000) ~seed ~nops () =
  let rng = Sim.Rng.create seed in
  let dirs = ref [ "" ] in (* "" is the root; paths are dir ^ "/" ^ name *)
  let files = ref [] in (* (path, size) *)
  let n_dirs = ref 0 and n_files = ref 0 in
  let ops = ref [] in
  let pick l = List.nth l (Sim.Rng.int rng (List.length l)) in
  let fresh_file dir =
    incr n_files;
    Printf.sprintf "%s/f%d" dir !n_files
  in
  let set_size p s =
    files := (p, s) :: List.remove_assoc p !files
  in
  let rand_len () = 1 + Sim.Rng.int rng (min max_len 6000) in
  for i = 1 to nops do
    let w = Sim.Rng.int rng 100 in
    let op =
      if w < 30 then begin
        (* create *)
        let dir = pick !dirs in
        let path =
          if !files <> [] && Sim.Rng.int rng 5 = 0 then fst (pick !files)
            (* recreate/truncate an existing file *)
          else fresh_file dir
        in
        let mode =
          if Sim.Rng.int rng mode600_every = 0 then 0o600 else 0o644
        in
        let data = payload ~tag:i (rand_len ()) in
        set_size path (String.length data);
        Create { path; mode; data }
      end
      else if w < 50 && !files <> [] then begin
        (* pwrite within the current size *)
        let path, size = pick !files in
        let off = if size = 0 then 0 else Sim.Rng.int rng (size + 1) in
        let data = payload ~tag:i (rand_len ()) in
        set_size path (max size (off + String.length data));
        Pwrite { path; off; data }
      end
      else if w < 65 && !files <> [] then begin
        let path, size = pick !files in
        let data = payload ~tag:i (rand_len ()) in
        set_size path (size + String.length data);
        Append { path; data }
      end
      else if w < 75 then begin
        incr n_dirs;
        let parent = pick !dirs in
        let path = Printf.sprintf "%s/d%d" parent !n_dirs in
        dirs := path :: !dirs;
        Mkdir path
      end
      else if w < 85 && !files <> [] then begin
        let src, size = pick !files in
        let dst =
          if !files <> [] && Sim.Rng.int rng 4 = 0 then fst (pick !files)
          else fresh_file (pick !dirs)
        in
        if src <> dst then begin
          files := List.remove_assoc src !files;
          set_size dst size
        end;
        Rename { src; dst }
      end
      else if w < 95 && !files <> [] then begin
        let path, _ = pick !files in
        files := List.remove_assoc path !files;
        Unlink path
      end
      else begin
        (* target a likely-missing path: deterministic errno coverage *)
        let path = Printf.sprintf "/missing%d" i in
        if Sim.Rng.bool rng then Unlink path else Rmdir path
      end
    in
    ops := op :: !ops
  done;
  List.rev !ops

let random_script ?(mode600_every = 8) ?(max_len = 6000) ~seed ~nops () =
  {
    sname = Printf.sprintf "random-%Ld" seed;
    setup = [];
    body = generate ~mode600_every ~max_len ~seed ~nops ();
  }
