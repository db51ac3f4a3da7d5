(* read-large: reads beside private-rw's writes, over a working set larger
   than both of the program's caches.  32 directories x 96 files of 12-20 KB;
   the directories cycle through modes 0755/0700/0750 (files take their
   directory's permission), giving 22 coffers against the 15 MPK keys a
   process can map, and 48 MB of data against a 256 KB line cache.  Two
   reader processes of one thread each run a closed loop of 64.5%
   open+pread+close, 30% stat, 0.5% readdir and 5% overwrite: the path
   walk, the two-level hash lookup, the coffer_map/evict cycle and NVM read
   latency, with little lease or allocator work.  Readdir is rare because
   listing a 96-entry two-level hash directory scans every second-level
   page: about 1.4 ms simulated and several host milliseconds each.

   Two library bugs shape the set-up (see README.md): a process gets EMFILE
   creating its 15th sub-coffer, so the tree is built by several
   short-lived processes; and two threads of one process whose working set
   exceeds 15 coffers can see EIO, so each reader is a single-threaded
   process. *)

module V = Treasury.Vfs
module Ft = Treasury.Fs_types
open Harness

let name = "read-large"
let ndirs = 32
let nfiles = 96  (* per directory; the smoke test keeps 4 *)
let block = 4096
let cpb = block / Model.cell
let readers = 2
let dirs_per_setup_proc = 8
let dir_mode d = [| 0o755; 0o700; 0o750 |].(d mod 3)
let dir d = Printf.sprintf "/d%02d" d
let path d f = Printf.sprintf "/d%02d/f%d" d f

type op =
  | Read of int * int * int  (* dir, file, block *)
  | Stat of int * int
  | Readdir of int
  | Overwrite of int * int * int

let op_name = function
  | Read _ -> "read"
  | Stat _ -> "stat"
  | Readdir _ -> "readdir"
  | Overwrite _ -> "overwrite"

let gen rng sizes n =
  Array.init n (fun _ ->
      let d = Sim.Rng.int rng ndirs in
      let f = Sim.Rng.int rng (Array.length sizes.(d)) in
      let b = Sim.Rng.int rng sizes.(d).(f) in
      match Sim.Rng.int rng 1000 with
      | r when r < 645 -> Read (d, f, b)
      | r when r < 945 -> Stat (d, f)
      | r when r < 950 -> Readdir d
      | _ -> Overwrite (d, f, b))

type state = { model : Model.t; files : Model.file array array; plans : op array array }

(* Build the tree from short-lived processes, [dirs_per_setup_proc]
   directories each, one after the other: no process creates more than 15
   sub-coffers. *)
let setup st w (fsw : World.t) =
  let g = ref 0 in
  while !g * dirs_per_setup_proc < ndirs do
    let first = !g * dirs_per_setup_proc in
    let finished = ref false in
    Sim.spawn w ~proc:(World.proc ()) ~name:(Printf.sprintf "setup%d" !g) (fun () ->
        World.with_fslib fsw.World.kfs (fun fs ->
            for d = first to min ndirs (first + dirs_per_setup_proc) - 1 do
              World.ok (dir d) (V.mkdir fs (dir d) (dir_mode d));
              for f = 0 to Array.length st.files.(d) - 1 do
                World.create_file fs (path d f) (dir_mode d land 0o666)
                  (Model.initial st.files.(d).(f))
              done
            done);
        finished := true);
    while not !finished do
      Sim.advance 100_000
    done;
    incr g
  done;
  st

let exec st r seq fs buf op =
  let m = st.model in
  match op with
  | Read (d, f, b) ->
      let* fd = expect "open" (V.openf fs (path d f) [ Ft.O_RDONLY ] 0) in
      let rs = Model.read_begin m in
      let n = V.pread fs fd ~off:(b * block) buf 0 block in
      let re = Sim.now () in
      Model.read_end m rs;
      let cl = V.close fs fd in
      let* () = expect_len "pread" block n in
      let* () = expect "close" cl in
      (match Model.check_read st.files.(d).(f) ~first:(b * cpb) ~len:block buf 0 ~rs ~re with
      | None -> Ok ()
      | Some msg -> Error msg)
  | Stat (d, f) -> (
      let* s = expect "stat" (V.stat fs (path d f)) in
      match s.Ft.st_size = st.files.(d).(f).Model.ncells * Model.cell with
      | true -> Ok ()
      | false -> Error (Printf.sprintf "stat %s: size %d" (path d f) s.Ft.st_size))
  | Readdir d -> (
      let* ents = expect "readdir" (V.readdir fs (dir d)) in
      match List.length ents = Array.length st.files.(d) with
      | true -> Ok ()
      | false -> Error (Printf.sprintf "readdir %s: %d entries" (dir d) (List.length ents)))
  | Overwrite (d, f, b) ->
      incr seq;
      let stamp = Model.stamp ~writer:(r + 1) ~seq:!seq in
      let* fd = expect "open" (V.openf fs (path d f) [ Ft.O_WRONLY ] 0) in
      let w = Model.write_begin m st.files.(d).(f) ~first:(b * cpb) ~n:cpb stamp in
      let n = V.pwrite fs fd ~off:(b * block) (Model.payload cpb (fun _ -> stamp)) in
      Model.write_end w;
      let cl = V.close fs fd in
      let* () = expect_len "pwrite" block n in
      expect "close" cl

let worker c st l ~go ~finish (fs0 : V.fs) r =
  ignore (V.stat fs0 "/");
  go ();
  let fs = Probe.wrap c.probe fs0 in
  let buf = Bytes.create block and seq = ref 0 in
  let plan = st.plans.(r) in
  drive l plan (fun k op ->
      Probe.span c.probe ~cat:"request" ~name:(op_name op)
        ~req:((r * Array.length plan) + k + 1)
        (fun () -> exec st r seq fs buf op));
  finish fs0

(* After recovery: every file whole, every cell holding its last
   acknowledged write. *)
let check st fs =
  let errs = errors () in
  Array.iteri
    (fun d files ->
      Array.iteri (fun f mf -> check_file errs fs (path d f) mf) files)
    st.files;
  messages errs

let final_write st fs =
  let stamp = Model.stamp ~writer:99 ~seq:0 in
  match V.openf fs (path 0 0) [ Ft.O_WRONLY ] 0 with
  | Ok fd ->
      let w = Model.write_begin st.model st.files.(0).(0) ~first:0 ~n:cpb stamp in
      ignore (V.pwrite fs fd ~off:0 (Model.payload cpb (fun _ -> stamp)));
      Model.write_end w;
      ignore (V.close fs fd)
  | Error _ -> ()

let run c =
  let rng = Sim.Rng.create (Int64.of_int c.seed) in
  let model = Model.create () in
  let per_dir = max 4 (nfiles / c.scale) in
  let sizes = Array.init ndirs (fun _ -> Array.init per_dir (fun _ -> 3 + Sim.Rng.int rng 3)) in
  let files =
    Array.init ndirs (fun d ->
        Array.init per_dir (fun f -> Model.file model ~name:(path d f) ~ncells:(sizes.(d).(f) * cpb)))
  in
  let n = scaled c 30_000 in
  let st = { model; files; plans = Array.init readers (fun _ -> gen rng sizes n) } in
  let l = loop () in
  Harness.run c ~pages:32768 ~threads:readers ~setup:(setup st)
    ~start:(fun w fsw st ~go ~finish ->
      for r = 0 to readers - 1 do
        spawn_process w ~name:(Printf.sprintf "reader%d" r) ~threads:1 fsw.World.kfs
          (fun fs _ -> worker c st l ~go ~finish fs r)
      done)
    ~check ~final_write
  |> closed_world l
