(* private-rw: the paper's private user-space fast path (dispatcher -> µFS
   -> Pbatch -> NVM).  One process, two threads, closed loop with no think
   time.  Each thread owns a directory of 16 files of 16 KB (mode 0644,
   so everything lives in the root coffer) and a log.  The hot set fits
   the 256 KB per-thread line cache, no lease is ever contended, and after
   warm-up there is no kernel crossing per op: this is the control
   workload for lease and KernFS changes. *)

module V = Treasury.Vfs
module Ft = Treasury.Fs_types
open Harness

let name = "private-rw"
let threads = 2
let nfiles = 16
let block = 4096
let blocks = 4  (* per file *)
let cells_per_block = block / Model.cell

type op =
  | Pwrite of int * int  (* file, block *)
  | Append  (* 4 KB to the thread's log; every 64th append truncates it *)
  | Pread of int * int
  | Stat of int
  | Temp  (* create + write + close + unlink of a temp file *)
  | Rename of int  (* move a file between its two names *)

let op_name = function
  | Pwrite _ -> "pwrite"
  | Append -> "append"
  | Pread _ -> "pread"
  | Stat _ -> "stat"
  | Temp -> "temp"
  | Rename _ -> "rename"

(* 30% pwrite, 15% append, 15% pread, 15% stat, 15% temp, 10% rename. *)
let gen rng n =
  Array.init n (fun _ ->
      let f = Sim.Rng.int rng nfiles in
      let b = Sim.Rng.int rng blocks in
      match Sim.Rng.int rng 100 with
      | r when r < 30 -> Pwrite (f, b)
      | r when r < 45 -> Append
      | r when r < 60 -> Pread (f, b)
      | r when r < 75 -> Stat f
      | r when r < 90 -> Temp
      | _ -> Rename f)

type thread = {
  dir : string;
  files : Model.file array;
  moved : bool array;  (* file i is at "g<i>" instead of "f<i>" *)
  mutable log : int list;  (* stamps appended since the last truncate, newest first *)
  mutable appends : int;
  mutable seq : int;
}

let path th i = Printf.sprintf "%s/%c%d" th.dir (if th.moved.(i) then 'g' else 'f') i
let other th i = Printf.sprintf "%s/%c%d" th.dir (if th.moved.(i) then 'f' else 'g') i

type state = { model : Model.t; ths : thread array; plans : op array array }

let next_stamp t th =
  th.seq <- th.seq + 1;
  Model.stamp ~writer:(t + 1) ~seq:th.seq

let exec m t th fs fds logfd buf op =
  match op with
  | Pwrite (f, b) ->
      let st = next_stamp t th in
      let w = Model.write_begin m th.files.(f) ~first:(b * cells_per_block) ~n:cells_per_block st in
      let r = V.pwrite fs fds.(f) ~off:(b * block) (Model.payload cells_per_block (fun _ -> st)) in
      Model.write_end w;
      expect_len "pwrite" block r
  | Append ->
      let st = next_stamp t th in
      let* () = expect_len "append" block (V.write fs logfd (Model.payload cells_per_block (fun _ -> st))) in
      th.log <- st :: th.log;
      th.appends <- th.appends + 1;
      if th.appends mod 64 = 0 then begin
        th.log <- [];
        expect "ftruncate log" (V.ftruncate fs logfd 0)
      end
      else Ok ()
  | Pread (f, b) ->
      let rs = Model.read_begin m in
      let r = V.pread fs fds.(f) ~off:(b * block) buf 0 block in
      let re = Sim.now () in
      Model.read_end m rs;
      let* () = expect_len "pread" block r in
      (match Model.check_read th.files.(f) ~first:(b * cells_per_block) ~len:block buf 0 ~rs ~re with
      | None -> Ok ()
      | Some msg -> Error msg)
  | Stat f -> (
      let* st = expect "stat" (V.stat fs (path th f)) in
      match st.Ft.st_size = blocks * block with
      | true -> Ok ()
      | false -> Error (Printf.sprintf "stat %s: size %d" (path th f) st.Ft.st_size))
  | Temp ->
      let p = th.dir ^ "/tmp" in
      let* fd = expect "create temp" (V.openf fs p [ Ft.O_CREAT; Ft.O_WRONLY; Ft.O_TRUNC ] 0o644) in
      let st = next_stamp t th in
      let w = V.write fs fd (Model.payload cells_per_block (fun _ -> st)) in
      let c = V.close fs fd in
      let* () = expect_len "write temp" block w in
      let* () = expect "close temp" c in
      expect "unlink temp" (V.unlink fs p)
  | Rename f ->
      let* () = expect "rename" (V.rename fs (path th f) (other th f)) in
      th.moved.(f) <- not th.moved.(f);
      Ok ()

let setup st _ (w : World.t) =
  World.with_fslib w.World.kfs (fun fs ->
      Array.iter
        (fun th ->
          World.ok th.dir (V.mkdir fs th.dir 0o755);
          Array.iteri (fun i f -> World.create_file fs (path th i) 0o644 (Model.initial f)) th.files;
          World.create_file fs (th.dir ^ "/log") 0o644 "")
        st.ths);
  st

let worker c st l ~go ~finish (fs0 : V.fs) t =
  let th = st.ths.(t) in
  let open_ p flags = World.ok p (V.openf fs0 p flags 0) in
  let fds = Array.init nfiles (fun i -> open_ (path th i) [ Ft.O_RDWR ]) in
  let logfd = open_ (th.dir ^ "/log") [ Ft.O_WRONLY; Ft.O_APPEND ] in
  go ();
  let fs = Probe.wrap c.probe fs0 in
  let buf = Bytes.create block in
  let plan = st.plans.(t) in
  drive l plan (fun k op ->
      Probe.span c.probe ~cat:"request" ~name:(op_name op)
        ~req:((t * Array.length plan) + k + 1)
        (fun () -> exec st.model t th fs fds logfd buf op));
  Array.iter (fun fd -> ignore (V.close fs fd)) fds;
  ignore (V.close fs logfd);
  finish fs0

(* After recovery: every file at its current name with its acknowledged
   cells, no file at the other name, the log holding exactly the appends
   since its last truncate, no temp file. *)
let check st fs =
  let errs = errors () in
  Array.iter
    (fun th ->
      Array.iteri
        (fun i f ->
          check_file errs fs (path th i) f;
          if V.exists fs (other th i) then fail errs (other th i ^ ": stale name after recovery"))
        th.files;
      if V.exists fs (th.dir ^ "/tmp") then fail errs (th.dir ^ "/tmp: survived its unlink");
      match World.read_all fs (th.dir ^ "/log") with
      | Error e -> fail errs (th.dir ^ "/log: " ^ Treasury.Errno.to_string e)
      | Ok b ->
          let want = Array.of_list (List.rev th.log) in
          if Bytes.length b <> Array.length want * block then
            fail errs
              (Printf.sprintf "lost acknowledged write: %s/log holds %d bytes, %d acknowledged"
                 th.dir (Bytes.length b) (Array.length want * block))
          else
            Array.iteri
              (fun k st ->
                if Model.read_cell b (k * block) <> Some st then
                  fail errs (Printf.sprintf "lost acknowledged write: %s/log block %d should hold %s"
                       th.dir k (Model.describe st)))
              want)
    st.ths;
  messages errs

(* The selfcheck's write: one more acknowledged pwrite, fences dropped. *)
let final_write st fs =
  let th = st.ths.(0) in
  let st_ = Model.stamp ~writer:99 ~seq:1 in
  match V.openf fs (path th 0) [ Ft.O_WRONLY ] 0 with
  | Ok fd ->
      let w = Model.write_begin st.model th.files.(0) ~first:0 ~n:cells_per_block st_ in
      ignore (V.pwrite fs fd ~off:0 (Model.payload cells_per_block (fun _ -> st_)));
      Model.write_end w;
      ignore (V.close fs fd)
  | Error _ -> ()

let run c =
  let rng = Sim.Rng.create (Int64.of_int c.seed) in
  let nops = scaled c 40_000 in
  let model = Model.create () in
  let ths =
    Array.init threads (fun t ->
        let dir = Printf.sprintf "/t%d" t in
        {
          dir;
          files =
            Array.init nfiles (fun i ->
                Model.file model ~name:(Printf.sprintf "%s/file%d" dir i)
                  ~ncells:(blocks * cells_per_block));
          moved = Array.make nfiles false;
          log = [];
          appends = 0;
          seq = 0;
        })
  in
  let plans = Array.map (fun _ -> gen rng nops) ths in
  let st = { model; ths; plans } in
  let l = loop () in
  Harness.run c ~pages:8192 ~threads ~setup:(setup st)
    ~start:(fun w fsw st ~go ~finish ->
      spawn_process w ~name:"rw" ~threads fsw.World.kfs (worker c st l ~go ~finish))
    ~check ~final_write
  |> closed_world l
