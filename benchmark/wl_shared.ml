(* shared-64p: Table 2 at fleet scale.  64 tenant processes of one thread
   each, closed loop with 1-3 µs of think time, share one log file and one
   directory: 85% of the ops write the next 512-byte record of the shared
   log, 15% create an empty file in the shared directory.  Every op hands
   a lease across processes, and the creates' inode allocations go through
   the allocator slots and coffer_enlarge while 64 processes map the
   coffer — the 64-way path of ROADMAP item 5.

   The workload keeps clear of three library bugs it found (README.md,
   bugs c-e):
   - no op allocates while it holds the file's or the directory's lease:
     the log is sized in set-up, and the directory never needs an index
     page the set-up did not create;
   - a coffer has 63 allocator slots, so 63 of the processes create and
     the 64th only writes records;
   - each creating process creates first, so every allocator slot is
     claimed at the start line; a later claim would steal the slot of a
     process stalled in the enlarge convoy. *)

module V = Treasury.Vfs
module Ft = Treasury.Fs_types
open Harness

let name = "shared-64p"
let procs = 64
let record = Model.cell

type op = Record | Create of string  (* the new file's name *)

(* The second-level page of the directory's index a name lands in. *)
let l2_of name = Zofs.Layout.l1_index (Zofs.Layout.dir_hash name)

(* 85% record write, 15% create, and a creating process's first op is a
   create; think time uniform in [1, 3] µs.  A create's name is chosen so
   that no second-level page of the directory index ever holds more than
   its 16 inline entries ([load] counts them): the run then never needs a
   bucket-chain page, which would be allocated under the directory's
   lease.  The index has room for 512 x 16 names; a create drawn once it
   is full becomes a record write. *)
let gen rng load ~creates p n =
  let inline = Zofs.Layout.l2_inline_dentries in
  let full () = Array.for_all (fun c -> c >= inline) load in
  Array.init n (fun k ->
      let create = Sim.Rng.int rng 100 >= 85 || k = 0 in
      let op =
        if (not creates) || (not create) || full () then Record
        else
          let rec pick j =
            let name = Printf.sprintf "p%d_%d_%d" p k j in
            let s = l2_of name in
            if load.(s) < inline then begin
              load.(s) <- load.(s) + 1;
              name
            end
            else pick (j + 1)
          in
          Create (pick 0)
      in
      (op, 1_000 + Sim.Rng.int rng 2_001))

type state = {
  plans : (op * int) array array;
  model : Model.t;
  log : Model.file;  (* one cell per record *)
  mutable next : int;  (* next record to reserve *)
  mutable created : string list;  (* acknowledged creates *)
}

(* Size the log, and create (then remove) one of the run's names in each
   second-level page the run uses, so the index pages exist before the
   run. *)
let setup st _ (w : World.t) =
  World.with_fslib w.World.kfs (fun fs ->
      World.create_file fs "/log" 0o644 (Model.initial st.log);
      World.ok "/sdir" (V.mkdir fs "/sdir" 0o755);
      let seen = Hashtbl.create 512 in
      Array.iter
        (Array.iter (function
          | Create n, _ when not (Hashtbl.mem seen (l2_of n)) ->
              Hashtbl.replace seen (l2_of n) ();
              World.create_file fs ("/sdir/" ^ n) 0o644 "";
              World.ok n (V.unlink fs ("/sdir/" ^ n))
          | _ -> ()))
        st.plans);
  st

let write_record st fs fd writer =
  let i = st.next in
  st.next <- i + 1;
  let stamp = Model.stamp ~writer ~seq:i in
  let w = Model.write_begin st.model st.log ~first:i ~n:1 stamp in
  let r = V.pwrite fs fd ~off:(i * record) (Model.payload 1 (fun _ -> stamp)) in
  Model.write_end w;
  expect_len "record write" record r

let worker c st l ~go ~finish (fs0 : V.fs) p =
  let fd = World.ok "/log" (V.openf fs0 "/log" [ Ft.O_WRONLY ] 0) in
  go ();
  let fs = Probe.wrap c.probe fs0 in
  let plan = st.plans.(p) in
  drive l plan
    ~think:(fun k -> Sim.advance (snd plan.(k)))
    (fun k (op, _) ->
      Probe.span c.probe ~cat:"request"
        ~name:(match op with Record -> "record" | Create _ -> "create")
        ~req:((p * Array.length plan) + k + 1)
        (fun () ->
          match op with
          | Record -> write_record st fs fd (p + 1)
          | Create n ->
              let path = "/sdir/" ^ n in
              let* fd = expect "create" (V.openf fs path [ Ft.O_CREAT; Ft.O_WRONLY ] 0o644) in
              let* () = expect "close" (V.close fs fd) in
              st.created <- path :: st.created;
              Ok ()));
  ignore (V.close fs fd);
  finish fs0

(* After recovery: every acknowledged record in place, every acknowledged
   create in the directory. *)
let check st fs =
  let errs = errors () in
  check_file errs fs "/log" st.log;
  (match V.readdir fs "/sdir" with
  | Error e -> fail errs ("/sdir: " ^ Treasury.Errno.to_string e)
  | Ok ents ->
      let names = Hashtbl.create 4096 in
      List.iter (fun d -> Hashtbl.replace names ("/sdir/" ^ d.Ft.d_name) ()) ents;
      List.iter
        (fun p -> if not (Hashtbl.mem names p) then fail errs ("lost acknowledged create: " ^ p))
        st.created);
  messages errs

(* The selfcheck's write: one more record, fences dropped.  The log was
   sized with one spare record for it. *)
let final_write st fs =
  match V.openf fs "/log" [ Ft.O_WRONLY ] 0 with
  | Ok fd ->
      ignore (write_record st fs fd 99);
      ignore (V.close fs fd)
  | Error _ -> ()

let run c =
  let rng = Sim.Rng.create (Int64.of_int c.seed) in
  let n = scaled c 800 in
  let load = Array.make Zofs.Layout.l1_entries 0 in
  let plans = Array.init procs (fun p -> gen rng load ~creates:(p < procs - 1) p n) in
  let records =
    Array.fold_left
      (fun a plan -> Array.fold_left (fun a (op, _) -> if op = Record then a + 1 else a) a plan)
      1 plans
  in
  let model = Model.create () in
  let st =
    {
      plans;
      model;
      log = Model.file model ~name:"/log" ~ncells:records;
      next = 0;
      created = [];
    }
  in
  let l = loop () in
  Harness.run c ~pages:65536 ~threads:procs ~setup:(setup st)
    ~start:(fun w fsw st ~go ~finish ->
      for p = 0 to procs - 1 do
        spawn_process w ~name:(Printf.sprintf "tenant%d" p) ~threads:1 fsw.World.kfs
          (fun fs _ -> worker c st l ~go ~finish fs p)
      done)
    ~check ~final_write
  |> closed_world l
