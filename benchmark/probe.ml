(* The traced run's instruments, all outside the program: spans recorded
   around the calls into each layer (Serve.submit, the request body, every
   Treasury.Vfs call), counters the program already exports sampled around
   the measured phase, and the benchmark's own subscribers on the NVM
   device and the MPK unit.

   Nothing here calls [Sim.advance]: a traced run's simulated times are the
   untraced run's, byte for byte (the harness checks it). *)

module V = Treasury.Vfs
module D = Nvm.Device

(* ---- spans ------------------------------------------------------------ *)

type frame = {
  f_id : int;
  f_ts : int;
  f_parent : int;
  f_req : int;
  mutable f_child : int;  (* time covered by child spans *)
}

type span = {
  s_cat : string;
  s_name : string;
  s_tid : int;
  s_ts : int;
  s_dur : int;
  s_id : int;
  s_parent : int;
  s_req : int;
}

(* Spans kept for the Chrome trace file; self times cover every span. *)
let max_export = 20_000

type t = {
  stacks : (int, frame list) Hashtbl.t;  (* tid -> open spans *)
  mutable next_id : int;
  mutable spans : span list;  (* newest first, at most [max_export] *)
  mutable nspans : int;
  self_ns : (string, int ref) Hashtbl.t;  (* category -> self time *)
  mutable open_count : int;
  (* Vfs calls *)
  vfs_lat : (string, Stats.t) Hashtbl.t;
  mutable vfs_ns : int;
  mutable user_bytes : int;
  (* device and MPK subscribers, counting only inside the window *)
  mutable measuring : bool;
  mutable bytes_written : int;
  mutable loads : int;
  mutable media_ns : int;
  mutable windows : int;
  (* counters sampled at the window edges *)
  mutable obs0 : Obs.Snapshot.t option;
  mutable obs_diff : Obs.Snapshot.t option;
  mutable base : (string * int) list;
  mutable deltas : (string * int) list;
}

let create () =
  {
    stacks = Hashtbl.create 64;
    next_id = 1;
    spans = [];
    nspans = 0;
    self_ns = Hashtbl.create 8;
    open_count = 0;
    vfs_lat = Hashtbl.create 16;
    vfs_ns = 0;
    user_bytes = 0;
    measuring = false;
    bytes_written = 0;
    loads = 0;
    media_ns = 0;
    windows = 0;
    obs0 = None;
    obs_diff = None;
    base = [];
    deltas = [];
  }

let add_self p cat ns =
  match Hashtbl.find_opt p.self_ns cat with
  | Some r -> r := !r + ns
  | None -> Hashtbl.replace p.self_ns cat (ref ns)

(* [span p ~cat ~name ?req f]: one span around [f].  [req] ties the spans
   of one request together; children inherit their parent's. *)
let span p ~cat ~name ?req f =
  match p with
  | None -> f ()
  | Some p ->
      let tid = Sim.self_tid () in
      let stack = Option.value ~default:[] (Hashtbl.find_opt p.stacks tid) in
      let parent = match stack with fr :: _ -> Some fr | [] -> None in
      let req =
        match (req, parent) with
        | Some r, _ -> r
        | None, Some fr -> fr.f_req
        | None, None -> 0
      in
      let fr =
        {
          f_id = p.next_id;
          f_ts = Sim.now ();
          f_parent = (match parent with Some fr -> fr.f_id | None -> 0);
          f_req = req;
          f_child = 0;
        }
      in
      p.next_id <- p.next_id + 1;
      p.open_count <- p.open_count + 1;
      Hashtbl.replace p.stacks tid (fr :: stack);
      let finish () =
        p.open_count <- p.open_count - 1;
        Hashtbl.replace p.stacks tid stack;
        let dur = Sim.now () - fr.f_ts in
        (match parent with Some pf -> pf.f_child <- pf.f_child + dur | None -> ());
        add_self p cat (dur - fr.f_child);
        p.nspans <- p.nspans + 1;
        if p.nspans <= max_export then
          p.spans <-
            {
              s_cat = cat;
              s_name = name;
              s_tid = tid;
              s_ts = fr.f_ts;
              s_dur = dur;
              s_id = fr.f_id;
              s_parent = fr.f_parent;
              s_req = fr.f_req;
            }
            :: p.spans
      in
      match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e

let self_ns p cat = match Hashtbl.find_opt p.self_ns cat with Some r -> !r | None -> 0

(* Chrome/Perfetto trace of the kept spans, sim-time microseconds. *)
let chrome_json p =
  let b = Buffer.create (1 lsl 16) in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"span\":%d,\"parent\":%d,\"req\":%d}}"
        s.s_name s.s_cat
        (float_of_int s.s_ts /. 1000.)
        (float_of_int s.s_dur /. 1000.)
        s.s_tid s.s_id s.s_parent s.s_req)
    (List.rev p.spans);
  Buffer.add_string b "]}";
  Buffer.contents b

(* ---- the timed Vfs ---------------------------------------------------- *)

module Timed = struct
  type nonrec t = { p : t; inner : V.fs }

  let call t op f =
    span (Some t.p) ~cat:"vfs" ~name:op (fun () ->
        let t0 = Sim.now () in
        let r = f () in
        let dt = Sim.now () - t0 in
        t.p.vfs_ns <- t.p.vfs_ns + dt;
        (match Hashtbl.find_opt t.p.vfs_lat op with
        | Some s -> Stats.add s dt
        | None ->
            let s = Stats.create () in
            Stats.add s dt;
            Hashtbl.replace t.p.vfs_lat op s);
        r)

  let wrote t data = t.p.user_bytes <- t.p.user_bytes + String.length data
  let name t = V.name t.inner
  let openf t path flags mode = call t "open" (fun () -> V.openf t.inner path flags mode)
  let mkdir t path mode = call t "mkdir" (fun () -> V.mkdir t.inner path mode)
  let rmdir t path = call t "rmdir" (fun () -> V.rmdir t.inner path)
  let unlink t path = call t "unlink" (fun () -> V.unlink t.inner path)
  let rename t a b = call t "rename" (fun () -> V.rename t.inner a b)
  let stat t path = call t "stat" (fun () -> V.stat t.inner path)
  let lstat t path = call t "lstat" (fun () -> V.lstat t.inner path)
  let readdir t path = call t "readdir" (fun () -> V.readdir t.inner path)
  let chmod t path mode = call t "chmod" (fun () -> V.chmod t.inner path mode)
  let chown t path u g = call t "chown" (fun () -> V.chown t.inner path u g)

  let symlink t ~target ~link =
    call t "symlink" (fun () -> V.symlink t.inner ~target ~link)

  let readlink t path = call t "readlink" (fun () -> V.readlink t.inner path)
  let truncate t path len = call t "truncate" (fun () -> V.truncate t.inner path len)
  let close t fd = call t "close" (fun () -> V.close t.inner fd)
  let read t fd buf off len = call t "read" (fun () -> V.read t.inner fd buf off len)

  let pread t fd ~off buf boff len =
    call t "pread" (fun () -> V.pread t.inner fd ~off buf boff len)

  let write t fd data =
    wrote t data;
    call t "write" (fun () -> V.write t.inner fd data)

  let pwrite t fd ~off data =
    wrote t data;
    call t "pwrite" (fun () -> V.pwrite t.inner fd ~off data)

  let lseek t fd pos wh = call t "lseek" (fun () -> V.lseek t.inner fd pos wh)
  let fsync t fd = call t "fsync" (fun () -> V.fsync t.inner fd)
  let fstat t fd = call t "fstat" (fun () -> V.fstat t.inner fd)
  let ftruncate t fd len = call t "ftruncate" (fun () -> V.ftruncate t.inner fd len)
end

(* Every Vfs call of the measured phase goes through [wrap]. *)
let wrap p fs =
  match p with None -> fs | Some p -> V.Fs ((module Timed), { Timed.p; inner = fs })

(* ---- subscribers and counters ----------------------------------------- *)

let attach p dev mpk =
  ignore
    (D.add_trace_subscriber dev (fun ev ->
         if p.measuring then
           match ev with
           | D.T_store { len; ns; _ } | D.T_nt_store { len; ns; _ } ->
               p.bytes_written <- p.bytes_written + len;
               p.media_ns <- p.media_ns + ns
           | D.T_load { ns; _ } ->
               p.loads <- p.loads + 1;
               p.media_ns <- p.media_ns + ns
           | D.T_cas { ns; _ } | D.T_clwb { ns; _ } | D.T_fence { ns; _ } ->
               p.media_ns <- p.media_ns + ns
           | D.T_media_fault _ | D.T_reset -> ()));
  ignore
    (Mpk.add_trace_subscriber mpk (function
      | Mpk.M_scope_enter _ -> if p.measuring then p.windows <- p.windows + 1
      | Mpk.M_wrpkru _ | Mpk.M_scope_exit -> ()))

let counters kfs dev =
  [
    ("crossings", Treasury.Gate.syscall_count (Treasury.Kernfs.gate kfs));
    ("enlarges", Treasury.Kernfs.enlarge_count kfs);
    ("flushes", D.stat_flushes dev);
    ("fences", D.stat_fences dev);
    ("redundant_flushes", D.stat_redundant_flushes dev);
  ]

let window_begin p kfs dev =
  p.measuring <- true;
  p.obs0 <- Some (Obs.Snapshot.take ());
  p.base <- counters kfs dev

let window_end p kfs dev =
  p.measuring <- false;
  Option.iter
    (fun s0 -> p.obs_diff <- Some (Obs.Snapshot.diff s0 (Obs.Snapshot.take ())))
    p.obs0;
  p.deltas <-
    List.map (fun (k, v) -> (k, v - List.assoc k p.base)) (counters kfs dev)

let obs p name =
  match p.obs_diff with
  | Some d -> Option.value ~default:0 (Obs.Snapshot.counter_value d name)
  | None -> 0

let delta p name = Option.value ~default:0 (List.assoc_opt name p.deltas)
