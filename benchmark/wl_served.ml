(* served-open: the serving plane and everything under it, as arrivals
   come in.  An open loop: Poisson arrivals drawn from the seed are dealt
   round-robin to 64 persistent client connections (8 client processes x 8
   threads; 4 tenants of 2 processes each) and go through Serve.submit
   with max_inflight 8, quotas that never bind, and a 2 ms deadline.  The
   rate steps through a ladder of rungs; each request is timed from when
   it was due, so a client that falls behind counts against latency.  Mix:
   70% read of 0.5-4 KB (length uniform, to the byte), 20% 512 B
   overwrite, 10% create+unlink of the connection's scratch file in its
   tenant's directory.

   Connections are persistent threads: a fresh simulated thread per
   request would start every request with a cold line cache and claim a
   fresh allocator slot, which no real server does. *)

module V = Treasury.Vfs
module Ft = Treasury.Fs_types
module Serve = Serving.Serve
open Harness

let name = "served-open"
let client_procs = 8
let threads_per = 8
let conns = client_procs * threads_per
let tenants = 4
let nfiles = 64
let block = 4096
let cpb = block / Model.cell
let rungs = [| 1000; 1500; 2000; 2500; 3000; 3500; 4000 |]  (* kreq/s *)
let reference = 2  (* the 2 Mreq/s rung: where the latency metrics are read *)
let deadline_ns = 2_000_000
let rung_gap = 1_000_000  (* idle time between rungs *)

(* Per-layer metrics of this workload (0 on the others). *)
let layers =
  [
    ("serve.queue_wait_ns.p99", "ns");
    ("serve.exec_ns.p50", "ns");
    ("serve.client_late_ns.p99", "ns");
    ("serve.shed_ratio", "ratio");
    ("serve.timeout_ratio", "ratio");
  ]
  @ Array.to_list (Array.map (fun r -> (Printf.sprintf "serve.p99_ns.at_%dk" r, "ns")) rungs)

type kind =
  | Read of int * int * int  (* file, block, length *)
  | Overwrite of int * int  (* file, cell *)
  | Temp

type req = { due : int;  (* offset from the rung's start *) kind : kind }

let tenant_of_conn c = c / threads_per / (client_procs / tenants)

(* A coffer has 63 allocator slots: the last connection never allocates
   (its scratch-file requests become reads), so no connection ever has to
   steal a slot from another (README.md, bugs d and e). *)
let allocates c = c < conns - 1

(* Request [k] goes to connection [k mod conns], so its tenant is known
   when it is drawn. *)
let gen rng sizes ~rate n =
  let mean = 1e6 /. float_of_int rate in
  let clock = ref 0. in
  Array.init n (fun k ->
      clock := !clock -. (mean *. log (1. -. Sim.Rng.float rng 1.));
      let t = tenant_of_conn (k mod conns) and f = Sim.Rng.int rng nfiles in
      let kind =
        match Sim.Rng.int rng 100 with
        | r when r < 70 || (r >= 90 && not (allocates (k mod conns))) ->
            Read (f, Sim.Rng.int rng sizes.(t).(f), Model.cell + Sim.Rng.int rng (block - Model.cell + 1))
        | r when r < 90 -> Overwrite (f, Sim.Rng.int rng (sizes.(t).(f) * cpb))
        | _ -> Temp
      in
      { due = int_of_float !clock; kind })

let file_path t f = Printf.sprintf "/ten%d/f%d" t f
let temp_path c = Printf.sprintf "/ten%d/tmp%d" (tenant_of_conn c) c

(* What one rung measured. *)
type rung = {
  lat : Stats.t;  (* from due time; a failed request is infinite *)
  late : Stats.t;  (* submit - due *)
  qwait : Stats.t;
  exec : Stats.t;
  mutable ok : int;
  mutable err : int;
  mutable shed : int;
  mutable timeout : int;
  mutable first_due : int;
  mutable last_done : int;
}

type state = {
  model : Model.t;
  files : Model.file array array;  (* tenant -> file *)
  plan : req array array;  (* rung -> requests *)
  stats : rung array;
  base : int array;  (* rung start times, -1 until known *)
  arrived : int array;  (* connections done with each rung *)
  mutable warmed : int;  (* connections done warming up *)
  seqs : int array;  (* per connection, for stamps *)
  errs : errors;
  mutable srv : Serve.t option;
  mutable qwait_total : int;
}

let setup st _ (w : World.t) =
  let srv = Serve.create ~max_inflight:8 () in
  for t = 0 to tenants - 1 do
    Serve.add_tenant srv ~id:t ~rate_per_ms:10_000_000 ~burst:1_000_000 ~queue_cap:1024 ()
  done;
  st.srv <- Some srv;
  World.with_fslib w.World.kfs (fun fs ->
      for t = 0 to tenants - 1 do
        World.ok "tenant dir" (V.mkdir fs (Printf.sprintf "/ten%d" t) 0o755);
        Array.iteri (fun f mf -> World.create_file fs (file_path t f) 0o644 (Model.initial mf)) st.files.(t)
      done;
      (* grow the directories' index for the scratch names once, so a
         create never allocates under its directory's lease *)
      for c = 0 to conns - 1 do
        World.create_file fs (temp_path c) 0o644 "";
        World.ok "scratch" (V.unlink fs (temp_path c))
      done);
  st

let body st c fs kind =
  let t = tenant_of_conn c in
  match kind with
  | Read (f, b, len) ->
      let* fd = expect "open" (V.openf fs (file_path t f) [ Ft.O_RDONLY ] 0) in
      let buf = Bytes.create len in
      let rs = Model.read_begin st.model in
      let n = V.pread fs fd ~off:(b * block) buf 0 len in
      let re = Sim.now () in
      Model.read_end st.model rs;
      let cl = V.close fs fd in
      let* () = expect_len "pread" len n in
      let* () = expect "close" cl in
      (match Model.check_read st.files.(t).(f) ~first:(b * cpb) ~len buf 0 ~rs ~re with
      | None -> ()
      | Some msg -> fail st.errs msg);
      Ok ()
  | Overwrite (f, cell) ->
      st.seqs.(c) <- st.seqs.(c) + 1;
      let stamp = Model.stamp ~writer:(c + 1) ~seq:st.seqs.(c) in
      let* fd = expect "open" (V.openf fs (file_path t f) [ Ft.O_WRONLY ] 0) in
      let w = Model.write_begin st.model st.files.(t).(f) ~first:cell ~n:1 stamp in
      let n = V.pwrite fs fd ~off:(cell * Model.cell) (Model.payload 1 (fun _ -> stamp)) in
      Model.write_end w;
      let cl = V.close fs fd in
      let* () = expect_len "pwrite" Model.cell n in
      expect "close" cl
  | Temp ->
      let p = temp_path c in
      let* fd = expect "create" (V.openf fs p [ Ft.O_CREAT; Ft.O_WRONLY ] 0o644) in
      let* () = expect "close" (V.close fs fd) in
      expect "unlink" (V.unlink fs p)

(* The serve call reports errnos; the body's own failures (a wrong read,
   an unexpected errno) are recorded as they happen. *)
let submit c st srv conn fs r k (q : req) =
  let rs = st.stats.(r) in
  let due = st.base.(r) + q.due in
  Sim.sleep_until due;
  let t_sub = Sim.now () in
  Stats.add rs.late (t_sub - due);
  if k = 0 then rs.first_due <- due;
  let tb0 = ref (-1) and tb1 = ref 0 in
  let outcome =
    Probe.span c.probe ~cat:"serve" ~name:"submit" ~req:((r * 1_000_000) + k + 1) (fun () ->
        Serve.submit srv ~tenant_id:(tenant_of_conn conn)
          ~write:(match q.kind with Read _ -> false | _ -> true)
          ~deadline_ns
          (fun () ->
            tb0 := Sim.now ();
            let res =
              Probe.span c.probe ~cat:"request"
                ~name:(match q.kind with Read _ -> "read" | Overwrite _ -> "overwrite" | Temp -> "temp")
                (fun () -> body st conn fs q.kind)
            in
            tb1 := Sim.now ();
            match res with
            | Ok () -> Ok ()
            | Error msg ->
                fail st.errs msg;
                Error Treasury.Errno.EIO))
  in
  let t_done = Sim.now () in
  tick ();
  rs.last_done <- max rs.last_done t_done;
  if !tb0 >= 0 then begin
    Stats.add rs.qwait (!tb0 - t_sub);
    Stats.add rs.exec (!tb1 - !tb0);
    st.qwait_total <- st.qwait_total + (!tb0 - t_sub);
    (* nothing but queueing and the body may take simulated time *)
    if t_done - t_sub <> !tb0 - t_sub + (!tb1 - !tb0) then
      fail st.errs
        (Printf.sprintf "serve: request took %d ns = queue %d + body %d + %d unaccounted"
           (t_done - t_sub) (!tb0 - t_sub) (!tb1 - !tb0) (t_done - !tb1))
  end;
  match outcome with
  | Serve.Done (Ok ()) ->
      rs.ok <- rs.ok + 1;
      Stats.add rs.lat (t_done - due)
  | Serve.Done (Error _) ->
      rs.err <- rs.err + 1;
      Stats.add rs.lat max_int
  | Serve.Shed _ ->
      rs.shed <- rs.shed + 1;
      Stats.add rs.lat max_int
  | Serve.Timed_out _ ->
      rs.timeout <- rs.timeout + 1;
      Stats.add rs.lat max_int

(* Connection [conn] handles requests [conn], [conn + 64], ... of every
   rung; the last connection to finish warming up schedules the first rung,
   and the last to finish a rung schedules the next one. *)
let client c st ~go ~finish (fs : V.fs) conn =
  let srv = Option.get st.srv in
  (* warm-up, before the first rung: map the tenant's coffer, and claim an
     allocator slot at the start line, where every connection claims one
     within microseconds (a later claim could steal the slot of a
     connection that has been idle for a lease's length) *)
  ignore (body st conn fs (Read (0, 0, block)));
  go ();
  let fsw = Probe.wrap c.probe fs in
  if allocates conn then ignore (body st conn fsw Temp);
  st.warmed <- st.warmed + 1;
  if st.warmed = conns then st.base.(0) <- Sim.now () + rung_gap;
  Array.iteri
    (fun r reqs ->
      while st.base.(r) < 0 do
        Sim.advance 50_000
      done;
      let k = ref conn in
      while !k < Array.length reqs do
        submit c st srv conn fsw r !k reqs.(!k);
        k := !k + conns
      done;
      st.arrived.(r) <- st.arrived.(r) + 1;
      if st.arrived.(r) = conns && r + 1 < Array.length rungs then
        st.base.(r + 1) <- Sim.now () + rung_gap)
    st.plan;
  finish fs

let check st fs =
  let errs = errors () in
  Array.iteri
    (fun t files ->
      Array.iteri (fun f mf -> check_file errs fs (file_path t f) mf) files)
    st.files;
  for c = 0 to conns - 1 do
    if V.exists fs (temp_path c) then fail errs (temp_path c ^ ": survived its unlink")
  done;
  messages errs

let final_write st fs =
  let stamp = Model.stamp ~writer:99 ~seq:0 in
  match V.openf fs (file_path 0 0) [ Ft.O_WRONLY ] 0 with
  | Ok fd ->
      let w = Model.write_begin st.model st.files.(0).(0) ~first:0 ~n:1 stamp in
      ignore (V.pwrite fs fd ~off:0 (Model.payload 1 (fun _ -> stamp)));
      Model.write_end w;
      ignore (V.close fs fd)
  | Error _ -> ()

(* ---- metrics ----------------------------------------------------------- *)

let failures r = r.err + r.shed + r.timeout

(* The highest rate meeting the latency limit, from each rung's p99 over
   the pooled worlds.  Latency is timed from the due time, so a growing
   backlog shows in p99 itself; the capacity is where p99 crosses the
   limit, interpolated on log p99 between the two rungs around the
   crossing, and never past a rung that failed more than 0.1% of its
   requests.  (Judging whole rungs pass/fail moved the answer by a rung
   between seeds.) *)
let capacity p99 ~failed ~attempted =
  let n = Array.length rungs in
  let rate i = float_of_int rungs.(i) in
  let limit = float_of_int slo_ns in
  let rec cross i =
    if i = n then rate (n - 1)
    else if failed.(i) * 1000 > attempted.(i) then if i = 0 then 0. else rate (i - 1)
    else if p99.(i) <= limit then cross (i + 1)
    else if i = 0 then rate 0 *. limit /. p99.(0)
    else
      rate (i - 1)
      +. (rate i -. rate (i - 1)) *. log (limit /. p99.(i - 1)) /. log (p99.(i) /. p99.(i - 1))
  in
  cross 0

(* The end-to-end metrics, pooled over worlds: latency at the reference
   rung, goodput at the top rung (the rate served with the system
   saturated), the capacity at the latency limit, and recovery time. *)
let metrics (ws : world list) =
  let pooled i = Stats.concat (List.map (fun (w : world) -> w.lat.(i)) ws) in
  let rungs_lat = Array.init (Array.length rungs) pooled in
  let sum f = Array.init (Array.length rungs) (fun i -> List.fold_left (fun a w -> a + f w i) 0 ws) in
  let p99 = Array.map (fun l -> float_of_int (Stats.percentile l 0.99)) rungs_lat in
  let s = Stats.sorted rungs_lat.(reference) in
  ( latency_metrics s
    @ [
        ("throughput_kops", mean_of (fun w -> w.rate) ws *. 1e6);
        ( "max_kops_at_slo",
          capacity p99
            ~failed:(sum (fun w i -> w.fails.(i)))
            ~attempted:(sum (fun w i -> Stats.count w.lat.(i))) );
        ("recovery_ms", mean_of (fun w -> float_of_int w.recovery_ns) ws /. 1e6);
      ],
    [ ("latency_samples", Array.length s) ] )

let run c =
  let rng = Sim.Rng.create (Int64.of_int c.seed) in
  let n = scaled c 10_000 in
  (* the reference rung gets four times the requests: its p99.9 is the
     noisiest statistic the run reports *)
  let size i = if i = reference then 4 * n else n in
  let sizes = Array.init tenants (fun _ -> Array.init nfiles (fun _ -> 3 + Sim.Rng.int rng 3)) in
  let model = Model.create () in
  let st =
    {
      model;
      files =
        Array.init tenants (fun t ->
            Array.init nfiles (fun f ->
                Model.file model ~name:(file_path t f) ~ncells:(sizes.(t).(f) * cpb)));
      plan = Array.mapi (fun i rate -> gen rng sizes ~rate (size i)) rungs;
      stats =
        Array.map
          (fun _ ->
            {
              lat = Stats.create ();
              late = Stats.create ();
              qwait = Stats.create ();
              exec = Stats.create ();
              ok = 0;
              err = 0;
              shed = 0;
              timeout = 0;
              first_due = 0;
              last_done = 0;
            })
          rungs;
      base = Array.make (Array.length rungs) (-1);
      arrived = Array.make (Array.length rungs) 0;
      warmed = 0;
      seqs = Array.make conns 0;
      errs = errors ();
      srv = None;
      qwait_total = 0;
    }
  in
  let o =
    Harness.run c ~pages:8192 ~threads:conns ~setup:(setup st)
      ~start:(fun w fsw st ~go ~finish ->
        for p = 0 to client_procs - 1 do
          spawn_process w ~name:(Printf.sprintf "client%d" p) ~threads:threads_per
            ~on_fslib:(fun disp -> Serve.attach_dispatcher (Option.get st.srv) disp)
            fsw.World.kfs
            (fun fs i -> client c st ~go ~finish fs ((p * threads_per) + i))
        done)
      ~check ~final_write
  in
  let books =
    List.filter_map
      (fun s ->
        if Serve.accounted s = s.Serve.ts_submitted then None
        else
          Some
            (Printf.sprintf "serve: tenant %d books don't balance: submitted %d, accounted %d"
               s.Serve.ts_id s.Serve.ts_submitted (Serve.accounted s)))
      (Serve.tenant_stats (Option.get st.srv))
  in
  (match c.probe with
  | Some p when Probe.obs p "serve.queue_wait_ns" <> st.qwait_total ->
      fail st.errs
        (Printf.sprintf "conservation: queue wait timed %d ns, Obs serve.queue_wait_ns %d ns"
           st.qwait_total (Probe.obs p "serve.queue_wait_ns"))
  | _ -> ());
  let top = st.stats.(Array.length rungs - 1) in
  let total f = Array.fold_left (fun a r -> a + f r) 0 st.stats in
  let all f = Stats.concat (Array.to_list (Array.map f st.stats)) in
  let requests = total (fun r -> Stats.count r.lat) in
  let ratio x = if requests = 0 then 0. else float_of_int x /. float_of_int requests in
  {
    setup_s = o.o_setup_s;
    host_rates = o.o_host_rates;
    ops = requests;
    failed = total failures;
    lat = Array.map (fun r -> r.lat) st.stats;
    fails = Array.map failures st.stats;
    rate =
      (if top.last_done > top.first_due then
         float_of_int top.ok /. float_of_int (top.last_done - top.first_due)
       else 0.);
    recovery_ns = o.o_recovery_ns;
    layers =
      [
        ("serve.queue_wait_ns.p99", "ns", float_of_int (Stats.percentile (all (fun r -> r.qwait)) 0.99));
        ("serve.exec_ns.p50", "ns", float_of_int (Stats.percentile (all (fun r -> r.exec)) 0.50));
        ( "serve.client_late_ns.p99",
          "ns",
          float_of_int (Stats.percentile (all (fun r -> r.late)) 0.99) );
        ("serve.shed_ratio", "ratio", ratio (total (fun r -> r.shed)));
        ("serve.timeout_ratio", "ratio", ratio (total (fun r -> r.timeout)));
      ]
      @ Array.to_list
          (Array.mapi
             (fun i r ->
               ( Printf.sprintf "serve.p99_ns.at_%dk" rungs.(i),
                 "ns",
                 float_of_int (Stats.percentile r.lat 0.99) ))
             st.stats);
    violations = messages st.errs @ books @ o.o_violations;
  }
