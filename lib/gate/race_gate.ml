(* The race-sanitizer gate, `race` (DESIGN.md §15).

   The check gate's workload suite plus a chaos-lite scenario (a lease
   holder dies mid-write and a survivor steals the lease) run on ZoFS with
   the happens-before + lockset detector of lib/race attached in fail
   mode; any unannotated race is a violation.  The summary pins each
   workload's shadow-map shape.  Two negatives MUST race: a lease-elided
   append and a torn two-process dentry insert. *)

module FL = Workloads.Fslab
module V = Treasury.Vfs
module Ft = Treasury.Fs_types
module J = Obs.Json

let ok = function
  | Ok v -> v
  | Error e -> failwith ("race gate op failed: " ^ Treasury.Errno.to_string e)

let block = String.make 4096 'r'

(* ---- chaos-lite: lease-holder death + steal ------------------------------ *)

(* Three victims with staggered kill points (so at least one dies inside a
   leased write) hammer private files; a stealer then overwrites the same
   files.  The acquire path's dead-victim steal joins the corpse's whole
   vector clock, so the stealer's overwrites of the victim's unfenced tail
   must NOT be reported — this scenario is a false-positive regression
   test for the steal happens-before edge. *)
let chaos_lite () =
  let ops = Check_gate.ops in
  let world = Sim.create () in
  let proc = Sim.Proc.create ~uid:0 ~gid:0 () in
  let nvictims = 3 in
  Sim.spawn world ~proc ~name:"setup" (fun () ->
      let inst = FL.make FL.Zofs in
      let fs = inst.FL.fs in
      for v = 0 to nvictims - 1 do
        let path = Printf.sprintf "/victim%d" v in
        let fd = ok (V.openf fs path [ Ft.O_CREAT; Ft.O_WRONLY ] 0o644) in
        for _ = 1 to 2 do
          ignore (ok (V.write fs fd block))
        done;
        ok (V.close fs fd)
      done;
      for v = 0 to nvictims - 1 do
        let path = Printf.sprintf "/victim%d" v in
        let vt =
          Sim.spawn_tid world ~proc ~name:(Printf.sprintf "victim%d" v)
            (fun () ->
              let fd = ok (V.openf fs path [ Ft.O_WRONLY ] 0) in
              for _ = 1 to max 4 ops do
                ignore (ok (V.pwrite fs fd ~off:0 block))
              done;
              ok (V.close fs fd))
        in
        (* Staggered suspension-point counts, all inside the write loop
           (a victim's 12 overwrites suspend a couple of hundred times in
           total), so each victim dies holding its inode lease at a
           different depth. *)
        Sim.arm_kill ~tid:vt ~after:(60 + (v * 60))
      done;
      Sim.spawn world ~proc ~name:"stealer" (fun () ->
          (* Outlive every victim's lease, then overwrite their files: the
             acquires steal the dead holders' leases. *)
          Sim.sleep_until 2_000_000;
          for v = 0 to nvictims - 1 do
            let path = Printf.sprintf "/victim%d" v in
            let fd = ok (V.openf fs path [ Ft.O_WRONLY ] 0) in
            for _ = 1 to max 4 ops do
              ignore (ok (V.pwrite fs fd ~off:0 block))
            done;
            ok (V.close fs fd)
          done;
          (* The scenario is vacuous unless the victims actually died
             mid-write; the count is deterministic, so print it for the
             transcript rather than silently passing. *)
          Printf.printf "  chaos-lite: %d lease holder(s) killed mid-write\n%!"
            (Sim.killed_threads ())));
  Sim.run world

(* ---- negatives ----------------------------------------------------------- *)

(* Both scenarios run with the detector in fail mode and must raise
   {!Race.Race_found}: they exist to prove the sanitizer still has teeth.
   [body] sets up a ZoFS world in a root process; [pair] then runs [f] as
   two processes over its KernFS, each with its own FSLib.  Process 0's
   FSLib is the [elide_leases] variant: it skips its inode leases, the
   simulated equivalent of the locking bug the sanitizer is for. *)
let run_negative body =
  Race.enable_auto Race.Fail;
  Race.reset_report ();
  let caught = ref None in
  Fun.protect
    ~finally:(fun () ->
      Race.disable_auto ();
      Race.detach ())
    (fun () ->
      let world = Sim.create () in
      let pair kfs name f =
        for w = 0 to 1 do
          let variant =
            { Zofs.Ufs.default_variant with Zofs.Ufs.elide_leases = w = 0 }
          in
          Sim.spawn world
            ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ())
            ~name:(Printf.sprintf "%s%d" name w)
            (fun () ->
              try f w (FL.zofs_fslib ~variant kfs)
              with Race.Race_found v -> caught := Some v)
        done
      in
      Sim.spawn world
        ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ())
        ~name:"setup"
        (fun () ->
          let inst = FL.make FL.Zofs in
          body inst.FL.fs (pair (Option.get inst.FL.kernfs)));
      (try Sim.run world with Race.Race_found v -> caught := Some v);
      Option.iter (fun v -> print_endline (Race.string_of_violation v)) !caught;
      !caught <> None || (Race.report ()).Race.r_races <> [])

(* Two appenders overwrite the same file block; one elides the inode
   lease.  The elided process's size/mtime/data stores conflict with the
   leased process's. *)
let elided_append () =
  run_negative (fun fs pair ->
      let fd0 = ok (V.openf fs "/shared" [ Ft.O_CREAT; Ft.O_WRONLY ] 0o644) in
      for _ = 1 to 2 do
        ignore (ok (V.write fs fd0 block))
      done;
      ok (V.close fs fd0);
      pair "appender" (fun _ fs ->
          let fd = ok (V.openf fs "/shared" [ Ft.O_WRONLY ] 0) in
          for _ = 1 to 24 do
            ignore (ok (V.pwrite fs fd ~off:4096 block))
          done;
          ok (V.close fs fd)))

(* Two creators insert dentries into the same directory; one elides the
   directory lease, so both scan to the same free dentry slot and tear
   each other's insert. *)
let torn_insert () =
  run_negative (fun fs pair ->
      ok (V.mkdir fs "/d" 0o755);
      pair "creator" (fun w fs ->
          for i = 0 to 15 do
            let path = Printf.sprintf "/d/w%d_%d" w i in
            let fd = ok (V.openf fs path [ Ft.O_CREAT; Ft.O_WRONLY ] 0o644) in
            ignore (ok (V.write fs fd "x"));
            ok (V.close fs fd)
          done))

(* The committed baseline records the negatives' verdicts next to the
   suite, so [run] and the harness share one run of each. *)
let negatives =
  [
    ("lease_elided_append", lazy (elided_append ()));
    ("torn_dentry_insert", lazy (torn_insert ()));
  ]

(* ---- the gate ------------------------------------------------------------ *)

let run () =
  Race.enable_auto Race.Fail;
  let suite = Check_gate.suite @ [ ("chaos-lite", chaos_lite) ] in
  Printf.printf "race: %d workloads, %d threads, %d ops/thread\n%!"
    (List.length suite) Check_gate.threads Check_gate.ops;
  let rows =
    List.map
      (fun (name, run) ->
        Race.reset_report ();
        let raised =
          match run () with
          | () -> None
          | exception Race.Race_found v -> Some (Race.string_of_violation v)
        in
        let r = Race.report () in
        let nraces = List.length r.Race.r_races in
        let allow = List.sort compare r.Race.r_allowlist in
        Printf.printf "  %-12s %d race(s), %d words shadowed\n%!" name nraces
          r.Race.r_words_tracked;
        if nraces > 0 then Race.print_report ();
        let violations =
          match raised with
          | Some v -> [ name ^ ":\n" ^ v ]
          | None when nraces > 0 -> [ Printf.sprintf "%s: %d race(s)" name nraces ]
          | None -> []
        in
        ( J.Obj
            [
              ("name", J.Str name);
              ("races", Gate.int nraces);
              ("words_tracked", Gate.int r.Race.r_words_tracked);
              ("sync_words", Gate.int r.Race.r_sync_words);
              ("shadow_bytes", Gate.int r.Race.r_shadow_bytes);
              ( "allowlist",
                J.Arr
                  (List.map
                     (fun (site, n) ->
                       J.Obj [ ("site", J.Str site); ("hits", Gate.int n) ])
                     allow) );
            ],
          violations ))
      suite
  in
  Race.disable_auto ();
  Race.detach ();
  let summary =
    J.Obj
      [
        ("schema", J.Str "zofs-race-bench-v1");
        ("mode", J.Str "fail");
        ("threads", Gate.int Check_gate.threads);
        ("ops", Gate.int Check_gate.ops);
        ("workloads", J.Arr (List.map fst rows));
        ( "negatives",
          J.Obj (List.map (fun (n, c) -> (n, J.Bool (Lazy.force c))) negatives) );
      ]
  in
  (summary, List.concat_map snd rows)

let gate =
  {
    Gate.name = "race";
    run;
    negatives = List.map (fun (n, c) -> (n, fun () -> Lazy.force c)) negatives;
  }
