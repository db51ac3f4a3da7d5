(* Tests for the crash model checker (lib/crashmc): the oracle model's
   semantics, the no-crash oracle/ZoFS agreement property (any drift here
   would poison every crash verdict), exhaustive crash-point sweeps over
   short targeted histories — including the two recovery edge cases the
   checker was built to reach: a crash mid coffer split (cross-coffer
   rename migration) and a crash mid directory growth — and the
   missing-fence negative check that proves the checker can see the bug
   class it exists for. *)

module C = Crashmc
module M = Crashmc.Model
module Op = Workloads.Opscript
module E = Treasury.Errno

let ok = Alcotest.(check bool) "ok" true
let errs e r = Alcotest.(check bool) (E.to_string e) true (r = Error e)

(* ---- the oracle model ---------------------------------------------------- *)

let test_model_semantics () =
  let m = M.create () in
  ok (M.apply m (Op.Mkdir "/d") = Ok ());
  errs E.EEXIST (M.apply m (Op.Mkdir "/d"));
  errs E.EISDIR (M.apply m (Op.Create { path = "/d"; mode = 0o644; data = "x" }));
  errs E.ENOENT (M.apply m (Op.Mkdir "/no/such/dir"));
  ok (M.apply m (Op.Create { path = "/d/f"; mode = 0o644; data = "hello" }) = Ok ());
  errs E.ENOTDIR (M.apply m (Op.Mkdir "/d/f/sub"));
  (* pwrite past EOF zero-fills the gap *)
  ok (M.apply m (Op.Pwrite { path = "/d/f"; off = 8; data = "zz" }) = Ok ());
  ok (M.apply m (Op.Append { path = "/d/f"; data = "!" }) = Ok ());
  (match List.assoc_opt "/d/f" (M.dump m) with
  | Some (`File c) ->
      Alcotest.(check string) "pwrite gap + append" "hello\000\000\000zz!" c
  | _ -> Alcotest.fail "/d/f missing from dump");
  errs E.ENOTEMPTY (M.apply m (Op.Rmdir "/d"));
  errs E.EISDIR (M.apply m (Op.Unlink "/d"));
  errs E.EINVAL (M.apply m (Op.Rename { src = "/d"; dst = "/d/inside" }));
  ok (M.apply m (Op.Rename { src = "/d/f"; dst = "/g" }) = Ok ());
  ok (M.apply m (Op.Rmdir "/d") = Ok ());
  ok (M.apply m (Op.Unlink "/g") = Ok ());
  Alcotest.(check (list string)) "empty after teardown" []
    (List.map M.entry_to_string (M.dump m))

let test_model_copy_is_independent () =
  let a = M.create () in
  ok (M.apply a (Op.Mkdir "/d") = Ok ());
  ok (M.apply a (Op.Create { path = "/d/f"; mode = 0o644; data = "one" }) = Ok ());
  let b = M.copy a in
  ok (M.apply b (Op.Create { path = "/d/f"; mode = 0o644; data = "two" }) = Ok ());
  ok (M.apply b (Op.Mkdir "/e") = Ok ());
  (match List.assoc_opt "/d/f" (M.dump a) with
  | Some (`File c) -> Alcotest.(check string) "original untouched" "one" c
  | _ -> Alcotest.fail "/d/f missing");
  Alcotest.(check bool) "copies diverged" false (M.equal a b)

(* ---- no-crash agreement (the property the whole checker rests on) ------- *)

(* For seeded random op sequences, replaying the script against real ZoFS
   with no crash must land on exactly the oracle's final tree: same paths,
   same kinds, same file contents. *)
let test_no_crash_oracle_agreement () =
  List.iter
    (fun seed ->
      let s =
        Testkit.random_script ~max_len:600 ~seed:(Int64.of_int seed) ~nops:30 ()
      in
      let w = C.prepare s in
      let rp = C.replay w in
      let fs_dump =
        match rp.C.rp_dump with
        | Some d -> d
        | None -> Alcotest.fail "no-crash replay produced no dump"
      in
      let model_dump = M.dump w.C.w_models.(Array.length w.C.w_body) in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d" seed)
        (List.map M.entry_to_string model_dump)
        (List.map M.entry_to_string fs_dump))
    [ 1; 2; 3; 4; 5; 6 ]

(* ---- exhaustive sweeps over short targeted histories --------------------- *)

let assert_clean name (rep : C.report) =
  Alcotest.(check (list string)) (name ^ ": no divergences") []
    (List.map (fun d -> d.C.d_reason) rep.C.r_divergences);
  Alcotest.(check int) (name ^ ": exhaustive") rep.C.r_events rep.C.r_points

(* Every crash point of a single create — including the window between the
   inode publish and the dentry insert — must recover to a state the oracle
   tolerates. *)
let test_exhaustive_create () =
  let s =
    {
      Op.sname = "unit-create";
      setup = [ Op.Mkdir "/d" ];
      body = [ Op.Create { path = "/d/f"; mode = 0o644; data = "hello world" } ];
    }
  in
  assert_clean "create" (C.check s)

(* Every crash point of the crash gate's in-place overwrites: each cell
   the in-flight write covers is all old or all new, the size never moves,
   and recovery never finds an intention to clear. *)
let test_exhaustive_in_place_overwrite () =
  let rep = C.check Gates.Crash_gate.in_place in
  assert_clean "in-place-overwrite" rep;
  Alcotest.(check int) "no intention pending at any point" 0 rep.C.r_intents

(* Crash mid coffer split: renaming a private (0600) file into another
   directory migrates its pages through a transient coffer (split → link →
   merge → retarget).  Every interruption point must leave at least one
   durable name for the file and recover cleanly. *)
let test_exhaustive_coffer_split_rename () =
  let s =
    {
      Op.sname = "unit-split-rename";
      setup =
        [
          Op.Mkdir "/a";
          Op.Mkdir "/c";
          Op.Create { path = "/a/pub"; mode = 0o600; data = String.make 600 'p' };
        ];
      body = [ Op.Rename { src = "/a/pub"; dst = "/c/pub" } ];
    }
  in
  assert_clean "split-rename" (C.check s)

(* Crash mid directory growth: the setup fills a directory past its inline
   dentry slots so the body inserts allocate and link fresh dentry chain
   pages mid-op. *)
let test_exhaustive_directory_growth () =
  let s =
    {
      Op.sname = "unit-dir-growth";
      setup =
        Op.Mkdir "/d"
        :: List.init 20 (fun i ->
               Op.Create
                 { path = Printf.sprintf "/d/f%02d" i; mode = 0o644; data = "x" });
      body =
        List.init 4 (fun i ->
            Op.Create
              { path = Printf.sprintf "/d/g%d" i; mode = 0o644; data = "grow" });
    }
  in
  assert_clean "dir-growth" (C.check s)

(* The fence-elided append commit path (lib/zofs/pbatch.ml): appends that
   stay inside a page, cross into a fresh page (allocation + pointer link
   mid-op), and follow a just-grown file.  Every crash point of the
   coalesced flush/single-barrier sequence must recover to an
   oracle-tolerated state. *)
let test_exhaustive_batched_append () =
  let s =
    {
      Op.sname = "unit-batched-append";
      setup =
        [ Op.Create { path = "/f"; mode = 0o644; data = String.make 3900 'a' } ];
      body =
        [
          Op.Append { path = "/f"; data = String.make 120 'b' };
          Op.Append { path = "/f"; data = String.make 300 'c' };
          Op.Append { path = "/f"; data = String.make 80 'd' };
        ];
    }
  in
  assert_clean "batched-append" (C.check s)

(* The coalesced same-directory rename (the MWRL op): dentry remove + insert
   under one inode lease, fences elided down to the publish points. *)
let test_exhaustive_rename_samedir () =
  let s =
    {
      Op.sname = "unit-rename-samedir";
      setup =
        [
          Op.Mkdir "/d";
          Op.Create { path = "/d/r0"; mode = 0o644; data = "zero" };
          Op.Create { path = "/d/r1"; mode = 0o644; data = "one" };
        ];
      body =
        [
          Op.Rename { src = "/d/r0"; dst = "/d/rn0" };
          Op.Rename { src = "/d/r1"; dst = "/d/rn1" };
        ];
    }
  in
  assert_clean "rename-samedir" (C.check s)

(* Two PROCESSES sharing a file and a directory (ISSUE 9): body op [i] is
   issued by process [i mod 2] through that process's own FSLib, so every
   op reads state the OTHER process just published, and the sweep explores
   crash points landing exactly between one process's publish (its last
   fenced line) and the other's read of it.  Recovery must converge to an
   oracle-tolerated state from every one of them. *)
let test_exhaustive_two_process_shared () =
  let s =
    {
      Op.sname = "unit-two-proc-shared";
      setup =
        [
          Op.Mkdir "/d";
          Op.Create
            { path = "/d/shared"; mode = 0o644; data = String.make 200 's' };
        ];
      body =
        [
          (* P0 *) Op.Append { path = "/d/shared"; data = String.make 90 'A' };
          (* P1 *) Op.Append { path = "/d/shared"; data = String.make 90 'B' };
          (* P0 *) Op.Create { path = "/d/c0"; mode = 0o644; data = "zero" };
          (* P1 *) Op.Create { path = "/d/c1"; mode = 0o644; data = "one" };
          (* P0 *) Op.Append { path = "/d/shared"; data = String.make 90 'C' };
          (* P1 *) Op.Rename { src = "/d/c0"; dst = "/d/c0r" };
        ];
    }
  in
  assert_clean "two-proc-shared" (C.check ~procs:2 s)

(* The same two-process body must also agree with the oracle when no crash
   happens at all — cross-process visibility through separate FSLibs is
   exactly the property the dispatcher's shared-NVM mappings promise. *)
let test_two_process_no_crash_agreement () =
  let s =
    {
      Op.sname = "unit-two-proc-agree";
      setup = [ Op.Mkdir "/d" ];
      body =
        [
          Op.Create { path = "/d/f"; mode = 0o644; data = "base" };
          Op.Append { path = "/d/f"; data = "+p1" };
          Op.Append { path = "/d/f"; data = "+p0" };
          Op.Mkdir "/d/sub";
          Op.Rename { src = "/d/f"; dst = "/d/sub/f" };
        ];
    }
  in
  let w = C.prepare s in
  let rp = C.replay ~procs:2 w in
  let fs_dump =
    match rp.C.rp_dump with
    | Some d -> d
    | None -> Alcotest.fail "two-process no-crash replay produced no dump"
  in
  let model_dump = M.dump w.C.w_models.(Array.length w.C.w_body) in
  Alcotest.(check (list string))
    "two-process tree equals oracle"
    (List.map M.entry_to_string model_dump)
    (List.map M.entry_to_string fs_dump)

(* A short mixed history exercising every op kind the oracle models. *)
let test_exhaustive_mixed_ops () =
  let s =
    {
      Op.sname = "unit-mixed";
      setup = [ Op.Mkdir "/d"; Op.Create { path = "/d/a"; mode = 0o644; data = "aa" } ];
      body =
        [
          Op.Mkdir "/d/sub";
          Op.Append { path = "/d/a"; data = "bb" };
          Op.Rename { src = "/d/a"; dst = "/d/sub/a" };
          Op.Pwrite { path = "/d/sub/a"; off = 1; data = "XY" };
          Op.Unlink "/d/sub/a";
          Op.Rmdir "/d/sub";
        ];
    }
  in
  assert_clean "mixed" (C.check s)

(* ---- the negative check -------------------------------------------------- *)

(* A create, then an append into the new file's partial block. *)
let create_append =
  {
    Op.sname = "unit-dropped-fence";
    setup = [ Op.Mkdir "/d" ];
    body =
      [
        Op.Create { path = "/d/f"; mode = 0o644; data = "hello" };
        Op.Append { path = "/d/f"; data = String.make 150 'w' };
      ];
  }

(* A deliberately dropped fence (acknowledged op whose lines never reach
   NVM) must be reported as a divergence — otherwise the checker is blind
   to its entire reason for existing.  Two inputs: the fslab script, and a
   two-op create + append whose append is the persist batcher's batched
   path, so a fence the batcher needed and did not issue is caught too. *)
let test_missing_fence_is_caught () =
  List.iter
    (fun s ->
      match C.check_missing_fence s with
      | Some _reason -> ()
      | None ->
          Alcotest.failf "%s: injected missing fence was not caught" s.Op.sname)
    [ Op.find "fslab"; create_append ]

(* An in-place test that ignores the size bound lets the append into the
   file's partial last block commit in place: the size never moves and the
   acknowledged bytes are lost, which the crash checker must report. *)
let test_in_place_past_eof_is_caught () =
  match C.check_in_place_past_eof create_append with
  | Some _ -> ()
  | None -> Alcotest.fail "an append taken in place was not caught"

(* The persistence checker is the other auditor of a fence not issued
   (the device fault [Nvm.Device.inject_drop_fences], standing for an
   over-aggressive elision in the persist batcher): publish points see
   lines flushed but never fenced, and it must flag missing-fence. *)
let test_over_elide_flagged_by_persistence_checker () =
  Check.enable_auto ~persist:Check.Log ~guideline:Check.Off ~lock:Check.Off;
  Check.reset_report ();
  Fun.protect
    ~finally:(fun () ->
      Check.disable_auto ();
      Check.detach ();
      Check.reset_report ())
    (fun () ->
      Sim.run_thread ~proc:(Sim.Proc.create ~uid:0 ~gid:0 ()) (fun () ->
          let inst = Workloads.Fslab.make ~pages:2048 Workloads.Fslab.Zofs in
          Nvm.Device.inject_drop_fences inst.Workloads.Fslab.device max_int;
          let fs = inst.Workloads.Fslab.fs in
          let module V = Treasury.Vfs in
          ignore (V.mkdir fs "/d" 0o755);
          ignore (V.write_file fs "/d/f" "hello");
          ignore (V.append_file fs "/d/f" (String.make 200 'x'));
          ignore (V.rename fs "/d/f" "/d/g"));
      let rules =
        List.map (fun v -> v.Check.v_rule) (Check.report ()).Check.r_violations
      in
      Alcotest.(check bool)
        (Printf.sprintf "missing-fence flagged (saw: %s)"
           (String.concat "," rules))
        true
        (List.mem "missing-fence" rules))

(* ---- the crash-point sample ----------------------------------------------- *)

(* Points are keyed by (op index, offset within the op): one more event in
   one op of a synthetic script redraws that op's points and no other's. *)
let test_sample_keyed_by_op () =
  let sample = C.sample_points ~seed:1L ~max_points:40 in
  let counts = [| 50; 80; 7; 120; 33 |] in
  let grown = Array.copy counts in
  grown.(1) <- grown.(1) + 1;
  let a = sample counts and b = sample grown in
  let of_op i = List.filter (fun (j, _) -> j = i) in
  List.iter
    (fun i ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "op %d keeps its points" i)
        (of_op i a) (of_op i b))
    [ 0; 2; 3; 4 ];
  Alcotest.(check bool) "at most the budget" true (List.length a <= 40);
  Alcotest.(check (list (pair int int))) "a short op is explored whole"
    (List.init 7 (fun o -> (2, o + 1)))
    (of_op 2 a);
  List.iter
    (fun i ->
      let offs = List.map snd (of_op i a) in
      Alcotest.(check bool)
        (Printf.sprintf "op %d: first and last event" i)
        true
        (List.mem 1 offs && List.mem counts.(i) offs))
    [ 0; 1; 3; 4 ];
  Alcotest.(check int) "within the budget, every point"
    (Array.fold_left ( + ) 0 counts)
    (List.length (C.sample_points ~seed:1L ~max_points:0 counts));
  (* A replay's per-op counts cover the body's events exactly. *)
  let w =
    C.prepare
      {
        Op.sname = "unit-op-events";
        setup = [ Op.Mkdir "/d" ];
        body =
          [
            Op.Create { path = "/d/f"; mode = 0o644; data = "abc" };
            Op.Mkdir "/d/e";
            Op.Unlink "/d/f";
          ];
      }
  in
  let rp = C.replay w in
  Alcotest.(check int) "op events sum to the body's" rp.C.rp_events
    (Array.fold_left ( + ) 0 rp.C.rp_op_events);
  Alcotest.(check bool) "every op makes events" true
    (Array.for_all (fun e -> e > 0) rp.C.rp_op_events)

let () =
  Alcotest.run "crashmc"
    [
      ( "model",
        [
          Alcotest.test_case "op semantics" `Quick test_model_semantics;
          Alcotest.test_case "copy independence" `Quick
            test_model_copy_is_independent;
        ] );
      ( "oracle-agreement",
        [
          Alcotest.test_case "no-crash dumps agree (seeded)" `Quick
            test_no_crash_oracle_agreement;
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "single create" `Quick test_exhaustive_create;
          Alcotest.test_case "in-place overwrite" `Quick
            test_exhaustive_in_place_overwrite;
          Alcotest.test_case "coffer split rename" `Slow
            test_exhaustive_coffer_split_rename;
          Alcotest.test_case "directory growth" `Slow
            test_exhaustive_directory_growth;
          Alcotest.test_case "batched append" `Slow
            test_exhaustive_batched_append;
          Alcotest.test_case "same-dir rename" `Slow
            test_exhaustive_rename_samedir;
          Alcotest.test_case "mixed ops" `Slow test_exhaustive_mixed_ops;
          Alcotest.test_case "two-process no-crash agreement" `Quick
            test_two_process_no_crash_agreement;
          Alcotest.test_case "two-process shared append + create" `Slow
            test_exhaustive_two_process_shared;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "one op's events move only its points" `Quick
            test_sample_keyed_by_op;
        ] );
      ( "negative",
        [
          Alcotest.test_case "missing fence caught" `Quick
            test_missing_fence_is_caught;
          Alcotest.test_case "in-place write past EOF caught" `Quick
            test_in_place_past_eof_is_caught;
          Alcotest.test_case "over-elided fence: persistence checker" `Quick
            test_over_elide_flagged_by_persistence_checker;
        ] );
    ]
