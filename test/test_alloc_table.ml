(* Tests for KernFS's persistent allocation table. *)

module A = Treasury.Alloc_table
module D = Nvm.Device

let npages = 256

let mk () =
  (* The table covers [npages] pages and itself lives at byte 0 of a device
     large enough to hold it. *)
  let dev = D.create ~perf:Nvm.Perf.free ~size:(npages * Nvm.page_size) () in
  (dev, A.format dev ~base:0 ~npages)

let runs = Alcotest.(list (pair int int))

let test_format_all_free () =
  let _, t = mk () in
  A.verify t;
  Alcotest.(check int) "all free" npages (A.free_pages t);
  Alcotest.(check int) "owner 0" 0 (A.owner_of t ~page:13)

let test_alloc_contiguous () =
  let _, t = mk () in
  (match A.alloc t ~cid:7 ~n:10 with
  | Some granted -> Alcotest.check runs "one run" [ (0, 10) ] granted
  | None -> Alcotest.fail "alloc failed");
  A.verify t;
  Alcotest.(check int) "free count" (npages - 10) (A.free_pages t);
  Alcotest.(check int) "owner" 7 (A.owner_of t ~page:5);
  Alcotest.(check int) "neighbour free" 0 (A.owner_of t ~page:10)

let test_alloc_first_fit () =
  let _, t = mk () in
  ignore (A.alloc t ~cid:1 ~n:10);
  ignore (A.alloc t ~cid:2 ~n:10);
  A.set_range t ~start:0 ~len:10 ~cid:0;
  (* first fit reuses the hole at 0 *)
  (match A.alloc t ~cid:3 ~n:4 with
  | Some granted -> Alcotest.check runs "reuses hole" [ (0, 4) ] granted
  | None -> Alcotest.fail "alloc failed");
  A.verify t

let test_alloc_gathers_runs () =
  let _, t = mk () in
  ignore (A.alloc t ~cid:1 ~n:npages);
  (* Free two disjoint holes of 4 and 6 pages. *)
  A.set_range t ~start:10 ~len:4 ~cid:0;
  A.set_range t ~start:100 ~len:6 ~cid:0;
  (match A.alloc t ~cid:2 ~n:8 with
  | Some granted -> Alcotest.check runs "two runs" [ (10, 4); (100, 4) ] granted
  | None -> Alcotest.fail "alloc failed");
  A.verify t;
  Alcotest.(check int) "2 pages left free" 2 (A.free_pages t)

let test_alloc_enospc () =
  let _, t = mk () in
  ignore (A.alloc t ~cid:1 ~n:(npages - 4));
  Alcotest.(check bool) "too big" true (A.alloc t ~cid:2 ~n:5 = None);
  (* And nothing was consumed by the failed attempt. *)
  Alcotest.(check int) "free unchanged" 4 (A.free_pages t);
  A.verify t

let test_free_coalesces () =
  let _, t = mk () in
  ignore (A.alloc t ~cid:1 ~n:30);
  A.set_range t ~start:0 ~len:10 ~cid:0;
  A.set_range t ~start:20 ~len:10 ~cid:0;
  A.set_range t ~start:10 ~len:10 ~cid:0;
  (* middle merges both sides *)
  A.verify t;
  Alcotest.(check int) "all free" npages (A.free_pages t);
  (match A.alloc t ~cid:2 ~n:npages with
  | Some granted -> Alcotest.check runs "single run" [ (0, npages) ] granted
  | None -> Alcotest.fail "coalescing failed");
  A.verify t

let test_reassign () =
  let _, t = mk () in
  ignore (A.alloc t ~cid:1 ~n:20);
  A.set_range t ~start:5 ~len:10 ~cid:2;
  A.verify t;
  Alcotest.(check int) "head keeps owner" 1 (A.owner_of t ~page:4);
  Alcotest.(check int) "moved" 2 (A.owner_of t ~page:9);
  Alcotest.(check int) "tail keeps owner" 1 (A.owner_of t ~page:16);
  Alcotest.check runs "runs of 2" [ (5, 10) ] (A.runs_of t ~cid:2);
  Alcotest.check runs "runs of 1 split" [ (0, 5); (15, 5) ] (A.runs_of t ~cid:1)

let test_runs_of () =
  let _, t = mk () in
  ignore (A.alloc t ~cid:5 ~n:3);
  ignore (A.alloc t ~cid:6 ~n:2);
  ignore (A.alloc t ~cid:5 ~n:2);
  Alcotest.check runs "two runs" [ (0, 3); (5, 2) ] (A.runs_of t ~cid:5);
  Alcotest.(check int) "count" 5 (A.coffer_page_count t ~cid:5)

let test_free_coffer () =
  let _, t = mk () in
  ignore (A.alloc t ~cid:5 ~n:3);
  ignore (A.alloc t ~cid:6 ~n:2);
  ignore (A.alloc t ~cid:5 ~n:2);
  List.iter
    (fun (start, len) -> A.set_range t ~start ~len ~cid:0)
    (A.runs_of t ~cid:5);
  A.verify t;
  Alcotest.check runs "gone" [] (A.runs_of t ~cid:5);
  Alcotest.(check int) "six still there" 6 (A.owner_of t ~page:3);
  Alcotest.(check int) "free" (npages - 2) (A.free_pages t)

let test_persistence_across_reload () =
  let dev, t = mk () in
  ignore (A.alloc t ~cid:3 ~n:7);
  ignore (A.alloc t ~cid:4 ~n:5);
  A.set_range t ~start:2 ~len:2 ~cid:0;
  (* reload from NVM (clean shutdown) *)
  let t' = A.load dev ~base:0 ~npages in
  A.verify t';
  Alcotest.check runs "cid 3 split survives" [ (0, 2); (4, 3) ] (A.runs_of t' ~cid:3);
  Alcotest.check runs "cid 4 survives" [ (7, 5) ] (A.runs_of t' ~cid:4);
  Alcotest.(check int) "owner" 0 (A.owner_of t' ~page:2)

let test_reload_after_crash () =
  (* Allocation-table updates are persisted before [alloc] returns, so a
     crash right after must preserve the allocation. *)
  let dev, t = mk () in
  ignore (A.alloc t ~cid:9 ~n:16);
  D.crash ~policy:`Drop_all dev;
  let t' = A.load dev ~base:0 ~npages in
  A.verify t';
  Alcotest.check runs "allocation durable" [ (0, 16) ] (A.runs_of t' ~cid:9)

(* A run-length word torn durably (or left stale) is repaired at load:
   owner words decide the runs, the repaired words are persisted, and a
   later load finds nothing to rewrite.  A clean table loads with no store
   and no flush. *)
let test_load_repairs_torn_lengths () =
  let dev, t = mk () in
  ignore (A.alloc t ~cid:3 ~n:10);
  ignore (A.alloc t ~cid:4 ~n:5);
  let flushes_of_load () =
    let writes = D.stat_writes dev and flushes = D.stat_flushes dev in
    let t' = A.load dev ~base:0 ~npages in
    A.verify t';
    Alcotest.check runs "cid 3" [ (0, 10) ] (A.runs_of t' ~cid:3);
    Alcotest.check runs "cid 4" [ (10, 5) ] (A.runs_of t' ~cid:4);
    (D.stat_writes dev - writes, D.stat_flushes dev - flushes)
  in
  Alcotest.(check (pair int int)) "a clean table: no store, no flush" (0, 0)
    (flushes_of_load ());
  (* page 3 of cid 3's run should read 7 *)
  let len_word = (3 * A.entry_size) + 4 in
  D.write_u32 dev len_word 99;
  D.persist_range dev len_word 4;
  D.crash ~policy:`Drop_all dev;
  let writes, flushes = flushes_of_load () in
  Alcotest.(check bool) "the torn run is rewritten" true (writes > 0);
  Alcotest.(check bool) "and flushed" true (flushes > 0);
  D.crash ~policy:`Drop_all dev;
  Alcotest.(check (pair int int)) "the repair was durable" (0, 0)
    (flushes_of_load ());
  Alcotest.(check int) "length word" 7 (D.read_u32 dev len_word)

let qcheck_random_ops_keep_invariants =
  QCheck.Test.make ~name:"random alloc/free keeps table consistent" ~count:60
    QCheck.(
      list_of_size (Gen.int_range 1 40)
        (pair (int_range 1 6) (int_range 1 20)))
    (fun ops ->
      let _, t = mk () in
      let owned : (int, (int * int) list) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun (cid, n) ->
          match Hashtbl.find_opt owned cid with
          | Some ((start, len) :: rest) when n mod 3 = 0 ->
              (* sometimes free the oldest run of this coffer *)
              A.set_range t ~start ~len ~cid:0;
              Hashtbl.replace owned cid rest
          | _ -> (
              match A.alloc t ~cid ~n with
              | Some granted ->
                  let prev = Option.value ~default:[] (Hashtbl.find_opt owned cid) in
                  Hashtbl.replace owned cid (prev @ granted)
              | None -> ()))
        ops;
      A.verify t;
      (* Every tracked coffer's page count matches the table's view. *)
      Hashtbl.fold
        (fun cid runs ok ->
          ok
          && A.coffer_page_count t ~cid
             = List.fold_left (fun a (_, l) -> a + l) 0 runs)
        owned true)

let qcheck_owner_matches_runs =
  QCheck.Test.make ~name:"owner_of agrees with runs_of" ~count:60
    QCheck.(list_of_size (Gen.int_range 1 20) (pair (int_range 1 5) (int_range 1 10)))
    (fun ops ->
      let _, t = mk () in
      List.iter (fun (cid, n) -> ignore (A.alloc t ~cid ~n)) ops;
      let ok = ref true in
      for cid = 1 to 5 do
        List.iter
          (fun (start, len) ->
            for p = start to start + len - 1 do
              if A.owner_of t ~page:p <> cid then ok := false
            done)
          (A.runs_of t ~cid)
      done;
      !ok)

(* Model-based test: random table operations against a per-page owner
   array.  The table keeps runs maximal (equal-owner neighbours coalesce),
   so after every step its free and per-coffer runs are exactly the
   maximal runs of the model, and [alloc] grants the first free run that
   fits, else the lowest-addressed runs in order. *)
type op =
  | Format
  | Alloc of int * int  (* cid, n *)
  | Free_run of int * int  (* start, len *)
  | Reassign of int * int * int  (* start, len, cid *)
  | Free_coffer of int

let model_pages = 40
let model_cids = 4

let show_op = function
  | Format -> "format"
  | Alloc (cid, n) -> Printf.sprintf "alloc cid=%d n=%d" cid n
  | Free_run (s, l) -> Printf.sprintf "free_run %d+%d" s l
  | Reassign (s, l, cid) -> Printf.sprintf "reassign %d+%d cid=%d" s l cid
  | Free_coffer cid -> Printf.sprintf "free_coffer cid=%d" cid

let gen_op =
  let open QCheck.Gen in
  let cid = int_range 1 model_cids in
  let range =
    int_range 0 (model_pages - 1) >>= fun s ->
    int_range 1 (model_pages - s) >|= fun l -> (s, l)
  in
  frequency
    [
      (1, return Format);
      (6, map2 (fun c n -> Alloc (c, n)) cid (int_range 1 (model_pages / 2)));
      (3, map (fun (s, l) -> Free_run (s, l)) range);
      (3, map2 (fun (s, l) c -> Reassign (s, l, c)) range cid);
      (2, map (fun c -> Free_coffer c) cid);
    ]

(* Maximal runs of pages owned by [cid], in address order. *)
let model_runs owner cid =
  let runs = ref [] and p = ref 0 in
  while !p < model_pages do
    if owner.(!p) <> cid then incr p
    else begin
      let s = !p in
      while !p < model_pages && owner.(!p) = cid do
        incr p
      done;
      runs := (s, !p - s) :: !runs
    end
  done;
  List.rev !runs

(* What [alloc] must grant on the model, or [None]. *)
let model_grant owner n =
  let free = model_runs owner 0 in
  if List.fold_left (fun a (_, l) -> a + l) 0 free < n then None
  else
    match List.find_opt (fun (_, l) -> l >= n) free with
    | Some (s, _) -> Some [ (s, n) ]
    | None ->
        let rec take rem = function
          | (s, l) :: rest when rem > 0 ->
              let k = min l rem in
              (s, k) :: take (rem - k) rest
          | _ -> []
        in
        Some (take n free)

let check_against_model t owner =
  A.verify t;
  for p = 0 to model_pages - 1 do
    if A.owner_of t ~page:p <> owner.(p) then
      QCheck.Test.fail_reportf "owner_of %d: table %d, model %d" p
        (A.owner_of t ~page:p) owner.(p)
  done;
  for cid = 1 to model_cids do
    if A.runs_of t ~cid <> model_runs owner cid then
      QCheck.Test.fail_reportf "runs_of cid=%d differ" cid
  done;
  let free = Array.fold_left (fun a c -> if c = 0 then a + 1 else a) 0 owner in
  if A.free_pages t <> free then
    QCheck.Test.fail_reportf "free_pages: table %d, model %d" (A.free_pages t)
      free

let qcheck_table_matches_owner_model =
  QCheck.Test.make ~name:"table matches a per-page owner model" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_op))
    (fun ops ->
      let dev =
        D.create ~perf:Nvm.Perf.free ~size:(model_pages * Nvm.page_size) ()
      in
      let t = ref (A.format dev ~base:0 ~npages:model_pages) in
      let owner = Array.make model_pages 0 in
      let set s l c = Array.fill owner s l c in
      List.iter
        (fun op ->
          (match op with
          | Format ->
              t := A.format dev ~base:0 ~npages:model_pages;
              set 0 model_pages 0
          | Alloc (cid, n) ->
              let expected = model_grant owner n in
              let granted = A.alloc !t ~cid ~n in
              if granted <> expected then
                QCheck.Test.fail_reportf "%s granted the wrong runs"
                  (show_op op);
              Option.iter (List.iter (fun (s, l) -> set s l cid)) granted
          | Free_run (start, len) ->
              A.set_range !t ~start ~len ~cid:0;
              set start len 0
          | Reassign (start, len, cid) ->
              A.set_range !t ~start ~len ~cid;
              set start len cid
          | Free_coffer cid ->
              List.iter
                (fun (start, len) -> A.set_range !t ~start ~len ~cid:0)
                (A.runs_of !t ~cid);
              Array.iteri (fun p c -> if c = cid then owner.(p) <- 0) owner);
          check_against_model !t owner)
        ops;
      D.persist_all dev;
      check_against_model (A.load dev ~base:0 ~npages:model_pages) owner;
      true)

let () =
  Alcotest.run "alloc_table"
    [
      ( "alloc",
        [
          Alcotest.test_case "format all free" `Quick test_format_all_free;
          Alcotest.test_case "contiguous" `Quick test_alloc_contiguous;
          Alcotest.test_case "first fit" `Quick test_alloc_first_fit;
          Alcotest.test_case "gathers runs" `Quick test_alloc_gathers_runs;
          Alcotest.test_case "ENOSPC" `Quick test_alloc_enospc;
        ] );
      ( "free+reassign",
        [
          Alcotest.test_case "coalescing" `Quick test_free_coalesces;
          Alcotest.test_case "reassign splits" `Quick test_reassign;
          Alcotest.test_case "runs_of" `Quick test_runs_of;
          Alcotest.test_case "free_coffer" `Quick test_free_coffer;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "reload" `Quick test_persistence_across_reload;
          Alcotest.test_case "crash + reload" `Quick test_reload_after_crash;
          Alcotest.test_case "load repairs torn run lengths" `Quick
            test_load_repairs_torn_lengths;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_random_ops_keep_invariants;
          QCheck_alcotest.to_alcotest qcheck_owner_matches_runs;
          QCheck_alcotest.to_alcotest qcheck_table_matches_owner_model;
        ] );
    ]
