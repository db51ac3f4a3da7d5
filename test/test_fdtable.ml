(* Tests for the user-space FD mapping table (paper §4.2). *)

module F = Treasury.Fd_table

let test_lowest_available () =
  let t = F.create () in
  Alcotest.(check int) "first" 3 (F.alloc t 100);
  Alcotest.(check int) "second" 4 (F.alloc t 101);
  Alcotest.(check int) "third" 5 (F.alloc t 102);
  ignore (F.close t 4);
  (* dup-critical property: the hole is refilled first *)
  Alcotest.(check int) "hole reused" 4 (F.alloc t 103)

let test_lookup () =
  let t = F.create () in
  let fd = F.alloc t 7 in
  (match F.lookup t fd with
  | Ok ofd -> Alcotest.(check int) "handle" 7 ofd.F.handle
  | Error _ -> Alcotest.fail "lookup failed");
  match F.lookup t 99 with
  | Error Treasury.Errno.EBADF -> ()
  | _ -> Alcotest.fail "expected EBADF"

let test_dup_shares_offset () =
  let t = F.create () in
  let fd = F.alloc t 7 in
  let fd2 =
    match F.dup t fd with Ok f -> f | Error _ -> Alcotest.fail "dup"
  in
  Alcotest.(check int) "lowest" 4 fd2;
  (match F.lookup t fd with
  | Ok ofd -> ofd.F.offset <- 1234
  | Error _ -> Alcotest.fail "lookup");
  (match F.lookup t fd2 with
  | Ok ofd -> Alcotest.(check int) "shared offset" 1234 ofd.F.offset
  | Error _ -> Alcotest.fail "lookup dup");
  (* Closing one side must not close the file. *)
  (match F.close t fd with
  | Ok None -> ()
  | _ -> Alcotest.fail "refcount should keep it open");
  match F.close t fd2 with
  | Ok (Some 7) -> ()
  | _ -> Alcotest.fail "last close returns the handle"

let test_dup2 () =
  let t = F.create () in
  let fd = F.alloc t 1 in
  let other = F.alloc t 2 in
  (match F.dup2 t fd other with
  | Ok (nfd, Some 2) ->
      Alcotest.(check int) "targeted" other nfd
  | _ -> Alcotest.fail "dup2 should displace");
  (* both fds now share the description of handle 1 *)
  (match F.lookup t other with
  | Ok ofd -> Alcotest.(check int) "handle after dup2" 1 ofd.F.handle
  | Error _ -> Alcotest.fail "lookup");
  (* dup2 to itself is a no-op *)
  match F.dup2 t fd fd with
  | Ok (_, None) -> ()
  | _ -> Alcotest.fail "self dup2"

let test_dup2_to_fresh_slot () =
  let t = F.create () in
  let fd = F.alloc t 1 in
  match F.dup2 t fd 17 with
  | Ok (17, None) -> (
      match F.lookup t 17 with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "slot 17 should exist")
  | _ -> Alcotest.fail "dup2 to fresh"

let test_open_count_iter () =
  let t = F.create () in
  ignore (F.alloc t 1);
  ignore (F.alloc t 5);
  Alcotest.(check int) "count" 2 (F.open_count t);
  let seen = ref 0 in
  F.iter t (fun _ _ -> incr seen);
  Alcotest.(check int) "iter" 2 !seen

let test_serialize_roundtrip () =
  let t = F.create () in
  let a = F.alloc t ~append:true 7 in
  let b = F.alloc t 42 in
  (match F.lookup t a with Ok o -> o.F.offset <- 100 | Error _ -> ());
  let c = match F.dup t a with Ok c -> c | Error _ -> Alcotest.fail "dup" in
  let s = F.serialize t in
  let t' = F.deserialize s in
  Alcotest.(check int) "count preserved" 3 (F.open_count t');
  (match F.lookup t' a with
  | Ok o ->
      Alcotest.(check int) "offset" 100 o.F.offset;
      Alcotest.(check bool) "append" true o.F.append;
      Alcotest.(check int) "handle a" 7 o.F.handle
  | Error _ -> Alcotest.fail "fd a");
  (match F.lookup t' b with
  | Ok o ->
      Alcotest.(check int) "handle b" 42 o.F.handle;
      Alcotest.(check bool) "no append" false o.F.append
  | Error _ -> Alcotest.fail "fd b");
  (* dup-sharing survives exec: offset updates still propagate *)
  (match F.lookup t' a with Ok o -> o.F.offset <- 777 | Error _ -> ());
  match F.lookup t' c with
  | Ok o -> Alcotest.(check int) "shared after exec" 777 o.F.offset
  | Error _ -> Alcotest.fail "fd c"

let test_serialize_empty () =
  let t = F.create () in
  let t' = F.deserialize (F.serialize t) in
  Alcotest.(check int) "empty" 0 (F.open_count t')

let qcheck_alloc_always_lowest =
  QCheck.Test.make ~name:"alloc always returns the lowest free fd" ~count:100
    QCheck.(list (option (int_range 3 20)))
    (fun ops ->
      (* Some op = close that fd (if open); None = alloc. *)
      let t = F.create () in
      let open_fds = ref [] in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | None ->
              let fd = F.alloc t 0 in
              (* check it is the smallest non-open fd >= 3 *)
              let rec smallest i =
                if List.mem i !open_fds then smallest (i + 1) else i
              in
              if fd <> smallest 3 then ok := false;
              open_fds := fd :: !open_fds
          | Some fd ->
              if List.mem fd !open_fds then begin
                ignore (F.close t fd);
                open_fds := List.filter (( <> ) fd) !open_fds
              end)
        ops;
      !ok)

let () =
  Alcotest.run "fd_table"
    [
      ( "table",
        [
          Alcotest.test_case "lowest available" `Quick test_lowest_available;
          Alcotest.test_case "lookup" `Quick test_lookup;
          Alcotest.test_case "dup shares offset" `Quick test_dup_shares_offset;
          Alcotest.test_case "dup2" `Quick test_dup2;
          Alcotest.test_case "dup2 fresh slot" `Quick test_dup2_to_fresh_slot;
          Alcotest.test_case "open_count/iter" `Quick test_open_count_iter;
          QCheck_alcotest.to_alcotest qcheck_alloc_always_lowest;
        ] );
      ( "exec",
        [
          Alcotest.test_case "serialize roundtrip" `Quick test_serialize_roundtrip;
          Alcotest.test_case "serialize empty" `Quick test_serialize_empty;
        ] );
    ]
