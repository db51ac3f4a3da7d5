(* Tests for the MPK / page-table protection layer. *)

module D = Nvm.Device

let mk () =
  let dev = D.create ~perf:Nvm.Perf.free ~size:(64 * Nvm.page_size) () in
  (dev, Mpk.create dev)

let fault_reason f =
  match f () with
  | _ -> None
  | exception Nvm.Fault { reason; _ } -> Some reason

let in_proc ?(uid = 1000) f =
  let proc = Sim.Proc.create ~uid ~gid:uid () in
  Sim.run_thread ~proc (fun () -> f proc)

let test_unmapped_faults () =
  let dev, _mpk = mk () in
  in_proc (fun _ ->
      Alcotest.(check (option string))
        "unmapped read" (Some "page not mapped")
        (fault_reason (fun () -> D.read_u64 dev 0)))

let test_mapped_rw_ok () =
  let dev, mpk = mk () in
  in_proc (fun p ->
      Mpk.map_page mpk ~pid:p.Sim.Proc.pid ~page:0 ~writable:true ~pkey:0;
      D.write_u64 dev 0 5;
      Alcotest.(check int) "rw access" 5 (D.read_u64 dev 0))

let test_readonly_mapping () =
  let dev, mpk = mk () in
  in_proc (fun p ->
      Mpk.map_page mpk ~pid:p.Sim.Proc.pid ~page:0 ~writable:false ~pkey:0;
      ignore (D.read_u64 dev 0);
      Alcotest.(check (option string))
        "ro write" (Some "page mapped read-only")
        (fault_reason (fun () -> D.write_u64 dev 0 1)))

let test_pkey_disabled_by_default () =
  let dev, mpk = mk () in
  in_proc (fun p ->
      Mpk.map_page mpk ~pid:p.Sim.Proc.pid ~page:0 ~writable:true ~pkey:3;
      Alcotest.(check (option string))
        "pkey region closed" (Some "MPK: region 3 access-disabled")
        (fault_reason (fun () -> D.read_u64 dev 0)))

let test_wrpkru_opens_region () =
  let dev, mpk = mk () in
  in_proc (fun p ->
      Mpk.map_page mpk ~pid:p.Sim.Proc.pid ~page:0 ~writable:true ~pkey:3;
      Mpk.wrpkru mpk [ (3, Mpk.Pk_read_write) ];
      D.write_u64 dev 0 9;
      Alcotest.(check int) "open region" 9 (D.read_u64 dev 0))

let test_read_only_pkey () =
  let dev, mpk = mk () in
  in_proc (fun p ->
      Mpk.map_page mpk ~pid:p.Sim.Proc.pid ~page:0 ~writable:true ~pkey:5;
      Mpk.wrpkru mpk [ (5, Mpk.Pk_read) ];
      ignore (D.read_u64 dev 0);
      Alcotest.(check (option string))
        "write disabled" (Some "MPK: region 5 write-disabled")
        (fault_reason (fun () -> D.write_u64 dev 0 1)))

let test_with_keys_restores () =
  let dev, mpk = mk () in
  in_proc (fun p ->
      Mpk.map_page mpk ~pid:p.Sim.Proc.pid ~page:0 ~writable:true ~pkey:3;
      Mpk.with_keys mpk [ (3, Mpk.Pk_read_write) ] (fun () ->
          D.write_u64 dev 0 1);
      Alcotest.(check (option string))
        "closed again" (Some "MPK: region 3 access-disabled")
        (fault_reason (fun () -> D.read_u64 dev 0)))

let test_with_keys_exclusive () =
  (* G2: opening one coffer's region must leave others closed. *)
  let dev, mpk = mk () in
  in_proc (fun p ->
      let pid = p.Sim.Proc.pid in
      Mpk.map_page mpk ~pid ~page:0 ~writable:true ~pkey:1;
      Mpk.map_page mpk ~pid ~page:1 ~writable:true ~pkey:2;
      Mpk.wrpkru mpk [ (1, Mpk.Pk_read_write); (2, Mpk.Pk_read_write) ];
      Mpk.with_keys mpk [ (1, Mpk.Pk_read_write) ] (fun () ->
          ignore (D.read_u64 dev 0);
          Alcotest.(check (option string))
            "other coffer closed" (Some "MPK: region 2 access-disabled")
            (fault_reason (fun () -> D.read_u64 dev Nvm.page_size))))

let test_per_thread_pkru () =
  (* A region opened in one thread stays closed in a concurrent thread
     (stray writes in other threads cannot use the window, §3.4.1). *)
  let dev, mpk = mk () in
  let proc = Sim.Proc.create ~uid:1000 ~gid:1000 () in
  let w = Sim.create () in
  let other_thread_fault = ref None in
  Sim.spawn w ~proc ~name:"opener" (fun () ->
      Mpk.map_page mpk ~pid:proc.Sim.Proc.pid ~page:0 ~writable:true ~pkey:4;
      Mpk.wrpkru mpk [ (4, Mpk.Pk_read_write) ];
      D.write_u64 dev 0 1;
      Sim.advance 1000);
  Sim.spawn w ~proc ~at:500 ~name:"stray" (fun () ->
      other_thread_fault := fault_reason (fun () -> D.write_u64 dev 8 666));
  Sim.run w;
  Alcotest.(check (option string))
    "stray thread blocked"
    (Some "MPK: region 4 access-disabled")
    !other_thread_fault;
  (* The opener's write landed; the stray write did not (read back from
     kernel mode, which bypasses the user page tables). *)
  Mpk.with_kernel mpk (fun () ->
      Alcotest.(check int) "good write" 1 (D.read_u64 dev 0);
      Alcotest.(check int) "stray write blocked" 0 (D.read_u64 dev 8))

let test_per_process_page_tables () =
  let dev, mpk = mk () in
  let p1 = Sim.Proc.create ~uid:1 ~gid:1 () in
  let p2 = Sim.Proc.create ~uid:2 ~gid:2 () in
  Mpk.map_page mpk ~pid:p1.Sim.Proc.pid ~page:0 ~writable:true ~pkey:0;
  let r1 = Sim.run_thread ~proc:p1 (fun () -> fault_reason (fun () -> D.read_u64 dev 0)) in
  let r2 = Sim.run_thread ~proc:p2 (fun () -> fault_reason (fun () -> D.read_u64 dev 0)) in
  Alcotest.(check (option string)) "p1 sees page" None r1;
  Alcotest.(check (option string)) "p2 does not" (Some "page not mapped") r2

let test_cross_process_readonly_blocks_write () =
  (* Process A maps a page writable; process B maps the same physical page
     read-only.  Even with B's PKRU wide open for the region, B's write must
     fault on B's own PTE — A's writable mapping lends B nothing. *)
  let dev, mpk = mk () in
  let pa = Sim.Proc.create ~uid:1 ~gid:1 () in
  let pb = Sim.Proc.create ~uid:2 ~gid:2 () in
  Mpk.map_page mpk ~pid:pa.Sim.Proc.pid ~page:0 ~writable:true ~pkey:3;
  Mpk.map_page mpk ~pid:pb.Sim.Proc.pid ~page:0 ~writable:false ~pkey:3;
  Sim.run_thread ~proc:pa (fun () ->
      Mpk.wrpkru mpk [ (3, Mpk.Pk_read_write) ];
      D.write_u64 dev 0 42);
  let rb =
    Sim.run_thread ~proc:pb (fun () ->
        Mpk.wrpkru mpk [ (3, Mpk.Pk_read_write) ];
        Alcotest.(check int) "B reads A's write" 42 (D.read_u64 dev 0);
        fault_reason (fun () -> D.write_u64 dev 0 666))
  in
  Alcotest.(check (option string))
    "B write blocked by its own read-only PTE"
    (Some "page mapped read-only") rb;
  Mpk.with_kernel mpk (fun () ->
      Alcotest.(check int) "A's value intact" 42 (D.read_u64 dev 0))

let test_cross_process_unmapped_blocks_all () =
  (* Process B with no mapping at all cannot even read what A maps rw. *)
  let dev, mpk = mk () in
  let pa = Sim.Proc.create ~uid:1 ~gid:1 () in
  let pb = Sim.Proc.create ~uid:2 ~gid:2 () in
  Mpk.map_page mpk ~pid:pa.Sim.Proc.pid ~page:0 ~writable:true ~pkey:1;
  Sim.run_thread ~proc:pa (fun () ->
      Mpk.wrpkru mpk [ (1, Mpk.Pk_read_write) ];
      D.write_u64 dev 0 7);
  let rb =
    Sim.run_thread ~proc:pb (fun () ->
        Mpk.wrpkru mpk [ (1, Mpk.Pk_read_write) ];
        fault_reason (fun () -> D.read_u64 dev 0))
  in
  Alcotest.(check (option string))
    "unmapped process blocked" (Some "page not mapped") rb

let test_pkru_no_leak_across_process_switch () =
  (* Same simulated core, process switch: a thread of process B scheduled
     after process A's thread opened region 5 must start from the
     all-disabled PKRU default, not inherit A's register image. *)
  let dev, mpk = mk () in
  let pa = Sim.Proc.create ~uid:1 ~gid:1 () in
  let pb = Sim.Proc.create ~uid:2 ~gid:2 () in
  Mpk.map_page mpk ~pid:pa.Sim.Proc.pid ~page:0 ~writable:true ~pkey:5;
  Mpk.map_page mpk ~pid:pb.Sim.Proc.pid ~page:0 ~writable:true ~pkey:5;
  let w = Sim.create () in
  let b_fault = ref None and b_pkru = ref [ (1, Mpk.Pk_read) ] in
  Sim.spawn w ~proc:pa ~name:"a" (fun () ->
      Mpk.wrpkru mpk [ (5, Mpk.Pk_read_write) ];
      D.write_u64 dev 0 1;
      Sim.advance 100);
  Sim.spawn w ~proc:pb ~at:50 ~name:"b" (fun () ->
      b_pkru := Mpk.rdpkru mpk;
      b_fault := fault_reason (fun () -> D.read_u64 dev 0));
  Sim.run w;
  Alcotest.(check bool) "B starts all-disabled" true (!b_pkru = []);
  Alcotest.(check (option string))
    "B blocked despite A's open window"
    (Some "MPK: region 5 access-disabled") !b_fault

let test_drop_process_clears_context () =
  (* Killing + reaping a process must leave no protection residue: page
     table gone, per-thread PKRU/kernel-mode state gone. *)
  let dev, mpk = mk () in
  let p = Sim.Proc.create ~uid:9 ~gid:9 () in
  let pid = p.Sim.Proc.pid in
  Mpk.map_page mpk ~pid ~page:0 ~writable:true ~pkey:2;
  let tid =
    ref (-1)
  in
  let w = Sim.create () in
  tid :=
    Sim.spawn_tid w ~proc:p ~name:"victim" (fun () ->
        Mpk.wrpkru mpk [ (2, Mpk.Pk_read_write) ];
        D.write_u64 dev 0 3);
  Sim.run w;
  Alcotest.(check bool) "table present" true (Mpk.has_table mpk ~pid);
  Alcotest.(check bool) "thread state present" true
    (Mpk.has_thread_state mpk ~tid:!tid);
  Mpk.drop_process mpk ~pid ~tids:[ !tid ];
  Alcotest.(check bool) "table dropped" false (Mpk.has_table mpk ~pid);
  Alcotest.(check bool) "thread state dropped" false
    (Mpk.has_thread_state mpk ~tid:!tid);
  (* A process reusing the pid slot starts from nothing mapped. *)
  let r =
    Sim.run_thread ~proc:p (fun () -> fault_reason (fun () -> D.read_u64 dev 0))
  in
  Alcotest.(check (option string)) "nothing mapped" (Some "page not mapped") r

(* Per-thread and per-process state lives in tables indexed by id + 1; these
   pin the cases a hash table got for free: tid -1 outside a world, ids far
   past the initial size, and removal. *)

let test_kernel_mode_outside_world () =
  let dev, mpk = mk () in
  Alcotest.(check bool) "tid -1" true (Sim.self_tid () = -1);
  Alcotest.(check bool) "user mode" false (Mpk.in_kernel mpk);
  Mpk.with_kernel mpk (fun () ->
      Alcotest.(check bool) "kernel mode" true (Mpk.in_kernel mpk);
      Alcotest.(check (option string))
        "write outside window"
        (Some "kernel write outside CR0.WP write window")
        (fault_reason (fun () -> D.write_u64 dev 0 1));
      Mpk.with_write_window mpk (fun () -> D.write_u64 dev 0 42);
      Alcotest.(check int) "written in window" 42 (D.read_u64 dev 0));
  Alcotest.(check bool) "back in user mode" false (Mpk.in_kernel mpk);
  Alcotest.(check bool) "no state left for tid -1" false
    (Mpk.has_thread_state mpk ~tid:(-1))

let test_pkru_for_200_threads () =
  let dev, mpk = mk () in
  let proc = Sim.Proc.create ~uid:1000 ~gid:1000 () in
  let pid = proc.Sim.Proc.pid in
  for key = 1 to Mpk.nkeys - 1 do
    Mpk.map_page mpk ~pid ~page:key ~writable:true ~pkey:key
  done;
  let perms i = [ (1 + (i mod 15), if i mod 2 = 0 then Mpk.Pk_read else Mpk.Pk_read_write) ] in
  let seen = Array.make 200 [] and tids = Array.make 200 0 in
  let w = Sim.create () in
  for i = 0 to 199 do
    tids.(i) <-
      Sim.spawn_tid w ~proc ~name:(Printf.sprintf "t%d" i) (fun () ->
          Mpk.wrpkru mpk (perms i);
          Sim.advance 100 (* every other thread writes its PKRU meanwhile *);
          ignore (D.read_u64 dev ((1 + (i mod 15)) * Nvm.page_size));
          seen.(i) <- Mpk.rdpkru mpk)
  done;
  Sim.run w;
  Array.iteri
    (fun i p ->
      Alcotest.(check bool) (Printf.sprintf "thread %d keeps its PKRU" i) true
        (p = perms i))
    seen;
  Alcotest.(check bool) "tid 199 has state" true
    (Mpk.has_thread_state mpk ~tid:tids.(199));
  Alcotest.(check bool) "tid past every table has none" false
    (Mpk.has_thread_state mpk ~tid:100_000);
  Alcotest.(check bool) "unknown pid has no table" false
    (Mpk.has_table mpk ~pid:100_000);
  Mpk.drop_process mpk ~pid ~tids:(List.init 100 (fun i -> tids.(i)));
  Alcotest.(check bool) "table dropped" false (Mpk.has_table mpk ~pid);
  Alcotest.(check bool) "dropped thread" false
    (Mpk.has_thread_state mpk ~tid:tids.(0));
  Alcotest.(check bool) "undropped thread keeps state" true
    (Mpk.has_thread_state mpk ~tid:tids.(100))

let test_unmap () =
  let dev, mpk = mk () in
  in_proc (fun p ->
      let pid = p.Sim.Proc.pid in
      Mpk.map_page mpk ~pid ~page:0 ~writable:true ~pkey:0;
      ignore (D.read_u64 dev 0);
      Mpk.unmap_page mpk ~pid ~page:0;
      Alcotest.(check (option string))
        "unmapped" (Some "page not mapped")
        (fault_reason (fun () -> D.read_u64 dev 0)))

let test_unmap_all () =
  let dev, mpk = mk () in
  in_proc (fun p ->
      let pid = p.Sim.Proc.pid in
      for page = 0 to 9 do
        Mpk.map_page mpk ~pid ~page ~writable:true ~pkey:0
      done;
      Mpk.unmap_all mpk ~pid;
      Alcotest.(check (option string))
        "all unmapped" (Some "page not mapped")
        (fault_reason (fun () -> D.read_u64 dev (5 * Nvm.page_size))))

let test_kernel_mode_read () =
  let dev, mpk = mk () in
  in_proc (fun _ ->
      (* Kernel can read unmapped-for-user pages... *)
      Mpk.with_kernel mpk (fun () -> ignore (D.read_u64 dev 0));
      (* ...but writes need a write window (CR0.WP, as in PMFS). *)
      Alcotest.(check (option string))
        "kernel write blocked"
        (Some "kernel write outside CR0.WP write window")
        (fault_reason (fun () ->
             Mpk.with_kernel mpk (fun () -> D.write_u64 dev 0 1))))

let test_write_window () =
  let dev, mpk = mk () in
  in_proc (fun _ ->
      Mpk.with_kernel mpk (fun () ->
          Mpk.with_write_window mpk (fun () -> D.write_u64 dev 0 77));
      Alcotest.(check int) "written in window"
        77
        (Mpk.with_kernel mpk (fun () -> D.read_u64 dev 0)))

let test_write_window_requires_kernel () =
  let _dev, mpk = mk () in
  in_proc (fun _ ->
      Alcotest.check_raises "user mode"
        (Invalid_argument "Mpk.with_write_window: not in kernel mode")
        (fun () -> Mpk.with_write_window mpk (fun () -> ())))

let test_fault_count () =
  let dev, mpk = mk () in
  in_proc (fun _ ->
      ignore (fault_reason (fun () -> D.read_u64 dev 0));
      ignore (fault_reason (fun () -> D.write_u64 dev 0 1));
      Alcotest.(check int) "two faults" 2 (Mpk.fault_count mpk))

let test_rdpkru () =
  let _dev, mpk = mk () in
  in_proc (fun _ ->
      Mpk.wrpkru mpk [ (2, Mpk.Pk_read); (7, Mpk.Pk_read_write) ];
      Alcotest.(check bool)
        "pkru reflects wrpkru" true
        (Mpk.rdpkru mpk = [ (2, Mpk.Pk_read); (7, Mpk.Pk_read_write) ]))

let test_rdpkru_interleaved_threads () =
  (* rdpkru must round-trip each thread's own register even when wrpkru
     calls from two threads of the same process interleave in time. *)
  let _dev, mpk = mk () in
  let proc = Sim.Proc.create ~uid:1000 ~gid:1000 () in
  let w = Sim.create () in
  let a = ref [] and b = ref [] in
  Sim.spawn w ~proc ~name:"t1" (fun () ->
      Mpk.wrpkru mpk [ (1, Mpk.Pk_read_write) ];
      Sim.advance 100;
      (* t2's wrpkru has happened in between *)
      Mpk.wrpkru mpk [ (1, Mpk.Pk_read) ];
      a := Mpk.rdpkru mpk);
  Sim.spawn w ~proc ~at:50 ~name:"t2" (fun () ->
      Mpk.wrpkru mpk [ (2, Mpk.Pk_read_write) ];
      Sim.advance 100;
      b := Mpk.rdpkru mpk);
  Sim.run w;
  Alcotest.(check bool) "t1 sees only its own writes" true
    (!a = [ (1, Mpk.Pk_read) ]);
  Alcotest.(check bool) "t2 sees only its own writes" true
    (!b = [ (2, Mpk.Pk_read_write) ])

let test_pkey_range_checked () =
  let _dev, mpk = mk () in
  in_proc (fun _ ->
      Alcotest.check_raises "pkey 16"
        (Invalid_argument "Mpk: pkey out of range") (fun () ->
          Mpk.wrpkru mpk [ (16, Mpk.Pk_read) ]))

let test_page_pkey_query () =
  let _dev, mpk = mk () in
  let p = Sim.Proc.create () in
  let pid = p.Sim.Proc.pid in
  Alcotest.(check (option int)) "unmapped" None (Mpk.page_pkey mpk ~pid ~page:3);
  Mpk.map_page mpk ~pid ~page:3 ~writable:true ~pkey:9;
  Alcotest.(check (option int)) "mapped" (Some 9) (Mpk.page_pkey mpk ~pid ~page:3);
  Alcotest.(check bool) "is_mapped" true (Mpk.is_mapped mpk ~pid ~page:3);
  Alcotest.(check bool) "writable" true (Mpk.page_writable mpk ~pid ~page:3);
  Mpk.map_page mpk ~pid ~page:3 ~writable:false ~pkey:9;
  Alcotest.(check bool) "read-only" false (Mpk.page_writable mpk ~pid ~page:3)

let test_wrpkru_cost () =
  let _dev, mpk = mk () in
  let t =
    Sim.run_thread (fun () ->
        Mpk.wrpkru mpk [ (1, Mpk.Pk_read_write) ];
        Sim.now ())
  in
  Alcotest.(check int) "~16 cycles" 6 t

let () =
  Alcotest.run "mpk"
    [
      ( "paging",
        [
          Alcotest.test_case "unmapped faults" `Quick test_unmapped_faults;
          Alcotest.test_case "mapped rw" `Quick test_mapped_rw_ok;
          Alcotest.test_case "read-only mapping" `Quick test_readonly_mapping;
          Alcotest.test_case "per-process tables" `Quick test_per_process_page_tables;
          Alcotest.test_case "cross-process read-only blocks write" `Quick
            test_cross_process_readonly_blocks_write;
          Alcotest.test_case "cross-process unmapped blocks all" `Quick
            test_cross_process_unmapped_blocks_all;
          Alcotest.test_case "PKRU no-leak across process switch" `Quick
            test_pkru_no_leak_across_process_switch;
          Alcotest.test_case "drop_process clears context" `Quick
            test_drop_process_clears_context;
          Alcotest.test_case "unmap" `Quick test_unmap;
          Alcotest.test_case "unmap_all" `Quick test_unmap_all;
          Alcotest.test_case "page_pkey query" `Quick test_page_pkey_query;
        ] );
      ( "mpk",
        [
          Alcotest.test_case "pkey closed by default" `Quick
            test_pkey_disabled_by_default;
          Alcotest.test_case "wrpkru opens" `Quick test_wrpkru_opens_region;
          Alcotest.test_case "read-only pkey" `Quick test_read_only_pkey;
          Alcotest.test_case "with_keys restores" `Quick test_with_keys_restores;
          Alcotest.test_case "with_keys exclusive (G2)" `Quick
            test_with_keys_exclusive;
          Alcotest.test_case "per-thread PKRU" `Quick test_per_thread_pkru;
          Alcotest.test_case "PKRU for 200 threads" `Quick
            test_pkru_for_200_threads;
          Alcotest.test_case "rdpkru" `Quick test_rdpkru;
          Alcotest.test_case "rdpkru interleaved threads" `Quick
            test_rdpkru_interleaved_threads;
          Alcotest.test_case "pkey range" `Quick test_pkey_range_checked;
          Alcotest.test_case "wrpkru cost" `Quick test_wrpkru_cost;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "kernel read ok, write blocked" `Quick
            test_kernel_mode_read;
          Alcotest.test_case "write window" `Quick test_write_window;
          Alcotest.test_case "window needs kernel" `Quick
            test_write_window_requires_kernel;
          Alcotest.test_case "fault count" `Quick test_fault_count;
          Alcotest.test_case "kernel mode outside a world" `Quick
            test_kernel_mode_outside_world;
        ] );
    ]
