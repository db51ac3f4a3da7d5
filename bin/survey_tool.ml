(* The permission-survey tool behind the paper's §2.3 analysis:

     dune exec bin/survey_tool.exe -- table3    # app data directories
     dune exec bin/survey_tool.exe -- table4    # FSL Homes snapshot + grouping
     dune exec bin/survey_tool.exe -- mobigen   # syscall traces *)

module V = Treasury.Vfs
module Ft = Treasury.Fs_types

let ok = function
  | Ok v -> v
  | Error e -> failwith (Treasury.Errno.to_string e)

let table3 () =
  let _dev, kfs =
    Workloads.Fslab.make_zofs ~root_mode:0o777 ~pages:131072 ~perf:Nvm.Perf.free ()
  in
  let fslib () = Workloads.Fslab.zofs_fslib kfs in
  Printf.printf "%-12s %-10s %-6s %-9s %9s %10s\n" "System" "Type" "Perm"
    "Uid/Gid" "# Files" "Bytes";
  List.iter
    (fun (system, uid, populate, root) ->
      Sim.run_thread ~proc:(Sim.Proc.create ~uid ~gid:uid ()) (fun () ->
          let fs = fslib () in
          ok (populate fs root);
          List.iter
            (fun r ->
              Printf.printf "%-12s %-10s %-6o %4d/%-4d %9d %10d\n" system
                (Ft.kind_to_string r.Survey.Appdirs.r_kind)
                r.Survey.Appdirs.r_perm r.Survey.Appdirs.r_uid
                r.Survey.Appdirs.r_gid r.Survey.Appdirs.r_count
                r.Survey.Appdirs.r_bytes)
            (Survey.Appdirs.scan fs ~system root)))
    [
      ("MySQL", 970, Survey.Appdirs.populate_mysql, "/mysql");
      ("PostgreSQL", 969, Survey.Appdirs.populate_postgres, "/pg");
      ( "DokuWiki",
        33,
        (fun fs root -> Survey.Appdirs.populate_dokuwiki ~scale:10 fs root),
        "/wiki" );
    ]

let table4 () =
  print_endline "synthesizing the FSL Homes snapshot (726,751 files)...";
  let files = Survey.Fsl.generate () in
  let kinds =
    [
      ("regular", Survey.Fsl.Regular);
      ("symlink", Survey.Fsl.Symlink);
      ("directory", Survey.Fsl.Directory);
    ]
  in
  List.iter
    (fun (label, k) ->
      Printf.printf "%-10s %d files\n" label (Survey.Fsl.count_kind files k))
    kinds;
  let s = Survey.Grouping.analyze files in
  Printf.printf
    "groups: %d; largest: %d files (%.1f%% of all); single-file groups: %d\n"
    s.Survey.Grouping.n_groups s.Survey.Grouping.largest_files
    (100.0 *. float_of_int s.Survey.Grouping.largest_files /. float_of_int (Array.length files))
    s.Survey.Grouping.single_file_groups;
  Printf.printf "%-6s %-9s %12s %12s %12s\n" "perm" "#groups" "min" "avg" "max";
  List.iter
    (fun (p, n, mn, avg, mx) ->
      Printf.printf "%-6o %-9d %12d %12d %12d\n" p n mn avg mx)
    s.Survey.Grouping.by_perm

let mobigen () =
  List.iter
    (fun (label, trace) ->
      let c = Survey.Mobigen.analyze trace in
      Printf.printf
        "%-9s %6d syscalls, %2d chmod, %2d chown, %2d shadow-file patterns\n"
        label c.Survey.Mobigen.total c.Survey.Mobigen.chmods
        c.Survey.Mobigen.chowns c.Survey.Mobigen.shadow_patterns)
    [
      ("Facebook", Survey.Mobigen.facebook ());
      ("Twitter", Survey.Mobigen.twitter ());
    ]

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "table3" ] -> table3 ()
  | [ "table4" ] -> table4 ()
  | [ "mobigen" ] -> mobigen ()
  | [] ->
      table3 ();
      print_newline ();
      table4 ();
      print_newline ();
      mobigen ()
  | _ ->
      prerr_endline "usage: survey_tool [table3|table4|mobigen]";
      exit 1
