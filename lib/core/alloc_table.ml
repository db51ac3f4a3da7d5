(* KernFS's persistent allocation table (paper §4.1, Figure 3).

   One 8-byte entry per NVM page: a 32-bit coffer-ID (0 = free) and a 32-bit
   run length counting how many consecutive pages starting here share that
   coffer-ID.  Volatile ordered indexes accelerate allocation: one over free
   runs and one over all runs, plus each coffer's run starts.  The paper's
   free-space and allocated-space red-black trees are modelled by
   [Map.Make (Int)]: KernFS only asks them for ordered lookups (the run at
   or before a page, the run at or after one, the first free run that
   fits), and no simulated cost depends on a tree's shape.

   Crash consistency: per-page owner words are written before the table
   region is flushed; mount rescans the table, and leaked pages (allocated
   in the table but unreachable in their coffer) are reclaimed by the
   coffer_recover protocol, so a torn multi-page update is always repairable. *)

module IM = Map.Make (Int)
module IS = Set.Make (Int)

type run = { cid : int; len : int }

type t = {
  dev : Nvm.Device.t;
  base : int;  (* byte offset of the table on the device *)
  npages : int;  (* pages covered by the table *)
  mutable runs : run IM.t;  (* start page -> run (free and allocated) *)
  mutable free_runs : int IM.t;  (* start page -> len, free only *)
  mutable by_coffer : IS.t IM.t;  (* cid -> start pages of its runs *)
}

let entry_size = 8
let table_bytes npages = npages * entry_size

let entry_addr t page = t.base + (page * entry_size)

let read_entry t page =
  let a = entry_addr t page in
  (Nvm.Device.read_u32 t.dev a, Nvm.Device.read_u32 t.dev (a + 4))

let write_entry t page cid len =
  let a = entry_addr t page in
  Nvm.Device.write_u32 t.dev a cid;
  Nvm.Device.write_u32 t.dev (a + 4) len

(* Persist the entries of pages [start, start+len). *)
let persist_entries t start len =
  Nvm.Device.persist_range t.dev (entry_addr t start) (len * entry_size)

let coffer_starts t cid =
  Option.value ~default:IS.empty (IM.find_opt cid t.by_coffer)

let index_add t start ({ cid; len } as run) =
  t.runs <- IM.add start run t.runs;
  if cid = 0 then t.free_runs <- IM.add start len t.free_runs
  else
    t.by_coffer <- IM.add cid (IS.add start (coffer_starts t cid)) t.by_coffer

let index_remove t start { cid; _ } =
  t.runs <- IM.remove start t.runs;
  if cid = 0 then t.free_runs <- IM.remove start t.free_runs
  else
    let starts = IS.remove start (coffer_starts t cid) in
    t.by_coffer <-
      (if IS.is_empty starts then IM.remove cid t.by_coffer
       else IM.add cid starts t.by_coffer)

(* The run starting at or before / at or after page [x] (both predicates
   are monotone in the key, as [find_last_opt] / [find_first_opt] need). *)
let find_leq t x = IM.find_last_opt (fun k -> k <= x) t.runs
let find_geq t x = IM.find_first_opt (fun k -> k >= x) t.runs

(* Write the persistent entries of a whole run (paper format: page j of a
   run of length L starting at s stores L - (j - s)). *)
let write_run t start { cid; len } =
  for j = 0 to len - 1 do
    write_entry t (start + j) cid (len - j)
  done

let empty dev ~base ~npages =
  {
    dev;
    base;
    npages;
    runs = IM.empty;
    free_runs = IM.empty;
    by_coffer = IM.empty;
  }

let format dev ~base ~npages =
  let t = empty dev ~base ~npages in
  let all_free = { cid = 0; len = npages } in
  write_run t 0 all_free;
  persist_entries t 0 npages;
  index_add t 0 all_free;
  t

(* Rebuild the volatile indexes at mount.  Owner words are authoritative;
   run-length words are hints that a crash, or [set_range]'s coalescing,
   can leave wrong.  The table is read a page at a time, and a run's entries
   are rewritten only if one of its length words is wrong; the lines those
   rewrites dirtied are flushed under one fence, so a clean table costs no
   store and no flush. *)
let load dev ~base ~npages =
  let t = empty dev ~base ~npages in
  let table = Bytes.create (table_bytes npages) in
  let off = ref 0 in
  while !off < Bytes.length table do
    let n = min Nvm.page_size (Bytes.length table - !off) in
    Nvm.Device.blit_to_bytes dev (base + !off) table !off n;
    off := !off + n
  done;
  let word p field =
    Int32.to_int (Bytes.get_int32_le table ((p * entry_size) + field))
    land 0xFFFF_FFFF
  in
  let repaired = ref [] in
  let page = ref 0 in
  while !page < npages do
    let start = !page in
    let cid = word start 0 in
    incr page;
    while !page < npages && word !page 0 = cid do
      incr page
    done;
    let run = { cid; len = !page - start } in
    let rec lengths_ok j =
      j = run.len || (word (start + j) 4 = run.len - j && lengths_ok (j + 1))
    in
    if not (lengths_ok 0) then begin
      write_run t start run;
      repaired := (start, run.len) :: !repaired
    end;
    index_add t start run
  done;
  if !repaired <> [] then begin
    List.iter
      (fun (start, len) ->
        let line = ref (entry_addr t start / Nvm.line_size * Nvm.line_size) in
        while !line < entry_addr t (start + len) do
          if Nvm.Device.line_needs_flush dev !line then
            Nvm.Device.clwb dev !line;
          line := !line + Nvm.line_size
        done)
      !repaired;
    Nvm.Device.sfence dev
  end;
  t

let npages t = t.npages

let owner_of t ~page =
  if page < 0 || page >= t.npages then invalid_arg "Alloc_table.owner_of";
  match find_leq t page with
  | Some (start, run) when page < start + run.len -> run.cid
  | _ -> 0

(* Core primitive: set the owner of pages [start, start+len) to [cid]
   (0 frees them), splitting and coalescing runs as needed, and persist the
   affected entries.  With [alloc] it is the table's only mutator. *)
let set_range t ~start ~len ~cid =
  if len <= 0 || start < 0 || start + len > t.npages then
    invalid_arg "Alloc_table.set_range";
  let range_end = start + len in
  (* Collect and remove every overlapping run. *)
  let rec collect acc pos =
    if pos >= range_end then acc
    else
      match find_geq t pos with
      | Some (s, run) when s < range_end -> collect ((s, run) :: acc) (s + run.len)
      | _ -> acc
  in
  let first =
    match find_leq t start with
    | Some (s, run) when s + run.len > start -> [ (s, run) ]
    | _ -> []
  in
  let overlapping =
    match first with
    | [ (s, run) ] -> (s, run) :: collect [] (s + run.len)
    | _ -> collect [] start
  in
  List.iter (fun (s, run) -> index_remove t s run) overlapping;
  (* Re-add the pieces sticking out on the left and right. *)
  let leftovers = ref [] in
  List.iter
    (fun (s, run) ->
      if s < start then
        leftovers := (s, { run with len = start - s }) :: !leftovers;
      let e = s + run.len in
      if e > range_end then
        leftovers := (range_end, { run with len = e - range_end }) :: !leftovers)
    overlapping;
  (* Coalesce the new run with equal-owner neighbours (which may be
     leftovers we just computed, or untouched runs). *)
  let new_start = ref start and new_len = ref len in
  let leftovers =
    List.filter
      (fun (s, (run : run)) ->
        if run.cid = cid && s + run.len = !new_start then begin
          new_start := s;
          new_len := !new_len + run.len;
          false
        end
        else if run.cid = cid && s = !new_start + !new_len then begin
          new_len := !new_len + run.len;
          false
        end
        else true)
      !leftovers
  in
  (match find_leq t (!new_start - 1) with
  | Some (s, run) when run.cid = cid && s + run.len = !new_start ->
      index_remove t s run;
      new_start := s;
      new_len := !new_len + run.len
  | _ -> ());
  (match find_geq t (!new_start + !new_len) with
  | Some (s, run) when run.cid = cid && s = !new_start + !new_len ->
      index_remove t s run;
      new_len := !new_len + run.len
  | _ -> ());
  (* Persistent writes cover only the pages whose owner actually changed:
     the requested range.  Leftover pieces keep their owner words, and the
     run-length words of coalesced neighbours are left stale — they are an
     acceleration hint; [load] rebuilds the runs from the owner words and
     repairs the stale lengths at the next mount.  This keeps every update
     O(len) even as coffers grow. *)
  List.iter (fun (s, run) -> index_add t s run) leftovers;
  let merged = { cid; len = !new_len } in
  index_add t !new_start merged;
  write_run t start { cid; len };
  persist_entries t start len

let free_pages t = IM.fold (fun _ len acc -> acc + len) t.free_runs 0

(* First-fit allocation of up to [n] pages for [cid]; returns the runs
   granted (possibly several if no single free run is big enough).  Returns
   [None] — allocating nothing — if fewer than [n] free pages exist. *)
let alloc t ~cid ~n =
  if cid = 0 then invalid_arg "Alloc_table.alloc: cid 0 is reserved for free";
  if n <= 0 then invalid_arg "Alloc_table.alloc: n must be positive";
  if free_pages t < n then None
  else begin
    match Seq.find (fun (_, len) -> len >= n) (IM.to_seq t.free_runs) with
    | Some (start, _) ->
        set_range t ~start ~len:n ~cid;
        Some [ (start, n) ]
    | None ->
        (* Gather multiple runs, lowest addresses first. *)
        let granted = ref [] in
        let remaining = ref n in
        while !remaining > 0 do
          match IM.min_binding_opt t.free_runs with
          | None -> failwith "Alloc_table.alloc: accounting mismatch"
          | Some (start, len) ->
              let take = min len !remaining in
              set_range t ~start ~len:take ~cid;
              granted := (start, take) :: !granted;
              remaining := !remaining - take
        done;
        Some (List.rev !granted)
  end

let runs_of t ~cid =
  List.map
    (fun start -> (start, (IM.find start t.runs).len))
    (IS.elements (coffer_starts t cid))

let coffer_page_count t ~cid =
  List.fold_left (fun acc (_, len) -> acc + len) 0 (runs_of t ~cid)

(* Consistency check for tests: the volatile indexes must tile [0, npages)
   and agree with the persistent owner words, and each coffer's start set
   must name exactly its runs.  (Run-length words are hints and are not
   checked; [load] never trusts them either.) *)
let verify t =
  let pos = ref 0 in
  IM.iter
    (fun start run ->
      if start <> !pos then failwith "Alloc_table.verify: gap or overlap";
      if run.len <= 0 then failwith "Alloc_table.verify: empty run";
      for j = 0 to run.len - 1 do
        let c, _hint = read_entry t (start + j) in
        if c <> run.cid then failwith "Alloc_table.verify: owner mismatch"
      done;
      (match IM.find_opt start t.free_runs with
      | Some l ->
          if run.cid <> 0 || l <> run.len then
            failwith "Alloc_table.verify: free index mismatch"
      | None ->
          if run.cid = 0 then failwith "Alloc_table.verify: free run not indexed");
      if run.cid <> 0 && not (IS.mem start (coffer_starts t run.cid)) then
        failwith "Alloc_table.verify: run missing from its coffer index";
      pos := start + run.len)
    t.runs;
  if !pos <> t.npages then failwith "Alloc_table.verify: does not tile device";
  IM.iter
    (fun cid starts ->
      IS.iter
        (fun start ->
          match IM.find_opt start t.runs with
          | Some run when run.cid = cid -> ()
          | _ -> failwith "Alloc_table.verify: stale coffer index entry")
        starts)
    t.by_coffer
