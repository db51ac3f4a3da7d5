(* NOVA (Xu & Swanson, FAST'16) as configured for the paper's comparison: a
   log-structured kernel NVM file system with per-inode logs, per-core
   allocators (each gets an equal share of free space, so it keeps scaling
   where ZoFS's coffer_enlarge contends — Figure 7(d)/(g)), copy-on-write
   data (the reason it loses to PMFS on LevelDB/TPC-C), and DRAM indexing
   structures whose update cost dominates 4 KB overwrites (Figure 8's
   NOVA vs NOVA-noindex gap).

   [in_place] selects NOVAi: in-place data updates with journaled metadata —
   no CoW advantage for aligned 4 KB writes, plus journaling cost
   (Figure 8). *)

let config ?(in_place = false) ?(noindex = false) ?(cores = 20) () =
  {
    Engine.label =
      (match (in_place, noindex) with
      | false, false -> "nova"
      | false, true -> "nova-noindex"
      | true, false -> "novai"
      | true, true -> "novai-noindex");
    journal = (if in_place then Engine.J_jbd2 96 else Engine.J_log 64);
    alloc = Engine.A_per_thread cores;
    data_write = (if in_place then Engine.W_in_place_nt else Engine.W_cow);
    dir = Engine.D_dram_index;
    index_update = not noindex;
    gated = true;
    op_overhead = 150;
  }
