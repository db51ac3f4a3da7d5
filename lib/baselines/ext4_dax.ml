(* Ext4-DAX: the mature kernel file system with page-cache bypass.  Its
   jbd2 journal serializes transactions on a shared lock, block allocation
   scans bitmaps, directories are (h-tree in reality, linear here) scans,
   and the generic VFS layer adds per-operation overhead — together they
   make it the slowest system in the paper's Table 7 / Figure 11. *)

let config () =
  {
    Engine.label = "ext4-dax";
    journal = Engine.J_jbd2 192;
    alloc = Engine.A_global_bitmap;
    data_write = Engine.W_in_place_nt;
    dir = Engine.D_linear;
    index_update = false;
    gated = true;
    op_overhead = 650;
  }
