(* PMFS (Dulloor et al., EuroSys'14) as configured for the paper's
   comparison: a journal-based kernel NVM file system with fine-grained undo
   logging, a single global allocator (the lock that stops its scaling after
   ~4 threads in Figure 7(d)), linear directories (its collapse on the
   million-entry directories of Figure 9), and — by default — normal stores
   followed by clwb for data, which Figure 8 shows is much slower than
   non-temporal stores (the PMFS-nocache variant). *)

let config ?(nocache = false) () =
  {
    Engine.label = (if nocache then "pmfs-nocache" else "pmfs");
    journal = Engine.J_undo 64;
    alloc = Engine.A_global_lock;
    data_write = (if nocache then Engine.W_in_place_nt else Engine.W_in_place_clwb);
    dir = Engine.D_linear;
    index_update = false;
    gated = true;
    op_overhead = 180;
  }
