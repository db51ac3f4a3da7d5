let page_size = 4096
let line_size = 64

module Perf = struct
  type t = {
    label : string;
    read_latency : int;
    write_latency : int;
    read_bandwidth : float;
    write_bandwidth : float;
    hit_cost : int;
    fence_cost : int;
    write_bw_scale : int -> float;
  }

  (* Optane DC PM loses aggregate write bandwidth beyond ~12 concurrent
     writers (paper Table 1 and §6.1/Fig. 7(e), after Izraelevitz et al.). *)
  let optane_scale n =
    if n <= 12 then 1.0 else Float.max 0.5 (1.0 -. (0.05 *. float_of_int (n - 12)))

  let optane =
    {
      label = "optane-dc-pm";
      read_latency = 305;
      write_latency = 94;
      read_bandwidth = 39.0;
      write_bandwidth = 14.0;
      hit_cost = 2;
      fence_cost = 30;
      write_bw_scale = optane_scale;
    }

  let dram =
    {
      label = "ddr4-dram";
      read_latency = 81;
      write_latency = 86;
      read_bandwidth = 115.0;
      write_bandwidth = 79.0;
      hit_cost = 2;
      fence_cost = 30;
      write_bw_scale = (fun _ -> 1.0);
    }

  let free =
    {
      label = "free";
      read_latency = 0;
      write_latency = 0;
      read_bandwidth = infinity;
      write_bandwidth = infinity;
      hit_cost = 0;
      fence_cost = 0;
      write_bw_scale = (fun _ -> 1.0);
    }
end

(* A fault's kind tells handlers whether the access was *illegal*
   (Protection: MPK/write-window rules, raised by lib/mpk) or merely
   *unlucky* (Media: an uncorrectable NVM error on a poisoned line).  Both
   must be contained the same way — graceful error return — but only Media
   faults make the data itself suspect and feed the coffer health machine. *)
type fault_kind = Protection | Media

exception
  Fault of { addr : int; write : bool; kind : fault_kind; reason : string }

(* Trace-subscriber registry, shared by {!Device} and the MPK layer so
   independent analysis layers (lib/check, lib/race, lib/obs) compose.
   Delivery order is anonymous subscribers first, in subscription order,
   then named slots in name order: deterministic regardless of which
   checker was installed first, so "check" + "race" see identical event
   streams either way.  [subs] is the delivery list, rebuilt on every
   (rare) change so [emit] and the untraced [active] test stay cheap. *)
module Subscribers = struct
  type 'ev t = {
    mutable anon : (int * ('ev -> unit)) list;
    mutable named : (string * ('ev -> unit)) list;  (* sorted by name *)
    mutable subs : ('ev -> unit) list;
    mutable next_id : int;
  }

  let create () = { anon = []; named = []; subs = []; next_id = 0 }
  let active r = r.subs != []
  let rebuild r = r.subs <- List.map snd r.anon @ List.map snd r.named

  let add r f =
    let id = r.next_id in
    r.next_id <- id + 1;
    r.anon <- r.anon @ [ (id, f) ];
    rebuild r;
    id

  let remove r id =
    r.anon <- List.filter (fun (i, _) -> i <> id) r.anon;
    rebuild r

  let subscribe_named r ~name f =
    r.named <-
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        ((name, f) :: List.remove_assoc name r.named);
    rebuild r

  let unsubscribe_named r ~name =
    r.named <- List.remove_assoc name r.named;
    rebuild r

  let emit r ev = List.iter (fun f -> f ev) r.subs
end

module Device = struct
  (* Per-line persistence state, one byte per cache line; a clean line is
     durable.  Every state query reads this byte. *)
  let st_clean = '\000'
  let st_dirty = '\001'
  let st_flushing = '\002'

  (* Trace events for analysis tooling (lib/check, lib/obs).  Unlike the
     protection hook, a trace subscriber observes every access *after* it
     happened and must never fault; it exists so checkers can mirror the
     device's per-line persistence state without reaching into the
     implementation.  [ns] is the simulated time the operation was charged
     (including any bandwidth-channel wait), measured only while at least
     one subscriber is attached. *)
  type trace_event =
    | T_store of { addr : int; len : int; ns : int }
    | T_nt_store of { addr : int; len : int; ns : int }
    | T_load of { addr : int; len : int; ns : int }
    | T_cas of { addr : int; len : int; ns : int }
        (* successful lock-cmpxchg: a store that is also an acquire/release
           synchronization point (lease words, allocator slot owners) *)
    | T_clwb of { addr : int; ns : int }
    | T_fence of { nflushing : int; ns : int }
    | T_media_fault of { addr : int; write : bool }
    | T_reset

  type t = {
    dev_size : int;
    npages : int;
    dev_perf : Perf.t;
    vol : bytes option array;
    shadow : bytes option array;
    lstate : Bytes.t;  (* line index -> st_clean / st_dirty / st_flushing *)
    mutable npending : int;  (* lines whose state is not st_clean *)
    mutable flushing : int list;  (* lines initiated but not fenced *)
    mutable hook : (addr:int -> write:bool -> unit) option;
    trace : trace_event Subscribers.t;
    crash_rng : Sim.Rng.t;
    read_chan : Sim.Resource.t;
    write_chan : Sim.Resource.t;
    line_caches : int array Sim.Idtbl.t;  (* tid -> direct-mapped tags *)
    mutable caches_world : int;  (* the world [line_caches] belong to *)
    mutable pollute_cursor : int;  (* rotating eviction window (per device!) *)
    mutable n_reads : int;
    mutable n_writes : int;
    mutable n_flushes : int;
    mutable n_fences : int;
    mutable n_redundant_flushes : int;  (* clwb of a clean/already-flushing line *)
    mutable n_redundant_fences : int;  (* sfence with nothing flushing *)
    mutable fences_to_drop : int;  (* fault injection: skip the next N sfences *)
    poison : (int, bool) Hashtbl.t;  (* line index -> sticky (media errors) *)
    mutable n_media_faults : int;
    mutable atomic_depth : int;  (* open kernel atomic sections (nesting) *)
    mutable atomic_undo : (int * bytes option) list;
        (* (line, durable content at first in-section touch; None = unborn) *)
    undo_mark : Bytes.t;  (* line index -> '\001' iff in [atomic_undo] *)
  }

  let create ?(perf = Perf.optane) ?(seed = 7L) ~size () =
    if size <= 0 || size mod page_size <> 0 then
      invalid_arg "Nvm.Device.create: size must be a positive page multiple";
    {
      dev_size = size;
      npages = size / page_size;
      dev_perf = perf;
      vol = Array.make (size / page_size) None;
      shadow = Array.make (size / page_size) None;
      lstate = Bytes.make (size / line_size) st_clean;
      npending = 0;
      flushing = [];
      hook = None;
      trace = Subscribers.create ();
      crash_rng = Sim.Rng.create seed;
      read_chan = Sim.Resource.create ~name:"nvm-read-bw" ();
      write_chan = Sim.Resource.create ~name:"nvm-write-bw" ();
      line_caches = Sim.Idtbl.create ();
      caches_world = 0;
      pollute_cursor = 0;
      n_reads = 0;
      n_writes = 0;
      n_flushes = 0;
      n_fences = 0;
      n_redundant_flushes = 0;
      n_redundant_fences = 0;
      fences_to_drop = 0;
      poison = Hashtbl.create 8;
      n_media_faults = 0;
      atomic_depth = 0;
      atomic_undo = [];
      undo_mark = Bytes.make (size / line_size) '\000';
    }

  let size d = d.dev_size
  let pages d = d.npages
  let perf d = d.dev_perf
  let set_protection_hook d f = d.hook <- Some f
  let clear_protection_hook d = d.hook <- None
  let add_trace_subscriber d f = Subscribers.add d.trace f
  let remove_trace_subscriber d id = Subscribers.remove d.trace id
  let subscribe_named d ~name f = Subscribers.subscribe_named d.trace ~name f
  let unsubscribe_named d ~name = Subscribers.unsubscribe_named d.trace ~name
  let traced d = Subscribers.active d.trace
  let emit d ev = Subscribers.emit d.trace ev

  (* Cost measurement starts here when any subscriber is attached; with none
     attached the untraced path neither reads the clock nor allocates.
     Constructor application stays inside the traced branch for the same
     reason. *)
  let t_begin d = if traced d then Sim.now () else 0

  let trace_store d addr len t0 =
    if traced d then emit d (T_store { addr; len; ns = Sim.now () - t0 })

  let trace_nt_store d addr len t0 =
    if traced d then emit d (T_nt_store { addr; len; ns = Sim.now () - t0 })

  let trace_load d addr len t0 =
    if traced d then emit d (T_load { addr; len; ns = Sim.now () - t0 })

  let vol_page d i =
    match d.vol.(i) with
    | Some b -> b
    | None ->
        let b = Bytes.make page_size '\000' in
        d.vol.(i) <- Some b;
        b

  let shadow_page d i =
    match d.shadow.(i) with
    | Some b -> b
    | None ->
        let b = Bytes.make page_size '\000' in
        d.shadow.(i) <- Some b;
        b

  let check_bounds d addr len =
    if addr < 0 || len < 0 || addr + len > d.dev_size then
      invalid_arg
        (Printf.sprintf "Nvm: access [%d, %d) out of device [0, %d)" addr
           (addr + len) d.dev_size)

  let check_protection d addr write =
    match d.hook with None -> () | Some f -> f ~addr ~write

  (* A bulk access is checked like the scalar accesses it stands for: the
     hook sees every page the range touches, and sees it before the bounds
     check, so a user-mode range that runs into an unmapped page or past the
     device end raises [Fault] (which recovery and the µFS contain), never
     [Invalid_argument]. *)
  let check_range_protection d addr len write =
    match d.hook with
    | Some f when len > 0 ->
        f ~addr ~write;
        for page = (addr / page_size) + 1 to (addr + len - 1) / page_size do
          f ~addr:(page * page_size) ~write
        done
    | _ -> ()

  (* --- media-error (poison) injection ----------------------------------- *)

  (* A poisoned cache line models an uncorrectable NVM media error: any load
     touching it raises [Fault] with [kind = Media] (the simulated machine
     check), emitted on the trace stream first so checkers and metrics
     observe it.  A store to the line re-maps it (scrub-on-write), clearing
     the poison — unless it was injected [~sticky], which models a
     persistently failing cell and powers the chaos gate's negative
     self-check.  Poison is a property of the medium: it survives [crash]
     and rides along in [snapshot]/[restore]. *)

  let inject_poison ?(sticky = false) d addr =
    check_bounds d addr 1;
    Hashtbl.replace d.poison (addr / line_size) sticky

  let clear_poison d addr = Hashtbl.remove d.poison (addr / line_size)
  let is_poisoned d addr = Hashtbl.mem d.poison (addr / line_size)
  let poisoned_lines d = Hashtbl.length d.poison

  let raise_media d addr ~write =
    d.n_media_faults <- d.n_media_faults + 1;
    if traced d then emit d (T_media_fault { addr; write });
    raise
      (Fault { addr; write; kind = Media; reason = "uncorrectable media error" })

  let check_poison_read d addr len =
    if Hashtbl.length d.poison > 0 && len > 0 then begin
      let first = addr / line_size and last = (addr + len - 1) / line_size in
      for line = first to last do
        if Hashtbl.mem d.poison line then
          raise_media d (line * line_size) ~write:false
      done
    end

  let heal_poison d line =
    if Hashtbl.length d.poison > 0 then
      match Hashtbl.find_opt d.poison line with
      | Some false -> Hashtbl.remove d.poison line
      | _ -> ()

  (* --- cost accounting ------------------------------------------------- *)

  (* Direct-mapped model of the per-core cache: 4096 lines = 256 KB, enough
     that hot metadata (free lists, inodes, directory pages) hits as it
     would on real hardware. *)
  let cache_slots = 4096

  (* The line caches of the active world.  Tids restart at 0 in every
     world, so a new world's first access drops the previous world's
     caches: its threads start cold, however warm the device was left.
     The pollution cursor goes with them, so a world's first kernel entry
     evicts the same window whatever the previous world did. *)
  let caches d =
    let w = Sim.world_uid () in
    if w <> d.caches_world then begin
      d.caches_world <- w;
      Sim.Idtbl.reset d.line_caches;
      d.pollute_cursor <- 0
    end;
    d.line_caches

  let line_cache d tid =
    match Sim.Idtbl.find_opt (caches d) tid with
    | Some a -> a
    | None ->
        let a = Array.make cache_slots (-1) in
        Sim.Idtbl.replace d.line_caches tid a;
        a

  (* A kernel crossing displaces part of the working set, not all of it:
     evict a rotating 1/8 window of the simulated cache.  The cursor lives
     on the device, not at module level, and is reset with the world's
     caches ([caches]): a cursor carried from one simulated world into the
     next would make identical runs time differently (the perf gate's
     determinism test catches this). *)
  let pollute_window = cache_slots / 8

  (* The cursor moves a whole window at a time, so a window never wraps. *)
  let pollute_cache d =
    match Sim.Idtbl.find_opt (caches d) (Sim.self_tid ()) with
    | Some a ->
        let start = d.pollute_cursor in
        Array.fill a start pollute_window (-1);
        d.pollute_cursor <- (start + pollute_window) land (cache_slots - 1)
    | None -> ()

  let effective_write_bw d =
    d.dev_perf.Perf.write_bandwidth
    *. d.dev_perf.Perf.write_bw_scale (Sim.live_threads ())

  (* The per-access charges ask [Sim] once for the thread (-1 outside a
     simulation): every call into [Sim] is paid on every simulated access. *)
  let charge_read d addr len =
    d.n_reads <- d.n_reads + 1;
    let tid = Sim.self_tid () in
    if tid >= 0 then
      let p = d.dev_perf in
      if len <= line_size then begin
        let line = addr / line_size in
        let cache = line_cache d tid in
        let slot = line mod cache_slots in
        if cache.(slot) = line then Sim.advance p.Perf.hit_cost
        else begin
          cache.(slot) <- line;
          Sim.advance p.Perf.read_latency
        end
      end
      else begin
        Sim.advance p.Perf.read_latency;
        if p.Perf.read_bandwidth <> infinity then
          Sim.Resource.use d.read_chan
            (int_of_float (float_of_int len /. p.Perf.read_bandwidth))
      end

  let charge_store d addr len =
    d.n_writes <- d.n_writes + 1;
    let tid = Sim.self_tid () in
    if tid >= 0 then begin
      let p = d.dev_perf in
      Sim.advance p.Perf.hit_cost;
      if len <= line_size then begin
        (* write-allocate in the simulated line cache *)
        let line = addr / line_size in
        let cache = line_cache d tid in
        cache.(line mod cache_slots) <- line
      end
    end

  (* Reserve write-back bandwidth for one line (when it starts flushing). *)
  let charge_writeback d nbytes =
    if Sim.in_sim () then begin
      let bw = effective_write_bw d in
      if bw <> infinity then
        Sim.Resource.use d.write_chan (int_of_float (float_of_int nbytes /. bw))
    end

  (* --- kernel atomic sections ------------------------------------------- *)

  (* The simulated KernFS updates its metadata (allocation-table owner words,
     the coffer path map, root pages) with multi-fence store sequences; a real
     kernel journals these so a crash never exposes a partial update (the
     paper's trust model, §3.5: KernFS metadata is recovered by the kernel
     itself).  Rather than model a journal byte-for-byte we give the device a
     transaction primitive with exactly the journal's crash semantics: every
     line first touched inside an open section has its pre-section *durable*
     content saved, and a crash that lands inside the section rolls all of
     them back, so kernel metadata updates are crash-atomic.  User-space
     (µFS) writes never run inside a section and keep raw line-granularity
     crash behaviour. *)

  let in_undo d line = Bytes.get d.undo_mark line <> '\000'

  let atomic_note d line =
    if d.atomic_depth > 0 && not (in_undo d line) then begin
      let addr = line * line_size in
      let page = addr / page_size and off = addr mod page_size in
      let saved =
        match d.shadow.(page) with
        | None -> None
        | Some s -> Some (Bytes.sub s off line_size)
      in
      Bytes.set d.undo_mark line '\001';
      d.atomic_undo <- (line, saved) :: d.atomic_undo
    end

  (* Empty the undo log and clear its marks. *)
  let reset_undo d =
    List.iter (fun (line, _) -> Bytes.set d.undo_mark line '\000') d.atomic_undo;
    d.atomic_undo <- []

  (* --- line state --------------------------------------------------------- *)

  let line_state d line = Bytes.get d.lstate line

  (* Move [line] to [st] (Dirty or Flushing); the count moves only when the
     line leaves the clean state. *)
  let set_line_state d line st =
    if line_state d line = st_clean then d.npending <- d.npending + 1;
    Bytes.set d.lstate line st

  let clear_line_state d line =
    if line_state d line <> st_clean then begin
      d.npending <- d.npending - 1;
      Bytes.set d.lstate line st_clean
    end

  (* Apply [f] to every pending line in ascending line order.  No scan when
     nothing is pending; otherwise eight state bytes are tested at a time
     (the line count is a multiple of 64: devices are whole pages). *)
  let iter_pending d f =
    if d.npending > 0 then
      for w = 0 to (Bytes.length d.lstate / 8) - 1 do
        if Bytes.get_int64_ne d.lstate (8 * w) <> 0L then
          for line = 8 * w to (8 * w) + 7 do
            if Bytes.get d.lstate line <> st_clean then f line
          done
      done

  (* Clean every pending line. *)
  let clear_pending d =
    if d.npending > 0 then begin
      Bytes.fill d.lstate 0 (Bytes.length d.lstate) st_clean;
      d.npending <- 0
    end

  (* --- volatile view accessors ----------------------------------------- *)

  let mark_dirty d addr len =
    let first = addr / line_size and last = (addr + len - 1) / line_size in
    for line = first to last do
      atomic_note d line;
      heal_poison d line;
      if line_state d line = st_clean then set_line_state d line st_dirty
    done

  (* The page offset of a scalar access; the caller takes the page from
     [addr / page_size], so the hot path builds no tuple. *)
  let scalar_off d addr len =
    check_bounds d addr len;
    let off = addr mod page_size in
    if off + len > page_size then
      invalid_arg "Nvm: scalar access crosses a page boundary";
    off

  let read_u8 d addr =
    check_protection d addr false;
    check_poison_read d addr 1;
    let t0 = t_begin d in
    charge_read d addr 1;
    trace_load d addr 1 t0;
    let off = scalar_off d addr 1 in
    Char.code (Bytes.get (vol_page d (addr / page_size)) off)

  let read_u16 d addr =
    check_protection d addr false;
    check_poison_read d addr 2;
    let t0 = t_begin d in
    charge_read d addr 2;
    trace_load d addr 2 t0;
    let off = scalar_off d addr 2 in
    Bytes.get_uint16_le (vol_page d (addr / page_size)) off

  let read_u32 d addr =
    check_protection d addr false;
    check_poison_read d addr 4;
    let t0 = t_begin d in
    charge_read d addr 4;
    trace_load d addr 4 t0;
    let off = scalar_off d addr 4 in
    Int32.to_int (Bytes.get_int32_le (vol_page d (addr / page_size)) off) land 0xFFFFFFFF

  let read_u64 d addr =
    check_protection d addr false;
    check_poison_read d addr 8;
    let t0 = t_begin d in
    charge_read d addr 8;
    trace_load d addr 8 t0;
    let off = scalar_off d addr 8 in
    Int64.to_int (Bytes.get_int64_le (vol_page d (addr / page_size)) off)

  let write_u8 d addr v =
    check_protection d addr true;
    let t0 = t_begin d in
    charge_store d addr 1;
    let off = scalar_off d addr 1 in
    Bytes.set (vol_page d (addr / page_size)) off (Char.chr (v land 0xFF));
    mark_dirty d addr 1;
    trace_store d addr 1 t0

  let write_u16 d addr v =
    check_protection d addr true;
    let t0 = t_begin d in
    charge_store d addr 2;
    let off = scalar_off d addr 2 in
    Bytes.set_uint16_le (vol_page d (addr / page_size)) off (v land 0xFFFF);
    mark_dirty d addr 2;
    trace_store d addr 2 t0

  let write_u32 d addr v =
    check_protection d addr true;
    let t0 = t_begin d in
    charge_store d addr 4;
    let off = scalar_off d addr 4 in
    Bytes.set_int32_le (vol_page d (addr / page_size)) off (Int32.of_int v);
    mark_dirty d addr 4;
    trace_store d addr 4 t0

  let write_u64 d addr v =
    check_protection d addr true;
    let t0 = t_begin d in
    charge_store d addr 8;
    let off = scalar_off d addr 8 in
    Bytes.set_int64_le (vol_page d (addr / page_size)) off (Int64.of_int v);
    mark_dirty d addr 8;
    trace_store d addr 8 t0

  (* Atomic compare-and-swap (lock cmpxchg): the compare and the store are a
     single linearization point — all simulated-time charging happens first,
     so no other thread can interleave between them. *)
  let cas_u64 d addr ~expected ~desired =
    check_protection d addr true;
    check_poison_read d addr 8 (* cmpxchg loads the line first *);
    let t0 = t_begin d in
    charge_store d addr 8;
    if Sim.in_sim () then Sim.advance 20 (* lock prefix overhead *);
    let off = scalar_off d addr 8 in
    let b = vol_page d (addr / page_size) in
    let current = Int64.to_int (Bytes.get_int64_le b off) in
    if current = expected then begin
      Bytes.set_int64_le b off (Int64.of_int desired);
      mark_dirty d addr 8;
      if traced d then emit d (T_cas { addr; len = 8; ns = Sim.now () - t0 });
      true
    end
    else false

  let blit_to_bytes d addr buf boff len =
    check_range_protection d addr len false;
    check_bounds d addr len;
    if len > 0 then begin
      check_poison_read d addr len;
      let t0 = t_begin d in
      charge_read d addr len;
      trace_load d addr len t0;
      let remaining = ref len and src = ref addr and dst = ref boff in
      while !remaining > 0 do
        let page = !src / page_size and off = !src mod page_size in
        let n = min !remaining (page_size - off) in
        Bytes.blit (vol_page d page) off buf !dst n;
        src := !src + n;
        dst := !dst + n;
        remaining := !remaining - n
      done
    end

  let read_bytes d addr len =
    let b = Bytes.create len in
    blit_to_bytes d addr b 0 len;
    b

  let read_string d addr len = Bytes.unsafe_to_string (read_bytes d addr len)

  let blit_from_bytes d buf boff addr len =
    check_range_protection d addr len true;
    check_bounds d addr len;
    if len > 0 then begin
      let t0 = t_begin d in
      charge_store d addr len;
      let remaining = ref len and src = ref boff and dst = ref addr in
      while !remaining > 0 do
        let page = !dst / page_size and off = !dst mod page_size in
        let n = min !remaining (page_size - off) in
        Bytes.blit buf !src (vol_page d page) off n;
        src := !src + n;
        dst := !dst + n;
        remaining := !remaining - n
      done;
      mark_dirty d addr len;
      trace_store d addr len t0
    end

  let write_string d addr s =
    blit_from_bytes d (Bytes.unsafe_of_string s) 0 addr (String.length s)

  let fill d addr len c =
    check_range_protection d addr len true;
    check_bounds d addr len;
    if len > 0 then begin
      let t0 = t_begin d in
      charge_store d addr len;
      let remaining = ref len and dst = ref addr in
      while !remaining > 0 do
        let page = !dst / page_size and off = !dst mod page_size in
        let n = min !remaining (page_size - off) in
        Bytes.fill (vol_page d page) off n c;
        dst := !dst + n;
        remaining := !remaining - n
      done;
      mark_dirty d addr len;
      trace_store d addr len t0
    end

  let copy_within d ~src ~dst ~len =
    let b = read_bytes d src len in
    blit_from_bytes d b 0 dst len

  (* --- persistence protocol -------------------------------------------- *)

  let persist_line_now d line =
    let addr = line * line_size in
    let page = addr / page_size and off = addr mod page_size in
    match d.vol.(page) with
    | None -> ()  (* never written: both views are zero *)
    | Some v -> Bytes.blit v off (shadow_page d page) off line_size

  let clwb d addr =
    check_bounds d addr 1;
    d.n_flushes <- d.n_flushes + 1;
    let t0 = t_begin d in
    let line = addr / line_size in
    (* Write-back bandwidth is charged BEFORE the line-state transition: the
       bandwidth channel can block (a simulated context switch), and a fence
       issued by another thread during that wait must see — and let trace
       subscribers see — either the whole transition or none of it.  The
       state change and its trace event stay adjacent, with no scheduling
       point between them; the state is re-read after the wait because the
       interleaved thread may have changed it. *)
    if line_state d line = st_dirty then charge_writeback d line_size;
    if line_state d line = st_dirty then begin
      set_line_state d line st_flushing;
      d.flushing <- line :: d.flushing
    end
    else d.n_redundant_flushes <- d.n_redundant_flushes + 1;
    (* The event fires before the trailing advance (keeping its ordering
       relative to the line-state change), so that known constant is folded
       into the reported cost instead of measured. *)
    (if traced d then
       let tail = if Sim.in_sim () then 4 else 0 in
       emit d (T_clwb { addr; ns = Sim.now () - t0 + tail }));
    if Sim.in_sim () then Sim.advance 4

  let flush_range d addr len =
    if len > 0 then begin
      let first = addr / line_size and last = (addr + len - 1) / line_size in
      for line = first to last do
        clwb d (line * line_size)
      done
    end

  (* Fault injection: make the next [n] sfences complete no-ops (no count,
     no trace event, nothing persisted — flushing lines stay pending), as if
     the programmer forgot the fence.  Used by the crash checker's negative
     tests to prove a missing-fence bug is observable as a divergence. *)
  let inject_drop_fences d n = d.fences_to_drop <- n

  let sfence d =
    if d.fences_to_drop > 0 then d.fences_to_drop <- d.fences_to_drop - 1
    else begin
    d.n_fences <- d.n_fences + 1;
    let had_flushing = d.flushing <> [] in
    if not had_flushing then d.n_redundant_fences <- d.n_redundant_fences + 1;
    (if traced d then
       let p = d.dev_perf in
       let tail =
         if Sim.in_sim () then
           p.Perf.fence_cost + if had_flushing then p.Perf.write_latency else 0
         else 0
       in
       emit d (T_fence { nflushing = List.length d.flushing; ns = tail }));
    List.iter
      (fun line ->
        persist_line_now d line;
        clear_line_state d line)
      d.flushing;
    d.flushing <- [];
    if Sim.in_sim () then begin
      let p = d.dev_perf in
      Sim.advance (p.Perf.fence_cost + if had_flushing then p.Perf.write_latency else 0)
    end
    end

  (* Open a kernel atomic section (nestable; only the outermost commits). *)
  let begin_atomic d = d.atomic_depth <- d.atomic_depth + 1

  (* Undo every line touched since the outermost [begin_atomic]: restore its
     pre-section durable content, forget its pending state.  Volatile bytes
     are left alone — the caller either crashes (which rebuilds the volatile
     view from the durable one) or continues with the store-visible state it
     already had. *)
  let rollback_atomic d =
    List.iter
      (fun (line, saved) ->
        clear_line_state d line;
        let addr = line * line_size in
        let page = addr / page_size and off = addr mod page_size in
        match saved with
        | Some b -> Bytes.blit b 0 (shadow_page d page) off line_size
        | None -> (
            match d.shadow.(page) with
            | None -> ()
            | Some s -> Bytes.fill s off line_size '\000'))
      d.atomic_undo;
    d.flushing <- List.filter (fun l -> not (in_undo d l)) d.flushing;
    reset_undo d;
    d.atomic_depth <- 0

  (* Close the section, making all its writes durable together (the journal
     commit).  Leftover pending section lines are flushed through the public
     clwb/sfence path so trace subscribers and stats stay coherent; if a
     subscriber aborts mid-commit (crash exploration), the section is still
     open and the next [crash] rolls the whole update back — a crash during
     journal commit aborts the transaction. *)
  let commit_atomic d =
    if d.atomic_depth <= 0 then
      invalid_arg "Nvm.Device.commit_atomic: no open section";
    if d.atomic_depth > 1 then d.atomic_depth <- d.atomic_depth - 1
    else begin
      let need_fence = ref false in
      let lines = List.rev_map fst d.atomic_undo in
      List.iter
        (fun line ->
          let st = line_state d line in
          if st = st_dirty then clwb d (line * line_size);
          if st <> st_clean then need_fence := true)
        (List.sort Int.compare lines);
      if !need_fence then sfence d;
      d.atomic_depth <- 0;
      reset_undo d
    end

  (* Abort on a non-crash exception escaping the section (e.g. a protection
     fault surfaced as EIO): the partial kernel update must not become
     durable. *)
  let abort_atomic d =
    if d.atomic_depth > 1 then d.atomic_depth <- d.atomic_depth - 1
    else if d.atomic_depth = 1 then rollback_atomic d

  (* A non-temporal store leaves its line Flushing: durable at the next
     fence, whatever state it was in. *)
  let start_flushing d line =
    if line_state d line <> st_flushing then begin
      set_line_state d line st_flushing;
      d.flushing <- line :: d.flushing
    end

  let nt_write_u64 d addr v =
    check_protection d addr true;
    let t0 = t_begin d in
    charge_store d addr 8;
    let off = scalar_off d addr 8 in
    Bytes.set_int64_le (vol_page d (addr / page_size)) off (Int64.of_int v);
    let line = addr / line_size in
    (* As in [clwb]: charge (and possibly block) before the state change so
       the transition and its trace event are not separated by a scheduling
       point an interleaved fence could slip through. *)
    if line_state d line <> st_flushing then charge_writeback d line_size;
    atomic_note d line;
    heal_poison d line;
    start_flushing d line;
    trace_nt_store d addr 8 t0

  let nt_write_string d addr s =
    let len = String.length s in
    check_range_protection d addr len true;
    check_bounds d addr len;
    if len > 0 then begin
      let t0 = t_begin d in
      d.n_writes <- d.n_writes + 1;
      if Sim.in_sim () then Sim.advance d.dev_perf.Perf.hit_cost;
      let remaining = ref len and src = ref 0 and dst = ref addr in
      while !remaining > 0 do
        let page = !dst / page_size and off = !dst mod page_size in
        let n = min !remaining (page_size - off) in
        Bytes.blit (Bytes.unsafe_of_string s) !src (vol_page d page) off n;
        src := !src + n;
        dst := !dst + n;
        remaining := !remaining - n
      done;
      (* Charge before the per-line transitions (see [clwb]): the bandwidth
         wait can context-switch, and the state changes plus the trace event
         must form one unseparated step. *)
      charge_writeback d len;
      let first = addr / line_size and last = (addr + len - 1) / line_size in
      for line = first to last do
        atomic_note d line;
        heal_poison d line;
        start_flushing d line
      done;
      trace_nt_store d addr len t0
    end

  let persist_range d addr len =
    flush_range d addr len;
    sfence d

  (* Non-temporal memset: one bandwidth reservation for the whole range,
     durable after the next fence (used to zero fresh structure pages). *)
  let nt_fill d addr len c =
    check_range_protection d addr len true;
    check_bounds d addr len;
    if len > 0 then begin
      let t0 = t_begin d in
      d.n_writes <- d.n_writes + 1;
      if Sim.in_sim () then Sim.advance d.dev_perf.Perf.hit_cost;
      let remaining = ref len and dst = ref addr in
      while !remaining > 0 do
        let page = !dst / page_size and off = !dst mod page_size in
        let n = min !remaining (page_size - off) in
        Bytes.fill (vol_page d page) off n c;
        dst := !dst + n;
        remaining := !remaining - n
      done;
      (* Same ordering discipline as [nt_write_string]. *)
      charge_writeback d len;
      let first = addr / line_size and last = (addr + len - 1) / line_size in
      for line = first to last do
        atomic_note d line;
        heal_poison d line;
        start_flushing d line
      done;
      trace_nt_store d addr len t0
    end

  let persist_all d =
    iter_pending d (persist_line_now d);
    clear_pending d;
    d.flushing <- [];
    if traced d then emit d T_reset

  let pending_lines d = d.npending

  (* Line-grained state queries for software that keeps its own persist
     bookkeeping (the µFS commit-path batcher).  These model a library
     tracking which of its *own* stores are already flushed / fenced; the
     device's pending table is the authoritative version of that
     bookkeeping, so exposing it keeps the batcher honest even when a
     kernel call fences in the middle of a user-space operation. *)
  let flushing_lines d = List.length d.flushing

  let line_needs_flush d addr =
    let line = addr / line_size in
    line >= 0 && line < Bytes.length d.lstate && line_state d line = st_dirty

  type crash_policy = [ `Random | `Drop_all | `Keep_all ]

  let crash ?(policy = `Random) d =
    (* A crash inside an open kernel atomic section aborts it: none of the
       section's writes survive, regardless of policy. *)
    if d.atomic_depth > 0 then rollback_atomic d;
    (* `Random draws one survival bit per pending line, in ascending line
       order. *)
    (match policy with
    | `Keep_all -> iter_pending d (persist_line_now d)
    | `Drop_all -> ()
    | `Random ->
        iter_pending d (fun line ->
            if Sim.Rng.bool d.crash_rng then persist_line_now d line));
    clear_pending d;
    d.flushing <- [];
    if traced d then emit d T_reset;
    (* Volatile view := persistent view. *)
    for i = 0 to d.npages - 1 do
      match (d.vol.(i), d.shadow.(i)) with
      | None, _ -> ()
      | Some v, Some s -> Bytes.blit s 0 v 0 page_size
      | Some v, None -> Bytes.fill v 0 page_size '\000'
    done

  (* Reseed the crash-policy PRNG so each explored crash point draws a
     reproducible, independent line-survival pattern. *)
  let set_crash_seed d seed = Sim.Rng.set_state d.crash_rng seed

  (* ---- snapshot / restore (crash-exploration branching) ----------------- *)

  (* A snapshot captures everything that determines future device behaviour:
     both memory views (sparsely — only materialized pages), the per-line
     pending/flushing persistence state, the crash PRNG, and the stats
     counters.  The per-thread line caches and bandwidth channels are *not*
     captured: they only affect simulated cost, and every explored branch
     runs in a fresh [Sim] world anyway. *)
  type snapshot = {
    snap_vol : (int * bytes) array;
    snap_shadow : (int * bytes) array;
    snap_pending : (int * char) array;  (* line -> st_dirty / st_flushing *)
    snap_flushing : int list;
    snap_rng : int64;
    snap_stats : int array;
    snap_poison : (int * bool) array;
  }

  let snapshot d =
    let sparse arr =
      let acc = ref [] in
      Array.iteri
        (fun i p -> match p with
          | Some b -> acc := (i, Bytes.copy b) :: !acc
          | None -> ())
        arr;
      Array.of_list !acc
    in
    {
      snap_vol = sparse d.vol;
      snap_shadow = sparse d.shadow;
      snap_pending =
        (let acc = ref [] in
         iter_pending d (fun l -> acc := (l, line_state d l) :: !acc);
         Array.of_list !acc);
      snap_flushing = d.flushing;
      snap_rng = Sim.Rng.get_state d.crash_rng;
      snap_stats =
        [| d.n_reads; d.n_writes; d.n_flushes; d.n_fences;
           d.n_redundant_flushes; d.n_redundant_fences; d.n_media_faults |];
      snap_poison =
        Array.of_list
          (Hashtbl.fold (fun l s acc -> (l, s) :: acc) d.poison []);
    }

  (* Restore is destructive and reusable: the same snapshot can seed any
     number of branches, so restored pages are fresh copies. *)
  let restore d snap =
    Array.fill d.vol 0 d.npages None;
    Array.fill d.shadow 0 d.npages None;
    Array.iter (fun (i, b) -> d.vol.(i) <- Some (Bytes.copy b)) snap.snap_vol;
    Array.iter
      (fun (i, b) -> d.shadow.(i) <- Some (Bytes.copy b))
      snap.snap_shadow;
    clear_pending d;
    Array.iter (fun (l, st) -> set_line_state d l st) snap.snap_pending;
    d.flushing <- snap.snap_flushing;
    Sim.Rng.set_state d.crash_rng snap.snap_rng;
    (match snap.snap_stats with
    | [| r; w; fl; fe; rfl; rfe; mf |] ->
        d.n_reads <- r;
        d.n_writes <- w;
        d.n_flushes <- fl;
        d.n_fences <- fe;
        d.n_redundant_flushes <- rfl;
        d.n_redundant_fences <- rfe;
        d.n_media_faults <- mf
    | _ -> ());
    Hashtbl.reset d.poison;
    Array.iter (fun (l, s) -> Hashtbl.replace d.poison l s) snap.snap_poison;
    d.fences_to_drop <- 0;
    d.atomic_depth <- 0;
    reset_undo d;
    Sim.Idtbl.reset d.line_caches;
    if traced d then emit d T_reset

  (* ---- host-file image persistence (for the CLI tools) ----------------- *)

  let image_magic = "NVMIMG01"

  (* Persist the durable (shadow) view sparsely to a host file. *)
  let save_image d path =
    persist_all d;
    let oc = open_out_bin path in
    output_string oc image_magic;
    output_binary_int oc d.npages;
    Array.iteri
      (fun i page ->
        match page with
        | None -> ()
        | Some b ->
            output_binary_int oc i;
            output_bytes oc b)
      d.shadow;
    output_binary_int oc (-1);
    close_out oc

  let load_image ?(perf = Perf.optane) ?(seed = 7L) path =
    let ic = open_in_bin path in
    let magic = really_input_string ic (String.length image_magic) in
    if magic <> image_magic then failwith "Nvm: bad image magic";
    let npages = input_binary_int ic in
    let d = create ~perf ~seed ~size:(npages * page_size) () in
    let rec load_pages () =
      let i = input_binary_int ic in
      if i >= 0 then begin
        let b = Bytes.create page_size in
        really_input ic b 0 page_size;
        d.shadow.(i) <- Some b;
        d.vol.(i) <- Some (Bytes.copy b);
        load_pages ()
      end
    in
    load_pages ();
    close_in ic;
    d

  let stat_reads d = d.n_reads
  let stat_writes d = d.n_writes
  let stat_flushes d = d.n_flushes
  let stat_fences d = d.n_fences
  let stat_redundant_flushes d = d.n_redundant_flushes
  let stat_redundant_fences d = d.n_redundant_fences
  let stat_media_faults d = d.n_media_faults

  let reset_stats d =
    d.n_reads <- 0;
    d.n_writes <- 0;
    d.n_flushes <- 0;
    d.n_fences <- 0;
    d.n_redundant_flushes <- 0;
    d.n_redundant_fences <- 0;
    d.n_media_faults <- 0
end
