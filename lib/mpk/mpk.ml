type pkey = int

let nkeys = 16
let wrpkru_cost = 6 (* ns: ~16 cycles at 2.5 GHz (paper §3.4.1) *)

type perm = Pk_none | Pk_read | Pk_read_write

(* Per-process page-table byte: bit0 present, bit1 writable, bit2 pending,
   bits 4..7 pkey.  A pending PTE carries its key and writability but is not
   present: the first access traps to the demand-fault handler. *)
let pte_mapped = 0x01
let pte_writable = 0x02
let pte_pending = 0x04

(* Trace events for the guideline checker (lib/check): every PKRU update and
   every [with_keys] window boundary, tagged with the perms installed. *)
type trace_event =
  | M_wrpkru of { perms : (pkey * perm) list }
  | M_scope_enter of { perms : (pkey * perm) list }
  | M_scope_exit

type t = {
  dev : Nvm.Device.t;
  tables : Bytes.t Sim.Idtbl.t;  (* pid -> per-page PTE bytes *)
  pkru : int Sim.Idtbl.t;  (* tid -> PKRU value *)
  kernel_depth : int Sim.Idtbl.t;  (* tid -> nesting *)
  write_window : int Sim.Idtbl.t;  (* tid -> nesting *)
  mutable faults : int;
  mutable demand_fault : pid:int -> page:int -> unit;
  trace : trace_event Nvm.Subscribers.t;
}

(* PKRU encoding, as on x86: two bits per key; bit0 = access-disable,
   bit1 = write-disable.  0 = full access. *)
let pkru_all_disabled =
  (* keys 1..15 access-disabled; key 0 open *)
  let v = ref 0 in
  for k = 1 to 15 do
    v := !v lor (0b01 lsl (2 * k))
  done;
  !v

let pkru_of_perms perms =
  List.fold_left
    (fun acc (k, p) ->
      if k <= 0 || k >= nkeys then invalid_arg "Mpk: pkey out of range";
      let cleared = acc land lnot (0b11 lsl (2 * k)) in
      match p with
      | Pk_read_write -> cleared
      | Pk_read -> cleared lor (0b10 lsl (2 * k))
      | Pk_none -> cleared lor (0b01 lsl (2 * k)))
    pkru_all_disabled perms

(* Report the keys with any access enabled. *)
let perms_of_pkru v =
  let enabled = ref [] in
  for k = nkeys - 1 downto 1 do
    let bits = (v lsr (2 * k)) land 0b11 in
    if bits land 0b01 = 0 then
      enabled := (k, if bits land 0b10 = 0 then Pk_read_write else Pk_read) :: !enabled
  done;
  !enabled

let fault t addr write reason =
  t.faults <- t.faults + 1;
  raise (Nvm.Fault { addr; write; kind = Nvm.Protection; reason })

let table t pid =
  match Sim.Idtbl.find_opt t.tables pid with
  | Some b -> b
  | None ->
      let b = Bytes.make (Nvm.Device.pages t.dev) '\000' in
      Sim.Idtbl.replace t.tables pid b;
      b

let current_pkru t =
  match Sim.Idtbl.find_opt t.pkru (Sim.self_tid ()) with
  | Some v -> v
  | None -> pkru_all_disabled

(* An address past the device end has no PTE at all: same SIGSEGV as an
   unmapped page (recovery relies on this when chasing torn pointers). *)
let pte_of t ~pid ~page =
  match Sim.Idtbl.find_opt t.tables pid with
  | None -> 0
  | Some b ->
      if page < 0 || page >= Bytes.length b then 0
      else Char.code (Bytes.get b page)

let depth tbl tid = match Sim.Idtbl.find_opt tbl tid with Some d -> d | None -> 0

let in_kernel t = depth t.kernel_depth (Sim.self_tid ()) > 0

let check t ~addr ~write =
  let tid = Sim.self_tid () in
  if depth t.kernel_depth tid > 0 then begin
    (* Kernel mode: NVM is mapped read-only; writes need a write window. *)
    if write && depth t.write_window tid = 0 then
      fault t addr write "kernel write outside CR0.WP write window"
  end
  else begin
    let pid = (Sim.self_proc ()).Sim.Proc.pid in
    let page = addr / Nvm.page_size in
    let pte =
      (* [pte_of], written out: this runs on every user-mode access. *)
      match Sim.Idtbl.find_opt t.tables pid with
      | None -> 0
      | Some b ->
          if page < 0 || page >= Bytes.length b then 0
          else Char.code (Bytes.get b page)
    in
    let pte =
      if pte land pte_pending = 0 then pte
      else begin
        (* First touch of a pending page: the trap installs it (or finds it
           torn down meanwhile), then the checks below run on what the
           table holds now. *)
        t.demand_fault ~pid ~page;
        pte_of t ~pid ~page
      end
    in
    if pte land pte_mapped = 0 then fault t addr write "page not mapped";
    if write && pte land pte_writable = 0 then
      fault t addr write "page mapped read-only";
    let key = pte lsr 4 in
    if key <> 0 then begin
      let bits = (current_pkru t lsr (2 * key)) land 0b11 in
      if bits land 0b01 <> 0 then
        fault t addr write (Printf.sprintf "MPK: region %d access-disabled" key);
      if write && bits land 0b10 <> 0 then
        fault t addr write (Printf.sprintf "MPK: region %d write-disabled" key)
    end
  end

let create dev =
  let t =
    {
      dev;
      tables = Sim.Idtbl.create ();
      pkru = Sim.Idtbl.create ();
      kernel_depth = Sim.Idtbl.create ();
      write_window = Sim.Idtbl.create ();
      faults = 0;
      demand_fault = (fun ~pid:_ ~page:_ -> ());
      trace = Nvm.Subscribers.create ();
    }
  in
  Nvm.Device.set_protection_hook dev (fun ~addr ~write -> check t ~addr ~write);
  t

let device t = t.dev

let add_trace_subscriber t f = Nvm.Subscribers.add t.trace f
let remove_trace_subscriber t id = Nvm.Subscribers.remove t.trace id
let subscribe_named t ~name f = Nvm.Subscribers.subscribe_named t.trace ~name f
let unsubscribe_named t ~name = Nvm.Subscribers.unsubscribe_named t.trace ~name
let traced t = Nvm.Subscribers.active t.trace
let emit t ev = Nvm.Subscribers.emit t.trace ev

let map_page t ~pid ~page ~writable ~pkey =
  if pkey < 0 || pkey >= nkeys then invalid_arg "Mpk.map_page: bad pkey";
  let b = table t pid in
  let pte = pte_mapped lor (if writable then pte_writable else 0) lor (pkey lsl 4) in
  Bytes.set b page (Char.chr pte)

let set_demand_fault t f = t.demand_fault <- f

let map_run t ~pid ~start ~len ~writable ~pkey ~read_only ~populate =
  if pkey < 0 || pkey >= nkeys then invalid_arg "Mpk.map_run: bad pkey";
  let b = table t pid in
  let pte w =
    Char.chr
      ((if populate then pte_mapped else pte_pending)
      lor (if w then pte_writable else 0)
      lor (pkey lsl 4))
  in
  Bytes.fill b start len (pte writable);
  if writable && read_only >= start && read_only < start + len then
    Bytes.set b read_only (pte false)

let unmap_run t ~pid ~start ~len =
  match Sim.Idtbl.find_opt t.tables pid with
  | None -> 0
  | Some b ->
      let present = ref 0 in
      for page = start to start + len - 1 do
        if Char.code (Bytes.get b page) land pte_mapped <> 0 then incr present
      done;
      Bytes.fill b start len '\000';
      !present

let install_pending t ~pid ~page =
  match Sim.Idtbl.find_opt t.tables pid with
  | Some b
    when page >= 0 && page < Bytes.length b
         && Char.code (Bytes.get b page) land pte_pending <> 0 ->
      let pte = Char.code (Bytes.get b page) in
      Bytes.set b page (Char.chr (pte land lnot pte_pending lor pte_mapped));
      true
  | Some _ | None -> false

let unmap_all t ~pid =
  match Sim.Idtbl.find_opt t.tables pid with
  | None -> ()
  | Some b -> Bytes.fill b 0 (Bytes.length b) '\000'

(* Process teardown: forget the pid's page table entirely (unlike
   [unmap_all], which keeps a zero-filled table) and drop the per-thread
   register/mode state of its threads.  PKRU is per-logical-CPU state on real
   hardware; when a process dies, the next thread scheduled on that core must
   start from [pkru_all_disabled], never from the victim's register image —
   dropping the entries restores exactly that default. *)
let drop_process t ~pid ~tids =
  Sim.Idtbl.remove t.tables pid;
  List.iter
    (fun tid ->
      Sim.Idtbl.remove t.pkru tid;
      Sim.Idtbl.remove t.kernel_depth tid;
      Sim.Idtbl.remove t.write_window tid)
    tids

let has_thread_state t ~tid =
  Sim.Idtbl.mem t.pkru tid || Sim.Idtbl.mem t.kernel_depth tid
  || Sim.Idtbl.mem t.write_window tid

let has_table t ~pid = Sim.Idtbl.mem t.tables pid

let is_mapped t ~pid ~page = pte_of t ~pid ~page land pte_mapped <> 0
let is_pending t ~pid ~page = pte_of t ~pid ~page land pte_pending <> 0

let page_pkey t ~pid ~page =
  let pte = pte_of t ~pid ~page in
  if pte land (pte_mapped lor pte_pending) = 0 then None else Some (pte lsr 4)

let page_writable t ~pid ~page = pte_of t ~pid ~page land pte_writable <> 0

let wrpkru t perms =
  Sim.Idtbl.replace t.pkru (Sim.self_tid ()) (pkru_of_perms perms);
  Sim.advance wrpkru_cost;
  if traced t then emit t (M_wrpkru { perms })

let rdpkru t = perms_of_pkru (current_pkru t)

let with_keys t perms f =
  let tid = Sim.self_tid () in
  let saved = current_pkru t in
  Sim.Idtbl.replace t.pkru tid (pkru_of_perms perms);
  Sim.advance wrpkru_cost;
  if traced t then emit t (M_scope_enter { perms });
  let restore () =
    Sim.Idtbl.replace t.pkru tid saved;
    Sim.advance wrpkru_cost;
    emit t M_scope_exit
  in
  match f () with
  | v ->
      restore ();
      v
  | exception e ->
      restore ();
      raise e

let bump tbl tid delta =
  let d = depth tbl tid + delta in
  if d = 0 then Sim.Idtbl.remove tbl tid else Sim.Idtbl.replace tbl tid d

let with_kernel t f =
  let tid = Sim.self_tid () in
  bump t.kernel_depth tid 1;
  match f () with
  | v ->
      bump t.kernel_depth tid (-1);
      v
  | exception e ->
      bump t.kernel_depth tid (-1);
      raise e

let with_write_window t f =
  let tid = Sim.self_tid () in
  if depth t.kernel_depth tid = 0 then
    invalid_arg "Mpk.with_write_window: not in kernel mode";
  bump t.write_window tid 1;
  Sim.advance 15 (* CR0 write is a serializing move *);
  match f () with
  | v ->
      bump t.write_window tid (-1);
      Sim.advance 15;
      v
  | exception e ->
      bump t.write_window tid (-1);
      raise e

let fault_count t = t.faults
