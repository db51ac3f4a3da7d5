(* Observability plane (see obs.mli).

   Design constraints, in order:
   - deterministic: never calls Sim.advance, so enabling obs cannot change
     any simulated result;
   - cheap when off: every entry point checks one bool ref first;
   - zero dependencies: includes its own minimal JSON reader/printer so the
     trace, snapshot, and flight-recorder files can be validated and
     re-rendered offline. *)

let on = ref false
let spans_on = ref true
let flight_on = ref true

let enabled () = !on

(* ---- minimal JSON ------------------------------------------------------- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let num_to_string f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.17g" f

  let rec write b = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Num f -> Buffer.add_string b (num_to_string f)
    | Str s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | Arr l ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            write b v)
          l;
        Buffer.add_char b ']'
    | Obj l ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            Buffer.add_string b (escape k);
            Buffer.add_string b "\":";
            write b v)
          l;
        Buffer.add_char b '}'

  let to_string v =
    let b = Buffer.create 1024 in
    write b v;
    Buffer.contents b

  exception Parse of string

  (* Recursive-descent parser over the input string. *)
  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let next () =
      if !pos >= n then fail "unexpected end of input";
      let c = s.[!pos] in
      incr pos;
      c
    in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          incr pos;
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      if next () <> c then fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      String.iter (fun c -> if next () <> c then fail "bad literal") word;
      v
    in
    let add_utf8 b cp =
      if cp < 0x80 then Buffer.add_char b (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
        Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else begin
        Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
        Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
      end
    in
    let parse_string () =
      let b = Buffer.create 16 in
      let rec go () =
        match next () with
        | '"' -> Buffer.contents b
        | '\\' ->
            (match next () with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'u' ->
                let hex = String.init 4 (fun _ -> next ()) in
                (match int_of_string_opt ("0x" ^ hex) with
                | Some cp -> add_utf8 b cp
                | None -> fail "bad \\u escape")
            | _ -> fail "bad escape");
            go ()
        | c -> Buffer.add_char b c; go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> is_num_char c | None -> false) do
        incr pos
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' ->
          incr pos;
          Str (parse_string ())
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then (incr pos; Obj [])
          else begin
            let rec members acc =
              skip_ws ();
              expect '"';
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match next () with
              | ',' -> members ((k, v) :: acc)
              | '}' -> Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            members []
          end
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then (incr pos; Arr [])
          else begin
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match next () with
              | ',' -> elements (v :: acc)
              | ']' -> Arr (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            elements []
          end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse msg -> Error msg

  let member k = function
    | Obj l -> List.assoc_opt k l
    | _ -> None
end

(* ---- histograms --------------------------------------------------------- *)

module Hist = struct
  (* Values 0..15 get exact buckets 0..15; for v >= 16 the bucket is keyed
     by (msb octave, top-3-bits sub-bucket): 8 sub-buckets per power of two,
     ~12.5% relative error.  63-bit range needs 16 + 59*8 = 488 buckets. *)
  let nbuckets = 496

  let msb v =
    let rec go v m = if v <= 1 then m else go (v lsr 1) (m + 1) in
    go v 0

  let bucket_index v =
    if v < 16 then max 0 v
    else
      let m = msb v in
      16 + ((m - 4) * 8) + ((v lsr (m - 3)) land 7)

  let bucket_bounds b =
    if b < 16 then (b, b)
    else
      let oct = (b - 16) / 8 and sub = (b - 16) mod 8 in
      let shift = oct + 1 in
      let lo = (8 + sub) lsl shift in
      (lo, lo + (1 lsl shift) - 1)

  type t = {
    counts : int array;
    mutable n : int;
    mutable mn : int;
    mutable mx : int;
    mutable sm : int;
  }

  let create () = { counts = Array.make nbuckets 0; n = 0; mn = 0; mx = 0; sm = 0 }

  let add t v =
    let v = max 0 v in
    let b = bucket_index v in
    t.counts.(b) <- t.counts.(b) + 1;
    if t.n = 0 || v < t.mn then t.mn <- v;
    if v > t.mx then t.mx <- v;
    t.n <- t.n + 1;
    t.sm <- t.sm + v

  let count t = t.n
  let min_value t = t.mn
  let max_value t = t.mx
  let sum t = t.sm
  let mean t = if t.n = 0 then 0.0 else float_of_int t.sm /. float_of_int t.n

  let percentile t q =
    if t.n = 0 then 0
    else begin
      let rank = max 1 (int_of_float (ceil (q *. float_of_int t.n))) in
      let rank = min rank t.n in
      let cum = ref 0 and res = ref t.mx in
      (try
         for b = 0 to nbuckets - 1 do
           cum := !cum + t.counts.(b);
           if !cum >= rank then begin
             let _, hi = bucket_bounds b in
             res := max t.mn (min hi t.mx);
             raise Exit
           end
         done
       with Exit -> ());
      !res
    end

  let merge a b =
    let t = create () in
    Array.blit a.counts 0 t.counts 0 nbuckets;
    Array.iteri (fun i c -> t.counts.(i) <- t.counts.(i) + c) b.counts;
    t.n <- a.n + b.n;
    t.sm <- a.sm + b.sm;
    t.mn <-
      (if a.n = 0 then b.mn else if b.n = 0 then a.mn else min a.mn b.mn);
    t.mx <- max a.mx b.mx;
    t

  (* Samples certainly over [threshold]: full buckets strictly above the one
     containing it.  The containing bucket counts as under, so burn never
     over-reports from bucket quantization. *)
  let count_over t threshold =
    let threshold = max 0 threshold in
    let tb = bucket_index threshold in
    let over = ref 0 in
    for b = tb + 1 to nbuckets - 1 do
      over := !over + t.counts.(b)
    done;
    !over

  let buckets t =
    let acc = ref [] in
    for b = nbuckets - 1 downto 0 do
      if t.counts.(b) > 0 then acc := (b, t.counts.(b)) :: !acc
    done;
    !acc

  let copy t =
    { counts = Array.copy t.counts; n = t.n; mn = t.mn; mx = t.mx; sm = t.sm }

  (* diff for snapshot subtraction: bucket-wise, clamped at 0 (counters only
     grow, so a clean diff is exact; min/max come from the newer side). *)
  let sub newer older =
    let t = create () in
    for b = 0 to nbuckets - 1 do
      t.counts.(b) <- max 0 (newer.counts.(b) - older.counts.(b))
    done;
    t.n <- max 0 (newer.n - older.n);
    t.sm <- max 0 (newer.sm - older.sm);
    t.mn <- newer.mn;
    t.mx <- newer.mx;
    t
end

(* ---- labels -------------------------------------------------------------- *)

module Labels = struct
  (* A label set is interned: t is an index into [all]; [by_string] maps the
     canonical rendering back to the index so repeated [v] calls on the same
     pairs are one hashtable lookup. *)
  type t = int

  let all : (string * (string * string) list) array ref =
    ref (Array.make 16 ("", []))

  let count = ref 1 (* slot 0 is the empty label set *)

  let by_string : (string, int) Hashtbl.t =
    let h = Hashtbl.create 64 in
    Hashtbl.replace h "" 0;
    h

  let empty = 0

  let check_component what s =
    String.iter
      (fun c ->
        match c with
        | '{' | '}' | ',' | '=' ->
            invalid_arg
              (Printf.sprintf "Obs.Labels.v: %s %S contains %C" what s c)
        | _ -> ())
      s

  let v pairs =
    match pairs with
    | [] -> empty
    | _ ->
        List.iter
          (fun (k, v) ->
            check_component "key" k;
            check_component "value" v)
          pairs;
        let pairs = List.sort (fun (a, _) (b, _) -> compare a b) pairs in
        let rec dup = function
          | (a, _) :: ((b, _) :: _ as rest) ->
              if a = b then invalid_arg ("Obs.Labels.v: duplicate key " ^ a)
              else dup rest
          | _ -> ()
        in
        dup pairs;
        let s = String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) pairs) in
        (match Hashtbl.find_opt by_string s with
        | Some id -> id
        | None ->
            let id = !count in
            if id >= Array.length !all then begin
              let bigger = Array.make (2 * Array.length !all) ("", []) in
              Array.blit !all 0 bigger 0 (Array.length !all);
              all := bigger
            end;
            !all.(id) <- (s, pairs);
            Hashtbl.replace by_string s id;
            incr count;
            id)

  let pairs t = snd !all.(t)
  let to_string t = fst !all.(t)

  let series base t =
    if t = empty then base else base ^ "{" ^ to_string t ^ "}"

  let parse_series key =
    let n = String.length key in
    match String.index_opt key '{' with
    | Some i when n > 0 && key.[n - 1] = '}' ->
        let base = String.sub key 0 i in
        let inner = String.sub key (i + 1) (n - i - 2) in
        if inner = "" then (base, [])
        else
          let pairs =
            List.filter_map
              (fun kv ->
                match String.index_opt kv '=' with
                | Some j ->
                    Some
                      ( String.sub kv 0 j,
                        String.sub kv (j + 1) (String.length kv - j - 1) )
                | None -> None)
              (String.split_on_char ',' inner)
          in
          (base, pairs)
    | _ -> (key, [])

  (* one-pair label sets are the hot case (coffer=N, tenant=N): memoize *)
  let coffer_cache : (int, t) Hashtbl.t = Hashtbl.create 32

  let of_coffer cid =
    match Hashtbl.find_opt coffer_cache cid with
    | Some l -> l
    | None ->
        let l = v [ ("coffer", string_of_int cid) ] in
        Hashtbl.replace coffer_cache cid l;
        l
end

(* ---- registry ----------------------------------------------------------- *)

type metric = M_counter of int ref | M_gauge of float ref | M_hist of Hist.t

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let find_or_add name make =
  match Hashtbl.find_opt registry name with
  | Some m -> m
  | None ->
      let m = make () in
      Hashtbl.replace registry name m;
      m

module Counter = struct
  type t = int ref

  let make name =
    match find_or_add name (fun () -> M_counter (ref 0)) with
    | M_counter r -> r
    | _ -> invalid_arg ("Obs.Counter.make: " ^ name ^ " is not a counter")

  let add t n = t := !t + n
  let incr t = add t 1
  let value t = !t
end

module Gauge = struct
  type t = float ref

  let make name =
    match find_or_add name (fun () -> M_gauge (ref 0.0)) with
    | M_gauge r -> r
    | _ -> invalid_arg ("Obs.Gauge.make: " ^ name ^ " is not a gauge")

  let set t v = t := v
  let value t = !t
end

module Histogram = struct
  type t = Hist.t

  let make name =
    match find_or_add name (fun () -> M_hist (Hist.create ())) with
    | M_hist h -> h
    | _ -> invalid_arg ("Obs.Histogram.make: " ^ name ^ " is not a histogram")

  let observe = Hist.add
  let hist t = t
end

let cnt name n = if !on then Counter.add (Counter.make name) n
let observe name v = if !on then Histogram.observe (Histogram.make name) v

let cnt_l name labels n =
  if !on then Counter.add (Counter.make (Labels.series name labels)) n

let observe_l name labels v =
  if !on then Histogram.observe (Histogram.make (Labels.series name labels)) v

(* ---- span ring buffer --------------------------------------------------- *)

type spanrec = {
  s_name : string;
  s_cat : string;
  s_tid : int;
  s_ts : int;
  s_dur : int;
  s_id : int;
  s_parent : int;
  s_op : int;
}

let dummy_span =
  {
    s_name = "";
    s_cat = "";
    s_tid = 0;
    s_ts = 0;
    s_dur = 0;
    s_id = 0;
    s_parent = 0;
    s_op = 0;
  }

(* Run-global id wells.  Op-ids tie every span and flight event of one
   dispatched operation together; span ids provide the parent/child links.
   Both are host-side and deterministic (assignment order follows the
   deterministic scheduler). *)
let op_well = ref 0
let span_well = ref 0

let next_op () =
  incr op_well;
  !op_well

let next_span_id () =
  incr span_well;
  !span_well

module Trace = struct
  type span = {
    sp_name : string;
    sp_cat : string;
    sp_tid : int;
    sp_ts : int;
    sp_dur : int;
    sp_id : int;
    sp_parent : int;
    sp_op : int;
  }

  let capacity = ref 65536
  let ring : spanrec array ref = ref [||]
  let head = ref 0
  let filled = ref 0
  let dropped_count = ref 0
  let open_count = ref 0

  let reset () =
    ring := [||];
    head := 0;
    filled := 0;
    dropped_count := 0;
    open_count := 0

  let set_capacity n =
    if n <= 0 then invalid_arg "Obs.Trace.set_capacity";
    capacity := n;
    reset ()

  let record r =
    if Array.length !ring = 0 then ring := Array.make !capacity dummy_span;
    !ring.(!head) <- r;
    head := (!head + 1) mod !capacity;
    if !filled = !capacity then incr dropped_count else incr filled

  let recorded () = !filled
  let dropped () = !dropped_count
  let open_spans () = !open_count

  (* oldest-first iteration over the ring *)
  let iter f =
    let cap = !capacity in
    let start = if !filled = cap then !head else 0 in
    for i = 0 to !filled - 1 do
      f !ring.((start + i) mod cap)
    done

  let of_rec r =
    {
      sp_name = r.s_name;
      sp_cat = r.s_cat;
      sp_tid = r.s_tid;
      sp_ts = r.s_ts;
      sp_dur = r.s_dur;
      sp_id = r.s_id;
      sp_parent = r.s_parent;
      sp_op = r.s_op;
    }

  let spans () =
    let acc = ref [] in
    iter (fun r -> acc := of_rec r :: !acc);
    List.rev !acc

  let spans_of_op op =
    let acc = ref [] in
    iter (fun r -> if r.s_op = op then acc := of_rec r :: !acc);
    List.rev !acc

  let event_json ?(extra = []) ~name ~cat ~tid ~ts ~dur ~id ~parent ~op () =
    Json.Obj
      ([
         ("name", Json.Str name);
         ("cat", Json.Str cat);
         ("ph", Json.Str "X");
         ("ts", Json.Num (float_of_int ts /. 1000.0));
         ("dur", Json.Num (float_of_int dur /. 1000.0));
         ("pid", Json.Num 0.0);
         ("tid", Json.Num (float_of_int tid));
         ( "args",
           Json.Obj
             ([
                ("op", Json.Num (float_of_int op));
                ("span", Json.Num (float_of_int id));
                ("parent", Json.Num (float_of_int parent));
              ]
             @ extra) );
       ])

  let to_json () =
    let events = ref [] in
    iter (fun r ->
        events :=
          event_json ~name:r.s_name ~cat:r.s_cat ~tid:r.s_tid ~ts:r.s_ts
            ~dur:r.s_dur ~id:r.s_id ~parent:r.s_parent ~op:r.s_op ()
          :: !events);
    Json.Obj
      [
        ("traceEvents", Json.Arr (List.rev !events));
        ("displayTimeUnit", Json.Str "ns");
      ]

  let validate j =
    let ( let* ) = Result.bind in
    let field name ev =
      match Json.member name ev with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "event missing field %S" name)
    in
    let str name ev =
      let* v = field name ev in
      match v with Json.Str s -> Ok s | _ -> Error (name ^ " is not a string")
    in
    let num name ev =
      let* v = field name ev in
      match v with Json.Num f -> Ok f | _ -> Error (name ^ " is not a number")
    in
    match Json.member "traceEvents" j with
    | None -> Error "top-level object has no traceEvents"
    | Some (Json.Arr events) ->
        let check ev =
          match ev with
          | Json.Obj _ ->
              let* _name = str "name" ev in
              let* _cat = str "cat" ev in
              let* ph = str "ph" ev in
              let* ts = num "ts" ev in
              let* dur = num "dur" ev in
              let* _pid = num "pid" ev in
              let* _tid = num "tid" ev in
              if ph <> "X" then Error (Printf.sprintf "unexpected phase %S" ph)
              else if ts < 0.0 then Error "negative begin timestamp"
              else if dur < 0.0 then
                Error "span end precedes its begin (negative dur)"
              else Ok ()
          | _ -> Error "traceEvents element is not an object"
        in
        List.fold_left
          (fun acc ev -> match acc with Error _ -> acc | Ok () -> check ev)
          (Ok ()) events
    | Some _ -> Error "traceEvents is not an array"
end

let record_span ~cat ~name ~tid ~ts ~dur ~id ~parent ~op =
  if !spans_on then
    Trace.record
      {
        s_name = name;
        s_cat = cat;
        s_tid = tid;
        s_ts = ts;
        s_dur = dur;
        s_id = id;
        s_parent = parent;
        s_op = op;
      }

(* ---- per-thread operation context --------------------------------------- *)

(* One frame per thread: the outermost in-flight syscall.  Sub-layers
   accumulate into it; media time inside a gate crossing or a lease wait is
   subtracted from those buckets so the four buckets stay disjoint.  The
   frame also carries the causal context: the op-id assigned to the
   outermost syscall, the coffer the op anchored to (set by the µFS), and
   the stack of open spans used for parent links and flight dumps. *)
type open_span = {
  os_id : int;
  os_parent : int;
  os_cat : string;
  os_name : string;
  os_ts : int;
}

type frame = {
  mutable depth : int;  (* syscall nesting (truncate calls openf, ...) *)
  mutable start : int;
  mutable media : int;
  mutable kern : int;
  mutable lease_w : int;
  mutable gate_depth : int;
  mutable gate_start : int;
  mutable gate_media0 : int;
  mutable op : int;  (* op-id of the in-flight dispatched op, 0 = none *)
  mutable op_name : string;
  mutable coffer : int;  (* ambient coffer, -1 = none *)
  mutable stack : open_span list;  (* open spans, innermost first *)
}

let frames : (int, frame) Hashtbl.t = Hashtbl.create 64

let frame tid =
  match Hashtbl.find_opt frames tid with
  | Some f -> f
  | None ->
      let f =
        {
          depth = 0;
          start = 0;
          media = 0;
          kern = 0;
          lease_w = 0;
          gate_depth = 0;
          gate_start = 0;
          gate_media0 = 0;
          op = 0;
          op_name = "";
          coffer = -1;
          stack = [];
        }
      in
      Hashtbl.replace frames tid f;
      f

let push_span fr ~cat ~name ~ts =
  let parent = match fr.stack with [] -> 0 | os :: _ -> os.os_id in
  let id = next_span_id () in
  fr.stack <-
    { os_id = id; os_parent = parent; os_cat = cat; os_name = name; os_ts = ts }
    :: fr.stack;
  id

let pop_span fr ~tid ~op =
  match fr.stack with
  | [] -> ()
  | os :: rest ->
      fr.stack <- rest;
      record_span ~cat:os.os_cat ~name:os.os_name ~tid ~ts:os.os_ts
        ~dur:(Sim.now () - os.os_ts) ~id:os.os_id ~parent:os.os_parent ~op

(* Tenant pinning: default tenant is the simulated thread id; a serving
   frontend can pin a real tenant id onto the thread serving it. *)
let tenants : (int, int) Hashtbl.t = Hashtbl.create 64

let set_tenant t = Hashtbl.replace tenants (Sim.self_tid ()) t

let current_tenant () =
  let tid = Sim.self_tid () in
  match Hashtbl.find_opt tenants tid with Some t -> t | None -> tid

let current_op () =
  match Hashtbl.find_opt frames (Sim.self_tid ()) with
  | Some fr -> fr.op
  | None -> 0

let set_op_coffer cid =
  if !on then begin
    let fr = frame (Sim.self_tid ()) in
    if fr.depth > 0 then fr.coffer <- cid
  end

(* (name, cid) -> counter handle: keeps the per-cacheline hot paths
   (pbatch elision accounting) from re-concatenating the series key. *)
let coffer_counters : (string * int, Counter.t) Hashtbl.t = Hashtbl.create 64

let coffer_counter name cid =
  match Hashtbl.find_opt coffer_counters (name, cid) with
  | Some c -> c
  | None ->
      let c = Counter.make (Labels.series name (Labels.of_coffer cid)) in
      Hashtbl.replace coffer_counters (name, cid) c;
      c

let cnt_coffer name n =
  if !on then begin
    Counter.add (Counter.make name) n;
    match Hashtbl.find_opt frames (Sim.self_tid ()) with
    | Some fr when fr.coffer >= 0 -> Counter.add (coffer_counter name fr.coffer) n
    | _ -> ()
  end

(* ---- flight recorder ring (low-level; public API in Flight below) ------- *)

type fevent = {
  e_seq : int;
  e_ts : int;
  e_tid : int;
  e_op : int;
  e_kind : string;
  e_fields : (string * string) list;
}

let dummy_fevent =
  { e_seq = 0; e_ts = 0; e_tid = 0; e_op = 0; e_kind = ""; e_fields = [] }

let fcapacity = ref 2048
let fring : fevent array ref = ref [||]
let fhead = ref 0
let ffilled = ref 0
let ftotal = ref 0
let fseq = ref 0

(* per-coffer health history: (sim_ts, from, to), newest first internally *)
let fhealth : (int, (int * string * string) list ref) Hashtbl.t =
  Hashtbl.create 16

let fring_reset () =
  fring := [||];
  fhead := 0;
  ffilled := 0;
  ftotal := 0;
  fseq := 0;
  Hashtbl.reset fhealth

let fring_set_capacity n =
  if n <= 0 then invalid_arg "Obs.Flight.set_capacity";
  fcapacity := n;
  fring := [||];
  fhead := 0;
  ffilled := 0

(* Record one flight event.  Always safe to call; gated on the switches. *)
let fnote kind fields =
  if !on && !flight_on then begin
    let tid = Sim.self_tid () in
    let op =
      match Hashtbl.find_opt frames tid with Some fr -> fr.op | None -> 0
    in
    incr fseq;
    incr ftotal;
    let ev =
      {
        e_seq = !fseq;
        e_ts = Sim.now ();
        e_tid = tid;
        e_op = op;
        e_kind = kind;
        e_fields = fields;
      }
    in
    if Array.length !fring = 0 then fring := Array.make !fcapacity dummy_fevent;
    !fring.(!fhead) <- ev;
    fhead := (!fhead + 1) mod !fcapacity;
    if !ffilled < !fcapacity then incr ffilled
  end

let fring_events () =
  let cap = !fcapacity in
  let start = if !ffilled = cap then !fhead else 0 in
  let acc = ref [] in
  for i = !ffilled - 1 downto 0 do
    acc := !fring.((start + i) mod cap) :: !acc
  done;
  !acc

(* ---- spans and layer attribution ----------------------------------------- *)

let span ~cat ~name f =
  if not !on then f ()
  else begin
    let tid = Sim.self_tid () in
    let fr = frame tid in
    let ts = Sim.now () in
    let _id = push_span fr ~cat ~name ~ts in
    incr Trace.open_count;
    let finish () =
      decr Trace.open_count;
      pop_span fr ~tid ~op:fr.op
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let c_syscalls = Counter.make "syscall.count"
let c_total = Counter.make "layer.total_ns"
let c_fslib = Counter.make "layer.fslib_ns"
let c_kern = Counter.make "layer.kernfs_ns"
let c_media = Counter.make "layer.media_ns"
let c_lease = Counter.make "layer.lease_ns"
let c_media_all = Counter.make "nvm.media_ns"
let c_gate = Counter.make "gate.crossings"
let c_lease_acq = Counter.make "lease.acquires"
let c_lease_retries = Counter.make "lease.retries"
let c_lease_wait = Counter.make "lease.wait_ns"

let with_syscall name f =
  if not !on then f ()
  else begin
    let tid = Sim.self_tid () in
    let fr = frame tid in
    let t0 = Sim.now () in
    fr.depth <- fr.depth + 1;
    if fr.depth = 1 then begin
      fr.start <- t0;
      fr.media <- 0;
      fr.kern <- 0;
      fr.lease_w <- 0;
      fr.op <- next_op ();
      fr.op_name <- name;
      fr.coffer <- -1;
      fnote "syscall_begin" [ ("name", name); ("tenant", string_of_int (current_tenant ())) ]
    end;
    let _id = push_span fr ~cat:"syscall" ~name ~ts:t0 in
    incr Trace.open_count;
    let finish () =
      decr Trace.open_count;
      let dt = Sim.now () - t0 in
      observe ("syscall." ^ name) dt;
      pop_span fr ~tid ~op:fr.op;
      fr.depth <- fr.depth - 1;
      if fr.depth = 0 then begin
        Counter.incr c_syscalls;
        Counter.add c_total dt;
        Counter.add c_media fr.media;
        Counter.add c_kern fr.kern;
        Counter.add c_lease fr.lease_w;
        Counter.add c_fslib (max 0 (dt - fr.media - fr.kern - fr.lease_w));
        (* dimensioned series: per-tenant op latency, and — when the op
           anchored to a coffer — per-coffer latency and media time *)
        let tenant = current_tenant () in
        observe_l "op.latency"
          (Labels.v [ ("op", name); ("tenant", string_of_int tenant) ])
          dt;
        if fr.coffer >= 0 then begin
          observe_l "coffer.latency"
            (Labels.v [ ("coffer", string_of_int fr.coffer); ("op", name) ])
            dt;
          if fr.media > 0 then
            cnt_l "nvm.media_ns" (Labels.of_coffer fr.coffer) fr.media
        end;
        fnote "syscall_end"
          [
            ("name", name);
            ("dur_ns", string_of_int dt);
            ( "coffer",
              if fr.coffer >= 0 then string_of_int fr.coffer else "-" );
          ];
        fr.op <- 0;
        fr.op_name <- "";
        fr.coffer <- -1
      end
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let with_kernel_crossing f =
  if not !on then f ()
  else begin
    let tid = Sim.self_tid () in
    let fr = frame tid in
    Counter.incr c_gate;
    let ts = Sim.now () in
    fr.gate_depth <- fr.gate_depth + 1;
    if fr.gate_depth = 1 then begin
      fr.gate_start <- ts;
      fr.gate_media0 <- fr.media
    end;
    let _id = push_span fr ~cat:"kernfs" ~name:"trap" ~ts in
    incr Trace.open_count;
    let finish () =
      decr Trace.open_count;
      pop_span fr ~tid ~op:fr.op;
      fr.gate_depth <- fr.gate_depth - 1;
      if fr.gate_depth = 0 && fr.depth > 0 then
        fr.kern <-
          fr.kern
          + max 0 (Sim.now () - fr.gate_start - (fr.media - fr.gate_media0))
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

type lease_token = { lt_t0 : int; lt_media0 : int; lt_live : bool }

let dead_token = { lt_t0 = 0; lt_media0 = 0; lt_live = false }

let lease_begin () =
  if not !on then dead_token
  else
    let fr = frame (Sim.self_tid ()) in
    { lt_t0 = Sim.now (); lt_media0 = fr.media; lt_live = true }

let lease_end tok ~retries =
  if tok.lt_live && !on then begin
    let tid = Sim.self_tid () in
    let fr = frame tid in
    let wait =
      max 0 (Sim.now () - tok.lt_t0 - (fr.media - tok.lt_media0))
    in
    Counter.incr c_lease_acq;
    Counter.add c_lease_retries retries;
    Counter.add c_lease_wait wait;
    if fr.coffer >= 0 then begin
      let l = Labels.of_coffer fr.coffer in
      cnt_l "lease.acquires" l 1;
      cnt_l "lease.wait_ns" l wait
    end;
    if fr.depth > 0 then fr.lease_w <- fr.lease_w + wait;
    (* a contended acquire is a real span on the op's trace *)
    if wait > 0 then begin
      let parent = match fr.stack with [] -> 0 | os :: _ -> os.os_id in
      record_span ~cat:"lease" ~name:"wait" ~tid ~ts:tok.lt_t0
        ~dur:(Sim.now () - tok.lt_t0) ~id:(next_span_id ()) ~parent ~op:fr.op
    end
  end

(* An acquisition abandoned because the request's deadline expired: the time
   camped on the lease is still real wait (it must show up in the op's lease
   attribution and the trace), but no acquire is counted — the lease was
   never taken. *)
let lease_abort tok ~retries =
  if tok.lt_live && !on then begin
    let tid = Sim.self_tid () in
    let fr = frame tid in
    let wait = max 0 (Sim.now () - tok.lt_t0 - (fr.media - tok.lt_media0)) in
    cnt "lease.aborts" 1;
    Counter.add c_lease_retries retries;
    Counter.add c_lease_wait wait;
    if fr.coffer >= 0 then begin
      let l = Labels.of_coffer fr.coffer in
      cnt_l "lease.aborts" l 1;
      cnt_l "lease.wait_ns" l wait
    end;
    if fr.depth > 0 then fr.lease_w <- fr.lease_w + wait;
    if wait > 0 then begin
      let parent = match fr.stack with [] -> 0 | os :: _ -> os.os_id in
      record_span ~cat:"lease" ~name:"wait_aborted" ~tid ~ts:tok.lt_t0
        ~dur:(Sim.now () - tok.lt_t0) ~id:(next_span_id ()) ~parent ~op:fr.op
    end
  end

(* ---- NVM media attribution ---------------------------------------------- *)

let on_device_event ev =
  if !on then begin
    let ns =
      match (ev : Nvm.Device.trace_event) with
      | T_store { ns; _ } | T_nt_store { ns; _ } | T_load { ns; _ }
      | T_cas { ns; _ } | T_clwb { ns; _ } | T_fence { ns; _ } ->
          ns
      | T_media_fault { addr; write } ->
          cnt "fault.media" 1;
          let tid = Sim.self_tid () in
          let fr = frame tid in
          fnote "media_fault"
            [
              ("addr", string_of_int addr);
              ("write", if write then "1" else "0");
              ( "coffer",
                if fr.coffer >= 0 then string_of_int fr.coffer else "-" );
            ];
          (* zero-duration marker on the faulting op's span tree *)
          let parent = match fr.stack with [] -> 0 | os :: _ -> os.os_id in
          record_span ~cat:"nvm" ~name:"media_fault" ~tid ~ts:(Sim.now ())
            ~dur:0 ~id:(next_span_id ()) ~parent ~op:fr.op;
          0
      | T_reset -> 0
    in
    if ns > 0 then begin
      Counter.add c_media_all ns;
      match Hashtbl.find_opt frames (Sim.self_tid ()) with
      | Some fr when fr.depth > 0 -> fr.media <- fr.media + ns
      | _ -> ()
    end
  end

let attach_device dev =
  if !on then ignore (Nvm.Device.add_trace_subscriber dev on_device_event)

(* ---- snapshots ----------------------------------------------------------- *)

module Snapshot = struct
  type sval = V_counter of int | V_gauge of float | V_hist of Hist.t

  type t = (string * sval) list  (* sorted by name *)

  type lv = L_counter of int | L_gauge of float | L_hist of Hist.t

  let take () =
    Hashtbl.fold
      (fun name m acc ->
        let v =
          match m with
          | M_counter r -> V_counter !r
          | M_gauge r -> V_gauge !r
          | M_hist h -> V_hist (Hist.copy h)
        in
        (name, v) :: acc)
      registry []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let diff older newer =
    List.filter_map
      (fun (name, nv) ->
        match (nv, List.assoc_opt name older) with
        | V_counter n, Some (V_counter o) -> Some (name, V_counter (n - o))
        | V_hist n, Some (V_hist o) -> Some (name, V_hist (Hist.sub n o))
        | v, _ -> Some (name, v))
      newer

  let counter_value t name =
    match List.assoc_opt name t with Some (V_counter n) -> Some n | _ -> None

  let labeled t ~base =
    List.filter_map
      (fun (name, v) ->
        let b, pairs = Labels.parse_series name in
        if b = base && pairs <> [] then
          let lv =
            match v with
            | V_counter c -> L_counter c
            | V_gauge g -> L_gauge g
            | V_hist h -> L_hist h
          in
          Some (pairs, lv)
        else None)
      t

  let commas n =
    let neg = n < 0 in
    let s = string_of_int (abs n) in
    let len = String.length s in
    let b = Buffer.create (len + 4) in
    if neg then Buffer.add_char b '-';
    String.iteri
      (fun i c ->
        if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char b ',';
        Buffer.add_char b c)
      s;
    Buffer.contents b

  let is_labeled n = String.contains n '{'

  let render ?(title = "obs") t =
    let b = Buffer.create 1024 in
    Printf.bprintf b "== %s ==\n" title;
    let counters =
      List.filter_map
        (fun (n, v) ->
          match v with
          | V_counter c when c <> 0 && not (is_labeled n) -> Some (n, c)
          | _ -> None)
        t
    in
    let gauges =
      List.filter_map
        (fun (n, v) ->
          match v with
          | V_gauge g when g <> 0.0 && not (is_labeled n) -> Some (n, g)
          | _ -> None)
        t
    in
    let hists =
      List.filter_map
        (fun (n, v) ->
          match v with
          | V_hist h when Hist.count h > 0 && not (is_labeled n) -> Some (n, h)
          | _ -> None)
        t
    in
    if counters <> [] then begin
      Buffer.add_string b "counters:\n";
      List.iter
        (fun (n, c) -> Printf.bprintf b "  %-28s %16s\n" n (commas c))
        counters
    end;
    if gauges <> [] then begin
      Buffer.add_string b "gauges:\n";
      List.iter (fun (n, g) -> Printf.bprintf b "  %-28s %16.3f\n" n g) gauges
    end;
    if hists <> [] then begin
      Printf.bprintf b "histograms (ns): %-12s %8s %10s %10s %10s %10s\n" ""
        "count" "p50" "p90" "p99" "max";
      List.iter
        (fun (n, h) ->
          Printf.bprintf b "  %-26s %8s %10s %10s %10s %10s\n" n
            (commas (Hist.count h))
            (commas (Hist.percentile h 0.50))
            (commas (Hist.percentile h 0.90))
            (commas (Hist.percentile h 0.99))
            (commas (Hist.max_value h)))
        hists
    end;
    (match counter_value t "layer.total_ns" with
    | Some total when total > 0 ->
        let part name =
          match counter_value t name with Some v -> v | None -> 0
        in
        let fslib = part "layer.fslib_ns"
        and kern = part "layer.kernfs_ns"
        and media = part "layer.media_ns"
        and lease = part "layer.lease_ns" in
        let pct v = 100.0 *. float_of_int v /. float_of_int total in
        Printf.bprintf b
          "layer split: FSLib %.1f%%  KernFS-trap %.1f%%  NVM-media %.1f%%  \
           lease-wait %.1f%%  (%s ns over %s syscalls)\n"
          (pct fslib) (pct kern) (pct media) (pct lease) (commas total)
          (commas
             (match counter_value t "syscall.count" with Some n -> n | None -> 0))
    | _ -> ());
    (* Fault-domain summary: one line whenever anything went wrong (or was
       injected) at runtime, so zofs_stat / zofs_shell surface robustness
       activity without the reader hunting through the counter list. *)
    let cv name = match counter_value t name with Some v -> v | None -> 0 in
    let media = cv "fault.media"
    and transient = cv "fault.transient"
    and graceful = cv "fault.graceful_errors"
    and steals = cv "lease.steals"
    and repairs = cv "intent.repairs"
    and quarantined = cv "health.quarantined"
    and offline = cv "health.offline" in
    if media + transient + graceful + steals + repairs + quarantined + offline
       > 0
    then
      Printf.bprintf b
        "robustness: media-faults %s  transient %s  graceful-EIO %s  \
         lease-steals %s  intent-repairs %s  repairs ok/failed %s/%s  \
         quarantined %s  offline %s\n"
        (commas media) (commas transient) (commas graceful) (commas steals)
        (commas repairs)
        (commas (cv "health.repairs_ok"))
        (commas (cv "health.repairs_failed"))
        (commas quarantined) (commas offline);
    Buffer.contents b

  (* label-sliced top-k views *)

  let render_top ?(k = 5) t =
    let b = Buffer.create 256 in
    (* group labelled hists of [base] by the value of [dim], merging *)
    let grouped base dim =
      let tbl : (string, Hist.t) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (pairs, lv) ->
          match (List.assoc_opt dim pairs, lv) with
          | Some v, L_hist h ->
              let cur =
                match Hashtbl.find_opt tbl v with
                | Some acc -> acc
                | None -> Hist.create ()
              in
              Hashtbl.replace tbl v (Hist.merge cur h)
          | _ -> ())
        (labeled t ~base);
      Hashtbl.fold (fun key h acc -> (key, h) :: acc) tbl []
    in
    let top_by_p99 title base dim =
      let rows =
        grouped base dim
        |> List.map (fun (key, h) ->
               (key, Hist.percentile h 0.99, Hist.count h))
        |> List.sort (fun (ka, pa, _) (kb, pb, _) ->
               if pa <> pb then compare pb pa else compare ka kb)
      in
      if rows <> [] then begin
        Printf.bprintf b "%s:\n" title;
        List.iteri
          (fun i (key, p99, n) ->
            if i < k then
              Printf.bprintf b "  %s=%-8s p99 %10s ns  over %8s ops\n" dim key
                (commas p99) (commas n))
          rows
      end
    in
    top_by_p99 "top coffers by p99 latency" "coffer.latency" "coffer";
    top_by_p99 "top tenants by p99 latency" "op.latency" "tenant";
    (* tenants by SLO error-budget burn, from the slo.burn gauges published
       by Slo.publish (max burn across that tenant's SLOs) *)
    let burn_rows =
      let tbl : (string, float * string) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (pairs, lv) ->
          match (List.assoc_opt "tenant" pairs, List.assoc_opt "slo" pairs, lv)
          with
          | Some tenant, Some slo, L_gauge g ->
              (match Hashtbl.find_opt tbl tenant with
              | Some (cur, _) when cur >= g -> ()
              | _ -> Hashtbl.replace tbl tenant (g, slo))
          | _ -> ())
        (labeled t ~base:"slo.burn");
      Hashtbl.fold (fun tenant (g, slo) acc -> (tenant, g, slo) :: acc) tbl []
      |> List.sort (fun (ta, ga, _) (tb, gb, _) ->
             if ga <> gb then compare gb ga else compare ta tb)
    in
    if burn_rows <> [] then begin
      Printf.bprintf b "top tenants by SLO error-budget burn:\n";
      List.iteri
        (fun i (tenant, g, slo) ->
          if i < k then
            Printf.bprintf b "  tenant=%-8s burn %8.2fx of budget  (worst slo: %s)\n"
              tenant g slo)
        burn_rows
    end;
    Buffer.contents b

  let hist_to_json h =
    Json.Obj
      [
        ("count", Json.Num (float_of_int (Hist.count h)));
        ("min", Json.Num (float_of_int (Hist.min_value h)));
        ("max", Json.Num (float_of_int (Hist.max_value h)));
        ("sum", Json.Num (float_of_int (Hist.sum h)));
        ( "buckets",
          Json.Arr
            (List.map
               (fun (i, c) ->
                 Json.Arr [ Json.Num (float_of_int i); Json.Num (float_of_int c) ])
               (Hist.buckets h)) );
      ]

  let to_json t =
    let pick f = List.filter_map f t in
    Json.Obj
      [
        ( "counters",
          Json.Obj
            (pick (fun (n, v) ->
                 match v with
                 | V_counter c -> Some (n, Json.Num (float_of_int c))
                 | _ -> None)) );
        ( "gauges",
          Json.Obj
            (pick (fun (n, v) ->
                 match v with V_gauge g -> Some (n, Json.Num g) | _ -> None)) );
        ( "histograms",
          Json.Obj
            (pick (fun (n, v) ->
                 match v with V_hist h -> Some (n, hist_to_json h) | _ -> None))
        );
      ]

  let hist_of_json j =
    let num name =
      match Json.member name j with
      | Some (Json.Num f) -> Ok (int_of_float f)
      | _ -> Error ("histogram field " ^ name ^ " missing or not a number")
    in
    let ( let* ) = Result.bind in
    let* n = num "count" in
    let* mn = num "min" in
    let* mx = num "max" in
    let* sm = num "sum" in
    let h = Hist.create () in
    h.Hist.n <- n;
    h.Hist.mn <- mn;
    h.Hist.mx <- mx;
    h.Hist.sm <- sm;
    match Json.member "buckets" j with
    | Some (Json.Arr l) ->
        let rec fill = function
          | [] -> Ok h
          | Json.Arr [ Json.Num i; Json.Num c ] :: rest ->
              let i = int_of_float i in
              if i < 0 || i >= Hist.nbuckets then Error "bucket index out of range"
              else begin
                h.Hist.counts.(i) <- int_of_float c;
                fill rest
              end
          | _ -> Error "malformed bucket entry"
        in
        fill l
    | _ -> Error "histogram has no buckets array"

  let of_json j =
    let ( let* ) = Result.bind in
    let section name =
      match Json.member name j with
      | Some (Json.Obj l) -> Ok l
      | None -> Ok []
      | Some _ -> Error (name ^ " is not an object")
    in
    let* counters = section "counters" in
    let* gauges = section "gauges" in
    let* histograms = section "histograms" in
    let* cs =
      List.fold_left
        (fun acc (n, v) ->
          let* acc = acc in
          match v with
          | Json.Num f -> Ok ((n, V_counter (int_of_float f)) :: acc)
          | _ -> Error ("counter " ^ n ^ " is not a number"))
        (Ok []) counters
    in
    let* gs =
      List.fold_left
        (fun acc (n, v) ->
          let* acc = acc in
          match v with
          | Json.Num f -> Ok ((n, V_gauge f) :: acc)
          | _ -> Error ("gauge " ^ n ^ " is not a number"))
        (Ok []) gauges
    in
    let* hs =
      List.fold_left
        (fun acc (n, v) ->
          let* acc = acc in
          let* h = hist_of_json v in
          Ok ((n, V_hist h) :: acc))
        (Ok []) histograms
    in
    Ok (List.sort (fun (a, _) (b, _) -> compare a b) (cs @ gs @ hs))
end

(* ---- flight recorder (public API) ---------------------------------------- *)

module Flight = struct
  type event = fevent = {
    e_seq : int;
    e_ts : int;
    e_tid : int;
    e_op : int;
    e_kind : string;
    e_fields : (string * string) list;
  }

  let set_capacity = fring_set_capacity
  let note = fnote
  let recorded () = !ffilled
  let total () = !ftotal
  let events = fring_events

  (* auto-dump configuration + rate limiting *)
  let autodump = ref false
  let dump_dir = ref "."
  let max_dumps = ref 16
  let dumps_written = ref 0
  let dump_seq = ref 0
  let dump_files : string list ref = ref []
  (* at most one auto-dump per (coffer, destination-state) between resets *)
  let dumped_for : (int * string, unit) Hashtbl.t = Hashtbl.create 8

  let set_autodump ?dir ?max_dumps:md enabled_ =
    (match dir with Some d -> dump_dir := d | None -> ());
    (match md with Some m -> max_dumps := m | None -> ());
    (* arming opens a fresh dump budget: each armed window (a campaign, an
       fsck run) gets its own [max_dumps] allowance *)
    if enabled_ then dumps_written := 0;
    autodump := enabled_

  let last_dump_path () =
    match !dump_files with [] -> None | p :: _ -> Some p

  let dump_paths () = List.rev !dump_files

  let health_history ~coffer =
    match Hashtbl.find_opt fhealth coffer with
    | Some l -> List.rev !l
    | None -> []

  let event_to_json (e : event) =
    Json.Obj
      [
        ("seq", Json.Num (float_of_int e.e_seq));
        ("ts", Json.Num (float_of_int e.e_ts));
        ("tid", Json.Num (float_of_int e.e_tid));
        ("op", Json.Num (float_of_int e.e_op));
        ("kind", Json.Str e.e_kind);
        ("fields", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) e.e_fields));
      ]

  (* The op trace of the dump: the triggering op's closed spans from the
     ring plus the spans still open on the triggering thread (the enclosing
     syscall span is not in the ring yet — the op is in flight when the
     dump fires), marked with "open": true. *)
  let op_trace_json ~op ~tid =
    let closed =
      if op > 0 then Trace.spans_of_op op
      else begin
        (* no in-flight op (e.g. campaign-level invariant failure): keep the
           last few spans as context *)
        let all = Trace.spans () in
        let n = List.length all in
        List.filteri (fun i _ -> i >= n - 64) all
      end
    in
    let closed_json =
      List.map
        (fun (s : Trace.span) ->
          Trace.event_json ~name:s.sp_name ~cat:s.sp_cat ~tid:s.sp_tid
            ~ts:s.sp_ts ~dur:s.sp_dur ~id:s.sp_id ~parent:s.sp_parent
            ~op:s.sp_op ())
        closed
    in
    let open_json =
      match Hashtbl.find_opt frames tid with
      | Some fr when fr.op = op && op > 0 ->
          List.rev_map
            (fun os ->
              Trace.event_json
                ~extra:[ ("open", Json.Bool true) ]
                ~name:os.os_name ~cat:os.os_cat ~tid ~ts:os.os_ts
                ~dur:(Sim.now () - os.os_ts) ~id:os.os_id ~parent:os.os_parent
                ~op ())
            fr.stack
      | _ -> []
    in
    Json.Obj
      [
        ("traceEvents", Json.Arr (open_json @ closed_json));
        ("displayTimeUnit", Json.Str "ns");
      ]

  let health_json () =
    let entries =
      Hashtbl.fold
        (fun cid l acc ->
          ( string_of_int cid,
            Json.Arr
              (List.rev_map
                 (fun (ts, from_, to_) ->
                   Json.Obj
                     [
                       ("ts", Json.Num (float_of_int ts));
                       ("from", Json.Str from_);
                       ("to", Json.Str to_);
                     ])
                 !l) )
          :: acc)
        fhealth []
      |> List.sort (fun (a, _) (b, _) -> compare (int_of_string a) (int_of_string b))
    in
    Json.Obj entries

  let dump ~reason ?coffer () =
    if (not !on) || !dumps_written >= !max_dumps then None
    else begin
      incr dump_seq;
      incr dumps_written;
      let tid = Sim.self_tid () in
      let op =
        match Hashtbl.find_opt frames tid with Some fr -> fr.op | None -> 0
      in
      let name =
        match coffer with
        | Some c -> Printf.sprintf "flight-%d-c%d.json" !dump_seq c
        | None -> Printf.sprintf "flight-%d.json" !dump_seq
      in
      let path = Filename.concat !dump_dir name in
      let j =
        Json.Obj
          [
            ("schema", Json.Str "zofs-flight-1");
            ("reason", Json.Str reason);
            ("sim_ts", Json.Num (float_of_int (Sim.now ())));
            ( "coffer",
              match coffer with
              | Some c -> Json.Num (float_of_int c)
              | None -> Json.Null );
            ("op", Json.Num (float_of_int op));
            ("health_history", health_json ());
            ("events", Json.Arr (List.map event_to_json (fring_events ())));
            ("op_trace", op_trace_json ~op ~tid);
            ("snapshot", Snapshot.to_json (Snapshot.take ()));
          ]
      in
      match
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (Json.to_string j);
            Out_channel.output_string oc "\n")
      with
      | () ->
          dump_files := path :: !dump_files;
          Some path
      | exception Sys_error _ ->
          (* an unwritable dump dir must never take the FS down *)
          decr dumps_written;
          None
    end

  let health_transition ~coffer ~from_ ~to_ =
    if !on && !flight_on then begin
      let l =
        match Hashtbl.find_opt fhealth coffer with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.replace fhealth coffer l;
            l
      in
      l := (Sim.now (), from_, to_) :: !l;
      fnote "health_transition"
        [ ("coffer", string_of_int coffer); ("from", from_); ("to", to_) ];
      if
        !autodump
        && String.lowercase_ascii to_ <> "healthy"
        && not (Hashtbl.mem dumped_for (coffer, to_))
      then begin
        Hashtbl.replace dumped_for (coffer, to_) ();
        ignore
          (dump ~reason:(Printf.sprintf "coffer %d left healthy: %s -> %s" coffer from_ to_)
             ~coffer ())
      end
    end

  let invariant_failure msg =
    if !on then begin
      fnote "invariant_failure" [ ("msg", msg) ];
      if !autodump then ignore (dump ~reason:("invariant failure: " ^ msg) ())
    end

  let reset () =
    fring_reset ();
    Hashtbl.reset dumped_for
end

(* ---- SLOs ----------------------------------------------------------------- *)

module Slo = struct
  type report = {
    s_name : string;
    s_op : string;
    s_tenant : string;
    s_count : int;
    s_p99 : int;
    s_target : int;
    s_over : int;
    s_burn : float;
  }

  type def = { d_op : string; d_target : int }

  (* insertion-ordered definitions (name -> def) *)
  let defs : (string * def) list ref = ref []

  let define ~name ~op ~p99_target_ns =
    let d = { d_op = op; d_target = p99_target_ns } in
    defs := (name, d) :: List.remove_assoc name !defs

  let definitions () =
    List.rev_map (fun (n, d) -> (n, d.d_op, d.d_target)) !defs

  let clear_definitions () = defs := []

  (* cumulative burn ledger: (slo, tenant) -> (over, count) *)
  let ledger : (string * string, (int * int) ref) Hashtbl.t = Hashtbl.create 16

  let burn_of ~over ~count =
    if count = 0 then 0.0
    else float_of_int over /. (0.01 *. float_of_int count)

  let ledger_burn ~name ~tenant =
    match Hashtbl.find_opt ledger (name, tenant) with
    | Some r ->
        let over, count = !r in
        burn_of ~over ~count
    | None -> 0.0

  let evaluate snap =
    let latencies = Snapshot.labeled snap ~base:"op.latency" in
    List.concat_map
      (fun (name, d) ->
        List.filter_map
          (fun (pairs, lv) ->
            match
              (List.assoc_opt "op" pairs, List.assoc_opt "tenant" pairs, lv)
            with
            | Some op, Some tenant, Snapshot.L_hist h
              when op = d.d_op && Hist.count h > 0 ->
                let count = Hist.count h in
                let over = Hist.count_over h d.d_target in
                Some
                  {
                    s_name = name;
                    s_op = op;
                    s_tenant = tenant;
                    s_count = count;
                    s_p99 = Hist.percentile h 0.99;
                    s_target = d.d_target;
                    s_over = over;
                    s_burn = burn_of ~over ~count;
                  }
            | _ -> None)
          latencies
        |> List.sort (fun a b -> compare a.s_tenant b.s_tenant))
      (List.rev !defs)

  let publish snap =
    let reports = evaluate snap in
    List.iter
      (fun r ->
        let key = (r.s_name, r.s_tenant) in
        let cell =
          match Hashtbl.find_opt ledger key with
          | Some c -> c
          | None ->
              let c = ref (0, 0) in
              Hashtbl.replace ledger key c;
              c
        in
        let over, count = !cell in
        cell := (over + r.s_over, count + r.s_count);
        let l = Labels.v [ ("slo", r.s_name); ("tenant", r.s_tenant) ] in
        Gauge.set (Gauge.make (Labels.series "slo.p99" l)) (float_of_int r.s_p99);
        Gauge.set
          (Gauge.make (Labels.series "slo.burn" l))
          (let over, count = !cell in
           burn_of ~over ~count))
      reports;
    reports

  let render reports =
    if reports = [] then "slo: no matching samples\n"
    else begin
      let b = Buffer.create 256 in
      Printf.bprintf b "slo: %-16s %-8s %-8s %10s %10s %8s %8s\n" "name" "op"
        "tenant" "p99" "target" "over" "burn";
      List.iter
        (fun r ->
          Printf.bprintf b "     %-16s %-8s %-8s %10d %10d %8d %7.2fx%s\n"
            r.s_name r.s_op r.s_tenant r.s_p99 r.s_target r.s_over r.s_burn
            (if r.s_burn > 1.0 then "  VIOLATED" else ""))
        reports;
      Buffer.contents b
    end

  let reset () = Hashtbl.reset ledger
end

(* ---- switch -------------------------------------------------------------- *)

let enable ?(spans = true) ?(flight = true) () =
  on := true;
  spans_on := spans;
  flight_on := flight

let disable () = on := false

let reset () =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | M_counter r -> r := 0
      | M_gauge r -> r := 0.0
      | M_hist h ->
          Array.fill h.Hist.counts 0 Hist.nbuckets 0;
          h.Hist.n <- 0;
          h.Hist.mn <- 0;
          h.Hist.mx <- 0;
          h.Hist.sm <- 0)
    registry;
  Trace.reset ();
  Hashtbl.reset frames;
  Hashtbl.reset tenants;
  Flight.reset ();
  Slo.reset ()
