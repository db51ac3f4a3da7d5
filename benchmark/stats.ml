(* Sample buffers, nearest-rank percentiles and rank-band means.

   Everything works on the sorted samples themselves, never on buckets: a
   log-bucketed histogram (Obs.Hist, ~12.5% buckets) would hide exactly the
   small moves the benchmark's bounds are about. *)

type t = { mutable a : int array; mutable n : int }

let create () = { a = Array.make 256 0; n = 0 }

let add t v =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- v;
  t.n <- t.n + 1

let count t = t.n

let sorted t =
  let s = Array.sub t.a 0 t.n in
  Array.sort compare s;
  s

(* Nearest-rank percentile of a sorted array (0 when empty). *)
let rank s q =
  let n = Array.length s in
  if n = 0 then 0
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let percentile t q = rank (sorted t) q

(* Mean of the samples of a sorted array ranked in [lo, hi) (fractions of
   the count), or the nearest sample when that range holds none; 0 when
   empty. *)
let window_mean s lo hi =
  let n = Array.length s in
  if n = 0 then 0.
  else
    let a = int_of_float (lo *. float_of_int n) and b = int_of_float (hi *. float_of_int n) in
    let a = min a (n - 1) in
    let b = min n (max b (a + 1)) in
    let acc = ref 0. in
    for i = a to b - 1 do
      acc := !acc +. float_of_int s.(i)
    done;
    !acc /. float_of_int (b - a)

let concat ts =
  let r = create () in
  List.iter (fun t -> for i = 0 to t.n - 1 do add r t.a.(i) done) ts;
  r

(* The [q]-quantile (nearest rank) of a float list; 0 when empty. *)
let quantile_f l q =
  match List.sort compare l with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median_f l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
