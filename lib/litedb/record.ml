(* Row serialization: a row is a list of typed values, encoded as
   [count u8] then per value a tag byte and payload. *)

type value = Int of int | Str of string | Real of float

let equal_value a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Str x, Str y -> x = y
  | Real x, Real y -> Float.equal x y
  | _ -> false

let to_string = function
  | Int i -> string_of_int i
  | Str s -> s
  | Real f -> Printf.sprintf "%.2f" f

let as_int = function
  | Int i -> i
  | Real f -> int_of_float f
  | Str s -> int_of_string s

let as_real = function Real f -> f | Int i -> float_of_int i | Str s -> float_of_string s

let encode values =
  let b = Buffer.create 64 in
  Buffer.add_char b (Char.chr (List.length values));
  List.iter
    (fun v ->
      match v with
      | Int i ->
          Buffer.add_char b '\001';
          Buffer.add_int64_le b (Int64.of_int i)
      | Str s ->
          Buffer.add_char b '\002';
          Buffer.add_uint16_le b (String.length s);
          Buffer.add_string b s
      | Real f ->
          Buffer.add_char b '\003';
          Buffer.add_int64_le b (Int64.bits_of_float f))
    values;
  Buffer.contents b

let decode s =
  let n = Char.code s.[0] in
  let off = ref 1 in
  let u16 () =
    let v = Char.code s.[!off] lor (Char.code s.[!off + 1] lsl 8) in
    off := !off + 2;
    v
  in
  let i64 () =
    let v = ref 0L in
    for k = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[!off + k]))
    done;
    off := !off + 8;
    !v
  in
  List.init n (fun _ ->
      let tag = Char.code s.[!off] in
      incr off;
      match tag with
      | 1 -> Int (Int64.to_int (i64 ()))
      | 2 ->
          let len = u16 () in
          let str = String.sub s !off len in
          off := !off + len;
          Str str
      | 3 -> Real (Int64.float_of_bits (i64 ()))
      | _ -> failwith "Record.decode: bad tag")

(* Order-preserving key encoding for composite index keys: ints become
   16-digit zero-padded decimals, so lexicographic order = numeric order
   (for non-negative ints, which is all TPC-C uses). *)
let index_key values =
  String.concat "\000"
    (List.map
       (function
         | Int i -> Printf.sprintf "%016d" i
         | Str s -> s
         | Real f -> Printf.sprintf "%020.4f" f)
       values)
