(* A dense table keyed by a thread or process id: slot [id + 1] of an option
   array, so tid -1 (code running outside a world) has a slot of its own.
   Lookups neither hash nor allocate; the array doubles when a larger id is
   stored. *)

type 'a t = { mutable slots : 'a option array }

let create () = { slots = Array.make 16 None }

let find_opt t id =
  let i = id + 1 in
  if i >= 0 && i < Array.length t.slots then t.slots.(i)
  else None

let mem t id = Option.is_some (find_opt t id)

let replace t id v =
  let i = id + 1 in
  if i < 0 then invalid_arg "Sim.Idtbl.replace: id below -1";
  let n = Array.length t.slots in
  if i >= n then begin
    let bigger = Array.make (max (2 * n) (i + 1)) None in
    Array.blit t.slots 0 bigger 0 n;
    t.slots <- bigger
  end;
  t.slots.(i) <- Some v

let remove t id =
  let i = id + 1 in
  if i >= 0 && i < Array.length t.slots then t.slots.(i) <- None

let reset t = Array.fill t.slots 0 (Array.length t.slots) None
