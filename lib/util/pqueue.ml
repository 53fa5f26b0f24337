(* Binary min-heap of (key, value) int pairs, kept in two parallel
   arrays. Sifting moves a hole instead of swapping, so neither [add]
   nor [pop] allocates (except to grow). *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable size : int;
}

let create ?(capacity = 16) () =
  let cap = max 1 capacity in
  { keys = Array.make cap 0; vals = Array.make cap 0; size = 0 }

let length q = q.size
let is_empty q = q.size = 0
let clear q = q.size <- 0

let grow q =
  let cap = 2 * Array.length q.keys in
  let keys = Array.make cap 0 and vals = Array.make cap 0 in
  Array.blit q.keys 0 keys 0 q.size;
  Array.blit q.vals 0 vals 0 q.size;
  q.keys <- keys;
  q.vals <- vals

let add q ~key value =
  if q.size = Array.length q.keys then grow q;
  let keys = q.keys and vals = q.vals in
  let i = ref q.size in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if key < keys.(parent) then begin
      keys.(!i) <- keys.(parent);
      vals.(!i) <- vals.(parent);
      i := parent
    end
    else continue := false
  done;
  keys.(!i) <- key;
  vals.(!i) <- value;
  q.size <- q.size + 1

let min_key q = if q.size = 0 then max_int else q.keys.(0)

let pop q =
  if q.size = 0 then invalid_arg "Pqueue.pop: empty queue";
  let keys = q.keys and vals = q.vals in
  let top = vals.(0) in
  let n = q.size - 1 in
  q.size <- n;
  if n > 0 then begin
    (* sift the last entry down from the root *)
    let key = keys.(n) and value = vals.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let c = if l + 1 < n && keys.(l + 1) < keys.(l) then l + 1 else l in
        if keys.(c) < key then begin
          keys.(!i) <- keys.(c);
          vals.(!i) <- vals.(c);
          i := c
        end
        else continue := false
      end
    done;
    keys.(!i) <- key;
    vals.(!i) <- value
  end;
  top

let of_list l =
  let q = create ~capacity:(List.length l) () in
  List.iter (fun (key, v) -> add q ~key v) l;
  q

let to_sorted_list q =
  let copy = { keys = Array.copy q.keys; vals = Array.copy q.vals; size = q.size } in
  let rec drain acc =
    if is_empty copy then List.rev acc
    else
      let key = min_key copy in
      let v = pop copy in
      drain ((key, v) :: acc)
  in
  drain []
