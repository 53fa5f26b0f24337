let word_width = 16

let mask w = (1 lsl w) - 1

let truncate v = v land mask word_width

(* SWAR popcount. OCaml ints have 63 bits and the argument is
   non-negative, so its bits 0..61 carry the value and every mask stays
   below max_int. The final multiply sums the eight byte counts into the
   top byte; each partial sum is at most 62, so no carry crosses a byte
   and the result lands in bits 56..61. *)
let popcount n =
  let n = n - ((n lsr 1) land 0x1555555555555555) in
  let n = (n land 0x3333333333333333) + ((n lsr 2) land 0x3333333333333333) in
  let n = (n + (n lsr 4)) land 0x0f0f0f0f0f0f0f0f in
  (n * 0x0101010101010101) lsr 56

let hamming a b = popcount ((a lxor b) land mask word_width)

let shift_amount v = truncate v land (word_width - 1)

let to_signed v =
  let v = truncate v in
  if v land (1 lsl (word_width - 1)) <> 0 then v - (1 lsl word_width) else v
