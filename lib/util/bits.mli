(** Bit-level helpers for the switched-capacitance power model.

    Datapath values are fixed-width two's-complement words stored in
    OCaml ints; the power estimator charges energy proportional to the
    Hamming distance between consecutive values on the same resource
    port. *)

val word_width : int
(** Width, in bits, of all datapath words (16). *)

val mask : int -> int
(** [mask w] is a word with the low [w] bits set. *)

val truncate : int -> int
(** Wrap a value into [word_width] bits (two's complement). *)

val popcount : int -> int
(** Number of set bits of a non-negative int (up to 62 bits), in
    constant time. *)

val hamming : int -> int -> int
(** [hamming a b] is the number of differing bits between the
    [word_width]-bit truncations of [a] and [b]. *)

val shift_amount : int -> int
(** Effective shift distance of a shift operand: the low
    [log2 word_width] bits (i.e. 4 bits) of the {!truncate}d word, so
    the result is always in [0, word_width - 1]. This is the single
    definition of out-of-range shift behavior: a shift by 16 acts as a
    shift by 0, a shift by 17 as a shift by 1, and "negative" amounts
    are first wrapped to their two's-complement word (e.g. -1 becomes
    0xFFFF, whose low 4 bits give 15). The simulator, the power
    model's activity estimation (which replays the simulator's
    values), and rewrite legality checks all go through this
    function. *)

val to_signed : int -> int
(** Interpret a [word_width]-bit word as a signed integer. *)
