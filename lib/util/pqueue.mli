(** Mutable binary min-heap of integer keys carrying integer values.

    The list scheduler's ready, pending and release queues. Keys and
    values live in two flat arrays, so [add], [min_key] and [pop]
    allocate nothing once the capacity suffices. Equal keys pop in an
    unspecified order: callers that need a deterministic order make
    their keys injective, or drain every equal key before the order
    can matter. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty queue with room for [capacity] entries (default 16)
    before it grows. *)

val length : t -> int
(** Number of queued entries. *)

val is_empty : t -> bool

val add : t -> key:int -> int -> unit
(** [add q ~key v] enqueues [v] with priority [key]. *)

val min_key : t -> int
(** The least key in the queue, or [max_int] when it is empty. *)

val pop : t -> int
(** Remove a least-key entry and return its value.
    @raise Invalid_argument when the queue is empty. *)

val clear : t -> unit
(** Remove all entries, keeping the capacity. *)

val of_list : (int * int) list -> t
(** Queue containing all [(key, value)] pairs of the list. *)

val to_sorted_list : t -> (int * int) list
(** Drain a copy of the queue in pop order; the queue is unchanged. *)
