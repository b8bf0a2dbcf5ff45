(** Hash table keyed by [int] for the ToR's per-packet lookups.

    Hashing is a multiply and a shift in OCaml, where the polymorphic
    [Hashtbl] calls into C; {!find} and {!mem} allocate nothing. *)

include Hashtbl.S with type key = int
