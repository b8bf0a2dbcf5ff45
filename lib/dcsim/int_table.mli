(** Hash table keyed by [int] for per-packet lookups (ToR tables and
    VRF index, metric families, SLO cells, vswitch and core-switch
    port maps).

    Hashing is a multiply and a shift in OCaml, where the polymorphic
    [Hashtbl] calls into C and then [compare]; {!find} and {!mem}
    allocate nothing. Iteration order differs from [Hashtbl]'s, so a
    fold whose order shows in output must sort. *)

include Hashtbl.S with type key = int
