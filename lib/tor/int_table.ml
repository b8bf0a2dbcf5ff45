include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* Multiplicative mix: the table indexes by the low bits, so fold the
     well-mixed high bits of the product down onto them. *)
  let hash x =
    let h = x * 0x9E3779B1 in
    (h lxor (h lsr 29)) land max_int
end)
