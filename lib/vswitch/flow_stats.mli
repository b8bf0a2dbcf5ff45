(** Per-flow packet/byte counters, as kept by the OVS datapath and the
    ToR VRF tables and polled by the FasTrak measurement engines.

    Counters are cumulative. Each also keeps its value at the last
    {!mark}, so a reader that marks at T1 and calls {!read_marks} at T2
    gets every flow's traffic in between without copying the table.
    One marking reader per table: a second reader's [mark] would move
    the first one's baseline.

    Counters live as long as their flow. {!close} marks a flow's last
    packet (FIN); the reader's next {!read_marks} reports the closed
    counter's final delta and then drops it, so a finished flow costs
    nothing once its last traffic has been measured, and a later flow
    reusing the key is counted from zero. A packet recorded before that
    read reopens the counter, which keeps counting. A table nobody
    reads keeps its closed counters. *)

type t

val create : ?on_retire:(Netcore.Fkey.t -> unit) -> unit -> t
(** [on_retire] runs for each counter {!read_marks} drops. *)

val record : t -> Netcore.Fkey.t -> packets:int -> bytes:int -> unit
(** Add to the flow's counters, creating them (marked at zero) on the
    flow's first packet, and reopen them if closed. Allocation-free
    when the counters exist. *)

val close : t -> Netcore.Fkey.t -> unit
(** The flow's last packet has been counted. No-op for an unknown
    flow. *)

val find : t -> Netcore.Fkey.t -> (int * int) option
(** Cumulative [(packets, bytes)] of one flow. *)

val flow_count : t -> int
(** Counters held, open and closed. *)

val mark : t -> unit
(** Set every counter's mark to its current value. *)

val read_marks :
  t -> (Netcore.Fkey.t -> packets:int -> bytes:int -> unit) -> unit
(** Call [f] once per counter with [current - mark], in {!to_list}
    order, dropping each closed counter right after its call (counted
    in [vswitch.flow_stats.retired]). Never negative: counters only
    grow, and a counter created after the last {!mark} is marked at
    zero. *)

val open_flows : t -> Netcore.Fkey.t list
(** Flows whose counters are not closed, in {!to_list} order. *)

val to_list : t -> (Netcore.Fkey.t * int * int) list
(** [(flow, cumulative packets, cumulative bytes)] snapshot. *)
