(** Strict-priority egress queues in front of a link (§4.1.3: "L3
    routers typically provide a set of QoS queues").

    Packets are enqueued into one of N classes; the highest non-empty
    class transmits first. The multiplexer pulls from its link: it
    hands {!Fabric.Link.transmit} one packet when the wire is idle and
    the next only when the link calls it back as its feeder (see
    {!Fabric.Link.set_feeder}), so the link never builds its own queue
    and priority decides every departure under contention. Pacing is
    the link's alone; the multiplexer keeps no timer and no rate. *)

type t

val create : classes:int -> link:Fabric.Link.t -> t
(** [classes] priority queues multiplexed onto [link]; installs itself
    as [link]'s feeder, so [link] must carry no other traffic.
    @raise Invalid_argument when [classes <= 0]. *)

val classes : t -> int
(** The number of priority classes. *)

val enqueue : t -> queue:int -> Netcore.Packet.t -> unit
(** [queue] is clamped to [0, classes). Higher index = higher priority. *)

val queue_length : t -> queue:int -> int
(** Packets waiting in class [queue] (0 for an out-of-range class). *)

val total_queued : t -> int
(** Packets waiting across all classes. *)

val packets_sent : t -> int
(** Packets handed to the link since creation. *)
