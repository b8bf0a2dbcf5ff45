(** A unidirectional link: FIFO serialization at a fixed rate plus a
    fixed propagation/forwarding latency.

    The serialization stage is a single-server queue, so concurrent
    senders on the same port contend — this is where wire-level
    congestion appears in the model. Messages larger than one MTU frame
    occupy the wire for the total of their frames (TSO burst). *)

type t

val create :
  ?faults:Faults.Injector.t ->
  engine:Dcsim.Engine.t ->
  name:string ->
  gbps:float ->
  latency:Dcsim.Simtime.span ->
  deliver:(Netcore.Packet.t -> unit) ->
  unit ->
  t
(** A link serialising at [gbps], then delaying each message by
    [latency] before handing it to [deliver].

    With [?faults], each packet leaving the wire draws a verdict from
    the injector: drops are counted (see {!packets_dropped} and the
    [fabric.link.drops] counter), jitter only ever {e adds} to
    [latency], and duplicates deliver a {!Netcore.Packet.copy}.
    Reordering verdicts are ignored — a point-to-point wire has no
    alternate path. Without [?faults] the delivery path is untouched,
    keeping fault-free runs byte-identical. *)

val wire_bytes : Netcore.Packet.t -> int
(** On-the-wire bytes of a message: payload plus per-frame headers,
    encapsulation overheads, preamble and IFG for every MTU-sized frame
    the message occupies. *)

val transmit : t -> Netcore.Packet.t -> unit
(** Enqueue a message for serialisation; it is delivered one
    serialisation delay plus [latency] after the wire frees up. *)

val set_feeder : t -> (unit -> unit) -> unit
(** [set_feeder t f] makes [t] call [f] each time a message leaves the
    wire, after its propagation is scheduled and before the link starts
    its next queued message. A feeder that holds its packets and calls
    {!transmit} at most once per callback (plus once to start an idle
    wire) keeps the link's own FIFO empty, so the feeder alone decides
    what goes next — {!Tor.Qos_queue} pulls this way. Replaces any
    earlier feeder; the default does nothing. *)

val busy_seconds : t -> float
(** Total simulated seconds the wire has spent serialising. *)

val utilization : t -> over:Dcsim.Simtime.span -> float
(** [busy_seconds] as a fraction of the given window. *)

val packets_sent : t -> int
(** Messages fully serialised so far. *)

val bytes_sent : t -> int
(** Wire bytes (per {!wire_bytes}) fully serialised so far. *)

val packets_dropped : t -> int
(** Packets lost to fault injection after serialisation. Always zero
    without [?faults]. *)

val queue_length : t -> int
(** Messages waiting for the wire, not counting the one in flight. *)
