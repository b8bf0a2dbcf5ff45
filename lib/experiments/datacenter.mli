(** The multi-rack datacenter topology: the one builder behind
    {!Dcscale}, {!Soak} and {!Fabric_chaos}.

    {!create} lays out the shards, builds one {!Testbed} rack with its
    VMs per shard, joins every rack to an aggregation
    {!Fabric.Core_switch} with an uplink and a downlink
    {!Fabric.Channel} at {!fabric_hop}, routes every ToR to every other
    ToR over its uplink, and points the trace clock at the
    {!Dcsim.Cluster}. Express lanes between racks are then provisioned
    in two halves, {!receive} and {!transmit}, or in both directions at
    once with {!pin_lane} (see [docs/ENGINE.md]). *)

val fabric_hop : Dcsim.Simtime.span
(** Rack <-> core propagation delay (2 µs): the cluster lookahead, i.e.
    the lockstep window length. *)

type rack = {
  tb : Testbed.t;  (** The rack; [tb.engine] is its shard. *)
  vms : Host.Server.attached array;  (** In the order of [create]'s [~vms]. *)
  uplink : Netcore.Packet.t Fabric.Channel.t;
      (** Reliable ToR -> core channel; [create] routes every peer ToR
          over it. *)
}

type t = {
  cluster : Dcsim.Cluster.t;
  core : Fabric.Core_switch.t;
  core_engine : Dcsim.Engine.t;
  racks : rack array;
}

val create :
  ?sharded:bool ->
  ?config:Compute.Cost_params.vswitch_config ->
  seed:int ->
  racks:int ->
  servers_per_rack:int ->
  name_prefix:string ->
  vms:string array ->
  first_octet:int ->
  rack_stride:int ->
  unit ->
  t
(** Build [racks] racks of [servers_per_rack] servers each, every
    server with vswitch [config] (default baseline).

    Shard layout: with [sharded] (the default) and more than one rack,
    rack [r] runs on an engine seeded [seed + r] and the core on one
    seeded [seed + racks + 1]; otherwise every rack and the core share
    one engine seeded [seed] and the cluster degenerates to the plain
    event loop with an identical event schedule.

    Address plan: VM [k] of rack [r], of kind [vms.(k)], is named
    [<name_prefix><r>.<kind>], lives on server [k mod servers_per_rack]
    and has the default tenant's address with last octet
    [first_octet + r * rack_stride + k]; the rack's servers are named
    [<name_prefix><r>.server<i>].
    @raise Invalid_argument before any engine is built if [racks] is
    below 1 or puts a VM address past .255 (the message names [racks]
    and the largest value that fits), or if [servers_per_rack] is below
    1. *)

type permit = {
  vrf : Tor.Vrf.t;  (** The destination ToR's VRF for the lane's tenant. *)
  rule : Rules.Rule_compiler.compiled;
  handle : Tor.Vrf.handle;
}
(** The receive half of one express-lane direction, as installed. *)

val receive :
  dst:rack -> Host.Server.attached -> Host.Server.attached -> permit
(** [receive ~dst a b] provisions the receive side of the a -> b
    direction: the GRE tunnel mapping for b in a's policy, the compiled
    most-specific permit in [dst]'s ToR VRF (so [handle_gre_rx] accepts
    a's hardware-path packets), and b's address on [dst]'s ToR pointed
    at its SR-IOV port.
    @raise Invalid_argument if b is not placed in [dst] or the install
    is refused. *)

val transmit :
  src:rack -> permit -> Host.Server.attached -> Host.Server.attached -> unit
(** [transmit ~src p a b] pins the transmit side of the a -> b
    direction whose receive half is [p]: [p.rule] in [src]'s ToR VRF
    (skipped when that is [p.vrf], i.e. a rack-local lane) and the
    flow-placer rule steering a's traffic for b onto the VF.
    @raise Invalid_argument if the TCAM refuses the install. *)

val pin_lane :
  src:rack -> dst:rack -> Host.Server.attached -> Host.Server.attached -> unit
(** [pin_lane ~src ~dst a b] statically pins both directions of the
    express lane between a (in [src]) and b (in [dst]): {!receive} then
    {!transmit} for a -> b, then the same for b -> a. *)
