(** fabric-chaos: the data-plane failure-domain experiment.

    A ring of racks built by {!Datacenter.create} on the sharded
    cluster engine, each streaming open-loop to the next rack's
    receiver. Each rack's peer routes are re-pointed at its own
    fault-injected express uplink, while the builder's reliable uplink
    carries the VXLAN fallback; only the receive half of each lane is
    provisioned ({!Datacenter.receive}). Unlike {!Dcscale}, nothing on
    the transmit side is pinned: the per-rack FasTrak controllers
    promote the streams onto the GRE express lanes themselves, so the
    full failover loop is exercised — BFD-style lane probes detect the
    schedule's mid-run express-uplink outage, covered aggregates demote
    to the VXLAN software path over a reliable uplink, and heal-side
    hysteresis re-promotes them. The same schedule's TCAM dimensions
    arm probabilistic install faults and soft-error evictions, which
    the anti-entropy audit repairs; a scripted local-controller crash
    and snapshot restart exercises recovery and resync.

    Run under [--monitors strict] this doubles as the no-blackhole
    check: the streams keep offering load throughout, so a flow parked
    on a dead path would trip the [no_blackhole] monitor. *)

type config = {
  racks : int;
      (** Ring size, 2–78 (VM addresses 10.7.0.[100+2r..101+2r]; see
          {!Datacenter.create}). *)
  servers_per_rack : int;
  duration : float;  (** Seconds under load. *)
  drain : float;  (** Quiesce time after stopping the streams. *)
  rate_bps : float;  (** Per-stream offered pacing rate. *)
  message_size : int;
  crash_at : float;
      (** When to crash rack 0's sender-side local controller
          (seconds; outside [(0, duration)] disables the script). *)
  restart_at : float;  (** When to restart it from its snapshot. *)
  schedule : string;
      (** Fault schedule: a profile name or raw [key=value] spec, as
          accepted by {!Faults.Schedule.profile} (the CLI's [--faults]). *)
  seed : int;
}

val default_config : config
(** 4 racks x 2 servers, 3 s + 1 s drain, 40 Mbit/s per lane, crash at
    2.0 s / restart at 2.3 s, the ["fabric"] schedule, seed 42. *)

type result = {
  cfg : config;
  schedule : string;  (** Canonical rendering of the schedule run. *)
  express_sent : int;
  express_acked : int;
  lane_downs : int;
  lane_ups : int;
  failover_demotions : int;
  repromotions : int;
  recovery_count : int;
  recovery_mean_s : float;
  resyncs : int;
  audit_sweeps : int;
  audit_reinstalls : int;
  audit_orphans : int;
  static_reinstalls : int;
  install_faults : int;
  soft_errors : int;
  fabric_drops : int;
  core_routed : int;
  core_dropped : int;
  acl_drops : int;
  no_route_drops : int;
  lanes_up_at_end : int;
  lanes_total : int;
  offloaded_at_end : int;
  crash_outcome : string;
  crash_flight : string option;
      (** Compact flight-recorder snapshot ({!Obs.Flight.to_compact})
          captured at the instant of the scripted crash — the
          black-box record of what led up to the failure. [None]
          unless a recorder was installed and the crash fired. Decode
          with {!Obs.Flight.of_compact}. *)
  reconciled : bool;  (** {!views_reconciled} held on every rack. *)
}

val views_reconciled : Fastrak.Rule_manager.t -> Host.Server.t array -> bool
(** The end-of-run check on one rack: the TOR controller's offloaded
    aggregates equal the union of its servers' local controllers',
    leaving out only aggregates whose directive is still on the wire
    ({!Fastrak.Tor_controller.in_flight_patterns}). An exhausted
    demote waiting for replay is compared, so it fails the check. *)

val run : ?config:config -> unit -> result
(** @raise Invalid_argument on fewer than 2 racks, a bad schedule, or a
    config outside the address plan. *)

val print : result -> unit
