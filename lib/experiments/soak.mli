(** Long-haul soak under production-shaped load.

    ROADMAP item 5: datacenter-realistic traffic instead of the
    paper's netperf/memcached shapes. The racks come from
    {!Datacenter.create} (one engine shard each, joined through the
    aggregation core; one shared engine for a single rack), and this
    module adds only the load and churn on top. Each rack runs a
    {!Workloads.Loadgen} orchestrator — heavy-tailed flow sizes over
    hot/cold services, a diurnal arrival curve, per-source ON/OFF
    bursts, periodic incast fan-in at a victim service — while tenant
    churn cycles a VM through the two-phase migration machinery and a
    ring of cross-rack express streams, pinned with
    {!Datacenter.pin_lane}, gives the no_blackhole monitor delivery
    progress to watch. Run it under [--monitors strict]: the
    acceptance bar is zero violations. *)

type workload = Mixed | Steady | Bursty | Incast_heavy

val workload_to_string : workload -> string
val workload_of_string : string -> workload option

type config = {
  racks : int;  (** 1–32; 2+ exercises the sharded cluster. *)
  servers_per_rack : int;
  duration : float;  (** Simulated seconds. *)
  workload : workload;
  churn_rate : float;  (** Churn events/sec per rack; 0 disables. *)
  base_rate : float;  (** Flow arrivals/sec per rack. *)
  seed : int;
}

val default_config : config
(** 2 racks x 2 servers, 5 s of [Mixed] at 2000 flows/s/rack with 2
    churn events/s/rack; seed 42. *)

type result = {
  cfg : config;
  shard_count : int;
  windows : int;  (** Lockstep windows the cluster ran. *)
  events : int;
  arrivals : int;  (** Flows admitted through curve and gates. *)
  thinned : int;  (** Candidates rejected by the diurnal curve. *)
  gated_off : int;  (** Arrivals landing on an OFF source. *)
  shed : int;  (** Arrivals shed on port-space exhaustion. *)
  completed : int;
  live_end : int;
  live_p50 : float;  (** Concurrency percentile, worst rack. *)
  live_p99 : float;
  bytes_offered : int;
  incast_events : int;
  churn_departures : int;
  churn_arrivals : int;
  churn_pending : int;  (** Migrations still preparing at run end. *)
  express_acked : int;  (** Bytes acked across the express ring. *)
  generator_words : int;  (** {!Workloads.Loadgen.state_words} summed. *)
  core_routed : int;
  core_dropped : int;
  tor_no_route_drops : int;
  acl_drops : int;
}

val run : ?config:config -> unit -> result
(** @raise Invalid_argument on a config outside the address plan. *)

val print : result -> unit
