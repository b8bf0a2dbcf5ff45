(** The FasTrak measurement engine (§4.3.1).

    Marks a {!Vswitch.Flow_stats} table at the start of each epoch
    and reads every counter's delta since the mark [poll_gap] later to
    compute pps and bps; repeats every epoch;
    every N epochs closes a control interval and emits a report whose
    entries carry the median pps/bps over the last N x M epoch samples
    and the number of epochs each aggregate was active.

    Flows are folded into aggregates by the [classify] function —
    typically per VM per application (<VM IP, L4 port, tenant>), the
    rule of thumb from the paper.

    Histories are fixed-size ring buffers (capacity N x M epochs), so
    an epoch costs O(1) per aggregate with no allocation — the
    hot-path budget that keeps tens of thousands of aggregates per
    rack affordable. Reading deltas from the counters' marks copies
    no table, and a delta is never negative: a counter created after
    the mark is marked at zero. A flow whose counters did not move is
    not classified unless tracing is on.

    The engine is its table's one marking reader, so it is also what
    retires finished flows: a counter closed by its flow's last packet
    is dropped right after the epoch read that reports its final
    delta, and a later flow reusing the key starts a fresh counter.

    State is bounded by the aggregates active within one history
    window: an aggregate with no traffic for a whole window leaves the
    reports and its record is freed, and a flow whose counters do not
    move (an idle flow the datapath still reports) creates none. While
    tracing, the engine also keeps one span id per pattern ever
    classified: an aggregate's [aggregate] span runs from its first
    classified packet to its first idle report and is not re-opened. *)

type owner = {
  tenant : Netcore.Tenant.id;
  vm_ip : Netcore.Ipv4.t;
  direction : [ `Outgoing | `Incoming ];
}

type entry = {
  pattern : Netcore.Fkey.Pattern.t;  (** The aggregate. *)
  owner : owner;
  last_pps : float;
  last_bps : float;
  median_pps : float;
  median_bps : float;
  epochs_active : int;  (** Epochs with non-zero pps in the history. *)
  destinations : Netcore.Ipv4.t list;
      (** Destination VM addresses observed for this aggregate —
          exactly the tunnel mappings an offload must install. *)
}

type report = { interval_index : int; entries : entry list }

type t

val create :
  engine:Dcsim.Engine.t ->
  config:Config.t ->
  name:string ->
  stats:Vswitch.Flow_stats.t ->
  classify:(Netcore.Fkey.t -> (Netcore.Fkey.Pattern.t * owner) option) ->
  t
(** [stats] is the counter table the engine reads; it is that table's
    one marking reader. [classify] returns the aggregate a flow belongs
    to, or [None] to ignore it. *)

val start : t -> unit
(** Begin the epoch schedule (first epoch starts one epoch period from
    now). Idempotent. *)

val stop : t -> unit
(** Halt the epoch schedule; an in-flight poll gap completes but no
    further epochs start. Restartable with {!start}. *)

val on_report : t -> (report -> unit) -> unit
(** Called at the end of every control interval. *)

val aggregates : t -> int
(** Aggregates the engine holds a record for. A record is created at
    the first epoch with traffic and dropped by the first report that
    finds no active sample in its history window, so an idle aggregate
    costs no memory. *)

val epochs_completed : t -> int
(** Total epochs finished since creation (not reset by {!stop}). *)

val intervals_completed : t -> int
(** Total control intervals closed — equals the [interval_index] of the
    latest report. *)
