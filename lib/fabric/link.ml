module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Packet = Netcore.Packet
module Hdr = Netcore.Hdr

let m_drops = Obs.Metrics.counter "fabric.link.drops"
let m_dups = Obs.Metrics.counter "fabric.link.dups"

type t = {
  engine : Engine.t;
  link_name : string;
  gbps : float;
  latency : Simtime.span;
  deliver : Packet.t -> unit;
  wire : Compute.Cpu_pool.t;  (* 1-server queue: the wire itself *)
  faults : Faults.Injector.t option;
  mutable feeder : unit -> unit;
  mutable packets_sent : int;
  mutable bytes_sent : int;
  mutable packets_dropped : int;
}

let create ?faults ~engine ~name ~gbps ~latency ~deliver () =
  {
    engine;
    link_name = name;
    gbps;
    latency;
    deliver;
    wire = Compute.Cpu_pool.create ~engine ~cpus:1 ~name:(name ^ ".wire");
    faults;
    feeder = ignore;
    packets_sent = 0;
    bytes_sent = 0;
    packets_dropped = 0;
  }

let wire_bytes pkt =
  let payload = pkt.Packet.payload in
  let frames = Stdlib.max 1 ((payload + Hdr.max_tcp_payload - 1) / Hdr.max_tcp_payload) in
  let per_frame_overhead =
    Packet.wire_size pkt - payload + Compute.Cost_params.wire_overhead_per_frame
  in
  payload + (frames * per_frame_overhead)

(* Propagation after serialisation. With no injector this is the
   untouched reliable path; with one, the verdict is drawn when the
   packet leaves the wire. A faulty delay only ever ADDS latency, so
   sharded-run lookahead bounds stay valid. *)
let propagate t pkt =
  match t.faults with
  | None -> ignore (Engine.after t.engine t.latency (fun () -> t.deliver pkt))
  | Some inj -> (
      match Faults.Injector.decide inj ~now:(Engine.now t.engine) with
      | Faults.Injector.Drop ->
          t.packets_dropped <- t.packets_dropped + 1;
          Obs.Metrics.incr m_drops
      | Faults.Injector.Deliver { extra_delay; in_order = _; duplicate_delay } ->
          (* A point-to-point wire has no alternate path, so reordering
             is meaningless here: only loss, extra delay and (rarely)
             duplication apply. *)
          let delay = Simtime.span_add t.latency extra_delay in
          ignore (Engine.after t.engine delay (fun () -> t.deliver pkt));
          (match duplicate_delay with
          | None -> ()
          | Some d ->
              Obs.Metrics.incr m_dups;
              ignore
                (Engine.after t.engine (Simtime.span_add delay d) (fun () ->
                     t.deliver (Packet.copy pkt)))))

let transmit t pkt =
  let bytes_len = wire_bytes pkt in
  let cost = Simtime.span_of_bytes_at_rate ~bytes_len ~gbps:t.gbps in
  Compute.Cpu_pool.submit t.wire ~cost (fun () ->
      t.packets_sent <- t.packets_sent + 1;
      t.bytes_sent <- t.bytes_sent + bytes_len;
      propagate t pkt;
      t.feeder ())

let set_feeder t feeder = t.feeder <- feeder

let busy_seconds t = Compute.Cpu_pool.busy_seconds t.wire
let utilization t ~over = Compute.Cpu_pool.utilization t.wire ~over
let packets_sent t = t.packets_sent
let bytes_sent t = t.bytes_sent
let packets_dropped t = t.packets_dropped
let queue_length t = Compute.Cpu_pool.queue_length t.wire
