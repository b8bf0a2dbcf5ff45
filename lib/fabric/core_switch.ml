module Packet = Netcore.Packet
module Ipv4 = Netcore.Ipv4

let m_routed = Obs.Metrics.counter "fabric.core.routed"
let m_drops = Obs.Metrics.counter "fabric.core.no_route_drops"
let m_port_drops = Obs.Metrics.counter "fabric.core.port_drops"
let m_port_dups = Obs.Metrics.counter "fabric.core.port_dups"

(* Per-rack breakdown of [fabric.core.routed], keyed on the rack index
   assigned when the rack's downlink was attached. *)
let fam_routed = Obs.Metrics.counter_family ~label:"rack" "fabric.core.routed"

type port = {
  downlink : Packet.t Channel.t;
  faults : Faults.Injector.t option;
  rack : int;  (* attach order; the [fam_routed] label key *)
}

type t = {
  engine : Dcsim.Engine.t;
  downlinks : (int, port) Hashtbl.t; (* tor ip -> downlink port *)
  server_rack : (int, int) Hashtbl.t; (* server ip -> tor ip *)
  mutable routed : int;
  mutable dropped : int;
  mutable port_dropped : int;
}

let create ~engine =
  {
    engine;
    downlinks = Hashtbl.create 16;
    server_rack = Hashtbl.create 64;
    routed = 0;
    dropped = 0;
    port_dropped = 0;
  }

let ip_key addr = Int32.to_int (Ipv4.to_int32 addr)

let attach_rack t ?faults ~tor_ip ~downlink () =
  let rack = Hashtbl.length t.downlinks in
  Hashtbl.replace t.downlinks (ip_key tor_ip) { downlink; faults; rack }

let register_server t ~server_ip ~tor_ip =
  Hashtbl.replace t.server_rack (ip_key server_ip) (ip_key tor_ip)

let drop t =
  t.dropped <- t.dropped + 1;
  Obs.Metrics.incr m_drops

(* Push a packet out of one downlink port, drawing a fault verdict when
   the port has an injector. Extra delay is applied on the core shard
   BEFORE the downlink channel send, so the channel's own latency (and
   hence any registered lookahead bound) is still fully honoured; the
   channel's FIFO clamp then re-imposes in-order delivery, which is why
   reorder verdicts are ignored here. *)
let port_out t port pkt =
  match port.faults with
  | None -> Channel.send port.downlink pkt
  | Some inj -> (
      match Faults.Injector.decide inj ~now:(Dcsim.Engine.now t.engine) with
      | Faults.Injector.Drop ->
          t.port_dropped <- t.port_dropped + 1;
          Obs.Metrics.incr m_port_drops
      | Faults.Injector.Deliver { extra_delay; in_order = _; duplicate_delay } ->
          let after d k =
            if Dcsim.Simtime.span_to_ns d <= 0 then k ()
            else ignore (Dcsim.Engine.after t.engine d k)
          in
          after extra_delay (fun () -> Channel.send port.downlink pkt);
          (match duplicate_delay with
          | None -> ()
          | Some d ->
              Obs.Metrics.incr m_port_dups;
              after
                (Dcsim.Simtime.span_add extra_delay d)
                (fun () -> Channel.send port.downlink (Packet.copy pkt))))

let forward t key pkt =
  match Hashtbl.find_opt t.downlinks key with
  | Some port ->
      t.routed <- t.routed + 1;
      Obs.Metrics.incr m_routed;
      Obs.Metrics.incr (Obs.Metrics.labeled_counter fam_routed port.rack);
      port_out t port pkt
  | None -> drop t

let receive t pkt =
  match Packet.outer_encap pkt with
  | Some (Packet.Gre { tunnel_dst; _ }) ->
      (* Express-lane traffic: routed by the destination ToR loopback
         in the outer GRE header. *)
      forward t (ip_key tunnel_dst) pkt
  | Some (Packet.Vxlan { tunnel_dst; _ }) -> (
      (* Software-path traffic between racks: the outer address is the
         destination server; route to its rack's ToR. *)
      match Hashtbl.find_opt t.server_rack (ip_key tunnel_dst) with
      | Some tor_key -> forward t tor_key pkt
      | None -> drop t)
  | Some (Packet.Vlan _) | None ->
      (* VLAN-tagged and plain packets are rack-local by construction;
         one reaching the core has no routable outer address. *)
      drop t

let packets_routed t = t.routed
let packets_dropped t = t.dropped
let port_drops t = t.port_dropped
