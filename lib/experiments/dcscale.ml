module Engine = Dcsim.Engine
module Simtime = Dcsim.Simtime
module Cluster = Dcsim.Cluster
module Channel = Fabric.Channel
module Stream = Workloads.Stream

type config = {
  racks : int;
  servers_per_rack : int;
  duration : float;
  sharded : bool;
  migrate : bool;
  express_messages : int;
  soft_messages : int;
  message_size : int;
  seed : int;
}

let default_config =
  {
    racks = 16;
    servers_per_rack = 2;
    duration = 0.5;
    sharded = true;
    migrate = true;
    express_messages = 256;
    soft_messages = 64;
    message_size = 4096;
    seed = 42;
  }

(* The control-plane channels ride a slower management network than
   the rack <-> core fabric and never lower the cluster lookahead. *)
let control_hop = Simtime.span_us 20.0
let express_port = 7000
let soft_port = 7100

type result = {
  cfg : config;
  shard_count : int;
  windows : int;
  lookahead_us : float;
  events : int;
  express_bytes : int;
  soft_bytes : int;
  core_routed : int;
  core_dropped : int;
  tor_no_route_drops : int;
  acl_drops : int;
  migration_outcome : string;
  cpu_s : float;
  events_per_sec : float;
}

(* Per-rack VMs: express-lane sender and receiver, software-path
   sender. *)
let xs (rk : Datacenter.rack) = rk.vms.(0)
let xr (rk : Datacenter.rack) = rk.vms.(1)
let sw (rk : Datacenter.rack) = rk.vms.(2)

let run ?(config = default_config) () =
  let cfg = config in
  let dc =
    Datacenter.create ~sharded:cfg.sharded ~seed:cfg.seed ~racks:cfg.racks
      ~servers_per_rack:cfg.servers_per_rack ~name_prefix:"r"
      ~vms:[| "xs"; "xr"; "sw" |] ~first_octet:1 ~rack_stride:3 ()
  in
  let cluster = dc.cluster and racks = dc.racks in
  let rm_config =
    {
      Fastrak.Config.default with
      Fastrak.Config.epoch_period = Simtime.span_sec 0.1;
      poll_gap = Simtime.span_sec 0.02;
    }
  in
  let rms =
    Array.map
      (fun (rk : Datacenter.rack) ->
        Fastrak.Rule_manager.create ~engine:rk.tb.Testbed.engine
          ~config:rm_config ~tor:rk.tb.Testbed.tor
          ~servers:(Array.to_list rk.tb.Testbed.servers)
          ())
      racks
  in
  Array.iter Fastrak.Rule_manager.start rms;
  (* Express lanes: rack r's sender streams to rack (r+1)'s receiver
     over the pinned hardware path, acks riding the reverse lane. *)
  let express =
    Array.init cfg.racks (fun r ->
        let src = racks.(r) and dst = racks.((r + 1) mod cfg.racks) in
        let a = xs src and b = xr dst in
        Datacenter.pin_lane ~src ~dst a b;
        Stream.install_sink ~vm:b.Host.Server.vm ~port:express_port ();
        let sc =
          {
            (Stream.default_config ~dst_ip:(Host.Vm.ip b.Host.Server.vm)) with
            Stream.dst_port = express_port;
            src_port = 6000 + r;
            message_size = cfg.message_size;
            total_bytes = Some (cfg.express_messages * cfg.message_size);
          }
        in
        Stream.start ~engine:src.tb.Testbed.engine ~vm:a.Host.Server.vm sc)
  in
  (* Rack-local software-path traffic keeps each shard's vswitches and
     local controllers busy (and gives the migrating VM a demand
     profile worth shipping). *)
  let soft =
    Array.map
      (fun rk ->
        let dst_vm = (xr rk).Host.Server.vm in
        Stream.install_sink ~vm:dst_vm ~port:soft_port ();
        let sc =
          {
            (Stream.default_config ~dst_ip:(Host.Vm.ip dst_vm)) with
            Stream.dst_port = soft_port;
            src_port = 6500;
            message_size = cfg.message_size;
            total_bytes = Some (cfg.soft_messages * cfg.message_size);
          }
        in
        Stream.start ~engine:rk.tb.Testbed.engine ~vm:(sw rk).Host.Server.vm sc)
      racks
  in
  (* Inter-rack VM migration through the two-phase protocol: prepare at
     rack 0, ship the detached demand profile to rack 1 over a control
     channel, adopt it there, and commit at the source when the ack
     comes back. The prepare timeout still guards a lost ack. *)
  let mg_ref = ref None in
  if cfg.migrate && cfg.racks > 1 then begin
    let src = racks.(0).tb and dst = racks.(1).tb in
    let mig_vm = (sw racks.(0)).Host.Server.vm in
    let mig_vm_ip = Host.Vm.ip mig_vm and tenant = Host.Vm.tenant mig_vm in
    let dst_server = Host.Server.name dst.Testbed.servers.(0) in
    let ack =
      Channel.create ~cluster ~name:"mig.ack" ~src:dst.Testbed.engine
        ~dst:src.Testbed.engine ~latency:control_hop
        ~handler:(fun () ->
          match !mg_ref with
          | Some mg ->
              ignore
                (Fastrak.Rule_manager.commit_vm_migration_remote rms.(0) mg)
          | None -> ())
        ()
    in
    let profile_chan =
      Channel.create ~cluster ~name:"mig.profile" ~src:src.Testbed.engine
        ~dst:dst.Testbed.engine ~latency:control_hop
        ~handler:(fun (vm_ip, profile) ->
          (match profile with
          | Some p ->
              Fastrak.Rule_manager.adopt_vm_profile rms.(1) ~server:dst_server
                ~vm_ip ~profile:p
          | None -> ());
          Channel.send ack ())
        ()
    in
    ignore
      (Engine.at src.Testbed.engine
         (Simtime.of_sec (cfg.duration /. 2.0))
         (fun () ->
           let mg =
             Fastrak.Rule_manager.begin_vm_migration rms.(0) ~tenant
               ~vm_ip:mig_vm_ip
           in
           mg_ref := Some mg;
           Channel.send profile_chan
             (mig_vm_ip, Fastrak.Rule_manager.migration_profile mg)))
  end;
  let t0 = Sys.time () in
  Cluster.run ~until:(Simtime.of_sec cfg.duration) cluster;
  let cpu_s = Sys.time () -. t0 in
  let events = Cluster.events_processed cluster in
  let sum_tors f =
    Array.fold_left
      (fun acc (rk : Datacenter.rack) -> acc + f rk.tb.Testbed.tor)
      0 racks
  in
  {
    cfg;
    shard_count = Cluster.shard_count cluster;
    windows = Cluster.windows_run cluster;
    lookahead_us =
      (match Cluster.lookahead cluster with
      | Some l -> Simtime.span_to_us l
      | None -> 0.0);
    events;
    express_bytes =
      Array.fold_left (fun acc s -> acc + Stream.bytes_acked s) 0 express;
    soft_bytes = Array.fold_left (fun acc s -> acc + Stream.bytes_acked s) 0 soft;
    core_routed = Fabric.Core_switch.packets_routed dc.core;
    core_dropped = Fabric.Core_switch.packets_dropped dc.core;
    tor_no_route_drops = sum_tors Tor.Tor_switch.no_route_drops;
    acl_drops = sum_tors Tor.Tor_switch.acl_drops;
    migration_outcome =
      (if not (cfg.migrate && cfg.racks > 1) then "skipped"
       else
         match !mg_ref with
         | None -> "not-started"
         | Some mg -> (
             match Fastrak.Rule_manager.migration_state mg with
             | `Preparing -> "preparing"
             | `Committed -> "committed"
             | `Aborted -> "aborted"));
    cpu_s;
    events_per_sec =
      (if cpu_s > 0.0 then float_of_int events /. cpu_s else 0.0);
  }

(* The host-time rate goes to stderr, so stdout depends only on the
   seed. *)
let print_row r =
  let layout = if r.cfg.sharded then "sharded" else "single-engine" in
  Printf.printf "  %-13s racks=%-3d shards=%-3d windows=%-8d events=%-9d\n"
    layout r.cfg.racks r.shard_count r.windows r.events;
  Printf.eprintf "  %s: %.2e ev/s (host CPU time)\n%!" layout r.events_per_sec;
  Printf.printf
    "    express acked: %d B; soft acked: %d B; core routed/dropped: %d/%d; \
     tor no-route: %d; acl drops: %d; migration: %s\n"
    r.express_bytes r.soft_bytes r.core_routed r.core_dropped
    r.tor_no_route_drops r.acl_drops r.migration_outcome

let print r =
  Tabular.print_title "dcscale: multi-rack sharded simulation";
  Printf.printf "  lookahead window: %.1f us\n" r.lookahead_us;
  print_row r

let print_comparison ~sharded ~single =
  Tabular.print_title "dcscale: sharded vs single-engine";
  print_row sharded;
  print_row single;
  if
    sharded.express_bytes = single.express_bytes
    && sharded.soft_bytes = single.soft_bytes
  then print_endline "  delivered bytes identical across engine layouts"
  else
    Printf.printf
      "  WARNING: delivered bytes diverge (express %d vs %d, soft %d vs %d)\n"
      sharded.express_bytes single.express_bytes sharded.soft_bytes
      single.soft_bytes
