module Engine = Dcsim.Engine
module Cluster = Dcsim.Cluster
module Channel = Fabric.Channel
module Core_switch = Fabric.Core_switch
module Fkey = Netcore.Fkey

let fabric_hop = Dcsim.Simtime.span_us 2.0

type rack = {
  tb : Testbed.t;
  vms : Host.Server.attached array;
  uplink : Netcore.Packet.t Channel.t;
}

type t = {
  cluster : Cluster.t;
  core : Core_switch.t;
  core_engine : Engine.t;
  racks : rack array;
}

let create ?(sharded = true) ?config ~seed ~racks ~servers_per_rack
    ~name_prefix ~vms ~first_octet ~rack_stride () =
  (* The address plan: the last VM of the last rack must still fit in
     the final octet. *)
  let max_racks =
    ((255 - first_octet - (Array.length vms - 1)) / rack_stride) + 1
  in
  if racks < 1 || racks > max_racks then
    invalid_arg
      (Printf.sprintf
         "Datacenter.create: racks = %d outside the address plan (1..%d)" racks
         max_racks);
  if servers_per_rack < 1 then
    invalid_arg "Datacenter.create: need at least one server per rack";
  let sharded = sharded && racks > 1 in
  let shared = if sharded then None else Some (Engine.create ~seed ()) in
  let mk_engine i =
    match shared with Some e -> e | None -> Engine.create ~seed:(seed + i) ()
  in
  let rack_engines = Array.init racks mk_engine in
  let core_engine =
    if sharded then mk_engine (racks + 1) else rack_engines.(0)
  in
  let shards =
    if sharded then Array.append rack_engines [| core_engine |]
    else [| core_engine |]
  in
  let cluster = Cluster.create ~shards in
  let core = Core_switch.create ~engine:core_engine in
  let build r engine =
    let prefix = Printf.sprintf "%s%d." name_prefix r in
    let tb =
      Testbed.create ~engine ?config ~server_count:servers_per_rack ~rack:r
        ~name_prefix:prefix ()
    in
    let vms =
      Array.mapi
        (fun k kind ->
          Testbed.add_vm tb
            (Testbed.vm_spec ~server:(k mod servers_per_rack)
               ~name:(prefix ^ kind)
               ~ip_last_octet:(first_octet + (r * rack_stride) + k)
               ()))
        vms
    in
    Testbed.connect_tunnels tb;
    let tor_ip = Tor.Tor_switch.ip tb.Testbed.tor in
    let channel dir ~src ~dst handler =
      Channel.create ~cluster ~name:(prefix ^ dir) ~src ~dst ~latency:fabric_hop
        ~handler ()
    in
    let uplink =
      channel "up" ~src:engine ~dst:core_engine (Core_switch.receive core)
    in
    let downlink =
      channel "down" ~src:core_engine ~dst:engine
        (Tor.Tor_switch.receive tb.Testbed.tor)
    in
    Core_switch.attach_rack core ~tor_ip ~downlink ();
    Array.iter
      (fun s ->
        Core_switch.register_server core ~server_ip:(Host.Server.ip s) ~tor_ip)
      tb.Testbed.servers;
    { tb; vms; uplink }
  in
  let racks = Array.mapi build rack_engines in
  (* Each Testbed.create pointed the trace clock at its own engine;
     with several shards the cluster clock is the only correct one. *)
  Obs.Trace.set_clock (fun () -> Cluster.now cluster);
  (* Inter-ToR reachability: every remote ToR is reached through this
     rack's uplink to the core, which routes on the outer header. *)
  Array.iter
    (fun rk ->
      Array.iter
        (fun rk' ->
          if rk != rk' then
            Tor.Tor_switch.add_peer rk.tb.Testbed.tor
              (Tor.Tor_switch.ip rk'.tb.Testbed.tor)
              (Channel.send rk.uplink))
        racks)
    racks;
  { cluster; core; core_engine; racks }

type permit = {
  vrf : Tor.Vrf.t;
  rule : Rules.Rule_compiler.compiled;
  handle : Tor.Vrf.handle;
}

let selection (a : Host.Server.attached) (b : Host.Server.attached) =
  {
    (Fkey.Pattern.from_vm (Host.Vm.ip a.vm) (Host.Vm.tenant a.vm)) with
    Fkey.Pattern.dst_ip = Some (Host.Vm.ip b.vm);
  }

let install vrf rule =
  match Tor.Vrf.install vrf rule with
  | Ok h -> h
  | Error (`Tcam_full | `Install_fault) ->
      invalid_arg "Datacenter: express-lane install refused"

let receive ~dst (a : Host.Server.attached) (b : Host.Server.attached) =
  let tenant = Host.Vm.tenant a.vm and ip_b = Host.Vm.ip b.vm in
  let tor = dst.tb.Testbed.tor in
  let server_ip =
    match Testbed.server_of_vm dst.tb ip_b with
    | Some s -> Host.Server.ip s
    | None -> invalid_arg "Datacenter.receive: destination VM not placed"
  in
  let policy = Vswitch.Ovs.vif_policy a.vif in
  Rules.Policy.install_tunnel policy
    (Rules.Tunnel_rule.make ~tenant ~vm_ip:ip_b
       { Rules.Tunnel_rule.server_ip; tor_ip = Tor.Tor_switch.ip tor });
  match
    Rules.Rule_compiler.compile ~policy ~selection:(selection a b)
      ~destinations:[ ip_b ]
  with
  | Error e ->
      invalid_arg
        (Format.asprintf "Datacenter.receive: %a" Rules.Rule_compiler.pp_error
           e)
  | Ok rule ->
      let vrf = Tor.Tor_switch.vrf tor tenant in
      let handle = install vrf rule in
      Tor.Tor_switch.register_vm tor ~tenant ~vm_ip:ip_b ~server_ip ~port:`Sriov
        ();
      { vrf; rule; handle }

let transmit ~src p (a : Host.Server.attached) b =
  let vrf = Tor.Tor_switch.vrf src.tb.Testbed.tor (Host.Vm.tenant a.vm) in
  if vrf != p.vrf then ignore (install vrf p.rule);
  ignore
    (Host.Bonding.install_rule a.bonding ~pattern:(selection a b) ~priority:2
       Host.Bonding.Vf)

let pin_lane ~src ~dst a b =
  transmit ~src (receive ~dst a b) a b;
  transmit ~src:dst (receive ~dst:src b a) b a
