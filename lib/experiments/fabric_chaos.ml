module Engine = Dcsim.Engine
module Simtime = Dcsim.Simtime
module Cluster = Dcsim.Cluster
module Channel = Fabric.Channel
module Fkey = Netcore.Fkey
module Stream = Workloads.Stream

type config = {
  racks : int;
  servers_per_rack : int;
  duration : float;
  drain : float;
  rate_bps : float;
  message_size : int;
  crash_at : float;
  restart_at : float;
  schedule : string;
  seed : int;
}

let default_config =
  {
    racks = 4;
    servers_per_rack = 2;
    duration = 3.0;
    drain = 1.0;
    rate_bps = 40e6;
    message_size = 4096;
    crash_at = 2.0;
    restart_at = 2.3;
    schedule = "fabric";
    seed = 42;
  }

let express_port = 7200

type result = {
  cfg : config;
  schedule : string;
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
  (* Compact flight-recorder snapshot captured at the crash instant
     (Obs.Flight.to_compact), when a recorder was installed and the
     scripted crash fired; decode with Obs.Flight.of_compact. *)
  crash_flight : string option;
  reconciled : bool;
}

let pattern_set_equal a b =
  let subset xs ys =
    List.for_all (fun x -> List.exists (Fkey.Pattern.equal x) ys) xs
  in
  subset a b && subset b a

let views_reconciled rm servers =
  let tc = Fastrak.Rule_manager.tor_controller rm in
  let in_flight = Fastrak.Tor_controller.in_flight_patterns tc in
  let settled =
    List.filter (fun p -> not (List.exists (Fkey.Pattern.equal p) in_flight))
  in
  let tor_view = Fastrak.Tor_controller.offloaded_patterns tc in
  let local_view =
    List.concat_map
      (fun server ->
        match
          Fastrak.Rule_manager.local_controller rm ~server:(Host.Server.name server)
        with
        | Some local -> Fastrak.Local_controller.offloaded_patterns local
        | None -> [])
      (Array.to_list servers)
  in
  pattern_set_equal (settled tor_view) (settled local_view)

let counter_delta before name =
  let value snap =
    match List.assoc_opt name snap with
    | Some (Obs.Metrics.Counter_v n) -> n
    | _ -> 0
  in
  (match Obs.Metrics.find name with
  | Some (Obs.Metrics.Counter_v n) -> n
  | _ -> 0)
  - value before

let summary_delta before name =
  let read = function
    | Some (Obs.Metrics.Summary_v { count; sum; _ }) -> (count, sum)
    | _ -> (0, 0.0)
  in
  let c0, s0 = read (List.assoc_opt name before) in
  let c1, s1 = read (Obs.Metrics.find name) in
  let dc = c1 - c0 in
  (dc, if dc > 0 then (s1 -. s0) /. float_of_int dc else 0.0)

let run ?(config = default_config) () =
  let cfg = config in
  if cfg.racks < 2 then
    invalid_arg "Fabric_chaos.run: racks must be at least 2";
  let sched =
    match Faults.Schedule.profile cfg.schedule with
    | Ok s -> s
    | Error msg -> invalid_arg ("fabric-chaos: bad fault schedule: " ^ msg)
  in
  (* The schedule's channel dimensions hit the express uplinks only;
     its TCAM dimensions go to each rack's rule manager. The control
     channels and the VXLAN fallback uplink stay reliable — this
     experiment's failure domain is the data-plane express path. *)
  let tcam_sched =
    {
      Faults.Schedule.none with
      Faults.Schedule.tcam_install_fail = sched.Faults.Schedule.tcam_install_fail;
      tcam_soft_error = sched.Faults.Schedule.tcam_soft_error;
    }
  in
  let before = Obs.Metrics.snapshot () in
  (* Tunneling on: the software path must VXLAN-encapsulate so demoted
     cross-rack flows can route over the core by outer server address —
     it is the failover path under test. Each rack has a sender VM
     streaming to the next rack and a receiver VM for the previous one. *)
  let dc =
    Datacenter.create ~config:Compute.Cost_params.with_tunneling ~seed:cfg.seed
      ~racks:cfg.racks ~servers_per_rack:cfg.servers_per_rack ~name_prefix:"fc"
      ~vms:[| "xs"; "xr" |] ~first_octet:100 ~rack_stride:2 ()
  in
  let racks = dc.racks in
  let xs r = racks.(r).vms.(0) and xr r = racks.(r).vms.(1) in
  let engine r = racks.(r).tb.Testbed.engine in
  let tor r = racks.(r).tb.Testbed.tor in
  (* The builder's reliable uplink carries the VXLAN software-path
     fallback, so a lane outage leaves demoted flows a working route.
     GRE traffic towards peer ToRs moves to an express uplink with the
     schedule's drop/dup/reorder/jitter/down-window faults. *)
  Array.iteri
    (fun r (rk : Datacenter.rack) ->
      let express_up =
        Channel.create ~cluster:dc.cluster ~copy:Netcore.Packet.copy
          ?faults:
            (if Faults.Schedule.has_channel_faults sched then
               Some
                 (Faults.Injector.create ~schedule:sched
                    ~rng:
                      (Dcsim.Rng.split (Engine.rng (engine r))
                         (Printf.sprintf "faults.fabric.r%d" r)))
             else None)
          ~name:(Printf.sprintf "fc%d.express" r)
          ~src:(engine r) ~dst:dc.core_engine ~latency:Datacenter.fabric_hop
          ~handler:(Fabric.Core_switch.receive dc.core)
          ()
      in
      Tor.Tor_switch.set_uplink (tor r) (Channel.send rk.uplink);
      Array.iteri
        (fun d _ ->
          if d <> r then
            Tor.Tor_switch.add_peer (tor r) (Tor.Tor_switch.ip (tor d))
              (Channel.send express_up))
        racks)
    racks;
  (* Receive-side provisioning for both directions of each lane (data
     r -> r+1, acks r+1 -> r), before any install-fault hook arms. The
     transmit side is deliberately NOT pinned — promoting the sender's
     flows onto the lane (and demoting them off a dead one) is the TOR
     controller's job. These permits are not TOR-controller intent, so
     the anti-entropy audit never touches them; the experiment plays
     the provisioning system instead and re-installs one if a TCAM soft
     error evicts it. *)
  let statics = Array.make cfg.racks [] in
  let provision ~dst a b =
    let permit = Datacenter.receive ~dst:racks.(dst) a b in
    statics.(dst) <- ref permit :: statics.(dst)
  in
  for r = 0 to cfg.racks - 1 do
    let next = (r + 1) mod cfg.racks in
    provision ~dst:next (xs r) (xr next);
    provision ~dst:r (xr next) (xs r)
  done;
  (* Control plane per rack; the TCAM failure modes arm here. *)
  let rm_config =
    {
      Fastrak.Config.default with
      Fastrak.Config.epoch_period = Simtime.span_ms 100.0;
      poll_gap = Simtime.span_ms 20.0;
      tcam_audit_interval = Some (Simtime.span_ms 250.0);
    }
  in
  let rms =
    Array.init cfg.racks (fun r ->
        Fastrak.Rule_manager.create ~engine:(engine r) ~config:rm_config
          ~tor:(tor r)
          ~servers:(Array.to_list racks.(r).tb.Testbed.servers)
          ?faults:
            (if Faults.Schedule.has_tcam_faults tcam_sched then Some tcam_sched
             else None)
          ())
  in
  (* The provisioning system's own anti-entropy: re-install any static
     receive-side permit a soft error evicted. Offset from the 100 ms
     soft-error sweep so a repair is visible before the next scan. *)
  let static_reinstalls = ref 0 in
  Array.iteri
    (fun r pins ->
      Engine.every (engine r)
        ~start:(Simtime.add (Engine.now (engine r)) (Simtime.span_ms 125.0))
        (Simtime.span_ms 250.0)
        (fun () ->
          List.iter
            (fun pin ->
              let p = !pin in
              if not (Tor.Vrf.is_live p.Datacenter.vrf p.handle) then
                match Tor.Vrf.install p.vrf p.rule with
                | Ok handle ->
                    pin := { p with handle };
                    incr static_reinstalls
                | Error (`Tcam_full | `Install_fault) -> ())
            pins;
          `Continue))
    statics;
  (* Express lanes: rack r probes its data lane to r+1 and (when
     distinct) the reverse lane to r-1 that carries its inbound acks. *)
  let lane_names = ref [] in
  Array.iteri
    (fun r rm ->
      let neighbors =
        let next = (r + 1) mod cfg.racks in
        let prev = (r + cfg.racks - 1) mod cfg.racks in
        if next = prev then [ next ] else [ next; prev ]
      in
      List.iter
        (fun d ->
          let vm_ip (v : Host.Server.attached) = Host.Vm.ip v.vm in
          let ips = [ vm_ip (xs d); vm_ip (xr d) ] in
          let name = Printf.sprintf "fc%d->fc%d" r d in
          Fastrak.Tor_controller.add_lane
            (Fastrak.Rule_manager.tor_controller rm)
            ~name
            ~remote_tor:(Tor.Tor_switch.ip (tor d))
            ~covers:(fun ip -> List.exists (Netcore.Ipv4.equal ip) ips);
          lane_names := (rm, name) :: !lane_names)
        neighbors)
    rms;
  Array.iter Fastrak.Rule_manager.start rms;
  (* Open-loop paced streams keep offering load right through the
     outage — exactly what the no-blackhole monitor needs to judge. *)
  let streams =
    Array.init cfg.racks (fun r ->
        let dst = (xr ((r + 1) mod cfg.racks)).Host.Server.vm in
        Stream.install_sink ~vm:dst ~port:express_port ();
        let sc =
          {
            (Stream.default_config ~dst_ip:(Host.Vm.ip dst)) with
            Stream.dst_port = express_port;
            src_port = 6200 + r;
            message_size = cfg.message_size;
            window = 1_000_000;
            total_bytes = None;
            paced_rate_bps = Some cfg.rate_bps;
          }
        in
        Stream.start ~engine:(engine r) ~vm:(xs r).Host.Server.vm sc)
  in
  (* Scripted local-controller crash on rack 0's sender server: the
     process dies mid-run and later restarts from its snapshot,
     reconciles against the surviving dataplane, and resyncs with the
     TOR controller. *)
  let snap = ref None in
  let crash_flight = ref None in
  let crash_armed =
    cfg.crash_at > 0.0 && cfg.crash_at < cfg.duration
  in
  let crash_lc =
    let sender_ip = Host.Vm.ip (xs 0).Host.Server.vm in
    match Testbed.server_of_vm racks.(0).tb sender_ip with
    | None -> None
    | Some server ->
        Fastrak.Rule_manager.local_controller rms.(0)
          ~server:(Host.Server.name server)
  in
  (match crash_lc with
  | Some lc when crash_armed ->
      ignore
        (Engine.at (engine 0)
           (Simtime.of_sec cfg.crash_at)
           (fun () ->
             snap := Some (Fastrak.Local_controller.snapshot lc);
             (* Black-box capture at the instant of failure: freeze the
                recorder's view of the run so far (compact snapshot for
                the result record) and write the JSONL dump. *)
             (match Obs.Flight.installed () with
             | Some ring -> crash_flight := Some (Obs.Flight.to_compact ring)
             | None -> ());
             ignore (Obs.Flight.dump_installed ());
             Fastrak.Local_controller.crash lc));
      if cfg.restart_at > cfg.crash_at && cfg.restart_at < cfg.duration then
        ignore
          (Engine.at (engine 0)
             (Simtime.of_sec cfg.restart_at)
             (fun () ->
               match !snap with
               | Some snapshot ->
                   Fastrak.Local_controller.restart lc ~snapshot
               | None -> ()))
  | _ -> ());
  Cluster.run ~until:(Simtime.of_sec cfg.duration) dc.cluster;
  (* Quiesce and drain: stop the offered load, let retries and grace
     windows expire, then check that every rack's two rule views
     agree — the recovery machinery must leave no divergence behind.
     The TCAM faults and the audit keep running through the drain, so
     the run can end with a directive still on the wire (an audit
     demote pushed 200 us before the end, say); its aggregate is left
     out of the comparison, since the acknowledged-delivery protocol,
     not the drain, is what settles it. *)
  Array.iter Stream.stop streams;
  Cluster.run ~until:(Simtime.of_sec (cfg.duration +. cfg.drain)) dc.cluster;
  let reconciled =
    Array.for_all2
      (fun rm (rk : Datacenter.rack) -> views_reconciled rm rk.tb.Testbed.servers)
      rms racks
  in
  let lanes_total = List.length !lane_names in
  let lanes_up_at_end =
    List.fold_left
      (fun acc (rm, name) ->
        match
          Fastrak.Tor_controller.lane_is_up
            (Fastrak.Rule_manager.tor_controller rm)
            ~name
        with
        | Some true -> acc + 1
        | Some false | None -> acc)
      0 !lane_names
  in
  let crash_outcome =
    match crash_lc with
    | _ when not crash_armed -> "skipped"
    | None -> "no-controller"
    | Some lc ->
        if !snap = None then "never-crashed"
        else if Fastrak.Local_controller.crashed lc then "still-down"
        else "recovered"
  in
  let sum f = Array.fold_left (fun acc x -> acc + f x) 0 in
  let sum_tors f =
    sum (fun (rk : Datacenter.rack) -> f rk.tb.Testbed.tor) racks
  in
  let recovery_count, recovery_mean_s =
    summary_delta before "fastrak.recovery_time"
  in
  {
    cfg;
    schedule = Faults.Schedule.to_string sched;
    express_sent = sum Stream.bytes_sent streams;
    express_acked = sum Stream.bytes_acked streams;
    lane_downs = counter_delta before "fastrak.failover.lane_down";
    lane_ups = counter_delta before "fastrak.failover.lane_up";
    failover_demotions = counter_delta before "fastrak.failover.demotions";
    repromotions = counter_delta before "fastrak.failover.repromotions";
    recovery_count;
    recovery_mean_s;
    resyncs = counter_delta before "fastrak.recovery.resyncs";
    audit_sweeps = counter_delta before "fastrak.audit.sweeps";
    audit_reinstalls = counter_delta before "fastrak.audit.reinstalls";
    audit_orphans = counter_delta before "fastrak.audit.orphans_removed";
    static_reinstalls = !static_reinstalls;
    install_faults = counter_delta before "tor.tcam.install_faults";
    soft_errors = counter_delta before "tor.tcam.soft_errors";
    fabric_drops = counter_delta before "fabric.channel.drops";
    core_routed = Fabric.Core_switch.packets_routed dc.core;
    core_dropped = Fabric.Core_switch.packets_dropped dc.core;
    acl_drops = sum_tors Tor.Tor_switch.acl_drops;
    no_route_drops = sum_tors Tor.Tor_switch.no_route_drops;
    lanes_up_at_end;
    lanes_total;
    offloaded_at_end = sum Fastrak.Rule_manager.offloaded_count rms;
    crash_outcome;
    crash_flight = !crash_flight;
    reconciled;
  }

let print r =
  Tabular.print_title "fabric-chaos: data-plane failure domains";
  Printf.printf "fault schedule: %s\n" r.schedule;
  Printf.printf
    "  topology: %d racks x %d servers, %.1fs under load + %.1fs drain, \
     %.0f Mbit/s per lane\n"
    r.cfg.racks r.cfg.servers_per_rack r.cfg.duration r.cfg.drain
    (r.cfg.rate_bps /. 1e6);
  Printf.printf "  express traffic: %d B offered, %d B acked (%.1f%%)\n"
    r.express_sent r.express_acked
    (if r.express_sent > 0 then
       100.0 *. float_of_int r.express_acked /. float_of_int r.express_sent
     else 0.0);
  Printf.printf
    "  fabric faults: %d express-uplink drops; TCAM: %d install faults, %d \
     soft errors\n"
    r.fabric_drops r.install_faults r.soft_errors;
  Printf.printf
    "  failover: %d lane-down, %d lane-up events; %d demotions, %d \
     re-promotions\n"
    r.lane_downs r.lane_ups r.failover_demotions r.repromotions;
  if r.recovery_count > 0 then
    Printf.printf "  lane recovery time: mean %.0f ms over %d outages\n"
      (r.recovery_mean_s *. 1e3) r.recovery_count;
  Printf.printf
    "  anti-entropy: %d audit sweeps, %d reinstalls, %d orphans removed; %d \
     static re-pins; %d resyncs\n"
    r.audit_sweeps r.audit_reinstalls r.audit_orphans r.static_reinstalls
    r.resyncs;
  Printf.printf "  controller crash: %s\n" r.crash_outcome;
  (match r.crash_flight with
  | Some compact ->
      let n =
        match Obs.Flight.of_compact compact with
        | Some events -> List.length events
        | None -> 0
      in
      Printf.printf "  crash flight recorder: %d event(s), %d B compact\n" n
        (String.length compact)
  | None -> ());
  Printf.printf
    "  core routed/dropped: %d/%d; tor acl drops: %d; tor no-route: %d\n"
    r.core_routed r.core_dropped r.acl_drops r.no_route_drops;
  Printf.printf "  at end: %d/%d lanes up, %d aggregates offloaded -> %s\n"
    r.lanes_up_at_end r.lanes_total r.offloaded_at_end
    (if r.reconciled then "views reconciled" else "NOT RECONCILED")
