(* Integration tests of the dataplane components: Link, Ovs, Sriov,
   Tcam/Vrf/Tor_switch, Qos_queue, and Server/Vm/Bonding assembly. *)

module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Packet = Netcore.Packet
module Fkey = Netcore.Fkey
module Ipv4 = Netcore.Ipv4

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let tenant = Netcore.Tenant.of_int 7

let flow ?(src = "10.7.0.1") ?(dst = "10.7.0.2") ?(sport = 1000) ?(dport = 80) () =
  Fkey.make ~src_ip:(Ipv4.of_string src) ~dst_ip:(Ipv4.of_string dst)
    ~src_port:sport ~dst_port:dport ~proto:Fkey.Tcp ~tenant

let pkt ?(payload = 1000) f = Packet.data_packet ~now:Simtime.zero ~flow:f ~payload

(* --- Link --- *)

let test_link_delivery_timing () =
  let engine = Engine.create () in
  let arrived = ref Simtime.zero in
  let link =
    Fabric.Link.create ~engine ~name:"l" ~gbps:10.0
      ~latency:(Simtime.span_us 1.0)
      ~deliver:(fun _ -> arrived := Engine.now engine)
      ()
  in
  let p = pkt ~payload:1000 (flow ()) in
  let expected_ser =
    Simtime.span_of_bytes_at_rate ~bytes_len:(Fabric.Link.wire_bytes p) ~gbps:10.0
  in
  Fabric.Link.transmit link p;
  Engine.run engine;
  checki "serialization + latency"
    (Simtime.span_to_ns expected_ser + 1_000)
    (Simtime.to_ns !arrived);
  checki "counted" 1 (Fabric.Link.packets_sent link)

let test_link_fifo_contention () =
  let engine = Engine.create () in
  let order = ref [] in
  let link =
    Fabric.Link.create ~engine ~name:"l" ~gbps:10.0 ~latency:Simtime.span_zero
      ~deliver:(fun p -> order := p.Packet.payload :: !order)
      ()
  in
  for i = 1 to 5 do
    Fabric.Link.transmit link (pkt ~payload:(1000 + i) (flow ()))
  done;
  Engine.run engine;
  Alcotest.check (Alcotest.list Alcotest.int) "fifo"
    [ 1001; 1002; 1003; 1004; 1005 ]
    (List.rev !order)

let test_link_wire_bytes_multiframe () =
  let small = Fabric.Link.wire_bytes (pkt ~payload:100 (flow ())) in
  let big = Fabric.Link.wire_bytes (pkt ~payload:32000 (flow ())) in
  (* 32000 B = 22 frames, each with headers + preamble. *)
  checkb "per-frame overhead scales" true (big > 32000 + (21 * 58));
  checkb "small sane" true (small < 200)

(* --- Tcam --- *)

let test_tcam () =
  let t = Tor.Tcam.create ~capacity:10 in
  checkb "reserve" true (Tor.Tcam.reserve t 7);
  checki "available" 3 (Tor.Tcam.available t);
  checkb "over-reserve refused" false (Tor.Tcam.reserve t 4);
  checki "unchanged" 7 (Tor.Tcam.used t);
  Tor.Tcam.release t 5;
  checki "released" 2 (Tor.Tcam.used t);
  Alcotest.check_raises "over-release" (Invalid_argument "Tcam.release: bad count")
    (fun () -> Tor.Tcam.release t 5)

(* --- Vrf --- *)

let compiled_for ?(dport = 80) () =
  let policy = Rules.Policy.create ~tenant ~vm_ip:(Ipv4.of_string "10.7.0.1") () in
  Rules.Policy.add_acl policy
    (Rules.Security_rule.make ~priority:5
       { Fkey.Pattern.any with Fkey.Pattern.dst_port = Some dport; tenant = Some tenant }
       Allow);
  Rules.Policy.install_tunnel policy
    (Rules.Tunnel_rule.make ~tenant ~vm_ip:(Ipv4.of_string "10.7.0.2")
       {
         Rules.Tunnel_rule.server_ip = Ipv4.of_string "192.168.1.11";
         tor_ip = Ipv4.of_string "192.168.0.1";
       });
  match Rules.Rule_compiler.compile_flow ~policy ~flow:(flow ~dport ()) with
  | Ok c -> c
  | Error _ -> Alcotest.fail "compile failed"

let test_vrf_install_permits () =
  let tcam = Tor.Tcam.create ~capacity:16 in
  let vrf = Tor.Vrf.create ~tenant ~tcam in
  checkb "default deny" false (Tor.Vrf.permits vrf (flow ()));
  let handle =
    match Tor.Vrf.install vrf (compiled_for ()) with
    | Ok h -> h
    | Error (`Tcam_full | `Install_fault) -> Alcotest.fail "unexpected tcam full"
  in
  checkb "permits after install" true (Tor.Vrf.permits vrf (flow ()));
  checkb "other flow still denied" false (Tor.Vrf.permits vrf (flow ~dport:22 ()));
  checkb "tunnel installed" true
    (Tor.Vrf.tunnel_for vrf ~dst_ip:(Ipv4.of_string "10.7.0.2") <> None);
  checki "tcam entries" 2 (Tor.Tcam.used tcam);
  Tor.Vrf.remove vrf handle;
  checkb "deny after remove" false (Tor.Vrf.permits vrf (flow ()));
  checki "tcam returned" 0 (Tor.Tcam.used tcam);
  (* Idempotent removal. *)
  Tor.Vrf.remove vrf handle;
  checki "still zero" 0 (Tor.Tcam.used tcam)

let test_vrf_tcam_full () =
  let tcam = Tor.Tcam.create ~capacity:1 in
  let vrf = Tor.Vrf.create ~tenant ~tcam in
  (match Tor.Vrf.install vrf (compiled_for ()) with
  | Error (`Tcam_full | `Install_fault) -> ()
  | Ok _ -> Alcotest.fail "must not fit");
  checki "atomic failure" 0 (Tor.Tcam.used tcam)

let test_vrf_tunnel_refcount () =
  let tcam = Tor.Tcam.create ~capacity:16 in
  let vrf = Tor.Vrf.create ~tenant ~tcam in
  let h1 = Result.get_ok (Tor.Vrf.install vrf (compiled_for ~dport:80 ())) in
  let _h2 = Result.get_ok (Tor.Vrf.install vrf (compiled_for ~dport:81 ())) in
  Tor.Vrf.remove vrf h1;
  (* The tunnel mapping is shared; the second entry still needs it. *)
  checkb "tunnel survives shared removal" true
    (Tor.Vrf.tunnel_for vrf ~dst_ip:(Ipv4.of_string "10.7.0.2") <> None)

(* Model-based check of the VRF against the newest-first list scan it
   replaced. Patterns draw every field from a two-value domain under
   one of five masks, so duplicate and overlapping allow patterns with
   different queues are common: an index that returned any match other
   than the newest would change [classify]. Soft-error eviction runs
   on two RNGs with the same seed, one for the VRF and one for the
   model, so both pick the same victim by position. *)
type vrf_op =
  | Vrf_install of int * int * int * int
      (* mask index, field-value bits, queue, tunnel choice *)
  | Vrf_remove of int
  | Vrf_evict

let print_vrf_op = function
  | Vrf_install (m, v, q, tun) -> Printf.sprintf "install(m%d,v%d,q%d,t%d)" m v q tun
  | Vrf_remove k -> Printf.sprintf "remove#%d" k
  | Vrf_evict -> "evict"

let vrf_masks =
  let open Fkey.Pattern.Mask in
  [|
    { none with src_ip = true; src_port = true; tenant = true };
    { none with src_ip = true; dst_ip = true; tenant = true };
    { none with dst_port = true; tenant = true };
    { none with src_ip = true; proto = true };
    all;
  |]

let vrf_src = [| Ipv4.of_string "10.7.0.1"; Ipv4.of_string "10.7.0.2" |]
let vrf_dst = [| Ipv4.of_string "10.7.0.3"; Ipv4.of_string "10.7.0.4" |]
let vrf_protos = [| Fkey.Tcp; Fkey.Udp |]

(* Bit i of [v] picks the value of field i. *)
let vrf_flow_of_bits v =
  let bit i = (v lsr i) land 1 in
  Fkey.make ~src_ip:vrf_src.(bit 0) ~dst_ip:vrf_dst.(bit 1)
    ~src_port:(1000 + bit 2) ~dst_port:(80 + bit 3) ~proto:vrf_protos.(bit 4)
    ~tenant

let vrf_probe_flows = List.init 32 vrf_flow_of_bits

let vrf_compiled ~mask ~bits ~queue ~tunnel : Rules.Rule_compiler.compiled =
  let acl_pattern = Fkey.Pattern.Mask.project vrf_masks.(mask) (vrf_flow_of_bits bits) in
  (* 0: no tunnel; otherwise one mapping for dst (tunnel land 1) at ToR
     (tunnel lsr 1), so re-installs overwrite with a new endpoint. *)
  let tunnels =
    if tunnel = 0 then []
    else
      [
        Rules.Tunnel_rule.make ~tenant ~vm_ip:vrf_dst.(tunnel land 1)
          {
            Rules.Tunnel_rule.server_ip = Ipv4.of_string "192.168.1.11";
            tor_ip = Ipv4.of_octets 192 168 0 (tunnel lsr 1);
          };
      ]
  in
  { tenant; acl_pattern; queue; tunnels; tcam_entries = 1 + List.length tunnels }

let prop_vrf_model =
  let op =
    QCheck2.Gen.(
      frequency
        [
          ( 6,
            map
              (fun (m, v, q, tun) -> Vrf_install (m, v, q, tun))
              (quad (int_range 0 (Array.length vrf_masks - 1)) (int_range 0 31)
                 (int_range 0 7) (int_range 0 5)) );
          (3, map (fun k -> Vrf_remove k) nat);
          (1, pure Vrf_evict);
        ])
  in
  QCheck2.Test.make ~name:"vrf matches a newest-first list model" ~count:300
    ~print:QCheck2.Print.(pair int (list print_vrf_op))
    QCheck2.Gen.(pair (int_range 4 40) (list_size (int_range 1 120) op))
    (fun (capacity, ops) ->
      let tcam = Tor.Tcam.create ~capacity in
      let vrf = Tor.Vrf.create ~tenant ~tcam in
      let vrf_rng = Dcsim.Rng.create ~seed:capacity in
      let model_rng = Dcsim.Rng.create ~seed:capacity in
      (* Reference: (id, compiled) newest first, plus the tunnel map
         (last install wins) and its per-address refcounts. *)
      let model = ref [] and used = ref 0 and next_id = ref 0 in
      let tunnels = Hashtbl.create 4 and refs = Hashtbl.create 4 in
      let handles = ref [||] in
      let model_remove id =
        match List.assoc_opt id !model with
        | None -> ()
        | Some (c : Rules.Rule_compiler.compiled) ->
            model := List.remove_assoc id !model;
            used := !used - c.tcam_entries;
            List.iter
              (fun (tr : Rules.Tunnel_rule.t) ->
                let r = Hashtbl.find refs tr.vm_ip in
                if r <= 1 then begin
                  Hashtbl.remove refs tr.vm_ip;
                  Hashtbl.remove tunnels tr.vm_ip
                end
                else Hashtbl.replace refs tr.vm_ip (r - 1))
              c.tunnels
      in
      let id_of h =
        let rec find i = if !handles.(i) = h then i else find (i + 1) in
        find 0
      in
      let step op =
        (match op with
        | Vrf_install (mask, bits, queue, tunnel) ->
            let c = vrf_compiled ~mask ~bits ~queue ~tunnel in
            let fits = !used + c.tcam_entries <= capacity in
            (match Tor.Vrf.install vrf c with
            | Ok h ->
                if not fits then QCheck2.Test.fail_report "install past capacity";
                let id = !next_id in
                incr next_id;
                handles := Array.append !handles [| h |];
                model := (id, c) :: !model;
                used := !used + c.tcam_entries;
                List.iter
                  (fun (tr : Rules.Tunnel_rule.t) ->
                    Hashtbl.replace tunnels tr.vm_ip tr.endpoint;
                    Hashtbl.replace refs tr.vm_ip
                      (1 + Option.value (Hashtbl.find_opt refs tr.vm_ip) ~default:0))
                  c.tunnels
            | Error `Tcam_full ->
                if fits then QCheck2.Test.fail_report "spurious Tcam_full"
            | Error `Install_fault -> QCheck2.Test.fail_report "no fault hook set")
        | Vrf_remove k ->
            let n = Array.length !handles in
            if n > 0 then begin
              Tor.Vrf.remove vrf !handles.(k mod n);
              model_remove (k mod n)
            end
        | Vrf_evict -> (
            let expected =
              match !model with
              | [] -> None
              | entries ->
                  let id, _ =
                    List.nth entries
                      (Dcsim.Rng.int model_rng (List.length entries))
                  in
                  model_remove id;
                  Some id
            in
            match Tor.Vrf.evict_random vrf ~rng:vrf_rng with
            | None -> if expected <> None then QCheck2.Test.fail_report "evict: none"
            | Some h ->
                if Some (id_of h) <> expected then
                  QCheck2.Test.fail_report "evict: different victim"));
        let first_match f =
          List.find_opt
            (fun (_, (c : Rules.Rule_compiler.compiled)) ->
              Fkey.Pattern.matches c.acl_pattern f)
            !model
        in
        List.for_all
          (fun f ->
            let m = first_match f in
            Tor.Vrf.permits vrf f = Option.is_some m
            && Tor.Vrf.classify vrf f
               = match m with Some (_, c) -> c.queue | None -> -1)
          vrf_probe_flows
        && Array.for_all
             (fun dst_ip ->
               Tor.Vrf.tunnel_for vrf ~dst_ip = Hashtbl.find_opt tunnels dst_ip)
             vrf_dst
        && Tor.Vrf.installed_count vrf = List.length !model
        && Tor.Tcam.used tcam = !used
        && List.map id_of (Tor.Vrf.live_handles vrf) = List.map fst !model
        && Array.for_all
             (fun h -> Tor.Vrf.is_live vrf h = List.mem_assoc (id_of h) !model)
             !handles
      in
      List.for_all step ops)

(* --- Qos queue --- *)

let test_qos_strict_priority () =
  let engine = Engine.create () in
  let order = ref [] in
  let link =
    Fabric.Link.create ~engine ~name:"l" ~gbps:10.0 ~latency:Simtime.span_zero
      ~deliver:(fun p -> order := p.Packet.payload :: !order)
      ()
  in
  let q = Tor.Qos_queue.create ~classes:4 ~link in
  (* First packet starts transmitting immediately; the rest queue and
     must leave highest class first. *)
  Tor.Qos_queue.enqueue q ~queue:0 (pkt ~payload:9000 (flow ()));
  Tor.Qos_queue.enqueue q ~queue:0 (pkt ~payload:1 (flow ()));
  Tor.Qos_queue.enqueue q ~queue:3 (pkt ~payload:2 (flow ()));
  Tor.Qos_queue.enqueue q ~queue:1 (pkt ~payload:3 (flow ()));
  Engine.run engine;
  Alcotest.check (Alcotest.list Alcotest.int) "priority order"
    [ 9000; 2; 3; 1 ] (List.rev !order);
  checki "sent" 4 (Tor.Qos_queue.packets_sent q)

(* The multiplexer pulls from its link: the link calls it back when
   the wire frees, so the link's own FIFO stays empty and every
   departure is a strict-priority choice. *)

let sport_of (p : Packet.t) = p.Packet.flow.Fkey.src_port

let test_qos_link_never_queues () =
  let engine = Engine.create () in
  let delivered = ref 0 in
  let link =
    Fabric.Link.create ~engine ~name:"l" ~gbps:10.0
      ~latency:(Simtime.span_us 2.0)
      ~deliver:(fun _ -> incr delivered)
      ()
  in
  let q = Tor.Qos_queue.create ~classes:8 ~link in
  let link_queue_max = ref 0 in
  let qos_backlog_max = ref 0 in
  let note () =
    link_queue_max := Stdlib.max !link_queue_max (Fabric.Link.queue_length link);
    qos_backlog_max := Stdlib.max !qos_backlog_max (Tor.Qos_queue.total_queued q)
  in
  (* Two packets every 300 ns: about twice what the wire drains. *)
  for i = 0 to 199 do
    ignore
      (Engine.at engine (Simtime.of_ns (i * 300)) (fun () ->
           Tor.Qos_queue.enqueue q ~queue:(i mod 8) (pkt (flow ~sport:i ()));
           Tor.Qos_queue.enqueue q ~queue:(i * 3 mod 8)
             (pkt ~payload:1500 (flow ~sport:(1000 + i) ()));
           note ()))
  done;
  Engine.every engine (Simtime.span_ns 100) (fun () ->
      note ();
      if !delivered < 400 then `Continue else `Stop);
  Engine.run engine;
  checki "delivered" 400 !delivered;
  checki "sent" 400 (Tor.Qos_queue.packets_sent q);
  checkb "backlog built up in the QoS queues" true (!qos_backlog_max > 50);
  checki "link never queued" 0 !link_queue_max

let test_qos_priority_back_to_back () =
  let engine = Engine.create () in
  let order = ref [] in
  let link =
    Fabric.Link.create ~engine ~name:"l" ~gbps:10.0 ~latency:Simtime.span_zero
      ~deliver:(fun p -> order := sport_of p :: !order)
      ()
  in
  let q = Tor.Qos_queue.create ~classes:8 ~link in
  let enqueue queue sport = Tor.Qos_queue.enqueue q ~queue (pkt (flow ~sport ())) in
  (* One instant, back to back: the first packet takes the idle wire,
     everything after it waits for the pull. *)
  List.iter (enqueue 0) [ 0; 1; 2; 3 ];
  List.iter (enqueue 7) [ 10; 11; 12 ];
  List.iter (enqueue 3) [ 20; 21 ];
  (* Halfway through the third departure (11), a class-5 burst: it
     overtakes everything still waiting below class 7. *)
  let serialization =
    Simtime.span_of_bytes_at_rate
      ~bytes_len:(Fabric.Link.wire_bytes (pkt (flow ())))
      ~gbps:10.0
  in
  ignore
    (Engine.at engine
       (Simtime.of_ns (Simtime.span_to_ns serialization * 5 / 2))
       (fun () -> List.iter (enqueue 5) [ 30; 31 ]));
  Engine.run engine;
  Alcotest.check (Alcotest.list Alcotest.int) "departure order"
    [ 0; 10; 11; 12; 30; 31; 20; 21; 1; 2; 3 ]
    (List.rev !order)

let test_qos_no_timer_events () =
  let engine = Engine.create () in
  let link =
    Fabric.Link.create ~engine ~name:"l" ~gbps:10.0
      ~latency:(Simtime.span_us 1.0) ~deliver:ignore ()
  in
  let q = Tor.Qos_queue.create ~classes:8 ~link in
  let n = 50 in
  for i = 0 to n - 1 do
    Tor.Qos_queue.enqueue q ~queue:(i mod 8) (pkt (flow ~sport:i ()))
  done;
  Engine.run engine;
  (* One wire completion and one delivery per packet; the multiplexer
     schedules nothing of its own. *)
  checki "engine events" (2 * n) (Engine.events_processed engine);
  checki "sent" n (Tor.Qos_queue.packets_sent q)

(* --- End-to-end through a Testbed rack --- *)

let two_vm_testbed ?(config = Compute.Cost_params.baseline) () =
  let tb = Experiments.Testbed.create ~server_count:2 ~config () in
  let a =
    Experiments.Testbed.add_vm tb
      (Experiments.Testbed.vm_spec ~server:0 ~name:"a" ~ip_last_octet:1 ())
  in
  let b =
    Experiments.Testbed.add_vm tb
      (Experiments.Testbed.vm_spec ~server:1 ~name:"b" ~ip_last_octet:2 ())
  in
  (tb, a, b)

let test_software_path_delivery () =
  let tb, a, b = two_vm_testbed () in
  let got = ref 0 in
  Host.Vm.register_listener b.Host.Server.vm ~port:80 (fun _ -> incr got);
  let f =
    Fkey.make ~src_ip:(Host.Vm.ip a.Host.Server.vm)
      ~dst_ip:(Host.Vm.ip b.Host.Server.vm) ~src_port:1234 ~dst_port:80
      ~proto:Fkey.Tcp ~tenant
  in
  for _ = 1 to 5 do
    Host.Vm.send a.Host.Server.vm (pkt f)
  done;
  Experiments.Testbed.run_for tb ~seconds:0.1;
  checki "delivered via vswitch" 5 !got;
  checkb "vswitch processed them" true
    (Vswitch.Ovs.packets_sent (Host.Server.ovs tb.Experiments.Testbed.servers.(0)) >= 5);
  checki "default path is VIF" 5
    (Host.Bonding.packets_via_vif a.Host.Server.bonding)

let test_hardware_path_delivery () =
  let tb, a, b = two_vm_testbed () in
  Experiments.Testbed.force_path_vf tb a;
  let got = ref 0 in
  Host.Vm.register_listener b.Host.Server.vm ~port:80 (fun _ -> incr got);
  let f =
    Fkey.make ~src_ip:(Host.Vm.ip a.Host.Server.vm)
      ~dst_ip:(Host.Vm.ip b.Host.Server.vm) ~src_port:1234 ~dst_port:80
      ~proto:Fkey.Tcp ~tenant
  in
  for _ = 1 to 5 do
    Host.Vm.send a.Host.Server.vm (pkt f)
  done;
  Experiments.Testbed.run_for tb ~seconds:0.1;
  checki "delivered via hardware path" 5 !got;
  checki "placer sent via VF" 5 (Host.Bonding.packets_via_vf a.Host.Server.bonding);
  checki "vswitch bypassed" 0
    (Vswitch.Ovs.packets_sent (Host.Server.ovs tb.Experiments.Testbed.servers.(0)));
  (* The ToR saw and permitted the offloaded flow. *)
  checkb "tor stats recorded" true
    (List.length (Tor.Tor_switch.offloaded_flows tb.Experiments.Testbed.tor) >= 1)

let test_hardware_path_default_deny () =
  (* A malicious VM pushing traffic through the VF without installed
     rules dies at the ToR ACL (§4.1.3). *)
  let tb, a, b = two_vm_testbed () in
  (* Placer rule without the VRF install. *)
  ignore
    (Host.Bonding.install_rule a.Host.Server.bonding
       ~pattern:(Fkey.Pattern.from_vm (Host.Vm.ip a.Host.Server.vm) tenant)
       ~priority:5 Host.Bonding.Vf);
  let got = ref 0 in
  Host.Vm.register_listener b.Host.Server.vm ~port:80 (fun _ -> incr got);
  let f =
    Fkey.make ~src_ip:(Host.Vm.ip a.Host.Server.vm)
      ~dst_ip:(Host.Vm.ip b.Host.Server.vm) ~src_port:1 ~dst_port:80
      ~proto:Fkey.Tcp ~tenant
  in
  Host.Vm.send a.Host.Server.vm (pkt f);
  Experiments.Testbed.run_for tb ~seconds:0.1;
  checki "nothing delivered" 0 !got;
  checki "dropped at tor acl" 1 (Tor.Tor_switch.acl_drops tb.Experiments.Testbed.tor)

let test_vswitch_security_drop () =
  let tb = Experiments.Testbed.create ~server_count:2 () in
  let a =
    Experiments.Testbed.add_vm tb
      (Experiments.Testbed.vm_spec ~server:0 ~name:"a" ~ip_last_octet:1 ())
  in
  let b =
    Experiments.Testbed.add_vm tb
      (Experiments.Testbed.vm_spec ~server:1 ~name:"b" ~ip_last_octet:2 ())
  in
  (* Carve a deny for port 6666 above the allow-all. *)
  Rules.Policy.add_acl
    (Vswitch.Ovs.vif_policy a.Host.Server.vif)
    (Rules.Security_rule.make ~priority:9
       { Fkey.Pattern.any with Fkey.Pattern.dst_port = Some 6666 }
       Deny);
  let got = ref 0 in
  Host.Vm.register_listener b.Host.Server.vm ~port:6666 (fun _ -> incr got);
  let f =
    Fkey.make ~src_ip:(Host.Vm.ip a.Host.Server.vm)
      ~dst_ip:(Host.Vm.ip b.Host.Server.vm) ~src_port:1 ~dst_port:6666
      ~proto:Fkey.Tcp ~tenant
  in
  Host.Vm.send a.Host.Server.vm (pkt f);
  Experiments.Testbed.run_for tb ~seconds:0.1;
  checki "denied in vswitch" 0 !got;
  checki "security drop counted" 1
    (Vswitch.Ovs.security_drops (Host.Server.ovs tb.Experiments.Testbed.servers.(0)))

let test_vswitch_blocked_flow_drops () =
  let tb, a, b = two_vm_testbed () in
  let got = ref 0 in
  Host.Vm.register_listener b.Host.Server.vm ~port:80 (fun _ -> incr got);
  let f =
    Fkey.make ~src_ip:(Host.Vm.ip a.Host.Server.vm)
      ~dst_ip:(Host.Vm.ip b.Host.Server.vm) ~src_port:1 ~dst_port:80
      ~proto:Fkey.Tcp ~tenant
  in
  let ovs = Host.Server.ovs tb.Experiments.Testbed.servers.(0) in
  Vswitch.Ovs.set_flow_blocked ovs f true;
  Host.Vm.send a.Host.Server.vm (pkt f);
  Experiments.Testbed.run_for tb ~seconds:0.1;
  checki "blocked" 0 !got;
  checki "drop counted" 1 (Vswitch.Ovs.packets_dropped ovs);
  Vswitch.Ovs.set_flow_blocked ovs f false;
  Host.Vm.send a.Host.Server.vm (pkt f);
  Experiments.Testbed.run_for tb ~seconds:0.1;
  checki "unblocked flows pass" 1 !got

let test_vswitch_tunneling_path () =
  let tb, a, b = two_vm_testbed ~config:Compute.Cost_params.with_tunneling () in
  Experiments.Testbed.connect_tunnels tb;
  let got = ref 0 in
  Host.Vm.register_listener b.Host.Server.vm ~port:80 (fun _ -> incr got);
  let f =
    Fkey.make ~src_ip:(Host.Vm.ip a.Host.Server.vm)
      ~dst_ip:(Host.Vm.ip b.Host.Server.vm) ~src_port:1 ~dst_port:80
      ~proto:Fkey.Tcp ~tenant
  in
  Host.Vm.send a.Host.Server.vm (pkt f);
  Experiments.Testbed.run_for tb ~seconds:0.1;
  checki "vxlan end to end" 1 !got

let test_ovs_flow_stats () =
  let tb, a, b = two_vm_testbed () in
  Host.Vm.register_listener b.Host.Server.vm ~port:80 (fun _ -> ());
  let f =
    Fkey.make ~src_ip:(Host.Vm.ip a.Host.Server.vm)
      ~dst_ip:(Host.Vm.ip b.Host.Server.vm) ~src_port:1 ~dst_port:80
      ~proto:Fkey.Tcp ~tenant
  in
  for _ = 1 to 7 do
    Host.Vm.send a.Host.Server.vm (pkt ~payload:500 f)
  done;
  Experiments.Testbed.run_for tb ~seconds:0.1;
  let ovs = Host.Server.ovs tb.Experiments.Testbed.servers.(0) in
  match List.find_opt (fun (fl, _, _) -> Fkey.equal fl f) (Vswitch.Ovs.active_flows ovs) with
  | Some (_, packets, bytes) ->
      checki "packets" 7 packets;
      checki "bytes" 3500 bytes
  | None -> Alcotest.fail "flow stats missing"

let test_ovs_upcall_once_per_flow () =
  let tb, a, b = two_vm_testbed () in
  Host.Vm.register_listener b.Host.Server.vm ~port:80 (fun _ -> ());
  let ovs = Host.Server.ovs tb.Experiments.Testbed.servers.(0) in
  let f =
    Fkey.make ~src_ip:(Host.Vm.ip a.Host.Server.vm)
      ~dst_ip:(Host.Vm.ip b.Host.Server.vm) ~src_port:1 ~dst_port:80
      ~proto:Fkey.Tcp ~tenant
  in
  Host.Vm.send a.Host.Server.vm (pkt f);
  Experiments.Testbed.run_for tb ~seconds:0.1;
  let upcalls_after_first = Vswitch.Ovs.upcalls ovs in
  for _ = 1 to 10 do
    Host.Vm.send a.Host.Server.vm (pkt f)
  done;
  Experiments.Testbed.run_for tb ~seconds:0.1;
  checki "no further upcalls" upcalls_after_first (Vswitch.Ovs.upcalls ovs);
  (* The vhost services its queue in batches and packets of one flow in
     a batch share a single classification, so ten packets produce at
     least one cache hit, not necessarily ten. *)
  checkb "kernel hits instead" true (Vswitch.Ovs.kernel_hits ovs >= 1)

(* Regression: with the old never-invalidated verdict cache, an ACL
   added after a flow's first packet was ignored for the lifetime of
   the flow. The policy-generation check must flush the cache so the
   new rule bites on the very next packet. *)
let test_ovs_policy_change_after_first_packet () =
  let tb, a, b = two_vm_testbed () in
  let got = ref 0 in
  Host.Vm.register_listener b.Host.Server.vm ~port:80 (fun _ -> incr got);
  let f =
    Fkey.make ~src_ip:(Host.Vm.ip a.Host.Server.vm)
      ~dst_ip:(Host.Vm.ip b.Host.Server.vm) ~src_port:1 ~dst_port:80
      ~proto:Fkey.Tcp ~tenant
  in
  Host.Vm.send a.Host.Server.vm (pkt f);
  Experiments.Testbed.run_for tb ~seconds:0.1;
  checki "first packet delivered" 1 !got;
  (* Carve a deny above the allow-all after the verdict is cached. *)
  Rules.Policy.add_acl
    (Vswitch.Ovs.vif_policy a.Host.Server.vif)
    (Rules.Security_rule.make ~priority:9
       { Fkey.Pattern.any with Fkey.Pattern.dst_port = Some 80 }
       Deny);
  Host.Vm.send a.Host.Server.vm (pkt f);
  Experiments.Testbed.run_for tb ~seconds:0.1;
  checki "rule change honoured on the next packet" 1 !got;
  checki "second packet security-dropped" 1
    (Vswitch.Ovs.security_drops (Host.Server.ovs tb.Experiments.Testbed.servers.(0)))

(* Regression: block and unblock taking effect mid-run, with packets
   in flight around both transitions. *)
let test_ovs_block_unblock_midrun () =
  let tb, a, b = two_vm_testbed () in
  let engine = tb.Experiments.Testbed.engine in
  let ovs = Host.Server.ovs tb.Experiments.Testbed.servers.(0) in
  let got = ref 0 in
  Host.Vm.register_listener b.Host.Server.vm ~port:80 (fun _ -> incr got);
  let f =
    Fkey.make ~src_ip:(Host.Vm.ip a.Host.Server.vm)
      ~dst_ip:(Host.Vm.ip b.Host.Server.vm) ~src_port:1 ~dst_port:80
      ~proto:Fkey.Tcp ~tenant
  in
  let send () = Host.Vm.send a.Host.Server.vm (pkt f) in
  send ();
  ignore
    (Engine.after engine (Simtime.span_ms 10.0) (fun () ->
         Vswitch.Ovs.set_flow_blocked ovs f true;
         send ()));
  ignore
    (Engine.after engine (Simtime.span_ms 20.0) (fun () ->
         Vswitch.Ovs.set_flow_blocked ovs f false;
         send ()));
  Experiments.Testbed.run_for tb ~seconds:0.1;
  checki "packets around the blocked window delivered" 2 !got;
  checkb "blocked packet dropped" true (Vswitch.Ovs.packets_dropped ovs >= 1)

(* Ten same-flow packets queued before the engine runs coalesce into
   one vhost batch and pay exactly one upcall. *)
let test_ovs_batch_upcall_dedup () =
  let engine = Engine.create () in
  let host_pool = Compute.Cpu_pool.create ~engine ~cpus:2 ~name:"h" in
  let ovs =
    Vswitch.Ovs.create ~engine ~config:Compute.Cost_params.baseline ~host_pool
      ~server_ip:(Ipv4.of_string "192.168.1.1")
      ~transmit:(fun _ -> ())
      ()
  in
  let policy = Rules.Policy.create ~tenant ~vm_ip:(Ipv4.of_string "10.7.0.1") () in
  Rules.Policy.add_acl policy
    (Rules.Security_rule.make ~priority:5 Fkey.Pattern.any Allow);
  let vif = Vswitch.Ovs.add_vif ovs ~policy ~deliver:(fun _ -> ()) in
  let f = flow () in
  for _ = 1 to 10 do
    Vswitch.Ovs.transmit_from_vif ovs vif (pkt f)
  done;
  Engine.run engine;
  checki "one upcall for the whole batch" 1 (Vswitch.Ovs.upcalls ovs);
  checki "all packets sent" 10 (Vswitch.Ovs.packets_sent ovs)

(* --- Sriov --- *)

let test_sriov_vf_exhaustion () =
  let engine = Engine.create () in
  let host_pool = Compute.Cpu_pool.create ~engine ~cpus:2 ~name:"h" in
  let wire =
    Fabric.Link.create ~engine ~name:"w" ~gbps:10.0 ~latency:Simtime.span_zero
      ~deliver:(fun _ -> ()) ()
  in
  let nic = Nic.Sriov.create ~engine ~max_vfs:2 ~host_pool ~wire () in
  let alloc i =
    Nic.Sriov.allocate_vf nic
      ~mac:(Netcore.Mac.vm_mac ~server:0 ~vm:i)
      ~vlan:7 ~tenant
      ~vm_ip:(Ipv4.of_string (Printf.sprintf "10.7.0.%d" i))
      ~deliver:(fun _ -> ())
  in
  checkb "first" true (Result.is_ok (alloc 1));
  checkb "second" true (Result.is_ok (alloc 2));
  (match alloc 3 with
  | Error `No_vfs_left -> ()
  | Ok _ -> Alcotest.fail "VF limit not enforced");
  checki "count" 2 (Nic.Sriov.vf_count nic)

let test_sriov_steering () =
  let engine = Engine.create () in
  let host_pool = Compute.Cpu_pool.create ~engine ~cpus:2 ~name:"h" in
  let wire =
    Fabric.Link.create ~engine ~name:"w" ~gbps:10.0 ~latency:Simtime.span_zero
      ~deliver:(fun _ -> ()) ()
  in
  let nic = Nic.Sriov.create ~engine ~host_pool ~wire () in
  let got = ref 0 in
  ignore
    (Nic.Sriov.allocate_vf nic
       ~mac:(Netcore.Mac.vm_mac ~server:0 ~vm:2)
       ~vlan:7 ~tenant
       ~vm_ip:(Ipv4.of_string "10.7.0.2")
       ~deliver:(fun _ -> incr got));
  (* Correct VLAN + ip: steered. *)
  let p = pkt (flow ()) in
  Packet.push_encap p (Packet.Vlan 7);
  Nic.Sriov.receive_from_wire nic p;
  (* Wrong VLAN: dropped. *)
  let p2 = pkt (flow ()) in
  Packet.push_encap p2 (Packet.Vlan 8);
  Nic.Sriov.receive_from_wire nic p2;
  (* Untagged: dropped. *)
  Nic.Sriov.receive_from_wire nic (pkt (flow ()));
  Engine.run engine;
  checki "steered" 1 !got;
  checki "drops" 2 (Nic.Sriov.packets_dropped nic)

let test_sriov_vlan_tag_on_tx () =
  let engine = Engine.create () in
  let host_pool = Compute.Cpu_pool.create ~engine ~cpus:2 ~name:"h" in
  let tagged = ref None in
  let wire =
    Fabric.Link.create ~engine ~name:"w" ~gbps:10.0 ~latency:Simtime.span_zero
      ~deliver:(fun p -> tagged := Packet.vlan_of p)
      ()
  in
  let nic = Nic.Sriov.create ~engine ~host_pool ~wire () in
  let vf =
    Result.get_ok
      (Nic.Sriov.allocate_vf nic
         ~mac:(Netcore.Mac.vm_mac ~server:0 ~vm:1)
         ~vlan:7 ~tenant
         ~vm_ip:(Ipv4.of_string "10.7.0.1")
         ~deliver:(fun _ -> ()))
  in
  Nic.Sriov.transmit_from_vf vf (pkt (flow ()));
  Engine.run engine;
  checki "tenant vlan inserted" 7 (Option.get !tagged)

(* --- Bonding --- *)

let test_bonding_default_and_rules () =
  let via = ref [] in
  let b =
    Host.Bonding.create
      ~vif_tx:(fun _ -> via := `Vif :: !via)
      ~vf_tx:(fun _ -> via := `Vf :: !via)
  in
  let f = flow () in
  Host.Bonding.transmit b (pkt f);
  let id =
    Host.Bonding.install_rule b ~pattern:(Fkey.Pattern.exact f) ~priority:5
      Host.Bonding.Vf
  in
  Host.Bonding.transmit b (pkt f);
  checkb "path query" true (Host.Bonding.path_for b f = Host.Bonding.Vf);
  ignore (Host.Bonding.remove_rule b id);
  Host.Bonding.transmit b (pkt f);
  Alcotest.check
    (Alcotest.list (Alcotest.testable (fun ppf -> function
       | `Vif -> Format.pp_print_string ppf "vif"
       | `Vf -> Format.pp_print_string ppf "vf") ( = )))
    "vif, then vf, then vif again" [ `Vif; `Vf; `Vif ] (List.rev !via);
  checki "counters" 2 (Host.Bonding.packets_via_vif b)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    t "link delivery timing" test_link_delivery_timing;
    t "link fifo contention" test_link_fifo_contention;
    t "link wire bytes multiframe" test_link_wire_bytes_multiframe;
    t "tcam accounting" test_tcam;
    t "vrf install/permits/remove" test_vrf_install_permits;
    t "vrf tcam full atomic" test_vrf_tcam_full;
    t "vrf tunnel refcount" test_vrf_tunnel_refcount;
    QCheck_alcotest.to_alcotest prop_vrf_model;
    t "qos strict priority" test_qos_strict_priority;
    t "qos link never queues" test_qos_link_never_queues;
    t "qos priority back to back" test_qos_priority_back_to_back;
    t "qos schedules no timer" test_qos_no_timer_events;
    t "software path end-to-end" test_software_path_delivery;
    t "hardware path end-to-end" test_hardware_path_delivery;
    t "hardware path default deny" test_hardware_path_default_deny;
    t "vswitch security drop" test_vswitch_security_drop;
    t "vswitch blocked flow" test_vswitch_blocked_flow_drops;
    t "vswitch vxlan tunneling" test_vswitch_tunneling_path;
    t "ovs flow stats" test_ovs_flow_stats;
    t "ovs upcall once per flow" test_ovs_upcall_once_per_flow;
    t "ovs policy change after first packet" test_ovs_policy_change_after_first_packet;
    t "ovs block unblock midrun" test_ovs_block_unblock_midrun;
    t "ovs batch upcall dedup" test_ovs_batch_upcall_dedup;
    t "sriov vf exhaustion" test_sriov_vf_exhaustion;
    t "sriov rx steering" test_sriov_steering;
    t "sriov vlan tag on tx" test_sriov_vlan_tag_on_tx;
    t "bonding placer rules" test_bonding_default_and_rules;
  ]
