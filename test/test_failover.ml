(* Tests for the data-plane failure domains: TCAM entry accounting
   under failed installs, express-lane failover and re-promotion
   hysteresis, local-controller crash recovery, the anti-entropy audit
   sweep, and a recovery-convergence property over random link-down
   schedules (driven through the fabric-chaos experiment, which is the
   smallest thing that owns a real express lane). *)

module Simtime = Dcsim.Simtime
module Fkey = Netcore.Fkey
module Fabric_chaos = Experiments.Fabric_chaos
module Testbed = Experiments.Testbed

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let counter name =
  match Obs.Metrics.find name with
  | Some (Obs.Metrics.Counter_v n) -> n
  | _ -> 0

(* --- TCAM entry accounting --- *)

let test_tcam_over_release () =
  let tcam = Tor.Tcam.create ~capacity:4 in
  checkb "reserve" true (Tor.Tcam.reserve tcam 3);
  Tor.Tcam.release tcam 2;
  checki "one left" 1 (Tor.Tcam.used tcam);
  checkb "over-release raises" true
    (try
       Tor.Tcam.release tcam 2;
       false
     with Invalid_argument _ -> true);
  (* The failed release must not have clobbered the count. *)
  checki "count intact" 1 (Tor.Tcam.used tcam)

(* A compiled single-destination rule set for [a] -> [b], as the
   controller and the static provisioning both build. *)
let compiled_for (a : Host.Server.attached) (b : Host.Server.attached) =
  let tenant = Host.Vm.tenant a.Host.Server.vm in
  let ip_a = Host.Vm.ip a.Host.Server.vm
  and ip_b = Host.Vm.ip b.Host.Server.vm in
  let selection =
    { (Fkey.Pattern.from_vm ip_a tenant) with Fkey.Pattern.dst_ip = Some ip_b }
  in
  match
    Rules.Rule_compiler.compile
      ~policy:(Vswitch.Ovs.vif_policy a.Host.Server.vif)
      ~selection ~destinations:[ ip_b ]
  with
  | Ok compiled -> compiled
  | Error e ->
      Alcotest.fail
        (Format.asprintf "compile: %a" Rules.Rule_compiler.pp_error e)

let two_vm_testbed ?tcam_capacity () =
  let tb = Testbed.create ~server_count:2 ?tcam_capacity () in
  let a =
    Testbed.add_vm tb (Testbed.vm_spec ~server:0 ~name:"a" ~ip_last_octet:1 ())
  in
  let b =
    Testbed.add_vm tb (Testbed.vm_spec ~server:1 ~name:"b" ~ip_last_octet:2 ())
  in
  Testbed.connect_tunnels tb;
  (tb, a, b)

(* A failed install — TCAM full or injected install fault — must be
   atomic: no entries consumed, so the demote-after-failed-install path
   has nothing to roll back and can never double-release. *)
let test_failed_install_releases_nothing () =
  (* Capacity 0: every install fails with `Tcam_full. *)
  let tb, a, b = two_vm_testbed ~tcam_capacity:0 () in
  let tenant = Host.Vm.tenant a.Host.Server.vm in
  let vrf = Tor.Tor_switch.vrf tb.Testbed.tor tenant in
  let tcam = Tor.Tor_switch.tcam tb.Testbed.tor in
  let compiled = compiled_for a b in
  for _ = 1 to 5 do
    checkb "tcam full" true (Tor.Vrf.install vrf compiled = Error `Tcam_full)
  done;
  checki "nothing consumed" 0 (Tor.Tcam.used tcam);
  (* Injected install faults on a roomy TCAM: same atomicity. *)
  let tb, a, b = two_vm_testbed () in
  let tenant = Host.Vm.tenant a.Host.Server.vm in
  let vrf = Tor.Tor_switch.vrf tb.Testbed.tor tenant in
  let tcam = Tor.Tor_switch.tcam tb.Testbed.tor in
  let compiled = compiled_for a b in
  Tor.Vrf.set_install_fault vrf (Some (fun () -> true));
  for _ = 1 to 5 do
    checkb "install fault" true (Tor.Vrf.install vrf compiled = Error `Install_fault)
  done;
  checki "nothing consumed either" 0 (Tor.Tcam.used tcam);
  (* Healthy path: install, then remove twice — the second remove is an
     idempotent no-op, not a double-release. *)
  Tor.Vrf.set_install_fault vrf None;
  let h =
    match Tor.Vrf.install vrf compiled with
    | Ok h -> h
    | Error _ -> Alcotest.fail "healthy install refused"
  in
  checkb "entries consumed" true (Tor.Tcam.used tcam > 0);
  Tor.Vrf.remove vrf h;
  checki "entries returned" 0 (Tor.Tcam.used tcam);
  Tor.Vrf.remove vrf h;
  checki "remove idempotent" 0 (Tor.Tcam.used tcam)

(* --- Anti-entropy audit --- *)

let fast_config =
  {
    Fastrak.Config.default with
    Fastrak.Config.epoch_period = Simtime.span_ms 100.0;
    poll_gap = Simtime.span_ms 40.0;
    min_score = 100.0;
  }

(* One offload-bearing rack under load: a transactional client hot
   enough for the decision loop to offload within ~1.5 s. *)
let offloaded_rack () =
  let tb, a, b = two_vm_testbed () in
  let rm =
    Fastrak.Rule_manager.create ~engine:tb.Testbed.engine ~config:fast_config
      ~tor:tb.Testbed.tor
      ~servers:(Array.to_list tb.Testbed.servers)
      ()
  in
  Workloads.Transactions.Server.install ~vm:b.Host.Server.vm ~port:9000
    ~response_size:64 ();
  let _client =
    Workloads.Transactions.Client.start ~engine:tb.Testbed.engine
      ~vm:a.Host.Server.vm
      {
        Workloads.Transactions.Client.servers =
          [ (Host.Vm.ip b.Host.Server.vm, 9000) ];
        connections = 1;
        outstanding = 8;
        request_size = 64;
        total_requests = None;
        src_port_base = 50_000;
      }
  in
  Fastrak.Rule_manager.start rm;
  Testbed.run_for tb ~seconds:1.5;
  (tb, a, b, rm)

(* The audit reinstalls managed intent whose TCAM entries were lost to
   a soft error, and never touches entries it did not install (static
   pins). *)
let test_audit_repairs_and_spares_statics () =
  let tb, a, b, rm = offloaded_rack () in
  let tc = Fastrak.Rule_manager.tor_controller rm in
  let n0 = Fastrak.Tor_controller.offloaded_count tc in
  checkb "something offloaded" true (n0 > 0);
  let tenant = Host.Vm.tenant a.Host.Server.vm in
  let vrf = Tor.Tor_switch.vrf tb.Testbed.tor tenant in
  (* Every live handle so far is controller-installed. *)
  let managed = Tor.Vrf.live_handles vrf in
  checkb "managed entries live" true (managed <> []);
  (* A static pin the controller knows nothing about. *)
  let hs =
    match Tor.Vrf.install vrf (compiled_for b a) with
    | Ok h -> h
    | Error _ -> Alcotest.fail "static install refused"
  in
  let live0 = Tor.Vrf.installed_count vrf in
  (* Soft-error one managed entry: rules vanish, intent does not. *)
  let m = List.hd managed in
  Tor.Vrf.remove vrf m;
  checkb "entry lost" false (Tor.Vrf.is_live vrf m);
  let reinstalls0 = counter "fastrak.audit.reinstalls" in
  let orphans0 = counter "fastrak.audit.orphans_removed" in
  Fastrak.Tor_controller.audit_tcam tc;
  checkb "lost entry reinstalled" true
    (counter "fastrak.audit.reinstalls" > reinstalls0);
  checki "hardware view restored" live0 (Tor.Vrf.installed_count vrf);
  checki "intent unchanged" n0 (Fastrak.Tor_controller.offloaded_count tc);
  checkb "static pin untouched" true (Tor.Vrf.is_live vrf hs);
  checki "static not treated as orphan" orphans0
    (counter "fastrak.audit.orphans_removed")

(* --- Express-lane failover, end to end --- *)

(* Run fabric-chaos on a fixed 2-rack ring under a given schedule. *)
let chaos_run ~spec ?(crash = false) () =
  let cfg =
    {
      Fabric_chaos.default_config with
      Fabric_chaos.racks = 2;
      crash_at = (if crash then 2.0 else -1.0);
      restart_at = 2.3;
      schedule = spec;
    }
  in
  Fabric_chaos.run ~config:cfg ()

(* A single clean outage window: every lane goes down exactly once and
   comes back exactly once (no flapping), every demoted aggregate is
   re-promoted, and the recovery-time summary sees the outage. *)
let test_lane_failover_hysteresis () =
  let r = chaos_run ~spec:"down=1:1.6" () in
  checkb "delivered" true (r.Fabric_chaos.express_acked > 0);
  checki "each lane down once" r.Fabric_chaos.lanes_total r.Fabric_chaos.lane_downs;
  checki "each lane healed once" r.Fabric_chaos.lanes_total r.Fabric_chaos.lane_ups;
  checkb "flows demoted" true (r.Fabric_chaos.failover_demotions > 0);
  checki "every demotion re-promoted" r.Fabric_chaos.failover_demotions
    r.Fabric_chaos.repromotions;
  checki "one recovery per heal" r.Fabric_chaos.lane_ups r.Fabric_chaos.recovery_count;
  checkb "recovery time ~ outage width" true
    (r.Fabric_chaos.recovery_mean_s > 0.5 && r.Fabric_chaos.recovery_mean_s < 0.9);
  checki "all lanes up at end" r.Fabric_chaos.lanes_total
    r.Fabric_chaos.lanes_up_at_end;
  checkb "views reconciled" true r.Fabric_chaos.reconciled;
  checki "nothing blackholed" 0 r.Fabric_chaos.no_route_drops

(* Controller crash mid-run on an otherwise healthy fabric: the
   restart resyncs against the TOR controller and the views converge. *)
let test_crash_restart_reconciles () =
  let r = chaos_run ~spec:"none" ~crash:true () in
  Alcotest.check Alcotest.string "crash recovered" "recovered"
    r.Fabric_chaos.crash_outcome;
  checkb "restart resynced" true (r.Fabric_chaos.resyncs >= 1);
  checkb "delivered" true (r.Fabric_chaos.express_acked > 0);
  checkb "views reconciled" true r.Fabric_chaos.reconciled;
  checki "nothing blackholed" 0 r.Fabric_chaos.no_route_drops

(* Rings of 40 racks and up end with an anti-entropy demote pushed
   200 us before the run stops; the reconciliation check must not count
   that in-flight directive as a divergence. *)
let test_large_ring_reconciles () =
  let r =
    Fabric_chaos.run
      ~config:{ Fabric_chaos.default_config with Fabric_chaos.racks = 40 }
      ()
  in
  checki "all lanes up at end" r.Fabric_chaos.lanes_total
    r.Fabric_chaos.lanes_up_at_end;
  checkb "views reconciled" true r.Fabric_chaos.reconciled

(* Property: under ANY random link-down window that closes before the
   load stops, the system converges — every lane heals, delivery
   resumes, the TOR-side and server-side offload views reconcile, and
   nothing is left routeless. *)
let prop_recovery_after_random_outage =
  QCheck.Test.make ~count:4 ~name:"recovery after random link-down schedule"
    (QCheck.pair (QCheck.int_range 0 1000) (QCheck.int_range 0 1000))
    (fun (a, b) ->
      let from_s = 0.3 +. (float_of_int a /. 1000.0 *. 1.2) in
      let width = 0.1 +. (float_of_int b /. 1000.0 *. 0.7) in
      let spec = Printf.sprintf "down=%.3f:%.3f" from_s (from_s +. width) in
      let r = chaos_run ~spec () in
      if r.Fabric_chaos.express_acked = 0 then
        QCheck.Test.fail_reportf "%s: no delivery at all" spec;
      if r.Fabric_chaos.lanes_up_at_end <> r.Fabric_chaos.lanes_total then
        QCheck.Test.fail_reportf "%s: %d/%d lanes still down after heal" spec
          (r.Fabric_chaos.lanes_total - r.Fabric_chaos.lanes_up_at_end)
          r.Fabric_chaos.lanes_total;
      if not r.Fabric_chaos.reconciled then
        QCheck.Test.fail_reportf "%s: offload views diverged" spec;
      if r.Fabric_chaos.no_route_drops <> 0 then
        QCheck.Test.fail_reportf "%s: %d packets blackholed" spec
          r.Fabric_chaos.no_route_drops;
      true)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    t "tcam over-release raises" test_tcam_over_release;
    t "failed install releases nothing" test_failed_install_releases_nothing;
    t "audit repairs losses, spares statics" test_audit_repairs_and_spares_statics;
    t "lane failover with hysteresis" test_lane_failover_hysteresis;
    t "crash restart reconciles" test_crash_restart_reconciles;
    t "40-rack fabric-chaos reconciles" test_large_ring_reconciles;
    QCheck_alcotest.to_alcotest prop_recovery_after_random_outage;
  ]
