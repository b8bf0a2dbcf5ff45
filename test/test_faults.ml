(* Tests for the fault-injection subsystem (lib/faults), the unreliable
   channel mode, and the control plane's resilience under faults: the
   ack/retry protocol, dead-peer demotion, reconciliation after random
   fault schedules, and the VM-migration abort path. *)

module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Rng = Dcsim.Rng
module Fkey = Netcore.Fkey
module Schedule = Faults.Schedule
module Injector = Faults.Injector

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let tenant = Netcore.Tenant.of_int 7

(* --- Schedule syntax --- *)

let test_schedule_parse () =
  match Schedule.of_string "drop=0.1,dup=0.05,jitter_us=250,down=1:2,dropnext=0.5:3" with
  | Error e -> Alcotest.fail e
  | Ok s ->
      checkb "drop" true (s.Schedule.drop = 0.1);
      checkb "dup" true (s.Schedule.duplicate = 0.05);
      checkb "jitter" true (Simtime.span_to_us s.Schedule.jitter = 250.0);
      checki "windows" 1 (List.length s.Schedule.windows);
      checki "triggers" 1 (List.length s.Schedule.triggers);
      checkb "not none" true (not (Schedule.is_none s))

let test_schedule_rejects () =
  let bad spec = checkb spec true (Result.is_error (Schedule.of_string spec)) in
  bad "drop=2";
  bad "drop=-0.1";
  bad "nonsense";
  bad "martian=1";
  bad "down=2:1";
  bad "dropnext=1:0"

let test_schedule_roundtrip () =
  List.iter
    (fun spec ->
      match Schedule.of_string spec with
      | Error e -> Alcotest.fail e
      | Ok s -> (
          let rendered = Schedule.to_string s in
          match Schedule.of_string rendered with
          | Error e -> Alcotest.fail e
          | Ok s' -> checks spec rendered (Schedule.to_string s')))
    [
      "drop=0.1";
      "drop=0.05,dup=0.01,reorder=0.02,jitter_us=200";
      "drop=0.1,down=1:1.3,dropnext=0.5:3";
    ];
  checks "none renders" "none" (Schedule.to_string Schedule.none)

(* Property: to_string is a fixpoint under of_string for any schedule —
   whatever combination of dimensions is set, the canonical rendering
   re-parses to a schedule that renders identically. Values are drawn
   from a Dcsim.Rng stream so each case is a pure function of its
   QCheck seed; millisecond/percent granularity keeps the printed
   floats exact. *)
let prop_schedule_roundtrip =
  let schedule_of_seed seed =
    let rng = Rng.create ~seed in
    let pct () = float_of_int (Rng.int rng 101) /. 100.0 in
    let windows =
      List.init (Rng.int rng 3) (fun _ ->
          let from_s = float_of_int (Rng.int rng 2000) /. 1000.0 in
          let width = float_of_int (1 + Rng.int rng 2000) /. 1000.0 in
          {
            Schedule.down_from = Simtime.of_sec from_s;
            down_until = Simtime.of_sec (from_s +. width);
          })
    in
    let triggers =
      List.init (Rng.int rng 3) (fun _ ->
          {
            Schedule.fire_at =
              Simtime.of_sec (float_of_int (Rng.int rng 3000) /. 1000.0);
            drop_next = 1 + Rng.int rng 9;
          })
    in
    {
      (* At least 1% drop so the schedule is never [none] — "none"
         is profile vocabulary, not of_string syntax. *)
      Schedule.drop = float_of_int (1 + Rng.int rng 100) /. 100.0;
      duplicate = pct ();
      reorder = pct ();
      jitter = Simtime.span_us (float_of_int (Rng.int rng 1000));
      windows;
      triggers;
      tcam_install_fail = pct ();
      tcam_soft_error = pct ();
    }
  in
  QCheck.Test.make ~count:100 ~name:"schedule to_string/of_string round-trip"
    (QCheck.int_range 0 100_000)
    (fun seed ->
      let s = schedule_of_seed seed in
      let rendered = Schedule.to_string s in
      match Schedule.of_string rendered with
      | Error e -> QCheck.Test.fail_reportf "%S failed to re-parse: %s" rendered e
      | Ok s' ->
          let rerendered = Schedule.to_string s' in
          if rerendered <> rendered then
            QCheck.Test.fail_reportf "not a fixpoint: %S re-rendered as %S"
              rendered rerendered;
          true)

let test_schedule_profiles () =
  checkb "none is none" true
    (match Schedule.profile "none" with Ok s -> Schedule.is_none s | Error _ -> false);
  List.iter
    (fun name ->
      checkb name true
        (match Schedule.profile name with
        | Ok s -> not (Schedule.is_none s)
        | Error _ -> false))
    [ "lossy"; "chaos"; "smoke" ];
  (* Unknown names fall through to the spec parser. *)
  checkb "spec fallthrough" true (Result.is_ok (Schedule.profile "drop=0.5"));
  checkb "garbage rejected" true (Result.is_error (Schedule.profile "martian"))

(* --- Injector draws --- *)

let verdict_tag = function
  | Injector.Drop -> "drop"
  | Injector.Deliver { extra_delay; in_order; duplicate_delay } ->
      Printf.sprintf "deliver(%d,%b,%s)"
        (Simtime.span_to_ns extra_delay)
        in_order
        (match duplicate_delay with
        | None -> "-"
        | Some d -> string_of_int (Simtime.span_to_ns d))

let test_injector_deterministic () =
  let draw_sequence () =
    let inj =
      Injector.create
        ~schedule:(Schedule.lossy ())
        ~rng:(Rng.create ~seed:99)
    in
    List.map
      (fun i -> verdict_tag (Injector.decide inj ~now:(Simtime.of_sec (float_of_int i))))
      (List.init 50 Fun.id)
  in
  checkb "same seed, same faults" true (draw_sequence () = draw_sequence ())

let test_injector_window () =
  let sched =
    match Schedule.of_string "down=1:2" with Ok s -> s | Error e -> Alcotest.fail e
  in
  let inj = Injector.create ~schedule:sched ~rng:(Rng.create ~seed:1) in
  checkb "before window" true
    (Injector.decide inj ~now:(Simtime.of_sec 0.5) <> Injector.Drop);
  checkb "inside window" true
    (Injector.decide inj ~now:(Simtime.of_sec 1.5) = Injector.Drop);
  checkb "after window" true
    (Injector.decide inj ~now:(Simtime.of_sec 2.5) <> Injector.Drop);
  checki "drops counted" 1 (Injector.drops inj)

let test_injector_trigger () =
  let sched =
    match Schedule.of_string "dropnext=1:2" with Ok s -> s | Error e -> Alcotest.fail e
  in
  let inj = Injector.create ~schedule:sched ~rng:(Rng.create ~seed:1) in
  checkb "before trigger" true
    (Injector.decide inj ~now:(Simtime.of_sec 0.5) <> Injector.Drop);
  checkb "armed 1st" true (Injector.decide inj ~now:(Simtime.of_sec 1.1) = Injector.Drop);
  checkb "armed 2nd" true (Injector.decide inj ~now:(Simtime.of_sec 1.2) = Injector.Drop);
  checkb "exhausted" true (Injector.decide inj ~now:(Simtime.of_sec 1.3) <> Injector.Drop)

(* --- Channel unreliable mode --- *)

let lossy_channel ~schedule_spec ~seed =
  let engine = Engine.create ~seed () in
  let sched =
    match Schedule.of_string schedule_spec with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let inj = Injector.create ~schedule:sched ~rng:(Rng.create ~seed) in
  let received = ref [] in
  let chan =
    Openflow.Channel.create ~name:"test" ~faults:inj ~engine
      ~latency:(Simtime.span_us 200.0)
      ~handler:(fun m -> received := m :: !received)
      ()
  in
  (engine, chan, received)

let test_channel_drops_all () =
  let engine, chan, received = lossy_channel ~schedule_spec:"drop=1" ~seed:3 in
  Openflow.Channel.send chan "m1";
  Openflow.Channel.send chan "m2";
  Engine.run engine;
  checki "all dropped" 0 (List.length !received);
  checki "sends counted" 2 (Openflow.Channel.messages_sent chan)

let test_channel_duplicates () =
  let engine, chan, received = lossy_channel ~schedule_spec:"dup=1" ~seed:3 in
  Openflow.Channel.send chan "m";
  Engine.run engine;
  checki "delivered twice" 2 (List.length !received)

let test_channel_jitter_delivers_everything () =
  let engine, chan, received =
    lossy_channel ~schedule_spec:"reorder=0.5,jitter_us=400" ~seed:7
  in
  for i = 1 to 20 do
    Openflow.Channel.send chan i
  done;
  Engine.run engine;
  checki "nothing lost" 20 (List.length !received)

(* --- Local controller: idempotent sequenced application --- *)

let test_latest_seq_wins () =
  let tb = Experiments.Testbed.create ~server_count:2 () in
  let a =
    Experiments.Testbed.add_vm tb
      (Experiments.Testbed.vm_spec ~server:0 ~name:"a" ~ip_last_octet:1 ())
  in
  let b =
    Experiments.Testbed.add_vm tb
      (Experiments.Testbed.vm_spec ~server:1 ~name:"b" ~ip_last_octet:2 ())
  in
  Experiments.Testbed.connect_tunnels tb;
  let local =
    Fastrak.Local_controller.create ~engine:tb.Experiments.Testbed.engine
      ~config:Fastrak.Config.default ~server:tb.Experiments.Testbed.servers.(0)
  in
  let acks = ref [] in
  Fastrak.Local_controller.set_uplink local (function
    | Fastrak.Local_controller.Ack { seq; _ } -> acks := seq :: !acks
    | Fastrak.Local_controller.Report _ | Fastrak.Local_controller.Resync _ ->
        ());
  let a_ip = Host.Vm.ip a.Host.Server.vm in
  let flow =
    Fkey.make ~src_ip:a_ip
      ~dst_ip:(Host.Vm.ip b.Host.Server.vm)
      ~src_port:1234 ~dst_port:80 ~proto:Fkey.Tcp ~tenant
  in
  let pattern = Fkey.Pattern.src_aggregate flow in
  let offloaded () = List.length (Fastrak.Local_controller.offloaded_patterns local) in
  let apply seq directive =
    Fastrak.Local_controller.handle_sequenced local
      { Fastrak.Local_controller.seq; directive }
  in
  apply 5 (Fastrak.Local_controller.Offload { vm_ip = a_ip; pattern });
  checki "offload applied" 1 (offloaded ());
  (* A reordered stale demote must not override the newer offload. *)
  apply 3 (Fastrak.Local_controller.Demote { vm_ip = a_ip; pattern });
  checki "stale demote ignored" 1 (offloaded ());
  (* Re-delivered duplicate: a no-op, but still acked. *)
  apply 5 (Fastrak.Local_controller.Offload { vm_ip = a_ip; pattern });
  checki "duplicate idempotent" 1 (offloaded ());
  apply 7 (Fastrak.Local_controller.Demote { vm_ip = a_ip; pattern });
  checki "newer demote applied" 0 (offloaded ());
  checkb "every delivery acked" true (List.rev !acks = [ 5; 3; 5; 7 ])

(* --- TCAM reserve-failure counter --- *)

let counter name =
  match Obs.Metrics.find name with
  | Some (Obs.Metrics.Counter_v n) -> n
  | _ -> 0

let test_tcam_reserve_fail_counter () =
  let before = counter "fastrak.tcam.reserve_fail" in
  let tcam = Tor.Tcam.create ~capacity:2 in
  checkb "reserve ok" true (Tor.Tcam.reserve tcam 2);
  checkb "reserve fails" false (Tor.Tcam.reserve tcam 1);
  checki "counter bumped" (before + 1) (counter "fastrak.tcam.reserve_fail")

(* --- Control plane under faults --- *)

let fast_config =
  {
    Fastrak.Config.default with
    Fastrak.Config.epoch_period = Simtime.span_ms 100.0;
    poll_gap = Simtime.span_ms 40.0;
    min_score = 100.0;
  }

(* One hot transactional client (server0 -> server1) under a FasTrak
   control plane whose channels run the given fault schedule. *)
let faulty_testbed ?(config = fast_config) ?(tcam_capacity = 2048) ~seed ~faults () =
  let tb = Experiments.Testbed.create ~seed ~server_count:2 ~tcam_capacity () in
  let a =
    Experiments.Testbed.add_vm tb
      (Experiments.Testbed.vm_spec ~server:0 ~name:"hot" ~ip_last_octet:1 ())
  in
  let b =
    Experiments.Testbed.add_vm tb
      (Experiments.Testbed.vm_spec ~server:1 ~name:"sink" ~ip_last_octet:2 ())
  in
  Experiments.Testbed.connect_tunnels tb;
  let rm =
    Fastrak.Rule_manager.create ~engine:tb.Experiments.Testbed.engine ~config
      ~tor:tb.Experiments.Testbed.tor
      ~servers:(Array.to_list tb.Experiments.Testbed.servers)
      ~faults ()
  in
  Workloads.Transactions.Server.install ~vm:b.Host.Server.vm ~port:9000
    ~response_size:64 ();
  let client =
    Workloads.Transactions.Client.start ~engine:tb.Experiments.Testbed.engine
      ~vm:a.Host.Server.vm
      {
        Workloads.Transactions.Client.servers = [ (Host.Vm.ip b.Host.Server.vm, 9000) ];
        connections = 1;
        outstanding = 8;
        request_size = 64;
        total_requests = None;
        src_port_base = 50_000;
      }
  in
  (tb, a, b, rm, client)

let views_reconcile tb rm =
  let tor_view =
    Fastrak.Tor_controller.offloaded_patterns (Fastrak.Rule_manager.tor_controller rm)
  in
  let local_view =
    List.concat_map
      (fun server ->
        match
          Fastrak.Rule_manager.local_controller rm ~server:(Host.Server.name server)
        with
        | Some local -> Fastrak.Local_controller.offloaded_patterns local
        | None -> [])
      (Array.to_list tb.Experiments.Testbed.servers)
  in
  let subset xs ys =
    List.for_all (fun x -> List.exists (Fkey.Pattern.equal x) ys) xs
  in
  subset tor_view local_view && subset local_view tor_view

(* Property: after ANY random fault schedule, once the load quiesces
   the TOR-side and server-side offloaded views reconcile, nothing is
   left unacked, and TCAM occupancy never exceeded capacity. *)
let prop_reconcile_after_faults =
  QCheck.Test.make ~count:5 ~name:"views reconcile after random fault schedule"
    (QCheck.int_range 0 10_000)
    (fun seed ->
      (* The schedule itself is drawn from a Dcsim.Rng stream, so the
         whole case is a pure function of [seed]. *)
      let rng = Rng.create ~seed in
      let sched =
        Schedule.lossy
          ~drop:(Rng.float rng 0.25)
          ~duplicate:(Rng.float rng 0.10)
          ~reorder:(Rng.float rng 0.10)
          ~jitter:(Simtime.span_us (Rng.float rng 500.0))
          ()
      in
      (* A small TCAM keeps capacity pressure on while faults churn the
         rule set. *)
      let tb, _, _, rm, client =
        faulty_testbed ~seed ~tcam_capacity:24 ~faults:sched ()
      in
      let tcam = Tor.Tor_switch.tcam tb.Experiments.Testbed.tor in
      let over_capacity = ref false in
      Engine.every tb.Experiments.Testbed.engine (Simtime.span_ms 10.0) (fun () ->
          if Tor.Tcam.used tcam > Tor.Tcam.capacity tcam then over_capacity := true;
          `Continue);
      Fastrak.Rule_manager.start rm;
      Experiments.Testbed.run_for tb ~seconds:3.0;
      Workloads.Transactions.Client.stop client;
      Experiments.Testbed.run_for tb ~seconds:3.0;
      let unacked =
        Fastrak.Tor_controller.unacked_directives
          (Fastrak.Rule_manager.tor_controller rm)
      in
      if !over_capacity then QCheck.Test.fail_report "TCAM exceeded capacity";
      if unacked <> 0 then
        QCheck.Test.fail_reportf "%d directives still unacked after drain" unacked;
      if not (views_reconcile tb rm) then
        QCheck.Test.fail_report "TOR and server views diverged";
      true)

(* A long link-down window: directives exhaust their retries, the peer
   is declared dead and its flows demoted (graceful degradation); when
   the link heals, uplink contact revives the peer, unreconciled
   demotes replay, and the system re-offloads and reconciles. *)
let test_dead_peer_demotes_and_revives () =
  let sched =
    match Schedule.of_string "down=0.3:2.0" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let config = { fast_config with Fastrak.Config.dead_peer_failures = 1 } in
  let tb, _, _, rm, _ = faulty_testbed ~config ~seed:42 ~faults:sched () in
  let deaths = ref 0 and revivals = ref 0 and retries = ref 0 in
  Obs.Trace.use_callback (fun _now ev ->
      match ev with
      | Obs.Trace.Peer_state { alive = false; _ } -> incr deaths
      | Obs.Trace.Peer_state { alive = true; _ } -> incr revivals
      | Obs.Trace.Ctrl_retry _ -> incr retries
      | _ -> ());
  Fastrak.Rule_manager.start rm;
  Experiments.Testbed.run_for tb ~seconds:1.5;
  (* Mid-window: the offload directive has exhausted its retries. *)
  checkb "retried during window" true (!retries > 0);
  checkb "peer declared dead" true (!deaths > 0);
  checkb "dead verdict visible" true
    (Fastrak.Tor_controller.peer_alive
       (Fastrak.Rule_manager.tor_controller rm)
       ~server:"server0"
    = Some false);
  Experiments.Testbed.run_for tb ~seconds:3.0;
  Obs.Trace.disable ();
  (* Healed: contact revived the peer and the express lane is back. *)
  checkb "peer revived" true (!revivals > 0);
  checkb "alive verdict visible" true
    (Fastrak.Tor_controller.peer_alive
       (Fastrak.Rule_manager.tor_controller rm)
       ~server:"server0"
    = Some true);
  checkb "re-offloaded after heal" true (Fastrak.Rule_manager.offloaded_count rm > 0);
  checkb "views reconciled" true (views_reconcile tb rm);
  checki "nothing unacked" 0
    (Fastrak.Tor_controller.unacked_directives
       (Fastrak.Rule_manager.tor_controller rm))

(* An exhausted demote waiting for replay is not in flight. With the
   decision loop stopped and the control link down, a demote of the
   hot VM's offloads exhausts its retries: the local controller still
   steers the aggregate to the VF after its VRF rules are gone. The
   fabric-chaos reconciliation check leaves the aggregate out only
   while the demote is on the wire, and reports the divergence once
   it is waiting for replay. *)
let test_exhausted_demote_not_reconciled () =
  let sched =
    match Schedule.of_string "down=1.0:5.0" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let tb, a, _, rm, _ = faulty_testbed ~seed:42 ~faults:sched () in
  let tc = Fastrak.Rule_manager.tor_controller rm in
  let reconciled () =
    Experiments.Fabric_chaos.views_reconciled rm tb.Experiments.Testbed.servers
  in
  Fastrak.Rule_manager.start rm;
  Experiments.Testbed.run_for tb ~seconds:0.9;
  Fastrak.Rule_manager.stop rm;
  checkb "offloaded before the outage" true (Fastrak.Rule_manager.offloaded_count rm > 0);
  checkb "reconciled before the outage" true (reconciled ());
  Experiments.Testbed.run_for tb ~seconds:0.2;
  let demoted =
    Fastrak.Tor_controller.demote_all_for_vm tc ~vm_ip:(Host.Vm.ip a.Host.Server.vm)
  in
  checkb "demoted" true (demoted <> []);
  Experiments.Testbed.run_for tb ~seconds:0.1;
  checkb "demote on the wire" true (Fastrak.Tor_controller.in_flight_patterns tc <> []);
  checkb "in-flight demote left out" true (reconciled ());
  Experiments.Testbed.run_for tb ~seconds:1.5;
  checki "nothing on the wire" 0
    (List.length (Fastrak.Tor_controller.in_flight_patterns tc));
  checkb "exhausted demote unacked" true
    (Fastrak.Tor_controller.unacked_directives tc > 0);
  checkb "exhausted demote not reconciled" false (reconciled ())

(* --- VM migration abort --- *)

let test_migration_abort () =
  let config =
    { fast_config with Fastrak.Config.migration_timeout = Simtime.span_ms 200.0 }
  in
  let tb, a, _, rm, _ = faulty_testbed ~config ~seed:42 ~faults:Schedule.none () in
  Fastrak.Rule_manager.start rm;
  Experiments.Testbed.run_for tb ~seconds:1.5;
  checkb "offloaded before migration" true (Fastrak.Rule_manager.offloaded_count rm > 0);
  let a_ip = Host.Vm.ip a.Host.Server.vm in
  let local = Option.get (Fastrak.Rule_manager.local_controller rm ~server:"server0") in
  let mg = Fastrak.Rule_manager.begin_vm_migration rm ~tenant ~vm_ip:a_ip in
  checkb "preparing" true (Fastrak.Rule_manager.migration_state mg = `Preparing);
  checkb "profile detached" true
    (match Fastrak.Rule_manager.migration_profile mg with
    | Some p -> Fastrak.Demand_profile.entry_count p > 0
    | None -> false);
  checkb "vm's rules returned" true
    (List.for_all
       (fun (p : Fkey.Pattern.t) -> p.Fkey.Pattern.src_ip <> Some a_ip)
       (Fastrak.Tor_controller.offloaded_patterns
          (Fastrak.Rule_manager.tor_controller rm)));
  (* The destination never confirms: the abort timer fires at 200 ms. *)
  Experiments.Testbed.run_for tb ~seconds:0.5;
  checkb "aborted" true (Fastrak.Rule_manager.migration_state mg = `Aborted);
  (* The demand profile is back at the source — not lost. *)
  checkb "profile restored at source" true
    (match Fastrak.Local_controller.profile local ~vm_ip:a_ip with
    | Some p -> Fastrak.Demand_profile.entry_count p > 0
    | None -> false);
  (* And the returned rules are re-installed in the express lane. *)
  checkb "rules re-installed" true
    (List.exists
       (fun (p : Fkey.Pattern.t) -> p.Fkey.Pattern.src_ip = Some a_ip)
       (Fastrak.Tor_controller.offloaded_patterns
          (Fastrak.Rule_manager.tor_controller rm)));
  (* A late confirmation is refused cleanly. *)
  checkb "late commit refused" false
    (Fastrak.Rule_manager.commit_vm_migration rm mg ~new_server:"server1")

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    t "schedule parse" test_schedule_parse;
    t "schedule rejects bad specs" test_schedule_rejects;
    t "schedule round-trips" test_schedule_roundtrip;
    QCheck_alcotest.to_alcotest prop_schedule_roundtrip;
    t "schedule profiles" test_schedule_profiles;
    t "injector deterministic" test_injector_deterministic;
    t "injector link-down window" test_injector_window;
    t "injector one-shot trigger" test_injector_trigger;
    t "channel drops all" test_channel_drops_all;
    t "channel duplicates" test_channel_duplicates;
    t "channel jitter loses nothing" test_channel_jitter_delivers_everything;
    t "latest seq wins" test_latest_seq_wins;
    t "tcam reserve_fail counter" test_tcam_reserve_fail_counter;
    QCheck_alcotest.to_alcotest prop_reconcile_after_faults;
    t "dead peer demotes and revives" test_dead_peer_demotes_and_revives;
    t "exhausted demote is not reconciled" test_exhausted_demote_not_reconciled;
    t "migration abort restores source" test_migration_abort;
  ]
