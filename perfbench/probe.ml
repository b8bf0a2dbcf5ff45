(* One benchmark run in one process: build a workload through the
   experiments' public entry points, run it, and print one JSON object
   with host timings, simulated statistics, a digest of those
   statistics, and the invariant checks. run.py starts a fresh process
   per run because top_heap_words, Obs.Metrics, Obs.Slo and the packet
   uid counter are process-global.

   Usage: probe.exe (soak|table4|dcscale) (run|traced|setup|replay) SEED *)

open Experiments
module Simtime = Dcsim.Simtime
module Metrics = Obs.Metrics

(* ---- Pinned workload parameters ----

   Every global a workload reads is set here explicitly and echoed in
   the output, so a default changed in lib/ or the CLI cannot move the
   benchmark silently. *)

let soak_span = 0.5
let soak_racks = 2

(* Soak's Mixed incast fans in from every generator VM of the rack
   (Soak builds three per rack), one flow each. *)
let soak_incast_fanin = 3
let table4_scale = 0.02
let dcscale_span = 0.1
let dcscale_racks = 16

(* Long-lived streams: sized so no stream finishes inside the span. *)
let dcscale_messages = 1_000_000

let flow_cache_config =
  {
    Vswitch.Flow_cache.exact_capacity = 8192;
    megaflow_capacity = 2048;
    idle_timeout = Simtime.span_sec 10.0;
    revalidate_period = Simtime.span_ms 500.0;
  }

let soak_config ~seed ~duration =
  {
    Soak.racks = soak_racks;
    servers_per_rack = 2;
    duration;
    workload = Soak.Mixed;
    churn_rate = 2.0;
    base_rate = 2000.0;
    seed;
  }

let dcscale_config ~seed ~duration ~sharded =
  {
    Dcscale.racks = dcscale_racks;
    servers_per_rack = 2;
    duration;
    sharded;
    migrate = true;
    express_messages = dcscale_messages;
    soft_messages = dcscale_messages;
    message_size = 4096;
    seed;
  }

(* ---- JSON output ---- *)

type json =
  | Int of int
  | Num of float
  | Str of string
  | Bool of bool
  | List of json list
  | Obj of (string * json) list

let add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec to_json b = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Num f when Float.is_finite f ->
      (* Shortest of %.15g / %.17g that reads back as the same float. *)
      let s = Printf.sprintf "%.15g" f in
      Buffer.add_string b
        (if float_of_string s = f then s else Printf.sprintf "%.17g" f)
  | Num _ -> Buffer.add_string b "null"
  | Str s -> add_json_string b s
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          to_json b v)
        l;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_json_string b k;
          Buffer.add_char b ':';
          to_json b v)
        kvs;
      Buffer.add_char b '}'

(* ---- Simulated statistics ---- *)

(* What one workload run produced: [fields] are the simulated
   statistics the digest covers (host-measured fields such as
   Dcscale.result.cpu_s are left out); [checks] are its invariants,
   given the run's Obs.Metrics counter deltas. *)
type outcome = {
  fields : (string * json) list;
  checks : counter:(string -> int) -> (string * bool) list;
  events : int;
  windows : int;
  flows : int * int * int;  (** attempted, completed, shed *)
  extra : (string * json) list;
}

let digest fields =
  let b = Buffer.create 256 in
  List.iter
    (fun (k, v) ->
      Buffer.add_string b k;
      Buffer.add_char b '=';
      (match v with
      | Num f -> Printf.bprintf b "%h" f
      | v -> to_json b v);
      Buffer.add_char b ';')
    fields;
  Digest.to_hex (Digest.string (Buffer.contents b))

let counter_delta diff name =
  match List.assoc_opt name diff with
  | Some (Metrics.Counter_v n) -> n
  | _ -> 0

let gauge_now name =
  match Metrics.find name with Some (Metrics.Gauge_v g) -> g | _ -> 0.0

(* ---- Workloads ---- *)

let soak_outcome (r : Soak.result) =
  let incast_flows = r.incast_events * soak_incast_fanin in
  let attempted = r.arrivals + incast_flows in
  {
    fields =
      [
        ("shard_count", Int r.shard_count); ("windows", Int r.windows);
        ("events", Int r.events); ("arrivals", Int r.arrivals);
        ("thinned", Int r.thinned); ("gated_off", Int r.gated_off);
        ("shed", Int r.shed); ("completed", Int r.completed);
        ("live_end", Int r.live_end); ("live_p50", Num r.live_p50);
        ("live_p99", Num r.live_p99); ("bytes_offered", Int r.bytes_offered);
        ("incast_events", Int r.incast_events);
        ("churn_departures", Int r.churn_departures);
        ("churn_arrivals", Int r.churn_arrivals);
        ("churn_pending", Int r.churn_pending);
        ("express_acked", Int r.express_acked);
        ("generator_words", Int r.generator_words);
        ("core_routed", Int r.core_routed); ("core_dropped", Int r.core_dropped);
        ("tor_no_route_drops", Int r.tor_no_route_drops);
        ("acl_drops", Int r.acl_drops);
      ];
    (* Loadgen.stats.arrivals omits incast launches but flows_completed
       counts them, so conservation adds them back on the left. *)
    checks =
      (fun ~counter:_ ->
        [
          ( "soak: arrivals + incast launches = completed + live + shed",
            attempted = r.completed + r.live_end + r.shed );
          ("soak: core_dropped = 0", r.core_dropped = 0);
          ("soak: tor_no_route_drops = 0", r.tor_no_route_drops = 0);
        ]);
    events = r.events;
    windows = r.windows;
    flows = (attempted, r.completed, r.shed);
    extra = [];
  }

let dcscale_outcome (r : Dcscale.result) =
  let streams = 2 * r.cfg.racks in
  let stream_bytes = r.cfg.express_messages * r.cfg.message_size in
  {
    fields =
      [
        ("shard_count", Int r.shard_count); ("windows", Int r.windows);
        ("lookahead_us", Num r.lookahead_us); ("events", Int r.events);
        ("express_bytes", Int r.express_bytes); ("soft_bytes", Int r.soft_bytes);
        ("core_routed", Int r.core_routed); ("core_dropped", Int r.core_dropped);
        ("tor_no_route_drops", Int r.tor_no_route_drops);
        ("acl_drops", Int r.acl_drops);
        ("migration_outcome", Str r.migration_outcome);
      ];
    checks =
      (fun ~counter:_ ->
        [
          ("dcscale: migration committed", r.migration_outcome = "committed");
          ( "dcscale: every stream still live at the end of the span",
            r.express_bytes < r.cfg.racks * stream_bytes
            && r.soft_bytes < r.cfg.racks * stream_bytes );
          ("dcscale: core_dropped = 0", r.core_dropped = 0);
          ("dcscale: tor_no_route_drops = 0", r.tor_no_route_drops = 0);
        ]);
    events = r.events;
    windows = r.windows;
    flows = (streams, 0, 0);
    extra = [ ("delivered_bytes", Int (r.express_bytes + r.soft_bytes)) ];
  }

(* Table 4 as Fastrak_eval.run performs it, with the set-up calls timed
   one by one; the order (build, run, build, controllers, run) is
   Fastrak_eval's, since each Testbed.create repoints the trace clock. *)
let table4_build () =
  Memcached_eval.build ~mem_vm_count:4 ~vf_indices:[] ~background:`Scp
    ~total_requests:(Memcached_eval.finish_requests ())
    ()

let table4_controller_config () =
  (* Fastrak_eval's scaled cadence: detection at a fixed fraction of
     the run whatever the request scale. *)
  let epoch = 2.5 *. table4_scale in
  {
    Fastrak.Config.default with
    Fastrak.Config.epoch_period = Simtime.span_sec epoch;
    poll_gap = Simtime.span_sec (Float.min 0.1 (epoch /. 2.5));
    min_score = 1000.0;
  }

let table4_controllers (setup : Memcached_eval.setup) =
  let tb = setup.Memcached_eval.tb in
  let rm =
    Fastrak.Rule_manager.create ~engine:tb.Testbed.engine
      ~config:(table4_controller_config ()) ~tor:tb.Testbed.tor
      ~servers:(Array.to_list tb.Testbed.servers)
      ()
  in
  Testbed.connect_tunnels tb;
  Fastrak.Rule_manager.start rm;
  rm

(* Fastrak_eval's periodic demand-profile probe, kept so the event
   stream matches the experiment's. *)
let table4_profile_probe (setup : Memcached_eval.setup) rm peaks =
  let engine = setup.Memcached_eval.tb.Testbed.engine in
  Dcsim.Engine.every engine (Simtime.span_sec 0.05) (fun () ->
      (match
         ( setup.Memcached_eval.mem_vms,
           Fastrak.Rule_manager.local_controller rm ~server:"server0" )
       with
      | (first : Host.Server.attached) :: _, Some local -> (
          match
            Fastrak.Local_controller.profile local
              ~vm_ip:(Host.Vm.ip first.Host.Server.vm)
          with
          | None -> ()
          | Some profile ->
              List.iter
                (fun (e : Fastrak.Demand_profile.entry) ->
                  match e.pattern.Netcore.Fkey.Pattern.src_port with
                  | Some 46000 -> peaks.(0) <- Float.max peaks.(0) e.median_pps
                  | Some p when p = Workloads.Memcached.port ->
                      peaks.(1) <- Float.max peaks.(1) e.median_pps
                  | _ -> ())
                (Fastrak.Demand_profile.entries profile))
      | _ -> ());
      `Continue)

let row_fields prefix (r : Memcached_eval.row) =
  [
    (prefix ^ ".tps_aggregate", Num r.tps_aggregate);
    (prefix ^ ".tps_per_client", Num r.tps_per_client);
    (prefix ^ ".mean_latency_us", Num r.mean_latency_us);
    ( prefix ^ ".finish_time_s",
      Num (Option.value r.finish_time_s ~default:Float.nan) );
    (prefix ^ ".cpus", Num r.cpus);
  ]

(* |simulated FasTrak/VIF finish-time ratio - paper's| / paper's. *)
let paper_gap (vif : Memcached_eval.row) (ft : Memcached_eval.row) =
  let finish = function Some f -> f | None -> Float.nan in
  let paper =
    match Paper_ref.table4 with
    | [ (_, vif_s, _, _, _); (_, ft_s, _, _, _) ] -> ft_s /. vif_s
    | _ -> Float.nan
  in
  Float.abs ((finish ft.finish_time_s /. finish vif.finish_time_s) -. paper)
  /. paper

let time f =
  let t0 = Sampler.wall () in
  let v = f () in
  (v, Sampler.wall () -. t0)

type phases = { build_s : float; controllers_s : float }

let table4_setup () =
  let _, build1 = time table4_build in
  let setup, build2 = time table4_build in
  let _, ctl = time (fun () -> table4_controllers setup) in
  { build_s = build1 +. build2; controllers_s = ctl }

let table4_run () =
  let vif_setup = table4_build () in
  Sampler.mark_start ();
  let vif_only = Memcached_eval.run_to_finish ~label:"VIF only" vif_setup in
  let engine1 = vif_setup.Memcached_eval.tb.Testbed.engine in
  Sampler.pause ();
  Sampler.sim_offset := Simtime.to_sec (Dcsim.Engine.now engine1);
  let setup = table4_build () in
  let rm = table4_controllers setup in
  let peaks = [| 0.0; 0.0 |] in
  table4_profile_probe setup rm peaks;
  Sampler.resume ();
  let fastrak = Memcached_eval.run_to_finish ~label:"VIF+FasTrak" setup in
  Sampler.mark_stop ();
  let engine2 = setup.Memcached_eval.tb.Testbed.engine in
  let events =
    Dcsim.Engine.events_processed engine1 + Dcsim.Engine.events_processed engine2
  in
  let offloaded = Fastrak.Rule_manager.offloaded_count rm in
  let clients = List.length setup.Memcached_eval.clients in
  let finished (s : Memcached_eval.setup) =
    List.length
      (List.filter
         (fun c -> Workloads.Transactions.Client.finish_time c <> None)
         s.Memcached_eval.clients)
  in
  {
    fields =
      row_fields "vif_only" vif_only @ row_fields "fastrak" fastrak
      @ [
          ("offloaded_aggregates", Int offloaded);
          ("scp_peak_pps", Num peaks.(0)); ("memcached_peak_pps", Num peaks.(1));
          ("events", Int events);
        ];
    checks =
      (fun ~counter ->
        [
          ( "table4: promotions - demotions = offloaded aggregates",
            counter "fastrak.promotions" - counter "fastrak.demotions"
            = offloaded );
        ]);
    events;
    windows = 0;
    flows = (2 * clients, finished vif_setup + finished setup, 0);
    extra = [ ("paper_gap", Num (paper_gap vif_only fastrak)) ];
  }

let one_call workload ~seed ~span =
  match workload with
  | "soak" -> soak_outcome (Soak.run ~config:(soak_config ~seed ~duration:span) ())
  | "dcscale" ->
      dcscale_outcome
        (Dcscale.run ~config:(dcscale_config ~seed ~duration:span ~sharded:true) ())
  | w -> invalid_arg ("unknown workload " ^ w)

(* Soak and Dcscale build and run in one call; their set-up is that call
   with the span cut to one simulated nanosecond. *)
let setup_once workload ~seed =
  match workload with
  | "table4" -> table4_setup ()
  | _ ->
      let _, t = time (fun () -> one_call workload ~seed ~span:1e-9) in
      { build_s = t; controllers_s = 0.0 }

(* The first set-up of a process pays page first-touch and cold caches
   (about 2.5x a warm one, and noisy); it is reported on its own and the
   set-up figure is the median of the warm repeats that follow, each
   from a freshly collected heap. *)
let setup_repeats = 9

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let chunk_count = 20

let pinned () =
  let c = !Vswitch.Flow_cache.default_config in
  [
    ("requests_scale", Num !Memcached_eval.requests_scale);
    ("flow_cache.exact_capacity", Int c.exact_capacity);
    ("flow_cache.megaflow_capacity", Int c.megaflow_capacity);
    ("flow_cache.idle_timeout_s", Num (Simtime.span_to_sec c.idle_timeout));
    ( "flow_cache.revalidate_period_s",
      Num (Simtime.span_to_sec c.revalidate_period) );
    ("soak_span_s", Num soak_span);
    ("dcscale_span_s", Num dcscale_span);
    ("dcscale_racks", Int dcscale_racks);
    ("table4_seed", Int 42);
  ]

(* Per-layer counters: deltas of the process-global registry across
   the run (the process is fresh, so set-up is included). *)
let counter_names =
  [
    "tor.forwarded"; "tor.vrf.installs"; "tor.vrf.removes"; "tor.acl_drops";
    "tor.no_route_drops"; "tor.tcam.rejections"; "vswitch.tx_packets";
    "vswitch.upcalls"; "vswitch.cache.exact_hits"; "vswitch.cache.megaflow_hits";
    "vswitch.cache.misses"; "fastrak.promotions"; "fastrak.demotions";
    "fastrak.decide.calls"; "fastrak.me.epochs"; "fastrak.directive_retries";
    "fabric.core.routed"; "fabric.link.drops"; "fabric.channel.drops";
    "fabric.core.no_route_drops"; "fabric.core.port_drops";
    "nic.vf_tx_packets";
  ]

let measure workload mode seed =
  let traced = mode = "traced" in
  Vswitch.Flow_cache.default_config := flow_cache_config;
  Memcached_eval.requests_scale := table4_scale;
  let before = Metrics.snapshot () in
  let major_before = (Gc.quick_stat ()).Gc.major_collections in
  let base =
    [
      ("workload", Str workload); ("mode", Str mode); ("seed", Int seed);
      ("pinned", Obj (pinned ()));
    ]
  in
  let run () =
    match (workload, mode) with
    | _, "setup" ->
        let first = setup_once workload ~seed in
        let reps =
          List.init setup_repeats (fun _ ->
              Gc.full_major ();
              setup_once workload ~seed)
        in
        `Setup (first, reps)
    | "dcscale", "replay" ->
        `Replay
          (dcscale_outcome
             (Dcscale.run
                ~config:(dcscale_config ~seed ~duration:dcscale_span ~sharded:false)
                ()))
    | "table4", ("run" | "traced") ->
        Sampler.install ~trace:traced ~watch:false;
        `Run (table4_run ())
    | ("soak" | "dcscale"), ("run" | "traced") ->
        Sampler.install ~trace:traced ~watch:true;
        let span = if workload = "soak" then soak_span else dcscale_span in
        let o = one_call workload ~seed ~span in
        Sampler.mark_stop ();
        `Run o
    | _ -> `Error (Printf.sprintf "unknown workload/mode %s/%s" workload mode)
  in
  match run () with
  | exception e -> Obj (base @ [ ("ok", Bool false); ("error", Str (Printexc.to_string e)) ])
  | `Error msg -> Obj (base @ [ ("ok", Bool false); ("error", Str msg) ])
  | `Setup (first, reps) ->
      let total p = p.build_s +. p.controllers_s in
      Obj
        (base
        @ [
            ("ok", Bool true); ("setup_first_s", Num (total first));
            ("setup_s", Num (median (List.map total reps)));
            ("build_s", Num (median (List.map (fun p -> p.build_s) reps)));
            ("controllers_s", Num (median (List.map (fun p -> p.controllers_s) reps)));
          ])
  | (`Run o | `Replay o) as r ->
      let stat = Gc.quick_stat () in
      let c = counter_delta (Metrics.diff ~before ~after:(Metrics.snapshot ())) in
      let failed =
        List.filter_map
          (fun (n, ok) -> if ok then None else Some (Str n))
          (o.checks ~counter:c)
      in
      let attempted, completed, shed = o.flows in
      let hits = c "vswitch.cache.exact_hits" + c "vswitch.cache.megaflow_hits" in
      let lookups = hits + c "vswitch.cache.misses" in
      let counters =
        List.map (fun n -> (n, Int (c n))) counter_names
        @ [
            ( "vswitch.cache_entries_end",
              Num
                (gauge_now "vswitch.cache.exact_entries"
                +. gauge_now "vswitch.cache.megaflow_entries") );
            ( "vswitch.cache_hit_ratio",
              Num
                (if lookups = 0 then 0.0
                 else float_of_int hits /. float_of_int lookups) );
            ("workloads.flows_attempted", Int attempted);
            ("workloads.flows_completed", Int completed);
            ("workloads.flows_shed", Int shed);
          ]
      in
      let host =
        match r with
        | `Replay _ -> []
        | `Run _ ->
            [
              ("run_s", Num (Sampler.run_s ()));
              ("chunks_s", List (List.map (fun x -> Num x) (Sampler.chunks chunk_count)));
              ("minor_words_run", Num !Sampler.minor_words_run);
            ]
      in
      let traced_fields =
        if not traced then []
        else
          [
            ( "samples",
              Obj (List.map (fun (k, n) -> (k, Int n)) (Sampler.sample_counts ())) );
            ("samples_total", Int !Sampler.total_samples);
            ("minor_s", Num (float_of_int !Sampler.minor_ns *. 1e-9));
            ("major_s", Num (float_of_int !Sampler.major_ns *. 1e-9));
            ("gc_lost_events", Int !Sampler.lost_events);
            ("heap_growth_words_per_sim_s", Num (Sampler.heap_growth ()));
          ]
      in
      Obj
        (base
        @ [
            ("ok", Bool (failed = [])); ("violations", List failed);
            ("digest", Str (digest o.fields)); ("stats", Obj o.fields);
          ]
        @ host
        @ [
            ("top_heap_words", Int stat.Gc.top_heap_words);
            ("word_bytes", Int (Sys.word_size / 8));
            ("major_collections", Int (stat.Gc.major_collections - major_before));
            ("events", Int o.events); ("windows", Int o.windows);
            ("counters", Obj counters);
          ]
        @ o.extra @ traced_fields)

let () =
  match Sys.argv with
  | [| _; workload; mode; seed |] -> (
      match int_of_string_opt seed with
      | Some seed ->
          let b = Buffer.create 4096 in
          to_json b (measure workload mode seed);
          print_endline (Buffer.contents b)
      | None ->
          prerr_endline "probe: SEED must be an integer";
          exit 2)
  | _ ->
      prerr_endline
        "usage: probe.exe (soak|table4|dcscale) (run|traced|setup|replay) SEED";
      exit 2
