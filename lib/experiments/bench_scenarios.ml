module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Rng = Dcsim.Rng
module Fkey = Netcore.Fkey
module Ipv4 = Netcore.Ipv4
module De = Fastrak.Decision_engine

type result = {
  scenario : string;
  unit_ : string;
  params : (string * float) list;
  runs : int;
  ns_per_op : float;
  ops_per_sec : float;
  minor_words_per_op : float;
  baseline_ns_per_op : float option;
}

(* Repeat [f] until it has consumed [min_time] CPU seconds (at least
   [min_runs] times) and average. One warmup run is discarded so
   first-call effects (hashtable sizing, lazy setup) do not skew the
   numbers. *)
let time_runs ?(min_time = 0.2) ?(min_runs = 2) f =
  f ();
  let t0 = Sys.time () in
  let w0 = Gc.minor_words () in
  let runs = ref 0 in
  while !runs < min_runs || Sys.time () -. t0 < min_time do
    f ();
    incr runs
  done;
  let elapsed = Sys.time () -. t0 in
  let words = Gc.minor_words () -. w0 in
  (!runs, elapsed /. float_of_int !runs, words /. float_of_int !runs)

let mk_result ~scenario ~unit_ ~params ~ops ?baseline (runs, sec_per_run, words_per_run)
    =
  let ops_f = float_of_int ops in
  let sec_per_op = sec_per_run /. ops_f in
  {
    scenario;
    unit_;
    params;
    runs;
    ns_per_op = sec_per_op *. 1e9;
    ops_per_sec = (if sec_per_op > 0.0 then 1.0 /. sec_per_op else 0.0);
    minor_words_per_op = words_per_run /. ops_f;
    baseline_ns_per_op =
      Option.map (fun (_, sec, _) -> sec /. ops_f *. 1e9) baseline;
  }

(* --- decision engine --- *)

let tenant = Netcore.Tenant.of_int 7

let ip_of_index i =
  Ipv4.of_octets 10 ((i lsr 16) land 0xFF) ((i lsr 8) land 0xFF) (i land 0xFF)

let mk_candidates rng n =
  List.init n (fun i ->
      {
        De.pattern =
          {
            Fkey.Pattern.any with
            Fkey.Pattern.src_ip = Some (ip_of_index i);
            src_port = Some (1024 + (i land 0xFFFF));
            tenant = Some tenant;
          };
        tenant;
        vm_ip = ip_of_index i;
        score = Rng.float rng 10_000.0;
        tcam_entries = 1 + Rng.int rng 4;
        (* ~5% of candidates belong to an all-or-none group. *)
        group =
          (if Rng.int rng 100 < 5 then Some (Rng.int rng (Stdlib.max 1 (n / 50)))
           else None);
      })

(* The currently-offloaded set: every k-th candidate (their previous
   interval's scores), which gives decide a large membership set to
   classify against. *)
let mk_offloaded candidates ~offloaded =
  let n = List.length candidates in
  let k = Stdlib.max 1 (n / Stdlib.max 1 offloaded) in
  List.filteri (fun i _ -> i mod k = 0) candidates
  |> List.map (fun (c : De.candidate) -> (c.De.pattern, c))

let decision_case ~smoke ~with_baseline ~candidates:n ~offloaded:o =
  let rng = Rng.create ~seed:42 in
  let candidates = mk_candidates rng n in
  let offloaded = mk_offloaded candidates ~offloaded:o in
  let o = List.length offloaded in
  let tcam_free = n in
  (* Production callers (one ToR controller) reuse one scratch across
     decide calls; the bench does the same so minor_words_per_op prices
     the steady state, not first-call arena growth. *)
  let scratch = De.create_scratch () in
  let run_decide () =
    ignore
      (De.decide ~scratch ~candidates ~offloaded ~tcam_free ~min_score:100.0 ())
  in
  let min_time = if smoke then 0.02 else 0.2 in
  let timed = time_runs ~min_time run_decide in
  let baseline =
    if with_baseline then
      Some
        (time_runs ~min_time ~min_runs:1 (fun () ->
             ignore
               (De.decide_list_baseline ~candidates ~offloaded ~tcam_free
                  ~min_score:100.0 ())))
    else None
  in
  mk_result
    ~scenario:(Printf.sprintf "decide/%dc-%do" n o)
    ~unit_:"call"
    ~params:
      [
        ("candidates", float_of_int n);
        ("offloaded", float_of_int o);
        ("tcam_free", float_of_int tcam_free);
      ]
    ~ops:1 ?baseline timed

let run_decision ~smoke =
  if smoke then [ decision_case ~smoke ~with_baseline:true ~candidates:200 ~offloaded:50 ]
  else
    [
      decision_case ~smoke ~with_baseline:true ~candidates:1_000 ~offloaded:200;
      decision_case ~smoke ~with_baseline:true ~candidates:10_000 ~offloaded:2_000;
      (* The quadratic baseline is too slow to time at 50k. *)
      decision_case ~smoke ~with_baseline:false ~candidates:50_000 ~offloaded:10_000;
    ]

(* --- measurement engine --- *)

let measurement_case ~smoke ~aggregates ~epochs =
  let epoch_period = Simtime.span_ms 10.0 in
  let config =
    {
      Fastrak.Config.default with
      Fastrak.Config.epoch_period;
      poll_gap = Simtime.span_ms 4.0;
      epochs_per_interval = 2;
      history_intervals = 3;
    }
  in
  let flows =
    Array.init aggregates (fun i ->
        Fkey.make ~src_ip:(ip_of_index i)
          ~dst_ip:(ip_of_index (i + 1))
          ~src_port:(1024 + (i land 0x3FFF))
          ~dst_port:11211 ~proto:Fkey.Tcp ~tenant)
  in
  let run_scenario () =
    let engine = Engine.create () in
    let polls = ref 0 in
    let poll () =
      incr polls;
      let k = !polls in
      Array.to_list (Array.map (fun f -> (f, k * 10, k * 1000)) flows)
    in
    let me =
      Fastrak.Measurement_engine.create ~engine ~config ~name:"bench" ~poll
        ~classify:(fun flow ->
          Some
            ( Fkey.Pattern.src_aggregate flow,
              {
                Fastrak.Measurement_engine.tenant;
                vm_ip = flow.Fkey.src_ip;
                direction = `Outgoing;
              } ))
    in
    Fastrak.Measurement_engine.start me;
    Engine.run
      ~until:(Simtime.add Simtime.zero
                (Simtime.span_scale (float_of_int epochs +. 0.5) epoch_period))
      engine;
    Fastrak.Measurement_engine.stop me
  in
  let min_time = if smoke then 0.02 else 0.2 in
  let timed = time_runs ~min_time ~min_runs:1 run_scenario in
  mk_result
    ~scenario:(Printf.sprintf "me-epoch/%da-%de" aggregates epochs)
    ~unit_:"epoch"
    ~params:
      [ ("aggregates", float_of_int aggregates); ("epochs", float_of_int epochs) ]
    ~ops:epochs timed

let run_measurement ~smoke =
  if smoke then [ measurement_case ~smoke ~aggregates:200 ~epochs:4 ]
  else [ measurement_case ~smoke ~aggregates:10_000 ~epochs:10 ]

(* --- event queue --- *)

let eventq_churn ~smoke ~events =
  let rng = Rng.create ~seed:7 in
  let times = Array.init events (fun _ -> Rng.int rng 1_000_000_000) in
  (* One long-lived queue, as in the engine: its arrays grow during the
     discarded warm-up run, so the timed runs price steady-state
     push/take. *)
  let q = Dcsim.Event_queue.create () in
  let run_scenario () =
    Array.iter (fun ns -> ignore (Dcsim.Event_queue.push q (Simtime.of_ns ns) ns)) times;
    while Dcsim.Event_queue.length q > 0 do
      ignore (Dcsim.Event_queue.take_min q)
    done
  in
  let min_time = if smoke then 0.02 else 0.2 in
  let timed = time_runs ~min_time run_scenario in
  mk_result
    ~scenario:(Printf.sprintf "eventq-churn/%d" events)
    ~unit_:"event"
    ~params:[ ("events", float_of_int events) ]
    ~ops:events timed

let eventq_cancel_heavy ~smoke ~events =
  let rng = Rng.create ~seed:11 in
  let times = Array.init events (fun _ -> Rng.int rng 1_000_000_000) in
  (* Pre-draw which events die so the timed region draws nothing. *)
  let doomed = Array.init events (fun _ -> Rng.int rng 10 < 9) in
  let q = Dcsim.Event_queue.create () in
  let run_scenario () =
    let handles =
      Array.map (fun ns -> Dcsim.Event_queue.push q (Simtime.of_ns ns) ns) times
    in
    Array.iteri
      (fun i h -> if doomed.(i) then ignore (Dcsim.Event_queue.cancel q h))
      handles;
    while Dcsim.Event_queue.length q > 0 do
      ignore (Dcsim.Event_queue.take_min q)
    done
  in
  let min_time = if smoke then 0.02 else 0.2 in
  let timed = time_runs ~min_time run_scenario in
  mk_result
    ~scenario:(Printf.sprintf "eventq-cancel90/%d" events)
    ~unit_:"event"
    ~params:[ ("events", float_of_int events); ("cancel_fraction", 0.9) ]
    ~ops:events timed

let run_eventqueue ~smoke =
  let events = if smoke then 2_000 else 200_000 in
  [ eventq_churn ~smoke ~events; eventq_cancel_heavy ~smoke ~events ]

(* The engine loop's own per-event cost: [Engine.at] of one
   preallocated closure at pre-drawn offsets, then [Engine.run]. One
   long-lived engine, as in a simulation, so the queue grows during the
   discarded warm-up run and the timed runs allocate nothing. *)
let engine_schedule_fire ~smoke ~events =
  let rng = Rng.create ~seed:13 in
  let offsets = Array.init events (fun _ -> Simtime.span_ns (Rng.int rng 1_000_000)) in
  let e = Engine.create () in
  let fired = ref 0 in
  let fn () = incr fired in
  let run_scenario () =
    let base = Engine.now e in
    Array.iter (fun span -> ignore (Engine.at e (Simtime.add base span) fn)) offsets;
    Engine.run e
  in
  let min_time = if smoke then 0.02 else 0.2 in
  let timed = time_runs ~min_time run_scenario in
  mk_result ~scenario:"engine/schedule-fire" ~unit_:"event"
    ~params:[ ("events", float_of_int events) ]
    ~ops:events timed

(* --- observability: emission overhead (docs/BENCH.md) ---

   The zero-overhead contract says an untraced emission site costs one
   load and one branch. These scenarios price that claim and its
   alternatives: the same site with tracing off, with an in-process
   callback sink, and with the JSONL sink writing to /dev/null (so the
   cost measured is formatting + buffered output, not disk). *)

let obs_emit_site ~now ~vm i =
  (* A faithful emission site: guard first, construct only under a
     sink — exactly what the control plane's hot paths do. *)
  if Obs.Trace.enabled () then
    Obs.Trace.emit ~now
      (Obs.Trace.Fps_split
         {
           vm_ip = vm;
           direction = Obs.Trace.Tx;
           soft_bps = float_of_int i;
           hard_bps = 1e9;
           total_bps = 1e9;
           overflow_bps = 5e7;
         })

let obs_emit_case ~smoke ~sink ~install ~teardown =
  let n = if smoke then 20_000 else 1_000_000 in
  let now = Simtime.of_ns 1_000 in
  let vm = ip_of_index 9 in
  let run_scenario () =
    for i = 0 to n - 1 do
      obs_emit_site ~now ~vm i
    done
  in
  install ();
  let min_time = if smoke then 0.02 else 0.2 in
  let timed = time_runs ~min_time run_scenario in
  teardown ();
  mk_result
    ~scenario:(Printf.sprintf "trace-emit/%s" sink)
    ~unit_:"event"
    ~params:[ ("events", float_of_int n) ]
    ~ops:n timed

let obs_span_case ~smoke =
  let n = if smoke then 10_000 else 500_000 in
  let now = Simtime.of_ns 1_000 in
  let sunk = ref 0 in
  let run_scenario () =
    for _ = 1 to n do
      let s =
        Obs.Span.start ~now ~kind:"bench" ~name:"span" ~track:"bench" ()
      in
      Obs.Span.finish ~now s ~outcome:"done"
    done
  in
  Obs.Trace.use_callback (fun _ _ -> incr sunk);
  let min_time = if smoke then 0.02 else 0.2 in
  let timed = time_runs ~min_time run_scenario in
  Obs.Trace.disable ();
  mk_result ~scenario:"span-pair/callback" ~unit_:"span"
    ~params:[ ("spans", float_of_int n) ]
    ~ops:n timed

let obs_timeseries_case ~smoke =
  let n = if smoke then 20_000 else 1_000_000 in
  let collector = Obs.Timeseries.create () in
  Obs.Timeseries.enable ~collector ();
  let s = Obs.Timeseries.series ~collector "bench.latency" in
  let rng = Rng.create ~seed:21 in
  let samples = Array.init n (fun _ -> Rng.float rng 10_000.0) in
  let run_scenario () =
    Array.iter (fun v -> Obs.Timeseries.observe s v) samples
  in
  let min_time = if smoke then 0.02 else 0.2 in
  let timed = time_runs ~min_time run_scenario in
  mk_result ~scenario:"ts-observe/p2x3" ~unit_:"sample"
    ~params:[ ("samples", float_of_int n) ]
    ~ops:n timed

let obs_flight_case ~smoke =
  let n = if smoke then 20_000 else 1_000_000 in
  let capacity = 4096 in
  let now = Simtime.of_ns 1_000 in
  let ring = Obs.Flight.create ~capacity () in
  (* One preallocated event re-recorded n times: prices the ring's
     record step alone (two array stores and an index bump) — the
     recorder receives already-constructed events from the tee, so
     this is exactly its steady-state per-event cost. *)
  let ev =
    Obs.Trace.Fps_split
      {
        vm_ip = ip_of_index 9;
        direction = Obs.Trace.Tx;
        soft_bps = 1e8;
        hard_bps = 1e9;
        total_bps = 1e9;
        overflow_bps = 5e7;
      }
  in
  let run_scenario () =
    for _ = 1 to n do
      Obs.Flight.record ring now ev
    done
  in
  let min_time = if smoke then 0.02 else 0.2 in
  let timed = time_runs ~min_time run_scenario in
  mk_result ~scenario:"flight-record" ~unit_:"event"
    ~params:
      [ ("capacity", float_of_int capacity); ("events", float_of_int n) ]
    ~ops:n timed

let obs_labeled_case ~smoke =
  let n = if smoke then 20_000 else 1_000_000 in
  (* A local registry so the bench family does not pollute the default
     registry (whose contents the metrics-doc check audits). Eight keys
     round-robin: after the first lap every increment takes the
     already-seen path — one int-keyed hash probe. *)
  let registry = Obs.Metrics.create () in
  let fam =
    Obs.Metrics.counter_family ~registry ~label:"tenant" "bench.labeled"
  in
  let run_scenario () =
    for i = 0 to n - 1 do
      Obs.Metrics.incr (Obs.Metrics.labeled_counter fam (i land 7))
    done
  in
  let min_time = if smoke then 0.02 else 0.2 in
  let timed = time_runs ~min_time run_scenario in
  mk_result ~scenario:"labeled-counter-incr" ~unit_:"incr"
    ~params:[ ("series", 8.0); ("increments", float_of_int n) ]
    ~ops:n timed

(* [Stats.Summary.add] runs on every ToR enqueue ([tor.qos.depth]).
   The samples are boxed once, outside the timed loop, so the case
   prices only what [add] itself allocates. *)
let summary_add_case ~smoke =
  let n = if smoke then 20_000 else 1_000_000 in
  let samples = [ 3.0; 1.0; 4.0; 1.0; 5.0; 9.0; 2.0; 6.0 ] in
  let s = Dcsim.Stats.Summary.create () in
  let add x = Dcsim.Stats.Summary.add s x in
  let run_scenario () =
    for _ = 1 to n / 8 do
      List.iter add samples
    done
  in
  let min_time = if smoke then 0.02 else 0.2 in
  let timed = time_runs ~min_time run_scenario in
  mk_result ~scenario:"summary-add" ~unit_:"sample"
    ~params:[ ("samples", float_of_int n) ]
    ~ops:n timed

let run_obs ~smoke =
  let null = open_out "/dev/null" in
  let results =
    [
      obs_emit_case ~smoke ~sink:"off"
        ~install:(fun () -> Obs.Trace.disable ())
        ~teardown:(fun () -> ());
      obs_emit_case ~smoke ~sink:"callback"
        ~install:(fun () -> Obs.Trace.use_callback (fun _ _ -> ()))
        ~teardown:(fun () -> Obs.Trace.disable ());
      obs_emit_case ~smoke ~sink:"jsonl"
        ~install:(fun () -> Obs.Trace.use_jsonl null)
        ~teardown:(fun () -> Obs.Trace.disable ());
      obs_span_case ~smoke;
      obs_timeseries_case ~smoke;
      obs_flight_case ~smoke;
      obs_labeled_case ~smoke;
    ]
  in
  close_out null;
  results

(* --- vswitch datapath flow cache (docs/BENCH.md) ---

   Prices the two-tier cache against the work it avoids: a full masked
   classification over the VIF's ACL list (what every upcall pays).
   The rule set is shaped like a real policy — a pile of non-matching
   port carve-outs over a terminal allow-all — so the uncached scan is
   O(rules) while the deciding scan examines only dst_port, giving the
   cache wide megaflows. *)

module Cache = Vswitch.Flow_cache

let mk_cache_policy ~rules =
  let p = Rules.Policy.create ~tenant ~vm_ip:(ip_of_index 1) () in
  for i = 1 to rules - 1 do
    Rules.Policy.add_acl p
      (Rules.Security_rule.make ~priority:9
         { Fkey.Pattern.any with Fkey.Pattern.dst_port = Some (40_000 + i) }
         Deny)
  done;
  Rules.Policy.add_acl p
    (Rules.Security_rule.make ~priority:5 Fkey.Pattern.any Allow);
  p

(* Distinct 5-tuples spread over 64 dst ports: 10k flows condense into
   64 megaflow entries (the mask is dst_port only). *)
let mk_cache_flows n =
  Array.init n (fun i ->
      Fkey.make ~src_ip:(ip_of_index i) ~dst_ip:(ip_of_index (n + i))
        ~src_port:(1024 + (i land 0xFFFF))
        ~dst_port:(80 + (i land 63))
        ~proto:Fkey.Tcp ~tenant)

let cache_config ~exact ~megaflow =
  {
    Cache.exact_capacity = exact;
    megaflow_capacity = megaflow;
    (* Effectively no idle eviction: the bench drives no engine clock. *)
    idle_timeout = Simtime.span_sec 1e6;
    revalidate_period = Simtime.span_ms 500.0;
  }

let cache_tier_cases ~smoke ~flows:n ~rules =
  let p = mk_cache_policy ~rules in
  let flows = mk_cache_flows n in
  let now = Simtime.of_ms 1.0 in
  let min_time = if smoke then 0.02 else 0.2 in
  (* Baseline: what every lookup would cost with no cache at all — the
     upcall's classification scan. *)
  let baseline =
    time_runs ~min_time ~min_runs:1 (fun () ->
        Array.iter (fun f -> ignore (Rules.Policy.classify_masked p f)) flows)
  in
  let tier_case ~label ~exact_capacity =
    let c =
      Cache.create
        ~config:(cache_config ~exact:exact_capacity ~megaflow:4096)
        ~name:"bench" ~policy:p ()
    in
    Array.iter (fun f -> ignore (Cache.install c f ~now)) flows;
    let timed =
      time_runs ~min_time (fun () ->
          Array.iter (fun f -> ignore (Cache.lookup c f ~now)) flows)
    in
    mk_result
      ~scenario:(Printf.sprintf "cache/%s-%df-%dr" label n rules)
      ~unit_:"lookup"
      ~params:
        [
          ("flows", float_of_int n);
          ("acl_rules", float_of_int rules);
          ("exact_entries", float_of_int (Cache.exact_count c));
          ("megaflow_entries", float_of_int (Cache.megaflow_count c));
        ]
      ~ops:n ~baseline timed
  in
  [
    tier_case ~label:"exact" ~exact_capacity:(2 * n);
    (* exact tier disabled: every lookup is served by the megaflow
       tier — the cold-flow fast path. *)
    tier_case ~label:"megaflow" ~exact_capacity:0;
  ]

(* Steady-state churn with the exact tier capped well below the flow
   count: every megaflow hit promotes into the exact tier, which
   evicts LRU-style on each insert. Occupancy must stay at the cap. *)
let cache_churn_case ~smoke ~flows:n ~rules ~capacity =
  let p = mk_cache_policy ~rules in
  let flows = mk_cache_flows n in
  let now = Simtime.of_ms 1.0 in
  let c =
    Cache.create
      ~config:(cache_config ~exact:capacity ~megaflow:128)
      ~name:"bench.churn" ~policy:p ()
  in
  let run_scenario () =
    Array.iter
      (fun f ->
        match Cache.lookup c f ~now with
        | Some _ -> ()
        | None -> ignore (Cache.install c f ~now))
      flows
  in
  let min_time = if smoke then 0.02 else 0.2 in
  let timed = time_runs ~min_time run_scenario in
  mk_result
    ~scenario:(Printf.sprintf "cache/capped-lru-%df-%dcap" n capacity)
    ~unit_:"lookup"
    ~params:
      [
        ("flows", float_of_int n);
        ("acl_rules", float_of_int rules);
        ("exact_capacity", float_of_int capacity);
        ("exact_entries", float_of_int (Cache.exact_count c));
        ("megaflow_entries", float_of_int (Cache.megaflow_count c));
        ("evictions", float_of_int (Cache.evictions c));
      ]
    ~ops:n timed

let run_vswitch ~smoke =
  if smoke then
    cache_tier_cases ~smoke ~flows:500 ~rules:64
    @ [ cache_churn_case ~smoke ~flows:500 ~rules:64 ~capacity:128 ]
  else
    cache_tier_cases ~smoke ~flows:10_000 ~rules:256
    @ [ cache_churn_case ~smoke ~flows:10_000 ~rules:256 ~capacity:1_024 ]

(* --- zero-allocation packet hot path (docs/BENCH.md) ---

   Prices the per-packet primitives that the datapath executes on
   every forwarded packet in the steady state: the exact-tier cache
   hit, flow-key hashing, packed-key probes, key packing, and the NIC
   flow placer's cached rule lookup. The first three and the last must
   allocate nothing — [minor_words_per_op = 0.0] is an acceptance bar
   enforced by the [@alloc-check] alias, not a nice-to-have. *)

let hotpath_cache_hit ~smoke =
  let n = if smoke then 500 else 10_000 in
  let rules = if smoke then 64 else 256 in
  let p = mk_cache_policy ~rules in
  let flows = mk_cache_flows n in
  let keys = Array.map Fkey.Packed.of_fkey flows in
  let now = Simtime.of_ms 1.0 in
  let c =
    Cache.create
      ~config:(cache_config ~exact:(2 * n) ~megaflow:4096)
      ~name:"bench.hot" ~policy:p ()
  in
  Array.iter (fun f -> ignore (Cache.install c f ~now)) flows;
  (* Warm once so every timed probe is a steady-state hit. *)
  Array.iter (fun k -> ignore (Cache.find_exact c k ~now)) keys;
  let run_scenario () =
    Array.iter (fun k -> ignore (Cache.find_exact c k ~now)) keys
  in
  let min_time = if smoke then 0.02 else 0.2 in
  let timed = time_runs ~min_time run_scenario in
  mk_result
    ~scenario:"hotpath/cache-hit-exact"
    ~unit_:"lookup"
    ~params:
      [
        ("flows", float_of_int n);
        ("acl_rules", float_of_int rules);
        ("exact_entries", float_of_int (Cache.exact_count c));
      ]
    ~ops:n timed

let mk_hot_keys n =
  Array.init n (fun i ->
      Fkey.make ~src_ip:(ip_of_index i)
        ~dst_ip:(ip_of_index (n + i))
        ~src_port:((1024 + i) land 0xFFFF)
        ~dst_port:(80 + (i land 63))
        ~proto:(match i land 3 with 0 -> Fkey.Tcp | 1 -> Fkey.Udp | 2 -> Fkey.Icmp | _ -> Fkey.Other (i land 127))
        ~tenant)

let hotpath_fkey_hash ~smoke =
  let n = if smoke then 2_000 else 65_536 in
  let flows = mk_hot_keys n in
  let sink = ref 0 in
  let run_scenario () =
    Array.iter (fun f -> sink := !sink lxor Fkey.hash f) flows
  in
  let min_time = if smoke then 0.02 else 0.2 in
  let timed = time_runs ~min_time run_scenario in
  ignore !sink;
  mk_result ~scenario:"hotpath/fkey-hash" ~unit_:"hash"
    ~params:[ ("keys", float_of_int n) ]
    ~ops:n timed

let hotpath_packed_probe ~smoke =
  let n = if smoke then 2_000 else 65_536 in
  let keys = Array.map Fkey.Packed.of_fkey (mk_hot_keys n) in
  let probe = keys.(n / 2) in
  let sink = ref 0 in
  let run_scenario () =
    Array.iter
      (fun k ->
        sink := !sink lxor Fkey.Packed.hash k;
        if Fkey.Packed.equal k probe then incr sink)
      keys
  in
  let min_time = if smoke then 0.02 else 0.2 in
  let timed = time_runs ~min_time run_scenario in
  ignore !sink;
  mk_result ~scenario:"hotpath/packed-hash-equal" ~unit_:"probe"
    ~params:[ ("keys", float_of_int n) ]
    ~ops:n timed

let hotpath_pack ~smoke =
  let n = if smoke then 2_000 else 65_536 in
  let flows = mk_hot_keys n in
  let sink = ref 0 in
  let run_scenario () =
    Array.iter
      (fun f -> sink := !sink lxor Fkey.Packed.hash (Fkey.Packed.of_fkey f))
      flows
  in
  let min_time = if smoke then 0.02 else 0.2 in
  let timed = time_runs ~min_time run_scenario in
  ignore !sink;
  mk_result ~scenario:"hotpath/packed-of-fkey" ~unit_:"pack"
    ~params:[ ("keys", float_of_int n) ]
    ~ops:n timed

let hotpath_rule_cache ~smoke =
  let n = if smoke then 500 else 10_000 in
  let rules = if smoke then 64 else 250 in
  let table = Rules.Rule_table.create () in
  for i = 0 to rules - 1 do
    ignore
      (Rules.Rule_table.insert table
         ~pattern:
           { Fkey.Pattern.any with Fkey.Pattern.dst_port = Some (20_000 + i) }
         ~priority:i ())
  done;
  let flows = mk_hot_keys n in
  let keys = Array.map Fkey.Packed.of_fkey flows in
  (* Warm the exact cache: the timed loop is all fast-path hits, the
     NIC flow placer's per-packet probe. *)
  Array.iteri
    (fun i f -> ignore (Rules.Rule_table.find table keys.(i) f))
    flows;
  let run_scenario () =
    Array.iteri
      (fun i f -> ignore (Rules.Rule_table.find table keys.(i) f))
      flows
  in
  let min_time = if smoke then 0.02 else 0.2 in
  let timed = time_runs ~min_time run_scenario in
  mk_result ~scenario:"hotpath/rule-cache-hit" ~unit_:"lookup"
    ~params:[ ("flows", float_of_int n); ("rules", float_of_int rules) ]
    ~ops:n timed

(* The ToR VRF's per-packet match ([Tor.Vrf.classify]) with [n]
   installed rule sets under soak's two masks: 1 in 32 (at least 2) is
   a pinned lane <src IP, dst IP, tenant>, installed first so it sits
   oldest, the rest are src-aggregates <src IP, src port, tenant>. The
   64 probe flows, the same at every size, split half onto pinned
   lanes, a quarter onto aggregates and a quarter onto no rule at all
   (default deny), so only the VRF's occupancy changes between sizes. *)
let hotpath_vrf_lookup ~smoke ~rule_sets:n =
  let tcam = Tor.Tcam.create ~capacity:(2 * n) in
  let vrf = Tor.Vrf.create ~tenant ~tcam in
  let pinned = Stdlib.max 2 (n / 32) in
  let src i = ip_of_index i and dst i = ip_of_index (0x10000 + i) in
  let pattern i =
    if i < pinned then
      { (Fkey.Pattern.from_vm (src i) tenant) with Fkey.Pattern.dst_ip = Some (dst i) }
    else
      { (Fkey.Pattern.from_vm (src i) tenant) with Fkey.Pattern.src_port = Some (1024 + i) }
  in
  for i = 0 to n - 1 do
    let c =
      {
        Rules.Rule_compiler.tenant;
        acl_pattern = pattern i;
        queue = 1 + (i land 3);
        tunnels = [];
        tcam_entries = 1;
      }
    in
    match Tor.Vrf.install vrf c with
    | Ok _ -> ()
    | Error (`Tcam_full | `Install_fault) -> invalid_arg "hotpath_vrf_lookup"
  done;
  let probe k =
    let i, sport, d =
      match k land 3 with
      | 0 | 1 -> (k mod pinned, 9, dst (k mod pinned))
      | 2 -> (let i = pinned + (k mod (n - pinned)) in (i, 1024 + i, dst 0))
      | _ -> (n + k, 7, dst 0)
    in
    Fkey.make ~src_ip:(src i) ~dst_ip:d ~src_port:sport ~dst_port:80
      ~proto:Fkey.Tcp ~tenant
  in
  let flows = Array.init 64 probe in
  let reps = if smoke then 20 else 2_000 in
  let sink = ref 0 in
  let run_scenario () =
    for _ = 1 to reps do
      for j = 0 to Array.length flows - 1 do
        sink := !sink + Tor.Vrf.classify vrf (Array.unsafe_get flows j)
      done
    done
  in
  let min_time = if smoke then 0.02 else 0.2 in
  let timed = time_runs ~min_time run_scenario in
  ignore !sink;
  mk_result
    ~scenario:(Printf.sprintf "hotpath/vrf-lookup/%d" n)
    ~unit_:"lookup"
    ~params:
      [
        ("rule_sets", float_of_int n);
        ("pinned_lanes", float_of_int pinned);
        ("probe_flows", float_of_int (Array.length flows));
      ]
    ~ops:(reps * Array.length flows) timed

let run_hotpath ~smoke =
  [
    hotpath_cache_hit ~smoke;
    hotpath_fkey_hash ~smoke;
    hotpath_packed_probe ~smoke;
    hotpath_pack ~smoke;
    hotpath_rule_cache ~smoke;
    hotpath_vrf_lookup ~smoke ~rule_sets:8;
    hotpath_vrf_lookup ~smoke ~rule_sets:512;
  ]

(* --- workload generator --- *)

(* A standalone source VM whose egress discards: the scenarios price
   the generator's own work (port allocation, size draw, packet
   construction, pacing events), not the vswitch datapath — the
   hotpath group already prices that. *)
let loadgen_vm ~engine ~name ~octet =
  Host.Vm.create ~engine ~name ~vcpus:2 ~tenant
    ~ip:(Ipv4.of_octets 10 7 9 octet)
    ~mac:(Netcore.Mac.of_int (0x9000 + octet))

(* Launch-to-completion cost of one generated flow: every flow is a
   single message, and the engine drains between batches so ports
   recycle and the queue never grows across runs. ops_per_sec is the
   flows/sec the generator sustains. *)
let loadgen_launch_case ~smoke =
  let engine = Engine.create ~seed:7 () in
  let vm = loadgen_vm ~engine ~name:"bench.gen" ~octet:1 in
  let config =
    {
      Workloads.Flowgen.default_config with
      Workloads.Flowgen.mean_flow_bytes = 1448.0;
      message_gap = Simtime.span_us 1.0;
    }
  in
  let fg =
    Workloads.Flowgen.create ~engine ~vm ~dst_ip:(Ipv4.of_octets 10 7 9 99)
      ~dst_port_base:30000 config
  in
  let n = if smoke then 2_000 else 20_000 in
  let run () =
    for _ = 1 to n do
      Workloads.Flowgen.launch fg
    done;
    Engine.run engine
  in
  let min_time = if smoke then 0.02 else 0.2 in
  let timed = time_runs ~min_time run in
  mk_result ~scenario:"loadgen/flow-launch" ~unit_:"flow"
    ~params:
      [
        ("flows_per_run", float_of_int n);
        ("message_bytes", 1448.0);
      ]
    ~ops:n timed

(* Concurrency scaling: pile up live flows (long pacing gaps, nothing
   completes) and show the generator's own state is flat — the same
   port bitset at quarter fill and at full fill. *)
let loadgen_live_case ~smoke =
  let per_gen = if smoke then 2_000 else 55_000 in
  let words_quarter = ref 0 and words_full = ref 0 and live = ref 0 in
  let build_and_fill () =
    let engine = Engine.create ~seed:7 () in
    let mk i =
      let vm =
        loadgen_vm ~engine ~name:(Printf.sprintf "bench.live%d" i) ~octet:(2 + i)
      in
      Workloads.Flowgen.create ~engine ~vm ~dst_ip:(Ipv4.of_octets 10 7 9 99)
        ~dst_port_base:30000
        {
          Workloads.Flowgen.default_config with
          (* Multi-message flows with hour-long gaps: all stay live. *)
          Workloads.Flowgen.mean_flow_bytes = 10.0 *. 1448.0;
          message_gap = Simtime.span_sec 3600.0;
        }
    in
    let gens = [| mk 0; mk 1 |] in
    let state_words () =
      Array.fold_left
        (fun acc g -> acc + Workloads.Flowgen.state_words g)
        0 gens
    in
    for i = 1 to per_gen do
      Array.iter Workloads.Flowgen.launch gens;
      if i = per_gen / 4 then words_quarter := state_words ()
    done;
    words_full := state_words ();
    live :=
      Array.fold_left (fun acc g -> acc + Workloads.Flowgen.live_flows g) 0 gens
  in
  let min_time = if smoke then 0.0 else 0.1 in
  let min_runs = 1 in
  let timed = time_runs ~min_time ~min_runs build_and_fill in
  mk_result
    ~scenario:(Printf.sprintf "loadgen/%dk-live" (2 * per_gen / 1000))
    ~unit_:"flow"
    ~params:
      [
        ("live_flows", float_of_int !live);
        ("state_words_quarter_fill", float_of_int !words_quarter);
        ("state_words_full_fill", float_of_int !words_full);
      ]
    ~ops:(2 * per_gen) timed

(* One tenant churn event: a two-phase departure (demote + detach
   profile + abort timer) immediately committed to a new server, then
   the engine drains the timer bookkeeping. *)
let loadgen_churn_case ~smoke =
  let engine = Engine.create ~seed:7 () in
  let tb = Testbed.create ~engine ~server_count:2 () in
  let attached =
    Testbed.add_vm tb
      (Testbed.vm_spec ~server:0 ~name:"bench.churn" ~ip_last_octet:1 ())
  in
  let rm =
    Fastrak.Rule_manager.create ~engine ~config:Fastrak.Config.default
      ~tor:tb.Testbed.tor
      ~servers:(Array.to_list tb.Testbed.servers)
      ()
  in
  let vm_ip = Host.Vm.ip attached.Host.Server.vm in
  let vm_tenant = Host.Vm.tenant attached.Host.Server.vm in
  let servers = tb.Testbed.servers in
  let cursor = ref 0 in
  let n = if smoke then 200 else 2_000 in
  let run () =
    for _ = 1 to n do
      let mg =
        Fastrak.Rule_manager.begin_vm_migration rm ~tenant:vm_tenant ~vm_ip
      in
      let i = !cursor in
      cursor := (i + 1) mod Array.length servers;
      ignore
        (Fastrak.Rule_manager.commit_vm_migration rm mg
           ~new_server:(Host.Server.name servers.(i)))
    done;
    Engine.run engine
  in
  let min_time = if smoke then 0.02 else 0.2 in
  let timed = time_runs ~min_time run in
  mk_result ~scenario:"loadgen/churn-event" ~unit_:"migration"
    ~params:[ ("events_per_run", float_of_int n) ]
    ~ops:n timed

(* The diurnal curve sample on the arrival hot path: a sin and a
   couple of float ops, allocation-free. *)
let loadgen_curve_case ~smoke =
  let n = if smoke then 100_000 else 1_000_000 in
  let curve = Workloads.Loadgen.Sinusoid { trough = 0.3 } in
  let run () =
    for i = 1 to n do
      ignore
        (Workloads.Loadgen.curve_multiplier curve
           ~frac:(float_of_int i /. float_of_int n))
    done
  in
  let min_time = if smoke then 0.02 else 0.2 in
  let timed = time_runs ~min_time run in
  mk_result ~scenario:"loadgen/curve-sample" ~unit_:"sample"
    ~params:[ ("samples_per_run", float_of_int n) ]
    ~ops:n timed

let run_workloads ~smoke =
  [
    loadgen_launch_case ~smoke;
    loadgen_live_case ~smoke;
    loadgen_churn_case ~smoke;
    loadgen_curve_case ~smoke;
  ]

(* --- allocation regression gate (@alloc-check) ---

   Allocation counts are deterministic, so smoke sizes suffice. The
   zero bars use a small epsilon: the timing loop itself boxes a
   couple of [Sys.time] floats per *run*, which amortised over the
   per-run op count is well under 0.05 words/op — any real per-op
   allocation (one [Some], one tuple) costs >= 2 whole words. The
   decide bar is 10% of the committed pre-PR BENCH_decision.json
   number (682978.0 words/call at decide/10000c-2000o). The loadgen
   bars price a whole flow launch (packet records, pacing closures)
   and a whole churn event (two-phase migration bookkeeping) — both
   measured at the smoke sizes plus ~30% headroom. *)

let alloc_check () =
  let zero_bar = 0.05 in
  let budgets =
    [
      ("hotpath/cache-hit-exact", zero_bar);
      ("hotpath/fkey-hash", zero_bar);
      ("hotpath/packed-hash-equal", zero_bar);
      (* Packing allocates exactly one 4-field record (5 words). *)
      ("hotpath/packed-of-fkey", 8.0);
      ("hotpath/rule-cache-hit", zero_bar);
      (* The ToR VRF match at both sizes: one probe per mask, no
         closure, no option. *)
      ("hotpath/vrf-lookup/8", zero_bar);
      ("hotpath/vrf-lookup/512", zero_bar);
      ("decide/10000c-2000o", 68297.8);
      (* The always-on observability hot paths: recording into the
         flight ring and bumping an already-seen labeled series must
         both be allocation-free. *)
      ("flight-record", zero_bar);
      ("labeled-counter-incr", zero_bar);
      (* Summary.add on a flat float record updates in place. *)
      ("summary-add", zero_bar);
      (* A flow launch allocates the packet record, the flow-key, and
         the pacing closure; a churn event the two-phase migration
         records and the abort timer. Measured ~121 and ~75 words. *)
      ("loadgen/flow-launch", 160.0);
      ("loadgen/churn-event", 100.0);
      (* One boxed float argument + result across the module boundary. *)
      ("loadgen/curve-sample", 6.0);
      (* The event queue and the engine loop: nothing per event. *)
      ("eventq-churn/2000", zero_bar);
      ("engine/schedule-fire", zero_bar);
    ]
  in
  let results =
    run_hotpath ~smoke:true
    @ [
        decision_case ~smoke:true ~with_baseline:false ~candidates:10_000
          ~offloaded:2_000;
        obs_flight_case ~smoke:true;
        obs_labeled_case ~smoke:true;
        summary_add_case ~smoke:true;
        loadgen_launch_case ~smoke:true;
        loadgen_churn_case ~smoke:true;
        loadgen_curve_case ~smoke:true;
        eventq_churn ~smoke:true ~events:2_000;
        engine_schedule_fire ~smoke:true ~events:2_000;
      ]
  in
  List.filter_map
    (fun r ->
      match List.assoc_opt r.scenario budgets with
      | None -> None
      | Some budget -> Some (r, budget, r.minor_words_per_op <= budget))
    results

(* --- sharded engine --- *)

(* Events/sec of the whole datacenter simulation vs shard count. Each
   op is one simulation event; the baseline runs the identical topology
   and workload on a single engine, so ns_per_op vs baseline prices the
   conservative-lookahead scheduling overhead. *)
let engine_case ~smoke ~racks =
  let config =
    {
      Dcscale.default_config with
      Dcscale.racks;
      duration = (if smoke then 0.05 else 0.25);
      express_messages = (if smoke then 32 else 128);
      soft_messages = (if smoke then 8 else 32);
    }
  in
  let min_time = if smoke then 0.0 else 0.3 in
  let min_runs = if smoke then 1 else 2 in
  let events = ref 0 and windows = ref 0 and shards = ref 1 in
  let timed =
    time_runs ~min_time ~min_runs (fun () ->
        let r = Dcscale.run ~config () in
        events := r.Dcscale.events;
        windows := r.Dcscale.windows;
        shards := r.Dcscale.shard_count)
  in
  let baseline =
    time_runs ~min_time ~min_runs (fun () ->
        ignore (Dcscale.run ~config:{ config with Dcscale.sharded = false } ()))
  in
  mk_result
    ~scenario:(Printf.sprintf "engine/%dracks-%dshards" racks !shards)
    ~unit_:"event"
    ~params:
      [
        ("racks", float_of_int racks);
        ("shards", float_of_int !shards);
        ("windows", float_of_int !windows);
        ("sim_seconds", config.Dcscale.duration);
      ]
    ~ops:!events ~baseline timed

let run_engine ~smoke =
  let rack_counts = if smoke then [ 1; 4 ] else [ 1; 4; 16; 64 ] in
  engine_schedule_fire ~smoke ~events:(if smoke then 2_000 else 200_000)
  :: List.map (fun racks -> engine_case ~smoke ~racks) rack_counts

(* --- JSON emission --- *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let result_to_json r =
  let b = Buffer.create 256 in
  Buffer.add_string b "    {\n";
  Printf.bprintf b "      \"scenario\": \"%s\",\n" (json_escape r.scenario);
  Printf.bprintf b "      \"unit\": \"%s\",\n" (json_escape r.unit_);
  Buffer.add_string b "      \"params\": {";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "\"%s\": %g" (json_escape k) v)
    r.params;
  Buffer.add_string b "},\n";
  Printf.bprintf b "      \"runs\": %d,\n" r.runs;
  Printf.bprintf b "      \"ns_per_op\": %.1f,\n" r.ns_per_op;
  Printf.bprintf b "      \"ops_per_sec\": %.1f,\n" r.ops_per_sec;
  Printf.bprintf b "      \"minor_words_per_op\": %.1f" r.minor_words_per_op;
  (match r.baseline_ns_per_op with
  | Some bl ->
      Printf.bprintf b ",\n      \"baseline_ns_per_op\": %.1f,\n" bl;
      Printf.bprintf b "      \"speedup_vs_baseline\": %.2f\n"
        (if r.ns_per_op > 0.0 then bl /. r.ns_per_op else 0.0)
  | None -> Buffer.add_string b "\n");
  Buffer.add_string b "    }";
  Buffer.contents b

let write_json ~bench ~out_dir results =
  let path = Filename.concat out_dir ("BENCH_" ^ bench ^ ".json") in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"bench\": \"%s\",\n  \"schema_version\": 1,\n"
    (json_escape bench);
  Printf.fprintf oc "  \"scenarios\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" (List.map result_to_json results));
  close_out oc;
  path
