(* Tests for the FasTrak control plane: FPS, scoring, decision engine,
   measurement engine, demand profiles, and the full rule manager loop. *)

module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Fkey = Netcore.Fkey
module Ipv4 = Netcore.Ipv4

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf tol = Alcotest.check (Alcotest.float tol)
let tenant = Netcore.Tenant.of_int 7

(* --- FPS --- *)

let test_fps_proportional () =
  let split =
    Fastrak.Fps.split ~total_bps:1e9 ~overflow_bps:0.0 ~current:None
      {
        Fastrak.Fps.demand_soft_bps = 3e8;
        demand_hard_bps = 1e8;
        soft_maxed = false;
        hard_maxed = false;
      }
  in
  checkf 1e6 "soft 3/4" 7.5e8 split.Fastrak.Fps.soft.Rules.Rate_limit_spec.rate_bps;
  checkf 1e6 "hard 1/4" 2.5e8 split.Fastrak.Fps.hard.Rules.Rate_limit_spec.rate_bps

let test_fps_sums_to_total_plus_overflow () =
  let split =
    Fastrak.Fps.split ~total_bps:1e9 ~overflow_bps:5e7 ~current:None
      {
        Fastrak.Fps.demand_soft_bps = 9e8;
        demand_hard_bps = 1e8;
        soft_maxed = false;
        hard_maxed = false;
      }
  in
  checkf 1e6 "Ls + Lh = total + 2O" (1e9 +. 1e8)
    (split.Fastrak.Fps.soft.Rules.Rate_limit_spec.rate_bps
    +. split.Fastrak.Fps.hard.Rules.Rate_limit_spec.rate_bps)

let test_fps_floor () =
  let split =
    Fastrak.Fps.split ~total_bps:1e9 ~overflow_bps:0.0 ~current:None
      {
        Fastrak.Fps.demand_soft_bps = 0.0;
        demand_hard_bps = 1e9;
        soft_maxed = false;
        hard_maxed = false;
      }
  in
  checkb "soft floored at 5%" true
    (split.Fastrak.Fps.soft.Rules.Rate_limit_spec.rate_bps >= 0.05 *. 1e9 -. 1.0)

let test_fps_no_demand_even_split () =
  let split =
    Fastrak.Fps.split ~total_bps:1e9 ~overflow_bps:0.0 ~current:None
      {
        Fastrak.Fps.demand_soft_bps = 0.0;
        demand_hard_bps = 0.0;
        soft_maxed = false;
        hard_maxed = false;
      }
  in
  checkf 1e6 "even" 5e8 split.Fastrak.Fps.soft.Rules.Rate_limit_spec.rate_bps

let test_fps_maxed_grows () =
  (* A maxed hardware path must win share even if its measured demand
     equals the soft side (it is clipped by its own limit). *)
  let current =
    Fastrak.Fps.split ~total_bps:1e9 ~overflow_bps:0.0 ~current:None
      {
        Fastrak.Fps.demand_soft_bps = 5e8;
        demand_hard_bps = 5e8;
        soft_maxed = false;
        hard_maxed = false;
      }
  in
  let next =
    Fastrak.Fps.split ~total_bps:1e9 ~overflow_bps:0.0 ~current:(Some current)
      {
        Fastrak.Fps.demand_soft_bps = 4e8;
        demand_hard_bps = 4e8;
        soft_maxed = false;
        hard_maxed = true;
      }
  in
  checkb "hard grows past half" true
    (next.Fastrak.Fps.hard.Rules.Rate_limit_spec.rate_bps
    > current.Fastrak.Fps.hard.Rules.Rate_limit_spec.rate_bps)

let test_fps_unlimited_total () =
  let split =
    Fastrak.Fps.split ~total_bps:infinity ~overflow_bps:0.0 ~current:None
      {
        Fastrak.Fps.demand_soft_bps = 1.0;
        demand_hard_bps = 1.0;
        soft_maxed = false;
        hard_maxed = false;
      }
  in
  checkb "both unlimited" true
    (Rules.Rate_limit_spec.is_unlimited split.Fastrak.Fps.soft
    && Rules.Rate_limit_spec.is_unlimited split.Fastrak.Fps.hard)

let test_fps_maxed_unlimited_current () =
  (* Regression: a maxed side whose current limit is unlimited used to
     boost to 1.25 * infinity, making share_soft = inf/inf = NaN and
     installing NaN into both limiters. The boost must fall back to
     measured demand. *)
  let current =
    Some
      {
        Fastrak.Fps.soft = Rules.Rate_limit_spec.unlimited;
        hard = Rules.Rate_limit_spec.unlimited;
      }
  in
  let split =
    Fastrak.Fps.split ~total_bps:1e9 ~overflow_bps:5e7 ~current
      {
        Fastrak.Fps.demand_soft_bps = 4e8;
        demand_hard_bps = 2e8;
        soft_maxed = true;
        hard_maxed = true;
      }
  in
  let soft = split.Fastrak.Fps.soft.Rules.Rate_limit_spec.rate_bps in
  let hard = split.Fastrak.Fps.hard.Rules.Rate_limit_spec.rate_bps in
  checkb "soft finite" true (Float.is_finite soft);
  checkb "hard finite" true (Float.is_finite hard);
  (* With the boost disarmed the split follows measured demand 2:1. *)
  checkf 1e6 "soft by demand" (2.0 /. 3.0 *. 1e9 +. 5e7) soft;
  checkf 1e6 "hard by demand" (1.0 /. 3.0 *. 1e9 +. 5e7) hard

let prop_fps_split_finite =
  QCheck2.Test.make ~name:"fps split never NaN/negative" ~count:1000
    QCheck2.Gen.(
      let demand =
        oneof [ pure 0.0; float_bound_exclusive 2e9; pure 1e15; pure neg_infinity ]
      in
      quad demand demand (pair bool bool) (pair (int_range 0 2) (int_range 0 1)))
    (fun (ds, dh, (sm, hm), (cur_kind, ov_kind)) ->
      let overflow = if ov_kind = 0 then 0.0 else 5e7 in
      let current =
        match cur_kind with
        | 0 -> None
        | 1 ->
            (* Both sides unlimited: the maxed-boost corner. *)
            Some
              {
                Fastrak.Fps.soft = Rules.Rate_limit_spec.unlimited;
                hard = Rules.Rate_limit_spec.unlimited;
              }
        | _ ->
            Some
              {
                Fastrak.Fps.soft = Rules.Rate_limit_spec.make ~rate_bps:2e8 ();
                hard = Rules.Rate_limit_spec.make ~rate_bps:8e8 ();
              }
      in
      let split =
        Fastrak.Fps.split ~total_bps:1e9 ~overflow_bps:overflow ~current
          {
            Fastrak.Fps.demand_soft_bps = ds;
            demand_hard_bps = dh;
            soft_maxed = sm;
            hard_maxed = hm;
          }
      in
      let ok v = Float.is_finite v && v >= 0.0 in
      ok split.Fastrak.Fps.soft.Rules.Rate_limit_spec.rate_bps
      && ok split.Fastrak.Fps.hard.Rules.Rate_limit_spec.rate_bps)

(* --- Scoring --- *)

let test_scoring () =
  checkf 1e-9 "S = n*pps" 600.0
    (Fastrak.Scoring.score ~epochs_active:3 ~median_pps:200.0 ());
  checkf 1e-9 "priority multiplies" 1200.0
    (Fastrak.Scoring.score ~epochs_active:3 ~median_pps:200.0 ~priority:2.0 ());
  checkf 1e-9 "inactive scores zero" 0.0
    (Fastrak.Scoring.score ~epochs_active:0 ~median_pps:5000.0 ())

let test_scoring_mfu_not_elephant () =
  (* A service with 1000 small flows at ~3 packets each (3000 pps) must
     outrank a single elephant at 300 pps, regardless of bytes. *)
  let service = Fastrak.Scoring.score ~epochs_active:6 ~median_pps:3000.0 () in
  let elephant = Fastrak.Scoring.score ~epochs_active:6 ~median_pps:300.0 () in
  checkb "pps rules" true (service > elephant)

(* --- Decision engine --- *)

let candidate ?(score = 100.0) ?(entries = 2) ?(group = None) ~port () =
  {
    Fastrak.Decision_engine.pattern =
      { Fkey.Pattern.any with Fkey.Pattern.src_port = Some port };
    tenant;
    vm_ip = Ipv4.of_string "10.7.0.1";
    score;
    tcam_entries = entries;
    group;
  }

let decide ?(offloaded = []) ?(tcam_free = 100) ?(max_offloads = None)
    ?(min_score = 1.0) candidates =
  Fastrak.Decision_engine.decide ~candidates ~offloaded ~tcam_free ~max_offloads
    ~min_score ()

let ports l =
  List.sort compare
    (List.filter_map
       (fun (c : Fastrak.Decision_engine.candidate) ->
         c.Fastrak.Decision_engine.pattern.Fkey.Pattern.src_port)
       l)

let test_decide_ranks_by_score () =
  let d =
    decide ~tcam_free:4
      [ candidate ~score:10.0 ~port:1 (); candidate ~score:30.0 ~port:2 ();
        candidate ~score:20.0 ~port:3 () ]
  in
  Alcotest.check (Alcotest.list Alcotest.int) "top two fit" [ 2; 3 ]
    (ports d.Fastrak.Decision_engine.offload)

let test_decide_respects_capacity () =
  let d = decide ~tcam_free:3 [ candidate ~entries:2 ~port:1 (); candidate ~entries:2 ~port:2 () ] in
  checki "only one fits" 1 (List.length d.Fastrak.Decision_engine.offload)

let test_decide_min_score () =
  let d = decide ~min_score:50.0 [ candidate ~score:10.0 ~port:1 () ] in
  checki "below threshold" 0 (List.length d.Fastrak.Decision_engine.offload)

let test_decide_max_offloads () =
  let d =
    decide ~max_offloads:(Some 1)
      [ candidate ~score:10.0 ~port:1 (); candidate ~score:30.0 ~port:2 () ]
  in
  Alcotest.check (Alcotest.list Alcotest.int) "one only" [ 2 ]
    (ports d.Fastrak.Decision_engine.offload)

let test_decide_demotes_losers () =
  let old = candidate ~score:5.0 ~port:1 () in
  let d =
    decide
      ~offloaded:[ (old.Fastrak.Decision_engine.pattern, old) ]
      ~tcam_free:0
      [ candidate ~score:50.0 ~port:2 (); old ]
  in
  (* The freed entries of the demoted candidate fund the new winner. *)
  Alcotest.check (Alcotest.list Alcotest.int) "new winner" [ 2 ]
    (ports d.Fastrak.Decision_engine.offload);
  Alcotest.check (Alcotest.list Alcotest.int) "old demoted" [ 1 ]
    (ports d.Fastrak.Decision_engine.demote)

let test_decide_keeps_winners () =
  let old = candidate ~score:50.0 ~port:1 () in
  let d =
    decide
      ~offloaded:[ (old.Fastrak.Decision_engine.pattern, old) ]
      ~tcam_free:10 [ old; candidate ~score:10.0 ~port:2 () ]
  in
  Alcotest.check (Alcotest.list Alcotest.int) "kept" [ 1 ]
    (ports d.Fastrak.Decision_engine.keep);
  checkb "not re-offloaded" true
    (not (List.exists (fun c -> ports [ c ] = [ 1 ]) d.Fastrak.Decision_engine.offload))

let test_decide_idle_offloaded_demoted () =
  let old = candidate ~score:0.0 ~port:1 () in
  let d = decide ~offloaded:[ (old.Fastrak.Decision_engine.pattern, old) ] [] in
  Alcotest.check (Alcotest.list Alcotest.int) "idle demoted" [ 1 ]
    (ports d.Fastrak.Decision_engine.demote)

let test_decide_group_all_or_none () =
  (* Group of two needing 4 entries total: with only 3 free, neither
     member may be taken even though one would fit. *)
  let g = Some 1 in
  let d =
    decide ~tcam_free:3
      [ candidate ~score:100.0 ~entries:2 ~group:g ~port:1 ();
        candidate ~score:90.0 ~entries:2 ~group:g ~port:2 () ]
  in
  checki "none taken" 0 (List.length d.Fastrak.Decision_engine.offload);
  let d2 =
    decide ~tcam_free:4
      [ candidate ~score:100.0 ~entries:2 ~group:g ~port:1 ();
        candidate ~score:90.0 ~entries:2 ~group:g ~port:2 () ]
  in
  checki "both taken" 2 (List.length d2.Fastrak.Decision_engine.offload)

let test_decide_group_negative_scores () =
  (* Regression: [build_units] used to fold group scores from 0.0, so a
     group whose members all score below zero ranked at 0.0 — above any
     hotter (less negative) singleton. With a budget that fits only one
     unit, the pre-fix code offloads the cold group instead of the hot
     singleton. *)
  let g = Some 1 in
  let candidates =
    [
      candidate ~score:(-10.0) ~entries:1 ~group:g ~port:1 ();
      candidate ~score:(-20.0) ~entries:1 ~group:g ~port:2 ();
      candidate ~score:(-5.0) ~entries:2 ~port:3 ();
    ]
  in
  let d = decide ~min_score:(-100.0) ~tcam_free:2 candidates in
  Alcotest.check (Alcotest.list Alcotest.int) "hot singleton outranks cold group"
    [ 3 ]
    (ports d.Fastrak.Decision_engine.offload);
  (* The bug lived in [build_units], which the list baseline still
     goes through — it must agree. *)
  let b =
    Fastrak.Decision_engine.decide_list_baseline ~candidates ~offloaded:[]
      ~tcam_free:2 ~max_offloads:None ~min_score:(-100.0) ()
  in
  Alcotest.check (Alcotest.list Alcotest.int) "baseline agrees" [ 3 ]
    (ports b.Fastrak.Decision_engine.offload)

let test_decide_matches_list_baseline () =
  (* The hashtable rewrite must agree with the retained list-based
     implementation on randomized inputs: same offload/demote/keep
     sets. Seeded via Dcsim.Rng so failures reproduce. *)
  let rng = Dcsim.Rng.create ~seed:20260806 in
  for trial = 1 to 200 do
    let n = 1 + Dcsim.Rng.int rng 60 in
    let candidates =
      List.init n (fun i ->
          candidate
            ~score:(Dcsim.Rng.float rng 1000.0)
            ~entries:(1 + Dcsim.Rng.int rng 4)
            ~group:
              (if Dcsim.Rng.int rng 10 = 0 then Some (Dcsim.Rng.int rng 5)
               else None)
            ~port:i ())
    in
    let offloaded =
      List.filter_map
        (fun (c : Fastrak.Decision_engine.candidate) ->
          if Dcsim.Rng.int rng 3 = 0 then
            Some (c.Fastrak.Decision_engine.pattern, c)
          else None)
        candidates
    in
    let tcam_free = Dcsim.Rng.int rng 120 in
    let max_offloads =
      if Dcsim.Rng.bool rng then None else Some (Dcsim.Rng.int rng (n + 1))
    in
    let min_score = Dcsim.Rng.float rng 500.0 in
    let fast =
      Fastrak.Decision_engine.decide ~candidates ~offloaded ~tcam_free
        ~max_offloads ~min_score ()
    in
    let slow =
      Fastrak.Decision_engine.decide_list_baseline ~candidates ~offloaded
        ~tcam_free ~max_offloads ~min_score ()
    in
    let label what =
      Printf.sprintf "trial %d (%d cands, %d offloaded): %s" trial n
        (List.length offloaded) what
    in
    let check_same what a b =
      Alcotest.check (Alcotest.list Alcotest.int) (label what) (ports a) (ports b)
    in
    check_same "offload" slow.Fastrak.Decision_engine.offload
      fast.Fastrak.Decision_engine.offload;
    check_same "demote" slow.Fastrak.Decision_engine.demote
      fast.Fastrak.Decision_engine.demote;
    check_same "keep" slow.Fastrak.Decision_engine.keep
      fast.Fastrak.Decision_engine.keep
  done

let test_decide_scratch_reuse_matches_baseline () =
  (* One scratch reused across every trial (the production pattern: a
     ToR controller owns one for its lifetime): residue from call N
     must not leak into call N+1, so each call must still agree with
     the stateless list baseline. *)
  let scratch = Fastrak.Decision_engine.create_scratch () in
  let rng = Dcsim.Rng.create ~seed:20260808 in
  for trial = 1 to 100 do
    let n = 1 + Dcsim.Rng.int rng 60 in
    let candidates =
      List.init n (fun i ->
          candidate
            ~score:(Dcsim.Rng.float rng 1000.0)
            ~entries:(1 + Dcsim.Rng.int rng 4)
            ~group:
              (if Dcsim.Rng.int rng 10 = 0 then Some (Dcsim.Rng.int rng 5)
               else None)
            ~port:i ())
    in
    let offloaded =
      List.filter_map
        (fun (c : Fastrak.Decision_engine.candidate) ->
          if Dcsim.Rng.int rng 3 = 0 then
            Some (c.Fastrak.Decision_engine.pattern, c)
          else None)
        candidates
    in
    let tcam_free = Dcsim.Rng.int rng 120 in
    let max_offloads =
      if Dcsim.Rng.bool rng then None else Some (Dcsim.Rng.int rng (n + 1))
    in
    let min_score = Dcsim.Rng.float rng 500.0 in
    let fast =
      Fastrak.Decision_engine.decide ~scratch ~candidates ~offloaded ~tcam_free
        ~max_offloads ~min_score ()
    in
    let slow =
      Fastrak.Decision_engine.decide_list_baseline ~candidates ~offloaded
        ~tcam_free ~max_offloads ~min_score ()
    in
    let label what =
      Printf.sprintf "trial %d (%d cands, %d offloaded): %s" trial n
        (List.length offloaded) what
    in
    let check_same what a b =
      Alcotest.check (Alcotest.list Alcotest.int) (label what) (ports a) (ports b)
    in
    check_same "offload" slow.Fastrak.Decision_engine.offload
      fast.Fastrak.Decision_engine.offload;
    check_same "demote" slow.Fastrak.Decision_engine.demote
      fast.Fastrak.Decision_engine.demote;
    check_same "keep" slow.Fastrak.Decision_engine.keep
      fast.Fastrak.Decision_engine.keep
  done

(* Ties are the point: scores come from four values, so equal-score
   units are common and only the pattern tie-break can order them. *)
let prop_decide_permutation_invariant =
  QCheck2.Test.make ~name:"decide is invariant under candidate order"
    ~count:500
    QCheck2.Gen.(
      let spec = triple (int_range 0 3) (int_range 1 4) (int_range 0 12) in
      list_size (int_range 1 24) spec >>= fun specs ->
      let candidates =
        List.mapi
          (fun i (score, entries, g) ->
            candidate
              ~score:(10.0 *. float_of_int score)
              ~entries
              ~group:(if g < 3 then Some g else None)
              ~port:i ())
          specs
      in
      quad (pure candidates) (shuffle_l candidates) (int_range 0 30)
        (opt (int_range 0 10)))
    (fun (candidates, permuted, tcam_free, max_offloads) ->
      let offloaded =
        List.filter_map
          (fun (c : Fastrak.Decision_engine.candidate) ->
            match c.Fastrak.Decision_engine.pattern.Fkey.Pattern.src_port with
            | Some p when p mod 3 = 0 -> Some (c.Fastrak.Decision_engine.pattern, c)
            | _ -> None)
          candidates
      in
      let run f cands =
        let (d : Fastrak.Decision_engine.decision) =
          f ~candidates:cands ~offloaded ~tcam_free ~max_offloads
            ~min_score:5.0 ()
        in
        (ports d.offload, ports d.demote, ports d.keep)
      in
      let fast ~candidates ~offloaded ~tcam_free ~max_offloads ~min_score () =
        Fastrak.Decision_engine.decide ~candidates ~offloaded ~tcam_free
          ~max_offloads ~min_score ()
      in
      let slow ~candidates ~offloaded ~tcam_free ~max_offloads ~min_score () =
        Fastrak.Decision_engine.decide_list_baseline ~candidates ~offloaded
          ~tcam_free ~max_offloads ~min_score ()
      in
      let reference = run fast candidates in
      reference = run fast permuted
      && reference = run slow candidates
      && reference = run slow permuted)

(* --- Measurement engine --- *)

let me_config =
  {
    Fastrak.Config.default with
    Fastrak.Config.epoch_period = Simtime.span_ms 100.0;
    poll_gap = Simtime.span_ms 40.0;
    epochs_per_interval = 2;
    history_intervals = 2;
  }

let test_me_measures_pps () =
  let engine = Engine.create () in
  (* A synthetic counter source: 500 packets and 50 KB per poll-gap. *)
  let f =
    Fkey.make ~src_ip:(Ipv4.of_string "10.7.0.1") ~dst_ip:(Ipv4.of_string "10.7.0.2")
      ~src_port:10 ~dst_port:20 ~proto:Fkey.Tcp ~tenant
  in
  let stats = Vswitch.Flow_stats.create () in
  Engine.every engine (Simtime.span_ms 1.0) (fun () ->
      Vswitch.Flow_stats.record stats f ~packets:2 ~bytes:200;
      `Continue);
  let me =
    Fastrak.Measurement_engine.create ~engine ~config:me_config ~name:"t"
      ~stats
      ~classify:(fun flow ->
        Some
          ( Fkey.Pattern.src_aggregate flow,
            {
              Fastrak.Measurement_engine.tenant;
              vm_ip = flow.Fkey.src_ip;
              direction = `Outgoing;
            } ))
  in
  let reports = ref [] in
  Fastrak.Measurement_engine.on_report me (fun r -> reports := r :: !reports);
  Fastrak.Measurement_engine.start me;
  Engine.run ~until:(Simtime.of_sec 1.0) engine;
  checkb "reports emitted" true (List.length !reports >= 2);
  let r = List.hd !reports in
  (match r.Fastrak.Measurement_engine.entries with
  | [ e ] ->
      (* 2 packets per ms = 2000 pps; bytes = 100/packet -> 1.6 Mb/s. *)
      checkb "pps ~2000" true (Float.abs (e.median_pps -. 2000.0) < 120.0);
      checkb "bps ~1.6e6" true (Float.abs (e.median_bps -. 1.6e6) < 1.6e5);
      checkb "active epochs counted" true (e.epochs_active >= 2);
      checkb "destination learned" true
        (List.exists (Ipv4.equal (Ipv4.of_string "10.7.0.2")) e.destinations)
  | l -> Alcotest.failf "expected one aggregate, got %d" (List.length l));
  checkb "intervals counted" true
    (Fastrak.Measurement_engine.intervals_completed me >= 2)

let test_me_idle_flows_dropped_from_report () =
  let engine = Engine.create () in
  let f =
    Fkey.make ~src_ip:(Ipv4.of_string "10.7.0.1") ~dst_ip:(Ipv4.of_string "10.7.0.2")
      ~src_port:10 ~dst_port:20 ~proto:Fkey.Tcp ~tenant
  in
  (* Counters never move: the flow exists but is idle. *)
  let stats = Vswitch.Flow_stats.create () in
  Vswitch.Flow_stats.record stats f ~packets:42 ~bytes:4200;
  let me =
    Fastrak.Measurement_engine.create ~engine ~config:me_config ~name:"t"
      ~stats
      ~classify:(fun flow ->
        Some
          ( Fkey.Pattern.src_aggregate flow,
            {
              Fastrak.Measurement_engine.tenant;
              vm_ip = flow.Fkey.src_ip;
              direction = `Outgoing;
            } ))
  in
  let last = ref None in
  Fastrak.Measurement_engine.on_report me (fun r -> last := Some r);
  Fastrak.Measurement_engine.start me;
  Engine.run ~until:(Simtime.of_sec 1.0) engine;
  match !last with
  | Some r -> checki "no active entries" 0 (List.length r.Fastrak.Measurement_engine.entries)
  | None -> Alcotest.fail "expected a report"

let test_me_idle_record_freed () =
  (* Traffic for the first 300 ms, then the counters freeze while the
     flow stays in every poll (as an idle datapath flow does), then
     traffic again from 1.5 s. Epochs take 140 ms (100 ms period plus
     the 40 ms gap) and the history window is four epochs, so the
     report at 840 ms sees a fully idle window. *)
  let engine = Engine.create () in
  let f =
    Fkey.make ~src_ip:(Ipv4.of_string "10.7.0.1") ~dst_ip:(Ipv4.of_string "10.7.0.2")
      ~src_port:10 ~dst_port:20 ~proto:Fkey.Tcp ~tenant
  in
  let stats = Vswitch.Flow_stats.create () in
  Engine.every engine (Simtime.span_ms 1.0) (fun () ->
      let now = Simtime.to_sec (Engine.now engine) in
      if now < 0.3 || now >= 1.5 then
        Vswitch.Flow_stats.record stats f ~packets:2 ~bytes:200;
      `Continue);
  let me =
    Fastrak.Measurement_engine.create ~engine ~config:me_config ~name:"t"
      ~stats
      ~classify:(fun flow ->
        Some
          ( Fkey.Pattern.src_aggregate flow,
            {
              Fastrak.Measurement_engine.tenant;
              vm_ip = flow.Fkey.src_ip;
              direction = `Outgoing;
            } ))
  in
  let entries = ref [] in
  Fastrak.Measurement_engine.on_report me (fun r ->
      entries := List.length r.Fastrak.Measurement_engine.entries :: !entries);
  Fastrak.Measurement_engine.start me;
  let records_at sec =
    Engine.run ~until:(Simtime.of_sec sec) engine;
    Fastrak.Measurement_engine.aggregates me
  in
  checki "active aggregate has a record" 1 (records_at 0.6);
  checki "idle for a full window: record freed" 0 (records_at 0.9);
  checki "idle flow still polled: no record" 0 (records_at 1.45);
  checki "revived aggregate has a record" 1 (records_at 2.0);
  Alcotest.check (Alcotest.list Alcotest.int) "report entries per interval"
    [ 1; 1; 0; 0; 0; 1; 1 ] (List.rev !entries)

let test_me_aggregate_span_lifecycle () =
  (* Same timing as [test_me_idle_record_freed], plus a second flow
     whose counters never move. Each aggregate's span opens at its
     first classified packet and closes at the first report with no
     active sample; freeing and re-creating the record does not
     re-open it. *)
  let engine = Engine.create () in
  let flow src =
    Fkey.make ~src_ip:(Ipv4.of_string src) ~dst_ip:(Ipv4.of_string "10.7.0.9")
      ~src_port:10 ~dst_port:20 ~proto:Fkey.Tcp ~tenant
  in
  let active = flow "10.7.0.1" and idle = flow "10.7.0.2" in
  let stats = Vswitch.Flow_stats.create () in
  Vswitch.Flow_stats.record stats idle ~packets:5 ~bytes:500;
  Engine.every engine (Simtime.span_ms 1.0) (fun () ->
      let now = Simtime.to_sec (Engine.now engine) in
      if now < 0.3 || now >= 1.5 then
        Vswitch.Flow_stats.record stats active ~packets:2 ~bytes:200;
      `Continue);
  let me =
    Fastrak.Measurement_engine.create ~engine ~config:me_config ~name:"t"
      ~stats
      ~classify:(fun flow ->
        Some
          ( Fkey.Pattern.src_aggregate flow,
            {
              Fastrak.Measurement_engine.tenant;
              vm_ip = flow.Fkey.src_ip;
              direction = `Outgoing;
            } ))
  in
  let name_of = Hashtbl.create 4 and events = ref [] in
  Obs.Trace.use_callback (fun now ev ->
      let ms = int_of_float (Float.round (Simtime.to_sec now *. 1000.0)) in
      match ev with
      | Obs.Trace.Span_begin { span; kind = "aggregate"; name; _ } ->
          Hashtbl.replace name_of span name;
          events := Printf.sprintf "begin %s @%d" name ms :: !events
      | Obs.Trace.Span_end { span; outcome; _ } -> (
          match Hashtbl.find_opt name_of span with
          | Some name ->
              events := Printf.sprintf "%s %s @%d" outcome name ms :: !events
          | None -> ())
      | _ -> ());
  Fun.protect ~finally:Obs.Trace.disable (fun () ->
      Fastrak.Measurement_engine.start me;
      Engine.run ~until:(Simtime.of_sec 2.5) engine);
  let name f = Obs.Trace.pattern_to_string (Fkey.Pattern.src_aggregate f) in
  Alcotest.check
    (Alcotest.list Alcotest.string)
    "aggregate spans"
    [
      (* Same-instant begins follow the counter table's read order. *)
      "begin " ^ name idle ^ " @140";
      "begin " ^ name active ^ " @140";
      "idle " ^ name idle ^ " @280";
      "idle " ^ name active ^ " @840";
    ]
    (List.rev !events)

let test_me_counter_reset_clamped () =
  (* A flow's last packet closes its counter and the ME's next read
     retires it, so a later flow reusing the key is counted from zero:
     its samples are its own traffic, never a negative delta or the old
     flow's total. *)
  let engine = Engine.create () in
  let f =
    Fkey.make ~src_ip:(Ipv4.of_string "10.7.0.1") ~dst_ip:(Ipv4.of_string "10.7.0.2")
      ~src_port:10 ~dst_port:20 ~proto:Fkey.Tcp ~tenant
  in
  let stats = Vswitch.Flow_stats.create () in
  Engine.every engine (Simtime.span_ms 1.0) (fun () ->
      let now = Simtime.to_sec (Engine.now engine) in
      if now < 0.3 then Vswitch.Flow_stats.record stats f ~packets:2 ~bytes:200
      else if now >= 0.5 then
        Vswitch.Flow_stats.record stats f ~packets:1 ~bytes:100;
      `Continue);
  (* Epoch poll windows sit at [100,140], [240,280], [380,420], ...:
     the read at 420 ms is the first past the FIN. *)
  ignore
    (Engine.at engine (Simtime.of_ms 300.0) (fun () ->
         Vswitch.Flow_stats.close stats f));
  let me =
    Fastrak.Measurement_engine.create ~engine ~config:me_config ~name:"t"
      ~stats
      ~classify:(fun flow ->
        Some
          ( Fkey.Pattern.src_aggregate flow,
            {
              Fastrak.Measurement_engine.tenant;
              vm_ip = flow.Fkey.src_ip;
              direction = `Outgoing;
            } ))
  in
  let reports = ref [] in
  Fastrak.Measurement_engine.on_report me (fun r -> reports := r :: !reports);
  Fastrak.Measurement_engine.start me;
  Engine.run ~until:(Simtime.of_ms 410.0) engine;
  checki "closed counter kept until read" 1 (Vswitch.Flow_stats.flow_count stats);
  Engine.run ~until:(Simtime.of_ms 450.0) engine;
  checki "retired by the read past its FIN" 0
    (Vswitch.Flow_stats.flow_count stats);
  Engine.run ~until:(Simtime.of_sec 1.0) engine;
  (match Vswitch.Flow_stats.find stats f with
  | Some (packets, _) ->
      checkb "reused key counted from zero" true (packets >= 490 && packets <= 510)
  | None -> Alcotest.fail "reused key has no counter");
  checkb "reports emitted" true (!reports <> []);
  List.iter
    (fun (r : Fastrak.Measurement_engine.report) ->
      List.iter
        (fun (e : Fastrak.Measurement_engine.entry) ->
          checkb "median_pps non-negative" true (e.median_pps >= 0.0);
          checkb "median_bps non-negative" true (e.median_bps >= 0.0);
          checkb "last_pps non-negative" true (e.last_pps >= 0.0))
        r.Fastrak.Measurement_engine.entries)
    !reports;
  match !reports with
  | { Fastrak.Measurement_engine.entries = [ e ]; _ } :: _ ->
      checkf 30.0 "reused key samples its own rate" 1000.0 e.last_pps
  | _ -> Alcotest.fail "expected a last report with one aggregate"

(* The copy-snapshot measurement engine the mark-based one replaced,
   kept as the reference: each epoch copies a poll of cumulative
   counters into a table, polls again [poll_gap] later, and sums the
   clamped differences per aggregate. Spans and metrics left out. *)
module Snapshot_me = struct
  module Me = Fastrak.Measurement_engine

  type record = {
    owner : Me.owner;
    pps : Dcsim.Ring.t;
    bps : Dcsim.Ring.t;
    mutable dests : Ipv4.t list;
    mutable dest_count : int;
  }

  let start ~engine ~(config : Fastrak.Config.t) ~poll ~classify ~on_report =
    let limit = max 1 (config.epochs_per_interval * config.history_intervals) in
    let records : (Fkey.Pattern.t, record) Hashtbl.t = Hashtbl.create 64 in
    let scratch = Array.make limit 0.0 in
    let intervals = ref 0 in
    let epoch k =
      let snap1 = Fkey.Table.create 64 in
      List.iter (fun (flow, p, b) -> Fkey.Table.replace snap1 flow (p, b)) (poll ());
      ignore
        (Engine.after engine config.poll_gap (fun () ->
             let gap = Simtime.span_to_sec config.poll_gap in
             let sums = Hashtbl.create 32 in
             List.iter
               (fun (flow, p2, b2) ->
                 match classify flow with
                 | None -> ()
                 | Some (pattern, owner) ->
                     let p1, b1 =
                       Option.value (Fkey.Table.find_opt snap1 flow) ~default:(0, 0)
                     in
                     let dp = float_of_int (max 0 (p2 - p1)) /. gap in
                     let db = float_of_int (max 0 (b2 - b1)) *. 8.0 /. gap in
                     if dp > 0.0 || db > 0.0 then begin
                       let r =
                         match Hashtbl.find_opt records pattern with
                         | Some r -> r
                         | None ->
                             let r =
                               {
                                 owner;
                                 pps = Dcsim.Ring.create ~capacity:limit;
                                 bps = Dcsim.Ring.create ~capacity:limit;
                                 dests = [];
                                 dest_count = 0;
                               }
                             in
                             Hashtbl.replace records pattern r;
                             r
                       in
                       let dst = flow.Fkey.dst_ip in
                       if
                         dp > 0.0 && r.dest_count < 64 (* the engine's cap *)
                         && not (List.exists (Ipv4.equal dst) r.dests)
                       then begin
                         r.dests <- dst :: r.dests;
                         r.dest_count <- r.dest_count + 1
                       end;
                       let p0, b0 =
                         Option.value (Hashtbl.find_opt sums pattern) ~default:(0.0, 0.0)
                       in
                       Hashtbl.replace sums pattern (p0 +. dp, b0 +. db)
                     end)
               (poll ());
             Hashtbl.iter
               (fun pattern r ->
                 let p, b =
                   Option.value (Hashtbl.find_opt sums pattern) ~default:(0.0, 0.0)
                 in
                 Dcsim.Ring.push r.pps p;
                 Dcsim.Ring.push r.bps b)
               records;
             k ()))
    in
    let positive x = x > 0.0 in
    let median ring =
      Dcsim.Stats.median_in_place scratch (Dcsim.Ring.filter_into positive ring scratch)
    in
    let report () =
      let entries = ref [] in
      Hashtbl.filter_map_inplace
        (fun pattern r ->
          let actives = Dcsim.Ring.count positive r.pps in
          if actives = 0 then None
          else begin
            let latest ring = Option.value (Dcsim.Ring.latest ring) ~default:0.0 in
            entries :=
              {
                Me.pattern;
                owner = r.owner;
                last_pps = latest r.pps;
                last_bps = latest r.bps;
                median_pps = median r.pps;
                median_bps = median r.bps;
                epochs_active = actives;
                destinations = r.dests;
              }
              :: !entries;
            Some r
          end)
        records;
      incr intervals;
      on_report { Me.interval_index = !intervals; entries = !entries }
    in
    let rec loop i =
      ignore
        (Engine.after engine config.epoch_period (fun () ->
             epoch (fun () ->
                 if i + 1 >= config.epochs_per_interval then begin
                   report ();
                   loop 0
                 end
                 else loop (i + 1))))
    in
    loop 0
end

(* Random record / FIN / key-reuse traffic on four keys over two
   aggregates, at half-millisecond offsets so no operation shares an
   instant with a mark or a read (those fall on whole milliseconds).
   The reference polls the same table and is started first, so at a
   read instant it polls before the real engine retires closed
   counters. Reports must match bit for bit. *)
let prop_me_marks_match_snapshot =
  QCheck2.Test.make ~name:"mark-based ME matches the copy-snapshot reference"
    ~count:150
    QCheck2.Gen.(
      let op = oneof [ map (fun p -> `Record p) (int_range 1 9); pure `Fin ] in
      list_size (int_range 0 400)
        (pair (int_range 0 1_999) (pair (int_range 0 3) op)))
    (fun ops ->
      let engine = Engine.create () in
      let stats = Vswitch.Flow_stats.create () in
      let flow k =
        Fkey.make ~src_ip:(Ipv4.of_string "10.7.0.1")
          ~dst_ip:(Ipv4.of_string (Printf.sprintf "10.7.0.%d" (10 + k)))
          ~src_port:(10 + (k mod 2)) ~dst_port:(20 + k) ~proto:Fkey.Tcp ~tenant
      in
      List.iter
        (fun (ms, (k, op)) ->
          let at = Simtime.of_sec ((float_of_int ms +. 0.5) /. 1000.0) in
          ignore
            (Engine.at engine at (fun () ->
                 match op with
                 | `Record p ->
                     Vswitch.Flow_stats.record stats (flow k) ~packets:p
                       ~bytes:(p * 977)
                 | `Fin -> Vswitch.Flow_stats.close stats (flow k))))
        ops;
      let classify f =
        Some
          ( Fkey.Pattern.src_aggregate f,
            {
              Fastrak.Measurement_engine.tenant;
              vm_ip = f.Fkey.src_ip;
              direction = `Outgoing;
            } )
      in
      let expected = ref [] and got = ref [] in
      Snapshot_me.start ~engine ~config:me_config
        ~poll:(fun () -> Vswitch.Flow_stats.to_list stats)
        ~classify
        ~on_report:(fun r -> expected := r :: !expected);
      let me =
        Fastrak.Measurement_engine.create ~engine ~config:me_config ~name:"t"
          ~stats ~classify
      in
      Fastrak.Measurement_engine.on_report me (fun r -> got := r :: !got);
      Fastrak.Measurement_engine.start me;
      Engine.run ~until:(Simtime.of_sec 2.2) engine;
      !got <> [] && !got = !expected)

(* --- Demand profile --- *)

let test_profile_update_and_clone () =
  let vm_ip = Ipv4.of_string "10.7.0.1" in
  let p = Fastrak.Demand_profile.create ~tenant ~vm_ip in
  let entry pattern =
    {
      Fastrak.Measurement_engine.pattern;
      owner = { Fastrak.Measurement_engine.tenant; vm_ip; direction = `Outgoing };
      last_pps = 10.0;
      last_bps = 100.0;
      median_pps = 10.0;
      median_bps = 100.0;
      epochs_active = 2;
      destinations = [];
    }
  in
  let mine = Fkey.Pattern.from_vm vm_ip tenant in
  Fastrak.Demand_profile.update p
    { Fastrak.Measurement_engine.interval_index = 1; entries = [ entry mine ] };
  checki "one entry" 1 (Fastrak.Demand_profile.entry_count p);
  (* Entries owned by other VMs are ignored. *)
  let other = Ipv4.of_string "10.7.0.9" in
  let foreign =
    {
      (entry (Fkey.Pattern.from_vm other tenant)) with
      Fastrak.Measurement_engine.owner =
        { Fastrak.Measurement_engine.tenant; vm_ip = other; direction = `Outgoing };
    }
  in
  Fastrak.Demand_profile.update p
    { Fastrak.Measurement_engine.interval_index = 2; entries = [ foreign ] };
  checki "still one" 1 (Fastrak.Demand_profile.entry_count p);
  (* Cloning re-homes patterns to the new address. *)
  let clone = Fastrak.Demand_profile.clone_for p ~vm_ip:other in
  checki "clone carries history" 1 (Fastrak.Demand_profile.entry_count clone);
  match Fastrak.Demand_profile.entries clone with
  | [ e ] ->
      checkb "rehomed" true
        (e.Fastrak.Demand_profile.pattern.Fkey.Pattern.src_ip = Some other)
  | _ -> Alcotest.fail "expected one entry"

(* --- End-to-end rule manager --- *)

let fast_config =
  {
    Fastrak.Config.default with
    Fastrak.Config.epoch_period = Simtime.span_ms 100.0;
    poll_gap = Simtime.span_ms 40.0;
    min_score = 100.0;
  }

let hot_and_cold_testbed () =
  let tb = Experiments.Testbed.create ~server_count:2 () in
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
    Fastrak.Rule_manager.create ~engine:tb.Experiments.Testbed.engine
      ~config:fast_config ~tor:tb.Experiments.Testbed.tor
      ~servers:(Array.to_list tb.Experiments.Testbed.servers)
      ()
  in
  (tb, a, b, rm)

let test_rule_manager_offloads_hot_flow () =
  let tb, a, b, rm = hot_and_cold_testbed () in
  Workloads.Transactions.Server.install ~vm:b.Host.Server.vm ~port:9000
    ~response_size:64 ();
  (* A hot transactional service (~ thousands of pps). *)
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
  Fastrak.Rule_manager.start rm;
  Experiments.Testbed.run_for tb ~seconds:1.5;
  checkb "offloaded something" true (Fastrak.Rule_manager.offloaded_count rm > 0);
  (* After offload the placer must route the hot flow via the VF. *)
  checkb "placer redirected" true (Host.Bonding.packets_via_vf a.Host.Server.bonding > 0);
  (* And the system keeps making progress end to end. *)
  let before = Workloads.Transactions.Client.completed client in
  Experiments.Testbed.run_for tb ~seconds:0.5;
  checkb "still progressing" true (Workloads.Transactions.Client.completed client > before)

(* Datapath state follows flow lifetime. A hot finite stream starts on
   the VIF path, is offloaded mid-transfer (its vswitch flow blocked)
   and ends over the express lane; a cold finite stream stays on the
   VIF path throughout. Once the MEs have polled past both ends,
   neither leaves a counter, exact entry, block or handler anywhere.
   Reusing the cold stream's key then counts from zero. *)
let test_finished_flows_leave_no_datapath_state () =
  let tb, a, b, rm = hot_and_cold_testbed () in
  let engine = tb.Experiments.Testbed.engine in
  let b_ip = Host.Vm.ip b.Host.Server.vm in
  Workloads.Stream.install_sink ~vm:b.Host.Server.vm ~port:5001 ();
  Workloads.Stream.install_sink ~vm:b.Host.Server.vm ~port:5002 ();
  let stream ~src_port ~dst_port ~messages ~per_sec =
    Workloads.Stream.start ~engine ~vm:a.Host.Server.vm
      {
        (Workloads.Stream.default_config ~dst_ip:b_ip) with
        Workloads.Stream.src_port;
        dst_port;
        message_size = 1448;
        total_bytes = Some (messages * 1448);
        paced_rate_bps = Some (float_of_int per_sec *. 1448.0 *. 8.0);
      }
  in
  let hot = stream ~src_port:40000 ~dst_port:5001 ~messages:5000 ~per_sec:4000 in
  let cold = stream ~src_port:40001 ~dst_port:5002 ~messages:20 ~per_sec:20 in
  Fastrak.Rule_manager.start rm;
  let servers = tb.Experiments.Testbed.servers in
  let ovs i = Host.Server.ovs servers.(i) in
  let blocked_seen = ref false in
  for _ = 1 to 100 do
    Experiments.Testbed.run_for tb ~seconds:0.01;
    if Vswitch.Ovs.blocked_flows (ovs 0) <> [] then blocked_seen := true
  done;
  checkb "hot stream offloaded while live" true !blocked_seen;
  Experiments.Testbed.run_for tb ~seconds:1.0;
  checkb "both streams finished" true
    (Workloads.Stream.finished hot && Workloads.Stream.finished cold
    && Workloads.Stream.bytes_acked hot = Workloads.Stream.bytes_sent hot
    && Workloads.Stream.bytes_acked cold = Workloads.Stream.bytes_sent cold);
  checkb "hot stream ended over the express lane" true
    (Host.Bonding.packets_via_vf a.Host.Server.bonding > 0);
  let exact_entries () =
    Array.fold_left
      (fun acc srv ->
        List.fold_left
          (fun acc (v : Host.Server.attached) ->
            acc + Vswitch.Flow_cache.exact_count (Vswitch.Ovs.vif_cache v.vif))
          acc (Host.Server.vms srv))
      0 servers
  in
  checki "ovs counters" 0
    (List.length (Vswitch.Ovs.active_flows (ovs 0))
    + List.length (Vswitch.Ovs.active_flows (ovs 1)));
  checki "tor counters" 0
    (List.length (Tor.Tor_switch.offloaded_flows tb.Experiments.Testbed.tor));
  checki "exact entries" 0 (exact_entries ());
  checki "blocked flows" 0
    (List.length (Vswitch.Ovs.blocked_flows (ovs 0))
    + List.length (Vswitch.Ovs.blocked_flows (ovs 1)));
  checki "flow handlers" 0
    (Host.Vm.flow_handler_count a.Host.Server.vm
    + Host.Vm.flow_handler_count b.Host.Server.vm);
  (* Same five-tuple again: a new flow, counted from zero. *)
  let again = stream ~src_port:40001 ~dst_port:5002 ~messages:10 ~per_sec:20 in
  let key =
    Fkey.make ~src_ip:(Host.Vm.ip a.Host.Server.vm) ~dst_ip:b_ip ~src_port:40001
      ~dst_port:5002 ~proto:Fkey.Tcp ~tenant:(Host.Vm.tenant a.Host.Server.vm)
  in
  let peak = ref 0 in
  for _ = 1 to 700 do
    Experiments.Testbed.run_for tb ~seconds:0.001;
    match Vswitch.Flow_stats.find (Vswitch.Ovs.stats (ovs 0)) key with
    | Some (packets, _) -> peak := max !peak packets
    | None -> ()
  done;
  checkb "reused stream finished" true (Workloads.Stream.finished again);
  checki "reused key counted from zero" 10 !peak

let test_rule_manager_ignores_cold_flow () =
  let tb, a, b, rm = hot_and_cold_testbed () in
  (* A 20-pps trickle: score ~40 < min_score 100. *)
  Workloads.Background.install_scp_sink ~vm:b.Host.Server.vm;
  ignore
    (Workloads.Background.scp ~engine:tb.Experiments.Testbed.engine
       ~vm:a.Host.Server.vm
       ~dst_ip:(Host.Vm.ip b.Host.Server.vm)
       ~rate_bps:(20.0 *. 1448.0 *. 8.0)
       ());
  Fastrak.Rule_manager.start rm;
  Experiments.Testbed.run_for tb ~seconds:1.5;
  checki "nothing offloaded" 0 (Fastrak.Rule_manager.offloaded_count rm)

let test_rule_manager_demotes_idle () =
  let tb, a, b, rm = hot_and_cold_testbed () in
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
  Fastrak.Rule_manager.start rm;
  Experiments.Testbed.run_for tb ~seconds:1.5;
  checkb "offloaded while hot" true (Fastrak.Rule_manager.offloaded_count rm > 0);
  Workloads.Transactions.Client.stop client;
  (* History (N*M epochs) must age out, then the DE demotes. *)
  Experiments.Testbed.run_for tb ~seconds:3.0;
  checki "demoted when idle" 0 (Fastrak.Rule_manager.offloaded_count rm)

let test_rule_manager_vm_migration () =
  let tb, a, b, rm = hot_and_cold_testbed () in
  Workloads.Transactions.Server.install ~vm:b.Host.Server.vm ~port:9000
    ~response_size:64 ();
  ignore
    (Workloads.Transactions.Client.start ~engine:tb.Experiments.Testbed.engine
       ~vm:a.Host.Server.vm
       {
         Workloads.Transactions.Client.servers = [ (Host.Vm.ip b.Host.Server.vm, 9000) ];
         connections = 1;
         outstanding = 8;
         request_size = 64;
         total_requests = None;
         src_port_base = 50_000;
       });
  Fastrak.Rule_manager.start rm;
  Experiments.Testbed.run_for tb ~seconds:1.5;
  checkb "offloaded" true (Fastrak.Rule_manager.offloaded_count rm > 0);
  (* §4.1.2: before VM migration all offloaded flows return to the
     hypervisor, and the demand profile travels with the VM. *)
  let a_ip = Host.Vm.ip a.Host.Server.vm in
  let mg = Fastrak.Rule_manager.begin_vm_migration rm ~tenant ~vm_ip:a_ip in
  (* Every rule belonging to the migrating VM is back in software; the
     sink's own offloaded aggregates are untouched. *)
  checkb "vm's rules all returned" true
    (List.for_all
       (fun (p : Fkey.Pattern.t) -> p.Fkey.Pattern.src_ip <> Some a_ip)
       (Fastrak.Tor_controller.offloaded_patterns
          (Fastrak.Rule_manager.tor_controller rm)));
  (match Fastrak.Rule_manager.migration_profile mg with
  | Some p -> checkb "profile non-empty" true (Fastrak.Demand_profile.entry_count p > 0)
  | None -> Alcotest.fail "expected a demand profile");
  checkb "commit succeeds" true
    (Fastrak.Rule_manager.commit_vm_migration rm mg ~new_server:"server1")

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    t "fps proportional" test_fps_proportional;
    t "fps sums with overflow" test_fps_sums_to_total_plus_overflow;
    t "fps floor" test_fps_floor;
    t "fps even on no demand" test_fps_no_demand_even_split;
    t "fps maxed grows" test_fps_maxed_grows;
    t "fps unlimited" test_fps_unlimited_total;
    t "fps maxed with unlimited current" test_fps_maxed_unlimited_current;
    QCheck_alcotest.to_alcotest prop_fps_split_finite;
    t "scoring formula" test_scoring;
    t "scoring mfu not elephant" test_scoring_mfu_not_elephant;
    t "decide ranks by score" test_decide_ranks_by_score;
    t "decide respects capacity" test_decide_respects_capacity;
    t "decide min score" test_decide_min_score;
    t "decide max offloads" test_decide_max_offloads;
    t "decide demotes losers" test_decide_demotes_losers;
    t "decide keeps winners" test_decide_keeps_winners;
    t "decide demotes idle" test_decide_idle_offloaded_demoted;
    t "decide group all-or-none" test_decide_group_all_or_none;
    t "decide group of negative scores" test_decide_group_negative_scores;
    t "decide matches list baseline" test_decide_matches_list_baseline;
    t "decide with reused scratch matches baseline"
      test_decide_scratch_reuse_matches_baseline;
    QCheck_alcotest.to_alcotest prop_decide_permutation_invariant;
    t "measurement engine pps" test_me_measures_pps;
    t "measurement engine idle flows" test_me_idle_flows_dropped_from_report;
    t "measurement engine frees idle records" test_me_idle_record_freed;
    t "measurement engine aggregate span lifecycle"
      test_me_aggregate_span_lifecycle;
    t "measurement engine counter reset" test_me_counter_reset_clamped;
    QCheck_alcotest.to_alcotest prop_me_marks_match_snapshot;
    t "demand profile update/clone" test_profile_update_and_clone;
    t "rule manager offloads hot flow" test_rule_manager_offloads_hot_flow;
    t "rule manager ignores cold flow" test_rule_manager_ignores_cold_flow;
    t "finished flows leave no datapath state"
      test_finished_flows_leave_no_datapath_state;
    t "rule manager demotes idle" test_rule_manager_demotes_idle;
    t "rule manager vm migration" test_rule_manager_vm_migration;
  ]
