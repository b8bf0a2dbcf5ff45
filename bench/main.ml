(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (printed paper-vs-measured), runs Bechamel
   micro-benchmarks of the core primitives behind each artifact, and
   hosts the scalability scenarios that emit BENCH_*.json.

   Usage: dune exec bench/main.exe [-- quick | fig3 | fig4 | fig5 |
   table1 | table2 | table3 | table4 | fig12 | ablation | bechamel]
   With no argument every paper artifact runs (the default CI path).
   "quick" skips the slowest reproductions.

   Scalability mode: dune exec bench/main.exe -- bench
   [decision|measurement|eventqueue|obs|vswitch|hotpath|engine|workloads]*
   [--smoke] [--out-dir DIR]
   runs the named scenario groups (all of them when none are named) and
   writes one BENCH_<group>.json each; --smoke shrinks sizes so the
   @bench-smoke alias stays cheap enough for every `dune runtest`.
   Scenario list and JSON schema: docs/BENCH.md.

   Allocation gate: dune exec bench/main.exe -- alloc-check (the
   @alloc-check tier-1 alias) fails if any steady-state per-packet or
   per-event scenario allocates or a decide call exceeds its garbage
   budget. *)

open Experiments

let selected = ref []

let want name =
  match !selected with
  | [] -> true
  | l -> List.mem name l || List.mem "all" l || l = [ "quick" ]

let quick () = List.mem "quick" !selected

let line () = print_endline (String.make 84 '=')

let fig3 () =
  line ();
  print_endline "Figure 3: baseline network performance (4 paths x 4 sizes)";
  print_endline
    "paper claims: SR-IOV ~2x burst TPS (60K vs 34K; tun ~25K, rl ~30K);\n\
     tunneling capped ~2 Gb/s; latency gap grows as size shrinks.";
  let points = Microbench.run_fig3 () in
  Microbench.print_points ~title:"Figure 3 (measured)" points

let fig4 () =
  line ();
  print_endline "Figure 4(a): CPU overheads (4 VMs x 1-thread TCP_STREAM)";
  print_endline
    "paper claims: SR-IOV CPU 0.4-0.7x baseline; tunneling ~2.9 CPUs at\n\
     ~1.96 Gb/s (1448 B); rate limiting cannot reach line rate.";
  Cpu_overhead.print_points ~title:"Figure 4(a) (measured)"
    (Cpu_overhead.run_fig4a ());
  print_endline "Figure 4(b): combined-path CPU (1 Gb/s limits)";
  print_endline "paper claims: combined OVS path uses 1.6-3x the CPU of SR-IOV.";
  Cpu_overhead.print_points ~title:"Figure 4(b) (measured)"
    (Cpu_overhead.run_fig4b ())

let fig5 () =
  line ();
  print_endline "Figure 5: combined functionality (OVS+tun+rl@1G vs SR-IOV@1G)";
  print_endline "paper claims: pipelined latency 1.8-2.1x SR-IOV.";
  Microbench.print_points ~title:"Figure 5 (measured)" (Microbench.run_fig5 ())

let table1 () =
  line ();
  Paper_ref.print_table1 ();
  Memcached_eval.print_rows ~title:"Table 1 (measured)"
    (Memcached_eval.run_table1 ())

let table2 () =
  line ();
  Paper_ref.print_table2 ();
  Memcached_eval.print_rows
    ~title:"Table 2 (measured; finish normalised to 2M req/client)"
    (Memcached_eval.run_table2 ())

let table3 () =
  line ();
  Paper_ref.print_table3 ();
  Memcached_eval.print_rows ~title:"Table 3 (measured; finish normalised)"
    (Memcached_eval.run_table3 ())

let table4 () =
  line ();
  Paper_ref.print_table4 ();
  Fastrak_eval.print (Fastrak_eval.run ())

let fig12 () =
  line ();
  Migration_tcp.print (Migration_tcp.run ())

let ablation () =
  line ();
  Ablation.print_scoring (Ablation.run_scoring ());
  Ablation.print_tcam (Ablation.run_tcam ~capacities:[ 2; 6; 12; 24; 2048 ] ());
  Ablation.print_interval
    (Ablation.run_interval ~epochs:[ 0.05; 0.1; 0.25; 0.5 ] ())

(* --- Bechamel micro-benchmarks: one Test.make per table/figure,
   timing the core primitive that artifact exercises hardest. --- *)

let bechamel_tests () =
  let open Bechamel in
  let fkey =
    Netcore.Fkey.make
      ~src_ip:(Netcore.Ipv4.of_string "10.7.0.1")
      ~dst_ip:(Netcore.Ipv4.of_string "10.7.0.2")
      ~src_port:1234 ~dst_port:11211 ~proto:Netcore.Fkey.Tcp
      ~tenant:(Netcore.Tenant.of_int 7)
  in
  let table = Rules.Rule_table.create () in
  for i = 0 to 249 do
    ignore
      (Rules.Rule_table.insert table
         ~pattern:
           {
             Netcore.Fkey.Pattern.any with
             Netcore.Fkey.Pattern.dst_port = Some (20000 + i);
           }
         ~priority:i ())
  done;
  ignore
    (Rules.Rule_table.insert table
       ~pattern:(Netcore.Fkey.Pattern.exact fkey)
       ~priority:1000 ());
  ignore (Rules.Rule_table.lookup table fkey);
  let policy =
    Rules.Policy.create ~tenant:(Netcore.Tenant.of_int 7)
      ~vm_ip:(Netcore.Ipv4.of_string "10.7.0.1")
      ()
  in
  Rules.Policy.add_acl policy
    (Rules.Security_rule.allow_all (Netcore.Tenant.of_int 7));
  [
    (* fig3: the datapath's hot lookup. *)
    Test.make ~name:"fig3/exact-match-cache-hit"
      (Staged.stage (fun () -> ignore (Rules.Rule_table.lookup table fkey)));
    (* fig4: classification + verdict construction. *)
    Test.make ~name:"fig4/policy-classify"
      (Staged.stage (fun () -> ignore (Rules.Policy.classify policy fkey)));
    (* fig5: rule compilation for offload. *)
    Test.make ~name:"fig5/rule-compile"
      (Staged.stage (fun () ->
           ignore (Rules.Rule_compiler.compile_flow ~policy ~flow:fkey)));
    (* table1: flow-key hashing (per-packet work). *)
    Test.make ~name:"table1/fkey-hash"
      (Staged.stage (fun () -> ignore (Netcore.Fkey.hash fkey)));
    (* table2: scoring. *)
    Test.make ~name:"table2/scoring"
      (Staged.stage (fun () ->
           ignore (Fastrak.Scoring.score ~epochs_active:6 ~median_pps:5618.0 ())));
    (* table3: FPS split. *)
    Test.make ~name:"table3/fps-split"
      (Staged.stage (fun () ->
           ignore
             (Fastrak.Fps.split ~total_bps:1e9 ~overflow_bps:5e7 ~current:None
                {
                  Fastrak.Fps.demand_soft_bps = 2e8;
                  demand_hard_bps = 6e8;
                  soft_maxed = false;
                  hard_maxed = true;
                })));
    (* table4: the decision engine over a realistic candidate set. *)
    Test.make ~name:"table4/decision-engine"
      (Staged.stage (fun () ->
           let candidates =
             List.init 64 (fun i ->
                 {
                   Fastrak.Decision_engine.pattern =
                     {
                       Netcore.Fkey.Pattern.any with
                       Netcore.Fkey.Pattern.src_port = Some i;
                     };
                   tenant = Netcore.Tenant.of_int 7;
                   vm_ip = Netcore.Ipv4.of_string "10.7.0.1";
                   score = float_of_int ((i * 37) mod 997);
                   tcam_entries = 1 + (i mod 4);
                   group = None;
                 })
           in
           ignore
             (Fastrak.Decision_engine.decide ~candidates ~offloaded:[]
                ~tcam_free:64 ~min_score:10.0 ())));
    (* fig12: event-queue churn (the simulator's heartbeat). *)
    Test.make ~name:"fig12/event-queue"
      (Staged.stage (fun () ->
           let q = Dcsim.Event_queue.create () in
           for i = 0 to 63 do
             ignore (Dcsim.Event_queue.push q (Dcsim.Simtime.of_ns i) i)
           done;
           while Dcsim.Event_queue.length q > 0 do
             ignore (Dcsim.Event_queue.take_min q)
           done));
  ]

let run_bechamel () =
  line ();
  print_endline "Bechamel micro-benchmarks (one per table/figure)";
  let open Bechamel in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 100) ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"fastrak" (bechamel_tests ()))
  in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "  %-40s %12.1f ns/op\n" name est
      | _ -> Printf.printf "  %-40s (no estimate)\n" name)
    results

(* --- BENCH_*.json scalability scenarios (docs/BENCH.md) --- *)

let print_bench_results results =
  List.iter
    (fun (r : Bench_scenarios.result) ->
      Printf.printf "  %-28s %12.1f ns/%s %14.1f ops/s %10.1f words/op%s\n"
        r.Bench_scenarios.scenario r.Bench_scenarios.ns_per_op
        r.Bench_scenarios.unit_ r.Bench_scenarios.ops_per_sec
        r.Bench_scenarios.minor_words_per_op
        (match r.Bench_scenarios.baseline_ns_per_op with
        | Some bl -> Printf.sprintf "  (%.1fx vs baseline)" (bl /. r.Bench_scenarios.ns_per_op)
        | None -> ""))
    results

let run_bench_mode args =
  let rec parse (smoke, out_dir, groups) = function
    | [] -> (smoke, out_dir, List.rev groups)
    | "--smoke" :: rest -> parse (true, out_dir, groups) rest
    | "--out-dir" :: d :: rest -> parse (smoke, d, groups) rest
    | g :: rest -> parse (smoke, out_dir, g :: groups) rest
  in
  let smoke, out_dir, groups = parse (false, ".", []) args in
  let groups =
    match groups with
    | [] ->
        [
          "decision"; "measurement"; "eventqueue"; "obs"; "vswitch"; "hotpath";
          "engine"; "workloads";
        ]
    | l -> l
  in
  line ();
  Printf.printf "scalability scenarios (%s) -> %s/BENCH_*.json\n"
    (if smoke then "smoke sizes" else "full sizes")
    out_dir;
  List.iter
    (fun group ->
      let results =
        match group with
        | "decision" -> Bench_scenarios.run_decision ~smoke
        | "measurement" -> Bench_scenarios.run_measurement ~smoke
        | "eventqueue" -> Bench_scenarios.run_eventqueue ~smoke
        | "obs" -> Bench_scenarios.run_obs ~smoke
        | "vswitch" -> Bench_scenarios.run_vswitch ~smoke
        | "hotpath" -> Bench_scenarios.run_hotpath ~smoke
        | "engine" -> Bench_scenarios.run_engine ~smoke
        | "workloads" -> Bench_scenarios.run_workloads ~smoke
        | g -> failwith ("unknown bench group: " ^ g)
      in
      let path = Bench_scenarios.write_json ~bench:group ~out_dir results in
      Printf.printf "%s:\n" group;
      print_bench_results results;
      Printf.printf "  wrote %s\n" path)
    groups

(* The allocation regression gate behind the @alloc-check tier-1
   alias: exits non-zero if any steady-state per-packet scenario
   allocates, or if a decide call exceeds 10% of the committed pre-PR
   garbage (BENCH_decision.json). *)
let run_alloc_check () =
  print_endline "allocation regression gate (minor words per op vs budget)";
  let checks = Experiments.Bench_scenarios.alloc_check () in
  let failed = ref false in
  List.iter
    (fun ((r : Bench_scenarios.result), budget, ok) ->
      if not ok then failed := true;
      Printf.printf "  %-28s %12.2f words/op  (budget %10.2f)  %s\n"
        r.Bench_scenarios.scenario r.Bench_scenarios.minor_words_per_op budget
        (if ok then "ok" else "FAIL"))
    checks;
  if !failed then begin
    print_endline "alloc-check: FAILED";
    exit 1
  end
  else print_endline "alloc-check: ok"

let () =
  selected := List.tl (Array.to_list Sys.argv);
  match !selected with
  | [ "alloc-check" ] -> run_alloc_check ()
  | "bench" :: bench_args ->
      print_endline "FasTrak control-plane scalability benchmarks";
      run_bench_mode bench_args;
      line ();
      print_endline "done."
  | _ ->
  (* requests_scale trades run length for statistical smoothness. *)
  Memcached_eval.requests_scale := (if quick () then 0.01 else 0.02);
  print_endline "FasTrak reproduction benchmark harness";
  print_endline "paper: Mysore, Porter, Vahdat - CoNEXT 2013";
  List.iter (fun claim -> print_endline ("  * " ^ claim)) Paper_ref.prose_claims;
  if want "fig3" then fig3 ();
  if want "fig4" then fig4 ();
  if want "fig5" then fig5 ();
  if want "table1" then table1 ();
  if want "table2" then table2 ();
  if want "table3" then table3 ();
  if want "table4" then table4 ();
  if want "fig12" then fig12 ();
  if want "ablation" && not (quick ()) then ablation ();
  if want "bechamel" then run_bechamel ();
  line ();
  print_endline "done."
