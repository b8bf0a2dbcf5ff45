module Simtime = Dcsim.Simtime
module Stats = Dcsim.Stats
module Int_table = Dcsim.Int_table

(* Per-tenant accounting cell. Goodput is cumulative delivered bytes
   stamped with the trace clock at first and last delivery, so the
   achieved rate is bytes over the tenant's own active window — robust
   across experiments of different lengths. Latency is a log-bucketed
   histogram (constant memory, p99 on demand). *)
type cell = {
  mutable contracted_bps : float;  (* nan = no contract registered *)
  mutable p99_slo_us : float;  (* nan = no latency target *)
  mutable bytes : int;
  mutable first_at : Simtime.t;
  mutable last_at : Simtime.t;
  latency : Stats.Histogram.t;
}

let cells : cell Int_table.t = Int_table.create 16

let cell tenant =
  try Int_table.find cells tenant
  with Not_found ->
    let c =
      {
        contracted_bps = Float.nan;
        p99_slo_us = Float.nan;
        bytes = 0;
        first_at = Simtime.zero;
        last_at = Simtime.zero;
        latency = Stats.Histogram.create ();
      }
    in
    Int_table.replace cells tenant c;
    c

let reset () = Int_table.reset cells

let add_contract ~tenant ?tx_bps ?p99_us () =
  let c = cell tenant in
  (match tx_bps with
  | Some bps ->
      c.contracted_bps <-
        (if Float.is_nan c.contracted_bps then bps else c.contracted_bps +. bps)
  | None -> ());
  match p99_us with Some us -> c.p99_slo_us <- us | None -> ()

let observe_goodput ~tenant bytes =
  let c = cell tenant in
  let at = Trace.now () in
  if c.bytes = 0 then c.first_at <- at;
  c.bytes <- c.bytes + bytes;
  c.last_at <- at

let observe_latency_us ~tenant us = Stats.Histogram.add (cell tenant).latency us

(* The FPS machinery deliberately over-provisions each path by the
   overflow allowance (and boosts a maxed path by up to 1.25x), so a
   tenant legitimately rides above its contracted limit for short
   stretches. The default tolerance absorbs that headroom; anything
   beyond it is an isolation breach. *)
let default_tolerance = 0.25

type row = {
  tenant : int;
  contracted_bps : float;
  achieved_bps : float;
  goodput_bytes : int;
  window_s : float;
  latency_p99_us : float;
  latency_samples : int;
  latency_slo_us : float;
  rate_ok : bool;
  latency_ok : bool;
}

let row_of_cell ~tolerance tenant (c : cell) =
  let window_s =
    if c.bytes = 0 then 0.0
    else Simtime.span_to_sec (Simtime.diff c.last_at c.first_at)
  in
  let achieved_bps =
    if window_s > 0.0 then 8.0 *. float_of_int c.bytes /. window_s
    else Float.nan
  in
  let samples = Stats.Histogram.count c.latency in
  let latency_p99_us =
    if samples = 0 then Float.nan else Stats.Histogram.percentile c.latency 99.0
  in
  let rate_ok =
    (* Unknown contract or unmeasurable rate never breaches; an
       unlimited contract cannot. *)
    Float.is_nan c.contracted_bps || Float.is_nan achieved_bps
    || achieved_bps <= c.contracted_bps *. (1.0 +. tolerance)
  in
  let latency_ok =
    Float.is_nan c.p99_slo_us || Float.is_nan latency_p99_us
    || latency_p99_us <= c.p99_slo_us
  in
  {
    tenant;
    contracted_bps = c.contracted_bps;
    achieved_bps;
    goodput_bytes = c.bytes;
    window_s;
    latency_p99_us;
    latency_samples = samples;
    latency_slo_us = c.p99_slo_us;
    rate_ok;
    latency_ok;
  }

let scoreboard ?(tolerance = default_tolerance) () =
  Int_table.fold (fun tenant c acc -> row_of_cell ~tolerance tenant c :: acc)
    cells []
  |> List.sort (fun a b -> compare a.tenant b.tenant)

let fmt_bps v =
  if Float.is_nan v then "-"
  else if v = Float.infinity then "unlimited"
  else if v >= 1e9 then Printf.sprintf "%.2f Gbit/s" (v /. 1e9)
  else if v >= 1e6 then Printf.sprintf "%.1f Mbit/s" (v /. 1e6)
  else Printf.sprintf "%.0f bit/s" v

let fmt_us v = if Float.is_nan v then "-" else Printf.sprintf "%.1f" v

let verdict r =
  match (r.rate_ok, r.latency_ok) with
  | true, true -> "ok"
  | false, true -> "RATE BREACH"
  | true, false -> "P99 BREACH"
  | false, false -> "RATE+P99 BREACH"

let report ?(tolerance = default_tolerance) () =
  let rows = scoreboard ~tolerance () in
  let b = Buffer.create 512 in
  if rows = [] then
    Buffer.add_string b "tenant_slo: no tenants observed\n"
  else begin
    Buffer.add_string b
      (Printf.sprintf "tenant_slo (rate tolerance +%.0f%%):\n"
         (100.0 *. tolerance));
    Buffer.add_string b
      (Printf.sprintf "  %6s  %12s  %12s  %6s  %10s  %10s  %s\n" "tenant"
         "contracted" "achieved" "util" "p99_us" "slo_us" "verdict");
    List.iter
      (fun r ->
        let util =
          if
            Float.is_nan r.contracted_bps || Float.is_nan r.achieved_bps
            || r.contracted_bps = Float.infinity
            || r.contracted_bps <= 0.0
          then "-"
          else
            Printf.sprintf "%.0f%%" (100.0 *. r.achieved_bps /. r.contracted_bps)
        in
        Buffer.add_string b
          (Printf.sprintf "  %6d  %12s  %12s  %6s  %10s  %10s  %s\n" r.tenant
             (fmt_bps r.contracted_bps)
             (fmt_bps r.achieved_bps)
             util
             (fmt_us r.latency_p99_us)
             (fmt_us r.latency_slo_us)
             (verdict r)))
      rows
  end;
  Buffer.contents b

let check ?(tolerance = default_tolerance) monitor ~at =
  List.iter
    (fun r ->
      if not r.rate_ok then
        Monitor.breach monitor ~at ~monitor:"tenant_slo"
          (Printf.sprintf
             "tenant %d achieved %s over a contracted %s (+%.0f%% tolerance)"
             r.tenant (fmt_bps r.achieved_bps)
             (fmt_bps r.contracted_bps)
             (100.0 *. tolerance));
      if not r.latency_ok then
        Monitor.breach monitor ~at ~monitor:"tenant_slo"
          (Printf.sprintf "tenant %d p99 latency %s us over a %s us target"
             r.tenant
             (fmt_us r.latency_p99_us)
             (fmt_us r.latency_slo_us)))
    (scoreboard ~tolerance ())
