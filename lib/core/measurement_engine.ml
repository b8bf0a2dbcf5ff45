module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Fkey = Netcore.Fkey

type owner = {
  tenant : Netcore.Tenant.id;
  vm_ip : Netcore.Ipv4.t;
  direction : [ `Outgoing | `Incoming ];
}

type entry = {
  pattern : Fkey.Pattern.t;
  owner : owner;
  last_pps : float;
  last_bps : float;
  median_pps : float;
  median_bps : float;
  epochs_active : int;
  destinations : Netcore.Ipv4.t list;
}

type report = { interval_index : int; entries : entry list }

let max_destinations = 64

type record = {
  rec_owner : owner;
  pps_history : Dcsim.Ring.t;  (* one sample per epoch, capacity N*M *)
  bps_history : Dcsim.Ring.t;
  mutable rec_destinations : Netcore.Ipv4.t list;  (* most recent first, deduped *)
  mutable dest_count : int;
  (* This epoch's sums, pushed as its sample and zeroed at epoch end. *)
  mutable epoch_pps : float;
  mutable epoch_bps : float;
}

type t = {
  engine : Engine.t;
  config : Config.t;
  me_name : string;
  stats : Vswitch.Flow_stats.t;
  classify : Fkey.t -> (Fkey.Pattern.t * owner) option;
  records : (Fkey.Pattern.t, record) Hashtbl.t;
  (* Aggregate lifecycle spans, filled only while tracing: every
     pattern ever classified maps to its span (Span.none once closed),
     from its first classified packet to the first report interval with
     no active sample ("idle"); a revival is not re-opened. Kept apart
     from [records], which are freed when idle, so the trace does not
     depend on when a record is dropped. *)
  spans : (Fkey.Pattern.t, Obs.Span.id) Hashtbl.t;
  (* Scratch for interval medians, grown to the history capacity once;
     reused across every aggregate so report building allocates no
     intermediate filtered lists. *)
  scratch : float array;
  mutable running : bool;
  mutable epochs : int;
  mutable intervals : int;
  mutable report_cb : report -> unit;
}

let m_epochs = Obs.Metrics.counter "fastrak.me.epochs"
let m_reports = Obs.Metrics.counter "fastrak.me.reports"

let history_limit config =
  Stdlib.max 1 (config.Config.epochs_per_interval * config.Config.history_intervals)

let create ~engine ~config ~name ~stats ~classify =
  {
    engine;
    config;
    me_name = name;
    stats;
    classify;
    records = Hashtbl.create 64;
    spans = Hashtbl.create 64;
    scratch = Array.make (history_limit config) 0.0;
    running = false;
    epochs = 0;
    intervals = 0;
    report_cb = ignore;
  }

let on_report t cb = t.report_cb <- cb

let add_destination record dst =
  if
    record.dest_count < max_destinations
    && not (List.exists (Netcore.Ipv4.equal dst) record.rec_destinations)
  then begin
    record.rec_destinations <- dst :: record.rec_destinations;
    record.dest_count <- record.dest_count + 1
  end

let record_for t pattern owner =
  match Hashtbl.find_opt t.records pattern with
  | Some r -> r
  | None ->
      let r =
        {
          rec_owner = owner;
          pps_history = Dcsim.Ring.create ~capacity:(history_limit t.config);
          bps_history = Dcsim.Ring.create ~capacity:(history_limit t.config);
          rec_destinations = [];
          dest_count = 0;
          epoch_pps = 0.0;
          epoch_bps = 0.0;
        }
      in
      Hashtbl.replace t.records pattern r;
      r

(* One flow's counter delta over the poll gap, folded into its
   aggregate's epoch sums. *)
let fold_delta t ~gap_sec flow ~packets ~bytes =
  let tracing = Obs.Trace.enabled () in
  (* A zero delta adds nothing to any sum, so an idle flow is skipped:
     it neither creates a record nor revives one that the last report
     dropped. It is still classified while tracing, because a pattern's
     span opens at its first classification. *)
  if packets > 0 || bytes > 0 || tracing then
    match t.classify flow with
    | None -> ()
    | Some (pattern, owner) ->
        if tracing && not (Hashtbl.mem t.spans pattern) then
          Hashtbl.replace t.spans pattern
            (Obs.Span.start ~now:(Engine.now t.engine) ~kind:"aggregate"
               ~name:(Obs.Trace.pattern_to_string pattern)
               ~track:t.me_name ());
        let dp = float_of_int packets /. gap_sec in
        let db = float_of_int bytes *. 8.0 /. gap_sec in
        if dp > 0.0 || db > 0.0 then begin
          let record = record_for t pattern owner in
          if dp > 0.0 then add_destination record flow.Fkey.dst_ip;
          record.epoch_pps <- record.epoch_pps +. dp;
          record.epoch_bps <- record.epoch_bps +. db
        end

(* One epoch: mark the counters, and after poll_gap fold each flow's
   delta since the mark into per-aggregate pps/bps samples. *)
let run_epoch t k =
  Vswitch.Flow_stats.mark t.stats;
  ignore
    (Engine.after t.engine t.config.Config.poll_gap (fun () ->
         let gap_sec = Simtime.span_to_sec t.config.Config.poll_gap in
         Vswitch.Flow_stats.read_marks t.stats (fold_delta t ~gap_sec);
         (* Every known aggregate gets a sample this epoch — zero if it
            saw no traffic — so epochs_active means what it says. The
            rings overwrite their oldest sample in place: no per-epoch
            trim, no history allocation. *)
         Hashtbl.iter
           (fun _ record ->
             Dcsim.Ring.push record.pps_history record.epoch_pps;
             Dcsim.Ring.push record.bps_history record.epoch_bps;
             record.epoch_pps <- 0.0;
             record.epoch_bps <- 0.0)
           t.records;
         t.epochs <- t.epochs + 1;
         Obs.Metrics.incr m_epochs;
         if Obs.Trace.enabled () then
           Obs.Trace.emit ~now:(Engine.now t.engine)
             (Obs.Trace.Epoch_tick
                { me = t.me_name; epoch = t.epochs; interval = t.intervals });
         k ()))

let positive x = x > 0.0

(* Median of the active (strictly positive) samples, via the shared
   scratch array: filter into the prefix, sort the prefix in place. *)
let median_active t ring =
  let n = Dcsim.Ring.filter_into positive ring t.scratch in
  Dcsim.Stats.median_in_place t.scratch n

let build_report t =
  (* Close the span of every aggregate with no active sample in its
     history window: one whose record is absent (never active, or
     dropped by an earlier report, whose span is closed already) or
     holds only zero samples. Samples before a record was created or
     after it was dropped are all zero, so this is the set a record
     kept for every pattern ever classified would find idle. *)
  if Hashtbl.length t.spans > 0 then
    Hashtbl.filter_map_inplace
      (fun pattern span ->
        if not (Obs.Span.is_live span) then Some span
        else
          match Hashtbl.find_opt t.records pattern with
          | Some record when Dcsim.Ring.count positive record.pps_history > 0 ->
              Some span
          | Some _ | None ->
              Obs.Span.finish ~now:(Engine.now t.engine) span ~outcome:"idle";
              Some Obs.Span.none)
      t.spans;
  let entries = ref [] in
  (* Same bucket order as [Hashtbl.fold], so entries keep their order. *)
  Hashtbl.filter_map_inplace
    (fun pattern record ->
      let actives = Dcsim.Ring.count positive record.pps_history in
      if actives = 0 then
        (* The aggregate went quiet for a whole history window: drop
           its record. A later revival starts a fresh record, just as
           the aggregate's first packet did. *)
        None
      else begin
        let latest ring = Option.value (Dcsim.Ring.latest ring) ~default:0.0 in
        entries :=
          {
            pattern;
            owner = record.rec_owner;
            last_pps = latest record.pps_history;
            last_bps = latest record.bps_history;
            median_pps = median_active t record.pps_history;
            median_bps = median_active t record.bps_history;
            epochs_active = actives;
            destinations = record.rec_destinations;
          }
          :: !entries;
        Some record
      end)
    t.records;
  t.intervals <- t.intervals + 1;
  Obs.Metrics.incr m_reports;
  { interval_index = t.intervals; entries = !entries }

let start t =
  if not t.running then begin
    t.running <- true;
    let rec interval_loop epoch_in_interval =
      if t.running then
        ignore
          (Engine.after t.engine t.config.Config.epoch_period (fun () ->
               if t.running then
                 run_epoch t (fun () ->
                     let next = epoch_in_interval + 1 in
                     if next >= t.config.Config.epochs_per_interval then begin
                       t.report_cb (build_report t);
                       interval_loop 0
                     end
                     else interval_loop next)))
    in
    interval_loop 0
  end

let stop t = t.running <- false
let aggregates t = Hashtbl.length t.records
let epochs_completed t = t.epochs
let intervals_completed t = t.intervals
