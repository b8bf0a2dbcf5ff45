(* Host-time instrumentation for one benchmark process.

   Everything here lives in the benchmark, outside lib/: the program
   under test is never edited to be measured.

   - Progress clock (every timed run). A SIGALRM timer reads the
     simulated clock, [Obs.Trace.now] (each workload points it at its
     engine or cluster clock). Soak.run and Dcscale.run build and run in
     one call, so the run starts at the first tick that sees simulated
     time leave zero. Each tick records (host seconds, simulated
     seconds) into a buffer outside the OCaml heap, so the host time of
     every slice of the simulated span is known; run.py combines the
     slices of repeated runs of one input (see [chunks]). One clock
     read per millisecond; nothing else runs in an untraced process.
   - Stack sampler (traced runs). A SIGPROF handler charges each sample
     to the innermost frame whose source file lies under lib/<dir>/, so
     a stdlib call is charged to its lib/ caller.
   - GC and heap (traced runs). Each tick also records the major heap
     size and drains the in-process Runtime_events cursor for minor and
     major GC time.

   OCaml runs signal handlers at the next poll point, so a sample lands
   where the interrupted code polls; signals that arrive while one is
   pending coalesce, which is why run.py scales sample shares by the
   traced run's wall time rather than by the sampling period. *)

(* CLOCK_MONOTONIC, nanoseconds. *)
let wall () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* The simulated span already completed by earlier phases (table4 runs
   two engines back to back, each starting at simulated zero). *)
let sim_offset = ref 0.0

let traced = ref false
let watching = ref false
let started = ref Float.nan
let stopped = ref Float.nan

(* Host time spent between [pause] and [resume] inside the run window
   (table4 builds its second row there); excluded from [run_s]. *)
let paused = ref false
let paused_total = ref 0.0
let paused_at = ref 0.0

let sampling () =
  (not (Float.is_nan !started)) && Float.is_nan !stopped && not !paused

(* ---- Runtime_events: GC time inside the run ---- *)

let gc_counting = ref false
let minor_ns = ref 0
let major_ns = ref 0
let lost_events = ref 0
let cursor = ref None
let minor_begin = ref 0
let major_begin = ref 0

let gc_callbacks =
  let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t) in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ t phase ->
      match phase with
      | Runtime_events.EV_MINOR -> minor_begin := ts t
      | EV_MAJOR_SLICE -> major_begin := ts t
      | _ -> ())
    ~runtime_end:(fun _ t phase ->
      if !gc_counting then
        match phase with
        | Runtime_events.EV_MINOR -> minor_ns := !minor_ns + (ts t - !minor_begin)
        | EV_MAJOR_SLICE -> major_ns := !major_ns + (ts t - !major_begin)
        | _ -> ())
    ~lost_events:(fun _ n -> lost_events := !lost_events + n)
    ()

let poll_gc () =
  match !cursor with
  | Some c -> ignore (Runtime_events.read_poll c gc_callbacks None)
  | None -> ()

(* ---- Progress samples ---- *)

(* Malloc'd, so the buffer does not count in top_heap_words. Three
   floats per tick: host seconds (pauses excluded), simulated seconds,
   major heap words (traced runs only). *)
let max_ticks = 1 lsl 17
let buf = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (3 * max_ticks)
let ticks = ref 0
let tick_host i = buf.{3 * i}
let tick_sim i = buf.{(3 * i) + 1}
let tick_heap i = buf.{(3 * i) + 2}

(* Written out without helper calls, whose float results would be
   boxed: an untraced tick allocates nothing, so the run's heap figures
   stay the program's own. *)
let record () =
  let i = !ticks in
  if i < max_ticks then begin
    buf.{3 * i} <- (Int64.to_float (Monotonic_clock.now ()) *. 1e-9) -. !paused_total;
    buf.{(3 * i) + 1} <-
      !sim_offset +. (float_of_int (Obs.Trace.now () :> int) *. 1e-9);
    if !traced then
      buf.{(3 * i) + 2} <- float_of_int (Gc.quick_stat ()).Gc.heap_words;
    ticks := i + 1
  end

(* ---- Stack sampler ---- *)

let samples : (string, int ref) Hashtbl.t = Hashtbl.create 64
let total_samples = ref 0

(* The directory under lib/ is the library, except lib/core, which
   holds the library named [fastrak]. *)
let library_of_dir = function "core" -> "fastrak" | d -> d

(* "lib/tor/vrf.ml" -> Some "tor.vrf"; anything else -> None. *)
let classify_file f =
  match String.split_on_char '/' f with
  | [ "lib"; dir; file ] ->
      Some (library_of_dir dir ^ "." ^ Filename.remove_extension file)
  | _ -> None

(* Innermost first, inlined frames included. *)
let innermost_lib_frame bt =
  let rec in_slot slot =
    let here =
      match Printexc.Slot.location (Printexc.convert_raw_backtrace_slot slot) with
      | Some loc -> classify_file loc.Printexc.filename
      | None -> None
      | exception Failure _ -> None
    in
    match (here, Printexc.get_raw_backtrace_next_slot slot) with
    | Some _, _ -> here
    | None, Some inlined_caller -> in_slot inlined_caller
    | None, None -> None
  in
  let n = Printexc.raw_backtrace_length bt in
  let rec go i =
    if i >= n then None
    else
      match in_slot (Printexc.get_raw_backtrace_slot bt i) with
      | Some _ as r -> r
      | None -> go (i + 1)
  in
  go 0

let on_prof _ =
  if sampling () then begin
    let key =
      match innermost_lib_frame (Printexc.get_callstack 256) with
      | Some k -> k
      | None -> "other"
    in
    incr total_samples;
    match Hashtbl.find_opt samples key with
    | Some r -> incr r
    | None -> Hashtbl.add samples key (ref 1)
  end

(* ---- Timers and phases ---- *)

let prof_period = 0.001
let untraced_tick = 0.01
let traced_tick = 0.005
let watch_tick = 0.0002

(* Minor words allocated inside the run window, pauses excluded. *)
let minor_at_start = ref 0.0
let minor_paused = ref 0.0
let minor_words_run = ref 0.0

let set_timer which period =
  ignore
    (Unix.setitimer which { Unix.it_interval = period; it_value = period })

let mark_start () =
  if Float.is_nan !started then begin
    started := wall ();
    minor_at_start := Gc.minor_words ();
    if !traced then begin
      poll_gc ();
      gc_counting := true
    end;
    record ();
    set_timer Unix.ITIMER_REAL (if !traced then traced_tick else untraced_tick)
  end

let on_alarm _ =
  if Float.is_nan !started then begin
    if !watching && (Obs.Trace.now () :> int) > 0 then mark_start ()
  end
  else if sampling () then begin
    record ();
    if !traced then poll_gc ()
  end

let pause () =
  record ();
  if !traced then begin
    poll_gc ();
    gc_counting := false
  end;
  paused := true;
  paused_at := wall ();
  minor_paused := Gc.minor_words ()

let resume () =
  paused_total := !paused_total +. (wall () -. !paused_at);
  minor_at_start := !minor_at_start +. (Gc.minor_words () -. !minor_paused);
  paused := false;
  if !traced then begin
    poll_gc ();
    gc_counting := true
  end;
  record ()

(* [watch] arms start detection for workloads that build and run in one
   call; table4 calls [mark_start] itself between its phases. *)
let install ~trace ~watch =
  traced := trace;
  watching := watch;
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle on_alarm);
  if trace then begin
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None);
    Sys.set_signal Sys.sigprof (Sys.Signal_handle on_prof);
    set_timer Unix.ITIMER_PROF prof_period
  end;
  if watch then set_timer Unix.ITIMER_REAL watch_tick

let mark_stop () =
  set_timer Unix.ITIMER_REAL 0.0;
  if !traced then set_timer Unix.ITIMER_PROF 0.0;
  record ();
  stopped := wall ();
  minor_words_run := Gc.minor_words () -. !minor_at_start;
  if !traced then begin
    poll_gc ();
    gc_counting := false;
    Runtime_events.pause ()
  end

let run_s () = !stopped -. !started -. !paused_total

(* ---- Figures derived from the progress samples ---- *)

let span_end () = tick_sim (!ticks - 1)

(* Host time (pauses excluded) at which simulated time reached [s],
   interpolated between the ticks around it. *)
let host_at s =
  let n = !ticks in
  let rec go i =
    if i >= n then tick_host (n - 1)
    else if tick_sim i >= s then
      if i = 0 then tick_host 0
      else
        let s0 = tick_sim (i - 1) and s1 = tick_sim i in
        let h0 = tick_host (i - 1) and h1 = tick_host i in
        if s1 <= s0 then h1 else h0 +. ((h1 -. h0) *. (s -. s0) /. (s1 -. s0))
    else go (i + 1)
  in
  go 0

(* Host seconds spent on each of [n] equal slices of the simulated span
   [0, end]; they sum to [run_s]. Repeats of one input do the same work
   in each slice, so run.py can take the fastest repeat slice by slice. *)
let chunks n =
  if !ticks < 2 then []
  else
    let t = span_end () in
    let at k =
      if k = 0 then tick_host 0
      else host_at (t *. float_of_int k /. float_of_int n)
    in
    List.init n (fun k -> at (k + 1) -. at k)

(* Least-squares slope of major-heap words against simulated seconds
   over the second half of the span. *)
let heap_growth () =
  let half = span_end () /. 2.0 in
  let pts =
    List.init !ticks (fun i -> (tick_sim i, tick_heap i))
    |> List.filter (fun (s, _) -> s >= half)
  in
  let k = float_of_int (List.length pts) in
  let mean f = List.fold_left (fun a p -> a +. f p) 0.0 pts /. k in
  let mx = mean fst and my = mean snd in
  let sxy = mean (fun (x, y) -> (x -. mx) *. (y -. my))
  and sxx = mean (fun (x, _) -> (x -. mx) *. (x -. mx)) in
  if sxx = 0.0 then Float.nan else sxy /. sxx

let sample_counts () =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) samples [] |> List.sort compare
