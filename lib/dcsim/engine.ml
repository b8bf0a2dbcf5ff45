type t = {
  mutable clock : Simtime.t;
  queue : (unit -> unit) Event_queue.t;
  rng : Rng.t;
  mutable stopping : bool;
  mutable processed : int;
}

type handle = Event_queue.handle

let create ?(seed = 42) () =
  {
    clock = Simtime.zero;
    queue = Event_queue.create ();
    rng = Rng.create ~seed;
    stopping = false;
    processed = 0;
  }

let now t = t.clock
let rng t = t.rng

let at t time fn =
  if Simtime.(time < t.clock) then
    invalid_arg
      (Format.asprintf "Engine.at: %a is before current time %a" Simtime.pp
         time Simtime.pp t.clock);
  Event_queue.push t.queue time fn

let after t span fn = at t (Simtime.add t.clock span) fn
let cancel t handle = Event_queue.cancel t.queue handle

let every t ?start span fn =
  if Simtime.span_to_ns span <= 0 then
    invalid_arg
      (Format.asprintf "Engine.every: period %a is not positive" Simtime.pp_span
         span);
  let first = match start with Some s -> s | None -> Simtime.add t.clock span in
  (* Clamp to now so a periodic task can be started from inside an event
     at (or before) the current instant without tripping [at]'s guard. *)
  let first = Simtime.max first t.clock in
  let rec tick () =
    match fn () with
    | `Stop -> ()
    | `Continue -> ignore (after t span tick)
  in
  ignore (at t first tick)

(* The one event loop: execute events strictly before [before] until the
   queue runs dry there or [stop] is called. Allocates nothing. *)
let rec drain t ~before =
  if not t.stopping then begin
    let time = Event_queue.min_time t.queue in
    if (time : Simtime.t :> int) < (before : Simtime.t :> int) then begin
      t.clock <- time;
      t.processed <- t.processed + 1;
      (Event_queue.take_min t.queue) ();
      drain t ~before
    end
  end

let run ?(until = Simtime.never) t =
  t.stopping <- false;
  drain t
    ~before:
      (if Simtime.equal until Simtime.never then until
       else Simtime.add until (Simtime.span_ns 1));
  (* Events remain beyond the limit: park the clock on it. *)
  if
    (not t.stopping)
    && not (Simtime.equal (Event_queue.min_time t.queue) Simtime.never)
  then t.clock <- until

let run_window t ~until_exclusive =
  t.stopping <- false;
  drain t ~before:until_exclusive;
  (* Leave the clock at the window boundary so a cross-shard injection
     landing exactly on the boundary (the earliest instant the lookahead
     invariant allows) still satisfies [at]'s not-in-the-past guard. *)
  if (not t.stopping) && Simtime.(t.clock < until_exclusive) then
    t.clock <- until_exclusive

let next_event_time t = Event_queue.min_time t.queue

let advance_clock t time = if Simtime.(t.clock < time) then t.clock <- time

let stop t = t.stopping <- true
let events_processed t = t.processed
