type t = {
  shards : Engine.t array;
  mutable lookahead : Simtime.span option;
  mutable running : Engine.t option;
  mutable stopping : bool;
  mutable windows : int;
  (* End of the last lockstep window started. After a mid-window stop,
     shards may sit at different clocks below this; the next [run]
     first completes the interrupted window so every shard is back on a
     common boundary before new windows open. *)
  mutable horizon : Simtime.t;
}

let create ~shards =
  if Array.length shards = 0 then invalid_arg "Cluster.create: no shards";
  Array.iteri
    (fun i e ->
      Array.iteri
        (fun j e' ->
          if i < j && e == e' then
            invalid_arg "Cluster.create: duplicate shard engine")
        shards;
      ignore e)
    shards;
  {
    shards;
    lookahead = None;
    running = None;
    stopping = false;
    windows = 0;
    horizon = Simtime.zero;
  }

let shards t = t.shards
let shard_count t = Array.length t.shards

let constrain_lookahead t span =
  if Simtime.span_to_ns span <= 0 then
    invalid_arg "Cluster.constrain_lookahead: lookahead must be positive";
  t.lookahead <-
    Some
      (match t.lookahead with
      | None -> span
      | Some l -> if Simtime.span_compare span l < 0 then span else l)

let lookahead t = t.lookahead

let next_event_time t =
  Array.fold_left
    (fun acc e -> Simtime.min acc (Engine.next_event_time e))
    Simtime.never t.shards

let now t =
  match t.running with
  | Some e -> Engine.now e
  | None ->
      Array.fold_left
        (fun acc e -> Simtime.max acc (Engine.now e))
        Simtime.zero t.shards

let events_processed t =
  Array.fold_left (fun acc e -> acc + Engine.events_processed e) 0 t.shards

let windows_run t = t.windows

let stop t =
  t.stopping <- true;
  match t.running with Some e -> Engine.stop e | None -> ()

(* Run one shard's slice of a window, tracking which engine is live so
   [now] (and the trace clock built on it) reads the executing shard. *)
let run_shard_window t e ~until_exclusive =
  t.running <- Some e;
  Engine.run_window e ~until_exclusive;
  t.running <- None

(* One shard: no cross-shard channel can exist, so no lookahead bound
   is needed and the cluster degenerates to the plain event loop — a
   single-rack run keeps its exact historical event schedule. *)
let run_single ?until t =
  let e = t.shards.(0) in
  t.running <- Some e;
  Fun.protect
    ~finally:(fun () -> t.running <- None)
    (fun () -> Engine.run ?until e)

let run_sharded ?until t =
  let lookahead =
    match t.lookahead with
    | Some l -> l
    | None ->
        invalid_arg
          "Cluster.run: no channel registered a lookahead bound (create the \
           cross-shard Fabric.Channels with ~cluster)"
  in
  (* Complete a window a previous [stop] interrupted: within one window
     every send still lands at or after the horizon, so finishing it is
     safe and restores all shards to a common boundary. *)
  if
    Simtime.(t.horizon > Simtime.zero)
    && Array.exists (fun e -> Simtime.(Engine.now e < t.horizon)) t.shards
  then
    Array.iter
      (fun e ->
        if not t.stopping then run_shard_window t e ~until_exclusive:t.horizon)
      t.shards;
  let continue = ref true in
  while !continue && not t.stopping do
    let start = next_event_time t in
    if Simtime.equal start Simtime.never then continue := false
    else
      match until with
      | Some limit when Simtime.(start > limit) ->
          (* Every pending event lies beyond the horizon: park all
             clocks at the limit, as [Engine.run ~until] would. *)
          Array.iter (fun e -> Engine.advance_clock e limit) t.shards;
          continue := false
      | _ ->
          let window_end = Simtime.add start lookahead in
          t.windows <- t.windows + 1;
          t.horizon <- window_end;
          let final =
            match until with
            | Some limit -> Simtime.(limit < window_end)
            | None -> false
          in
          Array.iter
            (fun e ->
              if not t.stopping then begin
                t.running <- Some e;
                if final then Engine.run ?until e
                else Engine.run_window e ~until_exclusive:window_end;
                t.running <- None
              end)
            t.shards;
          (* A fully executed window (partial or not) leaves every
             shard on a consistent boundary: nothing to complete on
             the next [run]. *)
          if not t.stopping then t.horizon <- Simtime.zero;
          if final then continue := false
  done

let run ?until t =
  t.stopping <- false;
  if Array.length t.shards = 1 then run_single ?until t
  else run_sharded ?until t
