module Packet = Netcore.Packet

type t = {
  queues : Packet.t Queue.t array;
  link : Fabric.Link.t;
  mutable busy : bool;
  mutable sent : int;
}

let m_enqueued = Obs.Metrics.counter "tor.qos.enqueued"
let m_sent = Obs.Metrics.counter "tor.qos.sent"
let m_depth = Obs.Metrics.summary "tor.qos.depth"

let highest_nonempty t =
  let rec scan i =
    if i < 0 then None
    else if not (Queue.is_empty t.queues.(i)) then Some i
    else scan (i - 1)
  in
  scan (Array.length t.queues - 1)

(* Hands the link one packet: called to start an idle wire and, as the
   link's feeder, each time the wire frees. *)
let pump t =
  match highest_nonempty t with
  | None -> t.busy <- false
  | Some i ->
      t.sent <- t.sent + 1;
      Obs.Metrics.incr m_sent;
      Fabric.Link.transmit t.link (Queue.pop t.queues.(i))

let create ~classes ~link =
  if classes <= 0 then invalid_arg "Qos_queue.create: classes must be positive";
  let t =
    {
      queues = Array.init classes (fun _ -> Queue.create ());
      link;
      busy = false;
      sent = 0;
    }
  in
  Fabric.Link.set_feeder link (fun () -> pump t);
  t

let classes t = Array.length t.queues

let total_queued t =
  Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.queues

let enqueue t ~queue pkt =
  let queue = Stdlib.max 0 (Stdlib.min queue (Array.length t.queues - 1)) in
  Queue.push pkt t.queues.(queue);
  Obs.Metrics.incr m_enqueued;
  Obs.Metrics.observe m_depth (float_of_int (total_queued t));
  if not t.busy then begin
    t.busy <- true;
    pump t
  end

let queue_length t ~queue =
  if queue < 0 || queue >= Array.length t.queues then 0
  else Queue.length t.queues.(queue)

let packets_sent t = t.sent
