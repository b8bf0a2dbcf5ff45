module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Packet = Netcore.Packet
module Fkey = Netcore.Fkey

type config = {
  dst_ip : Netcore.Ipv4.t;
  dst_port : int;
  src_port : int;
  message_size : int;
  window : int;
  ack_every : int;
  total_bytes : int option;
  paced_rate_bps : float option;
}

let default_config ~dst_ip =
  {
    dst_ip;
    dst_port = 5001;
    src_port = 40000;
    message_size = 32000;
    window = 16;
    ack_every = 4;
    total_bytes = None;
    paced_rate_bps = None;
  }

let ack_payload = 64

type t = {
  engine : Engine.t;
  vm : Host.Vm.t;
  config : config;
  flow : Fkey.t;
  mutable in_flight : int;
  mutable bytes_sent : int;
  mutable bytes_acked : int;
  mutable window_start : Simtime.t;
  mutable window_acked : int;
  mutable running : bool;
}

(* Sink bookkeeping is per (vm, port): a message counter per flow.
   Acks are cumulative — they carry the highest message count covered —
   so a duplicate or stale ack can never over-credit the sender, and
   the fin-marked last message of a finite transfer is acked
   immediately even when the message count is not a multiple of
   [ack_every]. *)
let install_sink ?(ack_every = 4) ~vm ~port () =
  let counters : int Fkey.Table.t = Fkey.Table.create 16 in
  let engine = Host.Vm.engine vm in
  Host.Vm.register_listener vm ~port (fun pkt ->
      let flow = pkt.Packet.flow in
      let seen = Option.value (Fkey.Table.find_opt counters flow) ~default:0 in
      let seen = seen + 1 in
      Fkey.Table.replace counters flow seen;
      let fin, count =
        match pkt.Packet.l4 with
        | Packet.App { fin; count } -> (fin, Stdlib.max count seen)
        | _ -> (false, seen)
      in
      (* Credit ack every few messages: delayed acks + GRO batching —
         plus a flush of the tail when the transfer ends. *)
      if fin || seen mod ack_every = 0 then begin
        let ack =
          Packet.create
            ~now:(Engine.now engine)
            ~flow:(Fkey.reverse flow) ~payload:ack_payload
            ~l4:(Packet.App { fin; count })
            ~bulk:true ()
        in
        Host.Vm.send vm ack
      end;
      if fin then Fkey.Table.remove counters flow)

let budget_left t =
  match t.config.total_bytes with
  | None -> true
  | Some budget -> t.bytes_sent < budget

let send_one t =
  if t.running && budget_left t && t.in_flight < t.config.window then begin
    t.in_flight <- t.in_flight + 1;
    t.bytes_sent <- t.bytes_sent + t.config.message_size;
    let count = t.bytes_sent / t.config.message_size in
    (* The last message of a finite transfer carries fin so the sink
       flushes its delayed ack and the tail is always credited. *)
    let fin = not (budget_left t) in
    let pkt =
      Packet.create ~now:(Engine.now t.engine) ~flow:t.flow
        ~payload:t.config.message_size
        ~l4:(Packet.App { fin; count })
        ~bulk:true ()
    in
    Host.Vm.send t.vm pkt;
    true
  end
  else false

let rec fill_window t = if send_one t then fill_window t

(* Delivery-progress heartbeats for the no_blackhole monitor: a
   periodic Flow_progress event carrying cumulative sent/acked bytes.
   Only armed when a monitor is attached at start — a trace file or
   flight recorder alone schedules nothing extra, so those runs stay
   byte-identical to an unobserved run. *)
let heartbeat_interval = Simtime.span_ms 100.0

let flow_label flow =
  Printf.sprintf "%s:%d->%s:%d"
    (Netcore.Ipv4.to_string flow.Fkey.src_ip)
    flow.Fkey.src_port
    (Netcore.Ipv4.to_string flow.Fkey.dst_ip)
    flow.Fkey.dst_port

let start_heartbeat t =
  if Obs.Monitor.attached () then begin
    let label = flow_label t.flow in
    Engine.every t.engine heartbeat_interval (fun () ->
        if t.running then begin
          (* Emit whenever a monitor is listening, even if no trace
             sink is installed — no_blackhole must never watch a
             silent stream. *)
          if Obs.Monitor.attached () || Obs.Trace.enabled () then
            Obs.Trace.emit ~now:(Engine.now t.engine)
              (Obs.Trace.Flow_progress
                 { flow = label; sent = t.bytes_sent; acked = t.bytes_acked });
          `Continue
        end
        else `Stop)
  end

let start ~engine ~vm config =
  let flow =
    Fkey.make ~src_ip:(Host.Vm.ip vm) ~dst_ip:config.dst_ip
      ~src_port:config.src_port ~dst_port:config.dst_port ~proto:Fkey.Tcp
      ~tenant:(Host.Vm.tenant vm)
  in
  let t =
    {
      engine;
      vm;
      config;
      flow;
      in_flight = 0;
      bytes_sent = 0;
      bytes_acked = 0;
      window_start = Engine.now engine;
      window_acked = 0;
      running = true;
    }
  in
  Host.Vm.register_flow_handler vm (Fkey.reverse flow) (fun ack ->
      (* Acks are cumulative: credit up to the covered byte count,
         clamped to what was actually sent, and never backwards — a
         stale or duplicated ack cannot push bytes_acked past
         bytes_sent or double-credit the window. *)
      let acked =
        match ack.Packet.l4 with
        | Packet.App { count; _ } ->
            Stdlib.min (count * t.config.message_size) t.bytes_sent
        | _ ->
            Stdlib.min
              (t.bytes_acked + (t.config.ack_every * t.config.message_size))
              t.bytes_sent
      in
      if acked > t.bytes_acked then begin
        t.window_acked <- t.window_acked + (acked - t.bytes_acked);
        t.bytes_acked <- acked;
        t.in_flight <- (t.bytes_sent - t.bytes_acked) / t.config.message_size
      end;
      if (not (budget_left t)) && t.bytes_acked >= t.bytes_sent then
        (* Every byte of a finite transfer is acked: the flow is over,
           and its handler goes with it. *)
        Host.Vm.unregister_flow_handler vm (Fkey.reverse flow)
      else
        match t.config.paced_rate_bps with
        | None -> fill_window t
        | Some _ -> () (* the pacing clock drives sends *));
  (match config.paced_rate_bps with
  | None -> fill_window t
  | Some rate ->
      let interval =
        Simtime.span_sec (float_of_int config.message_size *. 8.0 /. rate)
      in
      Engine.every engine interval (fun () ->
          if t.running && budget_left t then begin
            ignore (send_one t);
            `Continue
          end
          else `Stop));
  start_heartbeat t;
  t

let bytes_sent t = t.bytes_sent
let bytes_acked t = t.bytes_acked

let goodput_gbps t ~now =
  let elapsed = Simtime.span_to_sec (Simtime.diff now t.window_start) in
  if elapsed <= 0.0 then 0.0
  else float_of_int t.window_acked *. 8.0 /. elapsed /. 1e9

let reset_measurement t ~now =
  t.window_start <- now;
  t.window_acked <- 0

let finished t = not (budget_left t)
let stop t = t.running <- false
