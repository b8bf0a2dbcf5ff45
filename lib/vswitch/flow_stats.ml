module Fkey = Netcore.Fkey

type counters = {
  flow : Fkey.t;
  mutable packets : int;
  mutable bytes : int;
  (* Values at the reader's last [mark]; a counter created since then
     marks zero, so [current - mark] is everything it saw. *)
  mutable mark_packets : int;
  mutable mark_bytes : int;
  (* The flow's last packet (FIN) went by; the next read retires the
     counter unless another packet reopens it first. *)
  mutable closed : bool;
}

type t = {
  table : counters Fkey.Table.t;
  on_retire : Fkey.t -> unit;
  (* Scratch for [read_marks]: the counters in table order, walked
     backwards. Grown to the largest table seen, scrubbed after each
     read so it retains nothing. *)
  mutable order : counters array;
  mutable order_len : int;
}

let dummy =
  {
    flow =
      Fkey.make
        ~src_ip:(Netcore.Ipv4.of_int32 0l)
        ~dst_ip:(Netcore.Ipv4.of_int32 0l)
        ~src_port:0 ~dst_port:0 ~proto:Fkey.Tcp
        ~tenant:(Netcore.Tenant.of_int 0);
    packets = 0;
    bytes = 0;
    mark_packets = 0;
    mark_bytes = 0;
    closed = false;
  }

let m_retired = Obs.Metrics.counter "vswitch.flow_stats.retired"

let create ?(on_retire = ignore) () =
  { table = Fkey.Table.create 128; on_retire; order = [||]; order_len = 0 }

(* [find]/[Not_found] instead of [find_opt]: the steady-state hit path
   (counters already exist) must not allocate the [Some] box — this
   runs once per packet group on the vhost path. *)
let record t flow ~packets ~bytes =
  match Fkey.Table.find t.table flow with
  | c ->
      c.packets <- c.packets + packets;
      c.bytes <- c.bytes + bytes;
      c.closed <- false
  | exception Not_found ->
      Fkey.Table.add t.table flow
        { flow; packets; bytes; mark_packets = 0; mark_bytes = 0; closed = false }

let close t flow =
  match Fkey.Table.find t.table flow with
  | c -> c.closed <- true
  | exception Not_found -> ()

let find t flow =
  match Fkey.Table.find t.table flow with
  | c -> Some (c.packets, c.bytes)
  | exception Not_found -> None

let flow_count t = Fkey.Table.length t.table

let mark t =
  Fkey.Table.iter
    (fun _ c ->
      c.mark_packets <- c.packets;
      c.mark_bytes <- c.bytes)
    t.table

let push_order t c =
  if t.order_len = Array.length t.order then
    t.order <-
      Array.append t.order
        (Array.make (Stdlib.max 64 (Array.length t.order)) dummy);
  t.order.(t.order_len) <- c;
  t.order_len <- t.order_len + 1

(* [to_list] conses in table order, so its order is table order
   reversed; walking the scratch backwards reproduces it without
   building the list. *)
let read_marks t f =
  Fkey.Table.iter (fun _ c -> push_order t c) t.table;
  for i = t.order_len - 1 downto 0 do
    let c = t.order.(i) in
    t.order.(i) <- dummy;
    f c.flow ~packets:(c.packets - c.mark_packets) ~bytes:(c.bytes - c.mark_bytes);
    if c.closed then begin
      Fkey.Table.remove t.table c.flow;
      Obs.Metrics.incr m_retired;
      t.on_retire c.flow
    end
  done;
  t.order_len <- 0

let open_flows t =
  Fkey.Table.fold
    (fun k c acc -> if c.closed then acc else k :: acc)
    t.table []

let to_list t =
  Fkey.Table.fold (fun k c acc -> (k, c.packets, c.bytes) :: acc) t.table []
