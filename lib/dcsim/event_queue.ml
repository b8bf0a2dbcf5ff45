(* An indexed binary min-heap over unboxed int arrays.

   Each pending event occupies a slot. Per slot, parallel arrays hold
   its time, its sequence number (the FIFO tie-break), the handle of its
   occupant and its index in [heap]; [payloads] holds the payload.
   [heap] is an array of slot numbers, so sifting moves ints only and no
   store goes through the write barrier. A payload is written once at
   push and cleared once when its slot is released, so the queue never
   retains a fired or cancelled payload.

   [heap] is a permutation of the [slots] slots allocated so far: the
   first [size] entries are the live heap, the rest are the free slots,
   so releasing a slot is parking it just past the live heap. *)

type handle = int
(* The slot number in the low [slot_bits] bits, the slot's reuse
   generation above them. Releasing a slot bumps the generation, so a
   handle that fired, was cancelled or whose slot was reused no longer
   equals [handles.(slot)]. The generation wraps after 2^39 reuses of
   one slot. *)

let slot_bits = 24
let max_slots = 1 lsl slot_bits

type 'a t = {
  mutable time : Simtime.t array;
  mutable seq : int array;
  mutable handles : int array;
  mutable pos : int array;
  mutable payloads : Obj.t array;
  mutable heap : int array;
  mutable size : int;
  mutable slots : int;
  mutable next_seq : int;
}

(* Filler for released payload cells: an immediate, so it pins nothing. *)
let vacant = Obj.repr ()

let create () =
  {
    time = [||];
    seq = [||];
    handles = [||];
    pos = [||];
    payloads = [||];
    heap = [||];
    size = 0;
    slots = 0;
    next_seq = 0;
  }

let length t = t.size

(* Inlined: as calls, these two cost a quarter of a push/take pair. *)
let[@inline] before t a b =
  let ta = (t.time.(a) :> int) and tb = (t.time.(b) :> int) in
  ta < tb || (ta = tb && t.seq.(a) < t.seq.(b))

let[@inline] place t i s =
  t.heap.(i) <- s;
  t.pos.(s) <- i

(* Move the hole at [i] up until slot [s] fits, then put [s] there. *)
let rec sift_up t i s =
  if i = 0 then place t 0 s
  else
    let parent = (i - 1) / 2 in
    let p = t.heap.(parent) in
    if before t s p then begin
      place t i p;
      sift_up t parent s
    end
    else place t i s

let rec sift_down t i s =
  let l = (2 * i) + 1 in
  if l >= t.size then place t i s
  else
    let c =
      if l + 1 < t.size && before t t.heap.(l + 1) t.heap.(l) then l + 1 else l
    in
    let cs = t.heap.(c) in
    if before t cs s then begin
      place t i cs;
      sift_down t c s
    end
    else place t i s

let grow t =
  let n = max 16 (2 * t.slots) in
  if n > max_slots then
    failwith
      (Printf.sprintf "Event_queue.push: more than %d pending events" max_slots);
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 t.slots;
    b
  in
  t.time <- extend t.time Simtime.zero;
  t.seq <- extend t.seq 0;
  t.handles <- extend t.handles 0;
  t.pos <- extend t.pos 0;
  t.payloads <- extend t.payloads vacant;
  t.heap <- extend t.heap 0

let push t time payload =
  if (time : Simtime.t :> int) = (Simtime.never :> int) then
    invalid_arg "Event_queue.push: cannot schedule at Simtime.never";
  if t.size = t.slots then begin
    if t.slots = Array.length t.heap then grow t;
    let s = t.slots in
    t.handles.(s) <- s;
    place t s s;
    t.slots <- s + 1
  end;
  let s = t.heap.(t.size) in
  t.time.(s) <- time;
  t.seq.(s) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.payloads.(s) <- Obj.repr payload;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) s;
  t.handles.(s)

(* Take the slot at heap index [i] out of the heap and release it. *)
let remove_at t i =
  let s = t.heap.(i) in
  let last = t.size - 1 in
  t.size <- last;
  if i < last then begin
    let moved = t.heap.(last) in
    if i > 0 && before t moved t.heap.((i - 1) / 2) then sift_up t i moved
    else sift_down t i moved
  end;
  place t last s;
  t.payloads.(s) <- vacant;
  t.handles.(s) <- t.handles.(s) + max_slots

let cancel t handle =
  let s = handle land (max_slots - 1) in
  if s < t.slots && t.handles.(s) = handle then begin
    remove_at t t.pos.(s);
    true
  end
  else false

let min_time t = if t.size = 0 then Simtime.never else t.time.(t.heap.(0))

let take_min t =
  if t.size = 0 then invalid_arg "Event_queue.take_min: empty queue";
  let payload = t.payloads.(t.heap.(0)) in
  remove_at t 0;
  Obj.obj payload
