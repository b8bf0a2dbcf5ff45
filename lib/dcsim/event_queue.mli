(** Priority queue of timestamped events.

    A binary min-heap ordered by (time, sequence number). The sequence
    number breaks ties so that events scheduled for the same instant
    fire in scheduling order, which keeps runs deterministic.

    The heap is indexed and kept in unboxed [int] arrays: {!push},
    {!take_min} and {!cancel} are O(log n) and allocate nothing once the
    queue has grown to its working size, and a fired or cancelled
    payload is not retained. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
(** Events currently pending (pushed, and neither taken nor cancelled). *)

type handle [@@immediate]
(** Identifies one pushed event so it can be cancelled. An immediate
    value: storing one allocates nothing. *)

val push : 'a t -> Simtime.t -> 'a -> handle
(** [push q time payload] schedules [payload] at [time]. Raises
    [Invalid_argument] if [time] is {!Simtime.never}, and [Failure] if
    more than 2{^24} events would be pending at once. *)

val cancel : 'a t -> handle -> bool
(** [cancel q h] removes the event [h] identifies and returns [true].
    It returns [false], and changes nothing, when that event already
    fired or was already cancelled, including when its place in the
    queue has since been reused by a later {!push}. *)

val min_time : 'a t -> Simtime.t
(** Time of the earliest pending event, or {!Simtime.never} when the
    queue is empty. *)

val take_min : 'a t -> 'a
(** Remove the earliest pending event and return its payload. Raises
    [Invalid_argument] on an empty queue. *)
