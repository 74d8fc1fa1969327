(** How a step of Appendix B talks, on either side.

    {!Cds_packing}, {!Tester} and {!Repair} are each written once over a
    {!side} and send only through a {!t}, so the central run is the
    distributed one without a network. The central side sends nothing:
    it hands each receiver the same deliveries by walking the graph, and
    reads component-wide minima off names for the class-components of
    (class, node) pairs, the caller's ({!make}) or its own
    ({!make_labelled}). A delivery acts on its
    receiver alone, and only the order among one class's deliveries to
    one receiver can change what it does, so the central side keeps
    that order alone: meta-round ascending, then sender ascending. *)

type side =
  | Central of Graphs.Graph.t  (** graph walks; no message *)
  | Distributed of Congest.Net.t  (** messages on the network *)

val graph : side -> Graphs.Graph.t

(** [rounds side] is the network's round count; always 0 central. *)
val rounds : side -> int

(** [failure_flood side] builds the BFS tree from node 0 that bounds a
    run's Θ(D) failure floods, and returns the flood: [flood raised]
    runs {!Congest.Primitives.flood_min} for twice the tree's height in
    rounds, from 0 at node 0 when [raised] and [max_int] (never sent)
    elsewhere. Central, it builds and floods nothing. *)
val failure_flood : side -> bool -> unit

type t = {
  round :
    (int -> Congest.Net.msg option) ->
    listen:(int -> bool) ->
    (int -> int -> Congest.Net.msg -> unit) ->
    unit;
      (** [round send ~listen recv]: one broadcast round, delivered as
          [recv r sender m] to each [r] for which [listen r] holds when
          the messages arrive. [send] must not read what [recv] writes:
          central, each sender's message is delivered as it is sent. *)
  sweep :
    Multiflood.slots ->
    payload:(int -> int -> int array) ->
    listen:(int -> int -> bool) ->
    ordered:bool ->
    recv:(int -> int -> int -> Congest.Net.msg -> unit) ->
    unit;
      (** {!Multiflood.membership_sweep}. [listen r i] may be [false]
          only where [recv] ignores every delivery of class [i] to [r],
          and [ordered] only where their order cannot matter either:
          central, those are skipped, or delivered in sender order.
          [payload] (at most two words) must not read what [recv]
          writes: central, a slot's message is staged at its first
          delivery, and [slot_of] ({!fill_slots}) must index the
          layout. *)
  component_min :
    unit -> Multiflood.slots -> init:(int -> int -> int) -> int array;
      (** [component_min ()] is a {!Multiflood.flood_min} with its own
          result array *)
  component_min_on_change :
    Multiflood.slots -> init:(int -> int -> int) -> int array;
      (** {!Multiflood.flood_min_on_change}, with a fresh result array *)
}

(** [make side ~component ~slot_of ~classes ~max_slots] talks on [side]
    for layouts of at most [max_slots] slots of classes below
    [classes]; an ordered sweep's slices must not repeat a class.
    Central, a component minimum groups the slots of the flooded layout
    by [component (i * n + r)], a pair below [classes * n] that names
    the class-component of [r]'s membership of class [i]. The
    distributed side reads neither [component] nor [slot_of]. *)
val make :
  side ->
  component:(int -> int) ->
  slot_of:int array ->
  classes:int ->
  max_slots:int ->
  t

(** [make_labelled side ~classes ~max_slots] is {!make} for callers
    whose class-components are those of the layout itself: central, a
    component minimum names them by a breadth-first search of the
    flooded layout, and a sweep indexes the swept layout, in two
    [classes * n] tables of its own, rebuilt at every call. The
    distributed side builds neither. *)
val make_labelled : side -> classes:int -> max_slots:int -> t

(** [fill_slots slot_of ~n sl] makes [slot_of.(i * n + r)] the first
    slot of class [i] in node [r]'s slice of [sl], or [-1]. *)
val fill_slots : int array -> n:int -> Multiflood.slots -> unit
