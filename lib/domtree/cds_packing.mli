(** The fractional CDS/dominating-tree packing algorithm of §3.1
    (Theorem 1.2 / Appendix C central, Theorem 1.1 / Appendix B
    distributed), written once.

    The algorithm partitions the virtual nodes of {!Virtual_graph} into
    [t = Θ(k)] classes so that w.h.p. every class is a connected
    dominating set of the base graph:

    - {b jump-start}: virtual nodes of layers 1..L/2 join uniformly
      random classes (giving domination, Lemma 4.1);
    - {b recursive step}: for each layer ℓ+1, type-1 and type-3 nodes
      join random classes; type-2 nodes join by a maximal matching in
      the {e bridging graph} between old components and type-2 nodes
      (§3.1 steps (1)–(3), Fig. 1), merging components so the total
      excess component count M_ℓ drops by a constant factor per layer
      (Lemma 4.4). Each layer runs Appendix B: B.1 component ids (the
      least real id of each class-component), B.2 connector
      declarations, type-3 witnesses and the type-2 option lists, and
      B.3's proposal matching, which ends at its first silent proposal
      round or after [default_layers ~n] stages.

    {!run_on} is that one layer loop over a {!Comm.side}. The
    distributed side exchanges every step's messages on a
    {!Congest.Net.t} ({!Dist_packing.run}). The central side ({!run})
    sends nothing: it hands each receiver the same deliveries in the
    same order by walking the graph, and reads component-wide minima
    off a union-find over (class, node) pairs that both sides keep for
    the statistics. Both draw from one RNG stream, so a seed gives equal
    packings, statistics included, on either side. A central layer
    costs O(n·t + Σ_r deg(r)·ℓ(r)) array operations, where ℓ(r) <= 2
    classes in status sweep #1 and the classes r heard of in B.2b that
    have two or more components in sweep #2. *)

type stats = {
  excess_after_layer : (int * int) list;
      (** [(layer, M_layer)]: total excess components after each layer's
          assignment — the observable of the Fast Merger Lemma (E8). *)
  matched_per_layer : (int * int) list;
      (** type-2 nodes matched by B.3 at each layer *)
  bridging_edges_per_layer : (int * int) list;
      (** B.2c options, i.e. bridging-graph edges, at each layer (Fig. 1
          realized) *)
}

type t = {
  vg : Virtual_graph.t;
  classes : int;  (** t, the number of classes *)
  class_of : int array;  (** virtual id -> class (always assigned) *)
  members : int array array;
      (** class -> sorted distinct real vertices with a virtual node in
          the class *)
  connected : bool array;  (** class induces a connected subgraph *)
  dominating : bool array;  (** class dominates the base graph *)
  stats : stats;
}

(** [default_classes ~k] is the paper's t = Θ(k) with the constant used
    throughout this repository. *)
val default_classes : k:int -> int

(** [default_layers ~n] is L = Θ(log n), even; it also caps the B.3
    stages of a layer. *)
val default_layers : n:int -> int

(** [proposal_key ~n v who] is the one word B.3c floods and announces
    for node [who]'s proposal of value [v < max 64 (n * n)], [(max 64
    (n * n) - v) * n + who]: the least key is the largest [v], then the
    least [who]. *)
val proposal_key : n:int -> int -> int -> int

(** [run_on side ~seed ~jumpstart ~classes ~layers] is the one layer
    loop behind {!run} and {!Dist_packing.run}.
    @raise Invalid_argument if [classes < 1], [jumpstart] is outside
    [1 .. layers], or a {!proposal_key} of the graph's [n] can exceed
    [Congest.Model.max_word ~n]. *)
val run_on :
  Comm.side -> seed:int -> jumpstart:int -> classes:int -> layers:int -> t

(** [run ?seed ?jumpstart g ~classes ~layers] executes the full class
    assignment. [jumpstart] (default [layers / 2]) is the number of
    all-random layers before the recursive merging steps begin —
    exposed so experiments can stress the Fast Merger dynamics.
    Requires a connected base graph with n ≤ 1,664,510: like {!run_on}'s
    distributed side, it minimises one-word B.3 keys. *)
val run :
  ?seed:int -> ?jumpstart:int -> Graphs.Graph.t -> classes:int -> layers:int -> t

(** [pack ?seed g ~k] is [run] with the default parameters for
    vertex-connectivity(-estimate) [k]. *)
val pack : ?seed:int -> Graphs.Graph.t -> k:int -> t

(** Classes that ended up being genuine CDSs. *)
val valid_classes : t -> int list

(** [real_classes p] maps each real vertex to the (distinct, sorted)
    classes containing one of its virtual nodes — the O(log n) per-node
    load of Theorem 1.2. *)
val real_classes : t -> int list array
