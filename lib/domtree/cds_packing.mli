(** The fractional CDS/dominating-tree packing algorithm of §3.1 —
    centralized implementation (Theorem 1.2, Appendix C).

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
      (Lemma 4.4).

    Component tracking uses per-class incremental union-find. A
    recursive layer costs O(n + m + Σ_v deg(v)·c(v)) near-constant
    union-find and array operations, where c(v) <= min(t, 3ℓ) is the
    number of classes v belongs to: each real's type-2 node lists the
    components of all classes around it in one pass over its closed
    neighbourhood. Over L = Θ(log n) layers that is O(L·m·t) in the
    worst case, and the final domination check adds O(t·m). *)

type stats = {
  excess_after_layer : (int * int) list;
      (** [(layer, M_layer)]: total excess components after each layer's
          assignment — the observable of the Fast Merger Lemma (E8). *)
  matched_per_layer : (int * int) list;
      (** matching size found in the bridging graph at each layer *)
  bridging_edges_per_layer : (int * int) list;
      (** number of bridging-graph edges at each layer (Fig. 1 realized) *)
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

(** [default_layers ~n] is L = Θ(log n), even. *)
val default_layers : n:int -> int

(** [run ?seed ?jumpstart g ~classes ~layers] executes the full class
    assignment. [jumpstart] (default [layers / 2]) is the number of
    all-random layers before the recursive merging steps begin —
    exposed so experiments can stress the Fast Merger dynamics.
    Requires a connected base graph. *)
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
