(** The §5.1 fractional spanning-tree packing for λ = O(log n): the
    Lagrangian-relaxation / multiplicative-weights iteration, written
    once for the central and the distributed side.

    A collection of weighted trees with total weight 1 is maintained.
    Per iteration: edge loads x_e, normalized loads z_e = x_e·⌈(λ-1)/2⌉,
    costs c_e = exp(α z_e) with α = Θ(log n); the MST under c is either
    the certificate to stop (Cost(MST) > (1-ε)·Σ c_e x_e, Lemma F.1:
    max z_e ≤ 1+6ε) or is blended in with weight β = Θ(1/(α log n)).
    Lemma F.2 caps the iterations at Θ(log³ n).

    The MST is the loop's only black box. Both sides solve it under z
    rounded to multiples of 1/n (footnote 6) with ties broken by edge
    id, so they pick the same trees: the central side by Kruskal
    ({!Graphs.Mst.forest_ids}), the distributed side by
    {!Congest.Dist_mst.forest_ids} on the runtime. For a graph and λ,
    {!run} and [Dist_packing.run] return equal packings, bit for bit.

    The final collection, scaled by ⌈(λ-1)/2⌉ and normalized to unit
    edge load, is a fractional spanning-tree packing of size
    ⌈(λ-1)/2⌉·(1-O(ε)) — Theorem 1.3's guarantee. *)

type trace = {
  iterations : int;
  stopped_by_rule : bool;  (** the Lemma F.1 certificate fired *)
  max_z_history : float list;  (** max_e z_e after each iteration *)
  cost_ratios : float list;
      (** per iteration: the new MST's cost over Σ_e c_e·x_e at the
          current loads. The loop stops at the first ratio above 1 − ε;
          the values are the stop rule's evidence. *)
}

type result = {
  packing : Spacking.t;  (** normalized: unit max edge load *)
  collection : Spacking.t;  (** the raw weight-1 collection *)
  trace : trace;
}

(** Where the MSTs are solved. *)
type side =
  | Central of Graphs.Graph.t  (** Kruskal; no message *)
  | Distributed of Congest.Net.t
      (** Borůvka on the runtime, plus the leader's continuation
          decision per iteration: one convergecast and one broadcast
          over a BFS tree built once and shared by all parts *)

(** [graph side] is the graph the side packs. *)
val graph : side -> Graphs.Graph.t

type part = {
  lambda : int;  (** the λ the part was packed with *)
  packed : result option;
      (** the part's packing, normalized within the part; [None] when
          the part's edges do not span the graph *)
  rounds : int list;
      (** per MST solve, the initial tree's included: its rounds plus
          the coordination charge; [[]] on the central side *)
}

(** [run_on side ~eps ~max_iterations parts] packs each part [(mask,
    λ)], where [mask] marks the part's edges by edge id, in order. Each
    part's loop starts from the part's minimum spanning forest under
    unit weights and stops by the Lemma F.1 rule or after
    [max_iterations] iterations. *)
val run_on :
  side -> eps:float -> max_iterations:int -> (bool array * int) list ->
  part list

(** [union g parts] is the parts' trees side by side, in part order.
    Edge-disjoint parts make it a feasible packing of [g]. *)
val union : Graphs.Graph.t -> part list -> Spacking.t

(** [run ?eps ?max_iterations g ~lambda] packs connected [g] whose edge
    connectivity (or a lower-bound estimate of it) is [lambda >= 1]:
    {!run_on} on the central side with one part, all of [g]. [eps]
    defaults to 0.15; iterations default to Θ(log³ n).
    @raise Invalid_argument if [g] is disconnected. *)
val run :
  ?eps:float -> ?max_iterations:int -> Graphs.Graph.t -> lambda:int -> result

(** The paper's target ⌈(λ-1)/2⌉ (at least 1 so a single spanning tree
    is always achievable on a connected graph). *)
val target : lambda:int -> int

(** Default iteration cap Θ(log³ n). *)
val default_iterations : n:int -> int
