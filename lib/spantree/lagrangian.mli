(** The §5.1 fractional spanning-tree packing for λ = O(log n): the
    Lagrangian-relaxation / multiplicative-weights iteration.

    A collection of weighted trees with total weight 1 is maintained.
    Per iteration: edge loads x_e, normalized loads z_e = x_e·⌈(λ-1)/2⌉,
    costs c_e = exp(α z_e) with α = Θ(log n); the MST under c is either
    the certificate to stop (Cost(MST) > (1-ε)·Σ c_e x_e, Lemma F.1:
    max z_e ≤ 1+6ε) or is blended in with weight β = Θ(1/(α log n)).
    Lemma F.2 caps the iterations at Θ(log³ n).

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

(** [iterate g ~lambda ~eps ~max_iterations ~mst initial] is the §5.1
    loop on [g], starting from the spanning tree [initial] (edge ids,
    ascending) with weight 1. Each iteration refills z_e and the
    shifted costs c_e = exp(α(z_e − max z)) and asks [mst ~z ~cost] for
    the next tree as its edge ids, ascending; both arrays are indexed
    by edge id and must not be mutated. The loop stops by the Lemma F.1
    rule or after [max_iterations] iterations and returns the raw
    weight-1 collection (trees oldest first) with its trace. The MST is
    the only black box: the central packer solves it exactly, the
    distributed one on the E-CONGEST runtime. *)
val iterate :
  Graphs.Graph.t -> lambda:int -> eps:float -> max_iterations:int ->
  mst:(z:float array -> cost:float array -> int array) -> int array ->
  Spacking.t * trace

(** [run ?eps ?max_iterations g ~lambda] packs connected [g] whose edge
    connectivity (or a lower-bound estimate of it) is [lambda >= 1],
    starting from a BFS tree and solving each MST centrally under the
    exact costs. [eps] defaults to 0.15; iterations default to
    Θ(log³ n). *)
val run :
  ?eps:float -> ?max_iterations:int -> Graphs.Graph.t -> lambda:int -> result

(** The paper's target ⌈(λ-1)/2⌉ (at least 1 so a single spanning tree
    is always achievable on a connected graph). *)
val target : lambda:int -> int

(** Default iteration cap Θ(log³ n). *)
val default_iterations : n:int -> int
