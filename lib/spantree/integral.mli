(** Integral spanning-tree packings.

    - [peel]: greedily extract edge-disjoint spanning trees until the
      residual graph disconnects. Each tree is degree-balanced: it adds,
      one at a time, the component-joining edge whose endpoints carry
      the fewest tree edges so far, so no vertex loses its whole
      residual neighborhood to one peel (a BFS tree would isolate its
      root at once). This is a centralized heuristic with no proven
      count; the paper's Ω(λ/log n) "considerably simpler variant" is
      {!Dist_integral}, and Tutte/Nash-Williams' ⌈(λ-1)/2⌉ needs
      matroid machinery that the fractional route sidesteps. *)

(** [peel g] is a list of edge-disjoint spanning trees of [g] (each its
    edge ids, ascending), greedily extracted. Empty if [g] is
    disconnected or has fewer than two vertices (a one-vertex graph's
    empty tree would span it without end). *)
val peel : Graphs.Graph.t -> int array list

(** [to_packing g trees] wraps integral trees as a weight-1 packing
    (valid because the trees are edge-disjoint). *)
val to_packing : Graphs.Graph.t -> int array list -> Spacking.t
