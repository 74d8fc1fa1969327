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

(** [peel g] is a list of edge-disjoint spanning trees of [g] (each an
    edge list), greedily extracted. Empty if [g] is disconnected. *)
val peel : Graphs.Graph.t -> (int * int) list list

(** [to_packing g trees] wraps integral trees as a weight-1 packing
    (valid because the trees are edge-disjoint). *)
val to_packing : Graphs.Graph.t -> (int * int) list list -> Spacking.t
