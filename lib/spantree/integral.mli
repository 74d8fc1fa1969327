(** Integral spanning-tree packings.

    - [peel]: greedily extract edge-disjoint spanning trees (each a BFS
      tree of the remaining edges) until the residual graph disconnects.
      A graph with edge connectivity λ yields at least ⌈λ/2⌉ trees? No —
      greedy peeling guarantees only λ/O(log n) in general, which is
      exactly the "considerably simpler variant" bound Ω(λ/log n) the
      paper states; Tutte/Nash-Williams' ⌈(λ-1)/2⌉ needs matroid
      machinery that the fractional route sidesteps. *)

(** [peel g] is a list of edge-disjoint spanning trees of [g] (each an
    edge list), greedily extracted. Empty if [g] is disconnected. *)
val peel : Graphs.Graph.t -> (int * int) list list

(** [to_packing g trees] wraps integral trees as a weight-1 packing
    (valid because the trees are edge-disjoint). *)
val to_packing : Graphs.Graph.t -> (int * int) list list -> Spacking.t
