(** CDS → dominating trees (§3.1, last step): strip each valid class to a
    spanning tree of its induced subgraph and weight the collection into
    a fractional dominating-tree packing. *)

(** [spanning_tree_of_members g members] is the BFS tree of the
    subgraph that [members] (non-empty, inducing a connected subgraph)
    induce in [g], rooted at [members.(0)]; each other member's parent is
    its first closer member neighbor in {!Graphs.Graph.neighbors} order.
    Returns the tree's edge ids, ascending. *)
val spanning_tree_of_members : Graphs.Graph.t -> int array -> int array

(** [of_cds_packing result] keeps the classes that are genuine CDSs,
    spans each with a tree (the paper's 0/1-weight MST step; we span each
    class with a BFS tree of its induced subgraph, which is also a
    0-weight-only spanning tree), and assigns every tree the uniform
    weight 1/μ where μ is the maximum number of classes sharing a
    vertex. The result is always a valid fractional packing. *)
val of_cds_packing : Cds_packing.t -> Packing.t

(** [integral_subpacking p] greedily selects pairwise vertex-disjoint
    trees from a fractional packing (first-fit) — the simple route to an
    integral dominating-tree packing used for E12. *)
val integral_subpacking : Packing.t -> Packing.t
