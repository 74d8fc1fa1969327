(** Distributed minimum spanning forest (GHS/Borůvka style), the MST
    black box the paper invokes from Kutten–Peleg [37].

    Each phase: identify fragments of the current forest, elect each
    fragment's minimum-weight outgoing edge by intra-fragment flooding,
    and merge. O(log n) phases; round cost per phase proportional to the
    current fragment diameter (measured and reported by the runtime). *)

(** [minimum_spanning_forest net ~weight] returns the forest edges as
    [(u, v)] pairs with [u < v]. [weight u v] must be a symmetric
    non-negative integer fitting in a word; ties are broken by endpoint
    ids, so the forest is unique and deterministic. Every variant calls
    [weight u v] once per (subgraph) edge, with [u < v], before its first
    round; the edge list comes back sorted. *)
val minimum_spanning_forest :
  Net.t -> weight:(int -> int -> int) -> (int * int) list

(** [minimum_spanning_forest_on net ~active ~edge_active ~weight]
    restricts the computation to a marked subgraph (used by §5.2 to pack
    all the sampled subgraphs in parallel, and by the CDS→tree
    extraction on the virtual graph). *)
val minimum_spanning_forest_on :
  Net.t ->
  active:(int -> bool) ->
  edge_active:(int -> int -> bool) ->
  weight:(int -> int -> int) ->
  (int * int) list

(** [minimum_spanning_forest_hybrid ?cap net ~weight] is the Kutten–Peleg
    style O~(D+√n)-shaped variant: per Borůvka phase, fragment labels
    come from {!Components.identify_hybrid} and the per-fragment
    minimum outgoing edges are elected by one {e pipelined keyed
    convergecast} over the global BFS tree (height + #fragments rounds)
    followed by a pipelined downcast of the winners — instead of
    intra-fragment flooding whose cost tracks fragment diameters.
    Produces exactly the same forest as [minimum_spanning_forest]. *)
val minimum_spanning_forest_hybrid :
  ?cap:int -> Net.t -> weight:(int -> int -> int) -> (int * int) list
