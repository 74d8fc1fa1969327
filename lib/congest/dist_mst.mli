(** Distributed minimum spanning forest (GHS/Borůvka style), the MST
    black box the paper invokes from Kutten–Peleg [37].

    Each Borůvka phase runs four steps over the current forest:

    - {e labels}: fragment labels (the least id in the fragment) are
      flooded over forest edges, send-on-change: phase 1 floods nothing
      (the forest is empty, so every label is the node's own id), and
      phase p ≥ 2 starts from phase p − 1's labels, with only the
      endpoints of the edges phase p − 1 added sending first;
    - {e announce}: one round in which every node of the subgraph
      broadcasts its label, so each learns its lightest outgoing edge;
    - {e election}: each fragment's least [(w, a, b)] candidate is
      flooded over forest edges, send-on-change, opened by the nodes
      that hold a candidate and a forest edge;
    - {e declare}: one round in which the endpoint whose candidate won
      declares it, and the other endpoint hears it.

    A node sends in a flood round only if its value changed in the
    previous one, and not when its one forest edge brought the change.
    A flood ends at the first round with no sender. O(log n) phases;
    a flood's rounds track the distance its values travel inside the
    merged fragments (measured and reported by the runtime). *)

(** The kernel's state on one net: per-node labels, candidates and
    message buffers, and the forest by edge id. One value serves every
    forest a caller computes on that net, one at a time. *)
type kernel

val kernel : Net.t -> kernel

(** [forest_ids k sub ~weights] is the minimum spanning forest of the
    marked subgraph [sub] under the order [(weights.(e), e)] on edge
    ids, as its edge ids ascending ([weights] is read on marked edges
    only). Fault-free, it is the unique minimum spanning forest under
    that order. *)
val forest_ids : kernel -> Components.marks -> weights:int array -> int array

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
    style O~(D+√n)-shaped variant. While each phase's label flood goes
    quiet within [cap] rounds (default ⌈√n⌉), phases run the kernel
    above; after that, per Borůvka phase, fragment labels come from
    {!Components.identify_hybrid} and the per-fragment minimum outgoing
    edges are elected by one {e pipelined keyed convergecast} over the
    global BFS tree (height + #fragments rounds) followed by a
    pipelined downcast of the winners — instead of intra-fragment
    flooding whose cost tracks fragment diameters. Produces exactly the
    same forest as [minimum_spanning_forest]. *)
val minimum_spanning_forest_hybrid :
  ?cap:int -> Net.t -> weight:(int -> int -> int) -> (int * int) list
