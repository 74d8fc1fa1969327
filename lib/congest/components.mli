(** Distributed connected-component identification on a marked subgraph —
    the Theorem B.2 interface of the paper (after Thurimella / Kutten–
    Peleg).

    Two implementations of the O(min\{D', D+√n log* n\}) bound:

    - [identify] is min-label flooding restricted to subgraph edges,
      taking (max strong component diameter + O(1)) rounds — the [D']
      branch, which the dominating-tree packing relies on (class
      components have strong diameter O(n log n / k), Lemma 4.6);
    - [identify_hybrid] is the Kutten–Peleg-style [D + √n] branch:
      flooding capped at ~√n rounds forms fragments, then the fragment
      adjacencies are upcast over a global BFS tree through per-node
      spanning-forest filters (at most #fragments−1 edges survive at
      any node), the root solves the fragment components, and the
      label mapping is downcast pipelined. *)

(** A marked subgraph as flat tables: [nodes.(v)] by vertex and
    [edges.(e)] by edge id ({!Graphs.Graph.edge_index}). An edge is
    marked only if both its endpoints are. Protocol kernels that run
    many forests or labellings over one subgraph ({!Dist_mst}) build
    these once and reuse them. *)
type marks = { nodes : bool array; edges : bool array }

(** [marks net ~active ~edge_active] tabulates the predicates: edge
    [{u, v}] is marked iff [u] and [v] are active and [edge_active] holds
    in both directions ([edge_active] is only queried on edges whose two
    endpoints are active). *)
val marks :
  Net.t -> active:(int -> bool) -> edge_active:(int -> int -> bool) -> marks

(** [label_hybrid ?cap ?seed net sub] is {!identify_hybrid} on the
    marked subgraph. *)
val label_hybrid : ?cap:int -> ?seed:int -> Net.t -> marks -> int array

(** [identify net ~active ~edge_active] labels every active node with the
    minimum id of its component in the subgraph of active nodes and
    edges [e] with [edge_active u v = true] (only queried on edges whose
    two endpoints are active; must be symmetric). Inactive nodes get
    label [-1]. *)
val identify :
  Net.t -> active:(int -> bool) -> edge_active:(int -> int -> bool) -> int array

(** [identify_min_value net ~active ~edge_active ~value] is Theorem B.2
    proper: every active node learns the minimum [(value, id)] pair over
    its component; returns [(min_values, min_ids)]. *)
val identify_min_value :
  Net.t ->
  active:(int -> bool) ->
  edge_active:(int -> int -> bool) ->
  value:(int -> int) ->
  int array * int array

(** [identify_hybrid ?cap ?seed net ~active ~edge_active] computes a
    {e consistent} labeling (same label iff same component; the label is
    the id of the minimum-random-rank node, per §2's random-id
    assumption, not necessarily the minimum id) in
    O(cap + D + #fragments) rounds, [cap] defaulting to ⌈√n⌉. On
    subgraphs with large strong diameter (long paths) this is
    asymptotically faster than flooding. Each node's spanning-forest
    filter holds only the fragment labels it has relayed, so memory is
    O(n + upcast traffic), not Θ(n²). *)
val identify_hybrid :
  ?cap:int ->
  ?seed:int ->
  Net.t ->
  active:(int -> bool) ->
  edge_active:(int -> int -> bool) ->
  int array
