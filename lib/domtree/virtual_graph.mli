(** The virtual graph G' of §3.1: each real node simulates 3·L virtual
    nodes — one per (layer, type) pair with layers 1..L and types
    {1,2,3}. Two virtual nodes are adjacent iff they live on the same
    real node or on two G-adjacent real nodes.

    Virtual adjacency is never materialized; algorithms work on the real
    graph and query the indexing functions here. One communication round
    on G' costs Θ(log n) rounds on G (a "meta-round"). *)

type t

(** [create g ~layers] attaches [3 * layers] virtual nodes to every real
    node of [g]. [layers] must be even and >= 2 (the jump-start uses the
    first half). *)
val create : Graphs.Graph.t -> layers:int -> t

val base : t -> Graphs.Graph.t
val layers : t -> int

(** Total number of virtual nodes, [3 * layers * n]. *)
val count : t -> int

(** [vid vg ~real ~layer ~vtype] is the virtual-node id for the given
    coordinates; [layer] in [1..layers], [vtype] in [1..3]. *)
val vid : t -> real:int -> layer:int -> vtype:int -> int

(** Inverse projections of a virtual id. *)
val real_of : t -> int -> int

val layer_of : t -> int -> int
val type_of : t -> int -> int

(** [adjacent vg a b] is virtual adjacency: same real node, or
    G-adjacent real nodes. *)
val adjacent : t -> int -> int -> bool
