(** Dinic's maximum-flow algorithm on integer capacities.

    A network is built imperatively ([add_edge]) and then solved
    ([max_flow]). Residual state persists, so [min_cut_side] reflects the
    last solve. *)

type t

(** [create n] is an empty flow network on nodes [0 .. n-1]. *)
val create : int -> t

(** [add_edge net u v cap] adds a directed arc of capacity [cap >= 0]
    (a residual reverse arc of capacity 0 is added automatically). *)
val add_edge : t -> int -> int -> int -> unit

(** [max_flow net ~src ~sink] computes the maximum flow value.
    @raise Invalid_argument if [src = sink]. *)
val max_flow : t -> src:int -> sink:int -> int

(** [min_cut_side net ~src] is the set (as a boolean array) of nodes
    reachable from [src] in the residual graph of the last [max_flow]
    call; this is the source side of a minimum cut. *)
val min_cut_side : t -> src:int -> bool array

(** {1 Connectivity-oriented helpers} *)

(** [edge_connectivity_pair g u v] is the maximum number of edge-disjoint
    [u]-[v] paths in undirected [g] (each undirected edge modeled as two
    opposite unit arcs). *)
val edge_connectivity_pair : Graph.t -> int -> int -> int

(** [vertex_connectivity_pair g u v] is the maximum number of internally
    vertex-disjoint [u]-[v] paths between distinct non-adjacent vertices,
    via the standard vertex-splitting transform.
    @raise Invalid_argument if [u = v] or if [u] and [v] are adjacent. *)
val vertex_connectivity_pair : Graph.t -> int -> int -> int

(** [vertex_disjoint_paths g u v] extracts a maximum family of internally
    vertex-disjoint [u]-[v] paths between non-adjacent [u], [v]. *)
val vertex_disjoint_paths : Graph.t -> int -> int -> int list list
