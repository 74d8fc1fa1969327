(** Linear-time checks of candidate dominating trees.

    A checker owns O(n) scratch rows for one graph and is reused across
    trees. [load] makes a vertex list the current set in O(|list|),
    resetting the previous set's rows from its own list; membership,
    [union] and [same] are then O(1) amortized, with union-find over the
    set's own vertices, and [dominates] costs the volume of the set.
    [Domination.is_dominating_tree], [Domtree.Packing.verify] and the
    witness step of [Domtree.Certificate.check] all run on it. *)

type t

val create : Graph.t -> t

(** [load c vs] makes [vs] the current set. Entries outside [0 .. n-1]
    are never members; repeated entries count once. Each member starts
    as its own component. *)
val load : t -> int array -> unit

(** [mem c v]: [v] is in range and listed in the current set. *)
val mem : t -> int -> bool

(** [union c u v] joins the components of members [u] and [v]; [false]
    when they were already joined. *)
val union : t -> int -> int -> bool

(** [same c u v]: members [u] and [v] are in one component. *)
val same : t -> int -> int -> bool

(** [dominates c]: every vertex of the graph is a member or has one as a
    neighbor. *)
val dominates : t -> bool

(** How one candidate tree edge stands against the current set. *)
type edge =
  | Off_graph  (** not an edge of the graph; joins nothing *)
  | Leaves_set  (** an endpoint is not a member; joins nothing *)
  | Cycle  (** both endpoints were already joined *)
  | Joined  (** joined two components of the set *)

(** [edge c u v] classifies the pair [(u, v)] and joins its endpoints
    when it is a graph edge inside the set. *)
val edge : t -> int -> int -> edge

(** [edge_id c e] is [edge] on the endpoints of edge id [e]; an id
    outside [0 .. m-1] is [Off_graph]. *)
val edge_id : t -> int -> edge
