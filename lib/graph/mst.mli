(** Minimum spanning trees / forests over float-weighted edges. *)

type edge = { u : int; v : int; w : float }

(** [kruskal ~n edges] is the minimum spanning forest over vertices
    [0 .. n-1], as the sublist of [edges] chosen (stable order of
    increasing weight, ties broken by input order). *)
val kruskal : n:int -> edge list -> edge list

(** [prim g ~weight] is a minimum spanning forest of [g] where edge
    [{u,v}] costs [weight u v]. Result is a parent array: [parent.(root)
    = root] for each component root (lowest-id vertex of the component),
    [parent.(v)] is [v]'s tree parent otherwise. *)
val prim : Graph.t -> weight:(int -> int -> float) -> int array

(** Sum of weights. *)
val total_weight : edge list -> float

(** [minimum_spanning_tree g ~weight] is the MST of connected [g] as a
    canonical edge list [(u, v)] with [u < v].
    @raise Invalid_argument if [g] is disconnected. *)
val minimum_spanning_tree : Graph.t -> weight:(int -> int -> float) -> (int * int) list

(** [is_spanning_tree ~n edges] checks the edge set is a tree on all [n]
    vertices: exactly [n-1] edges, connected, acyclic. *)
val is_spanning_tree : n:int -> (int * int) list -> bool
