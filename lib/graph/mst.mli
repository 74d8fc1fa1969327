(** Minimum spanning forests by edge id, and the spanning-tree check. *)

(** [forest_ids g edges ~weights] is the minimum spanning forest of the
    subgraph of [g] formed by the edge ids [edges] (ascending), under
    the order [(weights.(e), e)], as its edge ids ascending. It is the
    forest the distributed [Dist_mst.forest_ids] computes fault-free,
    found centrally by Kruskal over a counting sort: O(|edges| + n +
    max weight). [weights] is read on [edges] only.
    @raise Invalid_argument if one of those weights is negative. *)
val forest_ids : Graph.t -> int array -> weights:int array -> int array

(** [is_spanning_tree ~n edges] checks the edge set is a tree on all [n]
    vertices: exactly [n-1] edges, connected, acyclic. *)
val is_spanning_tree : n:int -> (int * int) list -> bool
