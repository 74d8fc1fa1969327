(** Breadth-first / depth-first traversals and derived metrics. *)

(** [bfs g src] is the array of hop distances from [src]; unreachable
    vertices get [-1]. *)
val bfs : Graph.t -> int -> int array

(** [bfs_tree g src] is [(dist, parent)] where [parent.(src) = src] and
    [parent.(v) = -1] for unreachable [v]. *)
val bfs_tree : Graph.t -> int -> int array * int array

(** [components g] is [(count, label)] where [label.(v)] is the component
    id of [v], ids in [0 .. count-1], numbered by smallest contained
    vertex order. *)
val components : Graph.t -> int * int array

(** [is_connected g] holds iff [g] has at most one component (vertexless
    and single-vertex graphs are connected). *)
val is_connected : Graph.t -> bool

(** [eccentricity g u] is the maximum finite BFS distance from [u].
    @raise Invalid_argument if [g] is disconnected. *)
val eccentricity : Graph.t -> int -> int

(** Exact diameter by all-pairs BFS. O(nm).
    @raise Invalid_argument if [g] is disconnected or empty. *)
val diameter : Graph.t -> int

(** Two-BFS diameter estimate [d] with [d <= diameter <= 2 d]; the
    standard double-sweep used by the paper's preprocessing ("nodes can
    learn ... a 2-approximation of the diameter"). *)
val diameter_2approx : Graph.t -> int

(** [distances_within g pred src] is single-source BFS restricted to
    vertices satisfying [pred]. *)
val distances_within : Graph.t -> (int -> bool) -> int -> int array
