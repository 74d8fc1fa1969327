(** Compact undirected simple graphs on vertices [0 .. n-1].

    The representation is immutable after construction: a CSR
    (compressed sparse row) adjacency — one flat sorted neighbor array
    sliced by offsets, with a parallel slot→edge-index table — plus a
    canonical edge list (each undirected edge appears once, as
    [(u, v)] with [u < v], in lexicographic order). Self-loops are
    rejected and parallel edges are collapsed at construction. *)

type t

(** {1 Construction} *)

(** [of_edges ~n edges] builds a graph on [n] vertices from an undirected
    edge list. Duplicate edges (in either orientation) are collapsed.
    @raise Invalid_argument on self-loops or out-of-range endpoints. *)
val of_edges : n:int -> (int * int) list -> t

(** [of_endpoints ~n us vs] builds from two parallel endpoint arrays
    ([us.(i), vs.(i)] is an edge, either orientation, any order,
    duplicates collapsed) without materializing tuples — the
    constructor of choice for generated million-edge graphs.
    @raise Invalid_argument on self-loops, out-of-range endpoints, or
    length mismatch. *)
val of_endpoints : n:int -> int array -> int array -> t

(** {1 Accessors} *)

(** Number of vertices. *)
val n : t -> int

(** Number of undirected edges. *)
val m : t -> int

(** [neighbors g u] is the sorted array of neighbors of [u]. The returned
    array is owned by the graph and must not be mutated. Per-vertex
    views are materialized lazily on the first call (and published
    atomically, so concurrent first calls agree); every call returns
    the same physical array. Hot loops that only scan adjacency should
    prefer the CSR accessors below, which allocate nothing. *)
val neighbors : t -> int -> int array

(** [degree g u] is the number of neighbors of [u]. *)
val degree : t -> int -> int

(** Minimum degree over all vertices ([max_int] on the empty graph). *)
val min_degree : t -> int

(** [mem_edge g u v] tests edge presence in O(log deg). *)
val mem_edge : t -> int -> int -> bool

(** [edge_index g u v] is the index of edge [{u,v}] in the canonical
    edge order. @raise Not_found if absent. *)
val edge_index : t -> int -> int -> int

(** [edge_endpoints g i] is the [i]-th canonical edge as [(u, v)],
    [u < v]. Edges [0 .. m g - 1] in index order are each undirected
    edge once, in lexicographic order. *)
val edge_endpoints : t -> int -> int * int

(** {1 CSR access}

    Zero-cost views of the underlying representation, for hot loops
    (the CONGEST round engine) that cannot afford per-call closures or
    bounds-checked double indirection. All returned arrays are owned by
    the graph and must not be mutated. *)

(** [csr_offsets g] has length [n g + 1]; vertex [u]'s adjacency slots
    are [csr_offsets g.(u) .. csr_offsets g.(u+1) - 1]. *)
val csr_offsets : t -> int array

(** [csr_neighbors g] is the flat neighbor array of length [2 * m g];
    each vertex's slice is sorted ascending. *)
val csr_neighbors : t -> int array

(** [csr_edge_ids g] maps each adjacency slot to the index of its
    undirected edge in the canonical edge order. *)
val csr_edge_ids : t -> int array

(** [csr_endpoints g] is [(us, vs)], both of length [m g]: edge [i] is
    [(us.(i), vs.(i))] with [us.(i) < vs.(i)], as [edge_endpoints g i]
    returns it. *)
val csr_endpoints : t -> int array * int array

(** [iter_incident g u f] calls [f v ei] for every neighbor [v] of [u]
    in ascending order, where [ei = edge_index g u v] — without the
    O(log deg) lookup. *)
val iter_incident : t -> int -> (int -> int -> unit) -> unit

(** {1 Iteration} *)

val iter_edges : (int -> int -> unit) -> t -> unit
val fold_edges : ('a -> int -> int -> 'a) -> 'a -> t -> 'a
val iter_vertices : (int -> unit) -> t -> unit

(** {1 Derived graphs} *)

(** [induced g vs] is the subgraph induced by the vertex set [vs]
    (given as a membership predicate over original ids), together with
    the mapping [new_id -> old_id]. *)
val induced : t -> (int -> bool) -> t * int array

(** [spanning_subgraph g keep] keeps vertex set intact and retains the
    edges [e] with [keep u v = true]. *)
val spanning_subgraph : t -> (int -> int -> bool) -> t

(** [union_edges g extra] adds the listed edges (duplicates ignored). *)
val union_edges : t -> (int * int) list -> t

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit

(** [pp_dot ?highlight ppf g] writes Graphviz source; [highlight]
    (vertex predicate) fills the selected vertices. *)
val pp_dot : ?highlight:(int -> bool) -> Format.formatter -> t -> unit
