(** Fractional dominating-tree packings: the §2 object produced by the
    algorithms, plus its validity checker.

    A packing is a collection of dominating trees, each with a weight in
    [0,1], such that for every vertex the weights of the trees containing
    it sum to at most 1. Its size is the total weight. *)

type tree = {
  cls : int;  (** originating class id *)
  vertices : int array;  (** sorted distinct vertices *)
  edges : int array;
      (** tree edges as edge ids of the packing's graph, ascending: the
          lexicographic order of their [(u, v)] pairs, [u < v]
          ({!Graphs.Graph.edge_endpoints}) *)
}

type t = {
  graph : Graphs.Graph.t;
  trees : tree list;
  weights : float list;  (** same length/order as [trees] *)
}

(** Total weight Σ x_τ — the packing size κ. *)
val size : t -> float

(** Number of trees. *)
val count : t -> int

(** [max_node_load p] over all vertices. *)
val max_node_load : t -> float

(** [max_multiplicity p] is the maximum number of trees sharing one
    vertex (the O(log n) bound of Theorems 1.1/1.2). *)
val max_multiplicity : t -> int

(** [uniform g trees] weights every tree [1 / max 1 m], where [m] is
    the {!max_multiplicity} of the trees — the uniform weighting both
    tree extractions use. *)
val uniform : Graphs.Graph.t -> tree list -> t

(** [tree_diameter g tree] is the diameter of the tree subgraph; the
    tree's edges must be edge ids of [g]. *)
val tree_diameter : Graphs.Graph.t -> tree -> int

(** [max_tree_diameter p] over all trees (0 when empty). *)
val max_tree_diameter : t -> int

type violation =
  | Not_a_tree of int  (** class id *)
  | Not_dominating of int
  | Edge_outside_graph of int
  | Overloaded_vertex of int * float  (** vertex, load *)
  | Bad_weight of int

val pp_violation : Format.formatter -> violation -> unit

(** [verify p] lists all violations; a valid fractional dominating-tree
    packing yields []. An edge id outside [0 .. m-1] is an
    [Edge_outside_graph] and joins nothing. *)
val verify : t -> violation list

val is_valid : t -> bool

(** {1 Serialization}

    Text format: one [tree <cls> <weight>] header per tree, then a
    [v ...] vertex line and one [e u v] line per edge; [#] comments and
    blanks ignored. The graph itself is not stored — loading takes it as
    an argument, maps each edge line to its edge id and re-verification
    is the caller's business. *)

val save : string -> t -> unit
(** ["-"] = stdout. *)

val load : string -> graph:Graphs.Graph.t -> t
(** ["-"] = stdin. A tree's edges load ascending, whatever their order
    in the file. @raise Failure on malformed input, or on an [e u v]
    line that is not an edge of [graph]. *)
