(** Exact edge and vertex connectivity, with cut witnesses.

    These are the centralized ground-truth baselines the paper compares
    against (Gabow / Henzinger-style exact computations are substituted
    by Stoer–Wagner and Even-style flow algorithms, which are exact and
    adequate at simulator scale). *)

(** [edge_connectivity g] is the global minimum edge-cut value λ of [g]
    (0 if disconnected, [max_int] on graphs with fewer than 2 vertices),
    by the Stoer–Wagner minimum-cut algorithm. *)
val edge_connectivity : Graph.t -> int

(** [edge_connectivity_sparsified g] computes λ exactly but first
    replaces [g] by its (min-degree+1)-sparse certificate
    ({!Certificate}), which preserves λ; on dense graphs this makes the
    Stoer–Wagner pass run on O(λ·n) edges instead of m. *)
val edge_connectivity_sparsified : Graph.t -> int

(** [vertex_connectivity g] is the vertex connectivity k of [g]:
    - 0 if [g] is disconnected,
    - [n - 1] if [g] is complete,
    - otherwise the minimum vertex-cut size, via Even-style pairwise
      vertex max-flows from a minimum-degree vertex and its neighborhood. *)
val vertex_connectivity : Graph.t -> int

(** [min_vertex_cut g] is [Some cut] (a minimum vertex cut as a sorted
    vertex list) for connected non-complete [g], [None] otherwise. *)
val min_vertex_cut : Graph.t -> int list option

(** [is_k_vertex_connected g k] decides vertex connectivity >= [k]
    without computing the exact value (early exit on a small cut). *)
val is_k_vertex_connected : Graph.t -> int -> bool

(** [all_min_vertex_cuts g] enumerates every minimum vertex cut by
    subset enumeration (intended for small graphs; the §1.3.1 remark
    that a k-connected graph can have Θ(2^k (n/k)²) minimum cuts is the
    reason the paper routes flow through trees instead of cuts).
    Returns the sorted list of sorted cuts; [] when [g] is complete or
    disconnected. *)
val all_min_vertex_cuts : Graph.t -> int list list

(** [menger_vertex_paths g u v] is a maximum family of internally
    vertex-disjoint [u]-[v] paths (non-adjacent [u], [v]); Menger's
    theorem guarantees at least [vertex_connectivity g] of them. *)
val menger_vertex_paths : Graph.t -> int -> int -> int list list
