(** Fractional spanning-tree packings (§2): weighted spanning trees with
    per-edge total weight at most 1, plus the validity checker. *)

type wtree = {
  edges : int array;
      (** tree edges as edge ids of the packing's graph, ascending: the
          lexicographic order of their [(u, v)] pairs, [u < v]
          ({!Graphs.Graph.edge_endpoints}) *)
  weight : float;
}

type t = {
  graph : Graphs.Graph.t;
  trees : wtree list;
}

(** Packing size Σ w_τ. *)
val size : t -> float

val count : t -> int

(** Maximum edge load over all graph edges. *)
val max_edge_load : t -> float

(** [max_edge_multiplicity p] is the maximum number of distinct trees
    sharing one edge (Theorem 1.3's O(log³ n) bound). *)
val max_edge_multiplicity : t -> int

type violation =
  | Not_spanning of int  (** tree index *)
  | Edge_outside_graph of int
  | Overloaded_edge of (int * int) * float
  | Bad_weight of int

val pp_violation : Format.formatter -> violation -> unit

(** [verify ?tolerance p] lists violations; [tolerance] (default 1e-9)
    loosens the load-1 cap for floating-point slack. An edge id outside
    [0 .. m-1] is an [Edge_outside_graph], joins nothing and adds no
    load. *)
val verify : ?tolerance:float -> t -> violation list

val is_valid : ?tolerance:float -> t -> bool

(** [scale p factor] multiplies every weight. *)
val scale : t -> float -> t

(** [normalize_to_unit_load p] rescales so the maximum edge load is
    exactly 1 (no-op for an empty or load-free packing) — the final step
    turning the §5.1 collection into a packing of size
    ⌈(λ-1)/2⌉(1-O(ε)). *)
val normalize_to_unit_load : t -> t
