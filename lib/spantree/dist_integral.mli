(** The "considerably simpler variant" of Theorem 1.3 (§1.2): an
    {e integral} spanning-tree packing of size Ω(λ/log n) in
    O~(D + √(nλ)) rounds — Karger-partition the edges into
    η = Θ(λ/log n) subgraphs (each still connected w.h.p.), and compute
    one spanning tree per subgraph with the distributed MST. The trees
    are edge-disjoint by construction. *)

type result = {
  trees : int array list;
      (** edge-disjoint spanning trees, each its edge ids ascending *)
  eta : int;
  rounds : int;
  parts_connected : int;  (** subgraphs that yielded a spanning tree *)
}

(** [run ?seed ?eps net ~lambda] — λ (or an estimate) chooses η. *)
val run : ?seed:int -> ?eps:float -> Congest.Net.t -> lambda:int -> result
