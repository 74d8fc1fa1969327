(** Random sampling utilities used by the decompositions.

    - Karger's random edge partition (§5.2): placing each edge in one of
      η subgraphs keeps each subgraph's edge connectivity near λ/η w.h.p.
      when λ/η = Ω(log n / ε²).
    - Random vertex sampling (the κ of [CGK, SODA'14]) used by the
      integral dominating-tree packing variant. *)

(** [edge_partition rng g ~eta] splits the edges of [g] uniformly into
    [eta] spanning subgraphs (all on the same vertex set) and returns
    them with the draw, [part_of]: edge id -> the index of its part.
    Every edge of [g] appears in exactly one subgraph. *)
val edge_partition :
  Random.State.t -> Graph.t -> eta:int -> Graph.t array * int array

(** [suggested_eta ~lambda ~n ~eps] is the η of §5.2: the largest η ≥ 1
    with λ/η >= 20 ln n / ε² (so each part keeps Θ(log n/ε²)
    connectivity); 1 when λ is already that small. *)
val suggested_eta : lambda:int -> n:int -> eps:float -> int

(** [sampled_connectivity rng g ~trials] estimates κ: the minimum, over
    [trials] half-density vertex samples, of the vertex connectivity of
    the subgraph induced by sampled vertices (0 if a sample is
    disconnected or empty). Small graphs only. *)
val sampled_connectivity : Random.State.t -> Graph.t -> trials:int -> int
