(** The general-λ fractional spanning-tree packing (§5.2): random edge
    partition into η ≈ λ/Θ(log n) subgraphs (Karger sampling keeps each
    subgraph's connectivity near λ/η w.h.p.), independent §5.1 packings
    inside each subgraph, and the union of the results. Edge-disjointness
    of the parts makes the union automatically feasible.

    {!run_on} is the partition, written once for both sides: the central
    {!run} and the distributed [Dist_packing.run_sampled] draw the same
    parts and pack them with the same {!Lagrangian.run_on}, so for a
    seed they return equal packings, bit for bit. *)

type result = {
  packing : Spacking.t;  (** union packing on the original graph *)
  eta : int;  (** number of subgraphs used *)
  part_lambdas : int list;
      (** per-part edge connectivity, 0 for a disconnected part *)
  parts_used : int;  (** parts that were connected and got packed *)
}

(** [run_on side ~seed ~eps ~lambda] is [(η, parts)]: for η = 1 the
    whole graph is the one part, packed with [lambda]; otherwise η
    parts drawn from the RNG [[|seed; n; lambda; 9|]], each packed with
    its own edge connectivity (at least 1), in draw order. Every part
    gets Θ(log³ n) iterations. *)
val run_on :
  Lagrangian.side -> seed:int -> eps:float -> lambda:int ->
  int * Lagrangian.part list

(** [run ?seed ?eps g ~lambda] packs connected [g] with edge connectivity
    (estimate) [lambda]: {!run_on} on the central side. For λ below the
    sampling threshold this degenerates to a single §5.1 run (η = 1).
    @raise Invalid_argument if [g] is disconnected. *)
val run : ?seed:int -> ?eps:float -> Graphs.Graph.t -> lambda:int -> result

(** [run_auto ?seed ?eps g] first computes a λ estimate (exact
    Stoer–Wagner here, standing in for the Ghaffari–Kuhn 3-approximation
    the paper invokes) and then runs [run]. *)
val run_auto : ?seed:int -> ?eps:float -> Graphs.Graph.t -> result
