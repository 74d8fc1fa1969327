(** Gossiping / all-to-all broadcast (Appendix A): every node starts with
    one message (or [eta] messages); everyone must receive everything.
    Corollary A.1 bounds the time by O~(η + (N + n)/k) using the
    dominating-tree decomposition — vs the trivial O(n) single-tree
    solution that ignores connectivity. *)

type report = {
  result : Broadcast.result;
  bound : float;  (** the Corollary A.1 reference value η + (N + n)/k *)
}

(** [all_to_all ?seed ?per_node net packing ~k] gossips [per_node]
    (default 1) messages from every node via the packing; [k] is the
    connectivity used for the reference bound. *)
val all_to_all :
  ?seed:int -> ?per_node:int -> Congest.Net.t -> Domtree.Packing.t -> k:int ->
  report

(** [all_to_all_naive net ~per_node] is the single-BFS-tree baseline. *)
val all_to_all_naive : ?per_node:int -> Congest.Net.t -> Broadcast.result

(** {1 Gossip under faults}

    [all_to_all_ft net faults packing] installs the adversary on [net]
    and gossips via the packing with graceful degradation: failed CDS
    classes are dropped and their load rerouted across surviving
    classes (see {!Broadcast.via_dominating_trees_ft}). The packing
    should sustain throughput as failures mount, where the single-tree
    baseline [all_to_all_naive_ft] collapses as soon as its one tree is
    hit. *)
val all_to_all_ft :
  ?seed:int -> ?per_node:int ->
  Congest.Net.t -> Congest.Faults.t -> Domtree.Packing.t ->
  Broadcast.ft_result

val all_to_all_naive_ft :
  ?per_node:int ->
  Congest.Net.t -> Congest.Faults.t ->
  Broadcast.ft_result

(** [scattered ?seed net packing ~k ~total ~max_per_node] is Corollary
    A.1 in full generality: [total] messages placed at random nodes with
    at most [max_per_node] at any single node; the reference bound is
    eta + (N + n)/k with eta = the realized maximum per-node count.
    @raise Invalid_argument if [total] is negative, [max_per_node < 1]
    or [total > n * max_per_node]: the placement would fall short. *)
val scattered :
  ?seed:int -> Congest.Net.t -> Domtree.Packing.t -> k:int -> total:int ->
  max_per_node:int -> report
