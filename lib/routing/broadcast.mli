(** Tree-parallel broadcast (Corollaries 1.4, 1.5; Appendix A): route
    each message along a random tree of a connectivity decomposition,
    store-and-forward, and measure the achieved throughput and the
    congestion. All simulations run over the CONGEST runtime, so rounds
    and loads are the model's.

    Delivery semantics: a node has {e received} a message once it has
    heard it from any neighbor (or originated it); members of a tree
    additionally relay it along the tree. Because every tree of a
    dominating-tree packing dominates the graph, flooding inside each
    tree delivers to everyone.

    Every entry point checks [sources] before its first round and
    raises [Invalid_argument "Broadcast.<entry>: ..."], naming itself,
    on a negative count or an origin outside [\[0, n)]. *)

type result = {
  rounds : int;
      (** rounds until every node received every message: 0 when there
          is no message to send *)
  messages : int;  (** number of distinct broadcast messages N *)
  throughput : float;  (** N / rounds, and 0 when [rounds = 0] *)
  max_vertex_congestion : int;
      (** max number of transmissions performed by a single node *)
  max_edge_congestion : int;
      (** max number of messages that crossed a single edge *)
}

(** [via_dominating_trees ?seed net packing ~sources] broadcasts, in the
    V-CONGEST model, the given messages ([sources] lists (origin, how
    many)); each message is assigned to a uniformly random tree.
    Members time-share across their trees round-robin, serving pending
    trees cyclically. Every packing the library builds has uniform
    weights, for which this is the weight-proportional time-sharing of
    §1.1.
    @raise Invalid_argument if the packing is empty. *)
val via_dominating_trees :
  ?seed:int ->
  Congest.Net.t -> Domtree.Packing.t -> sources:(int * int) list ->
  result

(** [via_spanning_trees ?seed net packing ~sources] is the E-CONGEST
    counterpart over a fractional spanning-tree packing: per round, one
    message can cross each edge direction; each directed tree edge
    forwards its trees' pending messages round-robin. *)
val via_spanning_trees :
  ?seed:int -> Congest.Net.t -> Spantree.Spacking.t -> sources:(int * int) list ->
  result

(** [naive_single_tree net ~sources] is the baseline everyone had before
    this paper: pipeline everything over one global BFS tree (throughput
    ≤ 1 message/round regardless of connectivity). *)
val naive_single_tree : Congest.Net.t -> sources:(int * int) list -> result

(** {1 Fault-tolerant variants}

    The same schedulers, run against a {!Congest.Faults} adversary
    (which the caller installs on the net — see {!Routing.Gossip} for
    wrappers that do). Each tree shape has one scheduler: the fault-free
    entry points above run it with no adversary and no repair tick.
    Recovery semantics:

    - a tree with a crashed member or a killed tree edge is {e dead};
      its pending relays are rerouted onto surviving trees (the
      redundancy story of Theorem 1.1 — the packing degrades one class
      at a time, while the single-tree baseline has nothing to reroute
      onto);
    - every [repair_every] rounds (default 8) each surviving node
      re-gossips one random heard message, a retransmission mechanism
      against Bernoulli drops (granted to the baseline too, so the
      comparison isolates structural redundancy);
    - delivery is owed to surviving nodes only, and only for messages
      at least one survivor has heard. The run stops when every such
      message is everywhere ([ft_converged = true]) or at a cap of
      [20 * (messages + n) + 200] rounds when faults made full
      delivery impossible. *)

type ft_result = {
  ft_rounds : int;
      (** rounds consumed (capped runs: the cap; 0 with no message) *)
  ft_messages : int;  (** messages injected *)
  ft_delivered : int;  (** messages heard by {e every} surviving node *)
  ft_throughput : float;
      (** delivered / rounds — sustained throughput; 0 when
          [ft_rounds = 0] *)
  ft_coverage : float;
      (** fraction of (survivor, message) pairs heard — 1.0 iff full
          delivery *)
  ft_survivors : int;
  ft_dead_trees : int;  (** trees abandoned to crashes/edge kills *)
  ft_converged : bool;
}

val via_dominating_trees_ft :
  ?seed:int ->
  ?repair_every:int ->
  Congest.Net.t -> Congest.Faults.t -> Domtree.Packing.t ->
  sources:(int * int) list ->
  ft_result

(** Single-BFS-tree baseline under the same adversary: retransmits
    against drops, but a crashed internal tree node or killed tree edge
    permanently disconnects its subtree. The tree is built on a
    fault-free scratch net (it predates the faults); those rounds are
    charged to the real clock. *)
val naive_single_tree_ft :
  ?repair_every:int ->
  Congest.Net.t -> Congest.Faults.t ->
  sources:(int * int) list ->
  ft_result
