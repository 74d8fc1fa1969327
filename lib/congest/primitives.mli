(** Standard CONGEST building blocks: BFS trees, aggregation, pipelined
    upcast/downcast (the Kutten–Peleg-style primitives of Appendix B/F).

    All functions advance the network clock by exactly the number of
    rounds the message-passing protocol needs (plus documented
    termination-detection surcharges). *)

type tree = {
  root : int;
  parent : int array; (* parent.(root) = root; -1 for non-members *)
  depth : int array; (* -1 for non-members *)
  height : int; (* max depth *)
}

(** [bfs_tree net ~root] floods a BFS tree from [root]; takes
    eccentricity(root) + 1 rounds. *)
val bfs_tree : Net.t -> root:int -> tree

(** [flood_min net ~value ~rounds] floods per-node values, each node
    repeatedly broadcasting the smallest value heard; after [rounds]
    rounds returns each node's current minimum. With [rounds >=]
    diameter this is the global minimum everywhere. A node holding
    [max_int] stays silent: a minimum with it changes nothing. *)
val flood_min : Net.t -> value:(int -> int) -> rounds:int -> int array

(** [flood_min_checked] computes the same fixpoint as {!flood_min}, but
    routes every per-node state access through the {!Knowledge} locality
    sanitizer: values travel as (witness, value) pairs (two words per
    message instead of one) and a node can only fold over entries it
    provably received — a read outside that set raises
    [Net.Protocol_violation]. Reference implementation for writing
    checked protocols. *)
val flood_min_checked : Net.t -> value:(int -> int) -> rounds:int -> int array

(** [preprocess net] runs the standard O(D) setup the paper assumes
    (§2): elect the minimum id as leader, build its BFS tree, and learn
    [n] and a 2-approximation of the diameter. *)
val preprocess : Net.t -> tree * int * int
(** Returns [(bfs_tree_of_leader, n, diameter_upper_bound)] with
    [diameter <= diameter_upper_bound <= 2 * diameter]. *)

(** [converge_sum net tree value] sums per-node values at the root
    (height rounds; partial sums must fit in a word). Every node learns
    nothing; only the root's total is returned. *)
val converge_sum : Net.t -> tree -> (int -> int) -> int

(** [converge_min net tree value] is the minimum variant; [max_int]
    values are treated as "no value". *)
val converge_min : Net.t -> tree -> (int -> int) -> int

(** [broadcast_int net tree x] sends one word from the root to everyone
    (height rounds); returns the per-node received value (all [x]). *)
val broadcast_int : Net.t -> tree -> int -> int array

(** [pipelined_upcast net tree ~items ~filter] sends every node's list of
    fixed-width items toward the root, one item per node per round.
    At each intermediate node [v] (and at the root), arriving or locally
    originating items pass through [filter v item]; only accepted items
    are forwarded (the Kutten–Peleg forest-filtering upcast). Returns
    the items accepted at the root, in arrival order. Rounds: at most
    height + (number of items any single node forwards). *)
val pipelined_upcast :
  Net.t -> tree -> items:(int -> Net.msg list) -> filter:(int -> Net.msg -> bool)
  -> Net.msg list

(** [pipelined_downcast net tree items] floods a list of items from the
    root to all nodes, pipelined one item per round per level; takes
    height + length(items) rounds. Returns nothing (all nodes see all
    items by construction). *)
val pipelined_downcast : Net.t -> tree -> Net.msg list -> unit

(** [pipelined_converge net tree ~values ~better] is the Kutten–Peleg
    aggregated upcast: every node holds keyed values ([values u] lists
    [(key, payload)] pairs); the root ends up with, for every key, the
    [better]-minimal payload over the whole tree. Streams travel in
    increasing key order, one item per node per round, each node merging
    its children's streams with its own values and emitting key [j] only
    once everything at key <= j has arrived — so the whole exchange
    costs height + (number of distinct keys) rounds instead of
    height × keys. Returns the root's [(key, payload)] list in
    increasing key order. [better a b] holds when payload [a] beats [b];
    payloads are small msg word-lists. *)
val pipelined_converge :
  Net.t -> tree -> values:(int -> (int * Net.msg) list) ->
  better:(Net.msg -> Net.msg -> bool) -> (int * Net.msg) list
