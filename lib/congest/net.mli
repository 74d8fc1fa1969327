(** Synchronous message-passing runtime with bandwidth enforcement,
    congestion accounting, and optional fault injection.

    Algorithms advance the network one synchronous round at a time via
    [broadcast_round] (the V-CONGEST primitive: one message per node,
    delivered to all neighbors) or [edge_round] (the E-CONGEST
    primitive: one message per edge direction). The runtime

    - rejects messages exceeding the model's word budget or word width,
    - rejects [edge_round] under V-CONGEST,
    - counts rounds, messages and words,
    - tracks per-node and per-edge received-word loads (congestion),
    - consults an optional fault hook ({!install_faults}) that can
      silence crashed nodes and destroy messages in flight.

    Protocol code must follow the locality discipline: what a node sends
    in round [r] may depend only on its id, its neighbors' ids, protocol
    inputs local to it, and messages received in rounds < r. The runtime
    cannot check this, but every algorithm in this repository is written
    against per-node knowledge arrays to respect it. *)

type msg = int array

(** {1 Protocol violations}

    Illegal protocol behaviour — oversized or over-wide messages,
    [edge_round] under V-CONGEST, messages along non-edges, two messages
    on one edge direction — raises [Protocol_violation] carrying the
    round, the offending node and/or edge when known, and the violated
    budget. *)

type violation = {
  v_round : int;  (** rounds completed when the violation occurred *)
  v_node : int option;  (** offending sender, when known *)
  v_edge : (int * int) option;  (** offending edge, when known *)
  v_budget : int option;  (** the violated budget/bound, when one exists *)
  v_detail : string;
}

exception Protocol_violation of violation

val pp_violation : Format.formatter -> violation -> unit

type t

(** [create model g] wraps graph [g], with the model's
    {!Model.words_budget} at [n] nodes as its per-message budget.

    A net runs every round on the calling domain: one walk over the
    senders, descending, in which each sender that sends walks its own
    out-slots only, then one pass over the receivers, ascending, that
    closes the round's digest and loads (DESIGN.md §10). A round costs
    O(n + messages), not O(n + m). Nets share nothing, so an
    [Exec.Pool] runs one whole simulation per domain. *)
val create : Model.t -> Graphs.Graph.t -> t

val graph : t -> Graphs.Graph.t
val model : t -> Model.t
val n : t -> int

(** {1 Fault injection}

    A fault hook lets an adversary (see {!Faults}) interpose on every
    round without any change to algorithm code:

    - [on_round_start r] is called once per round, before any message
      moves, with [r] = the number of completed
      rounds (so the first round is 0) — the only place the adversary
      may change its answers;
    - a node [u] with [node_alive u = false] is {e crashed}: its send
      function is not invoked and nothing is delivered to it (the
      [deliver] hook is expected to refuse its inbound traffic);
    - [deliver ~src ~dst ~edge m] decides the fate of each message from
      a live sender over edge id [edge]: [false] destroys it in flight.
      It must be a pure function of its arguments and the round's state
      (DESIGN.md §6), writing at most a slot owned by the direction
      [src -> dst];
    - [reset ()] must rewind the adversary to its creation state
      (revive nodes and edges, clear observed traffic and
      telemetry) so a replayed protocol faces identical faults; it is
      invoked by {!replay_reset} / {!replay_check}, never by ordinary
      rounds.

    Destroyed traffic is {e not} counted in [messages_sent]/[words_sent]
    or the load maxima; it is tallied in {!messages_lost} and
    {!words_lost}. With no hook installed (or the null adversary) the
    runtime behaves bit-identically to the fault-free semantics. *)

type fault_hook = {
  on_round_start : int -> unit;
  node_alive : int -> bool;
  deliver : src:int -> dst:int -> edge:int -> msg -> bool;
  reset : unit -> unit;
  save : unit -> unit -> unit;
      (** [save ()] snapshots the adversary's full internal state
          (crashed nodes, killed edges, pending schedules, observed
          traffic, telemetry) and returns a thunk restoring it — the
          adversary half of a {!barrier}. A restored adversary replays
          the exact fault decisions it made after the snapshot, which is
          what makes {!rollback} + re-execution deterministic. *)
}

val install_faults : t -> fault_hook -> unit
val clear_faults : t -> unit
val has_faults : t -> bool

(** [node_alive net u] consults the installed fault hook ([true] when
    none is installed) — how live-aware protocol layers (repair, the
    live tester) learn which nodes the adversary has crashed without
    threading the adversary itself. *)
val node_alive : t -> int -> bool

(** {1 Rounds}

    A round is counted only once every message of it has validated. A
    round that raises [Protocol_violation] therefore counts nothing:
    rounds, messages, words, losses, load maxima, boundary words and the
    digest trace are exactly as they were when the round began, and it
    leaves an empty inbox view. The sender walk visits senders
    descending, so the violation raised is the highest offending
    sender's. (An installed fault hook has still seen [on_round_start]
    and the [deliver] calls of the senders above the offender.) *)

(** [broadcast_round net send] performs one round in which node [u]
    locally broadcasts [send u] (or stays silent on [None]). Legal in
    both models. Read what was delivered with {!iter_inbox} /
    {!iter_deliveries}.
    @raise Protocol_violation on oversized or over-wide messages. *)
val broadcast_round : t -> (int -> msg option) -> unit

(** [edge_round net send] performs one round in which node [u] sends
    [send u], a list of [(neighbor, message)] pairs, at most one message
    per incident edge. Read what was delivered with {!iter_inbox} /
    {!iter_deliveries}.
    @raise Protocol_violation under [V_congest], on non-edges, or on
    duplicate targets. *)
val edge_round : t -> (int -> (int * msg) list) -> unit

(** {2 The inbox view}

    The last round's deliveries, read in place from the buffers the
    round itself filled: no per-delivery copy is made.

    Validity: the view describes the last [broadcast_round]/[edge_round]
    on [net] and ends when the next one begins (so a [send] closure
    sees an empty view). It is empty before the first round and after a
    round that raised [Protocol_violation]. [silent_rounds] and the
    counter resets leave it as it was. Messages are the arrays the
    senders returned, not copies. *)

(** [iter_inbox net v f] calls [f v sender e m] for each message [m]
    delivered to [v] in the last round, [sender]s ascending, where [e]
    is the edge id of [sender]–[v] (as {!Graphs.Graph.edge_index}).
    One forward walk of [v]'s CSR slice; destroyed traffic and silent
    neighbours are skipped. The receiver comes first so that callers
    can pass one closure for every receiver. *)
val iter_inbox : t -> int -> (int -> int -> int -> msg -> unit) -> unit

(** [iter_deliveries net f] is [iter_inbox net v f] for every receiver
    [v], ascending. *)
val iter_deliveries : t -> (int -> int -> int -> msg -> unit) -> unit

(** [delivered net u s] is [true] iff the copy sender [u] put on its
    own CSR slot [s] in the last round (an index of [u]'s slice of
    {!Graphs.Graph.csr_neighbors}, unchecked) reached the neighbour
    [adj.(s)]. After a fault-free [broadcast_round] that is "[u] sent";
    after a [broadcast_round] under a fault hook or after an
    [edge_round], it is "[u] sent on [s] and the hook let it through".
    It is [false] before the first round and after a round that raised.

    Its validity window is the inbox view's: it describes the last round
    and ends when the next one begins. A sender-major walk — each [u]
    ascending, each slot [s] of [u] ascending, keeping the slots where
    [delivered net u s] holds — lists exactly the deliveries of
    {!iter_deliveries}, as [(u, adj.(s), csr_edge_ids.(s))] with the
    message [u] sent (on [s], in an edge round); per receiver, in the
    same ascending-sender order. *)
val delivered : t -> int -> int -> bool

(** [silent_rounds net k] advances the clock by [k] message-free rounds
    (used when a protocol idles, e.g. waiting for a known bound, or for
    the round-charged backoff of a retry policy). *)
val silent_rounds : t -> int -> unit

(** {1 Accounting} *)

val rounds : t -> int
val messages_sent : t -> int
val words_sent : t -> int

(** Messages / words destroyed by the installed fault hook (crashed
    receivers and in-flight drops). Zero when no faults are installed. *)
val messages_lost : t -> int

val words_lost : t -> int

(** Maximum words received by any single node during any single round. *)
val max_node_load : t -> int

(** Maximum words that crossed any single edge (both directions summed)
    during any single round. *)
val max_edge_load : t -> int

(** [reset_stats net] zeroes every counter: the clock ([rounds]),
    [messages_sent], [words_sent], [messages_lost], [words_lost], the
    load maxima, [boundary_words], and the per-round digest trace.

    Counter-reset contract: {e configuration} survives a reset — the
    boundary predicate stays set and an installed fault hook stays
    installed (with whatever internal state it has accumulated; crashed
    nodes stay crashed). Checkpoints taken before a reset are
    invalidated. Use {!replay_reset} when accumulated fault state must
    {e not} survive. *)
val reset_stats : t -> unit

(** {1 Two-party simulation accounting (Appendix G)}

    When a boundary predicate is set (Alice's side vs Bob's side), the
    runtime counts every word carried by a message crossing the boundary
    — the communication a two-party simulation of the protocol needs
    (Lemma G.6 charges 2BT; the cross-boundary traffic of the actual run
    is what the simulating players must forward). The predicate must be
    a pure function of the node. *)

val set_boundary : t -> (int -> bool) -> unit
val clear_boundary : t -> unit
val boundary_words : t -> int

(** {1 Observability}

    A pre-registered bundle of [Obs] instruments the round engine feeds
    per-round deltas into: [congest_rounds_total], [..._messages_total],
    [..._words_total], [..._words_lost_total], and
    [congest_budget_words_total] (messages × words budget — the capacity
    offered, so words/budget_words is budget utilization), plus an
    optional per-round ["congest.round"] span.

    Metrics are strictly out-of-band: attaching obs never touches the
    telemetry counters or round digests, so {!replay_check} verdicts are
    identical with and without it. With no obs attached the round loops
    pay one [None] branch per round. *)

type obs

(** [make_obs metrics] registers the congest instruments in [metrics]
    (idempotent — the same registry hands back the same counters, so one
    bundle can serve many nets). [spans] defaults to disabled. *)
val make_obs : ?spans:Obs.Span.t -> Obs.Metrics.t -> obs

val attach_obs : t -> obs -> unit
val detach_obs : t -> unit

(** [checkpoint net] snapshots the counters; [rounds_since net cp] is the
    rounds elapsed since. *)
type checkpoint

val checkpoint : t -> checkpoint
val rounds_since : t -> checkpoint -> int

(** {1 Barriers and rollback}

    A {!barrier} is a full-state snapshot — every counter, the round
    digest trace, and (via the fault hook's [save]) the adversary's
    internal state. {!rollback} rewinds the network to the barrier, so a
    {e poisoned} region (rounds corrupted by faults mid-protocol) can be
    discarded and re-executed deterministically: the restored adversary
    re-makes identical decisions, so re-running the identical protocol
    region reproduces the identical telemetry ({!replay_check}'s
    contract, applied to a region instead of a whole run).

    Rollback erases the discarded rounds from the clock; honest
    accounting of the work a recovery {e actually} performed is the
    caller's job (see [Domtree.Reliable]'s [rounds_charged], which adds
    {!discarded_since} back in before rolling back). Node states are
    owned by protocol code (per-node knowledge arrays), so protocol
    layers snapshot their own arrays alongside the barrier. *)

type barrier

val barrier : t -> barrier

(** [rollback net b] rewinds counters, digests, and adversary state to
    [b]. Barriers don't expire, but rolling back to [b] after a
    [reset_stats]/[replay_reset] (which zero the clock) would resurrect
    pre-reset telemetry — take barriers inside one run only. *)
val rollback : t -> barrier -> unit

(** Rounds elapsed since the barrier — the amount a [rollback] would
    discard. *)
val discarded_since : t -> barrier -> int

(** {1 Determinism sanitizer}

    Every round the runtime folds the traffic it moves — delivered
    {e and} destroyed, with sender, receiver and payload — into a
    per-round digest, so two executions have equal telemetry iff they
    are message-for-message identical. [replay_check] runs a protocol
    twice on one network and diffs the two telemetries: a protocol that
    consults any randomness outside its threaded seed (global [Random],
    hash-order iteration, wall clock) diverges and is reported. *)

type telemetry = {
  t_rounds : int;
  t_messages : int;
  t_words : int;
  t_messages_lost : int;
  t_words_lost : int;
  t_max_node_load : int;
  t_max_edge_load : int;
  t_boundary_words : int;
  t_digests : int array;
      (** one digest per message round ([broadcast_round]/[edge_round]),
          chronological; [silent_rounds] contributes none *)
}

val telemetry : t -> telemetry

(** Single digest summarizing a whole run (clock + every round digest). *)
val run_digest : telemetry -> int

val pp_telemetry : Format.formatter -> telemetry -> unit

(** Field-by-field differences, human-readable; [[]] iff equal. *)
val diff_telemetry : telemetry -> telemetry -> string list

(** [replay_reset net] is {!reset_stats} {e plus} a rewind of the
    installed fault hook to its creation state (nodes revived, edges
    restored, observed traffic and fault telemetry cleared) — the
    reset that makes one [t] reusable across replays. The boundary
    predicate and the hook installation itself survive, as with
    [reset_stats]. *)
val replay_reset : t -> unit

type replay_report = {
  r_first : telemetry;
  r_second : telemetry;
  r_divergence : string option;
      (** [None] = bit-identical telemetry; [Some d] describes the first
          differing counters/rounds *)
}

val deterministic : replay_report -> bool

(** [replay_check net protocol] calls [protocol net] twice, each from a
    {!replay_reset} network, and diffs the telemetry. The network is
    left in the second run's final state, so callers can keep reporting
    from it. [protocol] must re-derive all randomness from its own
    captured seed for the check to pass — which is exactly what it
    verifies. *)
val replay_check : t -> (t -> unit) -> replay_report
