(** Persistent domain team for the sharded round engine.

    A [Net] with [domains > 1] keeps one team for its whole lifetime:
    the worker domains are spawned once and reused by every round, so
    the per-round cost is two condition-variable handshakes, not a
    [Domain.spawn]. Between rounds the workers park on a condition
    variable — never spin — so an idle sharded net costs nothing and
    oversubscribed hosts (more shards than cores) degrade gracefully.

    Determinism contract (the shard-merge boundary, DESIGN.md §15):
    [run] hands out shard indices [0 .. shards-1] from a shared cursor,
    so {e which} domain executes {e which} shard is scheduling-
    dependent — but shard bodies may only write slots owned by their
    shard index (disjoint array ranges, per-shard accumulator cells,
    [Atomic]s), and the caller folds per-shard results in shard-index
    order after [run] returns. Under that discipline the merged outcome
    is a pure function of the inputs, independent of domain count and
    scheduling. *)

type t

val create : width:int -> t
(** [create ~width] spawns [width - 1] worker domains (the calling
    domain is the [width]-th executor). [width <= 1] spawns nothing and
    makes [run] purely sequential. Workers are marked with
    [Par.with_worker], so nets or pools created inside shard bodies
    degrade to sequential instead of oversubscribing. *)

val width : t -> int

val run : t -> shards:int -> (int -> unit) -> unit
(** [run t ~shards fn] executes [fn k] once for every
    [k in 0 .. shards-1] across the team, the calling domain included.
    With [shards <= 1] (or a width-1 team) the shards run inline on the
    caller, with no synchronization at all. Returns when all of them
    have finished: every write made by a shard body happens-before the
    return (mutex handshake). If shard bodies raise, the exception of
    the lowest shard index is re-raised here — but the round engine
    records violations per shard and merges them itself, so in [Net]
    this path means a bug, not a protocol violation. Not reentrant: one
    [run] per team at a time; shard bodies must not call [run] on their
    own team. *)

val shutdown : t -> unit
(** Stop and join the worker domains. Idempotent. Forgetting to call it
    leaks parked domains until process exit, where an [at_exit] hook
    joins every remaining team ([Domain]s left unjoined at exit are a
    runtime error). Must not be called while a [run] is in flight. *)
