(** Request execution: one request in, one structured response out —
    {e always}, whatever happens inside.

    Robustness properties, in order of the degradation ladder
    (DESIGN.md §11):

    - {b crash containment}: the compute closure runs under
      {!Exec.Pool}'s [`Failed] containment ([~domains:1], so it stays
      inline on the caller's domain); an escaping exception becomes an
      [Internal_error] frame, never a dead daemon;
    - {b transient retry}: a contained crash is retried with a
      decorrelated seed and exponential wall-clock backoff, up to
      [transient_retries] times while the deadline allows — fault
      injection makes individual attempts flaky by design;
    - {b deadlines → budgets}: a request's wall-clock deadline is
      mapped onto the computation's own cost model before it starts —
      distributed runs get [deadline_ms * rounds_per_ms] CONGEST rounds
      ({!Domtree.Reliable}'s [round_budget]), centralized runs get
      [deadline_ms / ms_per_attempt] retries;
    - {b graceful degradation}: when the deadline expires (before or
      during compute) or the recompute comes back unverified past the
      deadline, the last cached certificate for the graph digest is
      served with [stale = true] ({!Degrade}); only with nothing cached
      does the client see [Deadline_exceeded].

    Memoization: results are content-addressed by (graph digest, seed,
    k, policy, mode, fault spec) in memory, so repeated identical
    requests are O(1) — the cache that turns a decomposition service
    into something that sustains thousands of requests per second. *)

type config = {
  default_deadline_ms : int;  (** applied when a request says 0 *)
  rounds_per_ms : int;  (** deadline → distributed round budget *)
  ms_per_attempt : int;  (** deadline → centralized retry budget *)
  max_n : int;  (** admission control: largest graph served *)
  chaos_fail_p : float;
      (** daemon-wide chaos mode: Bernoulli message drops injected into
          every distributed request, composed with per-request specs *)
  chaos_storm : string;
      (** daemon-wide crash storm, "FROM:PER:LEN" ([""] = none); the
          universe is each served graph's own vertex count *)
  transient_retries : int;
  backoff_ms : float;  (** base of the exponential transient backoff *)
}

val default_config : config

type t

(** [create ?metrics cfg]. With [metrics], the worker feeds
    the degradation-ladder step counters
    ([serve_degrade_steps_total{step="memo_hit"|"compute"|"retry"|
    "queue_expired"|"stale_served"}]), attaches the congest bundle
    ({!Congest.Net.make_obs}) to every per-request net, and threads the
    registry through its {!Exec.Pool} containment runs. *)
val create : ?metrics:Obs.Metrics.t -> config -> t

(** The degradation store (for health reporting and tests). *)
val store : t -> Degrade.t

(** {2 Crash-only plumbing (DESIGN.md §13)}

    Boot order matters: [create] → {!warm} (fold the journal replay
    into graph/certificate state, nothing journaled) → {!set_journal}
    (install the live sink) → serve. Installing the sink first would
    re-journal every replayed fact on each restart, growing the log
    without bound. *)

(** [set_journal t sink] installs the durable-fact sink. [sink] is
    called on the server domain only (never from inside a compute
    closure) with [Journal.Graph] on each first graph resolution and
    [Journal.Promote] on each degrade-store promotion. *)
val set_journal : t -> (Journal.record -> unit) -> unit

(** [warm t replay] folds a journal replay into the worker: re-resolves
    each journaled graph spec (specs that no longer parse are skipped,
    not fatal) and records each certificate with [~fresh:false] so it
    is served as stale until this process re-verifies it. *)
val warm : t -> Journal.replay -> unit

(** Records folded into warm state by {!warm} (health reporting). *)
val replayed : t -> int

(** The worker's full durable state as snapshot records: journaled
    graph specs then promotions, both in deterministic sorted order. *)
val journal_state : t -> Journal.record list

(** [handle t ~enqueued_at_ms req] executes [req]. [enqueued_at_ms] is
    the wall-clock admission time (milliseconds, {!now_ms}) — queueing
    delay counts against the deadline. [Health] and [Drain] are control
    ops owned by the server loop; they answer [Bad_request] here. *)
val handle : t -> enqueued_at_ms:float -> Protocol.request -> Protocol.response

(** Wall-clock milliseconds (the daemon's single clock source). *)
val now_ms : unit -> float
