(** Deterministic, seeded fault adversary for the CONGEST runtime.

    The paper's decomposition is a redundancy guarantee — Ω(k/log n)
    vertex-disjoint connected dominating sets survive node and edge
    failures (Theorem 1.1, Corollary A.1). This module makes failure a
    first-class, reproducible input: an adversary composes failure
    {!spec}s and installs as a {!Congest.Net.fault_hook}, so every
    algorithm in the repository runs {e unmodified} under faults.

    Semantics (all deterministic for a fixed seed):

    - {b fail-stop crashes}: a node scheduled to crash at round [r] is
      silenced from round [r] onward (0-based round index, as reported
      to [on_round_start]) — it sends nothing and its inbox receives
      nothing, forever;
    - {b Bernoulli drops}: each delivered copy is destroyed with
      probability [p], decided by a hash of (seed, round, sender,
      receiver) (several [Drop_bernoulli] specs compose as independent
      layers, [1 - Π(1 - pᵢ)]);
    - {b scheduled edge kills}: an edge killed at round [r] destroys
      every message crossing it (both directions) from round [r] on;
    - {b greedy edge kills}: an adaptive adversary with a kill budget
      that, every [period] rounds, kills the live edge over which it has
      observed the most cumulative words (both directions, ties to the
      smaller edge id) — the worst-case-flavored adversary of the Daga
      et al. / expander-routing line of work.

    Crashes and kills change only at the start of a round, and within a
    round every decision is a pure function of its inputs, so the
    outcome does not depend on the order in which the net asks.
    Telemetry logs every crash and edge kill as an {!event};
    destroyed copies are counted by the net ({!Net.messages_lost}). *)

type event =
  | Crash of { round : int; node : int }
  | Edge_kill of { round : int; u : int; v : int }

val pp_event : Format.formatter -> event -> unit

type spec =
  | Crash_at of (int * int) list  (** [(round, node)] fail-stop schedule *)
  | Drop_bernoulli of float  (** per-message drop probability *)
  | Kill_edges_at of (int * (int * int)) list  (** [(round, (u,v))] *)
  | Greedy_edge_kill of { budget : int; period : int; from_round : int }
      (** adaptively kill the most-loaded observed edge, every [period]
          rounds starting at [from_round], at most [budget] times *)
  | Crash_storm of {
      from_round : int;
      per_round : int;
      storm_rounds : int;
      universe : int;
    }
      (** a burst of random fail-stop crashes: for [storm_rounds] rounds
          starting at [from_round], pick [per_round] victims per round
          from [\[0, universe)], victim [j] of round [r] a hash of
          (seed, r, j) (a victim already dead is a no-op, so each storm
          round kills at most [per_round] fresh nodes). The chaos
          harness's workhorse. *)

type t

(** [create ?seed specs] builds the composed adversary.
    @raise Invalid_argument on a drop probability outside [0,1] (NaN
    included). *)
val create : ?seed:int -> spec list -> t

(** The null adversary: no faults; installing it leaves every execution
    bit-identical to the fault-free runtime. *)
val none : unit -> t

(** [install net t] attaches the adversary to [net]; [uninstall net]
    detaches whatever hook is installed. An adversary keeps its state
    (crashed nodes, killed edges, telemetry) across installs. *)
val install : Net.t -> t -> unit

(** [hook g t] is the {!Net.fault_hook} that [install] attaches for
    [t] on a net over [g]: the same adversary, for a round engine other
    than [Net]'s (the reference engine of the tests). *)
val hook : Graphs.Graph.t -> t -> Net.fault_hook

val uninstall : Net.t -> unit

(** [reset t] rewinds the adversary to its creation state: crashed nodes
    revive, killed edges restore, the greedy budget refills, observed
    traffic and telemetry clear (drops and storm victims are functions
    of the seed and round). [Net.replay_reset] calls this through the installed
    hook so one adversary replays identically. *)
val reset : t -> unit

(** [save t] snapshots the adversary (crashed/killed sets, pending
    schedules, greedy budget and traffic, telemetry); the returned thunk
    restores that state and may be invoked any number of times. This is
    the adversary half of {!Net.barrier}: restore + identical
    re-execution re-makes identical fault decisions. *)
val save : t -> unit -> unit

(** {1 Queries} *)

val alive : t -> int -> bool
val crashed : t -> int -> bool
val crashed_nodes : t -> int list
val killed_edges : t -> (int * int) list
val edge_killed : t -> int * int -> bool

(** {1 Telemetry} *)

(** Chronological log of crashes and edge kills. *)
val events : t -> event list

val crashes : t -> int
val edges_killed : t -> int

(** Crashes and edge kills, with [net]'s loss counters. *)
val pp_summary : Net.t -> Format.formatter -> t -> unit
