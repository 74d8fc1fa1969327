(** Verify-and-recover decomposition pipeline.

    {!Cds_packing} succeeds w.h.p., not always — a run can leave a
    class disconnected — and a fault adversary can crash nodes out of a
    packing that {e was} valid. This module guards every decomposition
    with the Appendix E {!Tester} (Lemma E.1) and recovers from
    detected failure under one of two policies sharing one result type:

    - [`Retry]: throw the packing away and re-run from a decorrelated
      fresh seed, up to [max_retries] times, with {!default_backoff}
      charged to the CONGEST clock;
    - [`Repair]: hand the broken packing to {!Repair}, which fixes only
      the broken classes (orphan reassignment + localized fragment
      splicing) and drops what it cannot fix; the repaired packing is
      re-verified, and only on {e that} failing does the pipeline fall
      back to a reseeded retry. In the distributed variant the repair
      region runs behind a {!Congest.Net.barrier} — a failed repair is
      rolled back (network counters, digests, adversary state) so the
      retry re-executes deterministically, while the discarded rounds
      remain charged.

    The ladder is written once, over a {!Side}: {!run_verified} runs it
    on a graph, {!run_verified_distributed} on a network.

    Every result carries a {!Certificate} for whatever survived, so
    even a degraded output (classes dropped by repair) is a
    machine-checkable claim, not a log line.

    The distributed pipeline is live-aware: the tester runs with
    [live = Congest.Net.node_alive net], so nodes the installed
    adversary crashed hold no memberships and owe no coverage. With no
    adversary installed this is the identity.

    Accounting invariant (distributed): [rounds_charged] equals the sum
    of every attempt's [attempt_rounds] (which includes rounds consumed
    by rolled-back repair regions) plus the backoffs charged between
    attempts. *)

type policy = [ `Retry | `Repair ]

type attempt = {
  attempt_seed : int;  (** seed this attempt ran with *)
  outcome : Tester.outcome;
      (** the attempt's final verdict — the repaired packing's retest
          when a repair was tried, the original test otherwise *)
  attempt_rounds : int;
      (** CONGEST rounds this attempt consumed: packing + test + any
          repair and retest, rolled-back rounds included; 0 for
          centralized runs *)
  repaired : bool;  (** a repair was attempted during this attempt *)
}

type result = {
  packing : Cds_packing.t;  (** the last attempt's packing *)
  memberships : int list array;
      (** final per-real-node class lists: the repaired memberships
          when a repair verified, the packing's own (live nodes only)
          otherwise — what the certificate certifies *)
  attempts : attempt list;  (** chronological, ≥ 1 *)
  verified : bool;  (** the returned memberships passed the tester *)
  retries : int;  (** attempts - 1 *)
  rounds_charged : int;
      (** distributed: rounds consumed including backoff and
          rolled-back repair regions; centralized: 0 *)
  budget_exhausted : bool;
      (** the distributed pipeline stopped retrying because a
          [round_budget] (a deadline expressed in CONGEST rounds) was
          reached before the retry ladder was exhausted; always [false]
          centralized and when no budget was given *)
  repair : Repair.t option;
      (** the repair that produced [memberships], when one verified *)
  certificate : Certificate.t;  (** always present, even unverified *)
  degraded : bool;  (** fewer classes retained than requested *)
  classes_retained : int;
}

val default_max_retries : int

(** Exponential: attempt [i] idles [2^i] rounds before retrying. *)
val default_backoff : int -> int

(** [run_verified ?seed ?max_retries ?policy ?live ?k g ~classes
    ~layers]: centralized packing + centralized tester + centralized
    recovery. [live] (default: everyone) restricts verification and
    repair to the surviving subgraph. [k] (default [3 * classes]) feeds
    the certificate's Ω(k/log n) accounting. If every attempt fails,
    the last packing is returned with [verified = false]. *)
val run_verified :
  ?seed:int ->
  ?max_retries:int ->
  ?policy:policy ->
  ?live:(int -> bool) ->
  ?k:int ->
  Graphs.Graph.t ->
  classes:int ->
  layers:int ->
  result

(** [pack_verified ?seed ?max_retries ?policy g ~k] is {!run_verified}
    with the default parameters for connectivity(-estimate) [k]. *)
val pack_verified :
  ?seed:int ->
  ?max_retries:int ->
  ?policy:policy ->
  Graphs.Graph.t ->
  k:int ->
  result

(** Distributed packing + distributed tester over the CONGEST runtime;
    [default_backoff attempt] silent rounds are charged before retry
    [attempt + 1]; liveness is taken from the installed fault
    adversary via {!Congest.Net.node_alive}.

    [round_budget] is a deadline expressed on the CONGEST clock (the
    serve daemon maps wall-clock deadlines to it — DESIGN.md §11): the
    first attempt always runs, but a retry is only started while the
    rounds charged so far plus its backoff stay below the budget.
    Stopping early sets [budget_exhausted]; the accounting invariant
    ([rounds_charged] = attempts + backoffs) is unchanged. *)
val run_verified_distributed :
  ?seed:int ->
  ?max_retries:int ->
  ?policy:policy ->
  ?round_budget:int ->
  ?k:int ->
  Congest.Net.t ->
  classes:int ->
  layers:int ->
  result

(** {!run_verified_distributed} with the default parameters for
    connectivity(-estimate) [k]. *)
val pack_verified_distributed :
  ?seed:int ->
  ?max_retries:int ->
  ?policy:policy ->
  ?round_budget:int ->
  Congest.Net.t ->
  k:int ->
  result
