(** Work-stealing domain pool with deterministic result ordering.

    Tasks are indexed [0..n-1]; idle domains steal the next unclaimed
    index from a shared atomic counter, so the {e schedule} (which
    domain runs which task, in what real-time order) is nondeterministic
    but the {e result} is not: outcome [i] is always task [i]'s outcome,
    and tasks are required to be pure closures over their own private
    state (see {!Job}), so the outcome array of a [~domains:n] run is
    identical to a [~domains:1] run.

    Crash containment: an exception escaping task [i] is captured as
    [`Failed message] in slot [i]; the other tasks and the pool itself
    are unaffected.

    With [domains = 1] (or a single task) everything runs inline on the
    calling domain and [Domain.spawn] is never reached — the sequential
    baseline really is sequential.

    The pool is the only multicore layer: a [Congest.Net] runs its
    rounds on the domain that drives it, so a pool of [d] domains runs
    at most [d] whole simulations at once. *)

type 'a outcome = [ `Ok of 'a | `Failed of string ]

type progress = {
  p_done : int;
  p_total : int;
  p_elapsed_s : float;
  p_eta_s : float;  (** linear extrapolation; 0 until the first task ends *)
  p_utilization : float array;
      (** per-domain busy-fraction of elapsed wall-clock *)
}

type 'a report = {
  results : 'a outcome array;  (** slot [i] = task [i], every run *)
  wall_s : float;
  busy_s : float array;  (** per-domain seconds spent inside tasks *)
}

(** [Domain.recommended_domain_count () - 1], at least 1 — leave a core
    for the coordinator/OS. *)
val default_domains : unit -> int

(** [run ?domains ?metrics ?on_progress tasks] executes every task and
    returns the ordered outcomes. [on_progress] is invoked (serialized,
    from whichever domain finished a task) after each completion.

    With [metrics], the pool feeds [exec_jobs_total],
    [exec_jobs_failed_total], and [exec_steals_total] (tasks claimed by
    a domain other than the caller's) — counter updates only, so the
    schedule and results are unaffected. *)
val run :
  ?domains:int ->
  ?metrics:Obs.Metrics.t ->
  ?on_progress:(progress -> unit) ->
  (unit -> 'a) array ->
  'a report
