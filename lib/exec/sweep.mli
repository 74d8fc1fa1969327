(** The sweep harness: an ordered document of text and jobs.

    A sweep is a list of {!item}s — literal text (headers, column
    banners, shape notes) interleaved with {!Job.t}s (the grid cells).
    {!run} extracts the jobs, executes every one of them on the {!Pool},
    then renders the document in item order: text verbatim, each job's
    [payload.out] in its slot, and every job's [payload.rows] appended
    to the CSV artifact in the same order. Because rendering is by item
    order and job payloads are deterministic, stdout and the CSV are
    bit-identical for every [-j N] — parallelism changes only the
    wall-clock.

    A failed job renders as a single [FAILED <label>: <message>] line
    and contributes no rows; the rest of the sweep completes. Callers
    that must fail loudly inspect {!stats.failed} or the returned
    outcomes.

    [run] also emits the [BENCH_<name>.json] artifact (when
    [~bench_json] is given): the machine-readable perf trajectory of the
    sweep — wall-clock, job counts, estimated speedup vs [-j 1] (sum of
    per-domain busy seconds over wall seconds), and a digest of the
    rendered document for cross-run byte-identity checks. *)

type item = Text of string | Job of Job.t

val text : ('a, Format.formatter, unit, item) format4 -> 'a

type stats = {
  name : string;
  jobs : int;
  ok : int;
  failed : int;
  domains : int;
  wall_s : float;
  cpu_s : float;  (** sum of in-task busy seconds across domains *)
  speedup_est : float;  (** [cpu_s /. wall_s] — speedup vs [-j 1] *)
  utilization : float array;  (** per-domain busy fraction *)
  rows_digest : string;
      (** hex digest of the fully rendered document — text items, every
          payload's [out] and [rows], failure lines — so [-j N]
          byte-identity checks compare real content even for sweeps
          whose jobs emit no CSV rows *)
}

(** [run ~name items] executes the sweep.

    @param jobs pool width; default
    [Domain.recommended_domain_count () - 1], at least 1 ([-j 1] = inline)
    @param csv CSV artifact path (with [csv_header])
    @param bench_json path for the benchmark JSON artifact
    @param progress live progress meter on stderr (default on when the
      grid has more than one job)

    Returns the stats and the per-job outcomes (label, outcome) in grid
    order. *)
val run :
  name:string ->
  ?jobs:int ->
  ?csv:string ->
  ?csv_header:string ->
  ?bench_json:string ->
  ?progress:bool ->
  item list ->
  stats * (string * Job.payload Pool.outcome) list
