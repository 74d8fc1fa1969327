(** Experiment jobs: pure closures with a human-readable label.

    A job is one cell of a sweep grid — it builds all of its own state
    (graph, [Congest.Net.t], seeded [Random.State.t]) inside its closure
    and returns a {!payload}: the formatted table text destined for
    stdout, the machine-readable artifact rows (CSV lines), and a bag of
    structured facts for post-run invariant checks. Because a job owns
    every piece of mutable state it touches, jobs are safe to execute on
    any domain of the {!Pool}, and a job's payload depends only on its
    inputs (algorithm, parameters, seed), never on the domain or the
    schedule that ran it. *)

type payload = {
  out : string;  (** table text, printed verbatim in job order *)
  rows : string list;  (** artifact (CSV) rows, appended in job order *)
  meta : (string * string) list;
      (** structured facts for invariant checks across the grid *)
}

type t

(** [make ~algo ?params ?seed run] declares a job. [algo] names the
    algorithm/experiment family; [params] are the grid coordinates;
    [seed] is the root of all randomness the closure may consult.
    [label] defaults to ["algo(k=v,...)#seed"]. *)
val make :
  algo:string ->
  ?params:(string * string) list ->
  ?seed:int ->
  ?label:string ->
  (unit -> payload) ->
  t

val label : t -> string

(** Execute the closure (no containment — see {!Pool}). *)
val run : t -> payload

(** [payload out] builds a payload; [rows] and [meta] default to []. *)
val payload : ?rows:string list -> ?meta:(string * string) list -> string -> payload

(** Lookup in a payload's meta list. *)
val meta : payload -> string -> string option
