(** Atomic artifact writing (CSV and JSON).

    Every artifact is materialized in full in a temporary file next to
    its destination and renamed into place only on success, so a killed
    or crashing sweep never leaves a truncated [chaos.csv] or
    [BENCH_*.json] — the previous complete artifact (if any) survives
    instead. This is the single writer behind the sweeps' CSV sink
    ({!Sweep.run}'s [?csv]), the sweep engine's benchmark JSON and the
    daemon's metrics dump. *)

(** [with_file ~path f] hands [f] an [emit] function appending one line
    per call. On normal return the file is atomically renamed into
    place and announced on stderr; if [f] raises, the temporary is
    removed and nothing is (over)written. *)
val with_file : path:string -> ((string -> unit) -> 'a) -> 'a

(** [with_csv ~path ~header f] is {!with_file} with [header] emitted
    first. *)
val with_csv : path:string -> header:string -> ((string -> unit) -> 'a) -> 'a

(** [write ~path content] writes [content] atomically (tmp + rename),
    without announcing. *)
val write : path:string -> string -> unit

(** {1 JSON}

    A minimal JSON tree — enough for the [BENCH_*.json] schema without
    adding a dependency. Serialization is deterministic: fields are
    emitted in the order given. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

(** [write_json ~path j] pretty-prints [j] and writes it atomically,
    announcing the artifact on stdout.

    [BENCH_*.json] run reports get one extra behavior: if a
    [bench/trajectory/] directory exists under the current working
    directory (i.e. the sweep runs from the repo root), the same
    content is also written to [bench/trajectory/BENCH_<sweep>.json] —
    the {e tracked} snapshot of an otherwise gitignored artifact, so
    the performance trajectory survives in git history (see README
    "Benchmarks"). *)
val write_json : path:string -> json -> unit
