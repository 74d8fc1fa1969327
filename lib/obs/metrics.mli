(** In-process metrics: atomic counters, gauges, and fixed-log-bucket
    histograms with a deterministic snapshot.

    All hot-path updates are single [Atomic] operations, so instruments
    can be shared freely across [Exec.Pool] domains; registration (the
    only mutex-protected path) must happen before the instrument is
    handed to other domains. Snapshots of concurrently-updated
    instruments are per-cell atomic, not globally consistent — a
    histogram's [h_count] can momentarily disagree with the sum of its
    buckets by in-flight observations. *)

type t
(** A registry: a named set of instruments. *)

val create : unit -> t

(** {1 Instruments}

    Looking up the same name twice returns the same instrument.
    Registering a name as two different instrument kinds raises
    [Invalid_argument]. Callers should look an instrument up once and
    cache it; lookup takes the registry mutex, updates do not. *)

type counter

val counter : t -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

type gauge

val gauge : t -> string -> gauge
val set : gauge -> int -> unit
val gauge_value : gauge -> int

type histogram

val histogram : t -> string -> histogram

val observe : histogram -> int -> unit
(** Record one non-negative integer observation (negative values are
    clamped to 0). Units are the caller's business; this module only
    promises that bucket boundaries are fixed powers-of-two subdivided
    8 ways, identical in every process, so merges line up. *)

val labeled : string -> (string * string) list -> string
(** [labeled name [(k, v); ...]] renders [name{k="v",...}] — the
    convention for per-label instruments ([serve_latency_us{op="x"}]).
    Labels are sorted by key so the same set always yields the same
    instrument name. *)

(** {1 Bucket scheme}

    Exposed for tests and exporters. Bucket [i] covers
    [[lower_bound i, upper_bound i]]; values 0..7 get exact buckets,
    beyond that each octave splits into 8 sub-buckets (worst-case
    relative error 12.5%). Everything at or above [bucket_of max_int]
    shares the top bucket. *)

val bucket_count : int
val bucket_of : int -> int
val upper_bound : int -> int

(** {1 Snapshots} *)

type hist = {
  h_count : int;
  h_sum : int;
  h_buckets : (int * int) list;
      (** sparse [(bucket index, count)], sorted by index, counts > 0 *)
}

type snapshot = {
  s_counters : (string * int) list;  (** sorted by name *)
  s_gauges : (string * int) list;  (** sorted by name *)
  s_hists : (string * hist) list;  (** sorted by name *)
}

val snapshot : t -> snapshot

val quantile : hist -> float -> int
(** [quantile h q] estimates the [q]-quantile (0 <= q <= 1) as the
    upper bound of the bucket holding that rank; 0 for an empty
    histogram. Over-estimates by at most one sub-bucket width. *)

val find_counter : snapshot -> string -> int option
val find_hist : snapshot -> string -> hist option
