(** Wire protocol of the decomposition service: typed requests and
    responses with a hand-rolled binary encoding.

    The encoding is deliberately {e not} [Marshal]: frames arrive from
    untrusted peers, and unmarshalling attacker-controlled bytes is
    undefined behaviour. Every payload is a tagged struct of fixed-width
    big-endian integers and length-prefixed strings; a decoder never
    reads past the payload it was given and turns every malformation
    into [Error _] — the daemon answers those with a structured
    [Bad_request] frame instead of dying.

    Integrity (CRC), length-prefixing and versioning live one layer
    below, in {!Framing}; this module only sees whole payloads. *)

type policy = [ `Retry | `Repair ]

(** Parameters of a decomposition computation. [gen] is a
    {!Graphs.Source} generator spec ("harary:k=8,n=64"). [k = 0] lets
    the daemon estimate connectivity with the paper's own O(log n)
    approximation; [k > 0] trusts the client. [deadline_ms = 0] means
    "use the daemon's default deadline". [fail_p] and [storm]
    ("FROM:PER:LEN", [""] = none) request per-request fault injection
    (chaos mode); they require [distributed]. *)
type decompose_req = {
  gen : string;
  seed : int;
  k : int;
  policy : policy;
  distributed : bool;
  deadline_ms : int;
  fail_p : float;
  storm : string;
}

val default_decompose : gen:string -> decompose_req

type request =
  | Decompose of decompose_req
  | Verify of decompose_req
      (** decompose, then independently re-check the certificate *)
  | Certificate of { gen : string }
      (** last known certificate for the graph, served from cache only *)
  | Health
  | Drain
  | Crash_test
      (** test hook: the worker raises mid-request; the daemon must
          contain it and answer [Internal_error] *)
  | Stats
      (** metrics snapshot; answered from the serve loop like [Health],
          so it stays responsive under full queues *)

type decompose_resp = {
  digest : string;  (** content digest of the graph's edge set *)
  verified : bool;
  degraded : bool;
  stale : bool;
      (** [true]: this is a cached last-good certificate served because
          the deadline expired, not a fresh computation *)
  budget_exhausted : bool;
  classes_requested : int;
  classes_retained : int;
  rounds_charged : int;
  attempts : int;
}

type certificate_resp = {
  c_digest : string;
  c_stale : bool;
      (** [false] only when the certificate was computed by this daemon
          process; [true] when replayed from the journal *)
  c_cert : Domtree.Certificate.t;
}

type health_resp = {
  h_uptime_ms : int;
  h_served : int;
  h_fresh : int;
  h_stale : int;
  h_shed : int;
  h_errors : int;
  h_queue_depth : int;
  h_queue_capacity : int;
  h_draining : bool;
  h_cached_certs : int;
  h_replayed : int;
      (** journal records folded into warm state at boot — [> 0] after
          a recovery, the signal the CI crash smoke asserts on *)
  h_journal_bytes : int;
      (** on-disk size of the journal directory (segments + snapshot),
          the growth the supervisor's health gate watches *)
  h_journal_segments : int;  (** sealed + active WAL segment count *)
}

(** A metrics snapshot stamped with the daemon's uptime. The snapshot
    is canonical ({!Obs.Metrics.snapshot} sorts names and buckets), so
    its codec roundtrips exactly. *)
type stats_resp = { s_uptime_ms : int; s_metrics : Obs.Metrics.snapshot }

type error_kind =
  | Bad_request
  | Overloaded  (** bounded queue full: request shed, try later *)
  | Deadline_exceeded
      (** deadline passed and no cached certificate to degrade to *)
  | Not_found
  | Internal_error
      (** the worker crashed on this request; the daemon survived *)
  | Shutting_down  (** daemon is draining; no new work accepted *)

type response =
  | Result of decompose_resp
  | Cert of certificate_resp
  | Health_report of health_resp
  | Drained of { served : int }
  | Stats_report of stats_resp
  | Error of error_kind * string

val error_kind_to_string : error_kind -> string

(** {1 Binary codecs}

    [decode_*] accept exactly one encoded value and reject trailing
    garbage; they never raise. *)

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result

(** Standalone certificate codec — the {!Journal}'s [Promote] records
    persist certificates in this format. *)
val encode_certificate : Domtree.Certificate.t -> string

val decode_certificate : string -> (Domtree.Certificate.t, string) result

(** Standalone snapshot codec — what [Stats_report] carries on the
    wire, exposed for property tests and offline dump tooling. *)
val encode_snapshot : Obs.Metrics.snapshot -> string

val decode_snapshot : string -> (Obs.Metrics.snapshot, string) result
val pp_response : Format.formatter -> response -> unit
