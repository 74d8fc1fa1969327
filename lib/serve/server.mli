(** The decomposition daemon: a Unix-domain-socket server over
    {!Framing} frames of {!Protocol} requests.

    Single-domain event loop ([Unix.select]): readable connections are
    drained into per-connection buffers, complete frames are decoded
    and admitted to the bounded {!Queue} (full queue ⇒ immediate
    [Overloaded] reply — load shedding, not collapse), then the queue
    is drained through {!Worker.handle} and replies are written back.

    Failure containment boundaries:
    - a malformed {e frame} (bad version, oversized, CRC mismatch) gets
      one [Bad_request] error frame and that connection is closed — a
      byte stream that failed its CRC cannot be resynchronized;
    - a malformed {e payload} in a valid frame gets [Bad_request] and
      the connection lives on;
    - a crash inside a request is the {!Worker}'s problem and comes
      back as an [Internal_error] frame; the loop never sees it.

    [Health], [Stats] and [Drain] are control operations handled in the
    loop itself: health and stats answer immediately even under full
    queues (health is the liveness probe; stats is the metrics scrape),
    drain stops admission, lets the queue empty, answers [Drained], and
    makes {!run} return cleanly.

    Observability: the loop owns one {!Obs.Metrics} registry, threaded
    through the worker, its {!Exec.Pool} containment runs, and every
    per-request {!Congest.Net} — see DESIGN.md §14 for the instrument
    inventory. *)

type config = {
  socket_path : string;
  queue_capacity : int;
  max_frame : int;
  accept_backlog : int;
  worker : Worker.config;
  state_dir : string option;
      (** crash-only state: open a {!Journal} here, replay it into warm
          worker state at boot, journal every durable fact while
          serving; [None] = nothing survives a kill -9 *)
  snapshot_every : int;
      (** journal records between snapshot compactions *)
  idle_timeout_ms : int;
      (** slowloris guard: a connection holding a partial frame with no
          byte progress for this long is answered one [Bad_request] and
          closed (idle connections with empty buffers are unaffected) *)
  metrics_file : string option;
      (** periodically dump the metrics snapshot here as JSON
          ({!Obs.Export.json}, written atomically via
          {!Exec.Artifact.write}), plus once on shutdown; [None] = no
          dump. The [Stats] request serves the same snapshot live. *)
  metrics_every_ms : int;  (** dump period (default 1000) *)
}

val default_config : socket_path:string -> config

(** How the accept loop treats [Unix.accept] failures: [`Pause] (fd
    exhaustion — take the listener out of [select] with exponential
    backoff; clients queue in the kernel backlog), [`Retry] (transient
    noise such as [EINTR]/[ECONNABORTED] — drop the attempt, stay hot).
    Pure; exposed for the regression test. *)
val accept_error_action : Unix.error -> [ `Pause | `Retry ]

(** [run ?on_ready cfg] binds [cfg.socket_path] (unlinking any stale
    socket first), calls [on_ready] once accepting, and serves until a
    [Drain] request completes. The socket file is removed on exit. *)
val run : ?on_ready:(unit -> unit) -> config -> unit

(** Blocking client, used by the CLI, the load generator, and tests. *)
module Client : sig
  type t

  (** [connect ?timeout_s path] — [timeout_s] arms a receive deadline
      ([SO_RCVTIMEO]); {!recv} then returns [Error "receive timeout"]
      instead of blocking forever on a dead or stalled daemon. *)
  val connect : ?timeout_s:float -> string -> t

  (** One synchronous round trip. *)
  val request : t -> Protocol.request -> (Protocol.response, string) result

  (** Fire-and-forget encoded request — for pipelining; collect with
      {!recv}. *)
  val send : t -> Protocol.request -> unit

  (** Write raw bytes with no framing — for malformed-stream tests. *)
  val send_raw : t -> string -> unit

  val recv : t -> (Protocol.response, string) result
  val close : t -> unit
end
