module P = Protocol

type config = {
  socket_path : string;
  queue_capacity : int;
  max_frame : int;
  accept_backlog : int;
  worker : Worker.config;
  state_dir : string option;
  snapshot_every : int;
  idle_timeout_ms : int;
  metrics_file : string option;
  metrics_every_ms : int;
}

let default_config ~socket_path =
  {
    socket_path;
    queue_capacity = 64;
    max_frame = Framing.default_max_len;
    accept_backlog = 64;
    worker = Worker.default_config;
    state_dir = None;
    snapshot_every = Journal.default_snapshot_every;
    idle_timeout_ms = 10_000;
    metrics_file = None;
    metrics_every_ms = 1_000;
  }

(* ------------------------------------------------------------------ *)
(* Connections *)

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable len : int;
  mutable alive : bool;
  mutable last_progress_ms : float;
      (** last time bytes arrived — the slowloris clock *)
}

let new_conn fd =
  {
    fd;
    buf = Bytes.create 4096;
    len = 0;
    alive = true;
    last_progress_ms = Worker.now_ms ();
  }

let conn_close c =
  if c.alive then begin
    c.alive <- false;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* A reply failure (peer went away mid-write) closes that connection
   and nothing else. *)
let reply c resp =
  if c.alive then
    try Framing.write_frame c.fd (P.encode_response resp)
    with Unix.Unix_error _ | Sys_error _ -> conn_close c

type pending = { p_conn : conn; p_req : P.request; p_enqueued_ms : float }

type stats = {
  mutable served : int;
  mutable fresh : int;
  mutable stale : int;
  mutable shed : int;
  mutable errors : int;
}

(* The daemon's own instruments, registered once at boot. Per-opcode
   latency is observed only for queued work requests; control ops
   (Health/Drain/Stats) answer inline in the loop and are not timed. *)
type sobs = {
  so_requests : Obs.Metrics.counter;
  so_shed : Obs.Metrics.counter;
  so_errors : Obs.Metrics.counter;
  so_queue_depth : Obs.Metrics.gauge;
  so_journal_appends : Obs.Metrics.counter;
  so_fsync_us : Obs.Metrics.histogram;
  so_journal_bytes : Obs.Metrics.gauge;
  so_journal_segments : Obs.Metrics.gauge;
  so_replayed : Obs.Metrics.gauge;
  so_lat_decompose : Obs.Metrics.histogram;
  so_lat_verify : Obs.Metrics.histogram;
  so_lat_certificate : Obs.Metrics.histogram;
  so_lat_crash_test : Obs.Metrics.histogram;
}

let latency_name op = Obs.Metrics.labeled "serve_latency_us" [ ("op", op) ]

let make_sobs m =
  {
    so_requests = Obs.Metrics.counter m "serve_requests_total";
    so_shed = Obs.Metrics.counter m "serve_shed_total";
    so_errors = Obs.Metrics.counter m "serve_errors_total";
    so_queue_depth = Obs.Metrics.gauge m "serve_queue_depth";
    so_journal_appends = Obs.Metrics.counter m "serve_journal_appends_total";
    so_fsync_us = Obs.Metrics.histogram m "serve_journal_fsync_us";
    so_journal_bytes = Obs.Metrics.gauge m "serve_journal_bytes";
    so_journal_segments = Obs.Metrics.gauge m "serve_journal_segments";
    so_replayed = Obs.Metrics.gauge m "serve_replayed";
    so_lat_decompose = Obs.Metrics.histogram m (latency_name "decompose");
    so_lat_verify = Obs.Metrics.histogram m (latency_name "verify");
    so_lat_certificate = Obs.Metrics.histogram m (latency_name "certificate");
    so_lat_crash_test = Obs.Metrics.histogram m (latency_name "crash_test");
  }

let latency_hist o = function
  | P.Decompose _ -> Some o.so_lat_decompose
  | P.Verify _ -> Some o.so_lat_verify
  | P.Certificate _ -> Some o.so_lat_certificate
  | P.Crash_test -> Some o.so_lat_crash_test
  | P.Health | P.Drain | P.Stats -> None

type state = {
  cfg : config;
  worker : Worker.t;
  queue : pending Queue.t;
  stats : stats;
  metrics : Obs.Metrics.t;
  sobs : sobs;
  mutable last_dump_ms : float;
  started_ms : float;
  journal : Journal.t option;
  mutable conns : conn list;
  mutable draining : bool;
  mutable drain_conn : conn option;
  (* accept-path fd-exhaustion backoff: while paused the listener is
     left out of select, so pending connections sit in the kernel
     backlog instead of spinning the loop on EMFILE *)
  mutable accept_pause_until_ms : float;
  mutable accept_backoff_ms : float;
}

let accept_backoff0_ms = 50.
let accept_backoff_max_ms = 2_000.

(* Classifying accept(2) failures. [`Pause]: the process is out of fds
   (or the system is) — accepting again immediately would fail again,
   so shed by pausing the listener with exponential backoff. [`Retry]:
   transient per-connection noise (EINTR, ECONNABORTED, ...) — drop
   this attempt and keep the loop hot. Pure, exposed for tests. *)
let accept_error_action = function
  | Unix.EMFILE | Unix.ENFILE -> `Pause
  | _ -> `Retry

(* Journal writes must never take the daemon down: a full disk degrades
   durability, not availability. *)
let journal_try f = try f () with Sys_error _ | Unix.Unix_error _ -> ()

let health st =
  P.Health_report
    {
      P.h_uptime_ms = int_of_float (Worker.now_ms () -. st.started_ms);
      h_served = st.stats.served;
      h_fresh = st.stats.fresh;
      h_stale = st.stats.stale;
      h_shed = st.stats.shed;
      h_errors = st.stats.errors;
      h_queue_depth = Queue.depth st.queue;
      h_queue_capacity = Queue.capacity st.queue;
      h_draining = st.draining;
      h_cached_certs = Degrade.count (Worker.store st.worker);
      h_replayed = Worker.replayed st.worker;
      h_journal_bytes =
        (match st.journal with Some j -> Journal.size_bytes j | None -> 0);
      h_journal_segments =
        (match st.journal with Some j -> Journal.segment_count j | None -> 0);
    }

let stats_report st =
  P.Stats_report
    {
      P.s_uptime_ms = int_of_float (Worker.now_ms () -. st.started_ms);
      s_metrics = Obs.Metrics.snapshot st.metrics;
    }

let count_error st =
  st.stats.errors <- st.stats.errors + 1;
  Obs.Metrics.incr st.sobs.so_errors

let account st resp =
  st.stats.served <- st.stats.served + 1;
  Obs.Metrics.incr st.sobs.so_requests;
  match resp with
  | P.Result { P.stale = false; _ } -> st.stats.fresh <- st.stats.fresh + 1
  | P.Result { P.stale = true; _ } | P.Cert { P.c_stale = true; _ } ->
    st.stats.stale <- st.stats.stale + 1
  | P.Cert _ -> st.stats.fresh <- st.stats.fresh + 1
  | P.Error _ -> count_error st
  | P.Health_report _ | P.Drained _ | P.Stats_report _ -> ()

(* Admission: control ops answer in the loop; work requests face the
   bounded queue and are shed with an explicit Overloaded the moment it
   is full. *)
let admit st c req =
  match req with
  | P.Health -> reply c (health st)
  | P.Stats -> reply c (stats_report st)
  | P.Drain ->
    st.draining <- true;
    st.drain_conn <- Some c
  | req ->
    if st.draining then reply c (P.Error (P.Shutting_down, "daemon draining"))
    else if
      Queue.push st.queue
        { p_conn = c; p_req = req; p_enqueued_ms = Worker.now_ms () }
    then begin
      (* admitted: journal the acceptance. Batched — synced once per
         loop iteration, not per record (requests are idempotent
         queries; the replay only counts them) *)
      match st.journal with
      | Some j ->
        journal_try (fun () ->
            Journal.append j (Journal.Accept { req = P.encode_request req });
            Obs.Metrics.incr st.sobs.so_journal_appends)
      | None -> ()
    end
    else begin
      st.stats.shed <- st.stats.shed + 1;
      st.stats.served <- st.stats.served + 1;
      Obs.Metrics.incr st.sobs.so_shed;
      Obs.Metrics.incr st.sobs.so_requests;
      reply c
        (P.Error
           ( P.Overloaded,
             Printf.sprintf "queue full (%d); request shed"
               (Queue.capacity st.queue) ))
    end

(* Feed newly read bytes through the incremental frame decoder. *)
let drain_frames st c =
  let continue = ref true in
  while !continue && c.alive do
    match Framing.try_decode ~max_len:st.cfg.max_frame c.buf ~len:c.len with
    | `Need_more -> continue := false
    | `Error m ->
      (* the stream cannot be resynchronized after a framing error:
         answer once, then drop the connection *)
      reply c (P.Error (P.Bad_request, "frame: " ^ m));
      count_error st;
      conn_close c
    | `Frame (payload, consumed) -> (
      Bytes.blit c.buf consumed c.buf 0 (c.len - consumed);
      c.len <- c.len - consumed;
      match P.decode_request payload with
      | Error m ->
        count_error st;
        reply c (P.Error (P.Bad_request, "request: " ^ m))
      | Ok req -> admit st c req)
  done

let read_conn st c =
  if Bytes.length c.buf - c.len < 4096 then begin
    let bigger = Bytes.create (2 * Bytes.length c.buf) in
    Bytes.blit c.buf 0 bigger 0 c.len;
    c.buf <- bigger
  end;
  match Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) with
  | 0 -> conn_close c
  | r ->
    c.len <- c.len + r;
    c.last_progress_ms <- Worker.now_ms ();
    drain_frames st c
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    conn_close c

(* Slowloris guard: a connection holding a half-written frame that has
   made no byte progress past the idle deadline gets one structured
   error and is dropped — its buffer must not be pinned forever. An
   idle connection with an {e empty} buffer is a legitimate keep-alive
   client between requests and is left alone. *)
let reap_stalled st ~now_ms =
  let limit = float_of_int st.cfg.idle_timeout_ms in
  List.iter
    (fun c ->
      if c.alive && c.len > 0 && now_ms -. c.last_progress_ms > limit then begin
        reply c
          (P.Error
             ( P.Bad_request,
               Printf.sprintf "frame stalled: no bytes for %d ms"
                 st.cfg.idle_timeout_ms ));
        count_error st;
        conn_close c
      end)
    st.conns

let process_queue st =
  let continue = ref true in
  while !continue do
    match Queue.pop st.queue with
    | None -> continue := false
    | Some { p_conn; p_req; p_enqueued_ms } ->
      if p_conn.alive then begin
        let resp = Worker.handle st.worker ~enqueued_at_ms:p_enqueued_ms p_req in
        account st resp;
        reply p_conn resp;
        match latency_hist st.sobs p_req with
        | Some h ->
          (* queue wait + compute + reply write, in µs *)
          Obs.Metrics.observe h
            (int_of_float ((Worker.now_ms () -. p_enqueued_ms) *. 1000.))
        | None -> ()
      end
  done

let run ?(on_ready = fun () -> ()) cfg =
  (* crash-only boot order (DESIGN.md §13): open + replay the journal,
     build the worker, fold the replay into warm state, and only then
     install the live journal sink — installing it earlier would
     re-journal every replayed fact on each restart. *)
  let journal, replay =
    match cfg.state_dir with
    | None -> (None, Journal.empty_replay)
    | Some dir ->
      let j, r = Journal.open_dir dir in
      (Some j, r)
  in
  let metrics = Obs.Metrics.create () in
  let sobs = make_sobs metrics in
  let worker = Worker.create ~metrics cfg.worker in
  Worker.warm worker replay;
  (match journal with
  | None -> ()
  | Some j ->
    Worker.set_journal worker (fun r ->
        (* Graph and Promote records are synced immediately: they are
           durable before the reply built on them reaches the client *)
        journal_try (fun () ->
            Journal.append j r;
            Obs.Metrics.incr sobs.so_journal_appends;
            let t0 = Worker.now_ms () in
            Journal.sync j;
            Obs.Metrics.observe sobs.so_fsync_us
              (int_of_float ((Worker.now_ms () -. t0) *. 1000.)))));
  let st =
    {
      cfg;
      worker;
      queue = Queue.create ~capacity:cfg.queue_capacity;
      stats = { served = 0; fresh = 0; stale = 0; shed = 0; errors = 0 };
      metrics;
      sobs;
      last_dump_ms = Worker.now_ms ();
      started_ms = Worker.now_ms ();
      journal;
      conns = [];
      draining = false;
      drain_conn = None;
      accept_pause_until_ms = 0.;
      accept_backoff_ms = accept_backoff0_ms;
    }
  in
  Obs.Metrics.set sobs.so_replayed (Worker.replayed worker);
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listener with Unix.Unix_error _ -> ());
      List.iter conn_close st.conns;
      (match journal with
      | Some j -> journal_try (fun () -> Journal.close j)
      | None -> ());
      (* final dump so a short-lived or drained daemon still leaves a
         complete metrics file behind *)
      (match cfg.metrics_file with
      | Some path -> (
        try
          Exec.Artifact.write ~path
            (Obs.Export.json (Obs.Metrics.snapshot st.metrics))
        with Sys_error _ | Unix.Unix_error _ -> ())
      | None -> ());
      try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind listener (Unix.ADDR_UNIX cfg.socket_path);
      Unix.listen listener cfg.accept_backlog;
      on_ready ();
      let running = ref true in
      while !running do
        st.conns <- List.filter (fun c -> c.alive) st.conns;
        let now = Worker.now_ms () in
        let accepting =
          (not st.draining) && now >= st.accept_pause_until_ms
        in
        let read_fds =
          (if accepting then [ listener ] else [])
          @ List.map (fun c -> c.fd) st.conns
        in
        let readable, _, _ =
          try Unix.select read_fds [] [] 0.05
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        List.iter
          (fun fd ->
            if fd = listener then begin
              match Unix.accept listener with
              | client, _ ->
                st.accept_backoff_ms <- accept_backoff0_ms;
                st.conns <- new_conn client :: st.conns
              | exception Unix.Unix_error (e, _, _) -> (
                match accept_error_action e with
                | `Retry -> ()
                | `Pause ->
                  (* out of fds: leave the listener out of select until
                     the pause expires; pending clients wait in the
                     kernel backlog *)
                  st.accept_pause_until_ms <-
                    Worker.now_ms () +. st.accept_backoff_ms;
                  st.accept_backoff_ms <-
                    Float.min (2. *. st.accept_backoff_ms)
                      accept_backoff_max_ms)
            end
            else
              match List.find_opt (fun c -> c.fd = fd) st.conns with
              | Some c -> read_conn st c
              | None -> ())
          readable;
        reap_stalled st ~now_ms:(Worker.now_ms ());
        Obs.Metrics.set st.sobs.so_queue_depth (Queue.depth st.queue);
        process_queue st;
        (match st.journal with
        | Some j ->
          journal_try (fun () ->
              (* time only dirty syncs: a clean sync is a no-op and its
                 ~0µs samples would drown the real fsync latencies *)
              if Journal.is_dirty j then begin
                let t0 = Worker.now_ms () in
                Journal.sync j;
                Obs.Metrics.observe st.sobs.so_fsync_us
                  (int_of_float ((Worker.now_ms () -. t0) *. 1000.))
              end;
              (* snapshot_every = 0 means "snapshots disabled" — without
                 the guard, 0 appended >= 0 would trigger a full
                 snapshot + segment rotation every ~50ms loop tick *)
              if
                cfg.snapshot_every > 0
                && Journal.appended_since_snapshot j >= cfg.snapshot_every
              then Journal.snapshot j (Worker.journal_state worker);
              Obs.Metrics.set st.sobs.so_journal_bytes (Journal.size_bytes j);
              Obs.Metrics.set st.sobs.so_journal_segments
                (Journal.segment_count j))
        | None -> ());
        (match cfg.metrics_file with
        | Some path ->
          let now_dump = Worker.now_ms () in
          if
            now_dump -. st.last_dump_ms
            >= float_of_int (max 1 cfg.metrics_every_ms)
          then begin
            st.last_dump_ms <- now_dump;
            try
              Exec.Artifact.write ~path
                (Obs.Export.json (Obs.Metrics.snapshot st.metrics))
            with Sys_error _ | Unix.Unix_error _ -> ()
          end
        | None -> ());
        if st.draining && Queue.is_empty st.queue then begin
          (match st.drain_conn with
          | Some c ->
            reply c (P.Drained { served = st.stats.served });
            conn_close c
          | None -> ());
          running := false
        end
      done)

(* ------------------------------------------------------------------ *)
(* Client *)

module Client = struct
  (* The receive buffer persists across [recv] calls: one kernel read
     can return several pipelined reply frames, and bytes past the
     first frame must survive until the next [recv] — a fresh buffer
     per call would silently drop them. *)
  type t = { fd : Unix.file_descr; mutable rbuf : Bytes.t; mutable rlen : int }

  let connect ?timeout_s path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    (match timeout_s with
    | Some t -> Unix.setsockopt_float fd Unix.SO_RCVTIMEO t
    | None -> ());
    { fd; rbuf = Bytes.create 4096; rlen = 0 }

  let send t req = Framing.write_frame t.fd (P.encode_request req)

  let send_raw t bytes =
    let b = Bytes.of_string bytes in
    ignore (Unix.write t.fd b 0 (Bytes.length b))

  let recv t =
    let rec go () =
      match Framing.try_decode t.rbuf ~len:t.rlen with
      | `Frame (payload, consumed) ->
        Bytes.blit t.rbuf consumed t.rbuf 0 (t.rlen - consumed);
        t.rlen <- t.rlen - consumed;
        P.decode_response payload
      | `Error m -> Error m
      | `Need_more ->
        if Bytes.length t.rbuf - t.rlen < 4096 then begin
          let bigger = Bytes.create (2 * Bytes.length t.rbuf) in
          Bytes.blit t.rbuf 0 bigger 0 t.rlen;
          t.rbuf <- bigger
        end;
        let r =
          try Unix.read t.fd t.rbuf t.rlen (Bytes.length t.rbuf - t.rlen) with
          | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> -1
        in
        if r < 0 then Error "receive timeout"
        else if r = 0 then Error "connection closed"
        else begin
          t.rlen <- t.rlen + r;
          go ()
        end
    in
    go ()

  let request t req =
    send t req;
    recv t

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end
