module Graph = Graphs.Graph
module P = Protocol

type config = {
  default_deadline_ms : int;
  rounds_per_ms : int;
  ms_per_attempt : int;
  max_n : int;
  chaos_fail_p : float;
  chaos_storm : string;
  transient_retries : int;
  backoff_ms : float;
}

let default_config =
  {
    default_deadline_ms = 2_000;
    rounds_per_ms = 500;
    ms_per_attempt = 250;
    max_n = 1 lsl 20;
    chaos_fail_p = 0.;
    chaos_storm = "";
    transient_retries = 2;
    backoff_ms = 2.0;
  }

(* Degradation-ladder step counters, one per rung the DESIGN.md §11
   ladder can land on, plus the congest bundle attached to per-request
   nets. Registered once at create; the request path only hits
   atomics. *)
type wobs = {
  wo_memo_hits : Obs.Metrics.counter;
  wo_computes : Obs.Metrics.counter;
  wo_retries : Obs.Metrics.counter;
  wo_queue_expired : Obs.Metrics.counter;
  wo_stale_served : Obs.Metrics.counter;
  wo_net : Congest.Net.obs;
}

type t = {
  cfg : config;
  store : Degrade.t;
  (* canonical spec -> built graph + content digest *)
  graphs : (string, Graph.t * string) Hashtbl.t;
  (* graph digest -> estimated connectivity (client sent k = 0) *)
  k_est : (string, int) Hashtbl.t;
  (* full request identity -> memoized fresh response *)
  results : (string, P.response) Hashtbl.t;
  (* journal sink for durable facts (graph resolutions, promotions);
     installed by the server AFTER warm-replay so replayed state is not
     re-journaled. Called only on the server domain — compute closures
     handed to Exec.Pool never touch it. *)
  mutable journal : Journal.record -> unit;
  mutable replayed : int;  (** records folded into warm state at boot *)
  metrics : Obs.Metrics.t option;
  obs : wobs option;
}

let ladder_step metrics step =
  Obs.Metrics.counter metrics
    (Obs.Metrics.labeled "serve_degrade_steps_total" [ ("step", step) ])

let create ?metrics cfg =
  {
    cfg;
    store = Degrade.create ();
    graphs = Hashtbl.create 16;
    k_est = Hashtbl.create 16;
    results = Hashtbl.create 256;
    journal = ignore;
    replayed = 0;
    metrics;
    obs =
      Option.map
        (fun m ->
          {
            wo_memo_hits = ladder_step m "memo_hit";
            wo_computes = ladder_step m "compute";
            wo_retries = ladder_step m "retry";
            wo_queue_expired = ladder_step m "queue_expired";
            wo_stale_served = ladder_step m "stale_served";
            wo_net = Congest.Net.make_obs m;
          })
        metrics;
  }

let obs_incr t f =
  match t.obs with None -> () | Some o -> Obs.Metrics.incr (f o)

let store t = t.store
let set_journal t sink = t.journal <- sink
let replayed t = t.replayed
let now_ms () = Unix.gettimeofday () *. 1000.

let graph_digest g =
  let b = Buffer.create 1024 in
  Buffer.add_string b (string_of_int (Graph.n g));
  Buffer.add_char b ';';
  Graph.iter_edges
    (fun u v ->
      Buffer.add_string b (string_of_int u);
      Buffer.add_char b '-';
      Buffer.add_string b (string_of_int v);
      Buffer.add_char b ',')
    g;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* [Exec.Pool]'s crash containment, inline on this domain: an exception
   escaping [f] comes back as [`Failed msg], never up the daemon's
   stack. Routing through the pool also feeds exec_jobs_total /
   exec_jobs_failed_total when the daemon carries a registry. *)
let contained t f =
  (Exec.Pool.run ~domains:1 ?metrics:t.metrics [| f |]).results.(0)

(* Spec strings canonicalized through the parser, so "a:k=1,n=2" and
   "a:n=2,k=1" share one cache line and one digest. Raises [Failure] on
   malformed specs (caught into [Bad_request] by the caller). *)
let canonical_spec spec =
  let name, params = Graphs.Source.parse_kv spec in
  let params = List.sort (fun (a, _) (b, _) -> compare a b) params in
  match params with
  | [] -> name
  | _ ->
    name ^ ":"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) params)

let resolve_graph t spec =
  let spec = canonical_spec spec in
  match Hashtbl.find_opt t.graphs spec with
  | Some gd -> gd
  | None ->
    let g = Graphs.Source.gen_graph spec in
    let gd = (g, graph_digest g) in
    Hashtbl.add t.graphs spec gd;
    (* durable before the client gets an answer built on it *)
    t.journal (Journal.Graph { spec });
    gd

(* ---- crash-only warm start: fold a journal replay into this worker's
   state before the journal sink is installed, so nothing here is
   re-journaled (the snapshot already holds it). *)
let warm t (r : Journal.replay) =
  List.iter
    (fun spec ->
      match resolve_graph t spec with
      | _ -> t.replayed <- t.replayed + 1
      | exception _ ->
        (* a journaled spec that no longer parses (e.g. generator
           removed) is dropped, not fatal: crash-only startup must not
           crash on its own history *)
        ())
    r.Journal.r_graphs;
  List.iter
    (fun (digest, cert) ->
      if Degrade.record ~fresh:false t.store ~digest cert then
        t.replayed <- t.replayed + 1)
    r.Journal.r_certs

(* The worker's full authoritative durable state, in deterministic
   order — what a journal snapshot compacts to. *)
let journal_state t =
  let specs =
    Hashtbl.fold (fun spec _ acc -> spec :: acc) t.graphs []
    |> List.sort String.compare
  in
  let graphs = List.map (fun spec -> Journal.Graph { spec }) specs in
  let certs =
    Degrade.fold t.store
      (fun acc digest (e : Degrade.entry) ->
        Journal.Promote { digest; cert = e.cert } :: acc)
      []
    |> List.rev
  in
  graphs @ certs

let resolve_k t (d : P.decompose_req) ~digest g =
  if d.k > 0 then d.k
  else
    match Hashtbl.find_opt t.k_est digest with
    | Some k -> k
    | None ->
      (* the paper's own O(log n) connectivity approximation
         (Corollary 1.7) — exact vertex connectivity is too expensive
         to run per served graph *)
      let k = max 1 (Domtree.Vc_approx.centralized ~seed:1 g).estimate in
      Hashtbl.add t.k_est digest k;
      k

let parse_storm ~n spec =
  match
    String.split_on_char ':' spec
    |> List.map (fun s -> int_of_string (String.trim s))
  with
  | [ from_round; per_round; storm_rounds ]
    when from_round >= 0 && per_round >= 0 && storm_rounds >= 0 ->
    Congest.Faults.Crash_storm
      { from_round; per_round; storm_rounds; universe = n }
  | _ | (exception _) ->
    failwith ("bad storm spec (want FROM:PER:LEN, all >= 0): " ^ spec)

(* Deadline -> budget mapping (DESIGN.md §11): the wall-clock deadline
   is converted to the computation's own cost unit before it starts. *)
let round_budget t ~deadline_ms = deadline_ms * t.cfg.rounds_per_ms

let retry_budget t ~deadline_ms =
  min Domtree.Reliable.default_max_retries
    (max 0 (deadline_ms / t.cfg.ms_per_attempt))

let memo_key ~digest ~check (d : P.decompose_req) ~budgets =
  String.concat "|"
    [
      digest;
      string_of_int d.seed;
      string_of_int d.k;
      (match d.policy with `Retry -> "retry" | `Repair -> "repair");
      string_of_bool d.distributed;
      string_of_float d.fail_p;
      d.storm;
      string_of_bool check;
      budgets;
    ]

(* The degradation ladder's last rungs: a deadline miss serves the last
   cached certificate for the digest marked stale; only with nothing
   cached does the client get an error. *)
let degrade_or t ~digest err =
  match Degrade.lookup t.store ~digest with
  | Some e ->
    obs_incr t (fun o -> o.wo_stale_served);
    P.Cert { P.c_digest = digest; c_stale = true; c_cert = e.cert }
  | None -> err

let compute_once t (d : P.decompose_req) ~check ~seed ~deadline_ms g ~digest ~k
    () =
  let policy = d.policy in
  let r, live =
    if d.distributed then begin
      let net = Congest.Net.create Congest.Model.V_congest g in
      (match t.obs with
      | Some o -> Congest.Net.attach_obs net o.wo_net
      | None -> ());
      let n = Graph.n g in
      (* daemon-wide chaos composes with per-request fault specs; storm
         universes are resolved here because they depend on the graph *)
      let drops p = if p > 0. then [ Congest.Faults.Drop_bernoulli p ] else [] in
      let storms s = if s = "" then [] else [ parse_storm ~n s ] in
      let specs =
        drops t.cfg.chaos_fail_p @ storms t.cfg.chaos_storm @ drops d.fail_p
        @ storms d.storm
      in
      let live =
        if specs = [] then fun _ -> true
        else begin
          let faults = Congest.Faults.create ~seed specs in
          Congest.Faults.install net faults;
          Congest.Faults.alive faults
        end
      in
      ( Domtree.Reliable.pack_verified_distributed ~seed ~policy
          ~round_budget:(round_budget t ~deadline_ms)
          net ~k,
        live )
    end
    else
      ( Domtree.Reliable.pack_verified ~seed
          ~max_retries:(retry_budget t ~deadline_ms)
          ~policy g ~k,
        fun _ -> true )
  in
  let checked =
    (not check)
    || Domtree.Certificate.check ~seed:(seed + 1) ~live g
         ~memberships:(fun v -> r.Domtree.Reliable.memberships.(v))
         r.Domtree.Reliable.certificate
       = Ok ()
  in
  let verified = r.Domtree.Reliable.verified && checked in
  let cert = r.Domtree.Reliable.certificate in
  ( P.Result
      {
        P.digest;
        verified;
        degraded = r.Domtree.Reliable.degraded;
        stale = false;
        budget_exhausted = r.Domtree.Reliable.budget_exhausted;
        classes_requested = cert.Domtree.Certificate.c_classes_requested;
        classes_retained = r.Domtree.Reliable.classes_retained;
        rounds_charged = r.Domtree.Reliable.rounds_charged;
        attempts = List.length r.Domtree.Reliable.attempts;
      },
    if verified then Some cert else None )

let reseed seed i = seed + (1_000_003 * (i + 1))

let exec t ~enqueued_at_ms ~check (d : P.decompose_req) =
  (* ---- validation: every malformation is a structured Bad_request *)
  if not (d.fail_p >= 0. && d.fail_p <= 1.) then
    P.Error (P.Bad_request, Printf.sprintf "fail_p %g outside [0,1]" d.fail_p)
  else if (d.fail_p > 0. || d.storm <> "") && not d.distributed then
    P.Error (P.Bad_request, "fault injection requires distributed mode")
  else if
    (* malformed storm specs must bounce here, not burn transient
       retries crashing inside the compute closure *)
    d.storm <> ""
    && match parse_storm ~n:1 d.storm with _ -> false | exception Failure _ -> true
  then P.Error (P.Bad_request, "bad storm spec: " ^ d.storm)
  else if d.k < 0 then P.Error (P.Bad_request, "k must be >= 0")
  else
    match resolve_graph t d.gen with
    (* [Failure] is how Source/Gen reject bad client input (unknown
       generator, malformed parameters) — a Bad_request, not a crash *)
    | exception Failure m -> P.Error (P.Bad_request, "bad gen spec: " ^ m)
    | exception e ->
      P.Error
        (P.Internal_error, "graph construction failed: " ^ Printexc.to_string e)
    | g, digest ->
        if Graph.n g > t.cfg.max_n then
          P.Error
            ( P.Bad_request,
              Printf.sprintf "graph too large: n=%d > max %d" (Graph.n g)
                t.cfg.max_n )
        else begin
          let deadline_ms =
            if d.deadline_ms > 0 then d.deadline_ms
            else t.cfg.default_deadline_ms
          in
          let deadline_at = enqueued_at_ms +. float_of_int deadline_ms in
          let budgets =
            Printf.sprintf "rb=%d,mr=%d"
              (round_budget t ~deadline_ms)
              (retry_budget t ~deadline_ms)
          in
          let key = memo_key ~digest ~check d ~budgets in
          match Hashtbl.find_opt t.results key with
          | Some resp ->
            (* memo hit: instant, always beats a deadline *)
            obs_incr t (fun o -> o.wo_memo_hits);
            resp
          | None ->
            if now_ms () >= deadline_at then begin
              (* expired while queued: never start a compute we already
                 know is late *)
              obs_incr t (fun o -> o.wo_queue_expired);
              degrade_or t ~digest
                (P.Error
                   ( P.Deadline_exceeded,
                     Printf.sprintf "deadline (%d ms) expired in queue"
                       deadline_ms ))
            end
            else begin
              let k = resolve_k t d ~digest g in
              (* ---- contained compute with transient retry-and-backoff:
                 under fault injection an attempt can crash outright;
                 reseed and retry while the deadline allows *)
              let rec attempt i seed =
                obs_incr t (fun o -> o.wo_computes);
                match
                  contained t
                    (compute_once t d ~check ~seed ~deadline_ms g ~digest ~k)
                with
                | `Ok (resp, cert) -> (
                  (match cert with
                  | Some c ->
                    (* [contained] has returned: we are back on the
                       server domain, so journaling here is race-free *)
                    if Degrade.record t.store ~digest c then
                      t.journal (Journal.Promote { digest; cert = c })
                  | None -> ());
                  match resp with
                  | P.Result r when (not r.P.verified) && now_ms () >= deadline_at
                    ->
                    (* deadline expired mid-recompute and the recompute
                       is unverified: prefer the last-good certificate *)
                    degrade_or t ~digest resp
                  | resp ->
                    Hashtbl.replace t.results key resp;
                    resp)
                | `Failed m ->
                  let backoff = t.cfg.backoff_ms *. float_of_int (1 lsl i) in
                  if
                    i < t.cfg.transient_retries
                    && now_ms () +. backoff < deadline_at
                  then begin
                    obs_incr t (fun o -> o.wo_retries);
                    Unix.sleepf (backoff /. 1000.);
                    attempt (i + 1) (reseed d.seed i)
                  end
                  else
                    P.Error
                      ( P.Internal_error,
                        Printf.sprintf "request failed after %d attempt(s): %s"
                          (i + 1) m )
              in
              attempt 0 d.seed
            end
        end

let certificate t gen =
  match resolve_graph t gen with
  | exception Failure m -> P.Error (P.Bad_request, "bad gen spec: " ^ m)
  | exception e ->
    P.Error
      (P.Internal_error, "graph construction failed: " ^ Printexc.to_string e)
  | _, digest -> (
      match Degrade.lookup t.store ~digest with
      | Some e ->
        P.Cert { P.c_digest = digest; c_stale = not e.fresh; c_cert = e.cert }
      | None ->
        P.Error (P.Not_found, "no certificate cached for digest " ^ digest))

let handle t ~enqueued_at_ms req =
  match req with
  | P.Decompose d -> exec t ~enqueued_at_ms ~check:false d
  | P.Verify d -> exec t ~enqueued_at_ms ~check:true d
  | P.Certificate { gen } -> certificate t gen
  | P.Crash_test -> (
    match contained t (fun () -> failwith "crash-test hook") with
    | `Ok _ -> assert false
    | `Failed m -> P.Error (P.Internal_error, m))
  | P.Health | P.Drain | P.Stats ->
    P.Error (P.Bad_request, "control request outside the server loop")
