(* Pipeline benchmark: the paper's four CONGEST pipelines, each timed
   from a generated graph to a checked result (README.md has the
   workloads, the metrics and how the bounds were set).

     pipeline.exe --workload NAME --seed S --seconds T --trace 0|1
                  [--smoke] [--spans FILE]

   One process runs one workload on one domain, with no Exec.Pool, so
   heap and GC figures belong to that workload alone. A run draws
   [instances] graphs from its seed and goes round them in cycles; one
   rep of an instance sets it up (graph generation, Net.create, and on
   tree_broadcast the central packing it routes over) and then runs the
   pipeline on the fresh net, checks included. The first cycle warms
   up and fixes each instance's run digest; timed cycles follow until T
   seconds have passed. Every rep's checks must pass and its digest
   must equal its instance's warm-up digest.

   A timing is the mean over instances of each instance's fastest rep.
   The mean over instances keeps one unlucky graph from moving a run.
   The fastest rep, not the median, because on a shared host the noise
   is one-sided and comes in phases: reps slow down 1.3-2.2x for seconds
   at a time, which moves a median from one run to the next.

   With --trace 1 every timed rep is followed by a traced rep of the
   same instance. A traced rep wraps each library call in a span made
   here and attaches the engine's per-round "congest.round" spans; a
   call's self time is its span minus the round spans that start inside
   it. The per-layer figures come from each instance's fastest traced
   rep, and the untraced reps give the tracing overhead. A split that
   dropped spans or leaves more than 5% of the rep unattributed fails
   the run.

   The last stdout line is one JSON object: correct, attempted (reps
   run, warm-up included), failed (reps with a failed check) and the
   metrics: the end-to-end ones untraced, the per-layer ones traced. *)

module Net = Congest.Net
module Span = Obs.Span
module Packing = Domtree.Packing

let now () = Unix.gettimeofday ()

type workload = Vertex_pack | Edge_pack | Tree_broadcast | Vc_approx

let workloads =
  [
    ("vertex_pack", Vertex_pack);
    ("edge_pack", Edge_pack);
    ("tree_broadcast", Tree_broadcast);
    ("vc_approx", Vc_approx);
  ]

(* (n, k, extra chords); k is λ on edge_pack. Sized so one rep takes
   0.1-0.5 s on a 2-CPU host: a 20 s run then holds five or more
   cycles, enough for each instance to meet a quiet spell. *)
let shape ~smoke = function
  | Vertex_pack -> if smoke then (48, 8, 12) else (128, 12, 32)
  | Tree_broadcast -> if smoke then (48, 8, 12) else (192, 12, 48)
  | Edge_pack -> if smoke then (32, 4, 8) else (48, 8, 12)
  | Vc_approx -> if smoke then (32, 4, 8) else (64, 6, 16)

let instances ~smoke = if smoke then 2 else 8

let model = function
  | Edge_pack -> Congest.Model.E_congest
  | Vertex_pack | Tree_broadcast | Vc_approx -> Congest.Model.V_congest

(* Stop rule of the spanning-tree packing; the size floor depends on it. *)
let eps = 0.15

(* What one rep produced besides the net's own counters. [counts] are
   the layer-specific per-layer metrics (see [layer_counts]). *)
type rep = {
  failures : string list;
  packing_size : float;
  counts : (string * float) list;
}

let verified name = function
  | [] -> []
  | vs -> [ Printf.sprintf "%s: %d violation(s)" name (List.length vs) ]

let unless ok msg = if ok then [] else [ msg ]

(* Thm 1.1: distributed packing, distributed tree extraction, the
   packing checker, and a certificate built and re-checked from the
   graph and the class memberships alone. *)
let vertex_pack ~seed ~k spans net =
  let g = Net.graph net in
  let res =
    Span.with_span spans "domtree.pack" (fun () ->
        Domtree.Dist_packing.pack ~seed net ~k)
  in
  let p =
    Span.with_span spans "domtree.extract" (fun () ->
        Domtree.Dist_packing.extract_trees net res)
  in
  let violations =
    Span.with_span spans "check.packing_verify" (fun () -> Packing.verify p)
  in
  let memberships, cert =
    Span.with_span spans "check.certificate_build" (fun () ->
        let per_real = Domtree.Cds_packing.real_classes res in
        let memberships v = per_real.(v) in
        ( memberships,
          Domtree.Certificate.build g ~memberships
            ~classes:res.Domtree.Cds_packing.classes ~k ))
  in
  let verdict =
    Span.with_span spans "check.certificate_check" (fun () ->
        Domtree.Certificate.check ~seed g ~memberships cert)
  in
  let valid = List.length (Domtree.Cds_packing.valid_classes res) in
  let failures =
    verified "dominating-tree packing" violations
    @ (match verdict with Ok () -> [] | Error es -> es)
    @ unless
        (Domtree.Certificate.retained_count cert = valid)
        "certificate retains a different class count than the packing"
    @ unless (Domtree.Certificate.meets_target cert) "certificate misses the floor"
  in
  { failures; packing_size = Packing.size p; counts = [] }

(* Thm 1.3: sampled spanning-tree packing, checked for load and size. *)
let edge_pack ~seed ~lambda spans net =
  let r =
    Span.with_span spans "spantree.pack" (fun () ->
        Spantree.Dist_packing.run_sampled ~seed ~eps net ~lambda)
  in
  let p = r.Spantree.Dist_packing.packing in
  let violations =
    Span.with_span spans "check.spacking_verify" (fun () ->
        Spantree.Spacking.verify ~tolerance:1e-6 p)
  in
  let size = Spantree.Spacking.size p in
  let floor =
    (1. -. (2. *. eps)) *. float_of_int (Spantree.Lagrangian.target ~lambda)
  in
  let iterations = r.Spantree.Dist_packing.iterations in
  {
    failures =
      verified "spanning-tree packing" violations
      @ unless (size >= floor)
          (Printf.sprintf "packing size %g below the floor %g" size floor);
    packing_size = size;
    counts =
      [
        ("spantree.iterations", float_of_int iterations);
        ( "spantree.rounds_per_iteration",
          float_of_int r.Spantree.Dist_packing.measured_rounds
          /. float_of_int (max 1 iterations) );
        ( "spantree.parallel_rounds",
          float_of_int r.Spantree.Dist_packing.parallel_rounds );
      ];
  }

(* Cor 1.4: one message from every node, routed over the dominating
   trees of the packing built at set-up. *)
let tree_broadcast ~seed packing spans net =
  let n = Net.n net in
  let sources = List.init n (fun u -> (u, 1)) in
  let r =
    Span.with_span spans "routing.broadcast" (fun () ->
        Routing.Broadcast.via_dominating_trees ~seed net packing ~sources)
  in
  let violations =
    Span.with_span spans "check.packing_verify" (fun () -> Packing.verify packing)
  in
  {
    failures =
      verified "dominating-tree packing" violations
      @ unless (r.Routing.Broadcast.messages = n) "not every message was broadcast"
      @ unless
          (r.Routing.Broadcast.rounds = Net.rounds net)
          "broadcast rounds disagree with the net's clock";
    packing_size = Packing.size packing;
    counts =
      [
        ("routing.throughput", r.Routing.Broadcast.throughput);
        ( "routing.max_vertex_congestion",
          float_of_int r.Routing.Broadcast.max_vertex_congestion );
        ( "routing.max_edge_congestion",
          float_of_int r.Routing.Broadcast.max_edge_congestion );
      ];
  }

(* Cor 1.7: guesses n/2, n/4, ... with the distributed tester; the
   accepted estimate must be within lg n of the exact κ. *)
let vc_approx ~seed ~kappa spans net =
  let n = Net.n net in
  let r =
    Span.with_span spans "domtree.vc_approx" (fun () ->
        Domtree.Vc_approx.distributed ~seed net)
  in
  let p = r.Domtree.Vc_approx.packing in
  let violations =
    Span.with_span spans "check.packing_verify" (fun () -> Packing.verify p)
  in
  let ratio = Domtree.Vc_approx.approximation_ratio ~truth:kappa r in
  let lg = Float.log2 (float_of_int n) in
  {
    failures =
      verified "accepted packing" violations
      @ unless (ratio <= lg)
          (Printf.sprintf "approximation ratio %g above lg n = %g" ratio lg);
    packing_size = Packing.size p;
    counts =
      [
        ("domtree.vc_attempts", float_of_int r.Domtree.Vc_approx.attempts);
        ("domtree.approx_ratio", ratio);
      ];
  }

(* Every layer-specific count is reported on every workload, 0 where
   the workload does not run that layer. *)
let layer_counts =
  [
    ("domtree.vc_attempts", "count");
    ("domtree.approx_ratio", "ratio");
    ("spantree.iterations", "count");
    ("spantree.rounds_per_iteration", "count");
    ("spantree.parallel_rounds", "count");
    ("routing.throughput", "msgs/round");
    ("routing.max_vertex_congestion", "count");
    ("routing.max_edge_congestion", "count");
  ]

(* ---- set-up ---- *)

(* Instance [i] of the run seeded [seed]: its algorithm seed, its graph. *)
let instance_seed ~seed i = (seed * 1000) + i

let graph w ~smoke ~seed i =
  let n, k, extra = shape ~smoke w in
  let rng = Random.State.make [| instance_seed ~seed i; n; k; extra |] in
  match w with
  | Edge_pack -> Graphs.Gen.random_lambda_edge_connected rng ~n ~lambda:k ~extra
  | Vertex_pack | Tree_broadcast | Vc_approx -> Graphs.Gen.random_k_connected rng ~n ~k ~extra

type setup = {
  net : Net.t;
  pipeline : Span.t -> Net.t -> rep;
  gen_s : float;
  net_create_s : float;
  setup_s : float;
}

(* [kappa] is the exact vertex connectivity of the instance's graph, the
   ground truth of the vc_approx check: computed once per run, outside
   set-up and every rep. *)
let set_up w ~smoke ~seed ~kappa i =
  let _, k, _ = shape ~smoke w in
  let t0 = now () in
  let g = graph w ~smoke ~seed i in
  let t1 = now () in
  let net = Net.create (model w) g in
  let t2 = now () in
  let seed = instance_seed ~seed i in
  let pipeline =
    match w with
    | Vertex_pack -> vertex_pack ~seed ~k
    | Edge_pack -> edge_pack ~seed ~lambda:k
    | Tree_broadcast ->
      tree_broadcast ~seed
        (Domtree.Tree_extract.of_cds_packing (Domtree.Cds_packing.pack ~seed g ~k))
    | Vc_approx -> vc_approx ~seed ~kappa
  in
  let t3 = now () in
  { net; pipeline; gen_s = t1 -. t0; net_create_s = t2 -. t1; setup_s = t3 -. t0 }

(* ---- one rep ---- *)

type sample = {
  gen_s : float;
  net_create_s : float;
  setup_s : float;
  wall : float;
  rep : rep;
  digest : int;
  rounds : int;
  message_rounds : int;
  messages : int;
  words : int;
  budget_words : int;  (* messages x word budget; traced reps only *)
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

(* Runs the pipeline on the set-up net; with an enabled recorder the
   net's obs is attached first, so the engine adds its round spans. *)
let run_rep (s : setup) ~spans =
  let metrics = Obs.Metrics.create () in
  if Span.is_enabled spans then Net.attach_obs s.net (Net.make_obs ~spans metrics);
  let before = Gc.quick_stat () in
  let t0 = now () in
  let rep = s.pipeline spans s.net in
  let wall = now () -. t0 in
  let after = Gc.quick_stat () in
  let tele = Net.telemetry s.net in
  {
    gen_s = s.gen_s;
    net_create_s = s.net_create_s;
    setup_s = s.setup_s;
    wall;
    rep;
    digest = Net.run_digest tele;
    rounds = tele.Net.t_rounds;
    message_rounds = Array.length tele.Net.t_digests;
    messages = tele.Net.t_messages;
    words = tele.Net.t_words;
    budget_words =
      Obs.Metrics.counter_value (Obs.Metrics.counter metrics "congest_budget_words_total");
    minor_words = after.Gc.minor_words -. before.Gc.minor_words;
    promoted_words = after.Gc.promoted_words -. before.Gc.promoted_words;
    major_collections = after.Gc.major_collections - before.Gc.major_collections;
  }

(* ---- the traced split ---- *)

type split = {
  sample : sample;
  round_s : float;
  protocol_self_s : float;
  check_self_s : float;
  unattributed_s : float;
  dropped : int;
  calls : (string * (float * float * int)) list;
      (* library call -> (span s, self s, engine rounds inside) *)
}

let is_check name = String.starts_with ~prefix:"check." name

let split sample recorder =
  let rounds, calls =
    List.partition (fun s -> s.Span.sp_name = "congest.round") (Span.spans recorder)
  in
  let us x = float_of_int x /. 1e6 in
  let call_split (c : Span.span) =
    let stop = c.Span.sp_start_us + c.Span.sp_dur_us in
    let inner, count =
      List.fold_left
        (fun (acc, k) (r : Span.span) ->
          if r.Span.sp_start_us >= c.Span.sp_start_us && r.Span.sp_start_us <= stop then
            (acc + r.Span.sp_dur_us, k + 1)
          else (acc, k))
        (0, 0) rounds
    in
    (c.Span.sp_name, (us c.Span.sp_dur_us, us (c.Span.sp_dur_us - inner), count))
  in
  let calls = List.map call_split calls in
  let self_of pick =
    List.fold_left
      (fun acc (name, (_, self, _)) -> if pick name then acc +. self else acc)
      0. calls
  in
  {
    sample;
    round_s = us (List.fold_left (fun acc (r : Span.span) -> acc + r.Span.sp_dur_us) 0 rounds);
    protocol_self_s = self_of (fun name -> not (is_check name));
    check_self_s = self_of is_check;
    unattributed_s =
      sample.wall -. List.fold_left (fun acc (_, (total, _, _)) -> acc +. total) 0. calls;
    dropped = Span.dropped recorder;
    calls;
  }

(* ---- statistics and output ---- *)

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* [cycles] holds one array of reps per cycle, indexed by instance. *)
let per_instance cycles pick =
  List.init (Array.length (List.hd cycles)) (fun i -> pick (List.map (fun c -> c.(i)) cycles))

(* Each instance's rep with the smallest [key]. *)
let fastest cycles key =
  per_instance cycles (fun reps ->
      List.fold_left (fun a b -> if key b < key a then b else a) (List.hd reps) reps)

(* The mean over instances of each instance's smallest [f]. *)
let best cycles f = mean (List.map f (fastest cycles f))

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let print_metric w (name, value, unit) = Printf.printf "%s %s %.17g %s\n" w name value unit

let json_result ~correct ~attempted ~failed metrics =
  let metric (name, value, unit) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

let write_spans path spans =
  let oc = open_out path in
  output_string oc "id\tparent\tname\tstart_us\tdur_us\n";
  List.iter
    (fun (s : Span.span) ->
      Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\n" s.Span.sp_id s.Span.sp_parent s.Span.sp_name
        s.Span.sp_start_us s.Span.sp_dur_us)
    spans;
  close_out oc

(* ---- a run ---- *)

let run name ~seed ~seconds ~trace ~smoke ~spans_file =
  let w = List.assoc name workloads in
  let count = instances ~smoke in
  let t = now () in
  let kappa =
    Array.init count (fun i ->
        match w with
        | Vc_approx -> Graphs.Connectivity.vertex_connectivity (graph w ~smoke ~seed i)
        | Vertex_pack | Edge_pack | Tree_broadcast -> 0)
  in
  let kappa_s = (now () -. t) /. float_of_int count in
  let failed = ref 0 and attempted = ref 0 in
  let rep ?(spans = Span.disabled) ?digest i =
    let s = run_rep (set_up w ~smoke ~seed ~kappa:kappa.(i) i) ~spans in
    incr attempted;
    let failures =
      s.rep.failures
      @ unless
          (Option.fold ~none:true ~some:(( = ) s.digest) digest)
          "run digest differs from the warm-up rep"
    in
    if failures <> [] then begin
      incr failed;
      List.iter (Printf.eprintf "%s: instance %d: check failed: %s\n%!" name i) failures
    end;
    s
  in
  let warm = Array.init count (fun i -> rep i) in
  let warm_mean f = mean (Array.to_list (Array.map f warm)) in
  let deadline = now () +. seconds in
  let cycles step =
    let rec go acc =
      let acc = Array.init count step :: acc in
      if smoke || now () >= deadline then List.rev acc else go acc
    in
    go []
  in
  let line = print_metric name in
  let metrics =
    if not trace then begin
      let samples = cycles (fun i -> rep ~digest:warm.(i).digest i) in
      let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
      line ("reps", float_of_int (count * List.length samples), "count");
      line
        ( "pipeline_median_s",
          mean (per_instance samples (fun reps -> median (List.map (fun s -> s.wall) reps))),
          "s" );
      [
        ("pipeline_s", best samples (fun s -> s.wall), "s");
        ("setup_s", best samples (fun s -> s.setup_s), "s");
        ("peak_heap_mb", float_of_int (heap_words * (Sys.word_size / 8)) /. 1048576., "MB");
        ("rounds", warm_mean (fun s -> float_of_int s.rounds), "count");
        ("messages", warm_mean (fun s -> float_of_int s.messages), "count");
        ("words", warm_mean (fun s -> float_of_int s.words), "count");
        ("packing_size", warm_mean (fun s -> s.rep.packing_size), "trees");
      ]
    end
    else begin
      let capacity = Array.fold_left (fun acc s -> max acc s.rounds) 0 warm + 64 in
      let last = ref Span.disabled in
      let pairs =
        cycles (fun i ->
            let plain = rep ~digest:warm.(i).digest i in
            let recorder = Span.enabled ~capacity () in
            let traced = split (rep ~spans:recorder ~digest:warm.(i).digest i) recorder in
            last := recorder;
            (plain, traced))
      in
      let splits = List.map snd (fastest pairs (fun (_, t) -> t.sample.wall)) in
      let traced f = mean (List.map f splits) in
      let plain_s = best pairs (fun (p, _) -> p.wall) in
      let traced_s = traced (fun t -> t.sample.wall) in
      let unattributed_s = traced (fun t -> t.unattributed_s) in
      let dropped =
        List.fold_left
          (fun acc c -> Array.fold_left (fun acc (_, t) -> acc + t.dropped) acc c)
          0 pairs
      in
      (* the per-call split behind protocol.self_s and check.self_s *)
      List.iter
        (fun (call, _) ->
          let pick f =
            traced (fun t -> match List.assoc_opt call t.calls with Some c -> f c | None -> 0.)
          in
          line (call ^ "_s", pick (fun (total, _, _) -> total), "s");
          line (call ^ "_self_s", pick (fun (_, self, _) -> self), "s");
          line (call ^ "_rounds", pick (fun (_, _, r) -> float_of_int r), "count"))
        (List.hd splits).calls;
      if w = Vc_approx then line ("graph.kappa_s", kappa_s, "s");
      line ("pipeline_traced_s", traced_s, "s");
      line ("reps", float_of_int (2 * count * List.length pairs), "count");
      Option.iter (fun path -> write_spans path (Span.spans !last)) spans_file;
      if dropped > 0 || unattributed_s > 0.05 *. traced_s then begin
        Printf.eprintf "%s: invalid split: %d span(s) dropped, %.6f s of %.6f s unattributed\n%!"
          name dropped unattributed_s traced_s;
        exit 1
      end;
      [
        ("graph.gen_s", best pairs (fun (p, _) -> p.gen_s), "s");
        ("congest.net_create_s", best pairs (fun (p, _) -> p.net_create_s), "s");
        ("congest.round_s", traced (fun t -> t.round_s), "s");
        ("congest.round_share", traced (fun t -> t.round_s /. t.sample.wall), "ratio");
        ( "congest.round_us_mean",
          traced (fun t -> t.round_s *. 1e6 /. float_of_int (max 1 t.sample.message_rounds)),
          "us" );
        ( "congest.ns_per_message",
          traced (fun t -> t.round_s *. 1e9 /. float_of_int (max 1 t.sample.messages)),
          "ns" );
        ( "congest.msgs_per_round",
          warm_mean (fun s -> float_of_int s.messages /. float_of_int (max 1 s.message_rounds)),
          "msgs/round" );
        ( "congest.budget_util",
          traced (fun t ->
              float_of_int t.sample.words /. float_of_int (max 1 t.sample.budget_words)),
          "ratio" );
        ("protocol.self_s", traced (fun t -> t.protocol_self_s), "s");
        ("check.self_s", traced (fun t -> t.check_self_s), "s");
      ]
      @ List.map
          (fun (metric, unit) ->
            ( metric,
              warm_mean (fun s -> Option.value ~default:0. (List.assoc_opt metric s.rep.counts)),
              unit ))
          layer_counts
      @ [
          ("gc.minor_mwords", traced (fun t -> t.sample.minor_words /. 1e6), "Mwords");
          ("gc.promoted_mwords", traced (fun t -> t.sample.promoted_words /. 1e6), "Mwords");
          ( "gc.major_collections",
            traced (fun t -> float_of_int t.sample.major_collections),
            "count" );
          ("warmup_s", warm.(0).wall, "s");
          ("trace.overhead_pct", (traced_s -. plain_s) /. plain_s *. 100., "%");
          ("trace.spans_dropped", float_of_int dropped, "count");
          ("trace.unattributed_s", unattributed_s, "s");
        ]
    end
  in
  List.iter line metrics;
  Array.iteri (fun i s -> Printf.printf "%s run_digest.%d %x hash\n" name i s.digest) warm;
  json_result ~correct:(!failed = 0) ~attempted:!attempted ~failed:!failed metrics;
  if !failed > 0 then 1 else 0

(* ---- command line ---- *)

let () =
  let open Cmdliner in
  let workload =
    Arg.(
      required
      & opt (some (enum (List.map (fun (name, _) -> (name, name)) workloads))) None
      & info [ "workload" ] ~docv:"NAME" ~doc:"The workload to run.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Seeds every graph and every algorithm.")
  in
  let seconds =
    Arg.(
      value & opt float 10.
      & info [ "seconds" ] ~doc:"How long the timed cycles run (at least one cycle).")
  in
  let trace =
    Arg.(
      value
      & opt (enum [ ("0", false); ("1", true) ]) false
      & info [ "trace" ] ~docv:"0|1" ~doc:"1: report the per-layer metrics from traced reps.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ] ~doc:"Two tiny instances (n <= 48) and one timed cycle, for tests.")
  in
  let spans_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "spans" ] ~docv:"FILE"
          ~doc:"With --trace 1, write the last traced rep's spans to FILE (TSV).")
  in
  let main name seed seconds trace smoke spans_file =
    run name ~seed ~seconds ~trace ~smoke ~spans_file
  in
  exit
    (Cmd.eval'
       (Cmd.v
          (Cmd.info "pipeline" ~doc:"Time the paper's CONGEST pipelines end to end.")
          Term.(const main $ workload $ seed $ seconds $ trace $ smoke $ spans_file)))
