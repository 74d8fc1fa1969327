(* Determinism sanitizer tests: Net.replay_check must certify that every
   distributed pipeline is a pure function of its seed (bit-identical
   telemetry, per-round digests included), across graph families, with
   and without an installed fault adversary — and must catch a protocol
   that smuggles state across runs. Also the reset contracts:
   reset_stats preserves adversary state, replay_reset rewinds it. *)

open Graphs
module Net = Congest.Net

let vnet g = Net.create Congest.Model.V_congest g

let pack_protocol ~seed g net =
  let k = max 1 (Connectivity.vertex_connectivity g) in
  ignore (Domtree.Dist_packing.pack ~seed net ~k)

(* ------------------------------------------------------------------ *)
(* Unit tests *)

let test_replay_fresh_net () =
  let g = Gen.harary ~k:4 ~n:20 in
  let net = vnet g in
  let r = Net.replay_check net (pack_protocol ~seed:7 g) in
  Alcotest.(check bool) "deterministic" true (Net.deterministic r);
  Alcotest.(check bool) "rounds advanced" true (r.Net.r_first.Net.t_rounds > 0);
  Alcotest.(check bool) "digests recorded" true
    (Array.length r.Net.r_first.Net.t_digests > 0);
  (* the net is left in the second run's state, still usable *)
  Alcotest.(check int) "net state = second telemetry"
    r.Net.r_second.Net.t_rounds (Net.rounds net)

let test_replay_under_faults () =
  let g = Gen.harary ~k:4 ~n:20 in
  let net = vnet g in
  let faults =
    Congest.Faults.create ~seed:5
      [ Congest.Faults.Drop_bernoulli 0.3; Congest.Faults.Crash_at [ (3, 2) ] ]
  in
  Congest.Faults.install net faults;
  let r =
    Net.replay_check net (fun net ->
        ignore (Congest.Primitives.flood_min net ~value:(fun v -> v) ~rounds:25))
  in
  Alcotest.(check bool) "deterministic under faults" true (Net.deterministic r);
  Alcotest.(check bool) "faults were active" true
    (r.Net.r_second.Net.t_messages_lost > 0);
  Alcotest.(check int) "losses replayed exactly"
    r.Net.r_first.Net.t_messages_lost r.Net.r_second.Net.t_messages_lost

let test_reset_contracts () =
  let g = Gen.harary ~k:4 ~n:16 in
  let net = vnet g in
  let faults =
    Congest.Faults.create ~seed:3
      [ Congest.Faults.Drop_bernoulli 0.5; Congest.Faults.Crash_at [ (1, 4) ] ]
  in
  Congest.Faults.install net faults;
  ignore (Congest.Primitives.flood_min net ~value:(fun v -> v) ~rounds:8);
  Alcotest.(check (list int)) "node 4 crashed" [ 4 ]
    (Congest.Faults.crashed_nodes faults);
  Alcotest.(check bool) "drops happened" true (Net.messages_lost net > 0);
  (* reset_stats: counters go, adversary state stays (documented) *)
  Net.reset_stats net;
  Alcotest.(check int) "rounds zeroed" 0 (Net.rounds net);
  Alcotest.(check (list int)) "crash survives reset_stats" [ 4 ]
    (Congest.Faults.crashed_nodes faults);
  Alcotest.(check int) "fault telemetry survives reset_stats" 1
    (List.length (Congest.Faults.events faults));
  (* replay_reset additionally rewinds the adversary *)
  Net.replay_reset net;
  Alcotest.(check (list int)) "crash rewound" []
    (Congest.Faults.crashed_nodes faults);
  Alcotest.(check int) "fault telemetry rewound" 0
    (List.length (Congest.Faults.events faults));
  Alcotest.(check bool) "hook still installed" true (Net.has_faults net)

let test_replay_catches_smuggled_state () =
  (* a protocol whose behaviour depends on how often it has run is
     exactly what the sanitizer exists to reject *)
  let g = Gen.harary ~k:4 ~n:12 in
  let net = vnet g in
  let calls = ref 0 in
  let r =
    Net.replay_check net (fun net ->
        incr calls;
        ignore
          (Congest.Primitives.flood_min net
             ~value:(fun v -> (v * !calls) + !calls)
             ~rounds:4))
  in
  Alcotest.(check bool) "divergence reported" false (Net.deterministic r);
  Alcotest.(check bool) "divergence names a field" true
    (match r.Net.r_divergence with Some d -> String.length d > 0 | None -> false)

let test_replay_repair_pipeline_under_storm () =
  (* the full self-healing pipeline — packing, tester, barrier'd repair
     with rollback on failure, retest — must be a pure function of its
     seed even while a crash storm rages *)
  let g = Gen.harary ~k:8 ~n:48 in
  let net = vnet g in
  let faults =
    Congest.Faults.create ~seed:13
      [
        Congest.Faults.Crash_storm
          { from_round = 5; per_round = 1; storm_rounds = 3; universe = 48 };
      ]
  in
  Congest.Faults.install net faults;
  let r =
    Net.replay_check net (fun net ->
        ignore
          (Domtree.Reliable.pack_verified_distributed ~seed:11 ~policy:`Repair
             net ~k:8))
  in
  Alcotest.(check bool) "repair pipeline deterministic" true
    (Net.deterministic r);
  Alcotest.(check bool) "storm was active" true
    (r.Net.r_second.Net.t_messages_lost > 0)

let test_diff_telemetry_localizes_round () =
  let g = Gen.cycle 8 in
  let net = vnet g in
  ignore (Congest.Primitives.flood_min net ~value:(fun v -> v) ~rounds:3);
  let t1 = Net.telemetry net in
  Net.replay_reset net;
  ignore (Congest.Primitives.flood_min net ~value:(fun v -> 7 - v) ~rounds:3);
  let t2 = Net.telemetry net in
  let diffs = Net.diff_telemetry t1 t2 in
  Alcotest.(check bool) "different runs diff" true (diffs <> []);
  Alcotest.(check bool) "a round digest is named" true
    (List.exists
       (fun d ->
         String.length d >= 5 && String.sub d 0 5 = "round")
       diffs)

(* ------------------------------------------------------------------ *)
(* Pinned-digest regressions: the exact traffic the round engine moves
   on a seeded ER graph, captured once under the seed implementation.
   Any graph-core or engine change that reorders one message, alters one
   delivered word, or misses one violation flips these constants — this
   is the byte-identity contract that lets the hot path be rebuilt. *)

let pinned_er_graph () =
  let rng = Random.State.make [| 0xD16; 64 |] in
  Gen.erdos_renyi rng ~n:64 ~p:0.15

let pinned_broadcast_protocol net =
  for r = 1 to 12 do
    ignore
      (Net.broadcast_round net (fun u ->
           if (u + r) mod 3 = 0 then None
           else Some [| u land 63; r land 63 |]))
  done;
  ignore
    (Congest.Primitives.flood_min net ~value:(fun v -> (v * 5) land 63)
       ~rounds:8)

let pinned_edge_protocol net =
  let g = Net.graph net in
  for r = 1 to 8 do
    ignore
      (Net.edge_round net (fun u ->
           Array.to_list
             (Array.map
                (fun v -> (v, [| (u + v + r) land 63 |]))
                (Graph.neighbors g u))))
  done

let test_pinned_broadcast_digest () =
  let net = vnet (pinned_er_graph ()) in
  let r = Net.replay_check net pinned_broadcast_protocol in
  Alcotest.(check bool) "deterministic" true (Net.deterministic r);
  Alcotest.(check int) "rounds" 20 r.Net.r_second.Net.t_rounds;
  Alcotest.(check int) "messages" 9248 r.Net.r_second.Net.t_messages;
  Alcotest.(check int) "words" 13872 r.Net.r_second.Net.t_words;
  Alcotest.(check string) "run digest" "3ae42f461a0db5a"
    (Printf.sprintf "%x" (Net.run_digest r.Net.r_second))

let test_pinned_edge_digest () =
  let net = Net.create Congest.Model.E_congest (pinned_er_graph ()) in
  let r = Net.replay_check net pinned_edge_protocol in
  Alcotest.(check bool) "deterministic" true (Net.deterministic r);
  Alcotest.(check int) "rounds" 8 r.Net.r_second.Net.t_rounds;
  Alcotest.(check int) "messages" 4624 r.Net.r_second.Net.t_messages;
  Alcotest.(check int) "words" 4624 r.Net.r_second.Net.t_words;
  Alcotest.(check string) "run digest" "3e917f6b5943490"
    (Printf.sprintf "%x" (Net.run_digest r.Net.r_second))

(* The Borůvka and component-labelling kernels, pinned the same way:
   their traffic is what a rewrite of their per-node state must keep
   word-for-word. *)

let check_pinned r ~rounds ~messages ~words ~digest =
  let t = r.Net.r_second in
  Alcotest.(check bool) "deterministic" true (Net.deterministic r);
  Alcotest.(check int) "rounds" rounds t.Net.t_rounds;
  Alcotest.(check int) "messages" messages t.Net.t_messages;
  Alcotest.(check int) "words" words t.Net.t_words;
  Alcotest.(check string) "run digest" digest
    (Printf.sprintf "%x" (Net.run_digest t))

let pinned_weight u v =
  let u, v = (min u v, max u v) in
  ((u * 7) + (v * 13)) mod 61

(* order-sensitive fingerprints of a kernel's output *)
let edges_checksum =
  List.fold_left
    (fun acc (u, v) -> ((acc * 1000003) + (u * 64) + v) land 0xFFFFFFF)
    0

let labels_checksum =
  Array.fold_left (fun acc l -> ((acc * 1000003) + l + 1) land 0xFFFFFFF) 0

let pinned_edge_active u v = (min u v + (2 * max u v)) mod 5 <> 0

let test_pinned_mst_on_digest () =
  let net = vnet (pinned_er_graph ()) in
  let forest = ref [] in
  let r =
    Net.replay_check net (fun net ->
        forest :=
          Congest.Dist_mst.minimum_spanning_forest_on net
            ~active:(fun v -> v mod 7 <> 3)
            ~edge_active:pinned_edge_active ~weight:pinned_weight)
  in
  Alcotest.(check int) "forest edges" 54 (List.length !forest);
  Alcotest.(check int) "forest checksum" 142307865 (edges_checksum !forest);
  check_pinned r ~rounds:43 ~messages:5946 ~words:10764
    ~digest:"32f46f92072235e"

let test_pinned_mst_hybrid_digest () =
  let net = vnet (pinned_er_graph ()) in
  let forest = ref [] in
  let r =
    Net.replay_check net (fun net ->
        forest :=
          Congest.Dist_mst.minimum_spanning_forest_hybrid ~cap:3 net
            ~weight:pinned_weight)
  in
  Alcotest.(check int) "forest edges" 63 (List.length !forest);
  Alcotest.(check int) "forest checksum" 191918173 (edges_checksum !forest);
  check_pinned r ~rounds:215 ~messages:64417 ~words:128275
    ~digest:"3297de5155cbee0"

let test_pinned_identify_hybrid_digest () =
  let net = vnet (pinned_er_graph ()) in
  let labels = ref [||] in
  let r =
    Net.replay_check net (fun net ->
        labels :=
          Congest.Components.identify_hybrid ~cap:2 ~seed:5 net
            ~active:(fun v -> v mod 9 <> 4)
            ~edge_active:(fun u v -> (u * v) mod 4 = 1))
  in
  Alcotest.(check int) "labels checksum" 4351268 (labels_checksum !labels);
  check_pinned r ~rounds:16 ~messages:3994 ~words:6894
    ~digest:"2e83d7d65202d63"

let test_pinned_spantree_digest () =
  let rng = Random.State.make [| 0xD16; 24 |] in
  let g = Gen.random_lambda_edge_connected rng ~n:24 ~lambda:4 ~extra:8 in
  let net = Net.create Congest.Model.E_congest g in
  let size = ref 0. in
  let r =
    Net.replay_check net (fun net ->
        let res = Spantree.Dist_packing.run_sampled ~seed:3 net ~lambda:4 in
        size := Spantree.Spacking.size res.Spantree.Dist_packing.packing)
  in
  Alcotest.(check string) "packing size" "0x1.15546e5a700a1p+1"
    (Printf.sprintf "%h" !size);
  check_pinned r ~rounds:3988 ~messages:115026 ~words:201250
    ~digest:"2dc8124a5599974"

(* The central §5.1 loop, pinned bit for bit: sizes as hex floats, and
   MD5 fingerprints of every tree with its exact weight and of the
   max-z history. *)

let packing_fingerprint (p : Spantree.Spacking.t) =
  let b = Buffer.create 4096 in
  List.iter
    (fun tr ->
      Printf.bprintf b "%h:" tr.Spantree.Spacking.weight;
      List.iter (fun (u, v) -> Printf.bprintf b "%d-%d," u v) tr.edges;
      Buffer.add_char b ';')
    p.Spantree.Spacking.trees;
  Digest.to_hex (Digest.string (Buffer.contents b))

let floats_fingerprint xs =
  Digest.to_hex
    (Digest.string (String.concat ";" (List.map (Printf.sprintf "%h") xs)))

let lagrangian_summary ?max_iterations ~k ~n () =
  let module L = Spantree.Lagrangian in
  let r = L.run ?max_iterations (Gen.harary ~k ~n) ~lambda:k in
  Printf.sprintf
    "iterations %d, stopped %b, size %h, collection %h, trees %s, max z %s"
    r.L.trace.L.iterations r.L.trace.L.stopped_by_rule
    (Spantree.Spacking.size r.L.packing)
    (Spantree.Spacking.size r.L.collection)
    (packing_fingerprint r.L.packing)
    (floats_fingerprint r.L.trace.L.max_z_history)

let pinned_lagrangian_cases =
  List.map
    (fun (name, max_iterations, k, n, want) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string) "lagrangian run" want
            (lagrangian_summary ?max_iterations ~k ~n ())))
    [
      ( "Lagrangian.run stop rule fires",
        None,
        4,
        32,
        "iterations 11, stopped true, size 0x1.a8a567e64d6cbp+0, collection \
         0x1.0000000000001p+0, trees 6ceefd3101065f429b00e8c3a9def888, max z \
         b5f7afa4fc20d5cb7ce6ca4966e22f7d" );
      ( "Lagrangian.run to the cap",
        None,
        8,
        48,
        "iterations 175, stopped false, size 0x1.d028bfa6f1a6p+1, collection \
         0x1p+0, trees 03e8f2b5b3d96ce6417dff333ea71fda, max z \
         48b70498948d58dee90565b44e283107" );
      ( "Lagrangian.run explicit cap",
        Some 5,
        6,
        32,
        "iterations 5, stopped false, size 0x1.5e51f812586fdp+0, collection \
         0x1p+0, trees 408451cada38b1cdd8d8d4ab623da287, max z \
         3b06a7587c62ffa3e3ce94b89a00a551" );
    ]

let test_pinned_dist_packing_run () =
  let rng = Random.State.make [| 0xD17; 24 |] in
  let g = Gen.random_lambda_edge_connected rng ~n:24 ~lambda:4 ~extra:8 in
  let net = Net.create Congest.Model.E_congest g in
  let summary = ref "" in
  let r =
    Net.replay_check net (fun net ->
        let res = Spantree.Dist_packing.run ~max_iterations:30 net ~lambda:4 in
        summary :=
          Printf.sprintf "size %h, iterations %d, parallel %d, ratios %s"
            (Spantree.Spacking.size res.Spantree.Dist_packing.packing)
            res.Spantree.Dist_packing.iterations
            res.Spantree.Dist_packing.parallel_rounds
            (floats_fingerprint res.Spantree.Dist_packing.cost_ratios))
  in
  Alcotest.(check string) "packing"
    "size 0x1.11e43b8024294p+1, iterations 31, parallel 1134, ratios \
     aa0c9fca07d88f2095679d87048bf445"
    !summary;
  check_pinned r ~rounds:1139 ~messages:33649 ~words:57081
    ~digest:"23d88c302daee13"

(* Fault and boundary nets, pinned the same way: the broadcast and edge
   protocols above under each adversary kind. Beside the traffic these
   pin the losses, both load maxima and the adversary's own event log,
   so a change in any fault decision (the drop and storm hashes, the
   greedy killer's traffic counts) flips a constant. *)

let events_checksum evs =
  List.fold_left
    (fun acc ev ->
      let fields =
        match ev with
        | Congest.Faults.Crash { round; node } -> [ 1; round; node ]
        | Congest.Faults.Edge_kill { round; u; v } -> [ 3; round; u; v ]
      in
      List.fold_left (fun a x -> ((a * 1000003) + x + 1) land 0xFFFFFFF) acc
        fields)
    0 evs

let fault_summary r faults =
  let t = r.Net.r_second in
  let evs = Congest.Faults.events faults in
  Printf.sprintf
    "deterministic %b, rounds %d, messages %d, words %d, lost %d/%d, loads \
     %d/%d, digest %x, events %d/%d"
    (Net.deterministic r) t.Net.t_rounds t.Net.t_messages t.Net.t_words
    t.Net.t_messages_lost t.Net.t_words_lost t.Net.t_max_node_load
    t.Net.t_max_edge_load (Net.run_digest t) (List.length evs)
    (events_checksum evs)

let pinned_fault_specs g =
  let e = Graph.edge_endpoints g in
  [
    ( "drop+crash",
      [
        Congest.Faults.Drop_bernoulli 0.2;
        Congest.Faults.Crash_at [ (2, 5); (4, 17) ];
      ] );
    ( "crash storm",
      [
        Congest.Faults.Crash_storm
          { from_round = 1; per_round = 2; storm_rounds = 4; universe = 64 };
      ] );
    ( "edge kills",
      [ Congest.Faults.Kill_edges_at [ (1, e 0); (1, e 40); (3, e 99) ] ] );
    ( "greedy edge kill",
      [
        Congest.Faults.Greedy_edge_kill
          { budget = 4; period = 2; from_round = 1 };
      ] );
  ]

let run_fault_pinned model protocol specs =
  let net = Net.create model (pinned_er_graph ()) in
  let faults = Congest.Faults.create ~seed:9 specs in
  Congest.Faults.install net faults;
  let r = Net.replay_check net protocol in
  fault_summary r faults

let pinned_fault_cases ~primitive model protocol expected =
  List.map2
    (fun (name, specs) want ->
      Alcotest.test_case (Printf.sprintf "%s under %s" primitive name) `Quick
        (fun () ->
          Alcotest.(check string) "fault run" want
            (run_fault_pinned model protocol specs)))
    (pinned_fault_specs (pinned_er_graph ()))
    expected

let pinned_broadcast_fault_cases =
  pinned_fault_cases ~primitive:"broadcast" Congest.Model.V_congest
    pinned_broadcast_protocol
    [
      "deterministic true, rounds 20, messages 6946, words 10441, lost \
       2025/3029, loads 22/4, digest 37a3b6c3461bbf1, events 2/146288110";
      "deterministic true, rounds 20, messages 7613, words 11514, lost \
       749/1082, loads 24/4, digest 3a141072e61d520, events 7/248004015";
      "deterministic true, rounds 20, messages 9159, words 13742, lost \
       89/130, loads 24/4, digest af8cbcbb74e9a9, events 3/52248856";
      "deterministic true, rounds 20, messages 9144, words 13728, lost \
       104/144, loads 24/4, digest 144646bcc30b867, events 4/226617350";
    ]

let pinned_edge_fault_cases =
  pinned_fault_cases ~primitive:"edge" Congest.Model.E_congest
    pinned_edge_protocol
    [
      "deterministic true, rounds 8, messages 3512, words 3512, lost \
       1014/1014, loads 16/2, digest 267502ba5215b57, events 2/146288110";
      "deterministic true, rounds 8, messages 3982, words 3982, lost \
       299/299, loads 16/2, digest 1e7155cac99c038, events 7/248004015";
      "deterministic true, rounds 8, messages 4586, words 4586, lost 38/38, \
       loads 16/2, digest 288d0d60acf826e, events 3/52248856";
      "deterministic true, rounds 8, messages 4592, words 4592, lost 32/32, \
       loads 16/2, digest 106ec590e5de2c0, events 4/226617342";
    ]

(* the Appendix G distinguisher runs the vc-approx pipeline with the
   Alice/Bob midline installed as the net's boundary predicate *)
let test_pinned_boundary_words () =
  let r = Random.State.make [| 0xB0; 3 |] in
  let inst = Lowerbound.Disjointness.random_intersecting r ~h:3 ~density:0.7 in
  let c = Lowerbound.Construction.build inst ~ell:1 ~w:4 in
  let rep = Lowerbound.Simulation.distinguish_via_packing ~seed:3 c in
  Alcotest.(check string) "boundary run"
    "rounds 304, boundary bits 2378808, estimate 6"
    (Printf.sprintf "rounds %d, boundary bits %d, estimate %d"
       rep.Lowerbound.Simulation.measured_rounds
       rep.Lowerbound.Simulation.boundary_bits
       rep.Lowerbound.Simulation.estimate)

(* Tree-parallel broadcast, pinned the same way: both tree shapes, fault
   free, under one drop+crash adversary and under the greedy edge killer
   (whose kills land on tree edges and reroute dead trees), over one
   graph and packing; and the E-CONGEST spanning-tree scheduler. Beside
   the engine's counts these pin every field the schedulers return, so
   a scheduler rewrite must keep every relay in place. *)

module B = Routing.Broadcast

let pinned_routing_sources = List.init 36 (fun v -> (v, 1 + (v mod 3)))

let routing_result (r : B.result) =
  Printf.sprintf "rounds %d, messages %d, throughput %.17g, congestion %d/%d"
    r.B.rounds r.B.messages r.B.throughput r.B.max_vertex_congestion
    r.B.max_edge_congestion

let routing_ft_result (r : B.ft_result) =
  Printf.sprintf
    "rounds %d, messages %d, delivered %d, throughput %.17g, coverage \
     %.17g, survivors %d, dead trees %d, converged %b"
    r.B.ft_rounds r.B.ft_messages r.B.ft_delivered r.B.ft_throughput
    r.B.ft_coverage r.B.ft_survivors r.B.ft_dead_trees r.B.ft_converged

let routing_net_counts net r =
  Printf.sprintf "%s; net rounds %d, messages %d, digest %x" r (Net.rounds net)
    (Net.messages_sent net)
    (Net.run_digest (Net.telemetry net))

(* [specs = []] runs fault free *)
let run_routing_pinned ~specs run =
  let g = Gen.harary ~k:12 ~n:36 in
  let p =
    Domtree.Tree_extract.of_cds_packing
      (Domtree.Cds_packing.run ~seed:1 g ~classes:8 ~layers:2)
  in
  let net = vnet g in
  let faults = Congest.Faults.create ~seed:9 specs in
  if specs <> [] then Congest.Faults.install net faults;
  routing_net_counts net (run net faults p ~sources:pinned_routing_sources)

let drop_crash =
  [
    Congest.Faults.Drop_bernoulli 0.1;
    Congest.Faults.Crash_at [ (3, 5); (6, 20) ];
  ]

let greedy_kill =
  [ Congest.Faults.Greedy_edge_kill { budget = 6; period = 4; from_round = 2 } ]

let test_pinned_spanning_routing () =
  let g = Gen.harary ~k:8 ~n:32 in
  let p =
    (Spantree.Sampling_pack.run ~seed:4 g ~lambda:8)
      .Spantree.Sampling_pack.packing
  in
  let net = Net.create Congest.Model.E_congest g in
  let sources = List.init 32 (fun v -> (v, 1 + (v mod 4))) in
  Alcotest.(check string) "routing run"
    "rounds 29, messages 80, throughput 2.7586206896551726, congestion 94/24; \
     net rounds 29, messages 2480, digest 1b7411a38d7669a"
    (routing_net_counts net
       (routing_result (B.via_spanning_trees ~seed:4 net p ~sources)))

let pinned_routing_cases =
  List.map
    (fun (name, specs, run, want) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string) "routing run" want
            (run_routing_pinned ~specs run)))
    [
      ( "packing",
        [],
        (fun net _ p ~sources ->
          routing_result (B.via_dominating_trees ~seed:3 net p ~sources)),
        "rounds 53, messages 72, throughput 1.3584905660377358, congestion \
         53/106; net rounds 53, messages 17220, digest 12a0abd9abcf3ab" );
      ( "single tree",
        [],
        (fun net _ _ ~sources -> routing_result (B.naive_single_tree net ~sources)),
        "rounds 74, messages 72, throughput 0.97297297297297303, congestion \
         72/144; net rounds 78, messages 31464, digest ff647d9e58b026" );
      ( "packing under drop+crash",
        drop_crash,
        (fun net faults p ~sources ->
          routing_ft_result
            (B.via_dominating_trees_ft ~seed:3 net faults p ~sources)),
        "rounds 167, messages 72, delivered 71, throughput 0.42514970059880242, \
         coverage 0.98611111111111116, survivors 34, dead trees 6, converged \
         true; net rounds 167, messages 37349, digest 14edfaf6f4b64" );
      ( "single tree under drop+crash",
        drop_crash,
        (fun net faults _ ~sources ->
          routing_ft_result (B.naive_single_tree_ft net faults ~sources)),
        "rounds 2360, messages 72, delivered 0, throughput 0, coverage \
         0.80310457516339873, survivors 34, dead trees 1, converged false; \
         net rounds 2364, messages 122192, digest 2d7e1e2771e0a66" );
      ( "packing under greedy edge kills",
        greedy_kill,
        (fun net faults p ~sources ->
          routing_ft_result
            (B.via_dominating_trees_ft ~seed:3 net faults p ~sources)),
        "rounds 147, messages 72, delivered 72, throughput 0.48979591836734693, \
         coverage 1, survivors 36, dead trees 5, converged true; net rounds \
         147, messages 51229, digest 111b17b07ccd7c" );
      ( "single tree under greedy edge kills",
        greedy_kill,
        (fun net faults _ ~sources ->
          routing_ft_result (B.naive_single_tree_ft net faults ~sources)),
        "rounds 2360, messages 72, delivered 2, throughput \
         0.00084745762711864404, coverage 0.55439814814814814, survivors 36, \
         dead trees 1, converged false; net rounds 2364, messages 140809, \
         digest 10443a491648567" );
    ]
    @ [
        Alcotest.test_case "spanning trees (E-CONGEST)" `Quick
          test_pinned_spanning_routing;
      ]

(* The domtree protocols (Multiflood meta-rounds, the Appendix B packing,
   the Appendix E tester, repair and the vc-approx driver), pinned the
   same way: traffic, rounds and a fingerprint of each result. Their
   per-node state may be rebuilt only if every message, every round and
   every RNG draw stays where it is. *)

module Cds = Domtree.Cds_packing

let ints_checksum =
  List.fold_left (fun a x -> ((a * 1000003) + x + 1) land 0xFFFFFFF)

let pairs_checksum ps =
  ints_checksum 0 (List.concat_map (fun (a, b) -> [ a; b ]) ps)

let lists_checksum ls =
  Array.fold_left (fun a l -> ints_checksum (ints_checksum a l) [ -1 ]) 0 ls

let traffic net =
  let t = Net.telemetry net in
  Printf.sprintf "rounds %d, messages %d, words %d, digest %x" t.Net.t_rounds
    t.Net.t_messages t.Net.t_words (Net.run_digest t)

(* a dominating-but-split class: blocks 0 and [len - 1] of a clique path *)
let pinned_split_instance ~k ~len =
  let g = Gen.clique_path ~k ~len in
  (g, fun v -> if v / k = 0 || v / k = len - 1 then [ 0; 1 ] else [ 1 ])

let pinned_cds_memberships g ~k =
  let res = Cds.pack ~seed:7 g ~k in
  (res.Cds.classes, Cds.real_classes res)

let run_dist_packing ~faulty =
  let net = vnet (Gen.clique_path ~k:6 ~len:8) in
  if faulty then
    Congest.Faults.install net
      (Congest.Faults.create ~seed:9
         [
           Congest.Faults.Drop_bernoulli 0.05;
           Congest.Faults.Crash_at [ (40, 11) ];
         ]);
  let res =
    Domtree.Dist_packing.run ~seed:5 ~jumpstart:1 net ~classes:6 ~layers:8
  in
  let p = Domtree.Dist_packing.extract_trees net res in
  let st = res.Cds.stats in
  Printf.sprintf
    "members %d, excess %d, matched %d, bridging %d, valid %d, trees %d, edges \
     %d; %s"
    (lists_checksum (Array.map Array.to_list res.Cds.members))
    (pairs_checksum st.Cds.excess_after_layer)
    (pairs_checksum st.Cds.matched_per_layer)
    (pairs_checksum st.Cds.bridging_edges_per_layer)
    (List.length (Cds.valid_classes res))
    (List.length p.Domtree.Packing.trees)
    (List.fold_left
       (fun a tr ->
         ints_checksum a
           [ tr.Domtree.Packing.cls; edges_checksum tr.Domtree.Packing.edges ])
       0 p.Domtree.Packing.trees)
    (traffic net)

(* more classes than the jump-start can fill: its 3n = 18 draws leave
   at least two of the 20 classes unheld, so the new layers' type-1/3
   draws name classes that no old membership holds *)
let run_dist_packing_sparse () =
  let net = vnet (Gen.clique_path ~k:3 ~len:2) in
  let res =
    Domtree.Dist_packing.run ~seed:3 ~jumpstart:1 net ~classes:20 ~layers:6
  in
  let st = res.Cds.stats in
  Printf.sprintf
    "members %d, excess %d, matched %d, bridging %d, valid %d; %s"
    (lists_checksum (Array.map Array.to_list res.Cds.members))
    (pairs_checksum st.Cds.excess_after_layer)
    (pairs_checksum st.Cds.matched_per_layer)
    (pairs_checksum st.Cds.bridging_edges_per_layer)
    (List.length (Cds.valid_classes res))
    (traffic net)

let tester_summary net (o : Domtree.Tester.outcome) =
  Printf.sprintf "pass %b, domination %b, detection %s; %s"
    o.Domtree.Tester.pass o.Domtree.Tester.domination_ok
    (match o.Domtree.Tester.detection_round with
    | Some r -> string_of_int r
    | None -> "none")
    (traffic net)

let run_tester_valid () =
  let g = Gen.harary ~k:12 ~n:48 in
  let classes, per_real = pinned_cds_memberships g ~k:12 in
  let net = vnet g in
  (* every third node lists its first class twice *)
  let memberships r =
    match per_real.(r) with
    | i :: _ as l when r mod 3 = 0 -> l @ [ i ]
    | l -> l
  in
  tester_summary net
    (Domtree.Tester.run_distributed ~seed:4 net ~memberships ~classes
       ~detection_rounds:24)

(* the two fragments are at distance 3: only the random rounds see it *)
let run_tester_split () =
  let g, memberships = pinned_split_instance ~k:5 ~len:4 in
  let net = vnet g in
  tester_summary net
    (Domtree.Tester.run_distributed ~seed:13 net ~memberships ~classes:2
       ~detection_rounds:40)

let repair_summary net (rep : Domtree.Repair.t) =
  Printf.sprintf
    "memberships %d, retained %d, orphans %d, splices %d, rounds %d; %s"
    (lists_checksum rep.Domtree.Repair.r_memberships)
    (ints_checksum 0 rep.Domtree.Repair.r_retained)
    rep.Domtree.Repair.r_orphans rep.Domtree.Repair.r_splices
    rep.Domtree.Repair.r_rounds (traffic net)

let run_repair_split () =
  let g, memberships = pinned_split_instance ~k:6 ~len:3 in
  let net = vnet g in
  repair_summary net
    (Domtree.Repair.run_distributed net ~memberships ~classes:2)

(* classes r mod 3 on a cycle, every tenth node stripped: orphans, then
   fragments to splice *)
let run_repair_stripped () =
  let net = vnet (Gen.cycle 30) in
  let memberships r = if r mod 10 = 0 then [] else [ r mod 3 ] in
  repair_summary net
    (Domtree.Repair.run_distributed net ~memberships ~classes:3)

let run_vc_approx () =
  let net = vnet (Gen.cycle 24) in
  let r = Domtree.Vc_approx.distributed ~seed:12 net in
  Printf.sprintf "estimate %d, attempts %d, guess %d; %s"
    r.Domtree.Vc_approx.estimate r.Domtree.Vc_approx.attempts
    r.Domtree.Vc_approx.accepted_guess (traffic net)

let pinned_domtree_cases =
  List.map
    (fun (name, run, want) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string) "domtree run" want (run ())))
    [
      ( "Dist_packing.run + extract_trees",
        (fun () -> run_dist_packing ~faulty:false),
        "members 64550090, excess 149041694, matched 192120274, \
         bridging 76303405, valid 6, trees 6, edges 132500885; rounds \
         496, messages 130867, words 358069, digest 3edfd75e061379d" );
      ( "Dist_packing.run under drop+crash",
        (fun () -> run_dist_packing ~faulty:true),
        "members 247603692, excess 176790528, matched 178245857, \
         bridging 62428988, valid 6, trees 6, edges 215355191; rounds \
         749, messages 149709, words 422997, digest b2430e3e573bb5" );
      ( "Dist_packing.run, classes no node holds",
        run_dist_packing_sparse,
        "members 190655112, excess 115583919, matched 237009235, bridging \
         112290886, valid 18; rounds 357, messages 5463, words 16128, \
         digest 1b7057d8b456725" );
      ( "Tester.run_distributed passing",
        run_tester_valid,
        "pass true, domination true, detection none; rounds 72, \
         messages 36480, words 77760, digest da99ea1269cc84" );
      ( "Tester.run_distributed split class",
        run_tester_split,
        "pass false, domination true, detection 1; rounds 65, messages \
         6350, words 12190, digest 31ee8cfc785dac3" );
      ( "Repair.run_distributed split class",
        run_repair_split,
        "memberships 197679492, retained 1000005, orphans 0, splices 6, \
         rounds 15; rounds 15, messages 982, words 2460, digest \
         14da650f8031525" );
      ( "Repair.run_distributed stripped nodes",
        run_repair_stripped,
        "memberships 190213108, retained 85926418, orphans 9, splices \
         54, rounds 29; rounds 29, messages 950, words 2562, digest \
         19bb2803b3c4572" );
      ( "Vc_approx.distributed",
        run_vc_approx,
        "estimate 4, attempts 1, guess 12; rounds 400, messages 18068, \
         words 49312, digest 3049192cdab6520" );
    ]

(* The verify-and-recover ladder (Reliable) and the guess ladder
   (Vc_approx), pinned per attempt on both sides: seed, verdict, rounds
   and repair flag of every attempt, the result's counters, an MD5 of
   the memberships, and on the distributed side the net's traffic. *)

module Reliable = Domtree.Reliable

let ladder_graph () = Gen.harary ~k:8 ~n:48

let outcome_summary (o : Domtree.Tester.outcome) =
  Printf.sprintf "%b/%b/%b/%s" o.Domtree.Tester.pass
    o.Domtree.Tester.domination_ok o.Domtree.Tester.connectivity_ok
    (match o.Domtree.Tester.detection_round with
    | Some r -> string_of_int r
    | None -> "-")

let reliable_summary (r : Reliable.result) =
  Printf.sprintf
    "attempts [%s]; verified %b, retries %d, charged %d, exhausted %b, \
     retained %d, memberships %s"
    (String.concat "; "
       (List.map
          (fun (a : Reliable.attempt) ->
            Printf.sprintf "%d %s %d %b" a.Reliable.attempt_seed
              (outcome_summary a.Reliable.outcome)
              a.Reliable.attempt_rounds a.Reliable.repaired)
          r.Reliable.attempts))
    r.Reliable.verified r.Reliable.retries r.Reliable.rounds_charged
    r.Reliable.budget_exhausted r.Reliable.classes_retained
    (Digest.to_hex
       (Digest.string
          (String.concat ";"
             (Array.to_list
                (Array.map
                   (fun l -> String.concat "," (List.map string_of_int l))
                   r.Reliable.memberships)))))

let run_reliable_central ?live policy ~max_retries =
  reliable_summary
    (Reliable.run_verified ~seed:7 ~max_retries ~policy ?live (ladder_graph ())
       ~classes:10 ~layers:2)

let run_reliable_distributed ?round_budget ?faults policy ~max_retries =
  let net = vnet (ladder_graph ()) in
  Option.iter
    (fun specs -> Congest.Faults.install net (Congest.Faults.create ~seed:3 specs))
    faults;
  let r =
    Reliable.run_verified_distributed ~seed:7 ~max_retries ~policy
      ?round_budget net ~classes:10 ~layers:2
  in
  reliable_summary r ^ "; " ^ traffic net

(* only 0 and 24 survive, more than one hop apart: repair drops every
   class, so each attempt's repair region is rolled back *)
let isolated_survivors v = v = 0 || v = 24

let run_reliable_storm () =
  let net = vnet (ladder_graph ()) in
  Congest.Faults.install net
    (Congest.Faults.create ~seed:3
       [
         Congest.Faults.Crash_storm
           { from_round = 5; per_round = 1; storm_rounds = 3; universe = 48 };
       ]);
  let r = Reliable.pack_verified_distributed ~seed:7 ~policy:`Repair net ~k:8 in
  reliable_summary r ^ "; " ^ traffic net

let vc_summary (r : Domtree.Vc_approx.result) =
  Printf.sprintf "estimate %d, attempts %d, guess %d, trees %d"
    r.Domtree.Vc_approx.estimate r.Domtree.Vc_approx.attempts
    r.Domtree.Vc_approx.accepted_guess
    (List.fold_left
       (fun a tr ->
         ints_checksum a
           [ tr.Domtree.Packing.cls; edges_checksum tr.Domtree.Packing.edges ])
       0 r.Domtree.Vc_approx.packing.Domtree.Packing.trees)

let pinned_ladder_cases cases =
  List.map
    (fun (name, run, want) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string) "ladder run" want (run ())))
    cases

let pinned_ladder_central_cases =
  pinned_ladder_cases
    [
      ( "run_verified Retry",
        (fun () -> run_reliable_central `Retry ~max_retries:2),
        "attempts [7 false/true/false/0 0 false; 1000010 false/false/true/- \
         0 false; 2000013 false/false/true/- 0 false]; verified false, \
         retries 2, charged 0, exhausted false, retained 6, memberships \
         6a6e4c94d7beee1de139bfe788b14308" );
      ( "run_verified Repair",
        (fun () -> run_reliable_central `Repair ~max_retries:3),
        "attempts [7 true/true/true/- 0 true]; verified true, retries 0, \
         charged 0, exhausted false, retained 10, memberships \
         507d07f97977063e8f6457a6a3b8d1da" );
      ( "run_verified Repair, no survivor",
        (fun () ->
          run_reliable_central ~live:isolated_survivors `Repair ~max_retries:2),
        "attempts [7 false/false/true/- 0 true; 1000010 false/false/true/- \
         0 true; 2000013 false/false/true/- 0 true]; verified false, \
         retries 2, charged 0, exhausted false, retained 0, memberships \
         ce4aa85433079bbf5c2532a99d84a8ac" );
      ( "Vc_approx.centralized cycle 96",
        (fun () -> vc_summary (Domtree.Vc_approx.centralized (Gen.cycle 96))),
        "estimate 8, attempts 2, guess 24, trees 39312410" );
    ]

let pinned_ladder_distributed_cases =
  pinned_ladder_cases
    [
      ( "run_verified_distributed Retry",
        (fun () -> run_reliable_distributed `Retry ~max_retries:2),
        "attempts [7 false/false/true/- 165 false; 1000010 \
         false/false/true/- 162 false; 2000013 false/true/false/0 246 \
         false]; verified false, retries 2, charged 576, exhausted false, \
         retained 7, memberships b601a5830f0eed731f48ab3a1850951c; rounds \
         576, messages 183544, words 534624, digest 186e56dc1ccfbea" );
      ( "run_verified_distributed Repair",
        (fun () -> run_reliable_distributed `Repair ~max_retries:2),
        "attempts [7 true/true/true/- 361 true]; verified true, retries 0, \
         charged 361, exhausted false, retained 10, memberships \
         b1e1885189bdd8ac2e100250ae84ad22; rounds 361, messages 107968, \
         words 290256, digest 291f9e9f0fec959" );
      ( "run_verified_distributed rollback",
        (fun () ->
          run_reliable_distributed `Repair ~max_retries:1
            ~faults:
              [
                Congest.Faults.Crash_at
                  (List.filter_map
                     (fun v ->
                       if isolated_survivors v then None else Some (150, v))
                     (List.init 48 Fun.id));
              ]),
        "attempts [7 false/false/true/- 191 true; 1000010 \
         false/false/true/- 46 true]; verified false, retries 1, charged \
         238, exhausted false, retained 0, memberships \
         4a456183c2fba46742cdc2fe548c23d9; rounds 189, messages 46272, \
         words 147768, digest 3886ee744a4c931" );
      ( "run_verified_distributed budget",
        (fun () ->
          run_reliable_distributed ~round_budget:1 `Retry ~max_retries:4),
        "attempts [7 false/false/true/- 165 false]; verified false, retries \
         0, charged 165, exhausted true, retained 5, memberships \
         1beaa76b1d9f26cacc1aac561b8b17ad; rounds 165, messages 51600, \
         words 153096, digest 198a4f6898f3fd1" );
      ( "pack_verified_distributed storm",
        run_reliable_storm,
        "attempts [7 true/true/true/- 175 false]; verified true, retries 0, \
         charged 175, exhausted false, retained 2, memberships \
         314d8bf0906b0e8227a92b3390911eb0; rounds 175, messages 55756, \
         words 143196, digest 1d932b4c7fb7c95" );
      ( "Vc_approx.distributed cycle 96",
        (fun () ->
          let net = vnet (Gen.cycle 96) in
          let r = Domtree.Vc_approx.distributed net in
          vc_summary r ^ "; " ^ traffic net),
        "estimate 8, attempts 2, guess 24, trees 103636940; rounds 14074, \
         messages 2448938, words 7420424, digest 3ace90bf3a00e4a" );
    ]

(* ------------------------------------------------------------------ *)
(* QCheck: same seed => bit-identical telemetry, per graph family *)

let replay_deterministic g protocol =
  let net = vnet g in
  Net.deterministic (Net.replay_check net protocol)

let prop_erdos_renyi =
  QCheck.Test.make ~name:"replay determinism on Erdos-Renyi" ~count:10
    QCheck.(pair (int_range 10 22) (int_range 0 999))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n |] in
      let g = Gen.erdos_renyi rng ~n ~p:0.4 in
      QCheck.assume (Traversal.is_connected g);
      replay_deterministic g (pack_protocol ~seed g))

let prop_random_regular =
  QCheck.Test.make ~name:"replay determinism on random-regular" ~count:10
    QCheck.(pair (int_range 8 18) (int_range 0 999))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; n; 2 |] in
      let g = Gen.random_regular rng ~n ~d:4 in
      QCheck.assume (Traversal.is_connected g);
      replay_deterministic g (pack_protocol ~seed g))

let prop_lollipop =
  QCheck.Test.make ~name:"replay determinism on lollipop" ~count:10
    QCheck.(triple (int_range 4 8) (int_range 1 6) (int_range 0 999))
    (fun (clique, tail, seed) ->
      let g = Gen.lollipop ~clique ~tail in
      replay_deterministic g (pack_protocol ~seed g))

let prop_lollipop_econgest =
  QCheck.Test.make ~name:"replay determinism on lollipop (E-CONGEST)" ~count:6
    QCheck.(triple (int_range 4 7) (int_range 1 4) (int_range 0 999))
    (fun (clique, tail, seed) ->
      let g = Gen.lollipop ~clique ~tail in
      let net = Net.create Congest.Model.E_congest g in
      let lambda = max 1 (Connectivity.edge_connectivity g) in
      Net.deterministic
        (Net.replay_check net (fun net ->
             ignore (Spantree.Dist_packing.run_sampled ~seed net ~lambda))))

let prop_faulty_gossip =
  QCheck.Test.make ~name:"replay determinism under Bernoulli drops" ~count:8
    QCheck.(pair (int_range 12 20) (int_range 0 999))
    (fun (n, seed) ->
      let g = Gen.harary ~k:4 ~n in
      let net = vnet g in
      let faults =
        Congest.Faults.create ~seed [ Congest.Faults.Drop_bernoulli 0.25 ]
      in
      Congest.Faults.install net faults;
      Net.deterministic
        (Net.replay_check net (fun net ->
             ignore
               (Congest.Primitives.flood_min net ~value:(fun v -> v)
                  ~rounds:(2 * n)))))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "determinism"
    [
      ( "replay",
        [
          Alcotest.test_case "fresh net" `Quick test_replay_fresh_net;
          Alcotest.test_case "under faults" `Quick test_replay_under_faults;
          Alcotest.test_case "reset contracts" `Quick test_reset_contracts;
          Alcotest.test_case "catches smuggled state" `Quick
            test_replay_catches_smuggled_state;
          Alcotest.test_case "repair pipeline under storm" `Quick
            test_replay_repair_pipeline_under_storm;
          Alcotest.test_case "diff localizes round" `Quick
            test_diff_telemetry_localizes_round;
        ] );
      ( "pinned digests",
        [
          Alcotest.test_case "broadcast engine traffic" `Quick
            test_pinned_broadcast_digest;
          Alcotest.test_case "edge engine traffic" `Quick
            test_pinned_edge_digest;
          Alcotest.test_case "Dist_mst on a subgraph" `Quick
            test_pinned_mst_on_digest;
          Alcotest.test_case "Dist_mst hybrid" `Quick
            test_pinned_mst_hybrid_digest;
          Alcotest.test_case "Components.identify_hybrid" `Quick
            test_pinned_identify_hybrid_digest;
          Alcotest.test_case "Dist_packing.run_sampled" `Quick
            test_pinned_spantree_digest;
          Alcotest.test_case "Dist_packing.run" `Quick
            test_pinned_dist_packing_run;
        ] );
      ( "pinned faults",
        pinned_broadcast_fault_cases @ pinned_edge_fault_cases
        @ [
            Alcotest.test_case "boundary words" `Quick
              test_pinned_boundary_words;
          ] );
      ("pinned central", pinned_lagrangian_cases @ pinned_ladder_central_cases);
      ("pinned routing", pinned_routing_cases);
      ( "pinned domtree",
        pinned_domtree_cases @ pinned_ladder_distributed_cases );
      qsuite "qcheck"
        [
          prop_erdos_renyi;
          prop_random_regular;
          prop_lollipop;
          prop_lollipop_econgest;
          prop_faulty_gossip;
        ];
    ]
