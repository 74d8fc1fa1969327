(* Tests for the information-dissemination applications: tree-parallel
   broadcast, gossiping, oblivious-routing congestion. *)

open Graphs

let vnet g = Congest.Net.create Congest.Model.V_congest g
let enet g = Congest.Net.create Congest.Model.E_congest g

let dom_packing ?(seed = 1) g ~k =
  Domtree.Tree_extract.of_cds_packing (Domtree.Cds_packing.pack ~seed g ~k)

(* a high-rate packing: many classes, few layers (the k >> log n regime
   where the k/log n throughput shows) *)
let fast_packing ?(seed = 1) g ~classes =
  Domtree.Tree_extract.of_cds_packing
    (Domtree.Cds_packing.run ~seed g ~classes ~layers:2)

let span_packing ?(seed = 1) g ~lambda =
  (Spantree.Sampling_pack.run ~seed g ~lambda).Spantree.Sampling_pack.packing

(* ------------------------------------------------------------------ *)

let test_broadcast_delivers () =
  let g = Gen.harary ~k:8 ~n:40 in
  let p = dom_packing g ~k:8 in
  let net = vnet g in
  let r =
    Routing.Broadcast.via_dominating_trees net p ~sources:[ (0, 5); (17, 3) ]
  in
  Alcotest.(check int) "all messages counted" 8 r.Routing.Broadcast.messages;
  Alcotest.(check bool) "positive throughput" true
    (r.Routing.Broadcast.throughput > 0.)

let test_broadcast_beats_naive () =
  (* strong-connectivity regime: k = 30 on n = 60; messages ~ 4k *)
  let g = Gen.harary ~k:30 ~n:60 in
  let p = fast_packing g ~classes:24 in
  Alcotest.(check bool) "packing has many trees" true
    (Domtree.Packing.count p >= 16);
  let sources = List.init 60 (fun v -> (v, 2)) in
  let net = vnet g in
  let r = Routing.Broadcast.via_dominating_trees net p ~sources in
  let net2 = vnet g in
  let naive = Routing.Broadcast.naive_single_tree net2 ~sources in
  Alcotest.(check bool)
    (Printf.sprintf "tree-parallel %.2f > 1.5x naive %.2f"
       r.Routing.Broadcast.throughput naive.Routing.Broadcast.throughput)
    true
    (r.Routing.Broadcast.throughput
    > 1.5 *. naive.Routing.Broadcast.throughput);
  Alcotest.(check bool) "naive is ~1 msg/round" true
    (naive.Routing.Broadcast.throughput <= 1.05)

let test_spanning_broadcast_delivers () =
  let g = Gen.harary ~k:8 ~n:32 in
  let p = span_packing g ~lambda:8 in
  let net = enet g in
  let r =
    Routing.Broadcast.via_spanning_trees net p ~sources:[ (0, 40) ]
  in
  Alcotest.(check int) "messages" 40 r.Routing.Broadcast.messages;
  Alcotest.(check bool) "throughput > 1 (beats one tree)" true
    (r.Routing.Broadcast.throughput > 1.)

let test_gossip_bound_shape () =
  let g = Gen.harary ~k:24 ~n:48 in
  let p = fast_packing g ~classes:8 in
  let net = vnet g in
  let rep = Routing.Gossip.all_to_all net p ~k:24 in
  (* rounds within a polylog factor of the Corollary A.1 reference *)
  let rounds = float_of_int rep.Routing.Gossip.result.Routing.Broadcast.rounds in
  Alcotest.(check bool)
    (Printf.sprintf "rounds %.0f <= 20x bound %.1f" rounds
       rep.Routing.Gossip.bound)
    true
    (rounds <= 20. *. rep.Routing.Gossip.bound)

let test_oblivious_vertex_competitiveness () =
  let g = Gen.harary ~k:24 ~n:48 in
  let p = fast_packing g ~classes:8 in
  let net = vnet g in
  let sources = List.init 48 (fun v -> (v, 2)) in
  let rep =
    Routing.Oblivious.vertex_competitiveness net p ~k:24 ~sources
  in
  let lg = log (float_of_int 48) /. log 2. in
  Alcotest.(check bool)
    (Printf.sprintf "vertex competitiveness %.2f = O(log n)"
       rep.Routing.Oblivious.competitiveness)
    true
    (rep.Routing.Oblivious.competitiveness <= 8. *. lg)

let test_oblivious_edge_competitiveness () =
  let g = Gen.harary ~k:8 ~n:32 in
  let p = span_packing g ~lambda:8 in
  let net = enet g in
  let rep =
    Routing.Oblivious.edge_competitiveness net p ~lambda:8
      ~sources:[ (0, 40); (16, 40) ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "edge competitiveness %.2f = O(1)-ish"
       rep.Routing.Oblivious.competitiveness)
    true
    (rep.Routing.Oblivious.competitiveness <= 16.)

let test_scattered_gossip () =
  let g = Gen.harary ~k:24 ~n:48 in
  let p = fast_packing g ~classes:8 in
  let net = vnet g in
  let rep = Routing.Gossip.scattered net p ~k:24 ~total:60 ~max_per_node:3 in
  Alcotest.(check int) "all messages" 60
    rep.Routing.Gossip.result.Routing.Broadcast.messages;
  Alcotest.(check bool) "bound sane" true (rep.Routing.Gossip.bound > 0.);
  (* rounds within a generous polylog factor of the A.1 reference *)
  Alcotest.(check bool) "rounds near bound" true
    (float_of_int rep.Routing.Gossip.result.Routing.Broadcast.rounds
    <= 20. *. rep.Routing.Gossip.bound)

let test_scattered_rejects_overfull () =
  let g = Gen.harary ~k:4 ~n:8 in
  let p = dom_packing g ~k:4 in
  let net = vnet g in
  let scatter ~total ~max_per_node () =
    ignore (Routing.Gossip.scattered net p ~k:4 ~total ~max_per_node)
  in
  Alcotest.check_raises "more than n * max_per_node"
    (Invalid_argument
       "Gossip.scattered: cannot place 17 messages on 8 nodes at most 2 per \
        node")
    (scatter ~total:17 ~max_per_node:2);
  Alcotest.check_raises "max_per_node < 1"
    (Invalid_argument
       "Gossip.scattered: cannot place 1 messages on 8 nodes at most 0 per \
        node")
    (scatter ~total:1 ~max_per_node:0)

let test_empty_packing_rejected () =
  let g = Gen.path 4 in
  let p = { Domtree.Packing.graph = g; trees = []; weights = [] } in
  let net = vnet g in
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Broadcast.via_dominating_trees: empty packing")
    (fun () ->
      ignore
        (Routing.Broadcast.via_dominating_trees net p ~sources:[ (0, 1) ]))

(* Every broadcast entry point with its net model, over harary k=4
   n=12. *)
let broadcast_entries =
  let g = Gen.harary ~k:4 ~n:12 in
  let dp = dom_packing g ~k:4 and sp = span_packing g ~lambda:4 in
  let none = Congest.Faults.none in
  let module B = Routing.Broadcast in
  let v = Congest.Model.V_congest and e = Congest.Model.E_congest in
  ( g,
    [
      ( "Broadcast.via_dominating_trees",
        v,
        fun net sources -> ignore (B.via_dominating_trees net dp ~sources) );
      ( "Broadcast.via_spanning_trees",
        e,
        fun net sources -> ignore (B.via_spanning_trees net sp ~sources) );
      ( "Broadcast.naive_single_tree",
        v,
        fun net sources -> ignore (B.naive_single_tree net ~sources) );
      ( "Broadcast.via_dominating_trees_ft",
        v,
        fun net sources ->
          ignore (B.via_dominating_trees_ft net (none ()) dp ~sources) );
      ( "Broadcast.naive_single_tree_ft",
        v,
        fun net sources ->
          ignore (B.naive_single_tree_ft net (none ()) ~sources) );
    ] )

(* each entry point rejects [sources] with [who ^ reason] before its
   first round *)
let check_rejected sources reason =
  let g, entries = broadcast_entries in
  List.iter
    (fun (who, model, run) ->
      let net = Congest.Net.create model g in
      Alcotest.check_raises who
        (Invalid_argument (who ^ reason))
        (fun () -> run net sources);
      Alcotest.(check int) (who ^ ": no round ran") 0 (Congest.Net.rounds net))
    entries

let test_negative_count_rejected () =
  check_rejected [ (0, 2); (3, -1) ] ": negative message count -1 at origin 3"

let test_origin_out_of_range_rejected () =
  check_rejected [ (0, 1); (12, 1) ] ": origin 12 out of range [0, 12)";
  check_rejected [ (-1, 1) ] ": origin -1 out of range [0, 12)"

(* Nothing to send, as no sources or as zero counts: each entry point
   reports 0 rounds at throughput 0 and runs no broadcast round. The
   single-tree baselines still build their BFS tree first, and only
   those rounds are on the net's clock. *)
let zero_sources = [ []; [ (0, 0); (5, 0) ] ]

let bfs_rounds g =
  let net = vnet g in
  ignore (Congest.Primitives.bfs_tree net ~root:0);
  Congest.Net.rounds net

(* [run net sources] is the entry point's (rounds, throughput) *)
let check_zero who model ~set_up_rounds run =
  let g, _ = broadcast_entries in
  List.iter
    (fun sources ->
      let net = Congest.Net.create model g in
      let rounds, throughput = run net sources in
      Alcotest.(check int) (who ^ ": rounds") 0 rounds;
      Alcotest.(check (float 0.)) (who ^ ": throughput") 0. throughput;
      Alcotest.(check int)
        (who ^ ": net clock")
        (set_up_rounds g) (Congest.Net.rounds net))
    zero_sources

let zero_result (r : Routing.Broadcast.result) =
  (r.Routing.Broadcast.rounds, r.Routing.Broadcast.throughput)

let zero_ft_result (r : Routing.Broadcast.ft_result) =
  (r.Routing.Broadcast.ft_rounds, r.Routing.Broadcast.ft_throughput)

let no_rounds _ = 0

let test_zero_dominating () =
  let g, _ = broadcast_entries in
  let p = dom_packing g ~k:4 in
  check_zero "via_dominating_trees" Congest.Model.V_congest
    ~set_up_rounds:no_rounds (fun net sources ->
      zero_result (Routing.Broadcast.via_dominating_trees net p ~sources))

let test_zero_spanning () =
  let g, _ = broadcast_entries in
  let p = span_packing g ~lambda:4 in
  check_zero "via_spanning_trees" Congest.Model.E_congest
    ~set_up_rounds:no_rounds (fun net sources ->
      zero_result (Routing.Broadcast.via_spanning_trees net p ~sources))

let test_zero_single_tree () =
  check_zero "naive_single_tree" Congest.Model.V_congest
    ~set_up_rounds:bfs_rounds (fun net sources ->
      zero_result (Routing.Broadcast.naive_single_tree net ~sources))

let test_zero_ft () =
  let g, _ = broadcast_entries in
  let p = dom_packing g ~k:4 in
  let faults () = Congest.Faults.create [ Congest.Faults.Drop_bernoulli 0.1 ] in
  check_zero "via_dominating_trees_ft" Congest.Model.V_congest
    ~set_up_rounds:no_rounds (fun net sources ->
      zero_ft_result
        (Routing.Broadcast.via_dominating_trees_ft net (faults ()) p ~sources));
  check_zero "naive_single_tree_ft" Congest.Model.V_congest
    ~set_up_rounds:bfs_rounds (fun net sources ->
      zero_ft_result
        (Routing.Broadcast.naive_single_tree_ft net (faults ()) ~sources))

let test_rlnc_decodes () =
  let g = Gen.harary ~k:8 ~n:16 in
  let net = vnet g in
  let r =
    Routing.Coding.rlnc_broadcast ~seed:3 net ~sources:[ (0, 10); (7, 6) ]
  in
  Alcotest.(check bool) "decoded everywhere" true r.Routing.Coding.decoded_all;
  Alcotest.(check int) "message count" 16 r.Routing.Coding.messages;
  Alcotest.(check bool) "rounds > 0" true (r.Routing.Coding.rounds > 0)

let test_rlnc_overhead_grows () =
  (* chunking: more messages -> more rounds per packet -> decaying
     throughput per message *)
  let g = Gen.harary ~k:8 ~n:16 in
  let run total =
    let net = vnet g in
    let sources = List.init 16 (fun v -> (v, total / 16)) in
    (Routing.Coding.rlnc_broadcast ~seed:4 ~coeff_words_per_round:1 net
       ~sources)
      .Routing.Coding.throughput
  in
  let t32 = run 32 and t128 = run 128 in
  Alcotest.(check bool)
    (Printf.sprintf "throughput decays: %.2f (N=32) > %.2f (N=128)" t32 t128)
    true (t32 > t128)

let prop_rlnc_always_decodes =
  QCheck.Test.make ~name:"RLNC reaches full rank on connected graphs"
    ~count:8
    QCheck.(pair (int_range 2 4) (int_range 1 3))
    (fun (k2, per) ->
      let k = 2 * k2 in
      let g = Gen.harary ~k ~n:(4 * k) in
      let net = vnet g in
      let sources = List.init (4 * k) (fun v -> (v, per)) in
      let r = Routing.Coding.rlnc_broadcast ~seed:(k + per) net ~sources in
      r.Routing.Coding.decoded_all)

let test_coefficient_words () =
  Alcotest.(check int) "one limb" 1
    (Routing.Coding.coefficient_words ~n:100 ~messages:16);
  Alcotest.(check int) "two limbs" 2
    (Routing.Coding.coefficient_words ~n:100 ~messages:17)

(* ------------------------------------------------------------------ *)
(* Fault-tolerant gossip *)

module F = Congest.Faults

let test_ft_gossip_null_faults () =
  (* the fault-tolerant path with a null adversary: full coverage,
     convergence, no dead trees *)
  let g = Gen.harary ~k:12 ~n:36 in
  let p = fast_packing g ~classes:8 in
  let net = vnet g in
  let faults = F.none () in
  let r = Routing.Gossip.all_to_all_ft ~seed:5 net faults p in
  Alcotest.(check bool) "converged" true r.Routing.Broadcast.ft_converged;
  Alcotest.(check (float 1e-9)) "full coverage" 1.
    r.Routing.Broadcast.ft_coverage;
  Alcotest.(check int) "all delivered" 36 r.Routing.Broadcast.ft_delivered;
  Alcotest.(check int) "no dead trees" 0 r.Routing.Broadcast.ft_dead_trees;
  Alcotest.(check int) "everyone survives" 36 r.Routing.Broadcast.ft_survivors

let test_ft_gossip_recovers_from_drops () =
  (* p = 0.05 message drops: the repair tick refills the holes and the
     run still converges with full coverage *)
  let g = Gen.harary ~k:12 ~n:36 in
  let p = fast_packing g ~classes:8 in
  let net = vnet g in
  let faults = F.create ~seed:9 [ F.Drop_bernoulli 0.05 ] in
  let r = Routing.Gossip.all_to_all_ft ~seed:5 net faults p in
  Alcotest.(check bool) "converged despite drops" true
    r.Routing.Broadcast.ft_converged;
  Alcotest.(check (float 1e-9)) "full coverage" 1.
    r.Routing.Broadcast.ft_coverage;
  Alcotest.(check bool) "drops actually happened" true
    (Congest.Net.messages_lost net > 0)

let test_ft_gossip_beats_naive_under_crashes () =
  (* crash two nodes early: the packing reroutes around dead classes,
     the single BFS tree is severed and cannot recover *)
  let g = Gen.harary ~k:12 ~n:36 in
  let p = fast_packing g ~classes:8 in
  let specs = [ F.Crash_at [ (4, 1); (7, 18) ] ] in
  let net = vnet g in
  let faults = F.create ~seed:3 specs in
  let r = Routing.Gossip.all_to_all_ft ~seed:5 net faults p in
  let net2 = vnet g in
  let faults2 = F.create ~seed:3 specs in
  let rn = Routing.Gossip.all_to_all_naive_ft net2 faults2 in
  Alcotest.(check int) "34 survivors" 34 r.Routing.Broadcast.ft_survivors;
  Alcotest.(check bool)
    (Printf.sprintf "packing coverage %.3f >= naive coverage %.3f"
       r.Routing.Broadcast.ft_coverage rn.Routing.Broadcast.ft_coverage)
    true
    (r.Routing.Broadcast.ft_coverage >= rn.Routing.Broadcast.ft_coverage);
  Alcotest.(check bool)
    (Printf.sprintf "packing throughput %.3f > naive %.3f"
       r.Routing.Broadcast.ft_throughput rn.Routing.Broadcast.ft_throughput)
    true
    (r.Routing.Broadcast.ft_throughput > rn.Routing.Broadcast.ft_throughput)

let test_ft_gossip_deterministic () =
  let run () =
    let g = Gen.harary ~k:12 ~n:36 in
    let p = fast_packing g ~classes:8 in
    let net = vnet g in
    let faults = F.create ~seed:9 [ F.Drop_bernoulli 0.08 ] in
    let r = Routing.Gossip.all_to_all_ft ~seed:5 net faults p in
    ( r.Routing.Broadcast.ft_rounds,
      r.Routing.Broadcast.ft_delivered,
      Congest.Net.messages_sent net,
      Congest.Net.messages_lost net )
  in
  Alcotest.(check bool) "fixed seed, identical run" true (run () = run ())

let prop_broadcast_always_delivers =
  QCheck.Test.make ~name:"tree-parallel broadcast always delivers everything"
    ~count:8
    QCheck.(pair (int_range 3 6) (int_range 1 5))
    (fun (k2, msgs) ->
      let k = 2 * k2 in
      let g = Gen.harary ~k ~n:(6 * k) in
      let p = dom_packing g ~k in
      let net = vnet g in
      let r =
        Routing.Broadcast.via_dominating_trees net p
          ~sources:[ (0, msgs); (1, msgs) ]
      in
      r.Routing.Broadcast.messages = 2 * msgs)

(* ------------------------------------------------------------------ *)
(* Differential oracle: every broadcast entry point against its
   reference copy in [Broadcast_ref], on one graph, packing and source
   list per case. Both must return the same result (or raise the same
   exception) and leave the same telemetry, digests included. Totals are
   positive here; the zero-message case has its own tests. *)

module B = Routing.Broadcast

(* a random k-connected graph, or an ER graph made connected by a path
   through every vertex *)
let oracle_graph rng =
  let n = 4 + Random.State.int rng 33 in
  if Random.State.bool rng then begin
    let k = 2 + Random.State.int rng (min 5 (n - 3)) in
    (Gen.random_k_connected rng ~n ~k ~extra:(Random.State.int rng n), k)
  end
  else begin
    let g = Gen.erdos_renyi rng ~n ~p:(0.1 +. Random.State.float rng 0.4) in
    let g =
      if Traversal.is_connected g then g
      else Graph.union_edges g (List.init (n - 1) (fun v -> (v, v + 1)))
    in
    (g, max 1 (Graph.min_degree g))
  end

(* the whole packing or a random non-empty sub-packing *)
let oracle_subpacking rng (p : Domtree.Packing.t) =
  let pairs = List.combine p.Domtree.Packing.trees p.Domtree.Packing.weights in
  match List.filter (fun _ -> Random.State.int rng 3 > 0) pairs with
  | [] -> p
  | _ when Random.State.bool rng -> p
  | kept ->
    let trees, weights = List.split kept in
    { p with Domtree.Packing.trees; weights }

(* several messages at some origins, a zero count now and then, at
   least one message in all *)
let oracle_sources rng n =
  let entries =
    List.init
      (1 + Random.State.int rng 8)
      (fun _ -> (Random.State.int rng n, Random.State.int rng 4))
  in
  (Random.State.int rng n, 1 + Random.State.int rng 3) :: entries

let oracle_faults rng ~n = function
  | 0 -> []
  | 1 ->
    [
      F.Drop_bernoulli (Random.State.float rng 0.2);
      F.Crash_at
        (List.init
           (1 + Random.State.int rng 2)
           (fun _ -> (Random.State.int rng 30, Random.State.int rng n)));
    ]
  | _ ->
    [
      F.Greedy_edge_kill
        {
          budget = 1 + Random.State.int rng 4;
          period = 1 + Random.State.int rng 6;
          from_round = Random.State.int rng 5;
        };
    ]

let outcome f = match f () with r -> Ok r | exception e -> Error (Printexc.to_string e)

(* [run model install f] runs [f] on a fresh net over [g], after
   [install net] *)
let oracle_run g model install f =
  let net = Congest.Net.create model g in
  install net;
  let r = outcome (fun () -> f net) in
  (r, Congest.Net.telemetry net)

let same (r, t) (r', t') = r = r' && Congest.Net.diff_telemetry t t' = []

let prop_broadcast_matches_reference =
  QCheck.Test.make ~name:"Broadcast equals the reference" ~count:100
    QCheck.(pair small_int (int_range 0 2))
    (fun (seed, mode) ->
      let rng = Random.State.make [| seed; mode; 0x24 |] in
      let g, k = oracle_graph rng in
      let n = Graph.n g in
      let dp =
        oracle_subpacking rng
          (Domtree.Tree_extract.of_cds_packing
             (Domtree.Cds_packing.pack ~seed g ~k))
      in
      let sp = span_packing ~seed g ~lambda:k in
      let sources = oracle_sources rng n in
      let specs = oracle_faults rng ~n mode in
      let repair_every = 1 + Random.State.int rng 8 in
      let v = Congest.Model.V_congest and e = Congest.Model.E_congest in
      let clean _ = () in
      (* each run gets its own adversary, so both replay the same one *)
      let adversary () =
        let faults = F.create ~seed specs in
        (faults, fun net -> F.install net faults)
      in
      let ft run run_ref =
        let faults, install = adversary () in
        let faults', install' = adversary () in
        same
          (oracle_run g v install (fun net -> run net faults))
          (oracle_run g v install' (fun net -> run_ref net faults'))
      in
      same
        (oracle_run g v clean (fun net ->
             B.via_dominating_trees ~seed net dp ~sources))
        (oracle_run g v clean (fun net ->
             Broadcast_ref.via_dominating_trees ~seed net dp ~sources))
      && same
           (oracle_run g v clean (fun net -> B.naive_single_tree net ~sources))
           (oracle_run g v clean (fun net ->
                Broadcast_ref.naive_single_tree net ~sources))
      && same
           (oracle_run g e clean (fun net ->
                B.via_spanning_trees ~seed net sp ~sources))
           (oracle_run g e clean (fun net ->
                Broadcast_ref.via_spanning_trees ~seed net sp ~sources))
      && ft
           (fun net faults ->
             B.via_dominating_trees_ft ~seed ~repair_every net faults dp
               ~sources)
           (fun net faults ->
             Broadcast_ref.via_dominating_trees_ft ~seed ~repair_every net
               faults dp ~sources)
      && ft
           (fun net faults ->
             B.naive_single_tree_ft ~repair_every net faults ~sources)
           (fun net faults ->
             Broadcast_ref.naive_single_tree_ft ~repair_every net faults
               ~sources))

let () =
  Alcotest.run "routing"
    [
      ( "broadcast",
        [
          Alcotest.test_case "delivers" `Quick test_broadcast_delivers;
          Alcotest.test_case "beats naive" `Quick test_broadcast_beats_naive;
          Alcotest.test_case "spanning delivers" `Quick
            test_spanning_broadcast_delivers;
          Alcotest.test_case "empty packing" `Quick test_empty_packing_rejected;
          Alcotest.test_case "negative count" `Quick test_negative_count_rejected;
          Alcotest.test_case "origin out of range" `Quick
            test_origin_out_of_range_rejected;
        ] );
      ( "broadcast.props",
        List.map QCheck_alcotest.to_alcotest [ prop_broadcast_always_delivers ]
      );
      ( "broadcast.zero",
        [
          Alcotest.test_case "dominating trees" `Quick test_zero_dominating;
          Alcotest.test_case "spanning trees" `Quick test_zero_spanning;
          Alcotest.test_case "single tree" `Quick test_zero_single_tree;
          Alcotest.test_case "fault-tolerant" `Quick test_zero_ft;
        ] );
      ( "routing.oracle",
        List.map QCheck_alcotest.to_alcotest [ prop_broadcast_matches_reference ]
      );
      ( "gossip",
        [
          Alcotest.test_case "bound shape" `Quick test_gossip_bound_shape;
          Alcotest.test_case "scattered (Cor A.1)" `Quick test_scattered_gossip;
          Alcotest.test_case "scattered overfull" `Quick
            test_scattered_rejects_overfull;
        ] );
      ( "gossip.faults",
        [
          Alcotest.test_case "null adversary" `Quick test_ft_gossip_null_faults;
          Alcotest.test_case "recovers from drops" `Quick
            test_ft_gossip_recovers_from_drops;
          Alcotest.test_case "beats naive under crashes" `Quick
            test_ft_gossip_beats_naive_under_crashes;
          Alcotest.test_case "deterministic" `Quick test_ft_gossip_deterministic;
        ] );
      ( "coding",
        [
          Alcotest.test_case "rlnc decodes" `Quick test_rlnc_decodes;
          Alcotest.test_case "overhead grows" `Quick test_rlnc_overhead_grows;
          Alcotest.test_case "coefficient words" `Quick test_coefficient_words;
        ] );
      ( "coding.props",
        List.map QCheck_alcotest.to_alcotest [ prop_rlnc_always_decodes ] );
      ( "oblivious",
        [
          Alcotest.test_case "vertex competitiveness" `Quick
            test_oblivious_vertex_competitiveness;
          Alcotest.test_case "edge competitiveness" `Quick
            test_oblivious_edge_competitiveness;
        ] );
    ]
