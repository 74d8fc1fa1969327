(* Sharded round engine tests: a net created with [domains > 1] must be
   byte-identical to one with [domains = 1] — same deliveries (hence same
   protocol results), same telemetry, same per-round FNV digests, same
   violations — across graph families, models, fault adversaries,
   barriers/rollback, and replay_check. Plus the composition guards:
   nets created inside Exec.Pool workers clamp to one domain, and the
   per-shard tallies merge to exact global counters. *)

open Graphs
module Net = Congest.Net

(* ------------------------------------------------------------------ *)
(* A deterministic mixed workload: value-dependent broadcast rounds
   (so later traffic depends on earlier deliveries — any merge-order
   slip corrupts the digests) followed by edge rounds under E-CONGEST. *)

let broadcast_phase net rounds =
  let n = Net.n net in
  let best = Array.init n (fun v -> (v * 7) land 63) in
  for r = 1 to rounds do
    Net.broadcast_round net (fun u ->
        if (u + r) mod 5 = 0 then None else Some [| best.(u); r land 63 |]);
    Net.iter_deliveries net (fun v _ _ m ->
        if m.(0) < best.(v) then best.(v) <- m.(0))
  done;
  best

let edge_phase net rounds =
  let g = Net.graph net in
  let n = Net.n net in
  let best = Array.init n (fun v -> (v * 3) land 63) in
  for r = 1 to rounds do
    Net.edge_round net (fun u ->
        Array.to_list (Graph.neighbors g u)
        |> List.filter (fun v -> (u + v + r) mod 4 <> 0)
        |> List.map (fun v -> (v, [| best.(u); (u + r) land 63 |])));
    Net.iter_deliveries net (fun v _ _ m ->
        if m.(0) < best.(v) then best.(v) <- m.(0))
  done;
  best

type outcome = {
  o_result : int list;
  o_telemetry : Net.telemetry;
  o_digest : int;
  o_faults : (Congest.Faults.event list * int list * (int * int) list) option;
      (* the adversary's event log, crashed nodes and killed edges *)
}

(* Run [protocol] on a fresh net with the given domain count and return
   everything observable. The net is shut down before returning so test
   suites don't accumulate parked domains. *)
let run_outcome ?faults ~model ~domains g protocol =
  let net = Net.create ~domains model g in
  let adversary = Option.map (fun mk -> mk ()) faults in
  Option.iter (Congest.Faults.install net) adversary;
  let result = protocol net in
  let t = Net.telemetry net in
  let o =
    {
      o_result = result;
      o_telemetry = t;
      o_digest = Net.run_digest t;
      o_faults =
        Option.map
          (fun f ->
            Congest.Faults.
              (events f, crashed_nodes f, killed_edges f))
          adversary;
    }
  in
  Net.shutdown net;
  o

(* always driven under E-CONGEST, so both primitives are exercised *)
let mixed_protocol net =
  let a = broadcast_phase net 10 in
  let b = edge_phase net 6 in
  Array.to_list a @ Array.to_list b

(* ------------------------------------------------------------------ *)
(* Unit tests *)

(* The pinned digests (test_determinism.ml) must come out at domains=4
   too: the width changes who runs a shard, never what it computes. *)

let pinned_er_graph () =
  let rng = Random.State.make [| 0xD16; 64 |] in
  Gen.erdos_renyi rng ~n:64 ~p:0.15

let test_pinned_broadcast_digest_sharded () =
  let net = Net.create ~domains:4 Congest.Model.V_congest (pinned_er_graph ()) in
  Alcotest.(check int) "effective domains" 4 (Net.domains net);
  let r =
    Net.replay_check net (fun net ->
        for r = 1 to 12 do
          ignore
            (Net.broadcast_round net (fun u ->
                 if (u + r) mod 3 = 0 then None
                 else Some [| u land 63; r land 63 |]))
        done;
        ignore
          (Congest.Primitives.flood_min net
             ~value:(fun v -> (v * 5) land 63)
             ~rounds:8))
  in
  Alcotest.(check bool) "deterministic" true (Net.deterministic r);
  Alcotest.(check string) "pinned digest" "3ae42f461a0db5a"
    (Printf.sprintf "%x" (Net.run_digest r.Net.r_second));
  Net.shutdown net

let test_pinned_edge_digest_sharded () =
  let net = Net.create ~domains:4 Congest.Model.E_congest (pinned_er_graph ()) in
  let r =
    Net.replay_check net (fun net ->
        let g = Net.graph net in
        for r = 1 to 8 do
          ignore
            (Net.edge_round net (fun u ->
                 Array.to_list
                   (Array.map
                      (fun v -> (v, [| (u + v + r) land 63 |]))
                      (Graph.neighbors g u))))
        done)
  in
  Alcotest.(check bool) "deterministic" true (Net.deterministic r);
  Alcotest.(check string) "pinned digest" "3e917f6b5943490"
    (Printf.sprintf "%x" (Net.run_digest r.Net.r_second));
  Net.shutdown net

let test_domains_clamped () =
  (* requests are clamped by node count; shutdown drops to one domain
     but changes nothing observable *)
  let g = Gen.cycle 3 in
  let net = Net.create ~domains:64 Congest.Model.V_congest g in
  Alcotest.(check int) "clamped to n" 3 (Net.domains net);
  let a = broadcast_phase net 4 in
  let t_sharded = Net.telemetry net in
  Net.shutdown net;
  Alcotest.(check int) "one domain after shutdown" 1 (Net.domains net);
  Net.reset_stats net;
  let b = broadcast_phase net 4 in
  Alcotest.(check (list int)) "same result after shutdown" (Array.to_list a)
    (Array.to_list b);
  Alcotest.(check (list string)) "same telemetry after shutdown" []
    (Net.diff_telemetry t_sharded (Net.telemetry net));
  (* shutdown is idempotent *)
  Net.shutdown net

let test_violation_equivalence () =
  (* the engine raises the violation of the highest offending sender
     (the first a descending walk meets); the shard merge must pick the
     same one even when offenders land in different shards *)
  let g = Gen.clique 24 in
  let probe domains =
    let net = Net.create ~domains Congest.Model.V_congest g in
    let r =
      try
        ignore
          (Net.broadcast_round net (fun u ->
               if u = 5 || u = 17 then Some (Array.make 99 0) else Some [| u |]));
        None
      with Net.Protocol_violation v -> Some v
    in
    Net.shutdown net;
    r
  in
  match (probe 1, probe 4) with
  | Some a, Some b ->
    Alcotest.(check (option int)) "offender is the highest sender" (Some 17)
      a.Net.v_node;
    Alcotest.(check string) "identical violations"
      (Format.asprintf "%a" Net.pp_violation a)
      (Format.asprintf "%a" Net.pp_violation b)
  | _ -> Alcotest.fail "expected both engines to raise"

let test_faults_identical_at_width () =
  (* with an adversary installed a sharded net still runs its rounds at
     full width: every fault decision is a pure function, so it agrees
     with domains=1 on every observable, losses and the adversary's own
     log included *)
  let g = Gen.harary ~k:4 ~n:24 in
  let faults () =
    Congest.Faults.create ~seed:11
      [ Congest.Faults.Drop_bernoulli 0.3; Congest.Faults.Crash_at [ (2, 7) ] ]
  in
  let proto net = Array.to_list (broadcast_phase net 8) in
  let a = run_outcome ~faults ~model:Congest.Model.V_congest ~domains:1 g proto in
  let b = run_outcome ~faults ~model:Congest.Model.V_congest ~domains:4 g proto in
  Alcotest.(check bool) "losses happened" true
    (a.o_telemetry.Net.t_messages_lost > 0);
  Alcotest.(check (list string)) "identical under faults" []
    (Net.diff_telemetry a.o_telemetry b.o_telemetry);
  Alcotest.(check (list int)) "identical results" a.o_result b.o_result;
  Alcotest.(check bool) "identical adversaries" true (a.o_faults = b.o_faults)

let test_faults_installed_midrun () =
  (* installing faults mid-run and clearing them again: the whole
     interleaving must equal the domains=1 run *)
  let g = Gen.harary ~k:4 ~n:24 in
  let proto net =
    let a = broadcast_phase net 5 in
    let f =
      Congest.Faults.create ~seed:7 [ Congest.Faults.Drop_bernoulli 0.4 ]
    in
    Congest.Faults.install net f;
    let b = broadcast_phase net 5 in
    Net.clear_faults net;
    let c = broadcast_phase net 5 in
    Array.to_list a @ Array.to_list b @ Array.to_list c
  in
  let a = run_outcome ~model:Congest.Model.V_congest ~domains:1 g proto in
  let b = run_outcome ~model:Congest.Model.V_congest ~domains:4 g proto in
  Alcotest.(check bool) "middle phase lost traffic" true
    (a.o_telemetry.Net.t_messages_lost > 0);
  Alcotest.(check (list string)) "identical across the toggle" []
    (Net.diff_telemetry a.o_telemetry b.o_telemetry);
  Alcotest.(check (list int)) "identical results" a.o_result b.o_result

let test_boundary_sharded () =
  (* the boundary predicate is called from every receive shard; the
     cross-cut words merge exactly at width 4 *)
  let g = Gen.harary ~k:6 ~n:32 in
  let proto net =
    Net.set_boundary net (fun v -> v < 13);
    mixed_protocol net
  in
  let a = run_outcome ~model:Congest.Model.E_congest ~domains:1 g proto in
  let b = run_outcome ~model:Congest.Model.E_congest ~domains:4 g proto in
  Alcotest.(check bool) "words crossed the boundary" true
    (a.o_telemetry.Net.t_boundary_words > 0);
  Alcotest.(check (list string)) "identical with a boundary" []
    (Net.diff_telemetry a.o_telemetry b.o_telemetry);
  Alcotest.(check (list int)) "identical results" a.o_result b.o_result

let test_barrier_rollback_sharded () =
  (* regression: barrier/rollback under sharding — the rewound state
     must let a re-executed region reproduce the straight-through run *)
  let g = Gen.harary ~k:4 ~n:20 in
  let straight =
    run_outcome ~model:Congest.Model.V_congest ~domains:1 g (fun net ->
        Array.to_list (broadcast_phase net 12))
  in
  let net = Net.create ~domains:4 Congest.Model.V_congest g in
  ignore (broadcast_phase net 12);
  let bar = Net.barrier net in
  ignore (broadcast_phase net 7);
  Alcotest.(check int) "poisoned region on the clock" 7
    (Net.discarded_since net bar);
  Net.rollback net bar;
  let t = Net.telemetry net in
  Net.shutdown net;
  Alcotest.(check (list string)) "rolled back to the straight-through state"
    []
    (Net.diff_telemetry straight.o_telemetry t)

let test_obs_counters_exact_under_sharding () =
  (* the per-shard tallies must merge to the exact global counts the obs
     bundle then re-exports: counter == messages_sent, words too *)
  let g = Gen.harary ~k:6 ~n:32 in
  let metrics = Obs.Metrics.create () in
  let net = Net.create ~domains:4 Congest.Model.E_congest g in
  Net.attach_obs net (Net.make_obs metrics);
  ignore (broadcast_phase net 9);
  ignore (edge_phase net 6);
  let snap = Obs.Metrics.snapshot metrics in
  let counter name =
    match Obs.Metrics.find_counter snap name with Some v -> v | None -> -1
  in
  Alcotest.(check int) "rounds counter exact" (Net.rounds net)
    (counter "congest_rounds_total");
  Alcotest.(check int) "messages counter exact" (Net.messages_sent net)
    (counter "congest_messages_total");
  Alcotest.(check int) "words counter exact" (Net.words_sent net)
    (counter "congest_words_total");
  Alcotest.(check bool) "traffic flowed" true (Net.messages_sent net > 0);
  Net.shutdown net

let test_pool_clamps_nested_nets () =
  (* a net created inside an Exec.Pool task must clamp to one domain —
     outer parallelism wins — and still produce identical output *)
  let g = Gen.harary ~k:4 ~n:20 in
  let outside = run_outcome ~model:Congest.Model.V_congest ~domains:1 g
      (fun net -> Array.to_list (broadcast_phase net 6))
  in
  let widths = Array.make 2 (-1) in
  let report =
    Exec.Pool.run ~domains:2
      (Array.init 2 (fun i ->
           fun () ->
             let net = Net.create ~domains:4 Congest.Model.V_congest g in
             widths.(i) <- Net.domains net;
             let r = Array.to_list (broadcast_phase net 6) in
             let d = Net.run_digest (Net.telemetry net) in
             Net.shutdown net;
             (r, d)))
  in
  Array.iter
    (fun w -> Alcotest.(check int) "nested net has one domain" 1 w)
    widths;
  Array.iter
    (function
      | `Ok (r, d) ->
        Alcotest.(check (list int)) "nested result identical" outside.o_result r;
        Alcotest.(check string) "nested digest identical"
          (Printf.sprintf "%x" outside.o_digest)
          (Printf.sprintf "%x" d)
      | `Failed m -> Alcotest.failf "pool task failed: %s" m)
    report.Exec.Pool.results

let test_reset_stats_keeps_merge_exact () =
  (* reset_stats zeroes the counters; post-reset sharded rounds must
     still merge exact per-round tallies *)
  let g = Gen.harary ~k:4 ~n:24 in
  let net = Net.create ~domains:4 Congest.Model.V_congest g in
  ignore (broadcast_phase net 5);
  Net.reset_stats net;
  ignore (broadcast_phase net 5);
  let after = (Net.messages_sent net, Net.words_sent net) in
  Net.shutdown net;
  let seq = Net.create Congest.Model.V_congest g in
  ignore (broadcast_phase seq 5);
  Net.reset_stats seq;
  ignore (broadcast_phase seq 5);
  Alcotest.(check (pair int int)) "post-reset counters exact"
    (Net.messages_sent seq, Net.words_sent seq)
    after

let counters net =
  [
    Net.rounds net; Net.messages_sent net; Net.words_sent net;
    Net.messages_lost net; Net.words_lost net; Net.max_node_load net;
    Net.max_edge_load net; Net.boundary_words net;
  ]

let test_violation_leaves_counters () =
  (* a round that raises Protocol_violation counts nothing: every
     counter and the digest trace stay as they were when it began, for
     both primitives, at every width, and with a fault hook and a
     boundary predicate installed *)
  let g = Gen.harary ~k:4 ~n:24 in
  let probe ~domains ~oracles bad_round =
    let net = Net.create ~domains Congest.Model.E_congest g in
    if oracles then begin
      Congest.Faults.install net
        (Congest.Faults.create ~seed:4 [ Congest.Faults.Drop_bernoulli 0.3 ]);
      Net.set_boundary net (fun v -> v < 12)
    end;
    ignore (mixed_protocol net);
    let before = counters net in
    let trace = (Net.telemetry net).Net.t_digests in
    (match bad_round net with
    | _ -> Alcotest.fail "expected a protocol violation"
    | exception Net.Protocol_violation _ -> ());
    Alcotest.(check (list int)) "counters unchanged" before (counters net);
    Alcotest.(check (array int)) "digest trace unchanged" trace
      (Net.telemetry net).Net.t_digests;
    Net.shutdown net
  in
  let oversized_broadcast net =
    Net.broadcast_round net (fun u ->
        if u = 3 then Some (Array.make 99 0) else Some [| u |])
  in
  let duplicate_edge net =
    Net.edge_round net (fun u ->
        let v = (Graph.neighbors (Net.graph net) u).(0) in
        if u = 5 then [ (v, [| 1 |]); (v, [| 2 |]) ] else [ (v, [| u |]) ])
  in
  List.iter
    (fun (domains, oracles) ->
      probe ~domains ~oracles oversized_broadcast;
      probe ~domains ~oracles duplicate_edge)
    [ (1, false); (4, false); (1, true); (4, true) ]

(* ------------------------------------------------------------------ *)
(* QCheck: domains=1 vs domains=4 byte-identity across families *)

(* domains=1 and domains=4 agree on every observable *)
let same_at_widths ?faults ~model g protocol =
  let a = run_outcome ?faults ~model ~domains:1 g protocol in
  let b = run_outcome ?faults ~model ~domains:4 g protocol in
  a.o_result = b.o_result && a.o_digest = b.o_digest
  && Net.diff_telemetry a.o_telemetry b.o_telemetry = []
  && a.o_faults = b.o_faults

let prop_family name ~count gen_graph =
  QCheck.Test.make ~name ~count
    QCheck.(int_range 0 999)
    (fun seed ->
      match gen_graph seed with
      | None -> QCheck.assume_fail ()
      | Some g -> same_at_widths ~model:Congest.Model.E_congest g mixed_protocol)

let prop_erdos_renyi =
  prop_family "shard identity on Erdos-Renyi" ~count:8 (fun seed ->
      let rng = Random.State.make [| seed; 31 |] in
      let n = 20 + (seed mod 30) in
      let g = Gen.erdos_renyi rng ~n ~p:0.25 in
      if Traversal.is_connected g then Some g else None)

let prop_random_regular =
  prop_family "shard identity on random-regular" ~count:8 (fun seed ->
      let rng = Random.State.make [| seed; 77 |] in
      let n = 2 * (8 + (seed mod 12)) in
      let g = Gen.random_regular rng ~n ~d:4 in
      if Traversal.is_connected g then Some g else None)

let prop_lollipop =
  prop_family "shard identity on lollipop" ~count:8 (fun seed ->
      Some (Gen.lollipop ~clique:(5 + (seed mod 8)) ~tail:(1 + (seed mod 9))))

(* The adversaries the properties draw from, picked by [which]: drops,
   crashes, drops + a storm, edge kills, the greedy killer, and a storm
   + the greedy killer + drops. *)
let adversary_specs g ~seed which =
  let e i = Graph.edge_endpoints g (i mod Graph.m g) in
  match which with
  | 0 -> [ Congest.Faults.Drop_bernoulli 0.25 ]
  | 1 ->
    [ Congest.Faults.Crash_at [ (1, seed mod 24); (3, (seed / 7) mod 24) ] ]
  | 2 ->
    [
      Congest.Faults.Drop_bernoulli 0.1;
      Congest.Faults.Crash_storm
        { from_round = 2; per_round = 1; storm_rounds = 3; universe = 24 };
    ]
  | 3 ->
    [
      Congest.Faults.Kill_edges_at
        [ (1, e seed); (2, e (seed / 3)); (4, e 7) ];
    ]
  | 4 ->
    [
      Congest.Faults.Greedy_edge_kill
        { budget = 3; period = 3; from_round = 2 };
    ]
  | _ ->
    [
      Congest.Faults.Drop_bernoulli 0.15;
      Congest.Faults.Crash_storm
        { from_round = 1; per_round = 2; storm_rounds = 2; universe = 24 };
      Congest.Faults.Greedy_edge_kill
        { budget = 2; period = 2; from_round = 1 };
    ]

let prop_under_adversary =
  QCheck.Test.make ~name:"shard identity under fault adversaries" ~count:12
    QCheck.(pair (int_range 0 999) (int_range 0 5))
    (fun (seed, which) ->
      let rng = Random.State.make [| seed; 13 |] in
      let g = Gen.erdos_renyi rng ~n:24 ~p:0.3 in
      QCheck.assume (Traversal.is_connected g);
      let specs = adversary_specs g ~seed which in
      let faults () = Congest.Faults.create ~seed specs in
      same_at_widths ~faults ~model:Congest.Model.V_congest g (fun net ->
          Array.to_list (broadcast_phase net 8)))

let prop_mixed_under_adversary =
  QCheck.Test.make
    ~name:"shard identity of the E-CONGEST mix under fault adversaries"
    ~count:12
    QCheck.(pair (int_range 0 999) (int_range 0 5))
    (fun (seed, which) ->
      let rng = Random.State.make [| seed; 29 |] in
      let g = Gen.erdos_renyi rng ~n:24 ~p:0.3 in
      QCheck.assume (Traversal.is_connected g);
      let specs =
        match which with
        | 1 ->
          [ Congest.Faults.Crash_at [ (2, seed mod 24); (11, (seed / 7) mod 24) ] ]
        | _ -> adversary_specs g ~seed which
      in
      let faults () = Congest.Faults.create ~seed specs in
      same_at_widths ~faults ~model:Congest.Model.E_congest g mixed_protocol)

let () =
  Alcotest.run "shard"
    [
      ( "pinned",
        [
          Alcotest.test_case "broadcast digest at domains=4" `Quick
            test_pinned_broadcast_digest_sharded;
          Alcotest.test_case "edge digest at domains=4" `Quick
            test_pinned_edge_digest_sharded;
        ] );
      ( "engine",
        [
          Alcotest.test_case "domains clamp and shutdown" `Quick
            test_domains_clamped;
          Alcotest.test_case "violation picks the highest sender" `Quick
            test_violation_equivalence;
          Alcotest.test_case "violation leaves the counters" `Quick
            test_violation_leaves_counters;
          Alcotest.test_case "faults identical at every width" `Quick
            test_faults_identical_at_width;
          Alcotest.test_case "faults installed mid-run" `Quick
            test_faults_installed_midrun;
          Alcotest.test_case "boundary at width 4" `Quick
            test_boundary_sharded;
          Alcotest.test_case "barrier/rollback under sharding" `Quick
            test_barrier_rollback_sharded;
          Alcotest.test_case "reset_stats keeps merge exact" `Quick
            test_reset_stats_keeps_merge_exact;
        ] );
      ( "composition",
        [
          Alcotest.test_case "obs counters exact under sharding" `Quick
            test_obs_counters_exact_under_sharding;
          Alcotest.test_case "pool clamps nested nets" `Quick
            test_pool_clamps_nested_nets;
        ] );
      ( "qcheck",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_erdos_renyi; prop_random_regular; prop_lollipop;
            prop_under_adversary; prop_mixed_under_adversary;
          ] );
    ]
