(* Tests for the CONGEST simulator: runtime accounting and bandwidth
   enforcement, BFS/aggregation primitives, component identification,
   distributed MST. *)

open Graphs

let rng () = Random.State.make [| 0xBEEF |]

let vnet g = Congest.Net.create Congest.Model.V_congest g
let enet g = Congest.Net.create Congest.Model.E_congest g

(* The last round's deliveries as one [(sender, msg)] list per receiver,
   senders ascending. *)
let inbox_lists net =
  let a = Array.make (Congest.Net.n net) [] in
  Congest.Net.iter_deliveries net (fun v u _ m -> a.(v) <- (u, m) :: a.(v));
  Array.map List.rev a

let broadcast net send =
  Congest.Net.broadcast_round net send;
  inbox_lists net

(* ------------------------------------------------------------------ *)
(* Runtime *)

let test_broadcast_round () =
  let g = Gen.path 3 in
  let net = vnet g in
  let inboxes = broadcast net (fun u -> Some [| u * 10 |]) in
  Alcotest.(check int) "one round" 1 (Congest.Net.rounds net);
  (* middle node hears both ends *)
  Alcotest.(check int) "inbox size" 2 (List.length inboxes.(1));
  let senders = List.map fst inboxes.(1) in
  Alcotest.(check (list int)) "senders sorted" [ 0; 2 ] senders;
  Alcotest.(check int) "messages" 4 (Congest.Net.messages_sent net)

let test_bandwidth_enforced () =
  let g = Gen.path 3 in
  let net = vnet g in
  match Congest.Net.broadcast_round net (fun _ -> Some (Array.make 9 0)) with
  | _ -> Alcotest.fail "oversized message accepted"
  | exception Congest.Net.Protocol_violation v ->
    Alcotest.(check int) "violation round" 0 v.Congest.Net.v_round;
    Alcotest.(check (option int)) "budget in context" (Some 8)
      v.Congest.Net.v_budget;
    Alcotest.(check bool) "offending node recorded" true
      (v.Congest.Net.v_node <> None)

let test_word_width_enforced () =
  let g = Gen.path 3 in
  let net = vnet g in
  let huge = max_int in
  try
    ignore (Congest.Net.broadcast_round net (fun _ -> Some [| huge |]));
    Alcotest.fail "expected rejection of an overly wide word"
  with Congest.Net.Protocol_violation _ -> ()

let test_edge_round_illegal_in_vcongest () =
  let g = Gen.path 3 in
  let net = vnet g in
  match Congest.Net.edge_round net (fun _ -> []) with
  | _ -> Alcotest.fail "edge_round accepted in V-CONGEST"
  | exception Congest.Net.Protocol_violation v ->
    Alcotest.(check bool) "detail names edge_round" true
      (String.length v.Congest.Net.v_detail > 0)

let test_edge_round_in_econgest () =
  let g = Gen.path 3 in
  let net = enet g in
  Congest.Net.edge_round net (fun u ->
      if u = 1 then [ (0, [| 7 |]); (2, [| 8 |]) ] else []);
  let inboxes = inbox_lists net in
  Alcotest.(check int) "end 0 got 7" 7 (snd (List.hd inboxes.(0))).(0);
  Alcotest.(check int) "end 2 got 8" 8 (snd (List.hd inboxes.(2))).(0);
  match
    Congest.Net.edge_round net (fun u ->
        if u = 1 then [ (0, [| 1 |]); (0, [| 2 |]) ] else [])
  with
  | _ -> Alcotest.fail "duplicate edge direction accepted"
  | exception Congest.Net.Protocol_violation v ->
    Alcotest.(check (option (pair int int))) "offending edge" (Some (1, 0))
      v.Congest.Net.v_edge

let test_congestion_accounting () =
  let g = Gen.clique 4 in
  let net = vnet g in
  ignore (Congest.Net.broadcast_round net (fun _ -> Some [| 1; 2 |]));
  (* every node receives 3 messages x 2 words = 6 words *)
  Alcotest.(check int) "node load" 6 (Congest.Net.max_node_load net);
  (* each edge carries 2 words in each direction = 4 *)
  Alcotest.(check int) "edge load" 4 (Congest.Net.max_edge_load net)

let test_reset_and_checkpoint () =
  let g = Gen.path 4 in
  let net = vnet g in
  ignore (Congest.Net.broadcast_round net (fun _ -> Some [| 0 |]));
  let cp = Congest.Net.checkpoint net in
  ignore (Congest.Net.broadcast_round net (fun _ -> Some [| 0 |]));
  Congest.Net.silent_rounds net 3;
  Alcotest.(check int) "rounds since" 4 (Congest.Net.rounds_since net cp);
  Congest.Net.reset_stats net;
  Alcotest.(check int) "reset" 0 (Congest.Net.rounds net)

let test_boundary_accounting () =
  let g = Gen.path 4 in
  let net = vnet g in
  Congest.Net.set_boundary net (fun v -> v < 2);
  (* node 1 broadcasts a 3-word message: neighbors 0 (same side) and 2
     (across) -> 3 words cross; node 3 broadcasts 1 word to 2: same side *)
  ignore
    (Congest.Net.broadcast_round net (fun v ->
         if v = 1 then Some [| 1; 2; 3 |]
         else if v = 3 then Some [| 9 |]
         else None));
  Alcotest.(check int) "crossing words" 3 (Congest.Net.boundary_words net);
  Congest.Net.clear_boundary net;
  ignore (Congest.Net.broadcast_round net (fun _ -> Some [| 1 |]));
  Alcotest.(check int) "no boundary, no counting" 3
    (Congest.Net.boundary_words net);
  Congest.Net.reset_stats net;
  Alcotest.(check int) "reset" 0 (Congest.Net.boundary_words net)

(* ------------------------------------------------------------------ *)
(* Fault injection *)

module F = Congest.Faults

let prop_null_adversary_bit_identical =
  QCheck.Test.make
    ~name:"null adversary: execution bit-identical to fault-free" ~count:30
    QCheck.(triple (int_range 4 20) (int_range 0 20) (int_range 0 999))
    (fun (n, extra, salt) ->
      let g = Gen.random_connected (rng ()) ~n ~extra in
      let send1 u = if (u + salt) mod 3 = 0 then Some [| u; salt mod 7 |] else None in
      let send2 u = if u mod 2 = 0 then Some [| u; u; salt mod 5 |] else None in
      let run with_null =
        let net = vnet g in
        if with_null then F.install net (F.none ());
        let i1 = broadcast net send1 in
        let i2 = broadcast net send2 in
        (i1, i2, Congest.Net.telemetry net)
      in
      run false = run true)

let test_crash_silences_node () =
  let g = Gen.clique 4 in
  let net = vnet g in
  let faults = F.create [ F.Crash_at [ (1, 2) ] ] in
  F.install net faults;
  let i0 = broadcast net (fun u -> Some [| u |]) in
  Alcotest.(check int) "round 0: all alive" 3 (List.length i0.(0));
  let i1 = broadcast net (fun u -> Some [| u |]) in
  Alcotest.(check bool) "node 2 crashed" true (F.crashed faults 2);
  Alcotest.(check (list int)) "crashed node silenced as sender" [ 1; 3 ]
    (List.map fst i1.(0) |> List.sort compare);
  Alcotest.(check int) "crashed node's inbox silenced" 0 (List.length i1.(2));
  (* three messages destined to the crashed node were destroyed *)
  Alcotest.(check int) "messages lost" 3 (Congest.Net.messages_lost net);
  Alcotest.(check int) "words lost" 3 (Congest.Net.words_lost net);
  Alcotest.(check (list int)) "crashed_nodes" [ 2 ] (F.crashed_nodes faults);
  (* destroyed traffic is not billed as sent *)
  Alcotest.(check int) "sent excludes destroyed" (12 + 6)
    (Congest.Net.messages_sent net);
  match F.events faults with
  | [ F.Crash { round = 1; node = 2 } ] -> ()
  | _ -> Alcotest.fail "expected exactly one crash event at round 1"

let test_bernoulli_drops_accounted () =
  let g = Gen.clique 6 in
  let net = vnet g in
  let faults = F.create ~seed:3 [ F.Drop_bernoulli 0.5 ] in
  F.install net faults;
  for _ = 1 to 10 do
    ignore (Congest.Net.broadcast_round net (fun u -> Some [| u |]))
  done;
  let sent = Congest.Net.messages_sent net in
  let lost = Congest.Net.messages_lost net in
  Alcotest.(check int) "sent + lost = offered" (6 * 5 * 10) (sent + lost);
  Alcotest.(check bool) "some messages dropped" true (lost > 0);
  Alcotest.(check bool) "some messages survived" true (sent > 0);
  (* every message is one word, so words lost = messages lost *)
  Alcotest.(check int) "words lost" lost (Congest.Net.words_lost net);
  Alcotest.(check int) "drops are not events" 0
    (List.length (F.events faults))

let test_drop_determinism () =
  let run () =
    let g = Gen.clique 6 in
    let net = vnet g in
    let faults = F.create ~seed:11 [ F.Drop_bernoulli 0.3 ] in
    F.install net faults;
    let i = broadcast net (fun u -> Some [| u |]) in
    (i, Congest.Net.telemetry net)
  in
  Alcotest.(check bool) "same seed, same execution" true (run () = run ())

let test_scheduled_edge_kill () =
  let g = Gen.cycle 4 in
  let net = vnet g in
  let faults = F.create [ F.Kill_edges_at [ (1, (1, 0)) ] ] in
  F.install net faults;
  let i0 = broadcast net (fun u -> Some [| u |]) in
  Alcotest.(check int) "round 0: edge alive" 2 (List.length i0.(0));
  let i1 = broadcast net (fun u -> Some [| u |]) in
  Alcotest.(check (list int)) "0 no longer hears 1" [ 3 ]
    (List.map fst i1.(0));
  Alcotest.(check (list int)) "1 no longer hears 0" [ 2 ]
    (List.map fst i1.(1));
  Alcotest.(check bool) "killed, orientation-free" true
    (F.edge_killed faults (0, 1) && F.edge_killed faults (1, 0));
  Alcotest.(check int) "both directions destroyed" 2
    (Congest.Net.messages_lost net)

let test_greedy_kill_budget () =
  let g = Gen.clique 5 in
  let net = vnet g in
  let faults =
    F.create [ F.Greedy_edge_kill { budget = 2; period = 1; from_round = 1 } ]
  in
  F.install net faults;
  for _ = 1 to 6 do
    ignore (Congest.Net.broadcast_round net (fun u -> Some [| u |]))
  done;
  Alcotest.(check int) "budget respected" 2 (F.edges_killed faults);
  Alcotest.(check int) "two distinct edges" 2
    (List.length (F.killed_edges faults))

let test_reset_stats_contract () =
  let g = Gen.clique 4 in
  let net = vnet g in
  let faults = F.create ~seed:1 [ F.Drop_bernoulli 1.0 ] in
  F.install net faults;
  ignore (Congest.Net.broadcast_round net (fun u -> Some [| u |]));
  Alcotest.(check int) "p=1: everything lost" 12
    (Congest.Net.messages_lost net);
  Alcotest.(check int) "p=1: nothing delivered" 0
    (Congest.Net.messages_sent net);
  Congest.Net.reset_stats net;
  Alcotest.(check int) "messages_lost zeroed" 0
    (Congest.Net.messages_lost net);
  Alcotest.(check int) "words_lost zeroed" 0 (Congest.Net.words_lost net);
  Alcotest.(check int) "boundary_words zeroed" 0
    (Congest.Net.boundary_words net);
  (* configuration survives a stats reset; only counters are cleared *)
  Alcotest.(check bool) "fault hook survives reset" true
    (Congest.Net.has_faults net);
  F.uninstall net;
  ignore (Congest.Net.broadcast_round net (fun u -> Some [| u |]));
  Alcotest.(check int) "uninstalled: deliveries resume" 12
    (Congest.Net.messages_sent net)

let test_invalid_drop_probability () =
  Alcotest.check_raises "p > 1 rejected"
    (Invalid_argument "Faults.create: drop probability outside [0,1]")
    (fun () -> ignore (F.create [ F.Drop_bernoulli 1.5 ]));
  Alcotest.check_raises "NaN rejected"
    (Invalid_argument "Faults.create: drop probability outside [0,1]")
    (fun () -> ignore (F.create [ F.Drop_bernoulli Float.nan ]))

(* The laws behind the hashed decisions: each copy is dropped with
   probability p (within a binomial 5-sigma band over 200 rounds of a
   clique), two layers compose to 1 - (1 - p1)(1 - p2), and a storm
   round crashes at most [per_round] fresh nodes, all in the universe. *)
let test_drop_and_storm_laws () =
  let g = Gen.clique 12 in
  let rounds = 200 in
  let drop_rate seed specs =
    let net = vnet g in
    F.install net (F.create ~seed specs);
    for _ = 1 to rounds do
      Congest.Net.broadcast_round net (fun u -> Some [| u |])
    done;
    Congest.Net.messages_lost net
  in
  let within_5_sigma name p lost =
    let trials = float_of_int (12 * 11 * rounds) in
    let mean = trials *. p and sd = sqrt (trials *. p *. (1. -. p)) in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %d lost, expected %.0f +- %.0f" name lost mean
         (5. *. sd))
      true
      (Float.abs (float_of_int lost -. mean) <= 5. *. sd)
  in
  List.iter
    (fun p ->
      List.iter
        (fun seed ->
          within_5_sigma (Printf.sprintf "p=%g seed %d" p seed) p
            (drop_rate seed [ F.Drop_bernoulli p ]))
        [ 1; 2; 3 ])
    [ 0.05; 0.3 ];
  within_5_sigma "two layers" (1. -. (0.9 *. 0.8))
    (drop_rate 4 [ F.Drop_bernoulli 0.1; F.Drop_bernoulli 0.2 ]);
  let per_round = 3 and universe = 40 in
  let net = vnet (Gen.clique 64) in
  let faults =
    F.create ~seed:5
      [
        F.Crash_storm
          { from_round = 0; per_round; storm_rounds = 30; universe };
      ]
  in
  F.install net faults;
  let dead = ref 0 in
  for _ = 1 to 32 do
    Congest.Net.broadcast_round net (fun u -> Some [| u |]);
    let now = F.crashes faults in
    Alcotest.(check bool) "at most per_round fresh victims" true
      (now - !dead <= per_round);
    dead := now
  done;
  Alcotest.(check bool) "the storm struck" true (!dead > per_round);
  List.iter
    (fun v ->
      Alcotest.(check bool) "victim within universe" true
        (v >= 0 && v < universe))
    (F.crashed_nodes faults)

let storm_spec =
  F.Crash_storm { from_round = 2; per_round = 2; storm_rounds = 3; universe = 8 }

let test_crash_storm_determinism () =
  let run () =
    let g = Gen.clique 8 in
    let net = vnet g in
    let faults = F.create ~seed:21 [ storm_spec ] in
    F.install net faults;
    for _ = 1 to 8 do
      ignore (Congest.Net.broadcast_round net (fun u -> Some [| u |]))
    done;
    (F.crashed_nodes faults, Congest.Net.telemetry net)
  in
  Alcotest.(check bool) "same seed, same storm" true (run () = run ())

let test_crash_storm_bounds () =
  let g = Gen.clique 8 in
  let net = vnet g in
  let faults = F.create ~seed:21 [ storm_spec ] in
  F.install net faults;
  (* before the storm window opens, nobody dies *)
  ignore (Congest.Net.broadcast_round net (fun u -> Some [| u |]));
  ignore (Congest.Net.broadcast_round net (fun u -> Some [| u |]));
  Alcotest.(check (list int)) "quiet before from_round" []
    (F.crashed_nodes faults);
  for _ = 1 to 8 do
    ignore (Congest.Net.broadcast_round net (fun u -> Some [| u |]))
  done;
  let crashed = F.crashed_nodes faults in
  (* per_round victims are drawn per storm round; redraws of an already
     dead victim are no-ops, so the count is an upper bound *)
  Alcotest.(check bool) "at most per_round * storm_rounds victims" true
    (List.length crashed <= 2 * 3);
  Alcotest.(check bool) "at least one victim" true (crashed <> []);
  List.iter
    (fun v ->
      Alcotest.(check bool) "victim within universe" true (v >= 0 && v < 8))
    crashed;
  (* storm window closed: further rounds kill nobody new *)
  for _ = 1 to 4 do
    ignore (Congest.Net.broadcast_round net (fun u -> Some [| u |]))
  done;
  Alcotest.(check (list int)) "storm over" crashed (F.crashed_nodes faults)

let test_barrier_rollback_deterministic () =
  let g = Gen.random_connected (rng ()) ~n:12 ~extra:8 in
  let net = vnet g in
  let faults =
    F.create ~seed:5
      [
        F.Drop_bernoulli 0.2;
        F.Crash_storm
          { from_round = 4; per_round = 1; storm_rounds = 2; universe = 12 };
      ]
  in
  F.install net faults;
  (* prefix: run into the middle of the fault schedule *)
  for _ = 1 to 3 do
    ignore (Congest.Net.broadcast_round net (fun u -> Some [| u |]))
  done;
  let b = Congest.Net.barrier net in
  let crashed_at_barrier = F.crashed_nodes faults in
  let segment () =
    for _ = 1 to 5 do
      ignore (Congest.Net.broadcast_round net (fun _ -> Some (Array.make 2 7)))
    done;
    Congest.Net.telemetry net
  in
  let t1 = segment () in
  Alcotest.(check int) "discarded_since counts the segment" 5
    (Congest.Net.discarded_since net b);
  Congest.Net.rollback net b;
  Alcotest.(check int) "clock rewound" 3 (Congest.Net.rounds net);
  Alcotest.(check (list int)) "crash set restored" crashed_at_barrier
    (F.crashed_nodes faults);
  (* the restored adversary replays the exact fault pattern: the
     re-executed segment is bit-identical *)
  let t2 = segment () in
  Alcotest.(check (list string)) "re-execution bit-identical" []
    (Congest.Net.diff_telemetry t1 t2);
  (* a barrier survives multiple rollbacks (the restore thunk is
     reusable) *)
  Congest.Net.rollback net b;
  let t3 = segment () in
  Alcotest.(check (list string)) "second rollback identical too" []
    (Congest.Net.diff_telemetry t1 t3)

(* ------------------------------------------------------------------ *)
(* Engine: which violation a round raises, what a raised round leaves,
   rollback against a straight-through run, and the obs counters *)

(* Value-dependent rounds: later traffic depends on earlier deliveries,
   so any slip in what a round delivers shows in the digests. *)
let broadcast_phase net rounds =
  let best = Array.init (Congest.Net.n net) (fun v -> (v * 7) land 63) in
  for r = 1 to rounds do
    Congest.Net.broadcast_round net (fun u ->
        if (u + r) mod 5 = 0 then None else Some [| best.(u); r land 63 |]);
    Congest.Net.iter_deliveries net (fun v _ _ m ->
        if m.(0) < best.(v) then best.(v) <- m.(0))
  done

let edge_phase net rounds =
  let g = Congest.Net.graph net in
  let best = Array.init (Congest.Net.n net) (fun v -> (v * 3) land 63) in
  for r = 1 to rounds do
    Congest.Net.edge_round net (fun u ->
        Array.to_list (Graph.neighbors g u)
        |> List.filter (fun v -> (u + v + r) mod 4 <> 0)
        |> List.map (fun v -> (v, [| best.(u); (u + r) land 63 |])));
    Congest.Net.iter_deliveries net (fun v _ _ m ->
        if m.(0) < best.(v) then best.(v) <- m.(0))
  done

let test_violation_highest_sender () =
  (* the send walk visits senders descending, so of two offenders the
     higher one is named *)
  let net = vnet (Gen.clique 24) in
  match
    Congest.Net.broadcast_round net (fun u ->
        if u = 5 || u = 17 then Some (Array.make 99 0) else Some [| u |])
  with
  | () -> Alcotest.fail "expected a protocol violation"
  | exception Congest.Net.Protocol_violation v ->
    Alcotest.(check (option int)) "offender is the highest sender" (Some 17)
      v.Congest.Net.v_node

let counters net =
  Congest.Net.
    [
      rounds net; messages_sent net; words_sent net; messages_lost net;
      words_lost net; max_node_load net; max_edge_load net;
      boundary_words net;
    ]

let test_violation_leaves_counters () =
  (* a round that raises Protocol_violation counts nothing: every
     counter and the digest trace stay as they were when it began, for
     both primitives, with and without a fault hook and a boundary
     predicate *)
  let g = Gen.harary ~k:4 ~n:24 in
  let probe ~oracles bad_round =
    let net = enet g in
    if oracles then begin
      F.install net (F.create ~seed:4 [ F.Drop_bernoulli 0.3 ]);
      Congest.Net.set_boundary net (fun v -> v < 12)
    end;
    broadcast_phase net 10;
    edge_phase net 6;
    let before = counters net in
    let trace = (Congest.Net.telemetry net).Congest.Net.t_digests in
    (match bad_round net with
    | () -> Alcotest.fail "expected a protocol violation"
    | exception Congest.Net.Protocol_violation _ -> ());
    Alcotest.(check (list int)) "counters unchanged" before (counters net);
    Alcotest.(check (array int)) "digest trace unchanged" trace
      (Congest.Net.telemetry net).Congest.Net.t_digests
  in
  let oversized_broadcast net =
    Congest.Net.broadcast_round net (fun u ->
        if u = 3 then Some (Array.make 99 0) else Some [| u |])
  in
  let duplicate_edge net =
    Congest.Net.edge_round net (fun u ->
        let v = (Graph.neighbors g u).(0) in
        if u = 5 then [ (v, [| 1 |]); (v, [| 2 |]) ] else [ (v, [| u |]) ])
  in
  List.iter
    (fun oracles ->
      probe ~oracles oversized_broadcast;
      probe ~oracles duplicate_edge)
    [ false; true ]

let test_rollback_straight_through () =
  (* rolling a poisoned region back to its barrier leaves exactly the
     telemetry of a run that stopped at the barrier *)
  let g = Gen.harary ~k:4 ~n:20 in
  let straight = vnet g in
  broadcast_phase straight 12;
  let net = vnet g in
  broadcast_phase net 12;
  let bar = Congest.Net.barrier net in
  broadcast_phase net 7;
  Alcotest.(check int) "poisoned region on the clock" 7
    (Congest.Net.discarded_since net bar);
  Congest.Net.rollback net bar;
  Alcotest.(check (list string)) "rolled back to the straight-through state"
    []
    (Congest.Net.diff_telemetry
       (Congest.Net.telemetry straight)
       (Congest.Net.telemetry net))

(* The digest trace is stored in fixed-size chunks: barriers taken
   mid-chunk and on a chunk boundary, a rollback past a later barrier
   and back, and a reset must all leave the straight-through trace. *)
let test_trace_chunks_persistent () =
  let g = Gen.harary ~k:4 ~n:20 in
  let straight_at k =
    let net = vnet g in
    let r = ref 0 in
    for _ = 1 to k do
      incr r;
      let r = !r in
      Congest.Net.broadcast_round net (fun u -> Some [| (u * r) land 255 |])
    done;
    Congest.Net.telemetry net
  in
  let net = vnet g in
  let clock = ref 0 in
  let run k ~salt =
    for _ = 1 to k do
      incr clock;
      let r = !clock in
      Congest.Net.broadcast_round net (fun u -> Some [| ((u * r) + salt) land 255 |])
    done
  in
  let same what k =
    Alcotest.(check (list string)) what []
      (Congest.Net.diff_telemetry (straight_at k) (Congest.Net.telemetry net))
  in
  run 600 ~salt:0;
  let b600 = Congest.Net.barrier net in
  run 424 ~salt:0;
  let b1024 = Congest.Net.barrier net in
  run 136 ~salt:0;
  let b1160 = Congest.Net.barrier net in
  same "straight to 1160" 1160;
  Congest.Net.rollback net b600;
  clock := 600;
  run 800 ~salt:1;
  Congest.Net.rollback net b1160;
  clock := 1160;
  same "a later barrier outlives a rollback past it" 1160;
  Congest.Net.rollback net b1024;
  same "barrier on a chunk boundary" 1024;
  Congest.Net.rollback net b1024;
  clock := 1024;
  run 3 ~salt:0;
  same "second rollback to it, then on" 1027;
  Congest.Net.reset_stats net;
  Alcotest.(check int) "reset empties the trace" 0
    (Array.length (Congest.Net.telemetry net).Congest.Net.t_digests)

let test_obs_counters_exact () =
  (* the obs bundle re-exports the engine's own counts: counter ==
     rounds, messages_sent and words_sent *)
  let net = enet (Gen.harary ~k:6 ~n:32) in
  let metrics = Obs.Metrics.create () in
  Congest.Net.attach_obs net (Congest.Net.make_obs metrics);
  broadcast_phase net 9;
  edge_phase net 6;
  let snap = Obs.Metrics.snapshot metrics in
  let counter name =
    match Obs.Metrics.find_counter snap name with Some v -> v | None -> -1
  in
  Alcotest.(check int) "rounds counter exact" (Congest.Net.rounds net)
    (counter "congest_rounds_total");
  Alcotest.(check int) "messages counter exact"
    (Congest.Net.messages_sent net)
    (counter "congest_messages_total");
  Alcotest.(check int) "words counter exact" (Congest.Net.words_sent net)
    (counter "congest_words_total");
  Alcotest.(check bool) "traffic flowed" true
    (Congest.Net.messages_sent net > 0)

(* ------------------------------------------------------------------ *)
(* Primitives *)

let test_bfs_tree_rounds () =
  let g = Gen.path 8 in
  let net = vnet g in
  let tree = Congest.Primitives.bfs_tree net ~root:0 in
  Alcotest.(check int) "height" 7 tree.Congest.Primitives.height;
  Alcotest.(check int) "parent chain" 3 tree.Congest.Primitives.parent.(4);
  (* BFS from an end of a path takes ecc + 1 = 8 rounds *)
  Alcotest.(check int) "rounds" 8 (Congest.Net.rounds net)

let test_flood_min () =
  let g = Gen.cycle 7 in
  let net = vnet g in
  let mins =
    Congest.Primitives.flood_min net ~value:(fun u -> 100 - u) ~rounds:4
  in
  (* after >= diameter(3)+ rounds everyone has the global min 100-6 = 94 *)
  Array.iter (fun v -> Alcotest.(check int) "global min" 94 v) mins

let test_flood_min_checked_matches () =
  let g = Gen.random_connected (rng ()) ~n:18 ~extra:6 in
  let value u = (u * 13) mod 31 in
  let plain = Congest.Primitives.flood_min (vnet g) ~value ~rounds:18 in
  let checked =
    Congest.Primitives.flood_min_checked (vnet g) ~value ~rounds:18
  in
  Alcotest.(check (array int)) "same fixpoint" plain checked

let test_knowledge_unlearned_read_raises () =
  let g = Gen.path 5 in
  let net = vnet g in
  let k = Congest.Knowledge.create net ~init:(fun v -> v * 10) in
  (* own entry is always legal *)
  Alcotest.(check int) "own entry" 30 (Congest.Knowledge.read k ~reader:3 ~about:3);
  (* node 0 never received anything about node 4 *)
  Alcotest.check_raises "unlearned read"
    (Congest.Net.Protocol_violation
       {
         Congest.Net.v_round = 0;
         v_node = Some 0;
         v_edge = None;
         v_budget = None;
         v_detail = "locality: node 0 read knowledge about node 4 it never received";
       })
    (fun () -> ignore (Congest.Knowledge.read k ~reader:0 ~about:4))

let test_knowledge_exchange_is_one_hop () =
  let g = Gen.path 4 in
  let net = vnet g in
  let k = Congest.Knowledge.create net ~init:(fun v -> v) in
  Congest.Knowledge.exchange k ~encode:(fun v -> [| v |])
    ~decode:(fun m -> m.(0));
  (* after one exchange node 1 knows exactly {0, 1, 2} *)
  Alcotest.(check (list int)) "one-hop horizon" [ 0; 1; 2 ]
    (Congest.Knowledge.known_to k 1);
  Alcotest.(check bool) "neighbor readable" true
    (Congest.Knowledge.knows k ~reader:1 ~about:2);
  Alcotest.(check int) "delivered value" 2
    (Congest.Knowledge.read k ~reader:1 ~about:2);
  (* reads are logged for footprint assertions *)
  Alcotest.(check (list int)) "read log" [ 2 ]
    (Congest.Knowledge.reads_of k 1);
  (* two hops away stays out of reach *)
  Alcotest.(check bool) "two hops unknown" false
    (Congest.Knowledge.knows k ~reader:0 ~about:2)

let test_knowledge_unchecked_records_only () =
  let g = Gen.path 3 in
  let net = vnet g in
  let k = Congest.Knowledge.create ~checked:false net ~init:(fun v -> v) in
  Alcotest.(check bool) "not checked" false (Congest.Knowledge.checked k);
  (* out-of-horizon read: no raise, None, still logged *)
  Alcotest.(check (option int)) "unlearned is None" None
    (Congest.Knowledge.read_opt k ~reader:0 ~about:2);
  Alcotest.(check (list int)) "footprint recorded" [ 2 ]
    (Congest.Knowledge.reads_of k 0)

let test_preprocess () =
  let g = Gen.grid 3 5 in
  let net = vnet g in
  let tree, count, d_bound = Congest.Primitives.preprocess net in
  Alcotest.(check int) "n learned" 15 count;
  Alcotest.(check int) "leader is min id" 0 tree.Congest.Primitives.root;
  let d = Traversal.diameter g in
  Alcotest.(check bool) "d_bound in [D, 2D]" true (d <= d_bound && d_bound <= 2 * d)

let test_converge_sum_min () =
  let g = Gen.random_connected (rng ()) ~n:20 ~extra:10 in
  let net = vnet g in
  let tree = Congest.Primitives.bfs_tree net ~root:0 in
  let total = Congest.Primitives.converge_sum net tree (fun u -> u) in
  Alcotest.(check int) "sum of ids" (20 * 19 / 2) total;
  let m = Congest.Primitives.converge_min net tree (fun u -> 50 - u) in
  Alcotest.(check int) "min" 31 m

let test_broadcast_int () =
  let g = Gen.path 6 in
  let net = vnet g in
  let tree = Congest.Primitives.bfs_tree net ~root:0 in
  let got = Congest.Primitives.broadcast_int net tree 42 in
  Array.iter (fun v -> Alcotest.(check int) "everyone got 42" 42 v) got

let test_pipelined_upcast_filter () =
  (* star with center 0: leaves each hold one item; the filter keeps only
     even-valued items *)
  let g = Gen.complete_bipartite 1 5 in
  let net = vnet g in
  let tree = Congest.Primitives.bfs_tree net ~root:0 in
  let items u = if u > 0 then [ [| u |] ] else [] in
  let filter _ m = m.(0) mod 2 = 0 in
  let received = Congest.Primitives.pipelined_upcast net tree ~items ~filter in
  let values = List.map (fun m -> m.(0)) received |> List.sort compare in
  Alcotest.(check (list int)) "only evens arrive" [ 2; 4 ] values

let test_pipelined_upcast_forest_filter () =
  (* Kutten-Peleg style: upcast fragment-graph edges keeping a spanning
     forest only. Path 0-1-2-3; node 3 holds redundant edges. *)
  let g = Gen.path 4 in
  let net = vnet g in
  let tree = Congest.Primitives.bfs_tree net ~root:0 in
  let items u =
    if u = 3 then [ [| 10; 11 |]; [| 11; 12 |]; [| 10; 12 |]; [| 10; 11 |] ]
    else []
  in
  (* per-node union-find filter over fragment ids 10..12 *)
  let ufs = Array.init 4 (fun _ -> Union_find.create 3) in
  let filter v m = Union_find.union ufs.(v) (m.(0) - 10) (m.(1) - 10) in
  let received = Congest.Primitives.pipelined_upcast net tree ~items ~filter in
  Alcotest.(check int) "root sees spanning forest only" 2
    (List.length received)

let test_pipelined_downcast_rounds () =
  let g = Gen.path 5 in
  let net = vnet g in
  let tree = Congest.Primitives.bfs_tree net ~root:0 in
  let cp = Congest.Net.checkpoint net in
  Congest.Primitives.pipelined_downcast net tree [ [| 1 |]; [| 2 |]; [| 3 |] ];
  Alcotest.(check int) "rounds = items + height" (3 + 4)
    (Congest.Net.rounds_since net cp)

(* ------------------------------------------------------------------ *)
(* Component identification *)

let test_identify_subgraph () =
  let g = Gen.path 6 in
  let net = vnet g in
  (* deactivate the middle edge (2,3): two components *)
  let labels =
    Congest.Components.identify net
      ~active:(fun _ -> true)
      ~edge_active:(fun u v -> not ((u = 2 && v = 3) || (u = 3 && v = 2)))
  in
  Alcotest.(check (array int)) "labels" [| 0; 0; 0; 3; 3; 3 |] labels

let test_identify_inactive_nodes () =
  let g = Gen.cycle 6 in
  let net = vnet g in
  let labels =
    Congest.Components.identify net
      ~active:(fun v -> v <> 0 && v <> 3)
      ~edge_active:(fun _ _ -> true)
  in
  Alcotest.(check int) "inactive" (-1) labels.(0);
  Alcotest.(check int) "side a" 1 labels.(1);
  Alcotest.(check int) "side a" 1 labels.(2);
  Alcotest.(check int) "side b" 4 labels.(4);
  Alcotest.(check int) "side b" 4 labels.(5)

let test_identify_min_value () =
  let g = Gen.path 5 in
  let net = vnet g in
  let values, ids =
    Congest.Components.identify_min_value net
      ~active:(fun _ -> true)
      ~edge_active:(fun _ _ -> true)
      ~value:(fun u -> 10 - u)
  in
  Array.iter (fun v -> Alcotest.(check int) "min value" 6 v) values;
  Array.iter (fun i -> Alcotest.(check int) "argmin id" 4 i) ids

let prop_identify_matches_centralized =
  QCheck.Test.make
    ~name:"distributed component id = centralized components" ~count:25
    QCheck.(pair (int_range 4 20) (int_range 0 20))
    (fun (n, extra) ->
      let g = Gen.random_connected (rng ()) ~n ~extra in
      (* drop a pseudo-random half of the edges *)
      let keep u v = (u + (3 * v)) mod 3 <> 0 in
      let sym u v = keep (min u v) (max u v) in
      let net = vnet g in
      let labels =
        Congest.Components.identify net ~active:(fun _ -> true) ~edge_active:sym
      in
      let sub = Graph.spanning_subgraph g sym in
      let _, central = Traversal.components sub in
      (* same partition: labels agree iff centralized labels agree *)
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if labels.(u) = labels.(v) && central.(u) <> central.(v) then
            ok := false;
          if central.(u) = central.(v) && labels.(u) <> labels.(v) then
            ok := false
        done
      done;
      !ok)

let same_partition a b =
  let n = Array.length a in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if (a.(u) = a.(v)) <> (b.(u) = b.(v)) then ok := false;
      if (a.(u) < 0) <> (b.(u) < 0) then ok := false
    done
  done;
  !ok

let test_identify_hybrid_matches () =
  let g = Gen.random_connected (rng ()) ~n:40 ~extra:30 in
  let keep u v = (u + (2 * v)) mod 3 <> 0 in
  let sym u v = keep (min u v) (max u v) in
  let net1 = vnet g in
  let flood =
    Congest.Components.identify net1 ~active:(fun _ -> true) ~edge_active:sym
  in
  let net2 = vnet g in
  let hybrid =
    Congest.Components.identify_hybrid net2 ~active:(fun _ -> true)
      ~edge_active:sym
  in
  Alcotest.(check bool) "hybrid partition = flooding partition" true
    (same_partition flood hybrid)

let test_identify_hybrid_beats_flooding_on_paths () =
  (* a long path: flooding needs ~n rounds, the hybrid ~sqrt n + D...
     on a path D = n so we embed the path in a star-augmented graph to
     keep D small: path + hub connected to every 8th node *)
  let n = 256 in
  let path_edges = List.init (n - 1) (fun i -> (i, i + 1)) in
  let hub_edges = List.init (n / 8) (fun j -> (n, 8 * j)) in
  let g = Graph.of_edges ~n:(n + 1) (path_edges @ hub_edges) in
  (* subgraph = the path only (hub inactive) *)
  let active v = v < n in
  let edge_active u v = u < n && v < n in
  let net1 = vnet g in
  let _ = Congest.Components.identify net1 ~active ~edge_active in
  let flood_rounds = Congest.Net.rounds net1 in
  let net2 = vnet g in
  let labels = Congest.Components.identify_hybrid net2 ~active ~edge_active in
  let hybrid_rounds = Congest.Net.rounds net2 in
  (* the path is one component: all labels equal, hub inactive *)
  for v = 1 to n - 1 do
    Alcotest.(check int) "single component" labels.(0) labels.(v)
  done;
  Alcotest.(check int) "hub inactive" (-1) labels.(n);
  Alcotest.(check bool)
    (Printf.sprintf "hybrid %d < flooding %d rounds" hybrid_rounds flood_rounds)
    true
    (hybrid_rounds < flood_rounds)

let test_identify_hybrid_isolated_fragments () =
  (* disconnected subgraph with singleton and small components *)
  let g = Gen.cycle 9 in
  let net = vnet g in
  let labels =
    Congest.Components.identify_hybrid net
      ~active:(fun v -> v <> 2 && v <> 5 && v <> 8)
      ~edge_active:(fun _ _ -> true)
  in
  Alcotest.(check int) "inactive" (-1) labels.(2);
  Alcotest.(check bool) "arc {0,1}" true (labels.(0) = labels.(1));
  Alcotest.(check bool) "arc {3,4}" true (labels.(3) = labels.(4));
  Alcotest.(check bool) "arcs distinct" true (labels.(0) <> labels.(3))

(* Each node's upcast filter holds only the fragment labels it relays:
   one identification at n = 4096 must allocate far less than the n²
   words of per-node n-slot union-finds (3n² with ranks and sizes). *)
let test_identify_hybrid_memory () =
  let n = 4096 in
  let g = Gen.random_connected (rng ()) ~n ~extra:n in
  let edge_active u v = (u + v) mod 3 <> 0 in
  let net = vnet g in
  let _, _, major0 = Gc.counters () in
  let labels =
    Congest.Components.identify_hybrid net ~active:(fun _ -> true)
      ~edge_active
  in
  let _, _, major1 = Gc.counters () in
  let major = major1 -. major0 in
  Alcotest.(check bool)
    (Printf.sprintf "major words %.0f < n^2 = %d" major (n * n))
    true
    (major < float_of_int (n * n));
  (* and the labelling is the subgraph's component partition *)
  let sub = Graph.spanning_subgraph g edge_active in
  let components, _ = Traversal.components sub in
  Graph.iter_edges
    (fun u v ->
      Alcotest.(check int) "endpoints share a label" labels.(u) labels.(v))
    sub;
  let sorted = Array.copy labels in
  Array.sort Int.compare sorted;
  let distinct = ref 0 in
  Array.iteri
    (fun i l -> if i = 0 || sorted.(i - 1) <> l then incr distinct)
    sorted;
  Alcotest.(check int) "one label per component" components !distinct

let prop_hybrid_matches_flooding =
  QCheck.Test.make
    ~name:"hybrid component id = flooding component id" ~count:20
    QCheck.(pair (int_range 5 30) (int_range 0 25))
    (fun (n, extra) ->
      let g = Gen.random_connected (rng ()) ~n ~extra in
      let keep u v = (u * v) mod 4 <> 1 in
      let sym u v = keep (min u v) (max u v) in
      let net1 = vnet g in
      let a =
        Congest.Components.identify net1 ~active:(fun _ -> true) ~edge_active:sym
      in
      let net2 = vnet g in
      let b =
        Congest.Components.identify_hybrid ~cap:3 net2 ~active:(fun _ -> true)
          ~edge_active:sym
      in
      same_partition a b)

(* ------------------------------------------------------------------ *)
(* Distributed MST *)

(* The central minimum spanning forest ([Mst.forest_ids]) of the edges
   [keep] admits under [weight], as [(u, v)] pairs in edge-id order —
   the order the distributed forests come back in. Both sides break
   weight ties by edge id. *)
let central_forest g ~keep ~weight =
  let eu, ev = Graph.csr_endpoints g in
  let weights = Array.init (Graph.m g) (fun e -> weight eu.(e) ev.(e)) in
  let edges =
    Array.of_seq
      (Seq.filter (fun e -> keep eu.(e) ev.(e)) (Seq.init (Graph.m g) Fun.id))
  in
  Array.to_list (Array.map (Graph.edge_endpoints g) (Mst.forest_ids g edges ~weights))

let test_dist_mst_is_mst () =
  let g = Gen.random_connected (rng ()) ~n:25 ~extra:30 in
  let weight u v =
    let u, v = (min u v, max u v) in
    ((u * 131) + (v * 37)) mod 1000
  in
  let net = vnet g in
  let forest = Congest.Dist_mst.minimum_spanning_forest net ~weight in
  Alcotest.(check bool) "spanning tree" true
    (Mst.is_spanning_tree ~n:25 forest);
  Alcotest.(check (list (pair int int))) "the central forest"
    (central_forest g ~keep:(fun _ _ -> true) ~weight)
    forest

let test_dist_mst_on_subgraph () =
  let g = Gen.clique 8 in
  let net = vnet g in
  (* restrict to even vertices, forming a 4-clique *)
  let active v = v mod 2 = 0 in
  let forest =
    Congest.Dist_mst.minimum_spanning_forest_on net ~active
      ~edge_active:(fun u v -> active u && active v)
      ~weight:(fun u v -> u + v)
  in
  Alcotest.(check int) "three edges" 3 (List.length forest);
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool) "even endpoints" true (active u && active v))
    forest

let test_pipelined_converge () =
  let g = Gen.path 6 in
  let net = vnet g in
  let tree = Congest.Primitives.bfs_tree net ~root:0 in
  (* keys 0/1, payload = one word; minimum per key expected at root *)
  let values u = [ (u mod 2, [| 100 - u |]) ] in
  let better (a : Congest.Net.msg) b = a.(0) < b.(0) in
  let result = Congest.Primitives.pipelined_converge net tree ~values ~better in
  (match result with
  | [ (0, p0); (1, p1) ] ->
    Alcotest.(check int) "min even payload" (100 - 4) p0.(0);
    Alcotest.(check int) "min odd payload" (100 - 5) p1.(0)
  | _ -> Alcotest.fail "expected two keys");
  ignore tree

let test_pipelined_converge_rounds () =
  (* many keys: rounds should scale like height + #keys, far below
     height * #keys *)
  let g = Gen.path 16 in
  let net = vnet g in
  let tree = Congest.Primitives.bfs_tree net ~root:0 in
  let keys = 8 in
  let values u = [ (u mod keys, [| u |]) ] in
  let better (a : Congest.Net.msg) b = a.(0) < b.(0) in
  let cp = Congest.Net.checkpoint net in
  let result = Congest.Primitives.pipelined_converge net tree ~values ~better in
  Alcotest.(check int) "all keys arrive" keys (List.length result);
  let rounds = Congest.Net.rounds_since net cp in
  Alcotest.(check bool)
    (Printf.sprintf "pipelined: %d rounds <= 3*(height+keys)" rounds)
    true
    (rounds <= 3 * (tree.Congest.Primitives.height + keys + 2))

let test_hybrid_mst_matches () =
  let g = Gen.random_connected (rng ()) ~n:30 ~extra:40 in
  let weight u v =
    let u, v = (min u v, max u v) in
    ((u * 101) + (v * 53)) mod 997
  in
  let net1 = vnet g in
  let a = Congest.Dist_mst.minimum_spanning_forest net1 ~weight in
  let net2 = vnet g in
  let b = Congest.Dist_mst.minimum_spanning_forest_hybrid net2 ~weight in
  Alcotest.(check (list (pair int int))) "same forest" a b

let prop_hybrid_mst_matches =
  QCheck.Test.make ~name:"hybrid MST = flooding MST" ~count:12
    QCheck.(pair (int_range 5 20) (int_range 0 25))
    (fun (n, extra) ->
      let g = Gen.random_connected (rng ()) ~n ~extra in
      let weight u v =
        let u, v = (min u v, max u v) in
        ((u * 7) + (v * 13)) mod 61
      in
      let net1 = vnet g in
      let a = Congest.Dist_mst.minimum_spanning_forest net1 ~weight in
      let net2 = vnet g in
      let b = Congest.Dist_mst.minimum_spanning_forest_hybrid net2 ~weight in
      a = b)

let prop_dist_mst_weight =
  QCheck.Test.make ~name:"distributed MST weight matches centralized"
    ~count:15
    QCheck.(pair (int_range 5 18) (int_range 0 25))
    (fun (n, extra) ->
      let g = Gen.random_connected (rng ()) ~n ~extra in
      let weight u v =
        let u, v = (min u v, max u v) in
        ((u * 7) + (v * 13)) mod 50
      in
      let net = vnet g in
      let forest = Congest.Dist_mst.minimum_spanning_forest net ~weight in
      Mst.is_spanning_tree ~n forest
      && forest = central_forest g ~keep:(fun _ _ -> true) ~weight)

(* Differential: on a random marked subgraph, the distributed forest is
   exactly the central one, edge for edge. Small weights force ties. *)
let prop_dist_mst_matches_kruskal =
  QCheck.Test.make ~name:"Dist_mst on a subgraph = Kruskal edge list"
    ~count:40
    QCheck.(triple (int_range 2 24) (int_range 0 30) (int_range 0 9999))
    (fun (n, extra, seed) ->
      let rng = Random.State.make [| seed; n; extra |] in
      let g = Gen.random_connected rng ~n ~extra in
      let active = Array.init n (fun _ -> Random.State.int rng 5 > 0) in
      let keep = Array.init (Graph.m g) (fun _ -> Random.State.int rng 4 > 0) in
      let wt = Array.init (Graph.m g) (fun _ -> Random.State.int rng 4) in
      let edge_active u v = keep.(Graph.edge_index g u v) in
      let weight u v = wt.(Graph.edge_index g u v) in
      let forest =
        Congest.Dist_mst.minimum_spanning_forest_on (vnet g)
          ~active:(fun v -> active.(v)) ~edge_active ~weight
      in
      forest
      = central_forest g ~weight ~keep:(fun u v ->
            active.(u) && active.(v) && edge_active u v))

(* Differential against the re-flooding kernel in [Dist_mst_ref]: on
   random marked subgraphs (disconnected ones included) under random,
   tied and all-zero weights, both variants return the reference's
   forest, and the flooding variant in no more rounds. Under drops and
   a crash both flooding kernels finish without raising (the hybrid's
   global phases convergecast over a BFS tree, which a crash can cut,
   in either kernel). *)
let prop_dist_mst_matches_reference =
  QCheck.Test.make ~name:"Dist_mst = Dist_mst_ref" ~count:60
    QCheck.(quad (int_range 2 28) (int_range 0 40) (int_range 0 2)
              (int_range 0 9999))
    (fun (n, extra, mode, seed) ->
      let rng = Random.State.make [| seed; n; extra; mode |] in
      let g = Gen.random_connected rng ~n ~extra in
      let active = Array.init n (fun _ -> Random.State.int rng 6 > 0) in
      let keep = Array.init (Graph.m g) (fun _ -> Random.State.int rng 3 > 0) in
      let wt =
        Array.init (Graph.m g) (fun _ ->
            match mode with
            | 0 -> Random.State.int rng 1000
            | 1 -> Random.State.int rng 3
            | _ -> 0)
      in
      let weight u v = wt.(Graph.edge_index g u v) in
      let active v = active.(v) and edge_active u v =
        keep.(Graph.edge_index g u v)
      in
      let cap = 1 + Random.State.int rng 4 in
      (* (same forest, new rounds, reference rounds) *)
      let compare run_new run_ref =
        let net1 = vnet g and net2 = vnet g in
        let a = run_new net1 and b = run_ref net2 in
        ( List.equal (fun (a1, b1) (a2, b2) -> a1 = a2 && b1 = b2) a b,
          Congest.Net.rounds net1,
          Congest.Net.rounds net2 )
      in
      let on_same, on_new, on_ref =
        compare
          (fun net ->
            Congest.Dist_mst.minimum_spanning_forest_on net ~active
              ~edge_active ~weight)
          (fun net ->
            Dist_mst_ref.minimum_spanning_forest_on net ~active ~edge_active
              ~weight)
      in
      let hybrid_same, _, _ =
        compare
          (Congest.Dist_mst.minimum_spanning_forest_hybrid ~cap ~weight)
          (Dist_mst_ref.minimum_spanning_forest_hybrid ~cap ~weight)
      in
      let faulty run =
        let net = vnet g in
        Congest.Faults.install net
          (Congest.Faults.create ~seed
             [
               Congest.Faults.Drop_bernoulli 0.2;
               Congest.Faults.Crash_at [ (2, seed mod n) ];
             ]);
        ignore (run net)
      in
      List.iter faulty
        [
          (fun net ->
            Congest.Dist_mst.minimum_spanning_forest_on net ~active ~edge_active
              ~weight);
          (fun net ->
            Dist_mst_ref.minimum_spanning_forest_on net ~active ~edge_active
              ~weight);
        ];
      if not (on_same && hybrid_same && on_new <= on_ref) then
        QCheck.Test.fail_reportf
          "same forest %b (hybrid %b), rounds %d vs reference %d" on_same
          hybrid_same on_new on_ref;
      true)

(* ------------------------------------------------------------------ *)

let prop_words_accounting =
  QCheck.Test.make ~name:"words_sent equals the sum of message lengths"
    ~count:30
    QCheck.(pair (int_range 3 12) (int_range 1 8))
    (fun (n, len) ->
      let g = Gen.clique n in
      let net = vnet g in
      ignore
        (Congest.Net.broadcast_round net (fun u ->
             if u mod 2 = 0 then Some (Array.make len 1) else None));
      let senders = (n + 1) / 2 in
      Congest.Net.words_sent net = senders * (n - 1) * len
      && Congest.Net.messages_sent net = senders * (n - 1))

(* The inbox view against the round's own accounting and, on
   fault-free rounds, against the traffic offered: random graphs, random
   broadcast and edge rounds, with and without a drop + crash adversary,
   two random draws of each. *)
let prop_inbox_view_contract =
  QCheck.Test.make
    ~name:"inbox view = the round's deliveries, senders ascending" ~count:40
    QCheck.(triple (int_range 3 24) (int_range 0 30) (int_range 0 9999))
    (fun (n, extra, seed) ->
      let g = Gen.random_connected (Random.State.make [| seed |]) ~n ~extra in
      let view net =
        let acc = ref [] in
        Congest.Net.iter_deliveries net (fun v u e m ->
            acc := (v, u, e, m) :: !acc);
        List.rev !acc
      in
      let check ~draw ~faulty =
        let rng = Random.State.make [| seed; draw |] in
        let net = Congest.Net.create Congest.Model.E_congest g in
        if faulty then
          F.install net
            (F.create ~seed
               [
                 F.Drop_bernoulli 0.3; F.Crash_at [ (1, seed mod n); (3, 0) ];
               ]);
        let ok = ref (view net = []) in
        for r = 0 to 5 do
          let m0 = Congest.Net.messages_sent net
          and w0 = Congest.Net.words_sent net in
          let word () = Random.State.int rng 64 in
          let msg () =
            Array.init (1 + Random.State.int rng 3) (fun _ -> word ())
          in
          (* expected.(v): (sender, msg) offered to v, senders ascending *)
          let expected = Array.make n [] in
          if r mod 2 = 0 then begin
            let out =
              Array.init n (fun _ ->
                  if Random.State.bool rng then Some (msg ()) else None)
            in
            for u = n - 1 downto 0 do
              Option.iter
                (fun m ->
                  Array.iter
                    (fun v -> expected.(v) <- (u, m) :: expected.(v))
                    (Graph.neighbors g u))
                out.(u)
            done;
            Congest.Net.broadcast_round net (fun u -> out.(u))
          end
          else begin
            let out =
              Array.init n (fun u ->
                  List.filter_map
                    (fun v ->
                      if Random.State.bool rng then Some (v, msg ()) else None)
                    (Array.to_list (Graph.neighbors g u)))
            in
            for u = n - 1 downto 0 do
              List.iter
                (fun (v, m) -> expected.(v) <- (u, m) :: expected.(v))
                out.(u)
            done;
            Congest.Net.edge_round net (fun u -> out.(u))
          end;
          let seen = view net in
          let per = Array.make n [] in
          List.iter (fun (v, u, e, m) -> per.(v) <- (u, e, m) :: per.(v)) seen;
          ok :=
            !ok
            && List.length seen = Congest.Net.messages_sent net - m0
            && List.fold_left (fun a (_, _, _, m) -> a + Array.length m) 0 seen
               = Congest.Net.words_sent net - w0;
          for v = 0 to n - 1 do
            let got = List.rev per.(v) in
            let senders = List.map (fun (u, _, _) -> u) got in
            ok :=
              !ok
              && List.for_all (fun (u, e, _) -> e = Graph.edge_index g u v) got
              && senders = List.sort_uniq Int.compare senders
              && (faulty
                 || List.length got = List.length expected.(v)
                    && List.for_all2
                         (fun (u, _, m) (u', m') -> u = u' && m == m')
                         got expected.(v))
          done;
          (* a round of the same kind that raises leaves an empty view *)
          (match
             if r mod 2 = 0 then
               Congest.Net.broadcast_round net (fun _ -> Some (Array.make 99 0))
             else
               Congest.Net.edge_round net (fun u ->
                   let v = (Graph.neighbors g u).(0) in
                   [ (v, [| 1 |]); (v, [| 2 |]) ])
           with
          | () -> ok := false
          | exception Congest.Net.Protocol_violation _ -> ());
          ok := !ok && view net = []
        done;
        !ok
      in
      List.for_all
        (fun (draw, faulty) -> check ~draw ~faulty)
        [ (1, false); (4, false); (1, true); (4, true) ])

(* Differential against the receiver-major engine kept in [Net_ref]:
   the same rounds on both engines must leave the same telemetry (every
   counter, both load maxima, boundary words, the digest trace) and the
   same inbox view after every round. Random graphs; per round a sender
   density (an eighth, a half, all), message lengths from 1 to the
   budget, a broadcast or an edge round; no hook, Bernoulli drops, or a
   crash schedule; with or without a boundary predicate; and one round
   that raises on both, in the middle of the run. *)
let prop_net_matches_reference =
  QCheck.Test.make ~name:"Net = Net_ref" ~count:120
    QCheck.(
      quad (int_range 2 40) (int_range 0 80) (int_range 0 2)
        (pair bool (int_range 0 99999)))
    (fun (n, extra, faults, (bounded, seed)) ->
      let rng = Random.State.make [| seed; n; extra |] in
      let g = Gen.random_connected rng ~n ~extra in
      let net = Congest.Net.create Congest.Model.E_congest g in
      let ref_net = Net_ref.create Congest.Model.E_congest g in
      let adversary () =
        match faults with
        | 0 -> None
        | 1 -> Some (F.create ~seed [ F.Drop_bernoulli 0.3 ])
        | _ ->
          Some
            (F.create ~seed
               [ F.Crash_at [ (1, seed mod n); (3, (seed / 7) mod n) ] ])
      in
      Option.iter (F.install net) (adversary ());
      Option.iter
        (fun a -> Net_ref.install_faults ref_net (F.hook g a))
        (adversary ());
      if bounded then begin
        let side v = v mod 3 = 0 in
        Congest.Net.set_boundary net side;
        Net_ref.set_boundary ref_net side
      end;
      let budget = Congest.Model.words_budget ~n in
      let width = Congest.Model.max_word ~n in
      let msg () =
        Array.init
          (1 + Random.State.int rng budget)
          (fun _ -> Random.State.int rng (min width 0x3FFFFFFF))
      in
      let view iter =
        let acc = ref [] in
        for v = 0 to n - 1 do
          iter v (fun v u e m -> acc := (v, u, e, m) :: !acc)
        done;
        !acc
      in
      let same () =
        Congest.Net.telemetry net = Net_ref.telemetry ref_net
        && view (Congest.Net.iter_inbox net) = view (Net_ref.iter_inbox ref_net)
      in
      (* both engines run [round]; both raise the same violation, or
         neither does *)
      let both round =
        let outcome f = match f () with () -> None | exception e -> Some e in
        outcome (fun () -> round `Net) = outcome (fun () -> round `Ref)
      in
      let raising_round = Random.State.int rng 8 in
      let ok = ref true in
      for r = 0 to 7 do
        let edge = Random.State.bool rng in
        let density = [| 8; 2; 1 |].(Random.State.int rng 3) in
        let sends () = Random.State.int rng density = 0 in
        let bad = if r = raising_round then Random.State.int rng n else -1 in
        if edge then begin
          let out =
            Array.init n (fun u ->
                if sends () || u = bad then
                  List.filter_map
                    (fun v ->
                      if Random.State.bool rng || u = bad then Some (v, msg ())
                      else None)
                    (Array.to_list (Graph.neighbors g u))
                else [])
          in
          (* the raising round sends twice on one direction *)
          if bad >= 0 then out.(bad) <- List.hd out.(bad) :: out.(bad);
          ok :=
            !ok
            && both (function
                 | `Net -> Congest.Net.edge_round net (fun u -> out.(u))
                 | `Ref -> Net_ref.edge_round ref_net (fun u -> out.(u)))
        end
        else begin
          let out =
            Array.init n (fun u ->
                if u = bad then Some (Array.make (budget + 1) 0)
                else if sends () then Some (msg ())
                else None)
          in
          ok :=
            !ok
            && both (function
                 | `Net -> Congest.Net.broadcast_round net (fun u -> out.(u))
                 | `Ref -> Net_ref.broadcast_round ref_net (fun u -> out.(u)))
        end;
        ok := !ok && same ()
      done;
      !ok)

(* DESIGN.md §10's "allocates nothing per node or per message": over
   100 steady-state fault-free rounds of each kind, with every message
   and out-list built beforehand, the engine's minor allocation is the
   same at n = 64 as at n = 1024. *)
let test_round_allocation_constant () =
  let minor_words_per_100 ~edge n =
    let g = Gen.random_regular (Random.State.make [| n |]) ~n ~d:4 in
    let net = enet g in
    let run =
      if edge then begin
        let out =
          Array.init n (fun u ->
              Array.to_list
                (Array.map (fun v -> (v, [| u; v |])) (Graph.neighbors g u)))
        in
        let send u = out.(u) in
        fun () -> Congest.Net.edge_round net send
      end
      else begin
        let out = Array.init n (fun u -> Some [| u; 1; 2 |]) in
        let send u = out.(u) in
        fun () -> Congest.Net.broadcast_round net send
      end
    in
    for _ = 1 to 10 do
      run ()
    done;
    let w0 = Gc.minor_words () in
    for _ = 1 to 100 do
      run ()
    done;
    int_of_float (Gc.minor_words () -. w0)
  in
  List.iter
    (fun edge ->
      let what = if edge then "edge_round" else "broadcast_round" in
      let small = minor_words_per_100 ~edge 64 in
      Alcotest.(check int)
        (what ^ ": minor words per 100 rounds, n = 1024 vs n = 64")
        small
        (minor_words_per_100 ~edge 1024);
      Alcotest.(check bool)
        (what ^ ": a few words per round") true (small <= 100 * 8))
    [ false; true ]

(* [Net.delivered] against the inbox view: the sender-major walk (each
   sender ascending, each slot of its CSR slice where [delivered] holds)
   must list exactly the deliveries of [iter_deliveries], as (sender,
   receiver, edge id) with the very message the sender put on that slot.
   [msg_of u s] is that message, from the test's own record of the
   round. *)
let outbox_walk net msg_of =
  let g = Congest.Net.graph net in
  let off = Graph.csr_offsets g
  and adj = Graph.csr_neighbors g
  and ids = Graph.csr_edge_ids g in
  let acc = ref [] in
  for u = 0 to Graph.n g - 1 do
    for s = off.(u) to off.(u + 1) - 1 do
      if Congest.Net.delivered net u s then
        acc := (u, adj.(s), ids.(s), msg_of u s) :: !acc
    done
  done;
  List.rev !acc

let check_outbox_walk what net msg_of =
  let walk = outbox_walk net msg_of in
  let view = ref [] in
  Congest.Net.iter_deliveries net (fun v u e m -> view := (u, v, e, m) :: !view);
  let key (u, v, _, _) = (u, v) in
  let view =
    List.sort (fun a b -> compare (key a) (key b)) (List.rev !view)
  in
  let show l =
    String.concat " "
      (List.map (fun (u, v, e, _) -> Printf.sprintf "%d>%d@%d" u v e) l)
  in
  Alcotest.(check string) (what ^ ": deliveries") (show view) (show walk);
  Alcotest.(check bool)
    (what ^ ": physically the sent messages")
    true
    (List.for_all2 (fun (_, _, _, m) (_, _, _, m') -> m == m') view walk);
  List.length walk

let test_delivered_walk () =
  let g = Gen.random_connected (Random.State.make [| 24 |]) ~n:14 ~extra:16 in
  let n = Graph.n g and off = Graph.csr_offsets g in
  let adj = Graph.csr_neighbors g in
  let absent = [||] in
  List.iter
    (fun draw ->
      let what s = Printf.sprintf "draw %d, %s" draw s in
      let rng = Random.State.make [| draw |] in
      let adversary () =
        F.create ~seed:draw [ F.Drop_bernoulli 0.3; F.Crash_at [ (0, 5) ] ]
      in
      (* broadcast rounds: [out.(u)] is what u sent, or None *)
      let broadcast net =
        let out =
          Array.init n (fun u ->
              if Random.State.int rng 4 > 0 then Some [| u; 7 |] else None)
        in
        Congest.Net.broadcast_round net (fun u -> out.(u));
        fun u _ -> Option.value out.(u) ~default:absent
      in
      (* edge rounds: [out.(s)] is what the slot's owner sent on slot s *)
      let edge net =
        let out =
          Array.init (Array.length adj) (fun s ->
              if Random.State.bool rng then Some [| s |] else None)
        in
        Congest.Net.edge_round net (fun u ->
            List.filter_map
              (fun s -> Option.map (fun m -> (adj.(s), m)) out.(s))
              (List.init (off.(u + 1) - off.(u)) (fun k -> off.(u) + k)));
        fun _ s -> Option.value out.(s) ~default:absent
      in
      let raise_round net =
        match
          Congest.Net.broadcast_round net (fun _ -> Some (Array.make 99 0))
        with
        | () -> Alcotest.fail "an oversized message went through"
        | exception Congest.Net.Protocol_violation _ -> ()
      in
      let none _ _ = absent in
      (* fault free, V-CONGEST *)
      let net = Congest.Net.create Congest.Model.V_congest g in
      Alcotest.(check int)
        (what "before any round")
        0
        (check_outbox_walk (what "before any round") net none);
      let msg_of = broadcast net in
      Alcotest.(check bool)
        (what "broadcast delivers")
        true
        (check_outbox_walk (what "broadcast") net msg_of > 0);
      raise_round net;
      Alcotest.(check int)
        (what "after a raised round")
        0
        (check_outbox_walk (what "raised broadcast") net none);
      (* drops and a receiver crashed in round 0 *)
      let net = Congest.Net.create Congest.Model.V_congest g in
      F.install net (adversary ());
      let last = ref none in
      for _ = 0 to 1 do
        let msg_of = broadcast net in
        last := msg_of;
        let k = check_outbox_walk (what "faulty broadcast") net msg_of in
        Alcotest.(check bool) (what "faulty broadcast delivers") true (k > 0)
      done;
      Alcotest.(check bool)
        (what "the adversary destroyed traffic")
        true
        (Congest.Net.messages_lost net > 0);
      Alcotest.(check bool)
        (what "nothing reaches the crashed node")
        true
        (List.for_all (fun (_, v, _, _) -> v <> 5) (outbox_walk net !last));
      (* edge rounds, fault free and faulty, then one that raises *)
      List.iter
        (fun faulty ->
          let net = Congest.Net.create Congest.Model.E_congest g in
          if faulty then F.install net (adversary ());
          for _ = 0 to 1 do
            let msg_of = edge net in
            ignore (check_outbox_walk (what "edge round") net msg_of)
          done;
          (match
             Congest.Net.edge_round net (fun u ->
                 let v = adj.(off.(u)) in
                 [ (v, [| 1 |]); (v, [| 2 |]) ])
           with
          | () -> Alcotest.fail "a duplicate edge direction went through"
          | exception Congest.Net.Protocol_violation _ -> ());
          Alcotest.(check int)
            (what "after a raised edge round")
            0
            (check_outbox_walk (what "raised edge round") net none))
        [ false; true ])
    [ 1; 2 ]

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "congest"
    [
      ( "runtime",
        [
          Alcotest.test_case "broadcast round" `Quick test_broadcast_round;
          Alcotest.test_case "bandwidth" `Quick test_bandwidth_enforced;
          Alcotest.test_case "word width" `Quick test_word_width_enforced;
          Alcotest.test_case "edge_round illegal in V" `Quick
            test_edge_round_illegal_in_vcongest;
          Alcotest.test_case "edge_round in E" `Quick test_edge_round_in_econgest;
          Alcotest.test_case "congestion accounting" `Quick
            test_congestion_accounting;
          Alcotest.test_case "reset/checkpoint" `Quick test_reset_and_checkpoint;
          Alcotest.test_case "boundary accounting" `Quick
            test_boundary_accounting;
        ] );
      ( "engine",
        [
          Alcotest.test_case "raises the highest offender" `Quick
            test_violation_highest_sender;
          Alcotest.test_case "violation leaves the counters" `Quick
            test_violation_leaves_counters;
          Alcotest.test_case "rollback matches straight run" `Quick
            test_rollback_straight_through;
          Alcotest.test_case "digest trace chunks persistent" `Quick
            test_trace_chunks_persistent;
          Alcotest.test_case "obs counters exact" `Quick test_obs_counters_exact;
          Alcotest.test_case "round allocation independent of n" `Quick
            test_round_allocation_constant;
        ] );
      ( "net.delivered",
        [
          Alcotest.test_case "sender-major walk = inbox view" `Quick
            test_delivered_walk;
        ] );
      ( "faults",
        [
          Alcotest.test_case "crash silences node" `Quick
            test_crash_silences_node;
          Alcotest.test_case "bernoulli drops accounted" `Quick
            test_bernoulli_drops_accounted;
          Alcotest.test_case "drop determinism" `Quick test_drop_determinism;
          Alcotest.test_case "scheduled edge kill" `Quick
            test_scheduled_edge_kill;
          Alcotest.test_case "greedy kill budget" `Quick
            test_greedy_kill_budget;
          Alcotest.test_case "reset_stats contract" `Quick
            test_reset_stats_contract;
          Alcotest.test_case "invalid drop probability" `Quick
            test_invalid_drop_probability;
          Alcotest.test_case "drop and storm laws" `Quick
            test_drop_and_storm_laws;
          Alcotest.test_case "crash storm determinism" `Quick
            test_crash_storm_determinism;
          Alcotest.test_case "crash storm bounds" `Quick
            test_crash_storm_bounds;
          Alcotest.test_case "barrier rollback deterministic" `Quick
            test_barrier_rollback_deterministic;
        ] );
      qsuite "faults.props" [ prop_null_adversary_bit_identical ];
      ( "primitives",
        [
          Alcotest.test_case "bfs tree + rounds" `Quick test_bfs_tree_rounds;
          Alcotest.test_case "flood min" `Quick test_flood_min;
          Alcotest.test_case "checked flood min matches" `Quick
            test_flood_min_checked_matches;
          Alcotest.test_case "preprocess" `Quick test_preprocess;
          Alcotest.test_case "converge" `Quick test_converge_sum_min;
          Alcotest.test_case "broadcast int" `Quick test_broadcast_int;
          Alcotest.test_case "pipelined upcast filter" `Quick
            test_pipelined_upcast_filter;
          Alcotest.test_case "upcast forest filter" `Quick
            test_pipelined_upcast_forest_filter;
          Alcotest.test_case "downcast rounds" `Quick
            test_pipelined_downcast_rounds;
        ] );
      ( "components",
        [
          Alcotest.test_case "subgraph split" `Quick test_identify_subgraph;
          Alcotest.test_case "inactive nodes" `Quick test_identify_inactive_nodes;
          Alcotest.test_case "min value" `Quick test_identify_min_value;
        ] );
      ( "components.hybrid",
        [
          Alcotest.test_case "matches flooding" `Quick
            test_identify_hybrid_matches;
          Alcotest.test_case "faster on paths" `Quick
            test_identify_hybrid_beats_flooding_on_paths;
          Alcotest.test_case "isolated fragments" `Quick
            test_identify_hybrid_isolated_fragments;
          Alcotest.test_case "memory below n^2 at n = 4096" `Quick
            test_identify_hybrid_memory;
        ] );
      ( "knowledge",
        [
          Alcotest.test_case "unlearned read raises" `Quick
            test_knowledge_unlearned_read_raises;
          Alcotest.test_case "exchange is one hop" `Quick
            test_knowledge_exchange_is_one_hop;
          Alcotest.test_case "unchecked records only" `Quick
            test_knowledge_unchecked_records_only;
        ] );
      qsuite "runtime.props"
        [
          prop_words_accounting;
          prop_inbox_view_contract;
          prop_net_matches_reference;
        ];
      qsuite "components.props"
        [ prop_identify_matches_centralized; prop_hybrid_matches_flooding ];
      ( "dist_mst",
        [
          Alcotest.test_case "matches centralized" `Quick test_dist_mst_is_mst;
          Alcotest.test_case "subgraph" `Quick test_dist_mst_on_subgraph;
        ] );
      ( "dist_mst.hybrid",
        [
          Alcotest.test_case "pipelined converge" `Quick test_pipelined_converge;
          Alcotest.test_case "converge rounds" `Quick
            test_pipelined_converge_rounds;
          Alcotest.test_case "matches flooding MST" `Quick
            test_hybrid_mst_matches;
        ] );
      qsuite "dist_mst.props"
        [
          prop_dist_mst_weight;
          prop_hybrid_mst_matches;
          prop_dist_mst_matches_kruskal;
          prop_dist_mst_matches_reference;
        ];
    ]
