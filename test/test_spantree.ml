(* Tests for the spanning-tree packing: the packing checker, the §5.1
   Lagrangian iteration, §5.2 sampling, integral peeling, the
   distributed version, and edge-connectivity estimation. *)

open Graphs
open Spantree

let enet g = Congest.Net.create Congest.Model.E_congest g

(* ------------------------------------------------------------------ *)
(* Spacking checker *)

(* the edge ids of [(u, v)] pairs of [g], ascending *)
let ids g es =
  let a = Array.of_list (List.map (fun (u, v) -> Graph.edge_index g u v) es) in
  Array.sort Int.compare a;
  a

(* the path 0-1-...-(n-1), whose edge ids in [Gen.path n] are 0 .. n-2 *)
let tree_of_path n = Array.init (n - 1) Fun.id

let test_spacking_size_and_load () =
  let g = Gen.cycle 4 in
  let t1 = { Spacking.edges = ids g [ (0, 1); (1, 2); (2, 3) ]; weight = 0.5 } in
  let t2 = { Spacking.edges = ids g [ (1, 2); (2, 3); (0, 3) ]; weight = 0.5 } in
  let p = { Spacking.graph = g; trees = [ t1; t2 ] } in
  Alcotest.(check (float 1e-9)) "size" 1.0 (Spacking.size p);
  Alcotest.(check (float 1e-9)) "shared edge load" 1.0 (Spacking.max_edge_load p);
  Alcotest.(check int) "multiplicity" 2 (Spacking.max_edge_multiplicity p);
  Alcotest.(check bool) "valid" true (Spacking.is_valid p)

let test_spacking_rejects () =
  let g = Gen.path 4 in
  let not_spanning =
    { Spacking.graph = g;
      trees = [ { Spacking.edges = ids g [ (0, 1) ]; weight = 1. } ] }
  in
  Alcotest.(check bool) "non-spanning rejected" false
    (Spacking.is_valid not_spanning);
  let overload =
    { Spacking.graph = g;
      trees =
        [
          { Spacking.edges = tree_of_path 4; weight = 0.8 };
          { Spacking.edges = tree_of_path 4; weight = 0.8 };
        ] }
  in
  Alcotest.(check bool) "overload rejected" false (Spacking.is_valid overload);
  (* id m names no edge of the graph *)
  let outside =
    { Spacking.graph = g;
      trees =
        [ { Spacking.edges = [| 0; 1; Graph.m g |]; weight = 1. } ] }
  in
  Alcotest.(check bool) "edge outside graph rejected" false
    (Spacking.is_valid outside)

let test_normalize () =
  let g = Gen.path 3 in
  let p =
    { Spacking.graph = g;
      trees = [ { Spacking.edges = tree_of_path 3; weight = 0.25 } ] }
  in
  let q = Spacking.normalize_to_unit_load p in
  Alcotest.(check (float 1e-9)) "normalized load" 1.0 (Spacking.max_edge_load q)

(* ------------------------------------------------------------------ *)
(* Lagrangian (§5.1) *)

let test_lagrangian_feasible_and_sized () =
  List.iter
    (fun (lambda, n) ->
      let g = Gen.harary ~k:lambda ~n in
      let r = Lagrangian.run g ~lambda in
      let p = r.Lagrangian.packing in
      Alcotest.(check bool) "feasible" true (Spacking.is_valid ~tolerance:1e-6 p);
      let target = float_of_int (Lagrangian.target ~lambda) in
      let ratio = Spacking.size p /. target in
      Alcotest.(check bool)
        (Printf.sprintf "size ratio %.2f >= 0.6 (lambda=%d)" ratio lambda)
        true (ratio >= 0.6))
    [ (4, 32); (8, 48); (12, 64) ]

let test_lagrangian_trivial_lambda () =
  let g = Gen.path 6 in
  let r = Lagrangian.run g ~lambda:1 in
  Alcotest.(check bool) "single tree packing valid" true
    (Spacking.is_valid ~tolerance:1e-6 r.Lagrangian.packing);
  Alcotest.(check bool) "size ~ 1" true
    (Spacking.size r.Lagrangian.packing >= 0.99)

let test_lagrangian_stop_certificate () =
  (* when the stop rule fires the final max z must be <= 1 + 6 eps
     (Lemma F.1) measured on the unscaled collection *)
  let g = Gen.harary ~k:4 ~n:32 in
  let eps = 0.15 in
  let r = Lagrangian.run ~eps g ~lambda:4 in
  if r.Lagrangian.trace.Lagrangian.stopped_by_rule then begin
    let tgt = float_of_int (Lagrangian.target ~lambda:4) in
    let max_z =
      Spacking.max_edge_load r.Lagrangian.collection *. tgt
    in
    Alcotest.(check bool) "Lemma F.1 certificate" true
      (max_z <= 1. +. (6. *. eps) +. 1e-6)
  end

let test_lagrangian_iteration_cap () =
  let g = Gen.harary ~k:6 ~n:32 in
  let r = Lagrangian.run ~max_iterations:5 g ~lambda:6 in
  Alcotest.(check bool) "respects the cap" true
    (r.Lagrangian.trace.Lagrangian.iterations <= 5)

let test_lagrangian_collection_invariant () =
  (* the §5.1 invariant: the raw collection's weights always sum to 1 *)
  let g = Gen.harary ~k:6 ~n:36 in
  let r = Lagrangian.run ~max_iterations:80 g ~lambda:6 in
  Alcotest.(check (float 1e-6)) "sum of weights = 1" 1.0
    (Spacking.size r.Lagrangian.collection)

let test_lagrangian_z_improves () =
  (* the multiplicative-weights loop must not end with a worse max load
     than it started with *)
  let g = Gen.harary ~k:8 ~n:40 in
  let r = Lagrangian.run g ~lambda:8 in
  match r.Lagrangian.trace.Lagrangian.max_z_history with
  | [] -> Alcotest.fail "no history"
  | first :: _ as hist ->
    let last = List.nth hist (List.length hist - 1) in
    Alcotest.(check bool)
      (Printf.sprintf "max z improved: %.2f -> %.2f" first last)
      true (last <= first +. 1e-9)

let prop_lagrangian_always_feasible =
  QCheck.Test.make ~name:"lagrangian output is always a feasible packing"
    ~count:10
    QCheck.(pair (int_range 2 6) (int_range 12 32))
    (fun (lambda, n) ->
      QCheck.assume (lambda < n);
      let g = Gen.harary ~k:lambda ~n in
      let r = Lagrangian.run ~max_iterations:60 g ~lambda in
      Spacking.is_valid ~tolerance:1e-6 r.Lagrangian.packing)

(* failure injection on the spanning-tree verifier *)
let prop_spacking_catches_mutations =
  QCheck.Test.make
    ~name:"spanning verifier rejects edge-drop and overload mutations"
    ~count:15
    QCheck.(pair bool small_int)
    (fun (drop_edge, seed) ->
      let g = Gen.harary ~k:6 ~n:30 in
      let r = Lagrangian.run ~max_iterations:40 g ~lambda:6 in
      let p = r.Lagrangian.packing in
      ignore seed;
      match p.Spacking.trees with
      | [] -> true
      | tr :: rest ->
        if drop_edge then begin
          let es = tr.Spacking.edges in
          if Array.length es = 0 then true
          else
            let es = Array.sub es 1 (Array.length es - 1) in
            let bad =
              { p with Spacking.trees = { tr with Spacking.edges = es } :: rest }
            in
            not (Spacking.is_valid ~tolerance:1e-6 bad)
        end
        else begin
          (* double one tree's weight so some edge overloads *)
          let bad =
            { p with
              Spacking.trees =
                { tr with Spacking.weight = tr.Spacking.weight +. 1.01 }
                :: rest }
          in
          not (Spacking.is_valid ~tolerance:1e-6 bad)
        end)

(* ------------------------------------------------------------------ *)
(* Sampling (§5.2) *)

let test_sampling_small_lambda_degenerates () =
  let g = Gen.harary ~k:4 ~n:32 in
  let r = Sampling_pack.run g ~lambda:4 in
  Alcotest.(check int) "eta = 1" 1 r.Sampling_pack.eta;
  Alcotest.(check bool) "feasible" true
    (Spacking.is_valid ~tolerance:1e-6 r.Sampling_pack.packing)

let test_sampling_splits_large_lambda () =
  (* a graph with large edge connectivity: clique K24, lambda = 23.
     The sampling threshold is 20 ln n / eps^2, so a large eps is what
     pushes eta above 1 at this scale. *)
  let g = Gen.clique 24 in
  let r = Sampling_pack.run ~eps:3.0 g ~lambda:23 in
  Alcotest.(check bool) "eta > 1" true (r.Sampling_pack.eta > 1);
  Alcotest.(check bool) "feasible union" true
    (Spacking.is_valid ~tolerance:1e-6 r.Sampling_pack.packing);
  Alcotest.(check bool) "size grows with lambda" true
    (Spacking.size r.Sampling_pack.packing >= 2.)

let test_run_auto () =
  let g = Gen.harary ~k:6 ~n:30 in
  let r = Sampling_pack.run_auto g in
  Alcotest.(check bool) "auto feasible" true
    (Spacking.is_valid ~tolerance:1e-6 r.Sampling_pack.packing)

(* ------------------------------------------------------------------ *)
(* Integral peeling *)

let test_peel_achieves_target () =
  List.iter
    (fun lambda ->
      let g = Gen.harary ~k:lambda ~n:48 in
      let trees = Integral.peel g in
      let target = Lagrangian.target ~lambda in
      Alcotest.(check bool)
        (Printf.sprintf "peel count %d >= %d/2 (lambda=%d)"
           (List.length trees) target lambda)
        true
        (2 * List.length trees >= target);
      Alcotest.(check bool) "edge-disjoint and spanning" true
        (Spacking.is_valid (Integral.to_packing g trees)))
    [ 2; 4; 8; 16 ]

let test_peel_disconnected () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.(check int) "no trees" 0 (List.length (Integral.peel g))

let test_peel_trivial () =
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "no trees on %d vertices" n)
        0
        (List.length (Integral.peel (Graph.of_edges ~n []))))
    [ 0; 1 ]

let prop_peel_edge_disjoint =
  QCheck.Test.make ~name:"peeled trees are always edge-disjoint spanning trees"
    ~count:15
    QCheck.(pair (int_range 2 6) (int_range 10 30))
    (fun (lambda, n) ->
      QCheck.assume (lambda < n);
      let g = Gen.harary ~k:lambda ~n in
      let trees = Integral.peel g in
      trees <> [] && Spacking.is_valid (Integral.to_packing g trees))

(* ------------------------------------------------------------------ *)
(* Distributed packing *)

let test_dist_packing_feasible () =
  let g = Gen.harary ~k:6 ~n:36 in
  let net = enet g in
  let r = Dist_packing.run ~max_iterations:60 net ~lambda:6 in
  Alcotest.(check bool) "feasible" true
    (Spacking.is_valid ~tolerance:1e-6 r.Dist_packing.packing);
  Alcotest.(check bool) "decent size" true
    (Spacking.size r.Dist_packing.packing
    >= 0.5 *. float_of_int (Lagrangian.target ~lambda:6));
  Alcotest.(check bool) "rounds measured" true (r.Dist_packing.measured_rounds > 0);
  Alcotest.(check bool) "parallel <= measured" true
    (r.Dist_packing.parallel_rounds <= r.Dist_packing.measured_rounds)

let test_dist_packing_works_in_vcongest_rejected () =
  (* spanning-tree packing needs E-CONGEST for the broadcast app, but the
     algorithm itself only broadcasts, so it must also run under
     V-CONGEST (V-CONGEST is a restriction; Dist_mst uses broadcasts) *)
  let g = Gen.harary ~k:4 ~n:24 in
  let net = Congest.Net.create Congest.Model.V_congest g in
  let r = Dist_packing.run ~max_iterations:30 net ~lambda:4 in
  Alcotest.(check bool) "also runs in V-CONGEST" true
    (Spacking.is_valid ~tolerance:1e-6 r.Dist_packing.packing)

(* ------------------------------------------------------------------ *)
(* Central = distributed: one §5.1 part loop and one §5.2 partition *)

(* Everything a packing decides, bit for bit: each tree's edges and the
   bits of its weight, in order. *)
let trees_bits (p : Spacking.t) =
  List.map
    (fun tr -> (tr.Spacking.edges, Int64.bits_of_float tr.Spacking.weight))
    p.Spacking.trees

let floats_bits = List.map Int64.bits_of_float

(* A harary graph (family 0) or a random λ-edge-connected one. *)
let spantree_instance ~seed ~family ~max_lambda =
  let rng = Random.State.make [| seed; family; 0x53 |] in
  let lambda = 2 + Random.State.int rng (max_lambda - 1) in
  let n = lambda + 2 + Random.State.int rng 24 in
  let g =
    if family = 0 then Gen.harary ~k:lambda ~n
    else Gen.random_lambda_edge_connected rng ~n ~lambda ~extra:(n / 4)
  in
  (g, lambda)

let prop_lagrangian_equals_dist =
  QCheck.Test.make ~name:"Lagrangian.run = Dist_packing.run" ~count:20
    QCheck.(triple small_int (int_range 0 1) (int_range 0 40))
    (fun (seed, family, cap) ->
      let g, lambda = spantree_instance ~seed ~family ~max_lambda:8 in
      let max_iterations = if cap = 0 then None else Some cap in
      let c = Lagrangian.run ?max_iterations g ~lambda in
      let d = Dist_packing.run ?max_iterations (enet g) ~lambda in
      trees_bits c.Lagrangian.packing = trees_bits d.Dist_packing.packing
      && c.Lagrangian.trace.Lagrangian.iterations = d.Dist_packing.iterations
      && floats_bits c.Lagrangian.trace.Lagrangian.cost_ratios
         = floats_bits d.Dist_packing.cost_ratios)

let sampled_equal ~seed ~eps g ~lambda =
  let c = Sampling_pack.run ~seed ~eps g ~lambda in
  let d = Dist_packing.run_sampled ~seed ~eps (enet g) ~lambda in
  trees_bits c.Sampling_pack.packing = trees_bits d.Dist_packing.packing
  && c.Sampling_pack.eta = d.Dist_packing.eta

(* η = 1 at the default ε; at ε = 3.0 the sampling threshold is low
   enough for η >= 2, and tripling the λ estimate drives η up further,
   until some parts no longer span. *)
let prop_sampling_equals_dist =
  QCheck.Test.make ~name:"Sampling_pack.run = Dist_packing.run_sampled"
    ~count:12
    QCheck.(quad small_int (int_range 0 1) bool bool)
    (fun (seed, family, sampled, over) ->
      let g, lambda = spantree_instance ~seed ~family ~max_lambda:16 in
      let eps = if sampled then 3.0 else 0.15 in
      let lambda = if over then 3 * lambda else lambda in
      sampled_equal ~seed ~eps g ~lambda)

let test_sampling_disconnected_part () =
  let g = Gen.harary ~k:6 ~n:24 in
  let r = Sampling_pack.run ~seed:1 ~eps:3.0 g ~lambda:24 in
  Alcotest.(check (pair int int)) "eta, parts that span" (3, 1)
    (r.Sampling_pack.eta, r.Sampling_pack.parts_used);
  Alcotest.(check bool) "central = distributed" true
    (sampled_equal ~seed:1 ~eps:3.0 g ~lambda:24)

(* ------------------------------------------------------------------ *)
(* Distributed edge-connectivity estimation *)

let test_dist_ec_approx_regular () =
  (* min degree = lambda here: first guess accepted *)
  let g = Gen.harary ~k:8 ~n:64 in
  let net = Congest.Net.create Congest.Model.V_congest g in
  let r = Dist_ec_approx.run net in
  Alcotest.(check bool) "constant-factor estimate" true
    (r.Dist_ec_approx.estimate >= 2 && r.Dist_ec_approx.estimate <= 16);
  Alcotest.(check bool) "rounds counted" true (r.Dist_ec_approx.rounds > 0)

let test_dist_ec_approx_bottleneck () =
  (* min degree 15 but lambda = 2: the doubling search must descend *)
  let g = Gen.two_cliques_bridged ~size:16 ~bridges:2 in
  let net = Congest.Net.create Congest.Model.V_congest g in
  let r = Dist_ec_approx.run ~seed:7 net in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %d within constant factor of 2"
       r.Dist_ec_approx.estimate)
    true
    (r.Dist_ec_approx.estimate >= 1 && r.Dist_ec_approx.estimate <= 8);
  Alcotest.(check bool) "descended through guesses" true
    (r.Dist_ec_approx.guesses_tried >= 2)

let prop_dist_ec_constant_factor =
  QCheck.Test.make
    ~name:"distributed lambda estimate within constant factor" ~count:10
    QCheck.(int_range 2 6)
    (fun lambda ->
      let g = Gen.harary ~k:lambda ~n:48 in
      let net = Congest.Net.create Congest.Model.V_congest g in
      let r = Dist_ec_approx.run ~seed:lambda net in
      let ratio =
        float_of_int r.Dist_ec_approx.estimate /. float_of_int lambda
      in
      ratio >= 0.2 && ratio <= 5.0)

(* ------------------------------------------------------------------ *)
(* Edge-connectivity estimate *)

let test_ec_approx () =
  List.iter
    (fun lambda ->
      let g = Gen.harary ~k:lambda ~n:48 in
      let r = Ec_approx.centralized g in
      Alcotest.(check int) "truth exact" lambda r.Ec_approx.truth;
      let ratio =
        float_of_int r.Ec_approx.estimate /. float_of_int lambda
      in
      Alcotest.(check bool)
        (Printf.sprintf "estimate %d within [1/4, 2] of %d"
           r.Ec_approx.estimate lambda)
        true
        (ratio >= 0.25 && ratio <= 2.))
    [ 4; 8; 12 ]

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "spantree"
    [
      ( "spacking",
        [
          Alcotest.test_case "size and load" `Quick test_spacking_size_and_load;
          Alcotest.test_case "rejects" `Quick test_spacking_rejects;
          Alcotest.test_case "normalize" `Quick test_normalize;
        ] );
      ( "lagrangian",
        [
          Alcotest.test_case "feasible and sized" `Quick
            test_lagrangian_feasible_and_sized;
          Alcotest.test_case "trivial lambda" `Quick test_lagrangian_trivial_lambda;
          Alcotest.test_case "stop certificate (F.1)" `Quick
            test_lagrangian_stop_certificate;
          Alcotest.test_case "iteration cap" `Quick test_lagrangian_iteration_cap;
          Alcotest.test_case "collection invariant" `Quick
            test_lagrangian_collection_invariant;
          Alcotest.test_case "max z improves" `Quick test_lagrangian_z_improves;
        ] );
      qsuite "lagrangian.props" [ prop_lagrangian_always_feasible ];
      qsuite "spacking.fuzz" [ prop_spacking_catches_mutations ];
      ( "sampling",
        [
          Alcotest.test_case "degenerate" `Quick
            test_sampling_small_lambda_degenerates;
          Alcotest.test_case "splits" `Quick test_sampling_splits_large_lambda;
          Alcotest.test_case "auto" `Quick test_run_auto;
        ] );
      ( "integral",
        [
          Alcotest.test_case "achieves target" `Quick test_peel_achieves_target;
          Alcotest.test_case "disconnected" `Quick test_peel_disconnected;
          Alcotest.test_case "under two vertices" `Quick test_peel_trivial;
        ] );
      qsuite "integral.props" [ prop_peel_edge_disjoint ];
      ( "dist_packing",
        [
          Alcotest.test_case "feasible" `Quick test_dist_packing_feasible;
          Alcotest.test_case "V-CONGEST compatible" `Quick
            test_dist_packing_works_in_vcongest_rejected;
        ] );
      ( "dist_sampled",
        [
          Alcotest.test_case "eta > 1 parts pack in parallel" `Quick (fun () ->
              let g = Gen.clique 20 in
              let net = Congest.Net.create Congest.Model.E_congest g in
              let r = Dist_packing.run_sampled ~eps:3.0 net ~lambda:19 in
              Alcotest.(check bool) "eta > 1" true (r.Dist_packing.eta > 1);
              Alcotest.(check bool) "feasible" true
                (Spacking.is_valid ~tolerance:1e-6 r.Dist_packing.packing);
              Alcotest.(check bool) "pipelined <= sequential" true
                (r.Dist_packing.parallel_rounds <= r.Dist_packing.measured_rounds));
        ] );
      ( "dist_integral",
        [
          Alcotest.test_case "edge-disjoint trees" `Quick (fun () ->
              let g = Gen.harary ~k:8 ~n:40 in
              let net = Congest.Net.create Congest.Model.E_congest g in
              let r = Dist_integral.run ~eps:3.0 net ~lambda:8 in
              Alcotest.(check bool) "at least one tree" true
                (r.Dist_integral.parts_connected >= 1);
              Alcotest.(check bool) "valid edge-disjoint packing" true
                (Spacking.is_valid
                   (Integral.to_packing g r.Dist_integral.trees));
              Alcotest.(check bool) "rounds counted" true
                (r.Dist_integral.rounds > 0));
        ] );
      ( "dist_run_auto",
        [
          Alcotest.test_case "end to end" `Quick (fun () ->
              let g = Gen.harary ~k:4 ~n:24 in
              let net = Congest.Net.create Congest.Model.E_congest g in
              let r = Dist_packing.run_auto net in
              Alcotest.(check bool) "feasible" true
                (Spacking.is_valid ~tolerance:1e-6 r.Dist_packing.packing);
              Alcotest.(check bool) "nonempty" true
                (Spacking.size r.Dist_packing.packing > 0.5));
        ] );
      qsuite "central=dist.props"
        [ prop_lagrangian_equals_dist; prop_sampling_equals_dist ];
      ( "central=dist",
        [
          Alcotest.test_case "a Karger part that does not span" `Quick
            test_sampling_disconnected_part;
        ] );
      ( "dist_ec_approx",
        [
          Alcotest.test_case "regular" `Quick test_dist_ec_approx_regular;
          Alcotest.test_case "bottleneck" `Quick test_dist_ec_approx_bottleneck;
        ] );
      qsuite "dist_ec_approx.props" [ prop_dist_ec_constant_factor ];
      ( "ec_approx",
        [ Alcotest.test_case "families" `Quick test_ec_approx ] );
    ]
