module Graph = Graphs.Graph
module Net = Congest.Net

type result = {
  packing : Spacking.t;
  iterations : int;
  measured_rounds : int;
  parallel_rounds : int;
  eta : int;
  cost_ratios : float list;
}

(* One §5.1 loop over the marked subgraph. Returns the weighted trees,
   the per-iteration round costs (for the Lemma 5.1 pipelining account)
   and the per-iteration stop-rule ratios. The continuation decision is
   the leader's: we charge one convergecast and one broadcast over the
   BFS tree per iteration. Each MST is kept as its edge ids; the trees'
   weights decay in place, [weights.(i)] being the i-th tree's. *)
let run_single ?(mst = `Flooding) net tree0 ~edge_in ~lambda ~eps
    ~max_iterations =
  let g = Net.graph net in
  let n = Graph.n g in
  let m = Graph.m g in
  let eu, ev = Graph.csr_endpoints g in
  let tgt = float_of_int (Lagrangian.target ~lambda) in
  let alpha = Float.max 2. (log (float_of_int (max 2 n))) in
  let beta = 1. /. (alpha *. Float.max 2. (log (float_of_int (max 2 n)))) in
  let coordination = (2 * tree0.Congest.Primitives.height) + 2 in
  let loads = Array.make m 0. in
  let trees = ref [] and count = ref 0 in
  let weights = ref [||] in
  let add_tree ids weight =
    let ws = !weights in
    for i = 0 to !count - 1 do
      ws.(i) <- ws.(i) *. (1. -. weight)
    done;
    if !count = Array.length ws then begin
      let grown = Array.make (max 16 (2 * !count)) 0. in
      Array.blit ws 0 grown 0 !count;
      weights := grown
    end;
    !weights.(!count) <- weight;
    incr count;
    for i = 0 to m - 1 do
      loads.(i) <- loads.(i) *. (1. -. weight)
    done;
    Array.iter (fun e -> loads.(e) <- loads.(e) +. weight) ids;
    trees := ids :: !trees
  in
  (* initial tree: distributed MST with unit weights on the subgraph *)
  let per_iteration_rounds = ref [] and ratios = ref [] in
  let cp = ref (Net.checkpoint net) in
  let note_iteration () =
    per_iteration_rounds :=
      (Net.rounds_since net !cp + coordination) :: !per_iteration_rounds;
    Net.silent_rounds net coordination;
    cp := Net.checkpoint net
  in
  let sub =
    Congest.Components.marks net ~active:(fun _ -> true) ~edge_active:edge_in
  in
  let kernel = Congest.Dist_mst.kernel net in
  let solve_mst int_w =
    match mst with
    | `Flooding -> Congest.Dist_mst.forest_ids kernel sub ~weights:int_w
    | `Pipelined ->
      (* the Kutten-Peleg variant works on the full graph; restrict by
         pricing excluded edges out of every tree *)
      let big = Congest.Model.max_word ~n / 2 in
      let w u v =
        let e = Graph.edge_index g u v in
        if sub.edges.(e) then int_w.(e) else big
      in
      Congest.Dist_mst.minimum_spanning_forest_hybrid net ~weight:w
      |> List.filter_map (fun (u, v) ->
             let e = Graph.edge_index g u v in
             if sub.edges.(e) then Some e else None)
      |> Array.of_list
  in
  let int_z = Array.make m 1 in
  let initial = solve_mst int_z in
  note_iteration ();
  let result () =
    (* the trees share one (u, v) pair per edge *)
    let pairs = Array.init m (fun e -> (eu.(e), ev.(e))) in
    let ws = !weights in
    let wtrees = ref [] and i = ref !count in
    List.iter
      (fun ids ->
        decr i;
        let edges = Array.fold_right (fun e acc -> pairs.(e) :: acc) ids [] in
        wtrees := { Spacking.edges; weight = ws.(!i) } :: !wtrees)
      !trees;
    (!wtrees, List.rev !per_iteration_rounds, List.rev !ratios)
  in
  if Array.length initial <> n - 1 then (* disconnected subgraph: no packing *)
    result ()
  else begin
    add_tree initial 1.;
    let z_of i = loads.(i) *. tgt in
    let stopped = ref false in
    let iterations = ref 0 in
    while (not !stopped) && !iterations < max_iterations do
      incr iterations;
      (* z rounded to multiples of 1/n, sent as integers (footnote 6) *)
      let zmax =
        let best = ref 0. in
        for i = 0 to m - 1 do
          if z_of i > !best then best := z_of i
        done;
        !best
      in
      for i = 0 to m - 1 do
        int_z.(i) <- int_of_float (Float.round (z_of i *. float_of_int n))
      done;
      let mst = solve_mst int_z in
      (* leader decision (convergecast + broadcast, charged above) *)
      let cost i = exp (alpha *. (z_of i -. zmax)) in
      let mst_cost = Array.fold_left (fun acc e -> acc +. cost e) 0. mst in
      let sum_cx =
        let acc = ref 0. in
        for i = 0 to m - 1 do
          acc := !acc +. (cost i *. loads.(i))
        done;
        !acc
      in
      note_iteration ();
      ratios := (mst_cost /. sum_cx) :: !ratios;
      if mst_cost > (1. -. eps) *. sum_cx then stopped := true
      else add_tree mst beta
    done;
    result ()
  end

let finish g parts_results eta =
  let all_rounds = List.map (fun (_, rounds, _) -> rounds) parts_results in
  let all_trees = List.concat_map (fun (trees, _, _) -> trees) parts_results in
  let cost_ratios =
    List.concat_map (fun (_, _, ratios) -> ratios) parts_results
  in
  let iterations =
    List.fold_left (fun acc rs -> acc + List.length rs) 0 all_rounds
  in
  (* pipelined estimate: iterate in lockstep, paying the max over parts *)
  let parallel_rounds =
    let rec lockstep lists acc =
      let heads = List.filter_map (function [] -> None | h :: _ -> Some h) lists in
      if heads = [] then acc
      else
        lockstep
          (List.map (function [] -> [] | _ :: t -> t) lists)
          (acc + List.fold_left max 0 heads)
    in
    lockstep all_rounds 0
  in
  (all_trees, iterations, parallel_rounds, eta, g, cost_ratios)

let run ?(eps = 0.15) ?max_iterations ?mst net ~lambda =
  let g = Net.graph net in
  let max_iterations =
    match max_iterations with
    | Some i -> i
    | None -> Lagrangian.default_iterations ~n:(Graph.n g)
  in
  let tree0 = Congest.Primitives.bfs_tree net ~root:0 in
  let start = Net.checkpoint net in
  let r =
    run_single ?mst net tree0 ~edge_in:(fun _ _ -> true) ~lambda ~eps
      ~max_iterations
  in
  let all_trees, iterations, parallel_rounds, eta, g, cost_ratios = finish g [ r ] 1 in
  let collection = { Spacking.graph = g; trees = all_trees } in
  let scaled = Spacking.scale collection (float_of_int (Lagrangian.target ~lambda)) in
  {
    packing = Spacking.normalize_to_unit_load scaled;
    iterations;
    measured_rounds = Net.rounds_since net start;
    parallel_rounds;
    eta;
    cost_ratios;
  }

let run_sampled ?(seed = 42) ?(eps = 0.15) net ~lambda =
  let g = Net.graph net in
  let n = Graph.n g in
  let eta = Graphs.Sampling.suggested_eta ~lambda ~n ~eps in
  if eta <= 1 then run ~eps net ~lambda
  else begin
    let rng = Random.State.make [| seed; n; lambda; 9 |] in
    let parts = Graphs.Sampling.edge_partition rng g ~eta in
    let tree0 = Congest.Primitives.bfs_tree net ~root:0 in
    let start = Net.checkpoint net in
    let max_iterations = Lagrangian.default_iterations ~n in
    let results =
      Array.to_list parts
      |> List.map (fun part ->
             let edge_in u v = Graph.mem_edge part u v in
             let lam_part =
               if Graphs.Traversal.is_connected part then
                 max 1 (Graphs.Connectivity.edge_connectivity part)
               else 1
             in
             let trees, rounds, ratios =
               run_single net tree0 ~edge_in ~lambda:lam_part ~eps
                 ~max_iterations
             in
             (* scale each part's collection by its own target and
                normalize within the part (parts are edge-disjoint) *)
             let collection = { Spacking.graph = g; trees } in
             let scaled =
               Spacking.scale collection
                 (float_of_int (Lagrangian.target ~lambda:lam_part))
             in
             let normalized = Spacking.normalize_to_unit_load scaled in
             (normalized.Spacking.trees, rounds, ratios))
    in
    let all_trees, iterations, parallel_rounds, eta, g, cost_ratios = finish g results eta in
    {
      packing = { Spacking.graph = g; trees = all_trees };
      iterations;
      measured_rounds = Net.rounds_since net start;
      parallel_rounds;
      eta;
      cost_ratios;
    }
  end

let run_auto ?(seed = 42) ?eps net =
  let lambda = (Dist_ec_approx.run ~seed net).Dist_ec_approx.estimate in
  run_sampled ~seed ?eps net ~lambda
