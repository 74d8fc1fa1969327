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

(* One part: Lagrangian's §5.1 loop over the marked subgraph, each MST
   solved on the runtime under z rounded to multiples of 1/n, sent as
   integers (footnote 6). Returns the part's normalized trees, the
   per-iteration round costs (for the Lemma 5.1 pipelining account) and
   the stop-rule ratios. The continuation decision is the leader's: we
   charge one convergecast and one broadcast over the BFS tree per
   iteration. *)
let run_part net tree0 ~eps ~max_iterations (edge_in, lambda) =
  let g = Net.graph net in
  let n = Graph.n g in
  let coordination = (2 * tree0.Congest.Primitives.height) + 2 in
  let per_iteration_rounds = ref [] in
  let cp = ref (Net.checkpoint net) in
  let sub =
    Congest.Components.marks net ~active:(fun _ -> true) ~edge_active:edge_in
  in
  let kernel = Congest.Dist_mst.kernel net in
  let int_z = Array.make (Graph.m g) 1 in
  let solve_mst () =
    let ids = Congest.Dist_mst.forest_ids kernel sub ~weights:int_z in
    per_iteration_rounds :=
      (Net.rounds_since net !cp + coordination) :: !per_iteration_rounds;
    Net.silent_rounds net coordination;
    cp := Net.checkpoint net;
    ids
  in
  (* initial tree: distributed MST with unit weights on the subgraph *)
  let initial = solve_mst () in
  let trees, ratios =
    if Array.length initial <> n - 1 then (* disconnected subgraph *) ([], [])
    else begin
      let scale = float_of_int n in
      let mst ~z ~cost:_ =
        for i = 0 to Array.length z - 1 do
          int_z.(i) <- int_of_float (Float.round (z.(i) *. scale))
        done;
        solve_mst ()
      in
      let collection, trace =
        Lagrangian.iterate g ~lambda ~eps ~max_iterations ~mst initial
      in
      (* scale by the part's own target and normalize within the part
         (parts are edge-disjoint) *)
      let scaled =
        Spacking.scale collection (float_of_int (Lagrangian.target ~lambda))
      in
      ( (Spacking.normalize_to_unit_load scaled).Spacking.trees,
        trace.Lagrangian.cost_ratios )
    end
  in
  (trees, List.rev !per_iteration_rounds, ratios)

(* Packs each (edge set, λ) part in turn over one shared BFS tree. *)
let run_parts net ~eps ~max_iterations ~eta parts =
  let g = Net.graph net in
  let tree0 = Congest.Primitives.bfs_tree net ~root:0 in
  let start = Net.checkpoint net in
  let results = List.map (run_part net tree0 ~eps ~max_iterations) parts in
  let all_rounds = List.map (fun (_, rounds, _) -> rounds) results in
  (* pipelined estimate: iterate in lockstep, paying the max over parts *)
  let rec lockstep lists acc =
    let heads = List.filter_map (function [] -> None | h :: _ -> Some h) lists in
    if heads = [] then acc
    else
      lockstep
        (List.map (function [] -> [] | _ :: t -> t) lists)
        (acc + List.fold_left max 0 heads)
  in
  {
    packing =
      {
        Spacking.graph = g;
        trees = List.concat_map (fun (trees, _, _) -> trees) results;
      };
    iterations =
      List.fold_left (fun acc rs -> acc + List.length rs) 0 all_rounds;
    measured_rounds = Net.rounds_since net start;
    parallel_rounds = lockstep all_rounds 0;
    eta;
    cost_ratios = List.concat_map (fun (_, _, ratios) -> ratios) results;
  }

let run ?(eps = 0.15) ?max_iterations net ~lambda =
  let max_iterations =
    match max_iterations with
    | Some i -> i
    | None -> Lagrangian.default_iterations ~n:(Graph.n (Net.graph net))
  in
  run_parts net ~eps ~max_iterations ~eta:1 [ ((fun _ _ -> true), lambda) ]

let run_sampled ?(seed = 42) ?(eps = 0.15) net ~lambda =
  let g = Net.graph net in
  let n = Graph.n g in
  let eta = Graphs.Sampling.suggested_eta ~lambda ~n ~eps in
  if eta <= 1 then run ~eps net ~lambda
  else begin
    let rng = Random.State.make [| seed; n; lambda; 9 |] in
    let parts =
      Graphs.Sampling.edge_partition rng g ~eta
      |> Array.to_list
      |> List.map (fun part ->
             let lam_part =
               if Graphs.Traversal.is_connected part then
                 max 1 (Graphs.Connectivity.edge_connectivity part)
               else 1
             in
             (Graph.mem_edge part, lam_part))
    in
    run_parts net ~eps ~max_iterations:(Lagrangian.default_iterations ~n) ~eta
      parts
  end

let run_auto ?(seed = 42) ?eps net =
  let lambda = (Dist_ec_approx.run ~seed net).Dist_ec_approx.estimate in
  run_sampled ~seed ?eps net ~lambda
