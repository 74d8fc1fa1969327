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

(* The distributed account of [Lagrangian.run_on]'s parts. Every round
   after the shared BFS tree is some part's MST solve or its
   coordination, so the parts' solve rounds sum to the rounds measured. *)
let of_parts net ~eta parts =
  let rounds = List.map (fun p -> p.Lagrangian.rounds) parts in
  let traces =
    List.filter_map
      (fun p -> Option.map (fun r -> r.Lagrangian.trace) p.Lagrangian.packed)
      parts
  in
  (* pipelined estimate: iterate in lockstep, paying the max over parts *)
  let rec lockstep lists acc =
    let heads = List.filter_map (function [] -> None | h :: _ -> Some h) lists in
    if heads = [] then acc
    else
      lockstep
        (List.map (function [] -> [] | _ :: t -> t) lists)
        (acc + List.fold_left max 0 heads)
  in
  let sum = List.fold_left ( + ) 0 in
  {
    packing = Lagrangian.union (Net.graph net) parts;
    iterations = sum (List.map (fun t -> t.Lagrangian.iterations) traces);
    measured_rounds = sum (List.map sum rounds);
    parallel_rounds = lockstep rounds 0;
    eta;
    cost_ratios = List.concat_map (fun t -> t.Lagrangian.cost_ratios) traces;
  }

let run ?(eps = 0.15) ?max_iterations net ~lambda =
  let g = Net.graph net in
  let max_iterations =
    Option.value max_iterations
      ~default:(Lagrangian.default_iterations ~n:(Graph.n g))
  in
  Lagrangian.run_on (Distributed net) ~eps ~max_iterations
    [ (Array.make (Graph.m g) true, lambda) ]
  |> of_parts net ~eta:1

let run_sampled ?(seed = 42) ?(eps = 0.15) net ~lambda =
  let eta, parts = Sampling_pack.run_on (Distributed net) ~seed ~eps ~lambda in
  of_parts net ~eta parts

let run_auto ?(seed = 42) ?eps net =
  let lambda = (Dist_ec_approx.run ~seed net).Dist_ec_approx.estimate in
  run_sampled ~seed ?eps net ~lambda
