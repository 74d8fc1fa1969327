module Graph = Graphs.Graph
module Net = Congest.Net

type result = {
  trees : int array list;
  eta : int;
  rounds : int;
  parts_connected : int;
}

let run ?(seed = 42) ?(eps = 0.3) net ~lambda =
  let g = Net.graph net in
  let n = Graph.n g and m = Graph.m g in
  let eta = max 1 (Graphs.Sampling.suggested_eta ~lambda ~n ~eps) in
  let rng = Random.State.make [| seed; n; lambda; 31 |] in
  let _, part_of = Graphs.Sampling.edge_partition rng g ~eta in
  let start = Net.checkpoint net in
  (* one kernel and one marked subgraph, refilled per part *)
  let kernel = Congest.Dist_mst.kernel net in
  let weights = Array.make m 1 in
  let sub =
    { Congest.Components.nodes = Array.make n true; edges = Array.make m false }
  in
  let trees = ref [] in
  let parts_connected = ref 0 in
  for part = 0 to eta - 1 do
    Array.iteri (fun e p -> sub.edges.(e) <- p = part) part_of;
    let forest = Congest.Dist_mst.forest_ids kernel sub ~weights in
    if Array.length forest = n - 1 then begin
      incr parts_connected;
      trees := forest :: !trees
    end
  done;
  {
    trees = List.rev !trees;
    eta;
    rounds = Net.rounds_since net start;
    parts_connected = !parts_connected;
  }
