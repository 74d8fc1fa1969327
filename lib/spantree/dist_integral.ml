module Graph = Graphs.Graph
module Net = Congest.Net

type result = {
  trees : (int * int) list list;
  eta : int;
  rounds : int;
  parts_connected : int;
}

let run ?(seed = 42) ?(eps = 0.3) net ~lambda =
  let g = Net.graph net in
  let n = Graph.n g in
  let eta = max 1 (Graphs.Sampling.suggested_eta ~lambda ~n ~eps) in
  let rng = Random.State.make [| seed; n; lambda; 31 |] in
  let parts, _ = Graphs.Sampling.edge_partition rng g ~eta in
  let start = Net.checkpoint net in
  let trees = ref [] in
  let parts_connected = ref 0 in
  Array.iter
    (fun part ->
      let edge_in u v = Graph.mem_edge part u v in
      let forest =
        Congest.Dist_mst.minimum_spanning_forest_on net
          ~active:(fun _ -> true)
          ~edge_active:edge_in
          ~weight:(fun _ _ -> 1)
      in
      if List.length forest = n - 1 then begin
        incr parts_connected;
        trees := forest :: !trees
      end)
    parts;
  {
    trees = List.rev !trees;
    eta;
    rounds = Net.rounds_since net start;
    parts_connected = !parts_connected;
  }
