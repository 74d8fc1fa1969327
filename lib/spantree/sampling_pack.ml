module Graph = Graphs.Graph

type result = {
  packing : Spacking.t;
  eta : int;
  part_lambdas : int list;
  parts_used : int;
}

let run_on side ~seed ~eps ~lambda =
  let g = Lagrangian.graph side in
  let n = Graph.n g and m = Graph.m g in
  let eta = Graphs.Sampling.suggested_eta ~lambda ~n ~eps in
  let parts =
    if eta <= 1 then [ (Array.make m true, lambda) ]
    else begin
      let rng = Random.State.make [| seed; n; lambda; 9 |] in
      let parts, part_of = Graphs.Sampling.edge_partition rng g ~eta in
      Array.to_list parts
      |> List.mapi (fun i part ->
             let lam_part =
               if Graphs.Traversal.is_connected part then
                 max 1 (Graphs.Connectivity.edge_connectivity part)
               else 1
             in
             (Array.map (Int.equal i) part_of, lam_part))
    end
  in
  ( eta,
    Lagrangian.run_on side ~eps
      ~max_iterations:(Lagrangian.default_iterations ~n)
      parts )

let run ?(seed = 42) ?(eps = 0.15) g ~lambda =
  if not (Graphs.Traversal.is_connected g) then
    invalid_arg "Sampling_pack.run: disconnected graph";
  let eta, parts = run_on (Central g) ~seed ~eps ~lambda in
  let spans p = Option.is_some p.Lagrangian.packed in
  {
    packing = Lagrangian.union g parts;
    eta;
    part_lambdas =
      List.map (fun p -> if spans p then p.Lagrangian.lambda else 0) parts;
    parts_used = List.length (List.filter spans parts);
  }

let run_auto ?seed ?eps g =
  let lambda = Graphs.Connectivity.edge_connectivity g in
  run ?seed ?eps g ~lambda:(max 1 lambda)
