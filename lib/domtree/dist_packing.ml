module Graph = Graphs.Graph
module Net = Congest.Net

let run ?(seed = 42) ?jumpstart net ~classes ~layers =
  let jumpstart = Option.value jumpstart ~default:(layers / 2) in
  Cds_packing.run_on (Comm.Distributed net) ~seed ~jumpstart ~classes ~layers

let extract_trees net (result : Cds_packing.t) =
  let g = Net.graph net in
  let n = Graph.n g in
  let valid = Cds_packing.valid_classes result in
  let member = Array.make_matrix result.Cds_packing.classes n false in
  Array.iteri
    (fun i ms -> Array.iter (fun r -> member.(i).(r) <- true) ms)
    result.Cds_packing.members;
  (* one kernel and one marked subgraph, refilled per class *)
  let kernel = Congest.Dist_mst.kernel net in
  let eu, ev = Graph.csr_endpoints g in
  let weights = Array.make (Graph.m g) 0 in
  let sub =
    {
      Congest.Components.nodes = Array.make n false;
      edges = Array.make (Graph.m g) false;
    }
  in
  let trees =
    List.map
      (fun cls ->
        let active = member.(cls) in
        Array.blit active 0 sub.nodes 0 n;
        Array.iteri
          (fun e _ -> sub.edges.(e) <- active.(eu.(e)) && active.(ev.(e)))
          sub.edges;
        {
          Packing.cls;
          vertices = result.Cds_packing.members.(cls);
          edges = Congest.Dist_mst.forest_ids kernel sub ~weights;
        })
      valid
  in
  Packing.uniform g trees

let pack ?seed net ~k =
  let n = Net.n net in
  run ?seed net
    ~classes:(Cds_packing.default_classes ~k)
    ~layers:(Cds_packing.default_layers ~n)
