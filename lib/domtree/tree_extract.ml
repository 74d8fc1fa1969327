module Graph = Graphs.Graph

let spanning_tree_of_members g members =
  let in_set = Array.make (Graph.n g) false in
  Array.iter (fun v -> in_set.(v) <- true) members;
  let member v = in_set.(v) in
  let dist = Graphs.Traversal.distances_within g member members.(0) in
  let edges = ref [] in
  Array.iter
    (fun v ->
      if v <> members.(0) then begin
        (* the edge to the first closer member neighbor *)
        let parent = ref (-1) in
        Graph.iter_incident g v (fun u e ->
            if !parent < 0 && member u && dist.(u) = dist.(v) - 1 then
              parent := e);
        if !parent >= 0 then edges := !parent :: !edges
      end)
    members;
  let ids = Array.of_list !edges in
  Array.sort Int.compare ids;
  ids

let of_cds_packing (result : Cds_packing.t) =
  let g = Virtual_graph.base result.Cds_packing.vg in
  let valid = Cds_packing.valid_classes result in
  let trees =
    List.map
      (fun cls ->
        let members = result.Cds_packing.members.(cls) in
        {
          Packing.cls;
          vertices = members;
          edges = spanning_tree_of_members g members;
        })
      valid
  in
  Packing.uniform g trees

let integral_subpacking (p : Packing.t) =
  let n = Graph.n p.Packing.graph in
  let used = Array.make n false in
  let chosen =
    List.filter
      (fun tr ->
        let free =
          Array.for_all (fun v -> not used.(v)) tr.Packing.vertices
        in
        if free then
          Array.iter (fun v -> used.(v) <- true) tr.Packing.vertices;
        free)
      p.Packing.trees
  in
  {
    Packing.graph = p.Packing.graph;
    trees = chosen;
    weights = List.map (fun _ -> 1.) chosen;
  }
