module Graph = Graphs.Graph

(* lexicographic [<=] on the (max degree, degree sum, u, v) keys below *)
let key_le ((a1 : int), (b1 : int), (c1 : int), (d1 : int)) (a2, b2, c2, d2) =
  a1 < a2
  || a1 = a2
     && (b1 < b2 || (b1 = b2 && (c1 < c2 || (c1 = c2 && d1 <= d2))))

(* A degree-balanced spanning tree: repeatedly add the component-joining
   edge whose endpoints carry the fewest tree edges so far. Keeping tree
   degrees low means no vertex loses its whole residual neighborhood to
   one peel (a BFS tree would isolate its root immediately). O(nm). *)
let spanning_tree_if_connected g =
  if Graph.n g = 0 || not (Graphs.Traversal.is_connected g) then None
  else begin
    let n = Graph.n g in
    let uf = Graphs.Union_find.create n in
    let tdeg = Array.make n 0 in
    let chosen = ref [] in
    for _pick = 1 to n - 1 do
      let best = ref None in
      Graph.iter_edges
        (fun u v ->
          if not (Graphs.Union_find.same uf u v) then begin
            let key = (max tdeg.(u) tdeg.(v), tdeg.(u) + tdeg.(v), u, v) in
            match !best with
            | Some (k, _, _) when key_le k key -> ()
            | _ -> best := Some (key, u, v)
          end)
        g;
      match !best with
      | Some (_, u, v) ->
        ignore (Graphs.Union_find.union uf u v);
        tdeg.(u) <- tdeg.(u) + 1;
        tdeg.(v) <- tdeg.(v) + 1;
        chosen := (min u v, max u v) :: !chosen
      | None -> ()
    done;
    Some (List.sort Spacking.compare_edge !chosen)
  end

let peel g0 =
  let rec go g acc =
    match spanning_tree_if_connected g with
    | None -> List.rev acc
    | Some tree ->
      let in_tree = Hashtbl.create 64 in
      List.iter (fun e -> Hashtbl.replace in_tree e ()) tree;
      let g' =
        Graph.spanning_subgraph g (fun u v ->
            not (Hashtbl.mem in_tree (min u v, max u v)))
      in
      go g' (tree :: acc)
  in
  go g0 []

let to_packing g trees =
  {
    Spacking.graph = g;
    trees = List.map (fun es -> { Spacking.edges = es; weight = 1. }) trees;
  }
