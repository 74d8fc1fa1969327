(* Reference copies of the quadratic dominating-tree checkers
   ([Packing.verify] and [Domination.is_dominating_tree] before they
   shared [Graphs.Tree_check]), kept as oracles of differential
   properties. They read tree edges as (u, v) pairs; in [verify] a pair
   that is not an edge of the graph is reported and joins nothing, as
   an edge id outside the graph does in [Packing.verify]. *)

module Graph = Graphs.Graph
open Domtree.Packing

type tree = { cls : int; vertices : int array; edges : (int * int) list }
type t = { graph : Graph.t; trees : tree list; weights : float list }

(* The pairs of a packing's edge ids; an id [e] outside the graph
   becomes [(e, n)], which names vertex [n] and so is no edge. *)
let of_packing (p : Domtree.Packing.t) =
  let g = p.graph in
  let n = Graph.n g and m = Graph.m g in
  let pair e = if e >= 0 && e < m then Graph.edge_endpoints g e else (e, n) in
  {
    graph = g;
    trees =
      List.map
        (fun (tr : Domtree.Packing.tree) ->
          {
            cls = tr.cls;
            vertices = tr.vertices;
            edges = List.map pair (Array.to_list tr.edges);
          })
        p.trees;
    weights = p.weights;
  }

let node_load p v =
  List.fold_left2
    (fun acc tree w ->
      if Array.exists (fun x -> x = v) tree.vertices then acc +. w else acc)
    0. p.trees p.weights

let max_node_load p =
  let best = ref 0. in
  for v = 0 to Graph.n p.graph - 1 do
    let l = node_load p v in
    if l > !best then best := l
  done;
  !best

let verify p =
  let g = p.graph in
  let violations = ref [] in
  let push v = violations := v :: !violations in
  List.iter2
    (fun tree w ->
      if w < 0. || w > 1. then push (Bad_weight tree.cls);
      let vs = Array.to_list tree.vertices in
      let on_graph = List.filter (fun (u, v) -> Graph.mem_edge g u v) tree.edges in
      if List.length on_graph < List.length tree.edges then
        push (Edge_outside_graph tree.cls);
      let member v = Array.exists (fun x -> x = v) tree.vertices in
      (* tree structure: |E| = |V| - 1, connected, within vertex set *)
      let n_vs = List.length vs in
      let tree_ok =
        List.length tree.edges = n_vs - 1
        && List.for_all (fun (u, v) -> member u && member v) on_graph
        &&
        let uf = Graphs.Union_find.create (Graph.n g) in
        List.for_all (fun (u, v) -> Graphs.Union_find.union uf u v) on_graph
      in
      if not tree_ok then push (Not_a_tree tree.cls);
      if not (Graphs.Domination.is_dominating g member) then
        push (Not_dominating tree.cls))
    p.trees p.weights;
  for v = 0 to Graph.n g - 1 do
    let l = node_load p v in
    if l > 1. +. 1e-9 then push (Overloaded_vertex (v, l))
  done;
  List.rev !violations

let is_dominating_tree g vs es =
  let n = Graph.n g in
  let in_set = Array.make n false in
  List.iter
    (fun v -> if v >= 0 && v < n then in_set.(v) <- true)
    vs;
  let vertex_count = List.length (List.sort_uniq Int.compare vs) in
  let edges_ok =
    List.for_all
      (fun (u, v) ->
        u >= 0 && v >= 0 && u < n && v < n && in_set.(u) && in_set.(v)
        && Graph.mem_edge g u v)
      es
  in
  edges_ok
  && List.length es = vertex_count - 1
  &&
  let uf = Graphs.Union_find.create n in
  List.for_all (fun (u, v) -> Graphs.Union_find.union uf u v) es
  && Graphs.Domination.is_dominating g (fun v -> in_set.(v))
