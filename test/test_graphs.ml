(* Tests for the graph substrate: structure, traversal, MST, max-flow,
   exact connectivity, generators, domination, sampling. *)

open Graphs

let rng () = Random.State.make [| 0xC0FFEE |]

(* ------------------------------------------------------------------ *)
(* Union-find *)

let test_uf_basic () =
  let uf = Union_find.create 10 in
  Alcotest.(check int) "initial count" 10 (Union_find.count uf);
  Alcotest.(check bool) "union 0 1" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "union again" false (Union_find.union uf 1 0);
  Alcotest.(check bool) "same" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "not same" false (Union_find.same uf 0 2);
  Alcotest.(check int) "count after union" 9 (Union_find.count uf);
  Alcotest.(check int) "set size" 2 (Union_find.set_size uf 1)

let test_uf_groups () =
  let uf = Union_find.create 6 in
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 3 4);
  let groups = Union_find.groups uf in
  let sizes =
    List.map (fun (_, ms) -> List.length ms) groups |> List.sort compare
  in
  Alcotest.(check (list int)) "group sizes" [ 1; 2; 3 ] sizes;
  Alcotest.(check int) "still 3 groups" 3 (List.length groups)

let test_uf_copy_independent () =
  let uf = Union_find.create 4 in
  let uf' = Union_find.copy uf in
  ignore (Union_find.union uf 0 1);
  Alcotest.(check bool) "copy unaffected" false (Union_find.same uf' 0 1)

let prop_uf_transitive =
  QCheck.Test.make ~name:"union-find equivalence is transitive" ~count:100
    QCheck.(list (pair (int_bound 19) (int_bound 19)))
    (fun pairs ->
      let uf = Union_find.create 20 in
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) pairs;
      (* transitivity spot check over all triples *)
      let ok = ref true in
      for a = 0 to 19 do
        for b = 0 to 19 do
          for c = 0 to 19 do
            if Union_find.same uf a b && Union_find.same uf b c then
              if not (Union_find.same uf a c) then ok := false
          done
        done
      done;
      !ok)

let prop_uf_count =
  QCheck.Test.make ~name:"union-find count equals distinct components"
    ~count:100
    QCheck.(list (pair (int_bound 14) (int_bound 14)))
    (fun pairs ->
      let uf = Union_find.create 15 in
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) pairs;
      let reps = Hashtbl.create 16 in
      for x = 0 to 14 do
        Hashtbl.replace reps (Union_find.find uf x) ()
      done;
      Hashtbl.length reps = Union_find.count uf)

(* ------------------------------------------------------------------ *)
(* Graph structure *)

let test_graph_basic () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 0); (1, 2) ] in
  Alcotest.(check int) "n" 4 (Graph.n g);
  Alcotest.(check int) "m dedups" 3 (Graph.m g);
  Alcotest.(check bool) "edge" true (Graph.mem_edge g 0 2);
  Alcotest.(check bool) "edge sym" true (Graph.mem_edge g 2 0);
  Alcotest.(check bool) "no edge" false (Graph.mem_edge g 0 3);
  Alcotest.(check int) "deg" 2 (Graph.degree g 1);
  Alcotest.(check int) "isolated deg" 0 (Graph.degree g 3)

let test_graph_rejects () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph: self-loop")
    (fun () -> ignore (Graph.of_edges ~n:3 [ (1, 1) ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph: endpoint out of range") (fun () ->
      ignore (Graph.of_edges ~n:3 [ (0, 3) ]))

let test_graph_induced () =
  let g = Gen.cycle 6 in
  let sub, mapping = Graph.induced g (fun v -> v < 4) in
  Alcotest.(check int) "induced n" 4 (Graph.n sub);
  Alcotest.(check int) "induced m" 3 (Graph.m sub);
  Alcotest.(check (array int)) "mapping" [| 0; 1; 2; 3 |] mapping

let test_graph_edge_index () =
  let g = Gen.cycle 5 in
  Graph.iter_edges
    (fun u v ->
      let i = Graph.edge_index g u v in
      Alcotest.(check (pair int int)) "edge_index roundtrip" (u, v)
        (Graph.edge_endpoints g i))
    g

let test_spanning_subgraph () =
  let g = Gen.clique 5 in
  let sub = Graph.spanning_subgraph g (fun u v -> (u + v) mod 2 = 1) in
  Alcotest.(check int) "same vertex set" 5 (Graph.n sub);
  Graph.iter_edges
    (fun u v ->
      Alcotest.(check bool) "kept edges satisfy pred" true ((u + v) mod 2 = 1))
    sub

(* ------------------------------------------------------------------ *)
(* CSR vs reference model: the CSR core must agree, query by query,
   with a naive tuple-list implementation of the same contract —
   canonical (min,max) edges, first-class lex order, sorted neighbor
   lists. Random multigraph-ish input (duplicates, both orientations)
   exercises the dedup path too. *)

module Tuple_model = struct
  type t = { n : int; edges : (int * int) list }
      (* canonical, lex-sorted, deduped *)

  let lex (a, b) (c, d) = if a <> c then Int.compare a c else Int.compare b d

  let build ~n pairs =
    let canon = List.map (fun (u, v) -> (min u v, max u v)) pairs in
    { n; edges = List.sort_uniq lex canon }

  let neighbors t u =
    List.filter_map
      (fun (a, b) ->
        if a = u then Some b else if b = u then Some a else None)
      t.edges
    |> List.sort Int.compare

  let mem_edge t u v = List.mem (min u v, max u v) t.edges

  let edge_index t u v =
    let e = (min u v, max u v) in
    let rec go i = function
      | [] -> raise Not_found
      | x :: tl -> if x = e then i else go (i + 1) tl
    in
    go 0 t.edges
end

(* the canonical edge list, in index order *)
let edge_list g = List.init (Graph.m g) (Graph.edge_endpoints g)

(* (n, raw pair list) -> simple-graph edge list over [0..n-1] *)
let mk_pairs n raw =
  List.filter_map
    (fun (a, b) ->
      let u = a mod n and v = b mod n in
      if u = v then None else Some (u, v))
    raw

let graph_model_gen =
  QCheck.(pair (int_range 2 24) (list (pair (int_bound 127) (int_bound 127))))

let prop_csr_matches_model_queries =
  QCheck.Test.make ~name:"CSR graph = tuple model (neighbors/mem/index)"
    ~count:200 graph_model_gen (fun (n, raw) ->
      let pairs = mk_pairs n raw in
      let g = Graph.of_edges ~n pairs in
      let m = Tuple_model.build ~n pairs in
      List.length m.Tuple_model.edges = Graph.m g
      && edge_list g = m.Tuple_model.edges
      && List.for_all
           (fun i ->
             let u, v = Graph.edge_endpoints g i in
             Graph.edge_index g u v = i)
           (List.init (Graph.m g) Fun.id)
      && List.for_all
           (fun u ->
             Array.to_list (Graph.neighbors g u) = Tuple_model.neighbors m u
             && Graph.degree g u = List.length (Tuple_model.neighbors m u)
             && List.for_all
                  (fun v ->
                    Graph.mem_edge g u v = Tuple_model.mem_edge m u v
                    && (match Graph.edge_index g u v with
                       | i -> (
                         match Tuple_model.edge_index m u v with
                         | j -> i = j
                         | exception Not_found -> false)
                       | exception Not_found -> (
                         match Tuple_model.edge_index m u v with
                         | _ -> false
                         | exception Not_found -> true)))
                  (List.init n Fun.id))
           (List.init n Fun.id))

let prop_csr_slots_consistent =
  QCheck.Test.make ~name:"CSR slot table = neighbors + edge_index"
    ~count:200 graph_model_gen (fun (n, raw) ->
      let g = Graph.of_edges ~n (mk_pairs n raw) in
      let off = Graph.csr_offsets g
      and adj = Graph.csr_neighbors g
      and ids = Graph.csr_edge_ids g in
      Array.length off = n + 1
      && off.(n) = 2 * Graph.m g
      && Array.length adj = 2 * Graph.m g
      && Array.length ids = 2 * Graph.m g
      && List.for_all
           (fun u ->
             let seen = ref [] in
             Graph.iter_incident g u (fun v ei ->
                 seen := (v, ei) :: !seen);
             List.rev !seen
             = List.map
                 (fun v -> (v, Graph.edge_index g u v))
                 (Array.to_list (Graph.neighbors g u)))
           (List.init n Fun.id))

let prop_induced_matches_model =
  QCheck.Test.make ~name:"induced subgraph = relabeled model filter"
    ~count:200
    QCheck.(pair graph_model_gen (int_bound ((1 lsl 24) - 1)))
    (fun ((n, raw), mask) ->
      let pairs = mk_pairs n raw in
      let g = Graph.of_edges ~n pairs in
      let m = Tuple_model.build ~n pairs in
      let keep v = (mask lsr (v mod 24)) land 1 = 1 in
      let gi, mapping = Graph.induced g keep in
      let kept = List.filter keep (List.init n Fun.id) in
      let rank = List.mapi (fun i v -> (v, i)) kept in
      let expected =
        List.filter_map
          (fun (u, v) ->
            if keep u && keep v then
              Some (List.assoc u rank, List.assoc v rank)
            else None)
          m.Tuple_model.edges
        |> List.sort_uniq Tuple_model.lex
      in
      Graph.n gi = List.length kept
      && Array.to_list mapping = kept
      && edge_list gi = expected)

let prop_spanning_subgraph_matches_model =
  QCheck.Test.make ~name:"spanning_subgraph = model filter" ~count:200
    QCheck.(pair graph_model_gen (int_bound 97))
    (fun ((n, raw), salt) ->
      let pairs = mk_pairs n raw in
      let g = Graph.of_edges ~n pairs in
      let m = Tuple_model.build ~n pairs in
      let pred u v = (u + (2 * v) + salt) mod 3 <> 0 in
      let sub = Graph.spanning_subgraph g pred in
      let expected =
        List.filter (fun (u, v) -> pred u v) m.Tuple_model.edges
      in
      Graph.n sub = n && edge_list sub = expected)

(* ------------------------------------------------------------------ *)
(* Traversal *)

let test_bfs_path () =
  let g = Gen.path 5 in
  let dist = Traversal.bfs g 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4 |] dist

let test_bfs_unreachable () =
  let g = Graph.of_edges ~n:4 [ (0, 1) ] in
  let dist = Traversal.bfs g 0 in
  Alcotest.(check int) "unreachable" (-1) dist.(3)

let test_components () =
  let g = Graph.of_edges ~n:6 [ (0, 1); (2, 3); (3, 4) ] in
  let count, label = Traversal.components g in
  Alcotest.(check int) "count" 3 count;
  Alcotest.(check bool) "same comp" true (label.(2) = label.(4));
  Alcotest.(check bool) "diff comp" true (label.(0) <> label.(2))

let test_diameter () =
  Alcotest.(check int) "path diameter" 7 (Traversal.diameter (Gen.path 8));
  Alcotest.(check int) "cycle diameter" 4 (Traversal.diameter (Gen.cycle 8));
  Alcotest.(check int) "clique diameter" 1 (Traversal.diameter (Gen.clique 8))

let test_diameter_2approx () =
  let g = Gen.grid 4 7 in
  let d = Traversal.diameter g in
  let est = Traversal.diameter_2approx g in
  Alcotest.(check bool) "within factor 2" true (est <= d && d <= 2 * est)

let prop_diameter_2approx =
  QCheck.Test.make ~name:"double-sweep is a 2-approximation of diameter"
    ~count:50
    QCheck.(pair (int_range 4 30) (int_range 0 40))
    (fun (n, extra) ->
      let g = Gen.random_connected (rng ()) ~n ~extra in
      let d = Traversal.diameter g in
      let est = Traversal.diameter_2approx g in
      est <= d && d <= 2 * est)

(* ------------------------------------------------------------------ *)
(* MST *)

let test_kruskal_simple () =
  (* triangle 0-1-2 plus the pendant edge 2-3 and the separate edge 4-5:
     a two-tree forest. 1-2 is the lightest triangle edge; 0-1 and 0-2
     tie, and the lower edge id, 0-1, wins *)
  let g = Graph.of_edges ~n:6 [ (0, 1); (0, 2); (1, 2); (2, 3); (4, 5) ] in
  let id = Graph.edge_index g in
  let weights = Array.make (Graph.m g) 0 in
  weights.(id 0 1) <- 1;
  weights.(id 0 2) <- 1;
  let all = Array.init (Graph.m g) Fun.id in
  Alcotest.(check (array int)) "forest"
    [| id 0 1; id 1 2; id 2 3; id 4 5 |]
    (Mst.forest_ids g all ~weights);
  Alcotest.(check (array int)) "on a subset"
    [| id 0 1; id 2 3 |]
    (Mst.forest_ids g [| id 0 1; id 2 3 |] ~weights)

let test_is_spanning_tree () =
  Alcotest.(check bool) "path is tree" true
    (Mst.is_spanning_tree ~n:4 [ (0, 1); (1, 2); (2, 3) ]);
  Alcotest.(check bool) "cycle is not" false
    (Mst.is_spanning_tree ~n:3 [ (0, 1); (1, 2); (2, 0) ]);
  Alcotest.(check bool) "disconnected is not" false
    (Mst.is_spanning_tree ~n:4 [ (0, 1); (2, 3); (0, 1) ])

(* ------------------------------------------------------------------ *)
(* Max-flow *)

let test_maxflow_simple () =
  let net = Maxflow.create 4 in
  Maxflow.add_edge net 0 1 3;
  Maxflow.add_edge net 0 2 2;
  Maxflow.add_edge net 1 3 2;
  Maxflow.add_edge net 2 3 3;
  Maxflow.add_edge net 1 2 5;
  Alcotest.(check int) "flow value" 5 (Maxflow.max_flow net ~src:0 ~sink:3)

let test_maxflow_min_cut () =
  let net = Maxflow.create 4 in
  Maxflow.add_edge net 0 1 1;
  Maxflow.add_edge net 1 2 1;
  Maxflow.add_edge net 2 3 1;
  let f = Maxflow.max_flow net ~src:0 ~sink:3 in
  Alcotest.(check int) "flow" 1 f;
  let side = Maxflow.min_cut_side net ~src:0 in
  Alcotest.(check bool) "src in side" true side.(0);
  Alcotest.(check bool) "sink not in side" false side.(3)

let test_edge_connectivity_pair () =
  let g = Gen.cycle 6 in
  Alcotest.(check int) "cycle pair" 2 (Maxflow.edge_connectivity_pair g 0 3);
  let g = Gen.clique 5 in
  Alcotest.(check int) "clique pair" 4 (Maxflow.edge_connectivity_pair g 0 3)

let test_vertex_connectivity_pair () =
  let g = Gen.cycle 6 in
  Alcotest.(check int) "cycle vpair" 2 (Maxflow.vertex_connectivity_pair g 0 3);
  let g = Gen.hypercube 3 in
  Alcotest.(check int) "cube vpair" 3 (Maxflow.vertex_connectivity_pair g 0 7)

let check_paths_internally_disjoint u v paths =
  (* internal vertices pairwise disjoint, endpoints correct *)
  let internals = List.map (fun p -> List.filter (fun x -> x <> u && x <> v) p) paths in
  let all = List.concat internals in
  let dedup = List.sort_uniq compare all in
  List.length all = List.length dedup
  && List.for_all
       (fun p -> List.hd p = u && List.nth p (List.length p - 1) = v)
       paths

let test_vertex_disjoint_paths () =
  let g = Gen.hypercube 3 in
  let paths = Maxflow.vertex_disjoint_paths g 0 7 in
  Alcotest.(check int) "three paths" 3 (List.length paths);
  Alcotest.(check bool) "disjoint" true
    (check_paths_internally_disjoint 0 7 paths);
  List.iter
    (fun p ->
      let rec edges_ok = function
        | a :: (b :: _ as rest) -> Graph.mem_edge g a b && edges_ok rest
        | _ -> true
      in
      Alcotest.(check bool) "path uses real edges" true (edges_ok p))
    paths

let prop_flow_equals_menger =
  QCheck.Test.make
    ~name:"vertex flow value = number of extracted disjoint paths" ~count:30
    QCheck.(int_range 4 24)
    (fun n ->
      let g = Gen.random_k_connected (rng ()) ~n ~k:(min 3 (n - 1)) ~extra:n in
      (* pick a non-adjacent pair if one exists *)
      let pair = ref None in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if !pair = None && not (Graph.mem_edge g u v) then pair := Some (u, v)
        done
      done;
      match !pair with
      | None -> true
      | Some (u, v) ->
        let f = Maxflow.vertex_connectivity_pair g u v in
        let paths = Maxflow.vertex_disjoint_paths g u v in
        f = List.length paths && check_paths_internally_disjoint u v paths)

(* ------------------------------------------------------------------ *)
(* Exact connectivity *)

let test_edge_connectivity_families () =
  Alcotest.(check int) "path" 1 (Connectivity.edge_connectivity (Gen.path 6));
  Alcotest.(check int) "cycle" 2 (Connectivity.edge_connectivity (Gen.cycle 6));
  Alcotest.(check int) "clique" 5
    (Connectivity.edge_connectivity (Gen.clique 6));
  Alcotest.(check int) "cube" 3
    (Connectivity.edge_connectivity (Gen.hypercube 3));
  Alcotest.(check int) "bridged" 3
    (Connectivity.edge_connectivity (Gen.two_cliques_bridged ~size:5 ~bridges:3));
  Alcotest.(check int) "disconnected" 0
    (Connectivity.edge_connectivity (Graph.of_edges ~n:4 [ (0, 1); (2, 3) ]))

let test_vertex_connectivity_families () =
  Alcotest.(check int) "path" 1
    (Connectivity.vertex_connectivity (Gen.path 6));
  Alcotest.(check int) "cycle" 2
    (Connectivity.vertex_connectivity (Gen.cycle 6));
  Alcotest.(check int) "clique" 5
    (Connectivity.vertex_connectivity (Gen.clique 6));
  Alcotest.(check int) "cube" 3
    (Connectivity.vertex_connectivity (Gen.hypercube 3));
  Alcotest.(check int) "complete bipartite" 3
    (Connectivity.vertex_connectivity (Gen.complete_bipartite 3 5));
  Alcotest.(check int) "clique path" 4
    (Connectivity.vertex_connectivity (Gen.clique_path ~k:4 ~len:4))

let test_min_vertex_cut () =
  let g = Gen.two_cliques_bridged ~size:5 ~bridges:2 in
  (* vertex connectivity is 2: removing the two bridge endpoints on one
     side disconnects *)
  match Connectivity.min_vertex_cut g with
  | None -> Alcotest.fail "expected a cut"
  | Some cut ->
    Alcotest.(check int) "cut size" 2 (List.length cut);
    let in_cut = fun v -> List.mem v cut in
    let sub, _ = Graph.induced g (fun v -> not (in_cut v)) in
    Alcotest.(check bool) "removal disconnects" false
      (Traversal.is_connected sub)

let test_all_min_vertex_cuts () =
  (* cycle of 5: every non-adjacent pair is a minimum cut: 5 cuts *)
  let cuts = Connectivity.all_min_vertex_cuts (Gen.cycle 5) in
  Alcotest.(check int) "cycle cuts" 5 (List.length cuts);
  List.iter
    (fun cut -> Alcotest.(check int) "cut size 2" 2 (List.length cut))
    cuts;
  (* clique path k=3 len=3: each junction matching is a cut *)
  let g = Gen.clique_path ~k:3 ~len:3 in
  let cuts = Connectivity.all_min_vertex_cuts g in
  Alcotest.(check bool) "several minimum cuts" true (List.length cuts >= 2);
  (* every enumerated cut really separates *)
  List.iter
    (fun cut ->
      let sub, _ = Graph.induced g (fun v -> not (List.mem v cut)) in
      Alcotest.(check bool) "separates" false (Traversal.is_connected sub))
    cuts;
  Alcotest.(check (list (list int))) "complete graph: none" []
    (Connectivity.all_min_vertex_cuts (Gen.clique 6))

let test_is_k_vertex_connected () =
  let g = Gen.hypercube 4 in
  Alcotest.(check bool) "4-cube is 4-connected" true
    (Connectivity.is_k_vertex_connected g 4);
  Alcotest.(check bool) "4-cube is not 5-connected" false
    (Connectivity.is_k_vertex_connected g 5)

let prop_harary_connectivity =
  QCheck.Test.make ~name:"harary graph has connectivity exactly k" ~count:30
    QCheck.(pair (int_range 2 6) (int_range 8 20))
    (fun (k, n) ->
      QCheck.assume (k < n);
      let g = Gen.harary ~k ~n in
      Connectivity.vertex_connectivity g = k
      && Connectivity.edge_connectivity g = k)

let prop_vertex_le_edge_le_mindeg =
  QCheck.Test.make ~name:"k <= lambda <= min degree (Whitney)" ~count:50
    QCheck.(pair (int_range 4 20) (int_range 0 30))
    (fun (n, extra) ->
      let g = Gen.random_connected (rng ()) ~n ~extra in
      let k = Connectivity.vertex_connectivity g in
      let lambda = Connectivity.edge_connectivity g in
      k <= lambda && lambda <= Graph.min_degree g)

let prop_menger_count =
  QCheck.Test.make
    ~name:"Menger: #disjoint paths >= vertex connectivity (non-adjacent pair)"
    ~count:20
    QCheck.(int_range 6 16)
    (fun n ->
      let g = Gen.harary ~k:3 ~n in
      let k = Connectivity.vertex_connectivity g in
      let pair = ref None in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if !pair = None && not (Graph.mem_edge g u v) then pair := Some (u, v)
        done
      done;
      match !pair with
      | None -> true
      | Some (u, v) ->
        List.length (Connectivity.menger_vertex_paths g u v) >= k)

(* Three exact λ implementations must agree: Stoer–Wagner, Stoer–Wagner
   on the sparse certificate, and the minimum over t <> 0 of the
   max-flow pair value 0–t (λ separates some t from vertex 0). The
   families cover disconnected (sparse ER, 1-regular), expander-like
   and bridge-cut graphs, n <= 24. *)
let prop_lambda_differential =
  QCheck.Test.make
    ~name:"lambda: Stoer-Wagner = sparsified = min pair max-flow" ~count:120
    QCheck.(triple (int_bound 2) (int_range 2 24) (int_bound 1_000_000))
    (fun (family, size, seed) ->
      let r = Random.State.make [| seed |] in
      let g =
        match family with
        | 0 -> Gen.erdos_renyi r ~n:size ~p:(0.05 +. Random.State.float r 0.85)
        | 1 ->
          let n = 2 * max 2 (size / 2) in
          Gen.random_regular r ~n ~d:(1 + Random.State.int r (min 4 (n - 1)))
        | _ ->
          let size = max 1 (size / 2) in
          Gen.two_cliques_bridged ~size
            ~bridges:(Random.State.int r (size + 1))
      in
      let by_flow = ref max_int in
      for t = 1 to Graph.n g - 1 do
        by_flow := min !by_flow (Maxflow.edge_connectivity_pair g 0 t)
      done;
      let lambda = Connectivity.edge_connectivity g in
      lambda = Connectivity.edge_connectivity_sparsified g && lambda = !by_flow)

(* ------------------------------------------------------------------ *)
(* Generators *)

let test_gen_shapes () =
  Alcotest.(check int) "clique m" 10 (Graph.m (Gen.clique 5));
  Alcotest.(check int) "cycle m" 7 (Graph.m (Gen.cycle 7));
  Alcotest.(check int) "grid n" 12 (Graph.n (Gen.grid 3 4));
  Alcotest.(check int) "hypercube m" 32 (Graph.m (Gen.hypercube 4));
  Alcotest.(check int) "bipartite m" 12 (Graph.m (Gen.complete_bipartite 3 4));
  Alcotest.(check int) "torus 4-regular" (2 * 9) (Graph.m (Gen.torus 3 3))

let test_harary_odd_odd () =
  (* the trickiest Harary case: odd k, odd n *)
  let g = Gen.harary ~k:3 ~n:9 in
  Alcotest.(check int) "connectivity" 3 (Connectivity.vertex_connectivity g)

let test_star_of_cliques () =
  let g = Gen.star_of_cliques ~k:4 ~extra:10 in
  Alcotest.(check int) "n" 15 (Graph.n g);
  Alcotest.(check int) "hub degree" 4 (Graph.degree g 0);
  (* every leaf is at distance 2 from the hub *)
  let dist = Traversal.bfs g 0 in
  for v = 5 to 14 do
    Alcotest.(check int) "leaf at distance 2" 2 dist.(v)
  done

let test_cds_counterexample () =
  let g = Gen.cds_vs_independent_trees ~t:5 in
  Alcotest.(check int) "vertex connectivity 3" 3
    (Connectivity.vertex_connectivity g)

(* Footnote 3's separating claim, checked exhaustively. In this family a
   CDS must contain, besides clique vertices, every triple-node whose
   three clique neighbors it misses — and such forced triple-nodes are
   isolated in the induced subgraph (triple-nodes are pairwise
   non-adjacent and only touch their own clique vertices). Hence each of
   two disjoint CDSs needs >= t-2 clique vertices, so two of them exist
   iff 2(t-2) <= t, i.e. t <= 4. We therefore enumerate the clique-side
   choices (3^t options) and complete each side with its forced
   triple-nodes, validating with the library predicates. *)
let two_disjoint_cds_exist t =
  let g = Gen.cds_vs_independent_trees ~t in
  let n = Graph.n g in
  let assignment = Array.make t 0 in
  let found = ref false in
  let completed side =
    (* side's clique choice, plus every triple-node it fails to touch *)
    let member = Array.make n false in
    for c = 0 to t - 1 do
      if assignment.(c) = side then member.(c) <- true
    done;
    for y = t to n - 1 do
      let touched =
        Array.exists (fun c -> c < t && member.(c)) (Graph.neighbors g y)
      in
      if not touched then member.(y) <- true
    done;
    member
  in
  let rec enumerate v =
    if !found then ()
    else if v = t then begin
      let a = completed 1 and b = completed 2 in
      let disjoint =
        Array.for_all (fun ok -> ok)
          (Array.init n (fun x -> not (a.(x) && b.(x))))
      in
      if
        disjoint
        && Domination.is_connected_dominating g (fun x -> a.(x))
        && Domination.is_connected_dominating g (fun x -> b.(x))
      then found := true
    end
    else
      for c = 0 to 2 do
        assignment.(v) <- c;
        enumerate (v + 1)
      done
  in
  enumerate 0;
  !found

let test_no_two_disjoint_cds () =
  Alcotest.(check bool) "t=4 is the threshold: two disjoint CDSs exist" true
    (two_disjoint_cds_exist 4);
  Alcotest.(check bool) "t=5: no two disjoint CDSs (footnote 3)" false
    (two_disjoint_cds_exist 5);
  Alcotest.(check bool) "t=6: no two disjoint CDSs" false
    (two_disjoint_cds_exist 6)

let test_sparsified_lambda () =
  List.iter
    (fun (g, expect) ->
      Alcotest.(check int) "sparsified = exact" expect
        (Connectivity.edge_connectivity_sparsified g))
    [
      (Gen.harary ~k:6 ~n:24, 6);
      (Gen.clique 12, 11);
      (Gen.two_cliques_bridged ~size:8 ~bridges:3, 3);
      (Gen.path 8, 1);
    ]

let test_random_regular () =
  let g = Gen.random_regular (rng ()) ~n:24 ~d:4 in
  for v = 0 to 23 do
    Alcotest.(check int) "4-regular" 4 (Graph.degree g v)
  done;
  Alcotest.(check int) "m = nd/2" 48 (Graph.m g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g)

let prop_random_regular_degrees =
  QCheck.Test.make ~name:"configuration model always yields d-regular"
    ~count:20
    QCheck.(pair (int_range 6 20) (int_range 2 4))
    (fun (half_n, d) ->
      let n = 2 * half_n in
      QCheck.assume (d < n);
      let g = Gen.random_regular (rng ()) ~n ~d in
      let ok = ref true in
      Graph.iter_vertices (fun v -> if Graph.degree g v <> d then ok := false) g;
      !ok)

let test_random_tree_is_tree () =
  let g = Gen.random_tree (rng ()) ~n:40 in
  Alcotest.(check int) "m = n - 1" 39 (Graph.m g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g)

let prop_random_k_connected =
  QCheck.Test.make ~name:"random_k_connected has connectivity >= k" ~count:20
    QCheck.(pair (int_range 2 5) (int_range 10 20))
    (fun (k, n) ->
      QCheck.assume (k < n);
      let g = Gen.random_k_connected (rng ()) ~n ~k ~extra:5 in
      Connectivity.is_k_vertex_connected g k)

(* ------------------------------------------------------------------ *)
(* Domination *)

let test_domination_predicates () =
  let g = Gen.star_of_cliques ~k:3 ~extra:6 in
  (* clique vertices 1..3 dominate: hub adjacent, leaves attached *)
  let member v = v >= 1 && v <= 3 in
  Alcotest.(check bool) "clique dominates" true (Domination.is_dominating g member);
  Alcotest.(check bool) "clique is CDS" true
    (Domination.is_connected_dominating g member);
  Alcotest.(check bool) "hub alone does not dominate" false
    (Domination.is_dominating g (fun v -> v = 0));
  Alcotest.(check (list int)) "undominated" []
    (Domination.undominated g member)

let test_dominating_tree_check () =
  let g = Gen.cycle 5 in
  Alcotest.(check bool) "path in cycle dominates" true
    (Domination.is_dominating_tree g [ 0; 1; 2 ] [ (0, 1); (1, 2) ]);
  Alcotest.(check bool) "cycle is not a tree" false
    (Domination.is_dominating_tree g [ 0; 1; 2; 3; 4 ]
       [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ]);
  Alcotest.(check bool) "non-dominating rejected" false
    (Domination.is_dominating_tree (Gen.path 7) [ 0; 1 ] [ (0, 1) ])

let test_greedy_cds () =
  let g = Gen.grid 4 5 in
  let cds = Domination.greedy_cds g in
  let member v = List.mem v cds in
  Alcotest.(check bool) "greedy result is a CDS" true
    (Domination.is_connected_dominating g member)

let test_greedy_cds_within () =
  let g = Gen.harary ~k:16 ~n:32 in
  (* even vertices only: dense enough to dominate and stitch *)
  match Domination.greedy_cds_within g ~allowed:(fun v -> v mod 2 = 0) with
  | None -> Alcotest.fail "expected a restricted CDS"
  | Some members ->
    List.iter
      (fun v -> Alcotest.(check int) "members allowed" 0 (v mod 2))
      members;
    Alcotest.(check bool) "dominates the whole graph" true
      (Domination.is_connected_dominating g (fun v -> List.mem v members))

let test_greedy_cds_within_infeasible () =
  let g = Gen.path 9 in
  (* allowed = {0}: cannot dominate the far end *)
  Alcotest.(check bool) "infeasible returns None" true
    (Domination.greedy_cds_within g ~allowed:(fun v -> v = 0) = None)

let prop_greedy_cds_within_sound =
  QCheck.Test.make
    ~name:"restricted CDS, when found, dominates and is connected" ~count:25
    QCheck.(pair (int_range 8 24) (int_range 2 4))
    (fun (n, modulus) ->
      let g = Gen.harary ~k:(min (n - 1) 8) ~n in
      let allowed v = v mod modulus <> 1 in
      match Domination.greedy_cds_within g ~allowed with
      | None -> true
      | Some members ->
        List.for_all allowed members
        && Domination.is_connected_dominating g (fun v -> List.mem v members))

let test_minimum_cds_exact () =
  (* star: center alone is the minimum CDS *)
  Alcotest.(check int) "star" 1
    (Domination.minimum_cds_size (Gen.complete_bipartite 1 6));
  (* path of 5: the 3 inner vertices *)
  Alcotest.(check int) "path" 3 (Domination.minimum_cds_size (Gen.path 5));
  (* cycle of 6: 4 consecutive vertices needed *)
  Alcotest.(check int) "cycle" 4 (Domination.minimum_cds_size (Gen.cycle 6));
  Alcotest.(check int) "clique" 1 (Domination.minimum_cds_size (Gen.clique 5))

let prop_greedy_vs_optimum =
  QCheck.Test.make
    ~name:"greedy CDS is within a log-factor of the optimum" ~count:15
    QCheck.(pair (int_range 4 12) (int_range 0 12))
    (fun (n, extra) ->
      let g = Gen.random_connected (rng ()) ~n ~extra in
      let greedy = List.length (Domination.greedy_cds g) in
      let opt = Domination.minimum_cds_size g in
      greedy >= opt && float_of_int greedy <= 4.0 *. log (float_of_int (n + 2)) *. float_of_int opt)

let prop_greedy_cds_valid =
  QCheck.Test.make ~name:"greedy CDS is always a valid CDS" ~count:30
    QCheck.(pair (int_range 3 25) (int_range 0 30))
    (fun (n, extra) ->
      let g = Gen.random_connected (rng ()) ~n ~extra in
      let cds = Domination.greedy_cds g in
      Domination.is_connected_dominating g (fun v -> List.mem v cds))

(* ------------------------------------------------------------------ *)
(* Biconnectivity *)

let test_articulation_basic () =
  (* two triangles sharing vertex 2 *)
  let g = Graph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 2) ] in
  Alcotest.(check (list int)) "cut vertex" [ 2 ]
    (Biconnectivity.articulation_points g);
  Alcotest.(check (list (pair int int))) "no bridges" []
    (Biconnectivity.bridges g);
  Alcotest.(check int) "two blocks" 2
    (List.length (Biconnectivity.biconnected_components g))

let test_bridges_path () =
  let g = Gen.path 5 in
  Alcotest.(check int) "all edges are bridges" 4
    (List.length (Biconnectivity.bridges g));
  Alcotest.(check (list int)) "inner vertices cut" [ 1; 2; 3 ]
    (Biconnectivity.articulation_points g)

let test_biconnected_families () =
  Alcotest.(check bool) "cycle" true (Biconnectivity.is_biconnected (Gen.cycle 6));
  Alcotest.(check bool) "clique" true (Biconnectivity.is_biconnected (Gen.clique 5));
  Alcotest.(check bool) "path" false (Biconnectivity.is_biconnected (Gen.path 5));
  Alcotest.(check bool) "tiny" false (Biconnectivity.is_biconnected (Gen.path 2))

let prop_articulation_iff_k1 =
  QCheck.Test.make
    ~name:"articulation point exists iff vertex connectivity = 1" ~count:40
    QCheck.(pair (int_range 4 20) (int_range 0 25))
    (fun (n, extra) ->
      let g = Gen.random_connected (rng ()) ~n ~extra in
      let has_cut_vertex = Biconnectivity.articulation_points g <> [] in
      let k = Connectivity.vertex_connectivity g in
      (k = 1) = has_cut_vertex || n <= 2)

let prop_bridge_iff_lambda1 =
  QCheck.Test.make ~name:"bridge exists iff edge connectivity = 1" ~count:40
    QCheck.(pair (int_range 4 20) (int_range 0 25))
    (fun (n, extra) ->
      let g = Gen.random_connected (rng ()) ~n ~extra in
      (Connectivity.edge_connectivity g = 1) = (Biconnectivity.bridges g <> []))

let prop_blocks_partition_edges =
  QCheck.Test.make
    ~name:"biconnected components partition the edge set" ~count:40
    QCheck.(pair (int_range 3 20) (int_range 0 25))
    (fun (n, extra) ->
      let g = Gen.random_connected (rng ()) ~n ~extra in
      let blocks = Biconnectivity.biconnected_components g in
      let all = List.concat blocks |> List.sort compare in
      let expected =
        Graph.fold_edges (fun acc u v -> (u, v) :: acc) [] g |> List.sort compare
      in
      all = expected)

(* ------------------------------------------------------------------ *)
(* Sparse certificates *)

let test_certificate_forests_disjoint () =
  let g = Gen.clique 10 in
  let forests = Certificate.forest_decomposition g ~k:4 in
  Alcotest.(check int) "four forests" 4 (List.length forests);
  let seen = Hashtbl.create 64 in
  List.iter
    (fun f ->
      List.iter
        (fun e ->
          Alcotest.(check bool) "edge used once" false (Hashtbl.mem seen e);
          Hashtbl.replace seen e ())
        f)
    forests;
  (* first forest of a connected graph is a spanning tree *)
  Alcotest.(check int) "first forest spans" 9
    (List.length (List.hd forests))

let test_certificate_size_bound () =
  let g = Gen.clique 12 in
  let cert = Certificate.sparse_certificate g ~k:3 in
  Alcotest.(check bool) "at most k(n-1) edges" true
    (Graph.m cert <= 3 * 11)

let test_certificate_preserves_lambda () =
  List.iter
    (fun (k, lambda) ->
      let g = Gen.harary ~k:lambda ~n:24 in
      Alcotest.(check bool)
        (Printf.sprintf "certifies k=%d lambda=%d" k lambda)
        true
        (Certificate.certifies_edge_connectivity g ~k))
    [ (2, 4); (4, 4); (6, 4); (3, 6); (8, 6) ]

let prop_certificate_edge_cuts =
  QCheck.Test.make
    ~name:"certificate preserves min(lambda, k) on random graphs" ~count:25
    QCheck.(pair (int_range 6 20) (int_range 1 5))
    (fun (n, k) ->
      let g = Gen.random_connected (rng ()) ~n ~extra:(2 * n) in
      Certificate.certifies_edge_connectivity g ~k)

(* ------------------------------------------------------------------ *)
(* Sampling *)

let test_edge_partition_covers () =
  let g = Gen.clique 8 in
  let parts, part_of = Sampling.edge_partition (rng ()) g ~eta:3 in
  Alcotest.(check int) "three parts" 3 (Array.length parts);
  Alcotest.(check int) "one draw per edge" (Graph.m g) (Array.length part_of);
  let total = Array.fold_left (fun acc h -> acc + Graph.m h) 0 parts in
  Alcotest.(check int) "edges conserved" (Graph.m g) total;
  Array.iter
    (fun h -> Alcotest.(check int) "same vertex set" 8 (Graph.n h))
    parts

let test_suggested_eta () =
  Alcotest.(check int) "small lambda gives 1" 1
    (Sampling.suggested_eta ~lambda:4 ~n:100 ~eps:0.5);
  let eta = Sampling.suggested_eta ~lambda:4000 ~n:100 ~eps:0.5 in
  Alcotest.(check bool) "large lambda gives > 1" true (eta > 1)

let prop_partition_conserves_edges =
  QCheck.Test.make ~name:"edge partition conserves every edge exactly once"
    ~count:30
    QCheck.(pair (int_range 4 20) (int_range 1 6))
    (fun (n, eta) ->
      let g = Gen.clique n in
      let parts, part_of = Sampling.edge_partition (rng ()) g ~eta in
      let seen = Hashtbl.create 64 in
      Array.iter
        (fun h -> Graph.iter_edges (fun u v -> Hashtbl.add seen (u, v) ()) h)
        parts;
      (* the draw names, by edge id, the one part that holds the edge *)
      let eu, ev = Graph.csr_endpoints g in
      let drawn = ref true in
      Array.iteri
        (fun e i ->
          Array.iteri
            (fun j h ->
              if Graph.mem_edge h eu.(e) ev.(e) <> (i = j) then drawn := false)
            parts)
        part_of;
      Hashtbl.length seen = Graph.m g
      && Graph.fold_edges (fun acc u v -> acc && Hashtbl.mem seen (u, v)) true g
      && Array.length part_of = Graph.m g
      && !drawn)

(* ------------------------------------------------------------------ *)
(* IO *)

let test_io_roundtrip () =
  let g = Gen.random_connected (rng ()) ~n:20 ~extra:15 in
  let path = Filename.temp_file "graph" ".txt" in
  Io.save path g;
  let g2 = Io.load path in
  Sys.remove path;
  Alcotest.(check int) "n preserved" (Graph.n g) (Graph.n g2);
  Alcotest.(check int) "m preserved" (Graph.m g) (Graph.m g2);
  Graph.iter_edges
    (fun u v ->
      Alcotest.(check bool) "edge preserved" true (Graph.mem_edge g2 u v))
    g

let test_io_header_isolated () =
  (* "# n" header keeps trailing isolated vertices *)
  let path = Filename.temp_file "graph" ".txt" in
  let oc = open_out path in
  output_string oc "# n 5\n0 1\n";
  close_out oc;
  let g = Io.load path in
  Sys.remove path;
  Alcotest.(check int) "declared n" 5 (Graph.n g);
  Alcotest.(check int) "one edge" 1 (Graph.m g)

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "graphs"
    [
      ( "union_find",
        [
          Alcotest.test_case "basic" `Quick test_uf_basic;
          Alcotest.test_case "groups" `Quick test_uf_groups;
          Alcotest.test_case "copy" `Quick test_uf_copy_independent;
        ] );
      qsuite "union_find.props" [ prop_uf_transitive; prop_uf_count ];
      ( "graph",
        [
          Alcotest.test_case "basic" `Quick test_graph_basic;
          Alcotest.test_case "rejects" `Quick test_graph_rejects;
          Alcotest.test_case "induced" `Quick test_graph_induced;
          Alcotest.test_case "edge_index" `Quick test_graph_edge_index;
          Alcotest.test_case "spanning_subgraph" `Quick test_spanning_subgraph;
        ] );
      qsuite "graph.csr-vs-model"
        [
          prop_csr_matches_model_queries;
          prop_csr_slots_consistent;
          prop_induced_matches_model;
          prop_spanning_subgraph_matches_model;
        ];
      ( "traversal",
        [
          Alcotest.test_case "bfs path" `Quick test_bfs_path;
          Alcotest.test_case "bfs unreachable" `Quick test_bfs_unreachable;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "diameter" `Quick test_diameter;
          Alcotest.test_case "diameter 2approx" `Quick test_diameter_2approx;
        ] );
      qsuite "traversal.props" [ prop_diameter_2approx ];
      ( "mst",
        [
          Alcotest.test_case "kruskal" `Quick test_kruskal_simple;
          Alcotest.test_case "is_spanning_tree" `Quick test_is_spanning_tree;
        ] );
      ( "maxflow",
        [
          Alcotest.test_case "simple" `Quick test_maxflow_simple;
          Alcotest.test_case "min cut" `Quick test_maxflow_min_cut;
          Alcotest.test_case "edge pair" `Quick test_edge_connectivity_pair;
          Alcotest.test_case "vertex pair" `Quick test_vertex_connectivity_pair;
          Alcotest.test_case "path extraction" `Quick test_vertex_disjoint_paths;
        ] );
      qsuite "maxflow.props" [ prop_flow_equals_menger ];
      ( "connectivity",
        [
          Alcotest.test_case "edge families" `Quick
            test_edge_connectivity_families;
          Alcotest.test_case "vertex families" `Quick
            test_vertex_connectivity_families;
          Alcotest.test_case "min vertex cut" `Quick test_min_vertex_cut;
          Alcotest.test_case "sparsified lambda" `Quick test_sparsified_lambda;
          Alcotest.test_case "all min vertex cuts" `Quick
            test_all_min_vertex_cuts;
          Alcotest.test_case "is_k_connected" `Quick test_is_k_vertex_connected;
        ] );
      qsuite "connectivity.props"
        [ prop_harary_connectivity; prop_vertex_le_edge_le_mindeg;
          prop_menger_count; prop_lambda_differential ];
      ( "gen",
        [
          Alcotest.test_case "shapes" `Quick test_gen_shapes;
          Alcotest.test_case "harary odd/odd" `Quick test_harary_odd_odd;
          Alcotest.test_case "star of cliques" `Quick test_star_of_cliques;
          Alcotest.test_case "cds counterexample" `Quick test_cds_counterexample;
          Alcotest.test_case "footnote 3 brute force" `Quick
            test_no_two_disjoint_cds;
          Alcotest.test_case "random regular" `Quick test_random_regular;
          Alcotest.test_case "random tree" `Quick test_random_tree_is_tree;
        ] );
      qsuite "gen.props"
        [ prop_random_k_connected; prop_random_regular_degrees ];
      ( "domination",
        [
          Alcotest.test_case "predicates" `Quick test_domination_predicates;
          Alcotest.test_case "dominating tree" `Quick test_dominating_tree_check;
          Alcotest.test_case "greedy cds" `Quick test_greedy_cds;
          Alcotest.test_case "restricted cds" `Quick test_greedy_cds_within;
          Alcotest.test_case "restricted infeasible" `Quick
            test_greedy_cds_within_infeasible;
          Alcotest.test_case "exact minimum CDS" `Quick test_minimum_cds_exact;
        ] );
      qsuite "domination.props"
        [ prop_greedy_cds_valid; prop_greedy_cds_within_sound;
          prop_greedy_vs_optimum ];
      ( "biconnectivity",
        [
          Alcotest.test_case "articulation" `Quick test_articulation_basic;
          Alcotest.test_case "bridges" `Quick test_bridges_path;
          Alcotest.test_case "families" `Quick test_biconnected_families;
        ] );
      qsuite "biconnectivity.props"
        [ prop_articulation_iff_k1; prop_bridge_iff_lambda1;
          prop_blocks_partition_edges ];
      ( "certificate",
        [
          Alcotest.test_case "forests disjoint" `Quick
            test_certificate_forests_disjoint;
          Alcotest.test_case "size bound" `Quick test_certificate_size_bound;
          Alcotest.test_case "preserves lambda" `Quick
            test_certificate_preserves_lambda;
        ] );
      qsuite "certificate.props" [ prop_certificate_edge_cuts ];
      ( "sampling",
        [
          Alcotest.test_case "partition covers" `Quick test_edge_partition_covers;
          Alcotest.test_case "suggested eta" `Quick test_suggested_eta;
        ] );
      qsuite "sampling.props" [ prop_partition_conserves_edges ];
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "header" `Quick test_io_header_isolated;
        ] );
    ]
