(* Tests for the dominating-tree packing: virtual graph indexing, the
   centralized and distributed packing algorithms, packing verification,
   tree extraction, connector paths, the Appendix E tester, and the
   vertex-connectivity approximation. *)

open Graphs
open Domtree
module Union_find = Graphs.Union_find

let vnet g = Congest.Net.create Congest.Model.V_congest g

(* ------------------------------------------------------------------ *)
(* Virtual graph *)

let test_vg_indexing () =
  let g = Gen.cycle 5 in
  let vg = Virtual_graph.create g ~layers:6 in
  Alcotest.(check int) "count" (5 * 18) (Virtual_graph.count vg);
  (* round-trip all coordinates *)
  for real = 0 to 4 do
    for layer = 1 to 6 do
      for vtype = 1 to 3 do
        let id = Virtual_graph.vid vg ~real ~layer ~vtype in
        Alcotest.(check int) "real" real (Virtual_graph.real_of vg id);
        Alcotest.(check int) "layer" layer (Virtual_graph.layer_of vg id);
        Alcotest.(check int) "type" vtype (Virtual_graph.type_of vg id)
      done
    done
  done

let test_vg_ids_distinct () =
  let g = Gen.path 4 in
  let vg = Virtual_graph.create g ~layers:4 in
  let seen = Hashtbl.create 64 in
  for real = 0 to 3 do
    for layer = 1 to 4 do
      for vtype = 1 to 3 do
        let id = Virtual_graph.vid vg ~real ~layer ~vtype in
        Alcotest.(check bool) "fresh id" false (Hashtbl.mem seen id);
        Hashtbl.replace seen id ();
        Alcotest.(check bool) "in range" true (id >= 0 && id < Virtual_graph.count vg)
      done
    done
  done

let test_vg_adjacency () =
  let g = Gen.path 3 in
  let vg = Virtual_graph.create g ~layers:2 in
  let a = Virtual_graph.vid vg ~real:0 ~layer:1 ~vtype:1 in
  let a' = Virtual_graph.vid vg ~real:0 ~layer:2 ~vtype:3 in
  let b = Virtual_graph.vid vg ~real:1 ~layer:1 ~vtype:2 in
  let c = Virtual_graph.vid vg ~real:2 ~layer:1 ~vtype:1 in
  Alcotest.(check bool) "same real adjacent" true (Virtual_graph.adjacent vg a a');
  Alcotest.(check bool) "not self adjacent" false (Virtual_graph.adjacent vg a a);
  Alcotest.(check bool) "adjacent reals" true (Virtual_graph.adjacent vg a b);
  Alcotest.(check bool) "non-adjacent reals" false (Virtual_graph.adjacent vg a c);
  Alcotest.(check bool) "rejects odd layers" true
    (try
       ignore (Virtual_graph.create g ~layers:3);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Centralized packing *)

let check_packing_result g res =
  (* every virtual node got a class *)
  Array.iter
    (fun c ->
      Alcotest.(check bool) "class assigned" true
        (c >= 0 && c < res.Cds_packing.classes))
    res.Cds_packing.class_of;
  (* members consistent with class_of *)
  let n = Graph.n g in
  let per_real = Cds_packing.real_classes res in
  Array.iteri
    (fun i members ->
      Array.iter
        (fun r ->
          Alcotest.(check bool) "member listed in real_classes" true
            (List.mem i per_real.(r)))
        members;
      ignore i)
    res.Cds_packing.members;
  (* per-node load is at most 3 * layers *)
  let layers = Virtual_graph.layers res.Cds_packing.vg in
  for r = 0 to n - 1 do
    Alcotest.(check bool) "load O(log n)" true
      (List.length per_real.(r) <= 3 * layers)
  done

let test_pack_valid_on_harary () =
  let g = Gen.harary ~k:12 ~n:72 in
  let res = Cds_packing.pack ~seed:1 g ~k:12 in
  check_packing_result g res;
  let valid = Cds_packing.valid_classes res in
  Alcotest.(check int) "all classes valid" res.Cds_packing.classes
    (List.length valid);
  (* verified flags match direct predicates *)
  List.iter
    (fun i ->
      let members = res.Cds_packing.members.(i) in
      let in_set v = Array.exists (fun x -> x = v) members in
      Alcotest.(check bool) "dominating flag correct" true
        (Domination.is_dominating g in_set))
    valid

let test_pack_merges_components () =
  (* sparse jump-start on the clique path forces merging work *)
  let g = Gen.clique_path ~k:8 ~len:24 in
  let res = Cds_packing.run ~seed:3 ~jumpstart:1 g ~classes:10 ~layers:14 in
  let excess = res.Cds_packing.stats.Cds_packing.excess_after_layer in
  (match excess with
  | (_, m0) :: _ ->
    Alcotest.(check bool) "jump-start leaves work" true (m0 > 0)
  | [] -> Alcotest.fail "no stats");
  let _, last = List.nth excess (List.length excess - 1) in
  Alcotest.(check int) "all classes connected at the end" 0 last;
  Alcotest.(check int) "all valid" 10
    (List.length (Cds_packing.valid_classes res))

let test_excess_monotone () =
  let g = Gen.clique_path ~k:8 ~len:16 in
  let res = Cds_packing.run ~seed:5 ~jumpstart:1 g ~classes:8 ~layers:12 in
  let ms = List.map snd res.Cds_packing.stats.Cds_packing.excess_after_layer in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a >= b && monotone rest
    | _ -> true
  in
  (* Lemma 4.4 first part: M never increases *)
  Alcotest.(check bool) "M non-increasing" true (monotone ms)

(* Lemma 4.6: each class holds O(n log n / t) real vertices *)
let test_class_size_bound () =
  let n = 128 and k = 16 in
  let g = Gen.harary ~k ~n in
  let res = Cds_packing.pack ~seed:44 g ~k in
  let t = res.Cds_packing.classes in
  let bound =
    8. *. float_of_int n *. log (float_of_int n) /. float_of_int t
  in
  Array.iter
    (fun members ->
      Alcotest.(check bool)
        (Printf.sprintf "class size %d <= O(n log n / t) = %.0f"
           (Array.length members) bound)
        true
        (float_of_int (Array.length members) <= bound))
    res.Cds_packing.members

(* Theorem B.1 regression: the distributed run stays within the
   O~(D + sqrt n) budget on a standard instance *)
let test_dist_rounds_budget () =
  let n = 64 and k = 8 in
  let g = Gen.harary ~k ~n in
  let d = Traversal.diameter g in
  let net = vnet g in
  let _ = Dist_packing.pack ~seed:45 net ~k in
  let lg = log (float_of_int n) /. log 2. in
  let budget = (float_of_int d +. sqrt (float_of_int n)) *. (lg ** 3.) in
  Alcotest.(check bool)
    (Printf.sprintf "rounds %d <= budget %.0f" (Congest.Net.rounds net) budget)
    true
    (float_of_int (Congest.Net.rounds net) <= budget)

let prop_pack_classes_cover_all_vnodes =
  QCheck.Test.make ~name:"every virtual node is assigned exactly one class"
    ~count:10
    QCheck.(pair (int_range 12 40) (int_range 2 4))
    (fun (n, k) ->
      let g = Gen.harary ~k ~n in
      let res = Cds_packing.pack g ~k in
      Array.for_all (fun c -> c >= 0) res.Cds_packing.class_of)

(* ------------------------------------------------------------------ *)
(* Packing verification + tree extraction *)

let test_extract_valid_packing () =
  let g = Gen.harary ~k:10 ~n:60 in
  let res = Cds_packing.pack ~seed:2 g ~k:10 in
  let p = Tree_extract.of_cds_packing res in
  Alcotest.(check (list string)) "no violations" []
    (List.map (Format.asprintf "%a" Packing.pp_violation) (Packing.verify p));
  Alcotest.(check bool) "size positive" true (Packing.size p > 0.);
  Alcotest.(check bool) "load <= 1" true (Packing.max_node_load p <= 1. +. 1e-9)

(* the edge ids of [(u, v)] pairs of [g], ascending *)
let ids g es =
  let a = Array.of_list (List.map (fun (u, v) -> Graph.edge_index g u v) es) in
  Array.sort Int.compare a;
  a

let test_verify_rejects_bad_tree () =
  let g = Gen.cycle 6 in
  (* a "tree" with a cycle *)
  let bad =
    {
      Packing.graph = g;
      trees =
        [
          {
            Packing.cls = 0;
            vertices = [| 0; 1; 2; 3; 4; 5 |];
            edges = ids g [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (0, 5) ];
          };
        ];
      weights = [ 1. ];
    }
  in
  Alcotest.(check bool) "cycle rejected" false (Packing.is_valid bad)

let test_verify_rejects_non_dominating () =
  let g = Gen.path 9 in
  let bad =
    {
      Packing.graph = g;
      trees =
        [ { Packing.cls = 0; vertices = [| 0; 1 |]; edges = ids g [ (0, 1) ] } ];
      weights = [ 1. ];
    }
  in
  let violations = Packing.verify bad in
  Alcotest.(check bool) "non-dominating rejected" true
    (List.exists (function Packing.Not_dominating _ -> true | _ -> false)
       violations)

let test_verify_rejects_overload () =
  let g = Gen.clique 4 in
  let tree =
    { Packing.cls = 0; vertices = [| 0; 1; 2; 3 |];
      edges = ids g [ (0, 1); (1, 2); (2, 3) ] }
  in
  let bad = { Packing.graph = g; trees = [ tree; tree ]; weights = [ 0.7; 0.7 ] } in
  let violations = Packing.verify bad in
  Alcotest.(check bool) "overload rejected" true
    (List.exists (function Packing.Overloaded_vertex _ -> true | _ -> false)
       violations)

let test_integral_subpacking_disjoint () =
  let g = Gen.harary ~k:12 ~n:72 in
  let res = Cds_packing.pack ~seed:4 g ~k:12 in
  let p = Tree_extract.of_cds_packing res in
  let q = Tree_extract.integral_subpacking p in
  (* chosen trees pairwise vertex-disjoint *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun tr ->
      Array.iter
        (fun v ->
          Alcotest.(check bool) "vertex used once" false (Hashtbl.mem seen v);
          Hashtbl.replace seen v ())
        tr.Packing.vertices)
    q.Packing.trees;
  Alcotest.(check bool) "at least one tree" true (Packing.count q >= 1)

let test_tree_diameter_bound () =
  (* clique-path: diameter of each dominating tree should be O~(n/k) *)
  let k = 6 and len = 12 in
  let g = Gen.clique_path ~k ~len in
  let res = Cds_packing.pack ~seed:6 g ~k in
  let p = Tree_extract.of_cds_packing res in
  let nk = Graph.n g / k in
  Alcotest.(check bool) "diameter O~(n/k)" true
    (Packing.max_tree_diameter p <= 8 * nk)

(* failure injection: every mutation of a valid packing must be caught *)
let prop_verifier_catches_mutations =
  QCheck.Test.make ~name:"verifier rejects every mutation of a valid packing"
    ~count:20
    QCheck.(pair (int_range 0 3) small_int)
    (fun (mutation, seed) ->
      let g = Gen.harary ~k:8 ~n:40 in
      let res = Cds_packing.pack ~seed:(seed + 1) g ~k:8 in
      let p = Tree_extract.of_cds_packing res in
      QCheck.assume (Packing.count p >= 1);
      let mutate (tr : Packing.tree) =
        match mutation with
        | 0 ->
          (* drop a tree edge: disconnects the tree *)
          let es = tr.Packing.edges in
          if Array.length es > 0 then
            { tr with Packing.edges = Array.sub es 1 (Array.length es - 1) }
          else tr
        | 1 ->
          (* drop a vertex but keep its edges: edge outside the set *)
          let vs = tr.Packing.vertices in
          if Array.length vs > 1 then
            { tr with Packing.vertices = Array.sub vs 1 (Array.length vs - 1) }
          else tr
        | 2 ->
          (* add a fake edge, creating a cycle *)
          let vs = tr.Packing.vertices in
          if Array.length vs >= 3 then
            let u = vs.(0) and v = vs.(Array.length vs - 1) in
            if Graph.mem_edge g u v
               && not (Array.mem (Graph.edge_index g u v) tr.Packing.edges)
            then
              {
                tr with
                Packing.edges =
                  ids g
                    ((u, v)
                    :: List.map (Graph.edge_endpoints g)
                         (Array.to_list tr.Packing.edges));
              }
            else tr
          else tr
        | _ -> tr
      in
      match (p.Packing.trees, mutation) with
      | tr :: rest, m when m <= 2 ->
        let tr' = mutate tr in
        if tr' = tr then true (* mutation not applicable: vacuous *)
        else
          let bad = { p with Packing.trees = tr' :: rest } in
          not (Packing.is_valid bad)
      | _, _ ->
        (* mutation 3: overload by doubling every weight above 1 *)
        let bad =
          { p with Packing.weights = List.map (fun _ -> 0.9) p.Packing.weights }
        in
        if Packing.max_multiplicity p < 2 then true
        else not (Packing.is_valid bad))

let test_integral_layering () =
  let g = Gen.harary ~k:48 ~n:96 in
  let r = Integral_layering.run ~seed:21 g ~layers:8 in
  Alcotest.(check bool) "most layers succeed" true
    (r.Integral_layering.successes >= 4);
  let p = r.Integral_layering.packing in
  Alcotest.(check (list string)) "valid integral packing" []
    (List.map (Format.asprintf "%a" Packing.pp_violation) (Packing.verify p));
  (* vertex-disjointness: multiplicity exactly 1 *)
  Alcotest.(check int) "vertex-disjoint" 1 (Packing.max_multiplicity p)

let test_integral_layering_sparse_fails_gracefully () =
  (* a path cannot host CDSs inside thin random layers *)
  let g = Gen.path 20 in
  let r = Integral_layering.run ~seed:22 g ~layers:4 in
  Alcotest.(check bool) "no invalid trees" true
    (Packing.verify r.Integral_layering.packing = [])

let test_packing_serialization_roundtrip () =
  let g = Gen.harary ~k:8 ~n:40 in
  let res = Cds_packing.pack ~seed:33 g ~k:8 in
  let p = Tree_extract.of_cds_packing res in
  let path = Filename.temp_file "packing" ".txt" in
  Packing.save path p;
  let q = Packing.load path ~graph:g in
  Sys.remove path;
  Alcotest.(check int) "tree count" (Packing.count p) (Packing.count q);
  Alcotest.(check (float 1e-9)) "size" (Packing.size p) (Packing.size q);
  Alcotest.(check bool) "still valid" true (Packing.is_valid q);
  Alcotest.(check bool) "same trees" true (q.Packing.trees = p.Packing.trees);
  let load text =
    let path = Filename.temp_file "packing" ".txt" in
    Out_channel.with_open_text path (fun oc -> output_string oc text);
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () -> Packing.load path ~graph:(Gen.cycle 6))
  in
  (* edges in any order, either orientation, load as ascending ids *)
  let q = load "tree 3 1\nv 0 1 2 3 4\ne 4 3\ne 0 1\ne 2 1\ne 2 3\n" in
  Alcotest.(check (list (array int))) "ascending ids" [ [| 0; 2; 3; 4 |] ]
    (List.map (fun tr -> tr.Packing.edges) q.Packing.trees);
  Alcotest.check_raises "pair outside the graph"
    (Failure "Packing.load: \"e 0 2\" is not an edge of the graph")
    (fun () -> ignore (load "tree 0 1\nv 0 1 2\ne 0 1\ne 0 2\n"))

(* ------------------------------------------------------------------ *)
(* Connector paths *)

let test_connector_validity () =
  let g = Gen.cycle 6 in
  (* class = {0, 3}: dominating, two singleton components at distance 3;
     the two arcs give two long connector paths *)
  let in_class v = v = 0 || v = 3 in
  let in_component v = v = 0 in
  let paths = Connector.enumerate g ~in_class ~in_component in
  Alcotest.(check bool) "found some" true (List.length paths >= 1);
  List.iter
    (fun p ->
      Alcotest.(check bool) "valid connector path" true
        (Connector.is_connector_path g ~in_class ~in_component p))
    paths

let test_connector_max_disjoint_cycle () =
  let g = Gen.cycle 6 in
  let in_class v = v = 0 || v = 3 in
  let in_component v = v = 0 in
  (* two disjoint routes around the cycle, each with two internals *)
  Alcotest.(check int) "two disjoint connectors" 2
    (Connector.max_disjoint g ~in_class ~in_component);
  (* beyond distance 3 no connector path can exist (condition (B)) *)
  let g8 = Gen.cycle 8 in
  Alcotest.(check int) "distance 4: none" 0
    (Connector.max_disjoint g8
       ~in_class:(fun v -> v = 0 || v = 4)
       ~in_component:(fun v -> v = 0))

let test_connector_short_path_rule () =
  (* star-like: class {1, 2} non-adjacent, sharing neighbor 0 *)
  let g = Graph.of_edges ~n:3 [ (0, 1); (0, 2) ] in
  let in_class v = v = 1 || v = 2 in
  let in_component v = v = 1 in
  let paths = Connector.enumerate g ~in_class ~in_component in
  Alcotest.(check int) "one short connector" 1 (List.length paths);
  Alcotest.(check bool) "it is short" true (Connector.is_short (List.hd paths))

let test_connector_condition_c () =
  (* u adjacent to both sides must not be the first internal of a long
     path: on a path 1-0-2, vertex 0 sees both; a long path through it
     would violate minimality *)
  let g = Graph.of_edges ~n:4 [ (1, 0); (0, 2); (0, 3); (3, 2) ] in
  let in_class v = v = 1 || v = 2 in
  let in_component v = v = 1 in
  let bad =
    { Connector.endpoint_in = 1; internals = [ 0; 3 ]; endpoint_out = 2 }
  in
  Alcotest.(check bool) "condition (C) rejects" false
    (Connector.is_connector_path g ~in_class ~in_component bad)

let test_connector_realization () =
  let g = Gen.cycle 6 in
  let vg = Virtual_graph.create g ~layers:4 in
  let in_class v = v = 0 || v = 3 in
  let in_component v = v = 0 in
  let paths = Connector.enumerate g ~in_class ~in_component in
  List.iter
    (fun p ->
      let vs = Connector.realize vg ~layer:3 p in
      match (p.Connector.internals, vs) with
      | [ x ], [ (id, 1) ] ->
        Alcotest.(check int) "short: type-1 on the internal" x
          (Virtual_graph.real_of vg id)
      | [ u; w ], [ (id2, 2); (id3, 3) ] ->
        Alcotest.(check int) "long: type-2 on the C side" u
          (Virtual_graph.real_of vg id2);
        Alcotest.(check int) "long: type-3 on the far side" w
          (Virtual_graph.real_of vg id3);
        Alcotest.(check int) "layer stamped" 3 (Virtual_graph.layer_of vg id2)
      | _ -> Alcotest.fail "unexpected realization shape")
    paths

(* Proposition 4.2: within one class, a type-2 internal vertex (the first
   internal of a long connector) serves at most one component. *)
let test_proposition_4_2 () =
  let g = Gen.clique_path ~k:6 ~len:10 in
  let n = Graph.n g in
  let rng = Random.State.make [| 42 |] in
  (* random sparse class *)
  for _trial = 1 to 5 do
    let member = Array.init n (fun _ -> Random.State.float rng 1. < 0.3) in
    let in_class v = member.(v) in
    if Domination.is_dominating g in_class then begin
      let sub =
        Graph.spanning_subgraph g (fun u v -> in_class u && in_class v)
      in
      let _, labels = Traversal.components sub in
      let roots = Hashtbl.create 8 in
      for v = 0 to n - 1 do
        if in_class v then Hashtbl.replace roots labels.(v) ()
      done;
      if Hashtbl.length roots >= 2 then begin
        (* first-internal (type-2) vertices per component *)
        let owner = Hashtbl.create 16 in
        Hashtbl.iter
          (fun root () ->
            let in_component v = in_class v && labels.(v) = root in
            List.iter
              (fun p ->
                match p.Connector.internals with
                | [ u; _ ] -> (
                  match Hashtbl.find_opt owner u with
                  | Some other ->
                    Alcotest.(check int)
                      "type-2 vertex serves one component" other root
                  | None -> Hashtbl.replace owner u root)
                | _ -> ())
              (Connector.enumerate g ~in_class ~in_component))
          roots
      end
    end
  done

let test_connector_abundance () =
  (* Lemma 4.3 on the hypercube: k = 4 *)
  let g = Gen.hypercube 4 in
  let audit =
    Connector.audit_jumpstart ~seed:3 g ~classes:4 ~layers:4 ~k:4
  in
  Alcotest.(check bool) "every component has >= k disjoint connectors" true
    audit.Connector.all_above_k

(* ------------------------------------------------------------------ *)
(* The [CGK SODA'14] explicit-connector baseline *)

let test_cgk_baseline_valid () =
  let g = Gen.harary ~k:9 ~n:54 in
  let res = Cgk_baseline.pack ~seed:17 g ~k:9 in
  Alcotest.(check int) "all classes valid" res.Cds_packing.classes
    (List.length (Cds_packing.valid_classes res));
  let p = Tree_extract.of_cds_packing res in
  Alcotest.(check (list string)) "extracted packing verifies" []
    (List.map (Format.asprintf "%a" Packing.pp_violation) (Packing.verify p))

let test_cgk_baseline_merges () =
  let g = Gen.clique_path ~k:8 ~len:16 in
  let res = Cgk_baseline.run ~seed:18 ~jumpstart:1 g ~classes:10 ~layers:12 in
  let excess = res.Cds_packing.stats.Cds_packing.excess_after_layer in
  (match excess with
  | (_, m0) :: _ -> Alcotest.(check bool) "initial components" true (m0 > 0)
  | [] -> Alcotest.fail "no stats");
  Alcotest.(check int) "all merged by explicit connectors" 10
    (List.length (Cds_packing.valid_classes res))

(* ------------------------------------------------------------------ *)
(* Multiflood (the virtual-graph meta-round simulation) *)

let test_multiflood_component_ids () =
  (* cycle of 6; class 0 = {0,1,2}, class 1 = {3,4,5}, both intervals:
     each class is one component, min ids 0 and 3 *)
  let g = Gen.cycle 6 in
  let net = vnet g in
  let memberships v = if v < 3 then [ 0 ] else [ 1 ] in
  let sl = Multiflood.layout ~n:6 memberships in
  let value = Multiflood.flood_min net sl ~init:(fun r _ -> r) in
  let at v i = value.(Multiflood.find sl v i) in
  for v = 0 to 2 do
    Alcotest.(check int) "class 0 cid" 0 (at v 0)
  done;
  for v = 3 to 5 do
    Alcotest.(check int) "class 1 cid" 3 (at v 1)
  done

let test_multiflood_split_class () =
  (* class 0 = {0, 3} on a cycle of 6: two separated singletons keep
     their own ids *)
  let g = Gen.cycle 6 in
  let net = vnet g in
  let memberships v = if v = 0 || v = 3 then [ 0 ] else [ 1 ] in
  let sl = Multiflood.layout ~n:6 memberships in
  let value = Multiflood.flood_min net sl ~init:(fun r _ -> r) in
  Alcotest.(check int) "cid of 0" 0 value.(Multiflood.find sl 0 0);
  Alcotest.(check int) "cid of 3" 3 value.(Multiflood.find sl 3 0)

let test_multiflood_overlapping_memberships () =
  (* every node in class 0; odd nodes also in class 1; rounds cost
     reflects two slots *)
  let g = Gen.path 5 in
  let net = vnet g in
  let memberships v = if v mod 2 = 1 then [ 0; 1 ] else [ 0 ] in
  let sl = Multiflood.layout ~n:5 memberships in
  let value = Multiflood.flood_min net sl ~init:(fun r _ -> r) in
  Alcotest.(check int) "class 0 connects everyone" 0
    value.(Multiflood.find sl 4 0);
  (* class 1 = {1, 3}: nodes 1 and 3 are not adjacent -> separate *)
  Alcotest.(check int) "class 1 of node 3" 3 value.(Multiflood.find sl 3 1);
  Alcotest.(check bool) "rounds > 0" true (Congest.Net.rounds net > 0)

let test_multiflood_repeated_class () =
  (* a repeated class shares its first slot's state: node 1 lists class
     0 twice, and [init] is asked only for the first of them *)
  let g = Gen.path 3 in
  let net = vnet g in
  let memberships v = if v = 1 then [ 0; 1; 0 ] else [ 0 ] in
  let sl = Multiflood.layout ~n:3 memberships in
  Alcotest.(check int) "first slot of class 0" 1 (Multiflood.find sl 1 0);
  Alcotest.(check int) "first slot of class 1" 2 (Multiflood.find sl 1 1);
  Alcotest.(check int) "no class 1 at node 0" (-1) (Multiflood.find sl 0 1);
  let asked = ref [] in
  let value =
    Multiflood.flood_min net sl ~init:(fun r s ->
        asked := s :: !asked;
        10 - r)
  in
  Alcotest.(check (list int)) "init per first slot" [ 0; 1; 2; 4 ]
    (List.sort Int.compare !asked);
  Alcotest.(check (array int)) "every slot at its component minimum"
    [| 8; 8; 9; 8; 8 |] value

let test_multiflood_neutral_silent () =
  (* on a path of 4 in one class, only node 2 holds a value: the
     neutral slots send nothing until they adopt it, and a flood of
     neutral values alone is one silent meta-round *)
  let g = Gen.path 4 in
  let sl = Multiflood.layout ~n:4 (fun _ -> [ 0 ]) in
  let net = vnet g in
  let value =
    Multiflood.flood_min net sl ~init:(fun r _ ->
        if r = 2 then 5 else Multiflood.neutral)
  in
  Alcotest.(check (array int)) "the one value everywhere" [| 5; 5; 5; 5 |]
    value;
  (* meta-round 1: node 2 sends (2 copies); 2: nodes 1-3 (5 copies);
     3: all four (6 copies), and nothing changes *)
  Alcotest.(check int) "rounds" 3 (Congest.Net.rounds net);
  Alcotest.(check int) "messages" 13 (Congest.Net.messages_sent net);
  let net = vnet g in
  let value =
    Multiflood.flood_min_on_change net sl ~init:(fun _ _ -> Multiflood.neutral)
  in
  Alcotest.(check (array int)) "on-change: all neutral"
    (Array.make 4 Multiflood.neutral) value;
  Alcotest.(check int) "on-change: no round" 0 (Congest.Net.rounds net);
  let net = vnet g in
  ignore
    (Multiflood.flood_min net sl ~init:(fun _ _ -> Multiflood.neutral));
  Alcotest.(check int) "all neutral: one quiescent round" 1
    (Congest.Net.rounds net);
  Alcotest.(check int) "all neutral: no message" 0
    (Congest.Net.messages_sent net)

let test_proposal_key () =
  List.iter
    (fun n ->
      let range = max 64 (n * n) in
      let key = Cds_packing.proposal_key ~n in
      List.iter
        (fun (v, who) ->
          let k = key v who in
          Alcotest.(check (pair int int))
            (Printf.sprintf "round trip n=%d v=%d who=%d" n v who)
            (v, who)
            (range - (k / n), k mod n);
          Alcotest.(check bool) "fits a word" true
            (k <= Congest.Model.max_word ~n))
        [ (0, 0); (0, n - 1); (range - 1, 0); (range - 1, n - 1); (range / 2, n / 2) ];
      (* ties on the value go to the smaller proposer; a larger value
         beats every proposer of a smaller one *)
      Alcotest.(check bool) "tie: smaller who first" true (key 7 0 < key 7 1);
      Alcotest.(check bool) "larger value first" true
        (key 8 (n - 1) < key 7 0);
      Alcotest.(check bool) "below neutral" true
        (key 0 (n - 1) < Multiflood.neutral))
    [ 2; 3; 48; 1 lsl 15; 1 lsl 20 ];
  (* past ~1.6M nodes (max 64 n^2) * n no longer fits a word *)
  let g = Graph.of_edges ~n:(1 lsl 21) [] in
  Alcotest.check_raises "n too large"
    (Invalid_argument
       "Cds_packing.run: n too large for a one-word B.3 proposal key")
    (fun () -> ignore (Cds_packing.run g ~classes:1 ~layers:4))

let test_multiflood_row () =
  (* node 1 lists class 3 twice; no node holds class 1, 4 or 5 *)
  let memberships v = if v = 1 then [ 3; 0; 3 ] else [ v ] in
  let sl = Multiflood.layout ~n:3 memberships in
  Alcotest.(check int) "universe" 4 sl.Multiflood.universe;
  Alcotest.(check int) "sized by the universe" 4
    (Array.length (Multiflood.row sl));
  let row = Multiflood.row ~classes:6 sl in
  Alcotest.(check int) "sized by the class count" 6 (Array.length row);
  for r = 0 to 2 do
    Multiflood.fill_row sl row r;
    Array.iteri
      (fun i s ->
        Alcotest.(check int)
          (Printf.sprintf "row %d class %d" r i)
          (Multiflood.find sl r i) s)
      row;
    Multiflood.clear_row sl row r;
    Alcotest.(check bool) "reset" true (Array.for_all (fun s -> s = -1) row)
  done;
  Alcotest.check_raises "negative class"
    (Invalid_argument "Multiflood.layout: negative class") (fun () ->
      ignore (Multiflood.layout ~n:2 (fun v -> [ v - 1 ])))

let test_membership_sweep_payload () =
  let g = Gen.path 3 in
  let net = vnet g in
  let memberships v = [ v mod 2 ] in
  let sl = Multiflood.layout ~n:3 memberships in
  let received = Array.make 3 [] in
  Multiflood.membership_sweep net sl
    ~payload:(fun r s -> [| (10 * r) + sl.Multiflood.cls.(s) |])
    ~recv:(fun r sender i m ->
      received.(r) <- (sender, i, Array.to_list m) :: received.(r));
  (* middle node hears both neighbors, in sender order *)
  Alcotest.(check (list (triple int int (list int))))
    "middle node" [ (0, 0, [ 0; 0 ]); (2, 0, [ 0; 20 ]) ]
    (List.rev received.(1));
  Alcotest.(check (list (triple int int (list int))))
    "end node" [ (1, 1, [ 1; 11 ]) ] received.(0)

(* Random memberships over [classes] classes: lists of 0 to [len - 1]
   uniform draws, so some nodes hold none, some classes go unused and
   some lists repeat a class. *)
let random_memberships rng ~n ~classes ~len =
  Array.init n (fun _ ->
      List.init (Random.State.int rng len) (fun _ ->
          Random.State.int rng classes))

let prop_flood_min_component_ids =
  QCheck.Test.make
    ~name:"flood_min (r, r) = min id of the class-component (union-find)"
    ~count:40 QCheck.small_int (fun seed ->
      let rng = Random.State.make [| seed; 0xF1 |] in
      let n = 2 + Random.State.int rng 30 in
      let classes = 1 + Random.State.int rng 5 in
      let g = Gen.erdos_renyi rng ~n ~p:(Random.State.float rng 0.4) in
      let mem = random_memberships rng ~n ~classes ~len:4 in
      let sl = Multiflood.layout ~n (fun r -> mem.(r)) in
      let value = Multiflood.flood_min (vnet g) sl ~init:(fun r _ -> r) in
      let member i v = List.mem i mem.(v) in
      let ufs = Array.init classes (fun _ -> Union_find.create n) in
      Graph.iter_edges
        (fun u v ->
          for i = 0 to classes - 1 do
            if member i u && member i v then
              ignore (Union_find.union ufs.(i) u v)
          done)
        g;
      let comp_min = Array.make_matrix classes n max_int in
      for v = 0 to n - 1 do
        List.iter
          (fun i ->
            let root = Union_find.find ufs.(i) v in
            comp_min.(i).(root) <- min comp_min.(i).(root) v)
          mem.(v)
      done;
      let ok = ref true in
      for r = 0 to n - 1 do
        for s = sl.Multiflood.off.(r) to sl.Multiflood.off.(r + 1) - 1 do
          let i = sl.Multiflood.cls.(s) in
          let want = comp_min.(i).(Union_find.find ufs.(i) r) in
          if value.(s) <> want then ok := false
        done
      done;
      !ok)

(* A random graph, random multi-class memberships and a random live
   mask: the draws of the tester properties. *)
let tester_draw seed =
  let rng = Random.State.make [| seed; 0xE1 |] in
  let n = 2 + Random.State.int rng 24 in
  let classes = 1 + Random.State.int rng 3 in
  let g = Gen.random_connected rng ~n ~extra:(Random.State.int rng (2 * n)) in
  let mem = random_memberships rng ~n ~classes ~len:(2 * classes + 2) in
  let dead_p = if Random.State.bool rng then 0. else 0.1 in
  let alive = Array.init n (fun _ -> Random.State.float rng 1. >= dead_p) in
  (g, classes, (fun r -> mem.(r)), fun r -> alive.(r))

let prop_testers_agree =
  QCheck.Test.make
    ~name:"distributed and centralized testers agree on every verdict"
    ~count:40 QCheck.small_int (fun seed ->
      let g, classes, memberships, live = tester_draw seed in
      let d =
        Tester.run_distributed ~seed ~live (vnet g) ~memberships ~classes
          ~detection_rounds:12
      in
      let c =
        Tester.run_centralized ~seed ~live g ~memberships ~classes
          ~detection_rounds:12
      in
      d = c)

let prop_tester_central_ref =
  QCheck.Test.make ~name:"run_centralized = Tester_ref" ~count:200
    QCheck.(int_bound 99_999) (fun seed ->
      let g, classes, memberships, live = tester_draw seed in
      Tester.run_centralized ~seed ~live g ~memberships ~classes
        ~detection_rounds:12
      = Tester_ref.run ~seed ~live g ~memberships ~classes
          ~detection_rounds:12)

(* Every class is a connected dominating set: the internal nodes of a
   random spanning tree (n >= 3) plus random extras, each of which is
   adjacent to an internal node. Both testers must pass. *)
let prop_testers_pass_valid =
  QCheck.Test.make ~name:"both testers pass connected dominating classes"
    ~count:30 QCheck.small_int (fun seed ->
      let rng = Random.State.make [| seed; 0xE2 |] in
      let n = 3 + Random.State.int rng 24 in
      let classes = 1 + Random.State.int rng 4 in
      let g = Gen.random_connected rng ~n ~extra:(Random.State.int rng n) in
      let mem = Array.make n [] in
      for i = 0 to classes - 1 do
        (* a BFS tree from a random root; its non-leaves form a CDS *)
        let root = Random.State.int rng n in
        let parent = Array.make n (-1) in
        parent.(root) <- root;
        let q = Queue.create () in
        Queue.add root q;
        let internal = Array.make n false in
        while not (Queue.is_empty q) do
          let u = Queue.pop q in
          Array.iter
            (fun v ->
              if parent.(v) < 0 then begin
                parent.(v) <- u;
                internal.(u) <- true;
                Queue.add v q
              end)
            (Graph.neighbors g u)
        done;
        for v = 0 to n - 1 do
          if internal.(v) || Random.State.int rng 4 = 0 then begin
            mem.(v) <- i :: mem.(v);
            if Random.State.int rng 5 = 0 then mem.(v) <- mem.(v) @ [ i ]
          end
        done
      done;
      let memberships r = mem.(r) in
      let d =
        Tester.run_distributed ~seed (vnet g) ~memberships ~classes
          ~detection_rounds:12
      in
      let c =
        Tester.run_centralized ~seed g ~memberships ~classes
          ~detection_rounds:12
      in
      d.Tester.pass && c.Tester.pass)

(* ------------------------------------------------------------------ *)
(* Tester (Appendix E) *)

(* a hand-built disconnected-but-dominating class: blocks 0 and 2 of a
   3-block clique path in class 0, the rest in class 1 *)
let split_class_instance () =
  let k = 6 in
  let g = Gen.clique_path ~k ~len:3 in
  let memberships v =
    let block = v / k in
    if block = 1 then [ 1 ] else [ 0; 1 ]
  in
  (g, memberships)

let test_tester_passes_valid () =
  let g = Gen.harary ~k:8 ~n:48 in
  let res = Cds_packing.pack ~seed:7 g ~k:8 in
  let per_real = Cds_packing.real_classes res in
  let outcome =
    Tester.run_centralized g
      ~memberships:(fun r -> per_real.(r))
      ~classes:res.Cds_packing.classes ~detection_rounds:24
  in
  Alcotest.(check bool) "valid packing passes" true outcome.Tester.pass

let test_tester_detects_disconnected_centralized () =
  let g, memberships = split_class_instance () in
  let outcome =
    Tester.run_centralized g ~memberships ~classes:2 ~detection_rounds:24
  in
  Alcotest.(check bool) "domination fine" true outcome.Tester.domination_ok;
  Alcotest.(check bool) "disconnect detected" false outcome.Tester.pass

let test_tester_detects_disconnected_distributed () =
  let g, memberships = split_class_instance () in
  let net = vnet g in
  let outcome =
    Tester.run_distributed net ~memberships ~classes:2 ~detection_rounds:24
  in
  Alcotest.(check bool) "disconnect detected (dist)" false outcome.Tester.pass;
  Alcotest.(check bool) "rounds charged" true (Congest.Net.rounds net > 0)

let test_tester_detects_non_domination () =
  let g = Gen.path 8 in
  (* class 1 = {0}: does not dominate the far end *)
  let memberships v = if v = 0 then [ 0; 1 ] else [ 0 ] in
  let outcome =
    Tester.run_centralized g ~memberships ~classes:2 ~detection_rounds:8
  in
  Alcotest.(check bool) "domination failure" false outcome.Tester.domination_ok;
  Alcotest.(check bool) "fails" false outcome.Tester.pass

let test_tester_distance3_detection () =
  (* components of class 0 at distance 3: needs the random rounds *)
  let k = 5 in
  let g = Gen.clique_path ~k ~len:4 in
  let memberships v =
    let block = v / k in
    if block = 0 || block = 3 then [ 0; 1 ] else [ 1 ]
  in
  let outcome =
    Tester.run_centralized ~seed:13 g ~memberships ~classes:2
      ~detection_rounds:40
  in
  Alcotest.(check bool) "distance-3 disconnect detected" false
    outcome.Tester.pass

let test_tester_detection_rate () =
  (* Lemma E.1: a disconnected class is detected w.h.p. Measure the
     empirical detection rate of the randomized tester over 100
     independent seeds on a hand-built broken partition. *)
  let g, memberships = split_class_instance () in
  let trials = 100 in
  let detected = ref 0 in
  for seed = 1 to trials do
    let outcome =
      Tester.run_centralized ~seed g ~memberships ~classes:2
        ~detection_rounds:24
    in
    if not outcome.Tester.pass then incr detected
  done;
  Alcotest.(check bool)
    (Printf.sprintf "detection rate %d/%d clears the w.h.p. bound" !detected
       trials)
    true (!detected >= 95)

let test_tester_no_false_positives () =
  (* the other half of Lemma E.1: a valid partition always passes *)
  let g = Gen.harary ~k:8 ~n:48 in
  let res = Cds_packing.pack ~seed:7 g ~k:8 in
  let per_real = Cds_packing.real_classes res in
  let passes = ref 0 in
  for seed = 1 to 100 do
    let outcome =
      Tester.run_centralized ~seed g
        ~memberships:(fun r -> per_real.(r))
        ~classes:res.Cds_packing.classes ~detection_rounds:24
    in
    if outcome.Tester.pass then incr passes
  done;
  Alcotest.(check int) "valid partition passes on every seed" 100 !passes

(* ------------------------------------------------------------------ *)
(* Verify-and-retry pipeline *)

let test_reliable_verifies_first_try () =
  let g = Gen.harary ~k:8 ~n:48 in
  let r = Reliable.pack_verified ~seed:7 g ~k:8 in
  Alcotest.(check bool) "verified" true r.Reliable.verified;
  Alcotest.(check int) "no retries" 0 r.Reliable.retries;
  Alcotest.(check int) "one attempt" 1 (List.length r.Reliable.attempts);
  Alcotest.(check int) "centralized: no rounds" 0 r.Reliable.rounds_charged

let test_reliable_exhausts_retries () =
  (* an over-ambitious configuration (10 classes, 2 layers on a k=8
     graph) keeps failing the tester: the bounded retry policy must
     stop after max_retries and report verified=false *)
  let g = Gen.harary ~k:8 ~n:48 in
  let r =
    Reliable.run_verified ~seed:7 ~max_retries:3 g ~classes:10 ~layers:2
  in
  Alcotest.(check bool) "not verified" false r.Reliable.verified;
  Alcotest.(check int) "all attempts used" 4 (List.length r.Reliable.attempts);
  Alcotest.(check int) "retries counted" 3 r.Reliable.retries;
  let seeds =
    List.map (fun a -> a.Reliable.attempt_seed) r.Reliable.attempts
  in
  Alcotest.(check int) "fresh decorrelated seed per attempt" 4
    (List.length (List.sort_uniq compare seeds));
  List.iter
    (fun (a : Reliable.attempt) ->
      Alcotest.(check bool) "every attempt failed the tester" false
        a.outcome.Tester.pass)
    r.Reliable.attempts

let test_reliable_distributed_charges_rounds () =
  let g = Gen.harary ~k:8 ~n:48 in
  let net = vnet g in
  let r = Reliable.pack_verified_distributed ~seed:7 net ~k:8 in
  Alcotest.(check bool) "verified" true r.Reliable.verified;
  Alcotest.(check int) "rounds_charged = clock delta"
    (Congest.Net.rounds net) r.Reliable.rounds_charged;
  Alcotest.(check bool) "packing + tester cost rounds" true
    (r.Reliable.rounds_charged > 0)

let test_reliable_distributed_backoff () =
  (* a flaky distributed config: each retry is preceded by 2^attempt
     silent rounds charged to the CONGEST clock *)
  let g = Gen.harary ~k:8 ~n:48 in
  let net = vnet g in
  let r =
    Reliable.run_verified_distributed ~seed:7 ~max_retries:2 net ~classes:10
      ~layers:2
  in
  Alcotest.(check bool) "not verified" false r.Reliable.verified;
  Alcotest.(check int) "attempts = max_retries + 1" 3
    (List.length r.Reliable.attempts);
  Alcotest.(check int) "clock delta matches" (Congest.Net.rounds net)
    r.Reliable.rounds_charged

(* ------------------------------------------------------------------ *)
(* Reliable edge cases *)

let test_reliable_max_retries_zero () =
  (* max_retries = 0: exactly one attempt, no retry even on failure *)
  let g = Gen.harary ~k:8 ~n:48 in
  let r = Reliable.run_verified ~seed:7 ~max_retries:0 g ~classes:10 ~layers:2 in
  Alcotest.(check bool) "not verified" false r.Reliable.verified;
  Alcotest.(check int) "single attempt" 1 (List.length r.Reliable.attempts);
  Alcotest.(check int) "no retries" 0 r.Reliable.retries

let test_reliable_all_fail_keeps_last_packing () =
  (* every attempt fails: the last packing is returned, and the result's
     memberships are exactly that packing's live view *)
  let g = Gen.harary ~k:8 ~n:48 in
  let r =
    Reliable.run_verified ~seed:7 ~max_retries:2 g ~classes:10 ~layers:2
  in
  Alcotest.(check bool) "not verified" false r.Reliable.verified;
  Alcotest.(check int) "attempts" 3 (List.length r.Reliable.attempts);
  let per_real = Cds_packing.real_classes r.Reliable.packing in
  Array.iteri
    (fun v ls ->
      Alcotest.(check (list int))
        "memberships mirror the last packing" (List.sort_uniq compare per_real.(v))
        ls)
    r.Reliable.memberships

let test_reliable_rounds_exact_accounting () =
  (* rounds_charged = sum of attempt rounds + sum of backoffs, exactly *)
  let g = Gen.harary ~k:8 ~n:48 in
  let net = vnet g in
  let r =
    Reliable.run_verified_distributed ~seed:7 ~max_retries:2 net ~classes:10
      ~layers:2
  in
  Alcotest.(check bool) "not verified" false r.Reliable.verified;
  let attempt_sum =
    List.fold_left (fun a x -> a + x.Reliable.attempt_rounds) 0
      r.Reliable.attempts
  in
  let backoff_sum =
    (* backoff fires after each failed attempt except the last *)
    List.init r.Reliable.retries Reliable.default_backoff
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check int) "rounds = attempts + backoffs"
    (attempt_sum + backoff_sum) r.Reliable.rounds_charged;
  Alcotest.(check int) "clock delta matches" (Congest.Net.rounds net)
    r.Reliable.rounds_charged

let test_reliable_round_budget_truncates () =
  (* a deadline-derived round budget of 1: the first attempt always
     runs (a budget never yields an empty result), but the retry ladder
     is cut immediately after, with the exhaustion reported and the
     accounting invariant intact *)
  let g = Gen.harary ~k:8 ~n:48 in
  let net = vnet g in
  let r =
    Reliable.run_verified_distributed ~seed:7 ~max_retries:4 ~round_budget:1
      net ~classes:10 ~layers:2
  in
  Alcotest.(check bool) "not verified" false r.Reliable.verified;
  Alcotest.(check bool) "budget exhaustion reported" true
    r.Reliable.budget_exhausted;
  Alcotest.(check int) "single attempt despite max_retries=4" 1
    (List.length r.Reliable.attempts);
  Alcotest.(check int) "no retries" 0 r.Reliable.retries;
  (* no backoff was charged: rounds_charged is exactly the attempt *)
  let attempt_sum =
    List.fold_left (fun a x -> a + x.Reliable.attempt_rounds) 0
      r.Reliable.attempts
  in
  Alcotest.(check int) "rounds = the one attempt, no backoff" attempt_sum
    r.Reliable.rounds_charged;
  Alcotest.(check int) "clock delta matches" (Congest.Net.rounds net)
    r.Reliable.rounds_charged

let test_reliable_retries_exhausted_is_not_budget () =
  (* running out of max_retries is not a budget exhaustion: the flag
     must stay false when no round_budget was given *)
  let g = Gen.harary ~k:8 ~n:48 in
  let net = vnet g in
  let r =
    Reliable.run_verified_distributed ~seed:7 ~max_retries:1 net ~classes:10
      ~layers:2
  in
  Alcotest.(check bool) "not verified" false r.Reliable.verified;
  Alcotest.(check bool) "not a budget exhaustion" false
    r.Reliable.budget_exhausted;
  Alcotest.(check int) "all attempts used" 2 (List.length r.Reliable.attempts)

let test_reliable_budget_allows_retries_within () =
  (* a generous budget must change nothing: same attempts, same rounds
     as the unbudgeted run, flag false *)
  let g = Gen.harary ~k:8 ~n:48 in
  let unbudgeted =
    Reliable.run_verified_distributed ~seed:7 ~max_retries:2 (vnet g)
      ~classes:10 ~layers:2
  in
  let budgeted =
    Reliable.run_verified_distributed ~seed:7 ~max_retries:2
      ~round_budget:(10 * unbudgeted.Reliable.rounds_charged)
      (vnet g) ~classes:10 ~layers:2
  in
  Alcotest.(check bool) "flag false" false budgeted.Reliable.budget_exhausted;
  Alcotest.(check int) "same attempts"
    (List.length unbudgeted.Reliable.attempts)
    (List.length budgeted.Reliable.attempts);
  Alcotest.(check int) "same rounds" unbudgeted.Reliable.rounds_charged
    budgeted.Reliable.rounds_charged

let test_reliable_repair_retains_nothing () =
  (* extinction: with every node dead, repair has nothing to splice and
     drops every class outright *)
  let g = Gen.harary ~k:8 ~n:48 in
  let dead _ = false in
  let rep_direct =
    Domtree.Repair.run_centralized ~live:dead g
      ~memberships:(fun v -> [ v mod 2 ])
      ~classes:2
  in
  Alcotest.(check (list int)) "repair retains nothing" []
    rep_direct.Domtree.Repair.r_retained;
  (* two isolated survivors (0 and 24 are >1 hop apart in this
     circulant, so no live node can bridge them): each class ends with
     both survivors as members in two fragments, the splice loop finds
     no live bridge, and every class is dropped — repair retains
     nothing, the Repair policy falls back to reseeded retries, and the
     centralized pipeline charges exactly zero rounds.  (A fully dead
     graph would not do: the tester passes vacuously when nobody is
     alive to witness a violation.) *)
  let live v = v = 0 || v = 24 in
  let r =
    Reliable.run_verified ~seed:7 ~max_retries:2 ~policy:`Repair ~live g
      ~classes:10 ~layers:2
  in
  Alcotest.(check bool) "not verified" false r.Reliable.verified;
  Alcotest.(check int) "all attempts used" 3 (List.length r.Reliable.attempts);
  List.iter
    (fun (a : Reliable.attempt) ->
      Alcotest.(check bool) "repair was attempted each time" true a.repaired)
    r.Reliable.attempts;
  Alcotest.(check int) "centralized: exactly zero rounds charged" 0
    r.Reliable.rounds_charged;
  Alcotest.(check bool) "no repair in the result" true
    (r.Reliable.repair = None)

(* ------------------------------------------------------------------ *)
(* Repair *)

let test_repair_fixes_split_class () =
  (* class 0 is dominating but split in two fragments at distance 3:
     repair must splice it without touching the healthy class 1 *)
  let g, memberships = split_class_instance () in
  let rep = Repair.run_centralized g ~memberships ~classes:2 in
  Alcotest.(check bool) "class 0 repaired" true
    (rep.Repair.r_status.(0) = Repair.Repaired);
  Alcotest.(check bool) "class 1 healthy" true
    (rep.Repair.r_status.(1) = Repair.Healthy);
  Alcotest.(check (list int)) "both retained" [ 0; 1 ] rep.Repair.r_retained;
  Alcotest.(check bool) "splices happened" true (rep.Repair.r_splices > 0);
  let o =
    Tester.run_centralized g
      ~memberships:(fun r -> rep.Repair.r_memberships.(r))
      ~classes:2 ~detection_rounds:24
  in
  Alcotest.(check bool) "repaired packing passes the tester" true
    o.Tester.pass

let test_repair_distributed_matches_and_charges () =
  let g, memberships = split_class_instance () in
  let net = vnet g in
  let rep = Repair.run_distributed net ~memberships ~classes:2 in
  Alcotest.(check (list int)) "both retained" [ 0; 1 ] rep.Repair.r_retained;
  Alcotest.(check bool) "rounds charged" true (rep.Repair.r_rounds > 0);
  Alcotest.(check int) "rounds match the clock" (Congest.Net.rounds net)
    rep.Repair.r_rounds;
  let o =
    Tester.run_centralized g
      ~memberships:(fun r -> rep.Repair.r_memberships.(r))
      ~classes:2 ~detection_rounds:24
  in
  Alcotest.(check bool) "repaired packing passes the tester" true o.Tester.pass

let test_repair_healthy_untouched () =
  (* a valid packing must come back byte-identical: no orphans, no
     splices, every class Healthy *)
  let g = Gen.harary ~k:8 ~n:48 in
  let res = Cds_packing.pack ~seed:7 g ~k:8 in
  let per_real = Cds_packing.real_classes res in
  let rep =
    Repair.run_centralized g
      ~memberships:(fun r -> per_real.(r))
      ~classes:res.Cds_packing.classes
  in
  Alcotest.(check int) "no orphans" 0 rep.Repair.r_orphans;
  Alcotest.(check int) "no splices" 0 rep.Repair.r_splices;
  Array.iter
    (fun s ->
      Alcotest.(check bool) "healthy" true (s = Repair.Healthy))
    rep.Repair.r_status;
  Array.iteri
    (fun v ls ->
      Alcotest.(check (list int))
        "memberships unchanged" (List.sort_uniq compare per_real.(v)) ls)
    rep.Repair.r_memberships

let test_repair_under_crashes () =
  (* crash a handful of nodes out of a verified packing; repair must
     yield classes that pass the live tester *)
  let g = Gen.harary ~k:8 ~n:48 in
  let res = Cds_packing.pack ~seed:7 g ~k:8 in
  let per_real = Cds_packing.real_classes res in
  let victims = [ 3; 17; 29 ] in
  let live u = not (List.mem u victims) in
  let rep =
    Repair.run_centralized ~live g
      ~memberships:(fun r -> per_real.(r))
      ~classes:res.Cds_packing.classes
  in
  Alcotest.(check bool) "something retained" true
    (rep.Repair.r_retained <> []);
  List.iter
    (fun v ->
      Alcotest.(check (list int)) "victims hold nothing" []
        rep.Repair.r_memberships.(v))
    victims;
  (* retest the retained classes, remapped, on the live graph *)
  let retained = rep.Repair.r_retained in
  let idx = Array.make res.Cds_packing.classes (-1) in
  List.iteri (fun j i -> idx.(i) <- j) retained;
  let memfn r =
    List.filter_map
      (fun i -> if idx.(i) >= 0 then Some idx.(i) else None)
      rep.Repair.r_memberships.(r)
  in
  let o =
    Tester.run_centralized ~live g ~memberships:memfn
      ~classes:(List.length retained) ~detection_rounds:24
  in
  Alcotest.(check bool) "retained classes pass the live tester" true
    o.Tester.pass

let test_repair_drops_unfixable () =
  (* kill the whole middle block of a 3-block clique path: the live
     graph is disconnected, so no class can stay a connected dominating
     set — graceful degradation must drop them all, not loop *)
  let k = 6 in
  let g = Gen.clique_path ~k ~len:3 in
  let memberships v = if v / k = 1 then [ 1 ] else [ 0; 1 ] in
  let live v = v / k <> 1 in
  let rep = Repair.run_centralized ~live g ~memberships ~classes:2 in
  Alcotest.(check (list int)) "all dropped" [ 0; 1 ] rep.Repair.r_dropped;
  Alcotest.(check (list int)) "nothing retained" [] rep.Repair.r_retained;
  Array.iter
    (fun ls -> Alcotest.(check (list int)) "memberships emptied" [] ls)
    rep.Repair.r_memberships

(* A random graph, random multi-class memberships and a random live
   mask: the draws of the repair properties. *)
let repair_draw seed =
  let rng = Random.State.make [| seed; 0xA1 |] in
  let g =
    match Random.State.int rng 3 with
    | 0 ->
      let k = 2 * (1 + Random.State.int rng 3) in
      Gen.harary ~k ~n:(k + 2 + Random.State.int rng 20)
    | 1 -> Gen.cycle (3 + Random.State.int rng 30)
    | _ ->
      Gen.clique_path
        ~k:(2 + Random.State.int rng 4)
        ~len:(2 + Random.State.int rng 5)
  in
  let n = Graph.n g in
  let classes = 1 + Random.State.int rng 4 in
  let mem = random_memberships rng ~n ~classes ~len:(classes + 2) in
  let dead_p = if Random.State.bool rng then 0. else 0.1 in
  let alive = Array.init n (fun _ -> Random.State.float rng 1. >= dead_p) in
  (g, classes, (fun r -> mem.(r)), fun r -> alive.(r))

(* The central repair is the distributed one without a network: on
   random graphs, random multi-class memberships and a random live mask
   both return the same repair, fault-free. *)
let prop_repair_sides_agree =
  QCheck.Test.make ~name:"central = distributed" ~count:200
    QCheck.(int_bound 99_999) (fun seed ->
      let g, classes, memberships, live = repair_draw seed in
      let c = Repair.run_centralized ~live g ~memberships ~classes in
      let d = Repair.run_distributed ~live (vnet g) ~memberships ~classes in
      c.Repair.r_memberships = d.Repair.r_memberships
      && c.Repair.r_status = d.Repair.r_status
      && c.Repair.r_retained = d.Repair.r_retained
      && c.Repair.r_dropped = d.Repair.r_dropped
      && c.Repair.r_orphans = d.Repair.r_orphans
      && c.Repair.r_splices = d.Repair.r_splices)

let prop_repair_central_ref =
  QCheck.Test.make ~name:"run_centralized = Repair_ref" ~count:200
    QCheck.(int_bound 99_999) (fun seed ->
      let g, classes, memberships, live = repair_draw seed in
      Repair.run_centralized ~live g ~memberships ~classes
      = Repair_ref.run ~live g ~memberships ~classes)

(* ------------------------------------------------------------------ *)
(* Certificates *)

let test_certificate_valid_roundtrip () =
  let g = Gen.harary ~k:8 ~n:48 in
  let res = Cds_packing.pack ~seed:7 g ~k:8 in
  let per_real = Cds_packing.real_classes res in
  let memfn r = per_real.(r) in
  let cert =
    Certificate.build g ~memberships:memfn ~classes:res.Cds_packing.classes
      ~k:8
  in
  Alcotest.(check int) "all classes retained" res.Cds_packing.classes
    (Certificate.retained_count cert);
  Alcotest.(check bool) "not degraded" false (Certificate.degraded cert);
  Alcotest.(check bool) "meets the floor" true (Certificate.meets_target cert);
  match Certificate.check g ~memberships:memfn cert with
  | Ok () -> ()
  | Error es -> Alcotest.failf "check rejected: %s" (String.concat "; " es)

let test_certificate_rejects_mutations () =
  let g = Gen.harary ~k:8 ~n:48 in
  let res = Cds_packing.pack ~seed:7 g ~k:8 in
  let per_real = Cds_packing.real_classes res in
  let memfn r = per_real.(r) in
  let cert =
    Certificate.build g ~memberships:memfn ~classes:res.Cds_packing.classes
      ~k:8
  in
  let rejects label cert' =
    match Certificate.check g ~memberships:memfn cert' with
    | Ok () -> Alcotest.failf "%s: mutation accepted" label
    | Error _ -> ()
  in
  (* a witness loses an edge: no longer spanning *)
  (match cert.Certificate.c_witnesses with
  | w :: rest ->
    rejects "edge removed"
      {
        cert with
        Certificate.c_witnesses =
          { w with Certificate.w_edges = List.tl w.Certificate.w_edges }
          :: rest;
      }
  | [] -> Alcotest.fail "no witnesses");
  (* claim a class retained that the memberships do not support *)
  rejects "phantom class"
    {
      cert with
      Certificate.c_retained =
        cert.Certificate.c_retained @ [ cert.Certificate.c_classes_requested ];
      Certificate.c_classes_requested = cert.Certificate.c_classes_requested + 1;
    };
  (* dishonest accounting *)
  rejects "wrong load"
    { cert with Certificate.c_max_load = cert.Certificate.c_max_load + 1 };
  rejects "wrong live count"
    { cert with Certificate.c_live = cert.Certificate.c_live - 1 }

let test_certificate_degraded_accounting () =
  (* certify a repair that dropped nothing vs. one after crashes *)
  let g = Gen.harary ~k:8 ~n:48 in
  let res = Cds_packing.pack ~seed:7 g ~k:8 in
  let per_real = Cds_packing.real_classes res in
  let victims = [ 3; 17; 29 ] in
  let live u = not (List.mem u victims) in
  let rep =
    Repair.run_centralized ~live g
      ~memberships:(fun r -> per_real.(r))
      ~classes:res.Cds_packing.classes
  in
  let memfn r = rep.Repair.r_memberships.(r) in
  let cert =
    Certificate.build ~live g ~memberships:memfn
      ~classes:res.Cds_packing.classes ~k:8
  in
  Alcotest.(check int) "cert agrees with repair on retained classes"
    (List.length rep.Repair.r_retained)
    (Certificate.retained_count cert);
  Alcotest.(check int) "live count" (48 - List.length victims)
    cert.Certificate.c_live;
  (match Certificate.check ~live g ~memberships:memfn cert with
  | Ok () -> ()
  | Error es -> Alcotest.failf "check rejected: %s" (String.concat "; " es));
  (* the degraded flag tracks retained < requested *)
  Alcotest.(check bool) "degraded iff classes were dropped"
    (rep.Repair.r_dropped <> [])
    (Certificate.degraded cert)

(* ------------------------------------------------------------------ *)
(* Repair policy end-to-end *)

let test_reliable_repair_policy_rescues () =
  (* 10 classes on a k=8 graph always fails the tester; the `Repair
     policy fixes it in-place (connectors may overlap) instead of
     burning every retry *)
  let g = Gen.harary ~k:8 ~n:48 in
  let r =
    Reliable.run_verified ~seed:7 ~max_retries:3 ~policy:`Repair g ~classes:10
      ~layers:2
  in
  Alcotest.(check bool) "verified via repair" true r.Reliable.verified;
  Alcotest.(check bool) "repair recorded" true (r.Reliable.repair <> None);
  Alcotest.(check bool) "last attempt repaired" true
    (match List.rev r.Reliable.attempts with
    | a :: _ -> a.Reliable.repaired
    | [] -> false);
  match
    Certificate.check g
      ~memberships:(fun v -> r.Reliable.memberships.(v))
      r.Reliable.certificate
  with
  | Ok () -> ()
  | Error es -> Alcotest.failf "certificate rejected: %s" (String.concat "; " es)

let test_reliable_repair_cheaper_than_retry () =
  (* same failing configuration, same seeds: the repair policy must
     verify, and in no more rounds than the retry policy burns *)
  let g = Gen.harary ~k:8 ~n:48 in
  let run policy =
    let net = vnet g in
    Reliable.run_verified_distributed ~seed:7 ~max_retries:2 ~policy net
      ~classes:10 ~layers:2
  in
  let retry = run `Retry in
  let repair = run `Repair in
  Alcotest.(check bool) "retry exhausts unverified" false
    retry.Reliable.verified;
  Alcotest.(check bool) "repair verifies" true repair.Reliable.verified;
  Alcotest.(check bool)
    (Printf.sprintf "repair rounds (%d) <= retry rounds (%d)"
       repair.Reliable.rounds_charged retry.Reliable.rounds_charged)
    true
    (repair.Reliable.rounds_charged <= retry.Reliable.rounds_charged)

let test_reliable_repair_under_storm () =
  (* a seeded crash storm mid-run: the repair policy must converge to a
     verified (possibly degraded) packing whose certificate checks out
     against the live graph *)
  let g = Gen.harary ~k:8 ~n:48 in
  let net = vnet g in
  let faults =
    Congest.Faults.create ~seed:3
      [
        Congest.Faults.Crash_storm
          { from_round = 5; per_round = 1; storm_rounds = 3; universe = 48 };
      ]
  in
  Congest.Faults.install net faults;
  let r = Reliable.pack_verified_distributed ~seed:7 ~policy:`Repair net ~k:8 in
  Alcotest.(check bool) "verified under the storm" true r.Reliable.verified;
  Alcotest.(check bool) "some nodes actually died" true
    (Congest.Faults.crashes faults > 0);
  let live u = Congest.Faults.alive faults u in
  match
    Certificate.check ~live g
      ~memberships:(fun v -> r.Reliable.memberships.(v))
      r.Reliable.certificate
  with
  | Ok () -> ()
  | Error es -> Alcotest.failf "certificate rejected: %s" (String.concat "; " es)

(* ------------------------------------------------------------------ *)
(* Distributed packing *)

let test_dist_pack_valid () =
  let g = Gen.harary ~k:9 ~n:54 in
  let net = vnet g in
  let res = Dist_packing.pack ~seed:8 net ~k:9 in
  check_packing_result g res;
  Alcotest.(check int) "all classes valid"
    res.Cds_packing.classes
    (List.length (Cds_packing.valid_classes res));
  Alcotest.(check bool) "rounds consumed" true (Congest.Net.rounds net > 0)

let test_dist_pack_merges () =
  let g = Gen.clique_path ~k:8 ~len:12 in
  let net = vnet g in
  let res = Dist_packing.run ~seed:9 ~jumpstart:1 net ~classes:8 ~layers:12 in
  let excess = res.Cds_packing.stats.Cds_packing.excess_after_layer in
  (match excess with
  | (_, m0) :: _ -> Alcotest.(check bool) "work to do" true (m0 > 0)
  | [] -> Alcotest.fail "no stats");
  Alcotest.(check int) "valid at the end" 8
    (List.length (Cds_packing.valid_classes res));
  (* the matching really is a matching: per layer, the number of matched
     type-2 nodes cannot exceed the number of matchable components
     (excess entering the layer plus one per class) *)
  List.iter
    (fun (layer, matched) ->
      let entering =
        try List.assoc (layer - 1) excess with Not_found -> max_int
      in
      if entering <> max_int then
        Alcotest.(check bool)
          (Printf.sprintf "layer %d: matched %d <= components %d" layer
             matched (entering + 8))
          true
          (matched <= entering + 8))
    res.Cds_packing.stats.Cds_packing.matched_per_layer

let test_dist_extract_trees () =
  let g = Gen.harary ~k:8 ~n:40 in
  let net = vnet g in
  let res = Dist_packing.pack ~seed:19 net ~k:8 in
  let before = Congest.Net.rounds net in
  let p = Dist_packing.extract_trees net res in
  Alcotest.(check bool) "extraction charges rounds" true
    (Congest.Net.rounds net > before);
  Alcotest.(check (list string)) "distributed extraction verifies" []
    (List.map (Format.asprintf "%a" Packing.pp_violation) (Packing.verify p));
  (* same trees as the centralized extractor would produce, class-wise *)
  let q = Tree_extract.of_cds_packing res in
  Alcotest.(check int) "same tree count" (Packing.count q) (Packing.count p)

let test_dist_pack_respects_bandwidth () =
  (* the Net would raise on any oversized message; also check the word
     counter agrees: no message carries more than the word budget *)
  let g = Gen.harary ~k:6 ~n:36 in
  let net = vnet g in
  let _ = Dist_packing.pack ~seed:10 net ~k:6 in
  Alcotest.(check bool) "words within the budget" true
    (Congest.Net.words_sent net
    <= Congest.Net.messages_sent net * Congest.Model.words_budget ~n:36)

(* In a B.3 stage with proposals, the largest proposal (value, then
   proposer) goes to a component still open, which every member that
   hears it, the proposer itself included if it is one, records; so the
   component accepts it and its proposer is matched. Each stage with
   proposals therefore matches a node, and a run has no more proposal
   rounds than matched type-2 nodes. A type-2 node proposing to its own
   singleton component used to be heard by nobody, so it proposed in
   every stage up to the cap. A pass-through fault hook counts the
   proposal rounds: those whose every message is four words ending in
   the sender's id. *)
let proposal_rounds_within_matches ~seeds run g =
  List.iter
    (fun seed ->
      let net = vnet g in
      let proposals = ref 0 and traffic = ref false and all4 = ref true in
      let close () =
        if !traffic && !all4 then incr proposals;
        traffic := false;
        all4 := true
      in
      Congest.Net.install_faults net
        {
          Congest.Net.on_round_start = (fun _ -> close ());
          node_alive = (fun _ -> true);
          deliver =
            (fun ~src ~dst:_ ~edge:_ m ->
              traffic := true;
              if not (Array.length m = 4 && m.(3) = src) then all4 := false;
              true);
          reset = ignore;
          save = (fun () () -> ());
        };
      let res = run ~seed net in
      close ();
      let matched =
        List.fold_left (fun a (_, m) -> a + m) 0
          res.Cds_packing.stats.Cds_packing.matched_per_layer
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: %d proposal rounds <= %d matched" seed
           !proposals matched)
        true (!proposals <= matched))
    seeds

let test_dist_pack_every_stage_matches () =
  let seeds = List.init 10 (fun i -> i + 1) in
  proposal_rounds_within_matches ~seeds
    (fun ~seed net ->
      Dist_packing.run ~seed ~jumpstart:1 net ~classes:12 ~layers:14)
    (Gen.clique_path ~k:5 ~len:6);
  proposal_rounds_within_matches ~seeds
    (fun ~seed net -> Dist_packing.run ~seed net ~classes:5 ~layers:2)
    (Gen.harary ~k:8 ~n:64)

(* ------------------------------------------------------------------ *)
(* Vertex-connectivity approximation *)

(* The B.3 proposal values range over [0, n^2); past n = 2^15 that bound
   no longer fits Random.State.int. A star on 2^15 nodes with 4 classes
   has bridging edges in its first protocol layer, so proposals are
   drawn. *)
let test_dist_packing_large_n () =
  let n = 1 lsl 15 in
  let net = vnet (Gen.complete_bipartite 1 (n - 1)) in
  let res = Dist_packing.run ~seed:1 ~jumpstart:1 net ~classes:4 ~layers:2 in
  let st = res.Cds_packing.stats in
  Alcotest.(check bool) "bridging edges offered" true
    (List.assoc 2 st.Cds_packing.bridging_edges_per_layer > 0);
  Alcotest.(check bool) "a proposal matched" true
    (List.assoc 2 st.Cds_packing.matched_per_layer > 0)

let test_vc_approx_families () =
  List.iter
    (fun (g, k) ->
      let r = Vc_approx.centralized ~seed:11 g in
      let ratio = Vc_approx.approximation_ratio ~truth:k r in
      let lg = log (float_of_int (Graph.n g)) /. log 2. in
      Alcotest.(check bool)
        (Printf.sprintf "ratio %.2f within O(log n) for k=%d" ratio k)
        true
        (ratio <= 4. *. lg))
    [
      (Gen.harary ~k:4 ~n:40, 4);
      (Gen.harary ~k:8 ~n:48, 8);
      (Gen.hypercube 5, 5);
      (Gen.clique_path ~k:6 ~len:8, 6);
    ]

let test_vc_approx_distributed () =
  let g = Gen.harary ~k:6 ~n:36 in
  let net = vnet g in
  let r = Vc_approx.distributed ~seed:12 net in
  let ratio = Vc_approx.approximation_ratio ~truth:6 r in
  Alcotest.(check bool) "distributed ratio within O(log n)" true (ratio <= 12.);
  Alcotest.(check bool) "rounds accumulated" true (Congest.Net.rounds net > 0)

(* ------------------------------------------------------------------ *)

(* Both ladders pack with {!Cds_packing.run_on} and test with the same
   draws, so a fault-free distributed run reaches the central verdicts. *)
let prop_vc_dist_equals_central =
  QCheck.Test.make ~name:"distributed and centralized vc runs are equal"
    ~count:5
    QCheck.(int_range 3 6)
    (fun k2 ->
      let k = 2 * k2 in
      let g = Gen.harary ~k ~n:(5 * k) in
      let c = Vc_approx.centralized ~seed:k g in
      let d = Vc_approx.distributed ~seed:k (vnet g) in
      let memberships (r : Vc_approx.result) =
        List.map (fun t -> t.Packing.vertices) r.Vc_approx.packing.Packing.trees
      in
      c.Vc_approx.estimate = d.Vc_approx.estimate
      && c.Vc_approx.accepted_guess = d.Vc_approx.accepted_guess
      && c.Vc_approx.attempts = d.Vc_approx.attempts
      && memberships c = memberships d)

let prop_reliable_dist_equals_central =
  QCheck.Test.make
    ~name:"fault-free distributed and central ladders are equal" ~count:8
    QCheck.(pair small_int (int_range 0 1))
    (fun (seed, repair) ->
      let policy = if repair = 0 then `Retry else `Repair in
      let k = 4 + (2 * (seed mod 3)) in
      let g = Gen.harary ~k ~n:(6 * k) in
      let c = Reliable.pack_verified ~seed ~policy g ~k in
      let d = Reliable.pack_verified_distributed ~seed ~policy (vnet g) ~k in
      let verdicts (r : Reliable.result) =
        List.map (fun a -> a.Reliable.outcome) r.Reliable.attempts
      in
      c.Reliable.verified = d.Reliable.verified
      && verdicts c = verdicts d
      && c.Reliable.memberships = d.Reliable.memberships)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "domtree"
    [
      ( "virtual_graph",
        [
          Alcotest.test_case "indexing" `Quick test_vg_indexing;
          Alcotest.test_case "ids distinct" `Quick test_vg_ids_distinct;
          Alcotest.test_case "adjacency" `Quick test_vg_adjacency;
        ] );
      ( "cds_packing",
        [
          Alcotest.test_case "valid on harary" `Quick test_pack_valid_on_harary;
          Alcotest.test_case "merges components" `Quick
            test_pack_merges_components;
          Alcotest.test_case "excess monotone" `Quick test_excess_monotone;
          Alcotest.test_case "class sizes (Lemma 4.6)" `Quick
            test_class_size_bound;
          Alcotest.test_case "round budget (Thm B.1)" `Quick
            test_dist_rounds_budget;
          Alcotest.test_case "B.3 proposal key" `Quick test_proposal_key;
        ] );
      qsuite "cds_packing.props" [ prop_pack_classes_cover_all_vnodes ];
      qsuite "packing.fuzz" [ prop_verifier_catches_mutations ];
      ( "packing",
        [
          Alcotest.test_case "extraction valid" `Quick test_extract_valid_packing;
          Alcotest.test_case "rejects cycles" `Quick test_verify_rejects_bad_tree;
          Alcotest.test_case "rejects non-dominating" `Quick
            test_verify_rejects_non_dominating;
          Alcotest.test_case "rejects overload" `Quick test_verify_rejects_overload;
          Alcotest.test_case "integral subpacking" `Quick
            test_integral_subpacking_disjoint;
          Alcotest.test_case "integral layering" `Quick test_integral_layering;
          Alcotest.test_case "layering on sparse" `Quick
            test_integral_layering_sparse_fails_gracefully;
          Alcotest.test_case "tree diameter" `Quick test_tree_diameter_bound;
          Alcotest.test_case "serialization" `Quick
            test_packing_serialization_roundtrip;
        ] );
      ( "connector",
        [
          Alcotest.test_case "validity" `Quick test_connector_validity;
          Alcotest.test_case "max disjoint on cycle" `Quick
            test_connector_max_disjoint_cycle;
          Alcotest.test_case "short path" `Quick test_connector_short_path_rule;
          Alcotest.test_case "condition (C)" `Quick test_connector_condition_c;
          Alcotest.test_case "realization (rules D/E)" `Quick
            test_connector_realization;
          Alcotest.test_case "Proposition 4.2" `Quick test_proposition_4_2;
          Alcotest.test_case "abundance (Lemma 4.3)" `Quick
            test_connector_abundance;
        ] );
      ( "cgk_baseline",
        [
          Alcotest.test_case "valid" `Quick test_cgk_baseline_valid;
          Alcotest.test_case "merges" `Quick test_cgk_baseline_merges;
        ] );
      ( "multiflood",
        [
          Alcotest.test_case "component ids" `Quick test_multiflood_component_ids;
          Alcotest.test_case "split class" `Quick test_multiflood_split_class;
          Alcotest.test_case "overlapping memberships" `Quick
            test_multiflood_overlapping_memberships;
          Alcotest.test_case "repeated class" `Quick
            test_multiflood_repeated_class;
          Alcotest.test_case "neutral slots are silent" `Quick
            test_multiflood_neutral_silent;
          Alcotest.test_case "sweep payload" `Quick test_membership_sweep_payload;
          Alcotest.test_case "class-slot row" `Quick test_multiflood_row;
        ] );
      qsuite "multiflood.props" [ prop_flood_min_component_ids ];
      qsuite "tester.props"
        [ prop_testers_agree; prop_testers_pass_valid; prop_tester_central_ref ];
      ( "tester",
        [
          Alcotest.test_case "passes valid" `Quick test_tester_passes_valid;
          Alcotest.test_case "detects disconnect (centralized)" `Quick
            test_tester_detects_disconnected_centralized;
          Alcotest.test_case "detects disconnect (distributed)" `Quick
            test_tester_detects_disconnected_distributed;
          Alcotest.test_case "detects non-domination" `Quick
            test_tester_detects_non_domination;
          Alcotest.test_case "distance-3 detection" `Quick
            test_tester_distance3_detection;
          Alcotest.test_case "detection rate (Lemma E.1)" `Slow
            test_tester_detection_rate;
          Alcotest.test_case "no false positives" `Slow
            test_tester_no_false_positives;
        ] );
      ( "reliable",
        [
          Alcotest.test_case "verifies first try" `Quick
            test_reliable_verifies_first_try;
          Alcotest.test_case "exhausts bounded retries" `Quick
            test_reliable_exhausts_retries;
          Alcotest.test_case "distributed charges rounds" `Quick
            test_reliable_distributed_charges_rounds;
          Alcotest.test_case "distributed backoff" `Quick
            test_reliable_distributed_backoff;
          Alcotest.test_case "max_retries = 0" `Quick
            test_reliable_max_retries_zero;
          Alcotest.test_case "all-fail keeps last packing" `Quick
            test_reliable_all_fail_keeps_last_packing;
          Alcotest.test_case "exact rounds accounting" `Quick
            test_reliable_rounds_exact_accounting;
          Alcotest.test_case "round budget truncates retries" `Quick
            test_reliable_round_budget_truncates;
          Alcotest.test_case "retry exhaustion is not budget exhaustion"
            `Quick test_reliable_retries_exhausted_is_not_budget;
          Alcotest.test_case "generous budget changes nothing" `Quick
            test_reliable_budget_allows_retries_within;
          Alcotest.test_case "repair retains nothing" `Quick
            test_reliable_repair_retains_nothing;
          Alcotest.test_case "repair policy rescues" `Quick
            test_reliable_repair_policy_rescues;
          Alcotest.test_case "repair cheaper than retry" `Quick
            test_reliable_repair_cheaper_than_retry;
          Alcotest.test_case "repair under crash storm" `Quick
            test_reliable_repair_under_storm;
        ] );
      ( "repair",
        [
          Alcotest.test_case "fixes split class" `Quick
            test_repair_fixes_split_class;
          Alcotest.test_case "distributed matches and charges" `Quick
            test_repair_distributed_matches_and_charges;
          Alcotest.test_case "healthy untouched" `Quick
            test_repair_healthy_untouched;
          Alcotest.test_case "repairs after crashes" `Quick
            test_repair_under_crashes;
          Alcotest.test_case "drops unfixable classes" `Quick
            test_repair_drops_unfixable;
        ] );
      ( "certificate",
        [
          Alcotest.test_case "valid roundtrip" `Quick
            test_certificate_valid_roundtrip;
          Alcotest.test_case "rejects mutations" `Quick
            test_certificate_rejects_mutations;
          Alcotest.test_case "degraded accounting" `Quick
            test_certificate_degraded_accounting;
        ] );
      ( "dist_packing",
        [
          Alcotest.test_case "valid" `Quick test_dist_pack_valid;
          Alcotest.test_case "merges" `Quick test_dist_pack_merges;
          Alcotest.test_case "distributed tree extraction" `Quick
            test_dist_extract_trees;
          Alcotest.test_case "bandwidth respected" `Quick
            test_dist_pack_respects_bandwidth;
          Alcotest.test_case "every proposal stage matches" `Quick
            test_dist_pack_every_stage_matches;
          Alcotest.test_case "n = 2^15" `Slow test_dist_packing_large_n;
        ] );
      ( "vc_approx",
        [
          Alcotest.test_case "families" `Quick test_vc_approx_families;
          Alcotest.test_case "distributed" `Quick test_vc_approx_distributed;
        ] );
      qsuite "vc_approx.props" [ prop_vc_dist_equals_central ];
      qsuite "repair.props" [ prop_repair_sides_agree; prop_repair_central_ref ];
      qsuite "reliable.props" [ prop_reliable_dist_equals_central ];
    ]
