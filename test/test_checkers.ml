(* Pins for the central CDS packing and the dominating-tree checkers:
   a digest of [Cds_packing.run] output on fixed instances, and the exact
   [Packing.verify] violation lists and [Certificate.check] error
   strings on a fixed set of invalid inputs. *)

open Graphs
open Domtree

(* ------------------------------------------------------------------ *)
(* Cds_packing.run digests *)

(* Everything [run] decides, in a fixed text form: class of every
   virtual node, member lists, per-class verdicts and the three stats
   lists. *)
let fingerprint (res : Cds_packing.t) =
  let b = Buffer.create 4096 in
  let ints a = Array.iter (fun x -> Printf.bprintf b "%d," x) a in
  let pairs l = List.iter (fun (x, y) -> Printf.bprintf b "%d:%d," x y) l in
  let bools a =
    Array.iter (fun x -> Buffer.add_char b (if x then 't' else 'f')) a
  in
  Printf.bprintf b "t=%d|" res.Cds_packing.classes;
  ints res.Cds_packing.class_of;
  Buffer.add_char b '|';
  Array.iter
    (fun ms ->
      ints ms;
      Buffer.add_char b ';')
    res.Cds_packing.members;
  Buffer.add_char b '|';
  bools res.Cds_packing.connected;
  bools res.Cds_packing.dominating;
  let s = res.Cds_packing.stats in
  Buffer.add_char b '|';
  pairs s.Cds_packing.excess_after_layer;
  Buffer.add_char b '|';
  pairs s.Cds_packing.matched_per_layer;
  Buffer.add_char b '|';
  pairs s.Cds_packing.bridging_edges_per_layer;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The tree_broadcast benchmark shape: random_k_connected n=192 k=12
   extra=48, default classes and layers. *)
let broadcast_shape () =
  let n, k, extra = (192, 12, 48) in
  let rng = Random.State.make [| 1001; n; k; extra |] in
  let g = Gen.random_k_connected rng ~n ~k ~extra in
  Cds_packing.pack ~seed:1001 g ~k

let er_graph ~seed ~n ~p =
  let rng = Random.State.make [| seed |] in
  let rec draw () =
    let g = Gen.erdos_renyi rng ~n ~p in
    if Traversal.is_connected g then g else draw ()
  in
  draw ()

let cds_cases =
  [
    ( "tree_broadcast shape",
      broadcast_shape,
      "1ef99731b2407ee0a6808d0ff612b9b6" );
    ( "clique_path jumpstart 1",
      (fun () ->
        Cds_packing.run ~seed:3 ~jumpstart:1 (Gen.clique_path ~k:8 ~len:12)
          ~classes:10 ~layers:14),
      "30b615294fb57ce8f39be28fe2f4b362" );
    ( "erdos_renyi default",
      (fun () ->
        Cds_packing.pack ~seed:5 (er_graph ~seed:5 ~n:96 ~p:0.12) ~k:9),
      "c930bc4440d79e99671e441888f98148" );
    ( "1 class",
      (fun () ->
        let rng = Random.State.make [| 7 |] in
        Cds_packing.run ~seed:7
          (Gen.random_k_connected rng ~n:64 ~k:6 ~extra:16)
          ~classes:1 ~layers:8),
      "ba66290dd5eb1d14ae26c0ac7678dcaf" );
    ( "4 classes, jumpstart 2",
      (fun () ->
        Cds_packing.run ~seed:9 ~jumpstart:2 (er_graph ~seed:9 ~n:80 ~p:0.15)
          ~classes:4 ~layers:10),
      "64d6fcd01ae1dd18714641c540e885fa" );
    ( "10 classes, harary",
      (fun () ->
        Cds_packing.run ~seed:11 (Gen.harary ~k:16 ~n:120) ~classes:10
          ~layers:16),
      "1703eb3170a53e93de14fed39547d856" );
    ( "10 classes, jumpstart 1, erdos_renyi",
      (fun () ->
        Cds_packing.run ~seed:13 ~jumpstart:1 (er_graph ~seed:13 ~n:128 ~p:0.2)
          ~classes:10 ~layers:18),
      "05a76b2638806516f3d0ecfcf97e1626" );
  ]

let test_cds_pin (name, run, expected) () =
  Alcotest.(check string) name expected (fingerprint (run ()))

(* ------------------------------------------------------------------ *)
(* Packing.verify violation lists *)

(* 0-1-2-3-4-5-6-7-0 plus the chords 0-4 and 2-6. *)
let wheel () =
  Graph.of_edges ~n:8
    [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 6); (6, 7); (0, 7);
      (0, 4); (2, 6) ]

(* A tree over the wheel, its edges given as pairs and stored as edge
   ids; a pair that is no wheel edge becomes id m, which names no edge. *)
let tree cls vertices pairs =
  let g = wheel () in
  let id (u, v) =
    match Graph.edge_index g u v with e -> e | exception Not_found -> Graph.m g
  in
  let edges = Array.of_list (List.map id pairs) in
  Array.sort Int.compare edges;
  { Packing.cls; vertices; edges }

(* {0, 2, 4, 6} dominates the wheel; 0-4 and 2-6 are chords, 4-5-6 a path. *)
let good = tree 0 [| 0; 2; 4; 5; 6 |] [ (0, 4); (2, 6); (4, 5); (5, 6) ]

let verify_cases =
  [
    ("valid", [ good ], [ 1. ], []);
    ( "duplicate vertex",
      [ tree 0 [| 0; 2; 4; 4; 5; 6 |] [ (0, 4); (2, 6); (4, 5); (5, 6) ] ],
      [ 1. ],
      [ "class 0: not a tree" ] );
    ( "cycle",
      [ tree 1 [| 0; 1; 2; 4; 5; 6 |]
          [ (0, 1); (0, 4); (1, 2); (2, 6); (4, 5); (5, 6) ] ],
      [ 1. ],
      [ "class 1: not a tree" ] );
    ( "cycle with a tree's edge count",
      [ tree 8 [| 0; 2; 3; 4; 5; 6 |]
          [ (2, 3); (3, 4); (4, 5); (5, 6); (2, 6) ] ],
      [ 1. ],
      [ "class 8: not a tree" ] );
    ( "disconnected",
      [ tree 2 [| 0; 2; 4; 5; 6 |] [ (0, 4); (2, 6); (4, 5) ] ],
      [ 1. ],
      [ "class 2: not a tree" ] );
    ( "non-dominating",
      [ tree 3 [| 0; 1 |] [ (0, 1) ] ],
      [ 1. ],
      [ "class 3: not dominating" ] );
    ( "overloaded vertex",
      [ good; good ],
      [ 0.6; 0.6 ],
      [
        "vertex 0: load 1.200 > 1";
        "vertex 2: load 1.200 > 1";
        "vertex 4: load 1.200 > 1";
        "vertex 5: load 1.200 > 1";
        "vertex 6: load 1.200 > 1";
      ] );
    ( "bad weight",
      [ good ],
      [ 1.5 ],
      [
        "class 0: weight outside [0,1]";
        "vertex 0: load 1.500 > 1";
        "vertex 2: load 1.500 > 1";
        "vertex 4: load 1.500 > 1";
        "vertex 5: load 1.500 > 1";
        "vertex 6: load 1.500 > 1";
      ] );
    ( "edge outside the class",
      [ tree 4 [| 0; 2; 4; 6 |] [ (0, 4); (2, 6); (4, 5); (5, 6) ] ],
      [ 1. ],
      [ "class 4: not a tree" ] );
    ( "edge outside the graph",
      [ tree 5 [| 0; 2; 4; 6 |] [ (0, 4); (2, 6); (0, 2) ] ],
      [ 1. ],
      [ "class 5: edge outside graph" ] );
    ( "everything at once",
      [
        good;
        tree 6 [| 0; 1; 1 |] [ (0, 1); (1, 2); (1, 3) ];
        tree 7 [| 3; 7 |] [ (3, 7) ];
      ],
      [ 0.5; 0.75; -0.25 ],
      [
        "class 6: edge outside graph";
        "class 6: not a tree";
        "class 6: not dominating";
        "class 7: weight outside [0,1]";
        "class 7: edge outside graph";
        "class 7: not dominating";
        "vertex 0: load 1.250 > 1";
      ] );
  ]

let test_verify_pin (name, trees, weights, expected) () =
  let p = { Packing.graph = wheel (); trees; weights } in
  Alcotest.(check (list string)) name expected
    (List.map (Format.asprintf "%a" Packing.pp_violation) (Packing.verify p))

(* ------------------------------------------------------------------ *)
(* Certificate.check error strings *)

(* Eight classes over two layers: every class is a proper subset of the
   vertices, so a witness edge can leave it. *)
let cert_fixture () =
  let g = Gen.harary ~k:16 ~n:64 in
  let res = Cds_packing.run ~seed:7 g ~classes:8 ~layers:2 in
  let per_real = Cds_packing.real_classes res in
  let memberships r = per_real.(r) in
  let cert =
    Certificate.build g ~memberships ~classes:res.Cds_packing.classes ~k:16
  in
  (g, memberships, cert)

(* Replace the first witness. *)
let with_first cert f =
  match cert.Certificate.c_witnesses with
  | w :: rest -> { cert with Certificate.c_witnesses = f w :: rest }
  | [] -> Alcotest.fail "no witnesses"

(* A graph edge from a witness vertex to a vertex outside it. *)
let leaving_edge g (w : Certificate.witness) =
  let outside v = not (List.mem v w.Certificate.w_vertices) in
  let u =
    List.find
      (fun u -> Array.exists outside (Graph.neighbors g u))
      w.Certificate.w_vertices
  in
  let v = List.find outside (Array.to_list (Graph.neighbors g u)) in
  (min u v, max u v)

(* A graph edge between witness vertices that is not a witness edge. *)
let chord g (w : Certificate.witness) =
  let inside v = List.mem v w.Certificate.w_vertices in
  let edges = w.Certificate.w_edges in
  let found = ref None in
  List.iter
    (fun u ->
      Array.iter
        (fun v ->
          if !found = None && u < v && inside v && not (List.mem (u, v) edges)
          then found := Some (u, v))
        (Graph.neighbors g u))
    w.Certificate.w_vertices;
  Option.get !found

let cert_cases =
  [
    ("valid", fun _g c -> c);
    ( "duplicate vertex",
      fun _g c ->
        with_first c (fun w ->
            match w.Certificate.w_vertices with
            | v :: rest -> { w with Certificate.w_vertices = v :: v :: rest }
            | [] -> w) );
    ( "cycle",
      fun g c ->
        with_first c (fun w ->
            {
              w with
              Certificate.w_edges = chord g w :: w.Certificate.w_edges;
            }) );
    ( "disconnected",
      fun _g c ->
        with_first c (fun w ->
            { w with Certificate.w_edges = List.tl w.Certificate.w_edges }) );
    ( "edge outside the class",
      fun g c ->
        with_first c (fun w ->
            {
              w with
              Certificate.w_edges =
                leaving_edge g w :: List.tl w.Certificate.w_edges;
            }) );
    ( "edge outside the graph",
      fun g c ->
        with_first c (fun w ->
            let vs = w.Certificate.w_vertices in
            let u = List.hd vs in
            let v =
              List.find (fun v -> v <> u && not (Graph.mem_edge g u v)) vs
            in
            {
              w with
              Certificate.w_edges = (u, v) :: List.tl w.Certificate.w_edges;
            }) );
    ( "vertex out of range",
      fun _g c ->
        with_first c (fun w ->
            {
              w with
              Certificate.w_vertices = w.Certificate.w_vertices @ [ 99 ];
            }) );
    ( "first vertex out of range",
      fun _g c ->
        with_first c (fun w ->
            {
              w with
              Certificate.w_vertices = -1 :: List.tl w.Certificate.w_vertices;
            }) );
    ( "overloaded vertex",
      fun _g c ->
        { c with Certificate.c_max_load = c.Certificate.c_max_load + 1 } );
    ( "witness list mismatch",
      fun _g c ->
        let w = List.hd c.Certificate.c_witnesses in
        {
          c with
          Certificate.c_witnesses =
            [
              {
                w with
                Certificate.w_vertices = [ 0; 1 ];
                Certificate.w_edges = [ (0, 1) ];
              };
            ];
        } );
  ]

let test_cert_pin (name, mutate) expected () =
  let g, memberships, cert = cert_fixture () in
  let got =
    match Certificate.check g ~memberships (mutate g cert) with
    | Ok () -> []
    | Error es -> es
  in
  Alcotest.(check (list string)) name expected got

(* The error lists of [cert_cases], in order. *)
let cert_expected =
  [
    [];
    [
      "class 0: witness vertices not sorted and duplicate-free";
      "class 0: witness vertices differ from the class's live members";
      "class 0: 34 edges over 36 vertices is not a tree";
    ];
    [ "class 0: 35 edges over 35 vertices is not a tree" ];
    [
      "class 0: 33 edges over 35 vertices is not a tree";
      "class 0: witness edges do not span vertex 1";
      "class 0: witness edges do not span vertex 9";
    ];
    [
      "class 0: witness edge (0,2) leaves the class";
      "class 0: witness edges do not span vertex 1";
      "class 0: witness edges do not span vertex 9";
    ];
    [
      "class 0: witness edge (0,9) is not a graph edge";
      "class 0: witness edges do not span vertex 1";
      "class 0: witness edges do not span vertex 9";
    ];
    [
      "class 0: witness vertex 99 out of range";
      "class 0: witness vertices differ from the class's live members";
      "class 0: 34 edges over 36 vertices is not a tree";
    ];
    [
      "class 0: witness vertex -1 out of range";
      "class 0: witness vertices differ from the class's live members";
      "class 0: witness edge (0,1) leaves the class";
      "class 0: witness edge (0,3) leaves the class";
      "class 0: witness edge (0,5) leaves the class";
      "class 0: witness edge (0,6) leaves the class";
      "class 0: witness edge (0,7) leaves the class";
      "class 0: witness edge (0,8) leaves the class";
      "class 0: witness edge (0,56) leaves the class";
      "class 0: witness edge (0,59) leaves the class";
      "class 0: witness edge (0,61) leaves the class";
      "class 0: witness edge (0,62) leaves the class";
      "class 0: witness edge (0,63) leaves the class";
    ];
    [ "max-load mismatch: certificate says 7, memberships give 6" ];
    [
      "witness list does not mirror the retained classes";
      "class 0: witness vertices differ from the class's live members";
    ];
  ]

(* A connected class that does not dominate the cycle: the witness is a
   valid tree, so only the Appendix E tester rejects it. *)
let test_cert_non_dominating_memberships () =
  let g = Gen.cycle 8 in
  let memberships r = if r <= 2 then [ 0 ] else [] in
  let cert =
    {
      Certificate.c_classes_requested = 1;
      c_retained = [ 0 ];
      c_dropped = [];
      c_witnesses =
        [ { Certificate.w_class = 0; w_vertices = [ 0; 1; 2 ];
            w_edges = [ (0, 1); (1, 2) ] } ];
      c_k = 2;
      c_target = Certificate.target ~k:2 ~n:8;
      c_live = 8;
      c_max_load = 1;
    }
  in
  Alcotest.(check (list string)) "non-dominating memberships"
    [
      "Tester rejects the retained classes (domination false, connectivity \
       true)";
    ]
    (match Certificate.check g ~memberships cert with
    | Ok () -> []
    | Error es -> es)

(* ------------------------------------------------------------------ *)
(* Differential properties: the two sides of the packer, and the
   reference copies *)

(* The graph families of the reference property below: jump-start 1
   half the time and up to 20 classes, so most layers bridge and match. *)
let busy_instance (seed, family) =
  let rng = Random.State.make [| seed; family; 0xB3 |] in
  let n = 12 + Random.State.int rng 37 in
  let g =
    match family with
    | 0 ->
      let k = 2 + Random.State.int rng 3 in
      Gen.random_k_connected rng ~n ~k ~extra:(n / 8)
    | 1 -> er_graph ~seed ~n ~p:(0.1 +. Random.State.float rng 0.2)
    | 2 -> Gen.harary ~k:(2 + Random.State.int rng 6) ~n
    | _ -> Gen.clique_path ~k:(3 + Random.State.int rng 4) ~len:(2 + (n / 8))
  in
  let classes = 1 + Random.State.int rng 20 in
  let layers = 2 * (1 + Random.State.int rng 5) in
  let jumpstart =
    if Random.State.bool rng then 1 else 1 + Random.State.int rng layers
  in
  (g, classes, layers, jumpstart)

(* The central side walks the graph where the distributed one sends
   messages; both draw the same numbers, so everything they decide,
   statistics included, is equal. *)
let prop_central_equals_distributed =
  QCheck.Test.make ~name:"Cds_packing.run = Dist_packing.run" ~count:40
    QCheck.(pair small_int (int_range 0 3))
    (fun ((seed, _) as instance) ->
      let g, classes, layers, jumpstart = busy_instance instance in
      let net = Congest.Net.create Congest.Model.V_congest g in
      fingerprint (Cds_packing.run ~seed ~jumpstart g ~classes ~layers)
      = fingerprint (Dist_packing.run ~seed ~jumpstart net ~classes ~layers))

(* Random small graphs, many of them busy: jump-start 1 leaves most
   layers to the B.2/B.3 protocol, and up to 20 classes on clique paths
   and low-k graphs leave components to bridge and match. The packing
   and its statistics must equal the reference's, in no more rounds. *)
let prop_dist_packing_matches_reference =
  QCheck.Test.make ~name:"Dist_packing.run equals the reference" ~count:40
    QCheck.(pair small_int (int_range 0 3))
    (fun ((seed, _) as instance) ->
      let g, classes, layers, jumpstart = busy_instance instance in
      let run f =
        let net = Congest.Net.create Congest.Model.V_congest g in
        let fp = fingerprint (f net) in
        (fp, Congest.Net.rounds net)
      in
      let fp, rounds =
        run (Dist_packing.run ~seed ~jumpstart ~classes ~layers)
      in
      let fp', rounds' =
        run (Dist_packing_ref.run ~seed ~jumpstart ~classes ~layers)
      in
      fp = fp' && rounds <= rounds')

(* Random slot layouts on random (possibly disconnected) graphs: lists
   of 0 to 4 classes drawn from the even ids below [2 * classes], so odd
   classes are never held, some lists are empty and some repeat a class.
   [init] draws from a small range to force ties, and one draw in six is
   [Multiflood.neutral]. The reference floods pairs and sends every one,
   so it sees neutral as [sentinel], a value above every draw, with the
   value as its tiebreak. Fault runs drop messages and crash one node
   mid-flood. *)
let sentinel = 1000

let to_ref v = if v = Multiflood.neutral then sentinel else v

let flood_instance seed =
  let rng = Random.State.make [| seed; 0x3F |] in
  let n = 2 + Random.State.int rng 40 in
  let classes = 1 + Random.State.int rng 6 in
  let g = Gen.erdos_renyi rng ~n ~p:(Random.State.float rng 0.5) in
  let mem =
    Array.init n (fun _ ->
        List.init (Random.State.int rng 5) (fun _ ->
            2 * Random.State.int rng classes))
  in
  let sl = Multiflood.layout ~n (fun r -> mem.(r)) in
  let init r s =
    match Hashtbl.hash (seed, r, s) mod 6 with
    | 5 -> Multiflood.neutral
    | v -> v
  in
  let crash = (1 + Random.State.int rng 12, Random.State.int rng n) in
  let fresh ~faulty =
    let net = Congest.Net.create Congest.Model.V_congest g in
    if faulty then
      Congest.Faults.install net
        (Congest.Faults.create ~seed
           [ Congest.Faults.Drop_bernoulli 0.1; Congest.Faults.Crash_at [ crash ] ]);
    net
  in
  (classes, sl, init, fresh)

(* [flood] on a fresh net of the instance, and the net's telemetry *)
let run_flood fresh ~faulty sl flood =
  let net = fresh ~faulty in
  let result = flood net sl in
  (result, Congest.Net.telemetry net)

(* [ref_init init] is [init] as the reference's pairs *)
let ref_init init r s =
  let v = to_ref (init r s) in
  (v, v)

(* the one-value run [t] against the reference's [t']: the same rounds,
   and no more messages or words *)
let cheaper (t : Congest.Net.telemetry) (t' : Congest.Net.telemetry) =
  t.t_rounds = t'.t_rounds
  && t.t_messages <= t'.t_messages
  && t.t_words <= t'.t_words

let prop_flood_min_matches_reference =
  QCheck.Test.make ~name:"Multiflood.flood_min equals the reference"
    ~count:80
    QCheck.(pair small_int bool)
    (fun (seed, faulty) ->
      let classes, sl, init, fresh = flood_instance seed in
      let run flood = run_flood fresh ~faulty sl flood in
      let value, t = run (fun net sl -> Multiflood.flood_min net sl ~init) in
      (* caller-owned buffers, larger than the layout and reused *)
      let nslots = Array.length sl.Multiflood.cls in
      let buffers =
        Multiflood.buffers ~slots:(nslots + 3) ~classes:(2 * classes)
      in
      ignore (run (Multiflood.flood_min ~buffers ~init));
      let bvalue, bt = run (Multiflood.flood_min ~buffers ~init) in
      let (value', _), t' =
        run (Multiflood_ref.flood_min ~init:(ref_init init))
      in
      Array.map to_ref value = value'
      && Array.sub bvalue 0 nslots = value
      && Congest.Net.diff_telemetry t bt = []
      && cheaper t t')

(* The on-change schedule, on the same instances. Its values are the
   reference schedule's, round for round, so it ends in the same state
   after the same rounds, under drops and a crash too; with neutral
   values it skips their sends, and it reaches the meta-round flood's
   fixed point when nothing is lost. *)
let prop_flood_min_on_change =
  QCheck.Test.make
    ~name:"Multiflood.flood_min_on_change: the reference's fixed point"
    ~count:80
    QCheck.(pair small_int bool)
    (fun (seed, faulty) ->
      let _, sl, init, fresh = flood_instance seed in
      let run ~faulty flood = run_flood fresh ~faulty sl flood in
      let sent r s = to_ref (init r s) in
      let value, t =
        run ~faulty (fun net sl ->
            Multiflood.flood_min_on_change net sl ~init:sent)
      in
      let (value', _), t' =
        run ~faulty (Multiflood_ref.flood_min_on_change ~init:(ref_init sent))
      in
      let exact = value = value' && cheaper t t' in
      if faulty then exact
      else
        let neutral, _ =
          run ~faulty (fun net sl ->
              Multiflood.flood_min_on_change net sl ~init)
        in
        let (fixed, _), _ =
          run ~faulty (Multiflood_ref.flood_min ~init:(ref_init init))
        in
        exact && Array.map to_ref neutral = fixed)

(* A random candidate tree over [g]: a BFS tree of the whole graph, a
   mutation of one, or arbitrary vertex and edge lists. Vertex lists may
   repeat entries and, rarely, name a vertex outside the graph; edge ids
   are drawn from [-1 .. m], so -1 and m name no edge. *)
let random_tree rng g =
  let n = Graph.n g and m = Graph.m g in
  let pick () =
    match Random.State.int rng 20 with
    | 0 -> n + Random.State.int rng 3
    | 1 -> -1
    | _ -> Random.State.int rng n
  in
  let edge () = Random.State.int rng (m + 2) - 1 in
  (* an edge at [u] when it has one, else any draw *)
  let edge_at u =
    if u < 0 || u >= n || Graph.degree g u = 0 then edge ()
    else
      let nbrs = Graph.neighbors g u in
      Graph.edge_index g u nbrs.(Random.State.int rng (Array.length nbrs))
  in
  let _, parent = Traversal.bfs_tree g (Random.State.int rng n) in
  let bfs_edges =
    List.filter_map
      (fun v ->
        let p = parent.(v) in
        if p >= 0 && p <> v then Some (Graph.edge_index g v p) else None)
      (List.init n Fun.id)
  in
  let all = Array.init n Fun.id in
  let vertices, edges =
    match Random.State.int rng 6 with
    | 0 -> (all, bfs_edges)
    | 1 -> (all, List.tl bfs_edges)
    | 2 -> (Array.append all [| pick () |], bfs_edges)
    | 3 ->
      let u = pick () and v = pick () in
      (Array.append all [| u; v |], edge () :: bfs_edges)
    | 4 ->
      (* swap a tree edge for a graph edge: the count still fits *)
      (all, edge_at (Random.State.int rng n) :: List.tl bfs_edges)
    | _ ->
      let vs = Array.init (1 + Random.State.int rng n) (fun _ -> pick ()) in
      let some () = vs.(Random.State.int rng (Array.length vs)) in
      let es =
        List.init
          (Random.State.int rng (Array.length vs + 1))
          (fun _ -> if Random.State.bool rng then edge () else edge_at (some ()))
      in
      (vs, es)
  in
  let edges = Array.of_list edges in
  Array.sort Int.compare edges;
  { Packing.cls = Random.State.int rng 8; vertices; edges }

let random_packing seed =
  let rng = Random.State.make [| seed |] in
  let n = 2 + Random.State.int rng 14 in
  let g = Gen.random_connected rng ~n ~extra:(Random.State.int rng n) in
  let count = Random.State.int rng 5 in
  let trees = List.init count (fun _ -> random_tree rng g) in
  let weights =
    List.init count (fun _ ->
        [| -0.25; 0.; 0.3; 0.5; 0.75; 1.; 1.5 |].(Random.State.int rng 7))
  in
  { Packing.graph = g; trees; weights }

let prop_verify_matches_reference =
  QCheck.Test.make ~name:"Packing.verify equals the reference" ~count:500
    QCheck.small_int (fun seed ->
      let p = random_packing seed in
      let r = Packing_ref.of_packing p in
      Packing.verify p = Packing_ref.verify r
      && Packing.max_node_load p = Packing_ref.max_node_load r)

let prop_dominating_tree_matches_reference =
  QCheck.Test.make ~name:"is_dominating_tree equals the reference" ~count:500
    QCheck.small_int (fun seed ->
      let r = Packing_ref.of_packing (random_packing seed) in
      let g = r.Packing_ref.graph in
      List.for_all
        (fun (tree : Packing_ref.tree) ->
          let vs = Array.to_list tree.Packing_ref.vertices in
          Domination.is_dominating_tree g vs tree.Packing_ref.edges
          = Packing_ref.is_dominating_tree g vs tree.Packing_ref.edges)
        r.Packing_ref.trees)

(* Path 0-1-2 with a tree naming vertex 5, its edges (0, 1) and id m:
   reported, not raised. *)
let test_verify_out_of_range () =
  let p =
    {
      Packing.graph = Gen.path 3;
      trees = [ { Packing.cls = 0; vertices = [| 0; 5 |]; edges = [| 0; 2 |] } ];
      weights = [ 1. ];
    }
  in
  Alcotest.(check (list string)) "typed violations"
    [
      "class 0: edge outside graph";
      "class 0: not a tree";
      "class 0: not dominating";
    ]
    (List.map (Format.asprintf "%a" Packing.pp_violation) (Packing.verify p))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "checkers"
    [
      ( "cds_packing.pins",
        List.map
          (fun ((name, _, _) as c) ->
            Alcotest.test_case name `Quick (test_cds_pin c))
          cds_cases );
      ( "packing.verify pins",
        List.map
          (fun ((name, _, _, _) as c) ->
            Alcotest.test_case name `Quick (test_verify_pin c))
          verify_cases
        @ [
            Alcotest.test_case "vertex outside the graph" `Quick
              test_verify_out_of_range;
          ] );
      ( "certificate.check pins",
        List.map2
          (fun ((name, _) as c) expected ->
            Alcotest.test_case name `Quick (test_cert_pin c expected))
          cert_cases cert_expected
        @ [
            Alcotest.test_case "non-dominating memberships" `Quick
              test_cert_non_dominating_memberships;
          ] );
      qsuite "cds_packing.oracle" [ prop_central_equals_distributed ];
      qsuite "multiflood.oracle"
        [ prop_flood_min_matches_reference; prop_flood_min_on_change ];
      qsuite "dist_packing.oracle" [ prop_dist_packing_matches_reference ];
      qsuite "checkers.oracle"
        [
          prop_verify_matches_reference;
          prop_dominating_tree_matches_reference;
        ];
    ]
