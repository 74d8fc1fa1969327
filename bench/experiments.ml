(* The experiment suite: one table per quantitative claim of the paper
   (the per-experiment index lives in DESIGN.md §3; results are recorded
   in EXPERIMENTS.md). Each experiment prints paper-reference vs
   measured rows; none of them aims at absolute timings except E7's
   runtime-scaling comparison.

   Since the multicore engine (DESIGN.md §9) the suite is a grid of
   Exec.Job cells: every table row (or indivisible block) is a pure,
   self-seeded closure, so the grid shards across domains with `-j N`
   while the rendered tables stay byte-identical to a sequential run
   (E7's measured seconds aside), because Exec.Sweep prints
   payloads in item order. Rows that used to share one Random.State now
   derive a private per-row state (seeded by the experiment id and the
   row coordinates), which is what makes each cell independent. *)

module Graph = Graphs.Graph

let buf f =
  let b = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer b in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents b

let text = Exec.Sweep.text

let header title =
  text "@.%s@.%s@." title (String.make (String.length title) '-')

let job ~algo ?params ?seed f =
  Exec.Sweep.Job
    (Exec.Job.make ~algo ?params ?seed (fun () -> Exec.Job.payload (buf f)))

let i2s = string_of_int
let lg n = log (float_of_int (max 2 n)) /. log 2.

(* ------------------------------------------------------------------ *)
(* E1 — Theorems 1.1/1.2: fractional dominating-tree packing size
   Ω(k / log n), Ω(k) trees, node load O(log n), tree diameter O~(n/k) *)

let e1 () =
  header
    "E1  dominating-tree packing: size = Theta(k/log n), load O(log n), \
     diameter O~(n/k)   [Thm 1.1/1.2]"
  :: text "%6s %5s %4s | %6s %8s %14s | %5s %9s %14s@." "n" "k" "t" "trees"
       "size" "size/(k/lg n)" "mult" "mult/lg n" "diam*k/n"
  :: List.map
       (fun (n, k) ->
         job ~algo:"e1" ~params:[ ("n", i2s n); ("k", i2s k) ] ~seed:1
           (fun ppf ->
             let g = Graphs.Gen.harary ~k ~n in
             (* the k >> log n regime where the k/log n scaling is visible:
                t = 2k/3 classes over the minimum number of layers *)
             let res =
               Domtree.Cds_packing.run ~seed:1 g ~classes:(2 * k / 3) ~layers:2
             in
             let p = Domtree.Tree_extract.of_cds_packing res in
             let size = Domtree.Packing.size p in
             let mult = Domtree.Packing.max_multiplicity p in
             let diam = Domtree.Packing.max_tree_diameter p in
             Format.fprintf ppf
               "%6d %5d %4d | %6d %8.2f %14.2f | %5d %9.2f %14.2f@." n k
               res.Domtree.Cds_packing.classes (Domtree.Packing.count p) size
               (size /. (float_of_int k /. lg n))
               mult
               (float_of_int mult /. lg n)
               (float_of_int (diam * k) /. float_of_int n)))
       [ (48, 12); (64, 16); (96, 24); (128, 32); (192, 48); (256, 64) ]
  @ [
      text
        "(shape: size/(k/lg n) roughly constant; mult/lg n bounded; diam*k/n \
         bounded)@.";
    ]

(* ------------------------------------------------------------------ *)
(* E2 — Theorem 1.1 round complexity O~(D + sqrt(n)) in V-CONGEST *)

let e2 () =
  header
    "E2  distributed dominating-tree packing rounds vs O~(D + sqrt n)   \
     [Thm 1.1]"
  :: text "%6s %4s %4s | %8s %14s %14s@." "n" "k" "D" "rounds"
       "(D+sqrt n)lg^3" "ratio"
  :: List.map
       (fun n ->
         job ~algo:"e2" ~params:[ ("n", i2s n) ] ~seed:2 (fun ppf ->
             let k = 8 in
             let g = Graphs.Gen.harary ~k ~n in
             let d = Graphs.Traversal.diameter g in
             let net = Congest.Net.create Congest.Model.V_congest g in
             let res = Domtree.Dist_packing.pack ~seed:2 net ~k in
             let valid = List.length (Domtree.Cds_packing.valid_classes res) in
             assert (valid = res.Domtree.Cds_packing.classes);
             let rounds = Congest.Net.rounds net in
             let budget =
               (float_of_int d +. sqrt (float_of_int n)) *. (lg n ** 3.)
             in
             Format.fprintf ppf "%6d %4d %4d | %8d %14.0f %14.2f@." n k d
               rounds budget
               (float_of_int rounds /. budget)))
       [ 32; 64; 128; 256 ]
  @ text "(shape: ratio stays bounded as n grows)@."
    :: (* E2b: the two Theorem B.2 realizations on a long-strong-diameter
          subgraph embedded in a small-diameter host *)
       text
         "@.E2b  component identification (Thm B.2): flooding (D' branch) vs      Kutten-Peleg hybrid (D+sqrt(n) branch)@."
    :: text "%6s | %10s %10s@." "n" "flooding" "hybrid"
    :: List.map
         (fun n ->
           job ~algo:"e2b" ~params:[ ("n", i2s n) ] ~seed:2 (fun ppf ->
               let path_edges = List.init (n - 1) (fun i -> (i, i + 1)) in
               let hub_edges = List.init (n / 8) (fun j -> (n, 8 * j)) in
               let g = Graph.of_edges ~n:(n + 1) (path_edges @ hub_edges) in
               let active v = v < n in
               let edge_active u v = u < n && v < n in
               let net1 = Congest.Net.create Congest.Model.V_congest g in
               let _ = Congest.Components.identify net1 ~active ~edge_active in
               let net2 = Congest.Net.create Congest.Model.V_congest g in
               let _ =
                 Congest.Components.identify_hybrid net2 ~active ~edge_active
               in
               Format.fprintf ppf "%6d | %10d %10d@." n
                 (Congest.Net.rounds net1) (Congest.Net.rounds net2)))
         [ 64; 256; 1024 ]
  @ text "(shape: flooding ~ n on the path; hybrid ~ sqrt(n)-ish)@."
    :: (* E2c: the same two branches inside the distributed MST *)
       text "@.E2c  distributed MST: flooding Boruvka vs Kutten-Peleg \
             pipelined@."
    :: text "%6s | %10s %10s@." "n" "flooding" "pipelined"
    :: List.map
         (fun n ->
           job ~algo:"e2c" ~params:[ ("n", i2s n) ] ~seed:2 (fun ppf ->
               let path_edges = List.init (n - 1) (fun i -> (i, i + 1)) in
               let hub_edges = List.init (n / 8) (fun j -> (n, 8 * j)) in
               let g = Graph.of_edges ~n:(n + 1) (path_edges @ hub_edges) in
               (* path edges cheap, hub edges dear: the MST is the long path,
                  so flooding Boruvka must flood along Theta(n)-diameter
                  fragments *)
               let weight u v =
                 if u = n || v = n then 1000 else 1 + ((u + v) mod 7)
               in
               let net1 = Congest.Net.create Congest.Model.V_congest g in
               let a = Congest.Dist_mst.minimum_spanning_forest net1 ~weight in
               let net2 = Congest.Net.create Congest.Model.V_congest g in
               let b =
                 Congest.Dist_mst.minimum_spanning_forest_hybrid net2 ~weight
               in
               assert (a = b);
               Format.fprintf ppf "%6d | %10d %10d@." n
                 (Congest.Net.rounds net1) (Congest.Net.rounds net2)))
         [ 64; 256; 1024 ]
  @ [
      text
        "(same forests; the pipelined variant wins as the      fragment \
         diameters grow)@.";
    ]

(* ------------------------------------------------------------------ *)
(* E3 — Theorem 1.3 / §5.1: fractional spanning-tree packing of size
   ceil((lambda-1)/2)(1 - eps); iterations O(log^3 n); feasible loads *)

let e3 () =
  header
    "E3  spanning-tree packing: size vs ceil((lambda-1)/2), iterations vs \
     log^3 n   [Thm 1.3, Lemmas F.1/F.2]"
  :: text "%6s %7s %7s | %8s %8s %6s | %6s %8s %9s@." "n" "lambda" "target"
       "size" "ratio" "load" "iters" "lg^3 n" "edge mult"
  :: List.map
       (fun (n, lambda) ->
         job ~algo:"e3"
           ~params:[ ("n", i2s n); ("lambda", i2s lambda) ]
           (fun ppf ->
             let g = Graphs.Gen.harary ~k:lambda ~n in
             let r = Spantree.Lagrangian.run g ~lambda in
             let p = r.Spantree.Lagrangian.packing in
             let target = Spantree.Lagrangian.target ~lambda in
             Format.fprintf ppf
               "%6d %7d %7d | %8.2f %8.2f %6.3f | %6d %8.0f %9d@." n lambda
               target (Spantree.Spacking.size p)
               (Spantree.Spacking.size p /. float_of_int target)
               (Spantree.Spacking.max_edge_load p)
               r.Spantree.Lagrangian.trace.Spantree.Lagrangian.iterations
               (lg n ** 3.)
               (Spantree.Spacking.max_edge_multiplicity p)))
       [ (48, 4); (48, 8); (64, 16); (64, 32) ]
  @ [ text "(shape: ratio ~ (1 - eps); load <= 1)@." ]

(* ------------------------------------------------------------------ *)
(* E4 — Theorem 1.3 round complexity O~(D + sqrt(n lambda)) *)

let e4 () =
  header
    "E4  distributed spanning-tree packing rounds vs O~(D + sqrt(n \
     lambda))   [Thm 1.3, Lemma 5.1]"
  :: text "%6s %7s %4s | %8s %9s %14s %8s@." "n" "lambda" "D" "rounds"
       "parallel" "(D+sqrt(nl))lg^3" "ratio"
  :: List.map
       (fun (n, lambda) ->
         job ~algo:"e4"
           ~params:[ ("n", i2s n); ("lambda", i2s lambda) ]
           (fun ppf ->
             let g = Graphs.Gen.harary ~k:lambda ~n in
             let d = Graphs.Traversal.diameter g in
             let net = Congest.Net.create Congest.Model.E_congest g in
             let r = Spantree.Dist_packing.run ~max_iterations:40 net ~lambda in
             let budget =
               (float_of_int d +. sqrt (float_of_int (n * lambda)))
               *. (lg n ** 3.)
             in
             Format.fprintf ppf "%6d %7d %4d | %8d %9d %14.0f %8.2f@." n
               lambda d r.Spantree.Dist_packing.measured_rounds
               r.Spantree.Dist_packing.parallel_rounds budget
               (float_of_int r.Spantree.Dist_packing.parallel_rounds /. budget)))
       [ (24, 4); (48, 4); (96, 4); (48, 8) ]
  @ [
      text
        "(shape: ratio stays bounded; 40-iteration cap keeps the \
         run tractable and only lowers the packing size)@.";
    ]

(* ------------------------------------------------------------------ *)
(* E5 — Corollaries 1.4/1.5, A.1: broadcast throughput *)

let e5 () =
  header
    "E5  broadcast throughput: Omega(k/log n) resp. ~lambda/2 msgs/round \
     vs the 1/round baseline   [Cor 1.4/1.5, A.1]"
  :: text "%-24s %6s | %10s %10s %9s@." "setting" "k|l" "throughput"
       "reference" "naive"
  :: (* V-CONGEST: dominating trees *)
     List.map
       (fun k ->
         job ~algo:"e5v" ~params:[ ("k", i2s k) ] ~seed:4 (fun ppf ->
             let n = 2 * k in
             let g = Graphs.Gen.harary ~k ~n in
             let res =
               Domtree.Cds_packing.run ~seed:4 g ~classes:(2 * k / 3) ~layers:2
             in
             let p = Domtree.Tree_extract.of_cds_packing res in
             let sources = List.init n (fun v -> (v, 4)) in
             let net = Congest.Net.create Congest.Model.V_congest g in
             let r =
               Routing.Broadcast.via_dominating_trees ~seed:4 net p ~sources
             in
             let net2 = Congest.Net.create Congest.Model.V_congest g in
             let naive = Routing.Broadcast.naive_single_tree net2 ~sources in
             Format.fprintf ppf "%-24s %6d | %10.2f %10.2f %9.2f@."
               (Printf.sprintf "V-CONGEST n=%d" n)
               k r.Routing.Broadcast.throughput
               (float_of_int k /. lg n)
               naive.Routing.Broadcast.throughput))
       [ 16; 24; 32; 48 ]
  @ (* E-CONGEST: spanning trees; large message count amortizes tree depth *)
  List.map
    (fun lambda ->
      job ~algo:"e5e" ~params:[ ("lambda", i2s lambda) ] ~seed:4 (fun ppf ->
          let n = 48 in
          let g = Graphs.Gen.harary ~k:lambda ~n in
          let sp =
            (Spantree.Sampling_pack.run ~seed:4 g ~lambda)
              .Spantree.Sampling_pack.packing
          in
          let sources = List.init n (fun v -> (v, 8)) in
          let net = Congest.Net.create Congest.Model.E_congest g in
          let r = Routing.Broadcast.via_spanning_trees ~seed:4 net sp ~sources in
          Format.fprintf ppf "%-24s %6d | %10.2f %10.2f %9s@."
            (Printf.sprintf "E-CONGEST n=%d" n)
            lambda r.Routing.Broadcast.throughput
            (float_of_int (Spantree.Lagrangian.target ~lambda))
            "-"))
    [ 8; 16; 24 ]
  @ [ text "(shape: throughput tracks the reference and beats 1)@." ]

(* ------------------------------------------------------------------ *)
(* E6 — Corollary 1.6: oblivious congestion competitiveness *)

let e6 () =
  header
    "E6  oblivious routing: vertex congestion O(log n)-competitive, edge \
     congestion O(1)-competitive   [Cor 1.6]"
  :: text "%-10s %4s %4s | %9s %9s %14s %8s@." "model" "n" "k|l" "measured"
       "optimum" "competitive" "lg n"
  :: List.map
       (fun k ->
         job ~algo:"e6v" ~params:[ ("k", i2s k) ] ~seed:5 (fun ppf ->
             let n = 2 * k in
             let g = Graphs.Gen.harary ~k ~n in
             let res =
               Domtree.Cds_packing.run ~seed:5 g ~classes:(2 * k / 3) ~layers:2
             in
             let p = Domtree.Tree_extract.of_cds_packing res in
             let sources = List.init n (fun v -> (v, 4)) in
             let net = Congest.Net.create Congest.Model.V_congest g in
             let rep =
               Routing.Oblivious.vertex_competitiveness ~seed:5 net p ~k
                 ~sources
             in
             Format.fprintf ppf "%-10s %4d %4d | %9d %9.1f %14.2f %8.2f@."
               "vertex" n k rep.Routing.Oblivious.measured_congestion
               rep.Routing.Oblivious.optimum_lower_bound
               rep.Routing.Oblivious.competitiveness (lg n)))
       [ 16; 24; 32 ]
  @ List.map
      (fun lambda ->
        job ~algo:"e6e" ~params:[ ("lambda", i2s lambda) ] ~seed:5 (fun ppf ->
            let n = 40 in
            let g = Graphs.Gen.harary ~k:lambda ~n in
            let sp =
              (Spantree.Sampling_pack.run ~seed:5 g ~lambda)
                .Spantree.Sampling_pack.packing
            in
            let sources = List.init n (fun v -> (v, 6)) in
            let net = Congest.Net.create Congest.Model.E_congest g in
            let rep =
              Routing.Oblivious.edge_competitiveness ~seed:5 net sp ~lambda
                ~sources
            in
            Format.fprintf ppf "%-10s %4d %4d | %9d %9.1f %14.2f %8s@." "edge"
              n lambda rep.Routing.Oblivious.measured_congestion
              rep.Routing.Oblivious.optimum_lower_bound
              rep.Routing.Oblivious.competitiveness "O(1)"))
      [ 8; 16 ]
  @ [ text "(shape: vertex column = O(log n), edge column flat)@." ]

(* ------------------------------------------------------------------ *)
(* E7 — Corollary 1.7: O(log n)-approximation of vertex connectivity,
   near-linear centralized time vs the flow-based exact baseline *)

let e7 () =
  header
    "E7  vertex-connectivity approximation: ratio <= O(log n); O~(m) time \
     vs flow-based exact   [Cor 1.7]"
  :: text "%-24s %5s %6s %7s | %9s %10s@." "graph" "k" "k-hat" "ratio"
       "approx(s)" "exact(s)"
  :: List.map
       (fun (name, mk) ->
         job ~algo:"e7" ~params:[ ("graph", name) ] ~seed:6 (fun ppf ->
             let g = mk () in
             let t0 = Sys.time () in
             let truth = Graphs.Connectivity.vertex_connectivity g in
             let t_exact = Sys.time () -. t0 in
             let t1 = Sys.time () in
             let r = Domtree.Vc_approx.centralized ~seed:6 g in
             let t_approx = Sys.time () -. t1 in
             Format.fprintf ppf "%-24s %5d %6d %7.2f | %9.3f %10.3f@." name
               truth r.Domtree.Vc_approx.estimate
               (Domtree.Vc_approx.approximation_ratio ~truth r)
               t_approx t_exact))
       [
         ("harary k=8 n=64", fun () -> Graphs.Gen.harary ~k:8 ~n:64);
         ("harary k=8 n=128", fun () -> Graphs.Gen.harary ~k:8 ~n:128);
         ("harary k=8 n=256", fun () -> Graphs.Gen.harary ~k:8 ~n:256);
         ("harary k=8 n=512", fun () -> Graphs.Gen.harary ~k:8 ~n:512);
         ("harary k=16 n=256", fun () -> Graphs.Gen.harary ~k:16 ~n:256);
         ("hypercube d=6", fun () -> Graphs.Gen.hypercube 6);
         ("clique path k=8", fun () -> Graphs.Gen.clique_path ~k:8 ~len:16);
       ]
  @ text
      "(shape: approx time grows ~linearly in m; exact flow baseline grows \
       much faster)@."
    :: (* E7b: the SODA'14 explicit-connector baseline vs Theorem 1.2 *)
       text
         "@.E7b  packing construction: Theorem 1.2 vs the [CGK SODA'14] \
          explicit-connector baseline@."
    :: text "%-24s | %10s %10s %8s@." "clique path (t=12, L=14)" "ours(s)"
         "base(s)" "base/ours"
    :: List.map
         (fun len ->
           job ~algo:"e7b" ~params:[ ("len", i2s len) ] ~seed:5 (fun ppf ->
               let g = Graphs.Gen.clique_path ~k:8 ~len in
               let t0 = Sys.time () in
               let base =
                 Domtree.Cgk_baseline.run ~seed:5 ~jumpstart:1 g ~classes:12
                   ~layers:14
               in
               let t_base = Sys.time () -. t0 in
               let t1 = Sys.time () in
               let ours =
                 Domtree.Cds_packing.run ~seed:5 ~jumpstart:1 g ~classes:12
                   ~layers:14
               in
               let t_ours = Sys.time () -. t1 in
               assert (List.length (Domtree.Cds_packing.valid_classes base) = 12);
               assert (List.length (Domtree.Cds_packing.valid_classes ours) = 12);
               Format.fprintf ppf "%-24s | %10.3f %10.3f %8.1f@."
                 (Printf.sprintf "n=%d" (Graph.n g))
                 t_ours t_base
                 (t_base /. Float.max 1e-9 t_ours)))
         [ 16; 32; 64; 128 ]
  @ [
      text
        "(shape: both always produce 12/12 valid classes; the baseline's \
         time ratio grows with n — the Theorem 1.2 improvement)@.";
    ]

(* ------------------------------------------------------------------ *)
(* E8 — Lemma 4.4 (Fast Merger): M drops by a constant factor per layer *)

let e8 () =
  header
    "E8  fast merger: excess components per layer (expect geometric decay) \
     [Lemma 4.4]"
  :: text "%-28s | %s@." "instance" "M after each layer"
  :: List.map
       (fun (name, mk, classes, layers) ->
         job ~algo:"e8" ~params:[ ("instance", name) ] ~seed:7 (fun ppf ->
             let res =
               Domtree.Cds_packing.run ~seed:7 ~jumpstart:1 (mk ()) ~classes
                 ~layers
             in
             let ms =
               res.Domtree.Cds_packing.stats
                 .Domtree.Cds_packing.excess_after_layer
             in
             Format.fprintf ppf "%-28s | %s@." name
               (String.concat " " (List.map (fun (_, m) -> string_of_int m) ms));
             (* per-layer decay ratios *)
             let rec ratios = function
               | (_, a) :: ((_, b) :: _ as rest) when a > 0 ->
                 (float_of_int b /. float_of_int a) :: ratios rest
               | _ :: rest -> ratios rest
               | [] -> []
             in
             let rs = ratios ms in
             if rs <> [] then
               Format.fprintf ppf "%-28s |   decay ratios: %s@." ""
                 (String.concat " " (List.map (Printf.sprintf "%.2f") rs))))
       [
         ( "clique_path k=8 len=32",
           (fun () -> Graphs.Gen.clique_path ~k:8 ~len:32), 12, 14 );
         ( "clique_path k=6 len=40",
           (fun () -> Graphs.Gen.clique_path ~k:6 ~len:40), 8, 14 );
         ("harary k=24 n=256", (fun () -> Graphs.Gen.harary ~k:24 ~n:256), 24, 16);
         ("torus 16x16", (fun () -> Graphs.Gen.torus 16 16), 4, 14);
       ]
  @ [
      text
        "(shape: every ratio < 1, typically << 1; M hits 0 well \
         before the last layer)@.";
    ]

(* ------------------------------------------------------------------ *)
(* E9 — Lemma 4.3 (Connector Abundance) *)

let e9 () =
  header
    "E9  connector abundance: every non-singleton component has >= k \
     internally disjoint connector paths   [Lemma 4.3, Fig. 2]"
  :: text "%-26s %4s | %10s %10s %12s %6s@." "graph" "k" "classes"
       "components" "min paths" "ok"
  :: List.map
       (fun (name, mk, k, classes, layers) ->
         job ~algo:"e9" ~params:[ ("graph", name) ] ~seed:8 (fun ppf ->
             let audit =
               Domtree.Connector.audit_jumpstart ~seed:8 (mk ()) ~classes
                 ~layers ~k
             in
             Format.fprintf ppf "%-26s %4d | %10d %10d %12s %6b@." name k
               audit.Domtree.Connector.classes_checked
               audit.Domtree.Connector.components_checked
               (if audit.Domtree.Connector.min_disjoint = max_int then "-"
                else string_of_int audit.Domtree.Connector.min_disjoint)
               audit.Domtree.Connector.all_above_k))
       [
         ("hypercube d=5", (fun () -> Graphs.Gen.hypercube 5), 5, 8, 2);
         ( "clique_path k=6 len=12",
           (fun () -> Graphs.Gen.clique_path ~k:6 ~len:12), 6, 8, 2 );
         ("harary k=8 n=64", (fun () -> Graphs.Gen.harary ~k:8 ~n:64), 8, 12, 2);
         ("torus 10x10", (fun () -> Graphs.Gen.torus 10 10), 4, 4, 2);
       ]
  @ [ text "(claim: the 'ok' column is always true)@." ]

(* ------------------------------------------------------------------ *)
(* E10 — Lemma E.1: the randomized tester. One indivisible block: the
   valid and sabotaged trials aggregate into shared summary lines. *)

let e10 () =
  [
    header
      "E10  packing tester: valid packings pass, sabotaged ones are caught \
       w.h.p.   [Lemma E.1]";
    job ~algo:"e10" ~seed:1 (fun ppf ->
        let trials = 20 in
        let k = 6 in
        let g = Graphs.Gen.clique_path ~k ~len:4 in
        (* valid partition: all blocks in class 0 and 1 *)
        let valid_memberships _ = [ 0; 1 ] in
        (* sabotage: class 0 loses the middle blocks -> distance-3 split *)
        let sabotaged v =
          let block = v / k in
          if block = 0 || block = 3 then [ 0; 1 ] else [ 1 ]
        in
        let count memberships =
          let passes = ref 0 in
          let detection_rounds = ref [] in
          for seed = 1 to trials do
            let o =
              Domtree.Tester.run_centralized ~seed g ~memberships ~classes:2
                ~detection_rounds:40
            in
            if o.Domtree.Tester.pass then incr passes;
            match o.Domtree.Tester.detection_round with
            | Some r -> detection_rounds := r :: !detection_rounds
            | None -> ()
          done;
          (!passes, !detection_rounds)
        in
        let vp, _ = count valid_memberships in
        let sp, rounds = count sabotaged in
        Format.fprintf ppf "valid partition:    %d/%d trials pass (expect all)@."
          vp trials;
        Format.fprintf ppf
          "sabotaged (split):  %d/%d trials pass (expect none)@." sp trials;
        if rounds <> [] then begin
          let sum = List.fold_left ( + ) 0 rounds in
          Format.fprintf ppf
            "detection rounds: mean %.1f, max %d (Theta(log n) budget was 40)@."
            (float_of_int sum /. float_of_int (List.length rounds))
            (List.fold_left max 0 rounds)
        end);
  ]

(* ------------------------------------------------------------------ *)
(* E11 — Theorem G.2 / Lemmas G.3-G.6: the lower-bound family. Each row
   derives a private RNG from (11, h) so rows are independent cells. *)

let e11 () =
  header
    "E11  lower-bound family G(X,Y): cut dichotomy, diameter 3, reduction \
     arithmetic   [Thm G.2, Fig. 3]"
  :: text "%3s %4s | %6s %7s %7s | %9s %12s@." "h" "n" "k(dis)" "k(int)"
       "diam<=3" "B bits" "round LB"
  :: List.map
       (fun h ->
         job ~algo:"e11" ~params:[ ("h", i2s h) ] ~seed:11 (fun ppf ->
             let ell = 1 and w = 5 in
             let rng = Random.State.make [| 11; h |] in
             let d = Lowerbound.Disjointness.random_disjoint rng ~h ~density:0.5 in
             let i =
               Lowerbound.Disjointness.random_intersecting rng ~h ~density:0.5
             in
             let cd = Lowerbound.Construction.build d ~ell ~w in
             let ci = Lowerbound.Construction.build i ~ell ~w in
             let kd, _ = Lowerbound.Construction.cut_dichotomy cd in
             let ki, cut = Lowerbound.Construction.cut_dichotomy ci in
             assert (cut <> None);
             let n = Graph.n ci.Lowerbound.Construction.graph in
             Format.fprintf ppf "%3d %4d | %6d %7d %7b | %9d %12.4f@." h n kd
               ki
               (Lowerbound.Construction.diameter_ok cd
               && Lowerbound.Construction.diameter_ok ci)
               (Lowerbound.Simulation.bits_per_message ~n)
               (Lowerbound.Simulation.implied_round_lower_bound ~h ~n)))
       [ 3; 4; 6; 8; 12 ]
  @ text
      "(claims: k(dis) >= w = 5, k(int) = 4 always, diameter 3; the implied \
       round bound grows linearly in h)@."
    :: (* one full distinguisher run with boundary accounting *)
       job ~algo:"e11-distinguisher" ~seed:11 (fun ppf ->
           let rng = Random.State.make [| 11; 99 |] in
           let i =
             Lowerbound.Disjointness.random_intersecting rng ~h:4 ~density:0.5
           in
           let c = Lowerbound.Construction.build i ~ell:1 ~w:5 in
           let rep = Lowerbound.Simulation.distinguish_via_packing ~seed:11 c in
           Format.fprintf ppf
             "distinguisher run (h=4): rounds=%d >= implied %.3f; Alice/Bob \
              boundary bits=%d@."
             rep.Lowerbound.Simulation.measured_rounds
             rep.Lowerbound.Simulation.implied_round_lower_bound
             rep.Lowerbound.Simulation.boundary_bits)
    :: (* Lemma G.5, executed: a T-round protocol simulated by two players *)
       List.map
         (fun rounds ->
           job ~algo:"e11-replay" ~params:[ ("rounds", i2s rounds) ] ~seed:11
             (fun ppf ->
               let rng = Random.State.make [| 11; 98 |] in
               let i2 =
                 Lowerbound.Disjointness.random_intersecting rng ~h:5
                   ~density:0.5
               in
               let c2 = Lowerbound.Construction.build i2 ~ell:3 ~w:4 in
               let rp =
                 Lowerbound.Simulation.two_party_replay c2
                   Lowerbound.Simulation.flood_min_protocol ~rounds
                   ~equal:( = )
               in
               Format.fprintf ppf
                 "Lemma G.5 replay T=%d: split run matches=%b, exchanged %d \
                  bits (2BT bound %d)@."
                 rounds rp.Lowerbound.Simulation.states_match
                 rp.Lowerbound.Simulation.bits_exchanged
                 rp.Lowerbound.Simulation.lemma_bound_bits))
         [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* E12 — integral packings *)

let e12 () =
  header
    "E12  integral packings: spanning-tree peeling vs \
     Tutte/Nash-Williams; vertex-disjoint dominating trees   [§1.2]"
  :: text "%-22s %7s | %7s %9s@." "graph" "lambda" "peeled" "target"
  :: List.map
       (fun lambda ->
         job ~algo:"e12-peel" ~params:[ ("lambda", i2s lambda) ] (fun ppf ->
             let g = Graphs.Gen.harary ~k:lambda ~n:64 in
             let trees = Spantree.Integral.peel g in
             Format.fprintf ppf "%-22s %7d | %7d %9d@."
               (Printf.sprintf "harary n=64") lambda (List.length trees)
               (Spantree.Lagrangian.target ~lambda)))
       [ 4; 8; 16; 32 ]
  @ text "%-22s %7s | %9s %9s %9s@." "graph" "k" "layering" "subpack"
      "k/log^2 n"
    :: List.map
         (fun k ->
           job ~algo:"e12-dom" ~params:[ ("k", i2s k) ] ~seed:12 (fun ppf ->
               let n = 2 * k in
               let g = Graphs.Gen.harary ~k ~n in
               let layering =
                 Domtree.Integral_layering.run ~seed:12 g
                   ~layers:(Domtree.Integral_layering.default_layers ~n)
               in
               let res =
                 Domtree.Cds_packing.run ~seed:12 g ~classes:(2 * k / 3)
                   ~layers:2
               in
               let p = Domtree.Tree_extract.of_cds_packing res in
               let q = Domtree.Tree_extract.integral_subpacking p in
               Format.fprintf ppf "%-22s %7d | %9d %9d %9.2f@."
                 (Printf.sprintf "harary n=%d" n)
                 k layering.Domtree.Integral_layering.successes
                 (Domtree.Packing.count q)
                 (float_of_int k /. (lg n ** 2.))))
         [ 16; 32; 48; 64 ]
  @ [
      text
        "(shape: peeled ~ target; both integral dominating-tree routes are \
         Omega(k/log^2 n), random layering clearly stronger)@.";
    ]

(* ------------------------------------------------------------------ *)
(* E13 — §1.2 remark: learning the 2-neighborhood needs Omega(n/k) rounds *)

let e13 () =
  header
    "E13  learning 2-neighborhood ids costs ~n/k rounds in V-CONGEST   \
     [§1.2 remark]"
  :: text "%6s %4s %7s | %8s %8s@." "n" "k" "extra" "rounds" "n/k"
  :: List.map
       (fun (k, extra) ->
         job ~algo:"e13"
           ~params:[ ("k", i2s k); ("extra", i2s extra) ]
           (fun ppf ->
             let g = Graphs.Gen.star_of_cliques ~k ~extra in
             let n = Graph.n g in
             let net = Congest.Net.create Congest.Model.V_congest g in
             (* protocol: each leaf announces its id (1 round); each clique
                node then forwards its leaves' ids one per round; the hub
                needs all *)
             Congest.Net.broadcast_round net (fun v -> Some [| v |]);
             let pending = Array.make n [] in
             let collect v sender _ _ =
               if sender > k then pending.(v) <- sender :: pending.(v)
             in
             for v = 1 to k do
               Congest.Net.iter_inbox net v collect
             done;
             let hub_known = ref 0 in
             while Array.exists (fun l -> l <> []) pending do
               Congest.Net.broadcast_round net (fun v ->
                   match pending.(v) with
                   | id :: rest ->
                     pending.(v) <- rest;
                     incr hub_known;
                     Some [| id |]
                   | [] -> None)
             done;
             assert (!hub_known = extra);
             Format.fprintf ppf "%6d %4d %7d | %8d %8.1f@." n k extra
               (Congest.Net.rounds net)
               (float_of_int n /. float_of_int k)))
       [ (4, 60); (8, 120); (8, 248); (16, 240) ]
  @ [ text "(shape: rounds ~ extra/k ~ n/k)@." ]

(* ------------------------------------------------------------------ *)
(* E14 — the kappa of [CGK SODA'14] used by the integral packings:
   vertex sampling at 1/2 keeps connectivity Omega(k / log^3 n);
   empirically kappa ~ k/2. Per-row private RNG from (14, n, k). *)

let e14 () =
  header
    "E14  half-density vertex sampling keeps connectivity: kappa vs k      \
     [§1.1, integral packings via [12]]"
  :: text "%6s %4s | %8s %10s@." "n" "k" "kappa" "kappa/k"
  :: List.map
       (fun (n, k) ->
         job ~algo:"e14" ~params:[ ("n", i2s n); ("k", i2s k) ] ~seed:14
           (fun ppf ->
             let rng = Random.State.make [| 14; n; k |] in
             let g = Graphs.Gen.harary ~k ~n in
             let kappa = Graphs.Sampling.sampled_connectivity rng g ~trials:5 in
             Format.fprintf ppf "%6d %4d | %8d %10.2f@." n k kappa
               (float_of_int kappa /. float_of_int k)))
       [ (48, 8); (64, 12); (64, 16); (96, 24) ]
  @ [ text "(shape: kappa/k ~ 1/2 >> the 1/log^3 n guarantee)@." ]

(* ------------------------------------------------------------------ *)
(* E15 — the §1 motivation quantified: RLNC broadcast throughput decays
   with the number of messages (coefficient overhead), tree routing
   does not *)

let e15 () =
  header
    "E15  network coding vs tree routing: coefficient overhead makes RLNC      \
     throughput decay in N; the decomposition is N-independent   [§1]"
  :: text "%6s | %10s %10s %12s %8s@." "N" "rlnc" "trees" "cut k*B/N"
       "decoded"
  :: List.map
       (fun total ->
         job ~algo:"e15" ~params:[ ("N", i2s total) ] ~seed:15 (fun ppf ->
             let k = 16 and n = 32 in
             let g = Graphs.Gen.harary ~k ~n in
             let res =
               Domtree.Cds_packing.run ~seed:15 g ~classes:(2 * k / 3)
                 ~layers:2
             in
             let p = Domtree.Tree_extract.of_cds_packing res in
             let per = max 1 (total / n) in
             let sources = List.init n (fun v -> (v, per)) in
             let netc = Congest.Net.create Congest.Model.V_congest g in
             let rl =
               Routing.Coding.rlnc_broadcast ~seed:15 ~coeff_words_per_round:2
                 netc ~sources
             in
             let nett = Congest.Net.create Congest.Model.V_congest g in
             let tr =
               Routing.Broadcast.via_dominating_trees ~seed:15 nett p ~sources
             in
             Format.fprintf ppf "%6d | %10.2f %10.2f %12.1f %8b@."
               rl.Routing.Coding.messages rl.Routing.Coding.throughput
               tr.Routing.Broadcast.throughput
               (float_of_int (k * 32) /. float_of_int total)
               rl.Routing.Coding.decoded_all))
       [ 32; 64; 128; 256 ]
  @ [
      text
        "(shape: the rlnc column decays toward the k*B/N cut bound as N      \
         grows; the trees column is flat)@.";
    ]

(* ------------------------------------------------------------------ *)

let items () =
  text
    "=================================================================@."
  :: text " Distributed Connectivity Decomposition - experiment suite@."
  :: text " (paper claims vs measured; see DESIGN.md #3 and EXPERIMENTS.md)@."
  :: text
       "=================================================================@."
  :: List.concat
       [
         e1 (); e2 (); e3 (); e4 (); e5 (); e6 (); e7 (); e8 (); e9 ();
         e10 (); e11 (); e12 (); e13 (); e14 (); e15 ();
       ]

let all ?jobs () =
  let stats, _ =
    Exec.Sweep.run ~name:"experiments" ?jobs
      ~bench_json:"BENCH_experiments.json" (items ())
  in
  if stats.Exec.Sweep.failed > 0 then
    failwith
      (Printf.sprintf "experiments: %d cell(s) failed their embedded claim"
         stats.Exec.Sweep.failed);
  Format.printf
    "@.done. (every embedded shape assertion passed; a failed claim would      \
     have aborted this run)@."
