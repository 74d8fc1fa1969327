(* F1 — the robustness experiment behind Theorem 1.1's redundancy story:
   sweep the failure intensity and compare sustained gossip throughput
   of the CDS packing (reroutes around dead classes) against the
   single-BFS-tree baseline (collapses once its one tree is hit).

   Deterministic for a fixed seed: all randomness flows through
   explicitly seeded Random.State values. Each scenario is one Exec.Job
   (both variants of the pair run inside the same cell so their table
   lines stay adjacent); the packing is built once in the parent and
   captured immutably by the closures — the job key still content-
   addresses it, because the packing is a deterministic function of
   (n, k, seed), which the key includes. *)

module Graph = Graphs.Graph
module Faults = Congest.Faults

let run_pair ~seed ~per_node ~g ~packing specs =
  let run variant =
    let net = Congest.Net.create Congest.Model.V_congest g in
    let faults = Faults.create ~seed specs in
    let r =
      match variant with
      | `Packing ->
        Routing.Gossip.all_to_all_ft ~seed ~per_node net faults packing
      | `Naive -> Routing.Gossip.all_to_all_naive_ft ~per_node net faults
    in
    (r, net, faults)
  in
  (run `Packing, run `Naive)

let pp_row ppf ~emit label (r : Routing.Broadcast.ft_result) net
    (faults : Faults.t) =
  Format.fprintf ppf "%-24s | %7d %9.3f %9.3f | %5d %5d %5d | %9d %5b@." label
    r.ft_rounds r.ft_throughput r.ft_coverage r.ft_survivors r.ft_dead_trees
    (Faults.edges_killed faults)
    (Congest.Net.messages_lost net) r.ft_converged;
  emit
    (Printf.sprintf "%s,%d,%.6f,%.6f,%d,%d,%d,%d,%b"
       (String.concat " "
          (String.split_on_char ' ' label |> List.filter (( <> ) "")))
       r.ft_rounds r.ft_throughput r.ft_coverage r.ft_survivors r.ft_dead_trees
       (Faults.edges_killed faults)
       (Congest.Net.messages_lost net) r.ft_converged)

let csv_header =
  "scenario,rounds,msgs_per_round,coverage,survivors,dead_trees,edges_killed,drops,converged"

(* One F1 cell: run the pair, return its two table lines + two CSV rows. *)
let pair_job ~algo ~params ~seed ~per_node ~g ~packing ~labels specs =
  Exec.Sweep.Job
    (Exec.Job.make ~algo ~params ~seed (fun () ->
         let b = Buffer.create 256 in
         let ppf = Format.formatter_of_buffer b in
         let rows = ref [] in
         let emit r = rows := r :: !rows in
         let (rp, np, fp), (rn, nn, fn) =
           run_pair ~seed ~per_node ~g ~packing specs
         in
         let lp, ln = labels in
         pp_row ppf ~emit lp rp np fp;
         pp_row ppf ~emit ln rn nn fn;
         Format.pp_print_flush ppf ();
         Exec.Job.payload ~rows:(List.rev !rows) (Buffer.contents b)))

let items ?(n = 96) ?(k = 24) ?(seed = 7) ?(per_node = 1) () =
  let text = Exec.Sweep.text in
  let header title =
    text "@.%s@.%s@." title (String.make (String.length title) '-')
  in
  let g = Graphs.Gen.harary ~k ~n in
  let res =
    Domtree.Cds_packing.run ~seed g ~classes:(max 1 (2 * k / 3)) ~layers:2
  in
  let packing = Domtree.Tree_extract.of_cds_packing res in
  let base = [ ("n", string_of_int n); ("k", string_of_int k) ] in
  header
    (Printf.sprintf
       "F1  gossip under faults: CDS packing vs single BFS tree (n=%d k=%d \
        seed=%d)"
       n k seed)
  :: text "packing: %d dominating trees over %d classes@."
       (Domtree.Packing.count packing)
       res.Domtree.Cds_packing.classes
  :: text "%-24s | %7s %9s %9s | %5s %5s %5s | %9s %5s@." "scenario" "rounds"
       "msgs/rnd" "coverage" "alive" "deadT" "killE" "drops" "conv"
  :: (* 1. Bernoulli message-drop sweep *)
     List.map
       (fun p ->
         pair_job ~algo:"f1-drop"
           ~params:(("p", Printf.sprintf "%.2f" p) :: base)
           ~seed ~per_node ~g ~packing
           ~labels:
             ( Printf.sprintf "packing  p=%.2f" p,
               Printf.sprintf "1-tree   p=%.2f" p )
           (if p = 0. then [] else [ Faults.Drop_bernoulli p ]))
       [ 0.; 0.01; 0.03; 0.05; 0.10 ]
  @ [
      (* 2. fail-stop crashes: hit nodes early, with light drops on top.
         Node 1 is an internal BFS-tree node on virtually every graph,
         so the baseline's single tree is severed. *)
      pair_job ~algo:"f1-crash" ~params:base ~seed ~per_node ~g ~packing
        ~labels:("packing  2 crashes", "1-tree   2 crashes")
        [ Faults.Crash_at [ (5, 1); (9, n / 2) ]; Faults.Drop_bernoulli 0.02 ];
      (* 3. adaptive edge killer under budget *)
      pair_job ~algo:"f1-kill" ~params:base ~seed ~per_node ~g ~packing
        ~labels:
          ( Printf.sprintf "packing  %d edge kills" (k / 2),
            Printf.sprintf "1-tree   %d edge kills" (k / 2) )
        [ Faults.Greedy_edge_kill { budget = k / 2; period = 4; from_round = 6 } ];
      text
        "(shape: packing throughput degrades smoothly with p and survives \
         crashes/kills;@. the single tree collapses — coverage < 1, \
         throughput ~0 — once an internal@. node or tree edge is hit)@.";
      (* 4. verify-and-retry pipeline cost *)
      header "F2  verify-and-retry decomposition pipeline (Lemma E.1 guard)";
      text "%6s %7s | %8s %8s %8s@." "n" "flaky" "attempts" "verified" "rounds";
    ]
  @ List.map
      (fun (n, classes, layers) ->
        Exec.Sweep.Job
          (Exec.Job.make ~algo:"f2"
             ~params:
               [
                 ("n", string_of_int n);
                 ("classes", string_of_int classes);
                 ("layers", string_of_int layers);
               ]
             ~seed
             (fun () ->
               let g = Graphs.Gen.harary ~k:8 ~n in
               let net = Congest.Net.create Congest.Model.V_congest g in
               let r =
                 Domtree.Reliable.run_verified_distributed ~seed net ~classes
                   ~layers
               in
               Exec.Job.payload
                 (Format.asprintf "%6d %7s | %8d %8b %8d@." n
                    (if layers <= 2 then "yes" else "no")
                    (List.length r.Domtree.Reliable.attempts)
                    r.Domtree.Reliable.verified
                    r.Domtree.Reliable.rounds_charged))))
      [ (32, 5, 8); (48, 5, 8); (64, 6, 10); (48, 10, 2) ]
  @ [
      text
        "(valid decompositions verify on the first attempt; the tester's \
         rounds and any@. backoff are charged to the CONGEST clock)@.";
    ]

let all ?n ?k ?seed ?csv ?jobs () =
  let stats, _ =
    Exec.Sweep.run ~name:"failures" ?jobs ?csv ~csv_header
      ~bench_json:"BENCH_failures.json"
      (items ?n ?k ?seed ())
  in
  if stats.Exec.Sweep.failed > 0 then
    failwith
      (Printf.sprintf "failure sweep: %d cell(s) failed"
         stats.Exec.Sweep.failed)
