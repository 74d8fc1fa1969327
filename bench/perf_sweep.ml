(* Perf sweep (`bench/main.exe -- perf [n_cap]`): throughput of the
   CONGEST round engine itself — rounds/sec and words/sec — on the
   workload families the experiments drive, at several sizes. This is
   the trajectory artifact for the simulator hot path: every PR that
   touches lib/graph or lib/congest can be judged against the previous
   BENCH_perf.json.

   Three engine drivers:
   - [broadcast]: V-CONGEST, every node locally broadcasts a 3-word
     message each round (the Net.broadcast_round inner loop, neighbor
     fan-out and per-message accounting included);
   - [sparse]: the same round on the ER graphs, but only a fixed
     pseudo-random eighth of the nodes broadcast and the rest stay
     silent (a round whose traffic is far below its 2m slots, as in the
     send-on-change floods of Dist_mst);
   - [edge]: E-CONGEST, every node sends a 1-word message over each
     incident edge direction (the Net.edge_round inner loop, non-edge /
     duplicate-direction checks included).
   Caller-side allocations are hoisted (messages and out-lists are
   prebuilt and reused), so the measurement isolates the engine.

   Sizes run from the historical small points (256..2048, kept so the
   trajectory stays comparable across PRs) up to the large regime:
   Erdős–Rényi (geometric-skip sampler, O(n+m)) and square grids at
   n = 2^15, 2^17 and 2^20.

   This sweep defaults to one worker domain (`-j 1`) so concurrent jobs
   do not contend for cores while the clock runs. Each job also records
   its telemetry run digest, so a perf regression hunt can confirm on
   the spot that an engine change left traffic bit-identical.

   BENCH_perf.json schema (written by this module, not Exec.Sweep):
     { "sweep": "perf", "jobs": N, "wall_s": W,
       "rows": [ { "workload": "er|rr|lollipop|grid", "driver":
                   "broadcast|sparse|edge", "n", "m", "rounds",
                   "rounds_per_sec", "words_per_sec", "run_digest" } ] }
*)

module Graph = Graphs.Graph
module Net = Congest.Net

let now () = Unix.gettimeofday ()

(* Deterministic round count per workload: enough rounds to dominate
   setup noise, capped so the largest sizes stay interactive. *)
let rounds_for ~m = max 16 (min 512 (400_000 / max 1 m))

(* V-CONGEST driver: every node broadcasts a small message each round.
   Messages are preallocated and mutated in place (round tag), so the
   only per-round work outside the engine is O(n) stores. *)
let drive_broadcast net ~rounds =
  let n = Net.n net in
  let msgs = Array.init n (fun u -> [| u land 63; 0; (u * 7) land 63 |]) in
  for r = 1 to rounds do
    let tag = r land 63 in
    for u = 0 to n - 1 do
      msgs.(u).(1) <- tag
    done;
    Net.broadcast_round net (fun u -> Some msgs.(u))
  done

(* Sparse V-CONGEST driver: the nodes whose mixed id falls in one
   eighth of the range broadcast, every round, the same nodes. *)
let drive_sparse net ~rounds =
  let n = Net.n net in
  let msgs = Array.init n (fun u -> [| u land 63; 0; (u * 7) land 63 |]) in
  let out =
    Array.init n (fun u ->
        if (u * 0x9E3779B1) lsr 20 land 7 = 0 then Some msgs.(u) else None)
  in
  for r = 1 to rounds do
    let tag = r land 63 in
    for u = 0 to n - 1 do
      msgs.(u).(1) <- tag
    done;
    Net.broadcast_round net (fun u -> out.(u))
  done

(* E-CONGEST driver: every node loads every incident edge direction with
   a 1-word message. Out-lists are prebuilt once and reused verbatim. *)
let drive_edge net ~rounds =
  let n = Net.n net in
  let g = Net.graph net in
  let outs =
    Array.init n (fun u ->
        Array.to_list
          (Array.map (fun v -> (v, [| u land 63 |])) (Graph.neighbors g u)))
  in
  for _ = 1 to rounds do
    Net.edge_round net (fun u -> outs.(u))
  done

type spec = {
  workload : string;
  driver : string;
  n : int;
  gen : unit -> Graph.t;
}

(* Square-ish grid with r*c = the largest perfect square <= n; the row
   reports the actual vertex count. *)
let grid_side n = int_of_float (sqrt (float_of_int n))

let er_skip_spec ~driver ~n =
  {
    workload = "er";
    driver;
    n;
    gen =
      (fun () ->
        let rng = Random.State.make [| 0xE5; n |] in
        Graphs.Gen.erdos_renyi_skip rng ~n ~p:(8.0 /. float_of_int n));
  }

let grid_spec ~n =
  let side = grid_side n in
  {
    workload = "grid";
    driver = "edge";
    n = side * side;
    gen = (fun () -> Graphs.Gen.grid side side);
  }

let specs n_cap =
  let small_sizes = List.filter (fun n -> n <= n_cap) [ 256; 1024; 2048 ] in
  let small =
    List.concat_map
      (fun n ->
        let er driver =
          {
            workload = "er";
            driver;
            n;
            gen =
              (fun () ->
                let rng = Random.State.make [| 0xE5; n |] in
                Graphs.Gen.erdos_renyi rng ~n ~p:(8.0 /. float_of_int n));
          }
        in
        [
          er "broadcast";
          {
            workload = "rr";
            driver = "edge";
            n;
            gen =
              (fun () ->
                (* d = 4: the configuration model is rejection-sampled and
                   its acceptance rate decays like exp(-d^2/4) *)
                let rng = Random.State.make [| 0x55; n |] in
                Graphs.Gen.random_regular rng ~n ~d:4);
          };
          {
            workload = "lollipop";
            driver = "broadcast";
            n;
            gen =
              (fun () ->
                let c = n / 8 in
                Graphs.Gen.lollipop ~clique:c ~tail:(n - c));
          };
          er "sparse";
        ])
      small_sizes
  in
  (* Large regime: the O(n+m) skip sampler (the quadratic Bernoulli scan
     would dominate the wall clock at 2^20) and square grids. *)
  let large_sizes =
    List.filter (fun n -> n <= n_cap && n > 2048)
      [ 1 lsl 15; 1 lsl 17; 1 lsl 20 ]
  in
  let large =
    List.concat_map
      (fun n ->
        [
          er_skip_spec ~driver:"broadcast" ~n;
          grid_spec ~n;
          er_skip_spec ~driver:"sparse" ~n;
        ])
      large_sizes
  in
  small @ large

let run_spec s () =
  let g = s.gen () in
  let m = Graph.m g in
  let rounds = rounds_for ~m in
  let model, drive =
    match s.driver with
    | "edge" -> (Congest.Model.E_congest, drive_edge)
    | "sparse" -> (Congest.Model.V_congest, drive_sparse)
    | _ -> (Congest.Model.V_congest, drive_broadcast)
  in
  let net = Net.create model g in
  (* warmup: heat caches and the minor heap, then measure from a clean
     counter state so words/sec covers exactly the timed rounds *)
  drive net ~rounds:(max 4 (rounds / 4));
  Net.reset_stats net;
  let t0 = now () in
  drive net ~rounds;
  let dt = now () -. t0 in
  let dt = if dt > 0. then dt else 1e-9 in
  let words = Net.words_sent net in
  let rps = float_of_int rounds /. dt in
  let wps = float_of_int words /. dt in
  let digest = Printf.sprintf "%x" (Net.run_digest (Net.telemetry net)) in
  let out =
    Printf.sprintf "%-9s %-9s %8d %8d %6d | %10.1f %14.0f  %s\n" s.workload
      s.driver (Graph.n g) m rounds rps wps digest
  in
  let row =
    Printf.sprintf "%s,%s,%d,%d,%d,%.1f,%.0f" s.workload s.driver
      (Graph.n g) m rounds rps wps
  in
  Exec.Job.payload ~rows:[ row ]
    ~meta:
      [
        ("workload", s.workload);
        ("driver", s.driver);
        ("n", string_of_int (Graph.n g));
        ("m", string_of_int m);
        ("rounds", string_of_int rounds);
        ("rounds_per_sec", Printf.sprintf "%.1f" rps);
        ("words_per_sec", Printf.sprintf "%.0f" wps);
        ("run_digest", digest);
      ]
    out

let all ?n_cap ?jobs () =
  let n_cap = match n_cap with Some c -> c | None -> 1 lsl 20 in
  (* timing wants an uncontended core: default to one worker domain *)
  let jobs = match jobs with Some j -> j | None -> 1 in
  let items =
    Exec.Sweep.text "@.== round-engine perf sweep (n <= %d) ==@." n_cap
    :: Exec.Sweep.text "%-9s %-9s %8s %8s %6s | %10s %14s  %s@." "workload"
         "driver" "n" "m" "rounds" "rounds/sec" "words/sec" "digest"
    :: List.map
         (fun s ->
           Exec.Sweep.Job
             (Exec.Job.make ~algo:"perf"
                ~params:
                  [
                    ("workload", s.workload);
                    ("driver", s.driver);
                    ("n", string_of_int s.n);
                  ]
                (run_spec s)))
         (specs n_cap)
  in
  let t0 = now () in
  let stats, outcomes = Exec.Sweep.run ~name:"perf" ~jobs items in
  let wall = now () -. t0 in
  let rows =
    List.filter_map
      (fun (_, outcome) ->
        match outcome with
        | `Failed _ -> None
        | `Ok p ->
          let f k = match Exec.Job.meta p k with Some v -> v | None -> "" in
          let int k = Exec.Artifact.Int (int_of_string (f k)) in
          let num k = Exec.Artifact.Float (float_of_string (f k)) in
          Some
            (Exec.Artifact.Obj
               [
                 ("workload", Exec.Artifact.String (f "workload"));
                 ("driver", Exec.Artifact.String (f "driver"));
                 ("n", int "n");
                 ("m", int "m");
                 ("rounds", int "rounds");
                 ("rounds_per_sec", num "rounds_per_sec");
                 ("words_per_sec", num "words_per_sec");
                 ("run_digest", Exec.Artifact.String (f "run_digest"));
               ]))
      outcomes
  in
  Exec.Artifact.write_json ~path:"BENCH_perf.json"
    (Exec.Artifact.Obj
       [
         ("sweep", Exec.Artifact.String "perf");
         ("jobs", Exec.Artifact.Int stats.Exec.Sweep.jobs);
         ("failed", Exec.Artifact.Int stats.Exec.Sweep.failed);
         ("wall_s", Exec.Artifact.Float wall);
         ("rows", Exec.Artifact.List rows);
       ]);
  if stats.Exec.Sweep.failed > 0 then exit 1
