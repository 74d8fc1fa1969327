(* Command-line driver for the connectivity decompositions.

   Graphs come either from a generator spec (--gen "harary:k=8,n=64") or
   from an edge-list file (--file graph.txt: one "u v" pair per line,
   vertices 0-based; `--file -` reads stdin).

     decompose vertex --gen harary:k=8,n=64
     decompose edge   --file my_graph.txt
     decompose approx-vc --gen hypercube:d=5
     decompose gossip --gen harary:k=32,n=64
     decompose test-packing --gen clique_path:k=6,len=4 *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Graph sources — parsing/generation lives in Graphs.Source so it is
   unit-testable. Every subcommand builds its graph exactly once, before
   any retry/replay machinery runs; test_decompose pins this down by
   counting Source.load constructions against Reliable attempt counts. *)

let gen_arg =
  Arg.(value & opt (some string) None & info [ "gen" ] ~docv:"SPEC"
         ~doc:"Generator spec, e.g. harary:k=8,n=64 | hypercube:d=5 | \
               clique_path:k=6,len=8 | random:n=64,k=4,extra=40.")

let file_arg =
  Arg.(value & opt (some string) None & info [ "file" ] ~docv:"PATH"
         ~doc:"Edge-list file, one 'u v' per line ('-' = stdin).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* ------------------------------------------------------------------ *)
(* Determinism sanitizer plumbing (--check) *)

let check_arg =
  Arg.(value & flag & info [ "check" ]
         ~doc:"Run the distributed protocol twice from the same seed and \
               fail (exit 3, replay divergence) unless telemetry — rounds, \
               messages, words, losses, per-round traffic digests — is \
               bit-identical. \
               Requires $(b,--distributed).")

(* Under --check, run [f] through Net.replay_check and report; otherwise
   run it once. Either way the caller gets [f]'s result. *)
let run_checked ~check net f =
  if not check then f net
  else begin
    let out = ref None in
    let report = Congest.Net.replay_check net (fun net -> out := Some (f net)) in
    (match report.Congest.Net.r_divergence with
    | None ->
      Format.printf "replay check: deterministic (%a)@."
        Congest.Net.pp_telemetry report.Congest.Net.r_second
    | Some d ->
      Format.eprintf "replay check: seed-determinism violated: %s@." d;
      exit Exit_codes.replay_divergence);
    match !out with Some r -> r | None -> assert false
  end

let require_distributed ~check ~distributed =
  if check && not distributed then
    failwith "--check replays the CONGEST run; it requires --distributed"

(* ------------------------------------------------------------------ *)
(* Subcommands *)

let vertex_cmd =
  let run gen file seed distributed check dot =
    require_distributed ~check ~distributed;
    let g = Graphs.Source.load ~gen ~file () in
    let k = Graphs.Connectivity.vertex_connectivity g in
    Format.printf "n=%d m=%d vertex connectivity=%d@." (Graphs.Graph.n g)
      (Graphs.Graph.m g) k;
    let res =
      if distributed then begin
        let net = Congest.Net.create Congest.Model.V_congest g in
        let r =
          run_checked ~check net (fun net ->
              Domtree.Dist_packing.pack ~seed net ~k:(max 1 k))
        in
        Format.printf "distributed run: %d rounds, %d messages@."
          (Congest.Net.rounds net)
          (Congest.Net.messages_sent net);
        r
      end
      else Domtree.Cds_packing.pack ~seed g ~k:(max 1 k)
    in
    let p = Domtree.Tree_extract.of_cds_packing res in
    Format.printf "dominating trees: %d, packing size %.3f, max load %.3f@."
      (Domtree.Packing.count p) (Domtree.Packing.size p)
      (Domtree.Packing.max_node_load p);
    List.iter
      (fun tr ->
        Format.printf "  tree %d: %d vertices, diameter %d@."
          tr.Domtree.Packing.cls
          (Array.length tr.Domtree.Packing.vertices)
          (Domtree.Packing.tree_diameter p.Domtree.Packing.graph tr))
      p.Domtree.Packing.trees;
    (match dot with
    | Some path ->
      let oc = open_out path in
      let ppf = Format.formatter_of_out_channel oc in
      (match p.Domtree.Packing.trees with
      | tr :: _ ->
        let members = Array.to_list tr.Domtree.Packing.vertices in
        Graphs.Graph.pp_dot ~highlight:(fun v -> List.mem v members) ppf g;
        Format.pp_print_flush ppf ();
        Format.printf "first tree written to %s (members highlighted)@." path
      | [] -> ());
      close_out oc
    | None -> ());
    match Domtree.Packing.verify p with
    | [] -> Format.printf "verification: OK@."
    | vs ->
      List.iter
        (Format.printf "violation: %a@." Domtree.Packing.pp_violation)
        vs;
      exit Exit_codes.failure
  in
  let dist_arg =
    Arg.(value & flag & info [ "distributed" ]
           ~doc:"Run the V-CONGEST distributed algorithm (Theorem 1.1).")
  in
  let dot_arg =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"PATH"
           ~doc:"Write Graphviz source for the first tree to PATH.")
  in
  Cmd.v
    (Cmd.info "vertex" ~doc:"Vertex-connectivity decomposition (dominating trees)")
    Term.(const run $ gen_arg $ file_arg $ seed_arg $ dist_arg
          $ check_arg $ dot_arg)

let edge_cmd =
  let run gen file seed distributed check =
    require_distributed ~check ~distributed;
    let g = Graphs.Source.load ~gen ~file () in
    let lambda = Graphs.Connectivity.edge_connectivity g in
    Format.printf "n=%d m=%d edge connectivity=%d@." (Graphs.Graph.n g)
      (Graphs.Graph.m g) lambda;
    let p =
      if distributed then begin
        let net = Congest.Net.create Congest.Model.E_congest g in
        let r =
          run_checked ~check net (fun net ->
              Spantree.Dist_packing.run_sampled ~seed net
                ~lambda:(max 1 lambda))
        in
        Format.printf
          "distributed run: %d rounds (MST and coordination %d, pipelined \
           estimate %d)@."
          (Congest.Net.rounds net) r.Spantree.Dist_packing.measured_rounds
          r.Spantree.Dist_packing.parallel_rounds;
        r.Spantree.Dist_packing.packing
      end
      else
        (Spantree.Sampling_pack.run ~seed g ~lambda:(max 1 lambda))
          .Spantree.Sampling_pack.packing
    in
    Format.printf
      "spanning trees: %d, packing size %.3f (target %d), max edge load %.3f@."
      (Spantree.Spacking.count p) (Spantree.Spacking.size p)
      (Spantree.Lagrangian.target ~lambda:(max 1 lambda))
      (Spantree.Spacking.max_edge_load p);
    match Spantree.Spacking.verify ~tolerance:1e-6 p with
    | [] -> Format.printf "verification: OK@."
    | vs ->
      List.iter
        (Format.printf "violation: %a@." Spantree.Spacking.pp_violation)
        vs;
      exit Exit_codes.failure
  in
  let dist_arg =
    Arg.(value & flag & info [ "distributed" ]
           ~doc:"Run the E-CONGEST distributed algorithm (Theorem 1.3).")
  in
  Cmd.v
    (Cmd.info "edge" ~doc:"Edge-connectivity decomposition (spanning trees)")
    Term.(const run $ gen_arg $ file_arg $ seed_arg $ dist_arg
          $ check_arg)

let approx_vc_cmd =
  let run gen file seed distributed check =
    require_distributed ~check ~distributed;
    let g = Graphs.Source.load ~gen ~file () in
    let r =
      if distributed then begin
        let net = Congest.Net.create Congest.Model.V_congest g in
        let r =
          run_checked ~check net (fun net -> Domtree.Vc_approx.distributed ~seed net)
        in
        Format.printf "distributed run: %d rounds@." (Congest.Net.rounds net);
        r
      end
      else Domtree.Vc_approx.centralized ~seed g
    in
    Format.printf "estimate k-hat = %d (accepted guess %d after %d attempts)@."
      r.Domtree.Vc_approx.estimate r.Domtree.Vc_approx.accepted_guess
      r.Domtree.Vc_approx.attempts;
    let truth = Graphs.Connectivity.vertex_connectivity g in
    Format.printf "exact k = %d; ratio %.2f@." truth
      (Domtree.Vc_approx.approximation_ratio ~truth r)
  in
  let dist_arg =
    Arg.(value & flag & info [ "distributed" ] ~doc:"V-CONGEST variant.")
  in
  Cmd.v
    (Cmd.info "approx-vc"
       ~doc:"O(log n)-approximate vertex connectivity (Corollary 1.7)")
    Term.(const run $ gen_arg $ file_arg $ seed_arg $ dist_arg
          $ check_arg)

(* ------------------------------------------------------------------ *)
(* Fault-injection arguments, validated at parse time: a bad value is a
   usage error with a clear message, not a crash mid-run *)

let probability_conv =
  let parse s =
    match float_of_string_opt s with
    | Some p when p >= 0. && p <= 1. -> Ok p
    | Some p ->
      Error (`Msg (Printf.sprintf "probability %g is outside [0,1]" p))
    | None -> Error (`Msg (Printf.sprintf "expected a probability, got %S" s))
  in
  Arg.conv ~docv:"P" (parse, Format.pp_print_float)

let nonneg_int_conv =
  let parse s =
    match int_of_string_opt s with
    | Some b when b >= 0 -> Ok b
    | Some b -> Error (`Msg (Printf.sprintf "%d is negative" b))
    | None ->
      Error (`Msg (Printf.sprintf "expected a non-negative integer, got %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let fail_p_arg =
  Arg.(value & opt probability_conv 0. & info [ "fail-p" ] ~docv:"P"
         ~doc:"Per-message Bernoulli drop probability (in [0,1]).")

let crash_arg =
  Arg.(value & opt_all string [] & info [ "crash" ] ~docv:"ROUND:NODE"
         ~doc:"Fail-stop crash of NODE at ROUND (repeatable).")

let kill_arg =
  Arg.(value & opt nonneg_int_conv 0 & info [ "kill-budget" ] ~docv:"B"
         ~doc:"Adaptive adversary kills the B most-loaded edges (B >= 0).")

let storm_arg =
  Arg.(value & opt (some string) None & info [ "storm" ] ~docv:"FROM:PER:LEN"
         ~doc:"Crash storm: from round FROM, PER random crashes per round \
               for LEN rounds.")

let parse_crash spec =
  (* "round:node" *)
  match String.split_on_char ':' spec with
  | [ r; v ] -> (int_of_string (String.trim r), int_of_string (String.trim v))
  | _ -> failwith ("bad --crash spec (want ROUND:NODE): " ^ spec)

let parse_storm ~n spec =
  match
    String.split_on_char ':' spec |> List.map (fun s -> int_of_string (String.trim s))
  with
  | [ from_round; per_round; storm_rounds ]
    when from_round >= 0 && per_round >= 0 && storm_rounds >= 0 ->
    Congest.Faults.Crash_storm { from_round; per_round; storm_rounds; universe = n }
  | _ -> failwith ("bad --storm spec (want FROM:PER:LEN, all >= 0): " ^ spec)

let fault_specs ?storm ?n ~fail_p ~crashes ~kill_budget () =
  List.concat
    [
      (if fail_p > 0. then [ Congest.Faults.Drop_bernoulli fail_p ] else []);
      (match crashes with
      | [] -> []
      | l -> [ Congest.Faults.Crash_at (List.map parse_crash l) ]);
      (if kill_budget > 0 then
         [
           Congest.Faults.Greedy_edge_kill
             { budget = kill_budget; period = 4; from_round = 6 };
         ]
       else []);
      (match (storm, n) with
      | Some spec, Some n -> [ parse_storm ~n spec ]
      | Some _, None -> assert false
      | None, _ -> []);
    ]

let gossip_cmd =
  let run gen file seed per_node fail_p crashes kill_budget =
    let g = Graphs.Source.load ~gen ~file () in
    let k = Graphs.Connectivity.vertex_connectivity g in
    let res =
      Domtree.Cds_packing.run ~seed g
        ~classes:(max 1 (2 * k / 3))
        ~layers:2
    in
    let p = Domtree.Tree_extract.of_cds_packing res in
    let specs = fault_specs ~fail_p ~crashes ~kill_budget () in
    if specs = [] then begin
      let net = Congest.Net.create Congest.Model.V_congest g in
      let rep = Routing.Gossip.all_to_all ~seed ~per_node net p ~k in
      let r = rep.Routing.Gossip.result in
      Format.printf
        "gossip: %d messages in %d rounds (%.2f/round); reference bound %.1f@."
        r.Routing.Broadcast.messages r.Routing.Broadcast.rounds
        r.Routing.Broadcast.throughput rep.Routing.Gossip.bound;
      let net2 = Congest.Net.create Congest.Model.V_congest g in
      let naive = Routing.Gossip.all_to_all_naive ~per_node net2 in
      Format.printf "single-tree baseline: %d rounds (%.2f/round)@."
        naive.Routing.Broadcast.rounds naive.Routing.Broadcast.throughput
    end
    else begin
      let pp label (r : Routing.Broadcast.ft_result) net faults =
        Format.printf
          "%s: %d/%d messages delivered in %d rounds (%.3f/round), coverage \
           %.3f, %d survivors, %d dead trees@.  %a@."
          label r.Routing.Broadcast.ft_delivered
          r.Routing.Broadcast.ft_messages r.Routing.Broadcast.ft_rounds
          r.Routing.Broadcast.ft_throughput r.Routing.Broadcast.ft_coverage
          r.Routing.Broadcast.ft_survivors r.Routing.Broadcast.ft_dead_trees
          (Congest.Faults.pp_summary net) faults
      in
      let net = Congest.Net.create Congest.Model.V_congest g in
      let faults = Congest.Faults.create ~seed specs in
      let r = Routing.Gossip.all_to_all_ft ~seed ~per_node net faults p in
      pp "gossip under faults (packing)" r net faults;
      let net2 = Congest.Net.create Congest.Model.V_congest g in
      let faults2 = Congest.Faults.create ~seed specs in
      let rn = Routing.Gossip.all_to_all_naive_ft ~per_node net2 faults2 in
      pp "single-tree baseline" rn net2 faults2
    end
  in
  let per_node_arg =
    Arg.(value & opt int 1 & info [ "per-node" ] ~doc:"Messages per node.")
  in
  Cmd.v
    (Cmd.info "gossip" ~doc:"All-to-all broadcast via the decomposition (App. A)")
    Term.(const run $ gen_arg $ file_arg $ seed_arg $ per_node_arg
          $ fail_p_arg $ crash_arg $ kill_arg)

let verified_cmd =
  let run gen file seed distributed check max_retries policy fail_p
      crashes kill_budget storm =
    require_distributed ~check ~distributed;
    (* the graph is built exactly once, here — the verify-and-retry
       pipeline below reuses [g] across every attempt and replay *)
    let g = Graphs.Source.load ~gen ~file () in
    let n = Graphs.Graph.n g in
    let k = max 1 (Graphs.Connectivity.vertex_connectivity g) in
    let specs = fault_specs ?storm ~n ~fail_p ~crashes ~kill_budget () in
    if specs <> [] && not distributed then
      failwith "fault injection targets the CONGEST runtime; it requires \
                --distributed";
    let live = ref (fun _ -> true) in
    let r =
      if distributed then begin
        let net = Congest.Net.create Congest.Model.V_congest g in
        (if specs <> [] then begin
           let faults = Congest.Faults.create ~seed specs in
           Congest.Faults.install net faults;
           live := Congest.Faults.alive faults
         end);
        let r =
          run_checked ~check net (fun net ->
              Domtree.Reliable.pack_verified_distributed ~seed ~max_retries
                ~policy net ~k)
        in
        Format.printf
          "rounds charged (packing + tester + repair + backoff): %d@."
          r.Domtree.Reliable.rounds_charged;
        r
      end
      else Domtree.Reliable.pack_verified ~seed ~max_retries ~policy g ~k
    in
    List.iteri
      (fun i (a : Domtree.Reliable.attempt) ->
        Format.printf "attempt %d (seed %d): pass=%b domination=%b \
                       connectivity=%b repaired=%b rounds=%d@."
          i a.Domtree.Reliable.attempt_seed a.outcome.Domtree.Tester.pass
          a.outcome.Domtree.Tester.domination_ok
          a.outcome.Domtree.Tester.connectivity_ok
          a.Domtree.Reliable.repaired a.Domtree.Reliable.attempt_rounds)
      r.Domtree.Reliable.attempts;
    (match r.Domtree.Reliable.repair with
    | Some rep -> Format.printf "%a@." Domtree.Repair.pp rep
    | None -> ());
    let cert = r.Domtree.Reliable.certificate in
    Format.printf "%a@." Domtree.Certificate.pp cert;
    (match
       Domtree.Certificate.check ~seed:(seed + 1) ~live:!live g
         ~memberships:(fun v -> r.Domtree.Reliable.memberships.(v))
         cert
     with
    | Ok () -> Format.printf "certificate check: OK@."
    | Error errs ->
      List.iter (Format.eprintf "certificate check: %s@.") errs;
      exit Exit_codes.failure);
    if not r.Domtree.Reliable.verified then begin
      Format.printf "FAILED: no verified decomposition in %d attempts@."
        (List.length r.Domtree.Reliable.attempts);
      exit Exit_codes.failure
    end;
    (match r.Domtree.Reliable.repair with
    | None ->
      let p = Domtree.Tree_extract.of_cds_packing r.Domtree.Reliable.packing in
      Format.printf
        "verified decomposition after %d retries: %d trees, size %.3f@."
        r.Domtree.Reliable.retries (Domtree.Packing.count p)
        (Domtree.Packing.size p)
    | Some _ ->
      Format.printf
        "verified decomposition after %d retries: %d/%d classes retained \
         (repaired)@."
        r.Domtree.Reliable.retries r.Domtree.Reliable.classes_retained
        cert.Domtree.Certificate.c_classes_requested);
    if r.Domtree.Reliable.degraded then begin
      (* distinct exit status: the output is certified correct but holds
         fewer classes than requested — graceful degradation, not
         success and not failure *)
      Format.printf "DEGRADED: %d of %d requested classes retained@."
        r.Domtree.Reliable.classes_retained
        cert.Domtree.Certificate.c_classes_requested;
      exit Exit_codes.degraded
    end
  in
  let dist_arg =
    Arg.(value & flag & info [ "distributed" ]
           ~doc:"Run packing and tester on the V-CONGEST runtime.")
  in
  let retries_arg =
    Arg.(value & opt int Domtree.Reliable.default_max_retries
         & info [ "max-retries" ] ~doc:"Retry budget after the first attempt.")
  in
  let policy_arg =
    Arg.(value
         & opt (enum [ ("retry", `Retry); ("repair", `Repair) ]) `Retry
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"Recovery policy on a failed verification: $(b,retry) \
                   re-runs from a fresh seed; $(b,repair) splices broken \
                   classes locally, drops what it cannot fix, and certifies \
                   the survivors (exit 4 if degraded).")
  in
  Cmd.v
    (Cmd.info "verified"
       ~doc:"Decompose under the verify-and-recover pipeline (Appendix E \
             guard); exit 4 = verified but degraded")
    Term.(const run $ gen_arg $ file_arg $ seed_arg $ dist_arg
          $ check_arg $ retries_arg $ policy_arg $ fail_p_arg $ crash_arg
          $ kill_arg $ storm_arg)

let test_packing_cmd =
  let run gen file seed =
    let g = Graphs.Source.load ~gen ~file () in
    let k = max 1 (Graphs.Connectivity.vertex_connectivity g) in
    let res = Domtree.Cds_packing.pack ~seed g ~k in
    let per_real = Domtree.Cds_packing.real_classes res in
    let outcome =
      Domtree.Tester.run_centralized ~seed g
        ~memberships:(fun r -> per_real.(r))
        ~classes:res.Domtree.Cds_packing.classes
        ~detection_rounds:
          (Domtree.Tester.default_detection_rounds ~n:(Graphs.Graph.n g))
    in
    Format.printf "tester: pass=%b domination=%b connectivity=%b@."
      outcome.Domtree.Tester.pass outcome.Domtree.Tester.domination_ok
      outcome.Domtree.Tester.connectivity_ok;
    if not outcome.Domtree.Tester.pass then exit Exit_codes.failure
  in
  Cmd.v
    (Cmd.info "test-packing"
       ~doc:"Pack, then run the randomized Appendix E partition tester")
    Term.(const run $ gen_arg $ file_arg $ seed_arg)

let exact_cmd =
  let run gen file =
    let g = Graphs.Source.load ~gen ~file () in
    Format.printf "n=%d m=%d min degree=%d@." (Graphs.Graph.n g)
      (Graphs.Graph.m g) (Graphs.Graph.min_degree g);
    let lambda = Graphs.Connectivity.edge_connectivity g in
    let k = Graphs.Connectivity.vertex_connectivity g in
    Format.printf "edge connectivity lambda = %d@." lambda;
    Format.printf "vertex connectivity k = %d@." k;
    (match Graphs.Connectivity.min_vertex_cut g with
    | Some cut ->
      Format.printf "a minimum vertex cut: {%s}@."
        (String.concat ", " (List.map string_of_int cut))
    | None -> ());
    let bridges = Graphs.Biconnectivity.bridges g in
    if bridges <> [] then
      Format.printf "bridges: %s@."
        (String.concat ", "
           (List.map (fun (u, v) -> Printf.sprintf "(%d,%d)" u v) bridges));
    let cuts = Graphs.Biconnectivity.articulation_points g in
    if cuts <> [] then
      Format.printf "articulation points: %s@."
        (String.concat ", " (List.map string_of_int cuts))
  in
  Cmd.v
    (Cmd.info "exact" ~doc:"Exact connectivity values and cut witnesses")
    Term.(const run $ gen_arg $ file_arg)

(* ------------------------------------------------------------------ *)
(* The decomposition service (DESIGN.md §11): `serve` runs the daemon,
   `serve-call` is the blocking client used interactively and by CI *)

module Sp = Serve.Protocol

let socket_arg =
  Arg.(value & opt string "decompose.sock" & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix domain socket path of the daemon.")

let serve_cmd =
  let run socket queue deadline_ms rounds_per_ms ms_per_attempt max_n
      chaos_fail_p chaos_storm state_dir snapshot_every idle_timeout_ms
      metrics_file metrics_every_ms supervise max_crashes =
    let cfg =
      {
        (Serve.Server.default_config ~socket_path:socket) with
        Serve.Server.queue_capacity = queue;
        state_dir;
        snapshot_every;
        idle_timeout_ms;
        metrics_file;
        metrics_every_ms;
        worker =
          {
            Serve.Worker.default_config with
            Serve.Worker.default_deadline_ms = deadline_ms;
            rounds_per_ms;
            ms_per_attempt;
            max_n;
            chaos_fail_p;
            chaos_storm = Option.value ~default:"" chaos_storm;
          };
      }
    in
    let serve () =
      Serve.Server.run
        ~on_ready:(fun () ->
          Format.printf "serving on %s (queue %d, default deadline %d ms%s%s)@."
            socket queue deadline_ms
            (match state_dir with
            | Some d -> ", journal in " ^ d
            | None -> "")
            (if chaos_fail_p > 0. || chaos_storm <> None then ", chaos mode"
             else ""))
        cfg
    in
    if not supervise then begin
      serve ();
      Format.printf "drained; exiting@."
    end
    else begin
      (* supervised mode: the daemon runs in a forked child; readiness
         is a successful Health round trip over the socket *)
      let probe () =
        match Serve.Server.Client.connect ~timeout_s:1. socket with
        | cl ->
          let ok =
            match Serve.Server.Client.request cl Sp.Health with
            | Ok (Sp.Health_report _) -> true
            | _ -> false
          in
          Serve.Server.Client.close cl;
          ok
        | exception (Unix.Unix_error _ | Sys_error _) -> false
      in
      let outcome =
        Serve.Supervisor.supervise
          { Serve.Supervisor.default_config with max_crashes }
          ~on_event:(fun e ->
            Format.printf "supervisor: %a@." Serve.Supervisor.pp_event e;
            Format.pp_print_flush Format.std_formatter ())
          ~spawn:serve ~probe
      in
      match outcome with
      | Serve.Supervisor.Clean_exit { restarts } ->
        Format.printf "supervisor: daemon drained (restarts=%d); exiting@."
          restarts
      | Serve.Supervisor.Crash_loop { crashes } ->
        Format.eprintf
          "supervisor: giving up after %d crashes in the window@." crashes;
        exit Exit_codes.crash_loop
    end
  in
  let queue_arg =
    Arg.(value & opt nonneg_int_conv 64 & info [ "queue" ] ~docv:"N"
           ~doc:"Bounded request-queue capacity; a full queue sheds with \
                 an Overloaded reply (exit 5 on the client).")
  in
  let deadline_arg =
    Arg.(value & opt nonneg_int_conv 2000 & info [ "deadline-ms" ]
           ~doc:"Default per-request deadline when the client sends 0.")
  in
  let rpm_arg =
    Arg.(value & opt nonneg_int_conv 500 & info [ "rounds-per-ms" ]
           ~doc:"Deadline-to-budget mapping: CONGEST rounds charged per \
                 deadline millisecond for distributed requests.")
  in
  let mpa_arg =
    Arg.(value & opt nonneg_int_conv 250 & info [ "ms-per-attempt" ]
           ~doc:"Deadline-to-budget mapping: milliseconds per centralized \
                 retry attempt.")
  in
  let max_n_arg =
    Arg.(value & opt nonneg_int_conv (1 lsl 20) & info [ "max-n" ]
           ~doc:"Admission control: largest graph (vertices) served. \
                 Vertex packings reject graphs above 1,664,510 vertices.")
  in
  let chaos_p_arg =
    Arg.(value & opt probability_conv 0. & info [ "chaos-fail-p" ] ~docv:"P"
           ~doc:"Chaos mode: Bernoulli message drops injected into every \
                 distributed request served.")
  in
  let chaos_storm_arg =
    Arg.(value & opt (some string) None & info [ "chaos-storm" ]
           ~docv:"FROM:PER:LEN"
           ~doc:"Chaos mode: crash storm injected into every distributed \
                 request served.")
  in
  let state_dir_arg =
    Arg.(value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR"
           ~doc:"Crash-only state: journal every uploaded graph and \
                 certificate promotion here and replay it on startup, so \
                 a kill -9 loses nothing durable.")
  in
  let snapshot_every_arg =
    Arg.(value & opt nonneg_int_conv 512 & info [ "snapshot-every" ] ~docv:"N"
           ~doc:"Journal records between snapshot compactions; 0 disables \
                 snapshots (the journal only grows).")
  in
  let idle_timeout_arg =
    Arg.(value & opt nonneg_int_conv 10_000 & info [ "idle-timeout-ms" ]
           ~doc:"Slow-client guard: drop a connection whose partial frame \
                 makes no byte progress for this long.")
  in
  let metrics_file_arg =
    Arg.(value & opt (some string) None & info [ "metrics-file" ] ~docv:"PATH"
           ~doc:"Dump the metrics snapshot here as JSON (atomic rename) \
                 every --metrics-every-ms and once on shutdown.")
  in
  let metrics_every_arg =
    Arg.(value & opt nonneg_int_conv 1_000 & info [ "metrics-every-ms" ]
           ~doc:"Period of the --metrics-file dump.")
  in
  let supervise_arg =
    Arg.(value & flag & info [ "supervise" ]
           ~doc:"Run the daemon as a supervised child process: restart on \
                 crash with exponential backoff, gate traffic on a \
                 readiness probe, give up (exit 6) on a crash loop.")
  in
  let max_crashes_arg =
    Arg.(value & opt nonneg_int_conv 5 & info [ "max-crashes" ] ~docv:"N"
           ~doc:"Supervised mode: crashes tolerated per 60s window before \
                 the circuit breaker opens.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the decomposition daemon (Unix socket, framed binary \
             protocol); serves until a drain request completes")
    Term.(const run $ socket_arg $ queue_arg $ deadline_arg $ rpm_arg $ mpa_arg
          $ max_n_arg $ chaos_p_arg $ chaos_storm_arg
          $ state_dir_arg $ snapshot_every_arg $ idle_timeout_arg
          $ metrics_file_arg $ metrics_every_arg $ supervise_arg
          $ max_crashes_arg)

(* serve-call --health, humanized: grouped key=value lines so operators
   can read it and scripts can keep grepping the same tokens the
   one-line rendering used (CI asserts on "replayed=N"). *)
let pp_health ppf (h : Sp.health_resp) =
  Format.fprintf ppf
    "health@,\
     \  uptime=%dms@,\
     \  served=%d fresh=%d stale=%d@,\
     \  shed=%d errors=%d@,\
     \  queue=%d/%d draining=%b@,\
     \  cached_certs=%d replayed=%d@,\
     \  journal_bytes=%d journal_segments=%d"
    h.Sp.h_uptime_ms h.Sp.h_served h.Sp.h_fresh h.Sp.h_stale h.Sp.h_shed
    h.Sp.h_errors h.Sp.h_queue_depth h.Sp.h_queue_capacity h.Sp.h_draining
    h.Sp.h_cached_certs h.Sp.h_replayed h.Sp.h_journal_bytes
    h.Sp.h_journal_segments

let serve_call_cmd =
  let run socket health stats drain crash_test certificate verify gen seed k
      policy distributed deadline_ms fail_p storm =
    let req =
      if health then Sp.Health
      else if stats then Sp.Stats
      else if drain then Sp.Drain
      else if crash_test then Sp.Crash_test
      else
        match gen with
        | None ->
          failwith
            "serve-call needs --gen (or one of \
             --health/--stats/--drain/--crash-test)"
        | Some gen ->
          if certificate then Sp.Certificate { gen }
          else begin
            let d =
              {
                Sp.gen;
                seed;
                k;
                policy;
                distributed;
                deadline_ms;
                fail_p;
                storm = Option.value ~default:"" storm;
              }
            in
            if verify then Sp.Verify d else Sp.Decompose d
          end
    in
    let cl = Serve.Server.Client.connect socket in
    let res = Serve.Server.Client.request cl req in
    Serve.Server.Client.close cl;
    match res with
    | Error m ->
      Format.eprintf "serve-call: transport error: %s@." m;
      exit Exit_codes.failure
    | Ok resp ->
      (match resp with
      | Sp.Health_report h -> Format.printf "@[<v>%a@]@." pp_health h
      | Sp.Stats_report s ->
        (* Prometheus text exposition: exactly what a scrape endpoint
           would serve, pipeable into promtool. Quantile estimates ride
           along as comment lines for the human reading the terminal. *)
        Format.printf "# uptime_ms %d@.%s" s.Sp.s_uptime_ms
          (Obs.Export.prometheus s.Sp.s_metrics);
        List.iter
          (fun (name, h) ->
            if h.Obs.Metrics.h_count > 0 then
              Format.printf "# quantiles %s count=%d p50=%d p99=%d@." name
                h.Obs.Metrics.h_count
                (Obs.Metrics.quantile h 0.50)
                (Obs.Metrics.quantile h 0.99))
          s.Sp.s_metrics.Obs.Metrics.s_hists
      | resp -> Format.printf "%a@." Sp.pp_response resp);
      let code =
        match resp with
        | Sp.Result r ->
          if r.Sp.stale || r.Sp.degraded then Exit_codes.degraded
          else if r.Sp.verified then Exit_codes.ok
          else Exit_codes.failure
        | Sp.Cert c ->
          if c.Sp.c_stale then Exit_codes.degraded else Exit_codes.ok
        | Sp.Health_report _ | Sp.Drained _ | Sp.Stats_report _ ->
          Exit_codes.ok
        | Sp.Error (Sp.Overloaded, _) -> Exit_codes.overloaded
        | Sp.Error (Sp.Bad_request, _) -> Exit_codes.usage
        | Sp.Error _ -> Exit_codes.failure
      in
      if code <> Exit_codes.ok then exit code
  in
  let health_arg =
    Arg.(value & flag & info [ "health" ] ~doc:"Liveness probe; answers \
                                               even under a full queue.")
  in
  let stats_arg =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Fetch the metrics snapshot and print it in Prometheus \
                 text exposition format.")
  in
  let drain_arg =
    Arg.(value & flag & info [ "drain" ]
           ~doc:"Stop admission, let the queue empty, shut the daemon down.")
  in
  let crash_arg' =
    Arg.(value & flag & info [ "crash-test" ]
           ~doc:"Test hook: make the worker raise mid-request; the daemon \
                 must answer Internal_error and survive.")
  in
  let cert_arg =
    Arg.(value & flag & info [ "certificate" ]
           ~doc:"Fetch the last cached certificate for --gen (no \
                 recompute).")
  in
  let verify_flag =
    Arg.(value & flag & info [ "verify" ]
           ~doc:"Decompose, then independently re-check the certificate.")
  in
  let k_arg =
    Arg.(value & opt nonneg_int_conv 0 & info [ "k" ]
           ~doc:"Connectivity classes to request; 0 lets the daemon \
                 estimate (Corollary 1.7).")
  in
  let policy_arg =
    Arg.(value
         & opt (enum [ ("retry", `Retry); ("repair", `Repair) ]) `Retry
         & info [ "policy" ] ~docv:"POLICY" ~doc:"Recovery policy.")
  in
  let dist_arg =
    Arg.(value & flag & info [ "distributed" ]
           ~doc:"Run on the V-CONGEST runtime (required for fault \
                 injection).")
  in
  let deadline_arg =
    Arg.(value & opt nonneg_int_conv 0 & info [ "deadline-ms" ]
           ~doc:"Per-request deadline; 0 = the daemon's default.")
  in
  Cmd.v
    (Cmd.info "serve-call"
       ~doc:"Send one request to a running daemon and print the reply; \
             exit codes: 0 ok, 1 failure, 2 bad request, 4 \
             degraded/stale, 5 overloaded")
    Term.(const run $ socket_arg $ health_arg $ stats_arg $ drain_arg
          $ crash_arg' $ cert_arg $ verify_flag $ gen_arg $ seed_arg $ k_arg
          $ policy_arg $ dist_arg $ deadline_arg $ fail_p_arg $ storm_arg)

let () =
  let doc = "distributed connectivity decomposition (PODC'14), executable" in
  let info = Cmd.info "decompose" ~version:"1.0.0" ~doc in
  let status =
    (* ~catch:false so model-level failures reach our handlers below
       instead of cmdliner's generic "internal error" report *)
    try
      Cmd.eval ~catch:false
        (Cmd.group info
           [
             vertex_cmd; edge_cmd; approx_vc_cmd; gossip_cmd; verified_cmd;
             test_packing_cmd; exact_cmd; serve_cmd; serve_call_cmd;
           ])
    with
    | Congest.Net.Protocol_violation v ->
      (* a CONGEST-model violation is an algorithm bug, not a crash:
         report the offending round/node/edge instead of a backtrace *)
      Format.eprintf "decompose: protocol violation: %a@."
        Congest.Net.pp_violation v;
      Exit_codes.usage
    | Failure msg | Invalid_argument msg ->
      Format.eprintf "decompose: %s@." msg;
      Exit_codes.usage
    | Unix.Unix_error (err, syscall, arg) ->
      (* serve/serve-call socket trouble (daemon not running, stale
         path, permissions): one readable line, not a backtrace *)
      (* lint: allow nondet-clock — renders an errno for the
         diagnostic; no clock or environment is read *)
      let reason = Unix.error_message err in
      Format.eprintf "decompose: %s%s: %s@." syscall
        (if arg = "" then "" else " " ^ arg)
        reason;
      Exit_codes.failure
  in
  exit status
