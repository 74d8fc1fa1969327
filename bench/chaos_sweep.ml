(* F3 — the chaos harness behind the self-healing pipeline: sweep
   adversary schedules across graph families and race the two recovery
   policies of Domtree.Reliable head to head.

   Schedules:
   - storm:     a seeded crash storm early in the run;
   - mincut:    targeted fail-stop kills of all-but-one vertex of a
                minimum vertex cut — redundancy attacked exactly where
                it is thinnest, while the live graph stays connected (a
                strict subset of a minimum cut is never a separator).
                The Appendix G family reuses Lowerbound.Construction:
                its intersecting instance pins the cut at {a,b,u_z,v_z}
                (Lemma G.4, via cut_dichotomy);
   - attrition: an adaptive greedy edge killer plus light Bernoulli
                message drops for the whole run.

   Every cell reports rounds-to-verified and classes retained, and the
   output's Certificate is re-checked independently against the live
   subgraph. Three invariants fail the sweep loudly:
   - every certificate (degraded or not) must pass the check;
   - wherever Repair's own repaired packing verified, `Repair must
     charge no more rounds than `Retry — the point of incremental
     repair;
   - wherever no repair verified, `Repair fell back to the reseeded
     retry ladder and its result equals `Retry's (same attempt seeds,
     memberships and classes retained). Its rounds may exceed Retry's
     there: the rolled-back repair regions stay charged.

   Deterministic for a fixed seed. The grid is 4 families x 4 schedules;
   each cell is one self-contained Exec.Job (it rebuilds its family by
   name and re-runs calibration inside the closure, so cells share no
   state and run on any domain). The grid invariants are checked
   after the pool drains, from the structured meta facts each cell
   returns — they need the whole grid, so they cannot live inside any
   single job. *)

module Faults = Congest.Faults
module Reliable = Domtree.Reliable
module Certificate = Domtree.Certificate

type family = {
  fam : string;
  graph : Graphs.Graph.t;
  k : int;
  cut : int list option;  (** a minimum vertex cut, when one is known *)
}

let family_names = [ "harary"; "hypercube"; "clique_path"; "lowerbound" ]

(* Rebuild one family from its name — called inside job closures so each
   cell owns its graph. Deterministic: the lowerbound instance derives
   from a fixed-seed state. *)
let family_of_name ~n ~k name =
  let mk fam graph k =
    { fam; graph; k; cut = Graphs.Connectivity.min_vertex_cut graph }
  in
  match name with
  | "harary" -> mk "harary" (Graphs.Gen.harary ~k ~n) k
  | "hypercube" -> mk "hypercube" (Graphs.Gen.hypercube 5) 5
  | "clique_path" -> mk "clique_path" (Graphs.Gen.clique_path ~k:6 ~len:6) 6
  | "lowerbound" ->
    (* Appendix G graph on an intersecting instance: Lemma G.4 pins the
       minimum cut at exactly {a, b, u_z, v_z} *)
    let rng = Random.State.make [| 5 |] in
    let inst =
      Lowerbound.Disjointness.random_intersecting rng ~h:4 ~density:0.5
    in
    let c = Lowerbound.Construction.build inst ~ell:1 ~w:4 in
    let vc, cut = Lowerbound.Construction.cut_dichotomy c in
    { fam = "lowerbound"; graph = c.Lowerbound.Construction.graph; k = vc; cut }
  | other -> invalid_arg ("chaos family: " ^ other)

(* A calibration run of the first attempt's packing, fault-free. Faults
   scheduled {e after} its round count land inside the verification
   window, breaking a packing that was already built — the case
   incremental repair exists for. (Faults during packing are simply
   absorbed: the pipeline is live-aware, so a packing grown on the
   surviving graph verifies.) Because the chaos schedules only fire
   after this point, the calibration memberships are exactly the first
   attempt's memberships, so the adversary can aim. *)
(* With the default (deep-layered) parameters the packing is fully
   redundant — every vertex lands in every class and no crash short of
   disconnecting the graph breaks anything. Chaos wants the sparse
   regime, where classes have structure an adversary can break and a
   repair can mend: more classes, shallow layers. *)
let shape f =
  let classes = max 2 (2 * f.k / 3) in
  (classes, 2)

let calibrate ~seed f =
  let net = Congest.Net.create Congest.Model.V_congest f.graph in
  let classes, layers = shape f in
  let res = Domtree.Dist_packing.run ~seed net ~classes ~layers in
  (Congest.Net.rounds net, Domtree.Cds_packing.real_classes res)

(* The aimed kill: find a non-member of class 0 whose class-0 neighbors
   are few — but not its whole neighborhood — and crash exactly those. A
   guaranteed domination hole at that vertex, detected by the tester and
   patched by one orphan reassignment (plus splices if the kill also
   fragmented the class). Requiring a surviving non-class-0 neighbor
   keeps the target attached to the live graph: isolating a vertex is a
   different experiment (it disconnects the live graph, which no
   distributed tester can see across — the certificate is the arbiter
   there, and Repair rightly degrades). *)
let orphan_kills ~after g per_real =
  let n = Graphs.Graph.n g in
  let in0 v = List.mem 0 per_real.(v) in
  let best = ref None in
  for v = 0 to n - 1 do
    if not (in0 v) then begin
      let nbrs = Array.to_list (Graphs.Graph.neighbors g v) in
      let cover = List.filter in0 nbrs in
      if cover <> [] && List.length cover < List.length nbrs then
        match !best with
        | Some (_, c) when List.length c <= List.length cover -> ()
        | _ -> best := Some (v, cover)
    end
  done;
  match !best with
  | Some (_, cover) ->
    [ Faults.Crash_at (List.map (fun u -> (after, u)) cover) ]
  | None -> []

let schedule_names = [ "storm"; "mincut"; "orphan"; "attrition" ]

let schedule_of_name ~after ~per_real f name =
  let n = Graphs.Graph.n f.graph in
  match name with
  | "storm" ->
    [
      Faults.Crash_storm
        { from_round = after; per_round = 4; storm_rounds = 3; universe = n };
    ]
  | "mincut" -> (
    match f.cut with
    | None | Some ([] | [ _ ]) -> []
    | Some (_keep :: rest) ->
      [ Faults.Crash_at (List.mapi (fun i v -> (after + (2 * i), v)) rest) ])
  | "orphan" -> orphan_kills ~after f.graph per_real
  | "attrition" ->
    [
      Faults.Greedy_edge_kill { budget = f.k; period = 1; from_round = after };
      Faults.Drop_bernoulli 0.01;
    ]
  | other -> invalid_arg ("chaos schedule: " ^ other)

type cell = {
  verified : bool;
  rounds : int;
  retained : int;
  requested : int;
  attempts : int;
  crashes : int;
  degraded : bool;
  cert_ok : bool;
  repaired : bool;  (** a repaired packing verified and was returned *)
  result : string;  (** attempt seeds, classes retained, memberships *)
}

(* A fingerprint of what a run returned, for the fallback invariant. *)
let result_fingerprint (r : Reliable.result) =
  let seeds =
    List.map
      (fun a -> string_of_int a.Reliable.attempt_seed)
      r.Reliable.attempts
  in
  let members =
    Array.to_list r.Reliable.memberships
    |> List.map (fun l -> String.concat "," (List.map string_of_int l))
  in
  Printf.sprintf "%s/%d/%s" (String.concat "," seeds)
    r.Reliable.classes_retained
    (Digest.to_hex (Digest.string (String.concat ";" members)))

let run_cell ~seed f specs policy =
  let net = Congest.Net.create Congest.Model.V_congest f.graph in
  let faults = Faults.create ~seed specs in
  Faults.install net faults;
  let classes, layers = shape f in
  let r =
    Reliable.run_verified_distributed ~seed ~policy ~k:f.k net ~classes ~layers
  in
  let cert = r.Reliable.certificate in
  let cert_ok =
    match
      Certificate.check ~seed:(seed + 1) ~live:(Faults.alive faults) f.graph
        ~memberships:(fun v -> r.Reliable.memberships.(v))
        cert
    with
    | Ok () -> true
    | Error _ -> false
  in
  {
    verified = r.Reliable.verified;
    rounds = r.Reliable.rounds_charged;
    retained = r.Reliable.classes_retained;
    requested = cert.Certificate.c_classes_requested;
    attempts = List.length r.Reliable.attempts;
    crashes = List.length (Faults.crashed_nodes faults);
    degraded = r.Reliable.degraded;
    cert_ok;
    repaired = r.Reliable.repair <> None;
    result = result_fingerprint r;
  }

let csv_header =
  "family,schedule,policy,verified,rounds,retained,requested,attempts,crashes,degraded,cert_ok"

(* One chaos cell: both policies on one (family, schedule) pair. An
   empty schedule (e.g. a missing min cut) yields an empty payload with
   meta empty=true, so the post-run checks skip it. *)
let cell_job ~n ~k ~seed fname sname =
  Exec.Sweep.Job
    (Exec.Job.make ~algo:"chaos"
       ~params:
         [
           ("family", fname);
           ("schedule", sname);
           ("n", string_of_int n);
           ("k", string_of_int k);
         ]
       ~seed
       (fun () ->
         let f = family_of_name ~n ~k fname in
         let rounds, per_real = calibrate ~seed f in
         let after = rounds + 2 in
         let specs = schedule_of_name ~after ~per_real f sname in
         if specs = [] then Exec.Job.payload ~meta:[ ("empty", "true") ] ""
         else begin
           let retry = run_cell ~seed f specs `Retry in
           let repair = run_cell ~seed f specs `Repair in
           let b = Buffer.create 256 in
           let ppf = Format.formatter_of_buffer b in
           let rows =
             List.map
               (fun (pname, c) ->
                 Format.fprintf ppf
                   "%-12s %-10s %-7s | %5b %7d %6d/%-2d %8d %7d %5b %5b@."
                   f.fam sname pname c.verified c.rounds c.retained c.requested
                   c.attempts c.crashes c.degraded c.cert_ok;
                 Printf.sprintf "%s,%s,%s,%b,%d,%d,%d,%d,%d,%b,%b" f.fam sname
                   pname c.verified c.rounds c.retained c.requested c.attempts
                   c.crashes c.degraded c.cert_ok)
               [ ("retry", retry); ("repair", repair) ]
           in
           Format.pp_print_flush ppf ();
           Exec.Job.payload ~rows
             ~meta:
               [
                 ("family", f.fam);
                 ("schedule", sname);
                 ("retry_verified", string_of_bool retry.verified);
                 ("repair_verified", string_of_bool repair.verified);
                 ("retry_rounds", string_of_int retry.rounds);
                 ("repair_rounds", string_of_int repair.rounds);
                 ("retry_cert_ok", string_of_bool retry.cert_ok);
                 ("repair_cert_ok", string_of_bool repair.cert_ok);
                 ("repair_repaired", string_of_bool repair.repaired);
                 ("retry_result", retry.result);
                 ("repair_result", repair.result);
               ]
             (Buffer.contents b)
         end))

let items ?(n = 48) ?(k = 8) ?(seed = 11) () =
  let text = Exec.Sweep.text in
  let title =
    Printf.sprintf
      "F3  chaos harness: repair vs retry under adversary schedules (n=%d \
       k=%d seed=%d)"
      n k seed
  in
  text "@.%s@.%s@." title (String.make (String.length title) '-')
  :: text "%-12s %-10s %-7s | %5s %7s %9s %8s %7s %5s %5s@." "family"
       "schedule" "policy" "ok" "rounds" "retained" "attempts" "crashes"
       "degr" "cert"
  :: List.concat_map
       (fun fname ->
         List.map (fun sname -> cell_job ~n ~k ~seed fname sname)
           schedule_names)
       family_names

(* The grid invariants, reconstructed from each cell's meta facts. *)
let check_invariants outcomes =
  let cert_failures = ref [] in
  let violations = ref [] in
  List.iter
    (fun (_, outcome) ->
      match outcome with
      | `Failed msg -> failwith ("chaos sweep: cell failed: " ^ msg)
      | `Ok p when Exec.Job.meta p "empty" = Some "true" -> ()
      | `Ok p ->
        let get key =
          match Exec.Job.meta p key with
          | Some v -> v
          | None -> failwith ("chaos sweep: cell missing meta " ^ key)
        in
        let fam = get "family" and sname = get "schedule" in
        List.iter
          (fun pname ->
            if get (pname ^ "_cert_ok") <> "true" then
              cert_failures := (fam, sname, pname) :: !cert_failures)
          [ "retry"; "repair" ];
        let violate what = violations := (fam, sname, what) :: !violations in
        let rounds pname = int_of_string (get (pname ^ "_rounds")) in
        if get "repair_repaired" = "true" then begin
          if rounds "repair" > rounds "retry" then
            violate "repair cost more rounds than retry"
        end
        else if get "repair_result" <> get "retry_result" then
          violate "repair fell back but its result differs from retry's")
    outcomes;
  (match List.rev !cert_failures with
  | [] -> Format.printf "every output's certificate checks: OK@."
  | l ->
    List.iter
      (fun (f, s, p) -> Format.eprintf "certificate FAILED: %s/%s/%s@." f s p)
      l;
    failwith "chaos sweep: a certificate failed its independent check");
  match List.rev !violations with
  | [] ->
    Format.printf
      "repair verified in <= retry rounds wherever its repair verified, and \
       equals retry wherever it fell back: OK@."
  | l ->
    List.iter
      (fun (f, s, what) ->
        Format.eprintf "repair vs retry: %s/%s %s@." f s what)
      l;
    failwith "chaos sweep: repair vs retry invariant violated"

let all ?n ?k ?seed ?csv ?jobs () =
  let _stats, outcomes =
    Exec.Sweep.run ~name:"chaos" ?jobs ?csv ~csv_header
      ~bench_json:"BENCH_chaos.json"
      (items ?n ?k ?seed ())
  in
  check_invariants outcomes
