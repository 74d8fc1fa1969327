(* The multicore experiment engine (lib/exec): determinism of the
   domain pool, crash containment, sweep rendering, and the chaos
   grid's -j N ≡ -j 1 digest equality. Plus the Graphs.Source
   regression: the verify-and-retry pipeline must construct its graph
   exactly once however many attempts it burns. *)

module Job = Exec.Job
module Pool = Exec.Pool
module Sweep = Exec.Sweep

(* ------------------------------------------------------------------ *)
(* Pool: parallel ≡ sequential bit-identity on random grids *)

(* A deterministic pseudo-payload: every byte derives from the job's
   own integers, never from schedule, domain id, or time. *)
let synth_payload tag n =
  let st = Random.State.make [| 97; tag; n |] in
  String.init (16 + (n mod 48)) (fun _ ->
      Char.chr (32 + Random.State.int st 95))

let test_pool_matches_sequential =
  QCheck.Test.make ~name:"pool: domains=4 outcomes = domains=1 outcomes"
    ~count:30
    QCheck.(list_of_size Gen.(int_range 0 25) (int_bound 1000))
    (fun tags ->
      let tasks =
        Array.of_list
          (List.mapi (fun i tag () -> synth_payload tag i) tags)
      in
      let seq = Pool.run ~domains:1 tasks in
      let par = Pool.run ~domains:4 tasks in
      seq.Pool.results = par.Pool.results)

let test_pool_preserves_index_order () =
  let tasks = Array.init 50 (fun i () -> i * i) in
  let r = Pool.run ~domains:4 tasks in
  Array.iteri
    (fun i o ->
      Alcotest.(check bool)
        (Printf.sprintf "slot %d holds task %d" i i)
        true
        (o = `Ok (i * i)))
    r.Pool.results

let test_pool_contains_crashes () =
  let tasks =
    Array.init 8 (fun i () ->
        if i = 3 then failwith "boom-3"
        else if i = 6 then invalid_arg "boom-6"
        else i)
  in
  let r = Pool.run ~domains:4 tasks in
  Array.iteri
    (fun i o ->
      match (i, o) with
      | 3, `Failed msg ->
        Alcotest.(check bool) "task 3 message" true
          (String.length msg > 0)
      | 6, `Failed _ -> ()
      | (3 | 6), `Ok _ -> Alcotest.fail "crashing task reported Ok"
      | _, `Ok v -> Alcotest.(check int) "healthy task unaffected" i v
      | _, `Failed m -> Alcotest.fail ("healthy task failed: " ^ m))
    r.Pool.results

let test_pool_empty_and_oversubscribed () =
  let r = Pool.run ~domains:4 [||] in
  Alcotest.(check int) "empty grid" 0 (Array.length r.Pool.results);
  (* more domains than tasks must not wedge or duplicate *)
  let r = Pool.run ~domains:16 (Array.init 3 (fun i () -> i)) in
  Alcotest.(check bool) "3 tasks, 16 domains" true
    (r.Pool.results = [| `Ok 0; `Ok 1; `Ok 2 |])

(* ------------------------------------------------------------------ *)
(* Sweep: rendering order, failure accounting *)

(* counters are bumped from pool domains — Atomic, not ref *)
let counting_job ~algo ~seed counter out =
  Sweep.Job
    (Job.make ~algo ~seed (fun () ->
         Atomic.incr counter;
         Job.payload ~rows:[ out ^ ",row" ] (out ^ "\n")))

let test_sweep_renders_in_item_order () =
  let ran = Atomic.make 0 in
  let items =
    [
      Sweep.text "head@.";
      counting_job ~algo:"s1" ~seed:1 ran "alpha";
      Sweep.text "mid@.";
      counting_job ~algo:"s2" ~seed:2 ran "beta";
    ]
  in
  let run () = Sweep.run ~name:"t" ~jobs:4 ~progress:false items in
  let stats, outcomes = run () in
  Alcotest.(check int) "both jobs ran" 2 (Atomic.get ran);
  Alcotest.(check int) "jobs" 2 stats.Sweep.jobs;
  Alcotest.(check (list string)) "outcome labels in item order"
    [ "s1#1"; "s2#2" ]
    (List.map fst outcomes);
  (* a rerun executes every job again and renders the same document *)
  let stats2, _ = run () in
  Alcotest.(check int) "rerun executes every job" 4 (Atomic.get ran);
  Alcotest.(check string) "digests agree" stats.Sweep.rows_digest
    stats2.Sweep.rows_digest

let test_sweep_digest_covers_payloads () =
  (* rows-free jobs (like the experiments sweep): digesting only CSV
     rows would report the MD5 of the empty string on every run — a
     vacuous byte-identity check. The digest must cover the rendered
     document (text and payload [out]), and a rerun must reproduce it. *)
  let items =
    [
      Sweep.text "header@.";
      Sweep.Job
        (Job.make ~algo:"norows" ~seed:9 (fun () ->
             Job.payload "table-line\n"));
    ]
  in
  let run () = Sweep.run ~name:"t" ~jobs:2 ~progress:false items in
  let first, _ = run () in
  let again, _ = run () in
  Alcotest.(check bool) "digest is not the empty-string MD5" true
    (first.Sweep.rows_digest <> Digest.to_hex (Digest.string ""));
  Alcotest.(check string) "digest covers the rendered document"
    (Digest.to_hex (Digest.string "header\ntable-line\n"))
    first.Sweep.rows_digest;
  Alcotest.(check string) "rerun digest agrees" first.Sweep.rows_digest
    again.Sweep.rows_digest

let test_sweep_counts_failures () =
  let attempts = Atomic.make 0 in
  let items =
    [
      Sweep.text "header@.";
      Sweep.Job
        (Job.make ~algo:"norows" ~seed:9 (fun () ->
             Job.payload "table-line\n"));
      Sweep.Job
        (Job.make ~algo:"flaky" ~seed:3 (fun () ->
             Atomic.incr attempts;
             failwith "injected"));
    ]
  in
  let run () = Sweep.run ~name:"t" ~jobs:2 ~progress:false items in
  let stats, outcomes = run () in
  Alcotest.(check int) "failed counted" 1 stats.Sweep.failed;
  Alcotest.(check int) "ok counted" 1 stats.Sweep.ok;
  let msg =
    match outcomes with
    | [ (_, `Ok _); ("flaky#3", `Failed msg) ] ->
      Alcotest.(check bool) "message kept" true (String.length msg > 0);
      msg
    | _ -> Alcotest.fail "expected one ok and one failed outcome"
  in
  (* the failure line is part of the rendered document, so the digest
     covers it too *)
  Alcotest.(check string) "digest covers the failure line"
    (Digest.to_hex
       (Digest.string ("header\ntable-line\nFAILED flaky#3: " ^ msg ^ "\n")))
    stats.Sweep.rows_digest;
  (* a failure is not remembered: the next sweep attempts the job again *)
  let _ = run () in
  Alcotest.(check int) "failed job reran" 2 (Atomic.get attempts)

(* ------------------------------------------------------------------ *)
(* The acceptance property on a real grid: every chaos cell computes
   the same payload under -j 4 as under -j 1 *)

let digest_outcomes report =
  let b = Buffer.create 4096 in
  Array.iter
    (fun o ->
      match o with
      | `Ok (p : Job.payload) ->
        Buffer.add_string b p.Job.out;
        List.iter (Buffer.add_string b) p.Job.rows;
        List.iter
          (fun (k, v) ->
            Buffer.add_string b k;
            Buffer.add_string b v)
          p.Job.meta
      | `Failed msg -> Buffer.add_string b ("FAILED:" ^ msg))
    report.Pool.results;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_chaos_grid_j4_matches_j1 () =
  let tasks () =
    Sweeps.Chaos_sweep.items ~n:32 ~k:6 ~seed:11 ()
    |> List.filter_map (function
         | Sweep.Job j -> Some (fun () -> Job.run j)
         | Sweep.Text _ -> None)
    |> Array.of_list
  in
  Alcotest.(check int) "full 4x4 grid" 16 (Array.length (tasks ()));
  let d1 = digest_outcomes (Pool.run ~domains:1 (tasks ())) in
  let d4 = digest_outcomes (Pool.run ~domains:4 (tasks ())) in
  Alcotest.(check string) "chaos digest: -j 4 = -j 1" d1 d4

(* ------------------------------------------------------------------ *)
(* Graphs.Source + the decompose regression: attempts ≥ 2, parses = 1 *)

let test_source_parse_kv () =
  Alcotest.(check (pair string (list (pair string int))))
    "spec with args"
    ("harary", [ ("k", 8); ("n", 64) ])
    (Graphs.Source.parse_kv "harary:k=8,n=64");
  Alcotest.(check (pair string (list (pair string int))))
    "bare name" ("hypercube", [])
    (Graphs.Source.parse_kv "hypercube");
  Alcotest.check_raises "malformed arg" (Failure "bad generator argument: k")
    (fun () -> ignore (Graphs.Source.parse_kv "harary:k"))

let test_source_gen_matches_direct () =
  let a = Graphs.Source.gen_graph "harary:k=8,n=48" in
  let b = Graphs.Gen.harary ~k:8 ~n:48 in
  Alcotest.(check int) "n" (Graphs.Graph.n b) (Graphs.Graph.n a);
  Alcotest.(check int) "m" (Graphs.Graph.m b) (Graphs.Graph.m a)

let test_source_load_requires_one_source () =
  Alcotest.check_raises "both"
    (Failure "exactly one of --gen or --file is required") (fun () ->
      ignore
        (Graphs.Source.load ~gen:(Some "clique:n=4") ~file:(Some "x") ()));
  Alcotest.check_raises "neither"
    (Failure "exactly one of --gen or --file is required") (fun () ->
      ignore (Graphs.Source.load ~gen:None ~file:None ()))

let test_verified_pipeline_parses_once () =
  (* the decompose `verified` flow: build the graph through
     Graphs.Source, then run a configuration that burns the whole retry
     budget (10 classes / 2 layers on a k=8 graph never verifies). The
     graph must be constructed exactly once — attempts re-seed the
     packing, not the parser. *)
  let loads = ref 0 in
  let g =
    Graphs.Source.load
      ~on_load:(fun () -> incr loads)
      ~gen:(Some "harary:k=8,n=48") ~file:None ()
  in
  let r =
    Domtree.Reliable.run_verified ~seed:7 ~max_retries:3 g ~classes:10
      ~layers:2
  in
  Alcotest.(check int) "attempts exceed one" 4
    (List.length r.Domtree.Reliable.attempts);
  Alcotest.(check int) "graph constructed exactly once" 1 !loads

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "exec"
    [
      qsuite "pool-determinism" [ test_pool_matches_sequential ];
      ( "pool",
        [
          Alcotest.test_case "index order preserved" `Quick
            test_pool_preserves_index_order;
          Alcotest.test_case "crash containment" `Quick
            test_pool_contains_crashes;
          Alcotest.test_case "empty and oversubscribed" `Quick
            test_pool_empty_and_oversubscribed;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "renders in order, reruns" `Quick
            test_sweep_renders_in_item_order;
          Alcotest.test_case "digest covers rendered payloads" `Quick
            test_sweep_digest_covers_payloads;
          Alcotest.test_case "failures counted, always rerun" `Quick
            test_sweep_counts_failures;
        ] );
      ( "chaos-grid",
        [
          Alcotest.test_case "-j 4 digest = -j 1 digest" `Slow
            test_chaos_grid_j4_matches_j1;
        ] );
      ( "graph-source",
        [
          Alcotest.test_case "parse_kv" `Quick test_source_parse_kv;
          Alcotest.test_case "gen matches direct" `Quick
            test_source_gen_matches_direct;
          Alcotest.test_case "exactly one source" `Quick
            test_source_load_requires_one_source;
          Alcotest.test_case "verified pipeline parses once" `Slow
            test_verified_pipeline_parses_once;
        ] );
    ]
