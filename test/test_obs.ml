(* lib/obs: the observability subsystem (DESIGN.md §14).

   The properties that make the metrics trustworthy:
   - the wire codec ([Protocol.encode_snapshot]) roundtrips every
     snapshot a registry can produce — the daemon's [Stats] reply is
     exactly the snapshot it took;
   - counters and histograms stay exact under concurrent updates from
     [Exec.Pool] worker domains — lock-free does not mean lossy;
   - the log-bucket scheme brackets every value and the quantile
     estimate lands within its documented error. *)

module M = Obs.Metrics
module Span = Obs.Span
module P = Serve.Protocol

(* ------------------------------------------------------------------ *)
(* Snapshot generation: build through a registry, never by hand — a
   snapshot's canonical form (sorted names, sparse positive buckets) is
   the registry's business, and the properties should hold for exactly
   the snapshots registries produce. *)

let names = [| "alpha"; "beta"; "gamma"; "delta" |]

let snapshot_of_ops ops =
  let t = M.create () in
  List.iter
    (fun (kind, idx, v) ->
      let name = names.(idx mod Array.length names) in
      match kind mod 3 with
      | 0 -> M.add (M.counter t ("c_" ^ name)) (abs v)
      | 1 -> M.set (M.gauge t ("g_" ^ name)) v
      | _ -> M.observe (M.histogram t ("h_" ^ name)) v)
    ops;
  M.snapshot t

let ops_arb =
  QCheck.(
    list_of_size
      Gen.(int_range 0 40)
      (triple (int_bound 2) (int_bound 7) (int_range (-100) 10_000_000)))

let prop_snapshot_codec_roundtrip =
  QCheck.Test.make ~name:"Stats snapshot codec roundtrips" ~count:200 ops_arb
    (fun ops ->
      let s = snapshot_of_ops ops in
      match P.decode_snapshot (P.encode_snapshot s) with
      | Ok s' -> s = s'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Bucket scheme *)

let prop_bucket_brackets_value =
  QCheck.Test.make ~name:"bucket brackets its value" ~count:500
    QCheck.(int_bound max_int)
    (fun v ->
      let i = M.bucket_of v in
      i >= 0
      && i < M.bucket_count
      && v <= M.upper_bound i
      && (i = 0 || M.upper_bound (i - 1) < v))

let test_quantile_bounds () =
  let t = M.create () in
  let h = M.histogram t "q" in
  for v = 1 to 10_000 do
    M.observe h v
  done;
  let s = M.snapshot t in
  let hist = Option.get (M.find_hist s "q") in
  List.iter
    (fun (q, exact) ->
      let est = M.quantile hist q in
      (* a log-bucket estimate may over-shoot by one sub-bucket width
         (12.5% relative), never under-shoot below the exact rank *)
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f: %d within [%d, %d]" q est exact
           (exact + (exact / 7)))
        true
        (est >= exact && est <= exact + (exact / 7) + 1))
    [ (0.5, 5_000); (0.9, 9_000); (0.99, 9_900) ];
  Alcotest.(check int) "empty histogram quantile is 0" 0
    (M.quantile { M.h_count = 0; h_sum = 0; h_buckets = [] } 0.99)

(* ------------------------------------------------------------------ *)
(* Concurrency: exactness through Exec.Pool worker domains *)

let test_multidomain_exact () =
  let m = M.create () in
  let c = M.counter m "hits_total" in
  let g = M.gauge m "depth" in
  let h = M.histogram m "lat_us" in
  let per_task = 1_000 in
  let tasks =
    Array.init 32 (fun i () ->
        for j = 1 to per_task do
          M.incr c;
          M.set g i;
          M.observe h ((i * 31) + j)
        done)
  in
  let r = Exec.Pool.run ~domains:4 tasks in
  Array.iter
    (function `Ok () -> () | `Failed msg -> Alcotest.fail msg)
    r.Exec.Pool.results;
  let total = 32 * per_task in
  Alcotest.(check int) "counter exact across domains" total
    (M.counter_value c);
  let s = M.snapshot m in
  let hist = Option.get (M.find_hist s "lat_us") in
  Alcotest.(check int) "histogram count exact" total hist.M.h_count;
  Alcotest.(check int) "bucket counts sum to the count" total
    (List.fold_left (fun acc (_, n) -> acc + n) 0 hist.M.h_buckets);
  Alcotest.(check bool) "gauge holds one of the written values" true
    (let v = M.gauge_value g in
     v >= 0 && v < 32)

let test_pool_instruments () =
  let m = M.create () in
  let tasks =
    Array.init 20 (fun i () -> if i mod 5 = 0 then failwith "boom" else i)
  in
  ignore (Exec.Pool.run ~domains:4 ~metrics:m tasks);
  let s = M.snapshot m in
  Alcotest.(check (option int)) "jobs counted" (Some 20)
    (M.find_counter s "exec_jobs_total");
  Alcotest.(check (option int)) "failures counted" (Some 4)
    (M.find_counter s "exec_jobs_failed_total")

(* ------------------------------------------------------------------ *)
(* Registry semantics *)

let test_registry_idempotent_and_kinded () =
  let m = M.create () in
  let c = M.counter m "x_total" in
  M.incr c;
  M.incr (M.counter m "x_total");
  Alcotest.(check int) "same name, same counter" 2 (M.counter_value c);
  (match M.gauge m "x_total" with
  | _ -> Alcotest.fail "cross-kind reuse must raise"
  | exception Invalid_argument _ -> ());
  Alcotest.(check string) "labeled renders sorted and escaped"
    "lat{op=\"a\\\"b\",zone=\"eu\"}"
    (M.labeled "lat" [ ("zone", "eu"); ("op", "a\"b") ])

(* ------------------------------------------------------------------ *)
(* Spans *)

let test_span_disabled_noop () =
  let t = Span.disabled in
  let tok = Span.start t "x" in
  Span.finish t tok;
  Alcotest.(check bool) "disabled" false (Span.is_enabled t);
  Alcotest.(check int) "nothing recorded" 0 (Span.recorded t);
  Alcotest.(check (list reject)) "no spans" [] (Span.spans t)

let test_span_ring_bounded () =
  let t = Span.enabled ~capacity:8 () in
  for i = 1 to 20 do
    Span.with_span t (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  Alcotest.(check int) "all finishes counted" 20 (Span.recorded t);
  Alcotest.(check int) "overflow reported" 12 (Span.dropped t);
  let spans = Span.spans t in
  Alcotest.(check int) "ring holds capacity" 8 (List.length spans);
  Alcotest.(check (list string)) "oldest-first, newest retained"
    [ "s13"; "s14"; "s15"; "s16"; "s17"; "s18"; "s19"; "s20" ]
    (List.map (fun sp -> sp.Span.sp_name) spans);
  List.iter
    (fun sp ->
      Alcotest.(check bool) "durations never negative" true
        (sp.Span.sp_dur_us >= 0))
    spans

let test_span_parentage () =
  let t = Span.enabled () in
  let root = Span.start t "parent" in
  Span.with_span t ~parent:(Span.id root) "child" (fun () -> ());
  Span.finish t root;
  match Span.spans t with
  | [ child; parent ] ->
    Alcotest.(check string) "child first (finished first)" "child"
      child.Span.sp_name;
    Alcotest.(check int) "child points at parent" parent.Span.sp_id
      child.Span.sp_parent;
    Alcotest.(check int) "parent is a root" Span.none parent.Span.sp_parent
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "obs"
    [
      ( "metrics-properties",
        qsuite
          [
            prop_snapshot_codec_roundtrip;
            prop_bucket_brackets_value;
          ] );
      ( "metrics",
        [
          Alcotest.test_case "quantile bounds" `Quick test_quantile_bounds;
          Alcotest.test_case "multi-domain exactness" `Quick
            test_multidomain_exact;
          Alcotest.test_case "pool instruments" `Quick test_pool_instruments;
          Alcotest.test_case "registry idempotent, kind-checked" `Quick
            test_registry_idempotent_and_kinded;
        ] );
      ( "spans",
        [
          Alcotest.test_case "disabled recorder is a no-op" `Quick
            test_span_disabled_noop;
          Alcotest.test_case "ring buffer bounded" `Quick
            test_span_ring_bounded;
          Alcotest.test_case "parent/child ids" `Quick test_span_parentage;
        ] );
    ]
