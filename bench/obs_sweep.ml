(* Observability overhead sweep (`bench/main.exe -- obs [n]`): proves
   the ISSUE budget that attaching `Obs` instruments to the CONGEST
   round engine costs < 5% rounds/sec (DESIGN.md §14 overhead budget).

   Method: the perf sweep's V-CONGEST broadcast workload is driven in
   interleaved trial pairs — metrics OFF, then the same net with a
   full obs attachment (counters + per-round spans) — so thermal drift
   and heap state bias neither arm. The median of each arm's
   rounds/sec is compared; interleaving plus medians is the standard
   defence against a single hot/cold outlier deciding the verdict.

   The sweep also cross-checks correctness while it is at it: after
   the ON arm, the `congest_messages_total` counter must equal the
   engine's own `Net.messages_sent` exactly (metrics are fed per-round
   deltas from the same telemetry the replay digests certify), and the
   ON/OFF run digests must be bit-identical — the out-of-band claim,
   measured rather than asserted.

   Timing sweep: never memoized, single-threaded, no Exec.Pool.

   BENCH_obs.json schema:
     { "sweep": "obs", "n", "m", "rounds", "trials",
       "off_rounds_per_sec", "on_rounds_per_sec",
       "overhead_pct", "target_pct": 5.0, "target_met": bool,
       "digest_match": bool, "counter_match": bool,
       "spans_recorded": int } *)

module Graph = Graphs.Graph
module Net = Congest.Net

let now () = Unix.gettimeofday ()
let target_pct = 5.0

(* Same broadcast driver as the perf sweep: preallocated messages, the
   per-round work outside the engine is O(n) stores. *)
let drive net ~rounds =
  let n = Net.n net in
  let msgs = Array.init n (fun u -> [| u land 63; 0; (u * 7) land 63 |]) in
  for r = 1 to rounds do
    let tag = r land 63 in
    for u = 0 to n - 1 do
      msgs.(u).(1) <- tag
    done;
    Net.broadcast_round net (fun u -> Some msgs.(u))
  done

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let timed_run net ~rounds =
  Net.reset_stats net;
  let t0 = now () in
  drive net ~rounds;
  let dt = now () -. t0 in
  float_of_int rounds /. (if dt > 0. then dt else 1e-9)

let all ?(n = 1024) () =
  Format.printf "@.== observability overhead sweep (n=%d) ==@." n;
  let rng = Random.State.make [| 0xE5; n |] in
  let g = Graphs.Gen.erdos_renyi rng ~n ~p:(8.0 /. float_of_int n) in
  let m = Graph.m g in
  let rounds = max 16 (min 512 (400_000 / max 1 m)) in
  let trials = 7 in
  let net = Net.create Congest.Model.V_congest g in
  let metrics = Obs.Metrics.create () in
  let spans = Obs.Span.enabled () in
  let obs = Net.make_obs ~spans metrics in
  (* warmup both arms before any timing *)
  drive net ~rounds:(max 4 (rounds / 4));
  Net.attach_obs net obs;
  drive net ~rounds:(max 4 (rounds / 4));
  Net.detach_obs net;
  (* interleaved trial pairs: OFF then ON, [trials] times *)
  let off_rps = ref [] and on_rps = ref [] in
  let off_digest = ref 0 and on_digest = ref 0 in
  for _ = 1 to trials do
    Net.detach_obs net;
    off_rps := timed_run net ~rounds :: !off_rps;
    off_digest := Net.run_digest (Net.telemetry net);
    Net.attach_obs net obs;
    on_rps := timed_run net ~rounds :: !on_rps;
    on_digest := Net.run_digest (Net.telemetry net)
  done;
  (* correctness cross-check: one more instrumented run from a clean
     counter state — the counter delta must equal the engine's own
     cumulative message count exactly *)
  Net.attach_obs net obs;
  Net.reset_stats net;
  (* instrument lookup is idempotent: this is the same counter the
     attached obs feeds *)
  let c = Obs.Metrics.counter metrics "congest_messages_total" in
  let c0 = Obs.Metrics.counter_value c in
  drive net ~rounds;
  let messages_engine = Net.messages_sent net in
  let counter_delta = Obs.Metrics.counter_value c - c0 in
  let counter_match = counter_delta = messages_engine && messages_engine > 0 in
  let digest_match = !off_digest = !on_digest in
  let spans_recorded = Obs.Span.recorded spans in
  let off = median !off_rps and on_ = median !on_rps in
  let overhead_pct = (off -. on_) /. off *. 100. in
  let met = overhead_pct < target_pct in
  Format.printf
    "off %10.0f rounds/s  on %10.0f rounds/s  overhead %+.2f%% (target < \
     %.0f%%): %s@."
    off on_ overhead_pct target_pct
    (if met then "MET" else "MISSED");
  Format.printf "digest match: %b  counter vs engine: %d / %d  spans: %d@."
    digest_match counter_delta messages_engine spans_recorded;
  Exec.Artifact.write_json ~path:"BENCH_obs.json"
    (Exec.Artifact.Obj
       [
         ("sweep", Exec.Artifact.String "obs");
         ("n", Exec.Artifact.Int n);
         ("m", Exec.Artifact.Int m);
         ("rounds", Exec.Artifact.Int rounds);
         ("trials", Exec.Artifact.Int trials);
         ("off_rounds_per_sec", Exec.Artifact.Float off);
         ("on_rounds_per_sec", Exec.Artifact.Float on_);
         ("overhead_pct", Exec.Artifact.Float overhead_pct);
         ("target_pct", Exec.Artifact.Float target_pct);
         ("target_met", Exec.Artifact.Bool met);
         ("digest_match", Exec.Artifact.Bool digest_match);
         ("counter_match", Exec.Artifact.Bool counter_match);
         ("spans_recorded", Exec.Artifact.Int spans_recorded);
       ]);
  if not (digest_match && counter_match) then exit 1
