(* Tests for the hardened decomposition service (lib/serve): framing,
   codecs, admission queue, degradation store, worker robustness, and
   an end-to-end daemon exercising all four robustness paths — load
   shedding, crash containment, stale-certificate degradation, and
   malformed-frame rejection — plus the clean drain protocol. *)

module Framing = Serve.Framing
module P = Serve.Protocol
module Queue = Serve.Queue
module Degrade = Serve.Degrade
module Worker = Serve.Worker
module Server = Serve.Server
module Journal = Serve.Journal
module Supervisor = Serve.Supervisor
module Gen = Graphs.Gen

(* ------------------------------------------------------------------ *)
(* Framing *)

let test_crc32_vector () =
  (* the standard IEEE 802.3 check value *)
  Alcotest.(check int) "crc32(\"123456789\")" 0xCBF43926
    (Framing.crc32 "123456789");
  Alcotest.(check int) "crc32(\"\") is zero" 0 (Framing.crc32 "")

let feed frame ~len = Framing.try_decode (Bytes.of_string frame) ~len

let test_framing_roundtrip () =
  let payload = "hello, decomposition" in
  let frame = Framing.encode payload in
  Alcotest.(check int) "framed length"
    (String.length payload + Framing.overhead)
    (String.length frame);
  match feed frame ~len:(String.length frame) with
  | `Frame (p, consumed) ->
    Alcotest.(check string) "payload survives" payload p;
    Alcotest.(check int) "whole frame consumed" (String.length frame) consumed
  | `Need_more -> Alcotest.fail "decoder wanted more of a complete frame"
  | `Error m -> Alcotest.fail ("decoder rejected a valid frame: " ^ m)

let test_framing_partial_feed () =
  (* every strict prefix must come back Need_more, never Error *)
  let frame = Framing.encode "partial" in
  for len = 0 to String.length frame - 1 do
    match feed frame ~len with
    | `Need_more -> ()
    | `Frame _ -> Alcotest.fail "frame produced from a strict prefix"
    | `Error m ->
      Alcotest.fail (Printf.sprintf "prefix of %d bytes rejected: %s" len m)
  done

let test_framing_corrupt_crc () =
  let frame = Bytes.of_string (Framing.encode "checksummed") in
  (* flip one payload bit: the stored CRC no longer matches *)
  Bytes.set frame 6 (Char.chr (Char.code (Bytes.get frame 6) lxor 1));
  match Framing.try_decode frame ~len:(Bytes.length frame) with
  | `Error m ->
    Alcotest.(check bool) "mentions CRC" true
      (String.length m >= 3 && String.uppercase_ascii m <> m)
  | `Frame _ -> Alcotest.fail "corrupt frame accepted"
  | `Need_more -> Alcotest.fail "corrupt frame asked for more bytes"

let test_framing_bad_version () =
  let frame = Bytes.of_string (Framing.encode "v?") in
  Bytes.set frame 0 (Char.chr (Framing.version + 1));
  (match Framing.try_decode frame ~len:(Bytes.length frame) with
  | `Error _ -> ()
  | _ -> Alcotest.fail "wrong version accepted");
  (* version is checked on the very first byte — a bad stream is
     rejected before any length is trusted *)
  match Framing.try_decode frame ~len:1 with
  | `Error _ -> ()
  | _ -> Alcotest.fail "wrong version not rejected from one byte"

let test_framing_oversize_rejected () =
  (* a forged length field beyond the cap must be rejected from the
     5-byte header alone, before any allocation *)
  let b = Bytes.create 5 in
  Bytes.set b 0 (Char.chr Framing.version);
  Bytes.set_int32_be b 1 1_000_000l;
  match Framing.try_decode ~max_len:1024 b ~len:5 with
  | `Error _ -> ()
  | `Need_more -> Alcotest.fail "oversize length stalled instead of erroring"
  | `Frame _ -> Alcotest.fail "oversize frame accepted"

(* ------------------------------------------------------------------ *)
(* Protocol codecs *)

let sample_requests =
  [
    P.Decompose
      {
        (P.default_decompose ~gen:"harary:k=4,n=32") with
        P.seed = 9;
        k = 4;
        policy = `Repair;
        distributed = true;
        deadline_ms = 250;
        fail_p = 0.125;
        storm = "2:3:4";
      };
    P.Verify (P.default_decompose ~gen:"grid:rows=4,cols=4");
    P.Certificate { gen = "harary:k=4,n=32" };
    P.Health;
    P.Drain;
    P.Crash_test;
  ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      match P.decode_request (P.encode_request req) with
      | Ok req' ->
        Alcotest.(check bool) "request survives the codec" true (req = req')
      | Error m -> Alcotest.fail ("request failed to decode: " ^ m))
    sample_requests

let sample_cert () =
  let g = Gen.harary ~k:4 ~n:32 in
  let r = Domtree.Reliable.run_verified ~seed:3 g ~classes:2 ~layers:2 in
  r.Domtree.Reliable.certificate

let sample_responses cert =
  [
    P.Result
      {
        P.digest = "abc123";
        verified = true;
        degraded = false;
        stale = false;
        budget_exhausted = true;
        classes_requested = 4;
        classes_retained = 3;
        rounds_charged = 512;
        attempts = 2;
      };
    P.Cert { P.c_digest = "abc123"; c_stale = true; c_cert = cert };
    P.Health_report
      {
        P.h_uptime_ms = 12;
        h_served = 34;
        h_fresh = 30;
        h_stale = 2;
        h_shed = 1;
        h_errors = 1;
        h_queue_depth = 5;
        h_queue_capacity = 64;
        h_draining = true;
        h_cached_certs = 7;
        h_replayed = 3;
        h_journal_bytes = 4096;
        h_journal_segments = 2;
      };
    P.Drained { served = 99 };
    P.Error (P.Overloaded, "queue full");
    P.Error (P.Bad_request, "");
  ]

let test_response_roundtrip () =
  let cert = sample_cert () in
  List.iter
    (fun resp ->
      match P.decode_response (P.encode_response resp) with
      | Ok resp' ->
        Alcotest.(check bool) "response survives the codec" true (resp = resp')
      | Error m -> Alcotest.fail ("response failed to decode: " ^ m))
    (sample_responses cert)

let test_certificate_codec () =
  let cert = sample_cert () in
  match P.decode_certificate (P.encode_certificate cert) with
  | Ok cert' ->
    Alcotest.(check bool) "certificate survives the codec" true (cert = cert')
  | Error m -> Alcotest.fail ("certificate failed to decode: " ^ m)

let test_decoder_rejects_garbage () =
  (* trailing garbage, truncation, and random bytes must all come back
     Error — never an exception, never a bogus Ok *)
  let enc = P.encode_request (List.hd sample_requests) in
  (match P.decode_request (enc ^ "x") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  for len = 0 to String.length enc - 1 do
    match P.decode_request (String.sub enc 0 len) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "truncation to %d accepted" len)
  done;
  match P.decode_response "\xff\xfe\xfd" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "random bytes decoded as a response"

(* ------------------------------------------------------------------ *)
(* Bounded queue *)

let test_queue_fifo_and_shed () =
  let q = Queue.create ~capacity:2 in
  Alcotest.(check bool) "empty at birth" true (Queue.is_empty q);
  Alcotest.(check int) "capacity" 2 (Queue.capacity q);
  Alcotest.(check bool) "push 1" true (Queue.push q 1);
  Alcotest.(check bool) "push 2" true (Queue.push q 2);
  Alcotest.(check bool) "push 3 shed at capacity" false (Queue.push q 3);
  Alcotest.(check int) "depth stays at capacity" 2 (Queue.depth q);
  Alcotest.(check (option int)) "FIFO pop" (Some 1) (Queue.pop q);
  (* a pop frees a slot: admission works again *)
  Alcotest.(check bool) "push after pop" true (Queue.push q 4);
  Alcotest.(check (option int)) "then 2" (Some 2) (Queue.pop q);
  Alcotest.(check (option int)) "then 4" (Some 4) (Queue.pop q);
  Alcotest.(check (option int)) "empty pops None" None (Queue.pop q)

(* ------------------------------------------------------------------ *)
(* Degradation store *)

let with_tmp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "serve-test-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

let test_degrade_memory () =
  let cert = sample_cert () in
  let d = Degrade.create () in
  Alcotest.(check bool) "cold lookup misses" true
    (Degrade.lookup d ~digest:"g1" = None);
  Alcotest.(check bool) "record keeps a first certificate" true
    (Degrade.record d ~digest:"g1" cert);
  (match Degrade.lookup d ~digest:"g1" with
  | Some { Degrade.cert = c; fresh } ->
    Alcotest.(check bool) "same certificate" true (c = cert);
    Alcotest.(check bool) "this process's cert is fresh" true fresh
  | None -> Alcotest.fail "recorded certificate not found");
  (* journal replay warms with ~fresh:false: served, but as stale *)
  Alcotest.(check bool) "replayed certificate kept" true
    (Degrade.record ~fresh:false d ~digest:"g2" cert);
  (match Degrade.lookup d ~digest:"g2" with
  | Some { Degrade.fresh; _ } ->
    Alcotest.(check bool) "replayed cert is not fresh" false fresh
  | None -> Alcotest.fail "replayed certificate not found");
  Alcotest.(check int) "two digests held" 2 (Degrade.count d)

let test_degrade_record_is_monotone () =
  (* a verified-but-weaker certificate (here: every class lost to a
     total blackout) must not clobber the stronger one already held *)
  let g = Gen.harary ~k:4 ~n:32 in
  let r = Domtree.Reliable.run_verified ~seed:3 g ~classes:2 ~layers:2 in
  let strong = r.Domtree.Reliable.certificate in
  let weak =
    Domtree.Certificate.build
      ~live:(fun _ -> false)
      g
      ~memberships:(fun v -> r.Domtree.Reliable.memberships.(v))
      ~classes:2 ~k:4
  in
  Alcotest.(check bool) "weak really is weaker" true
    (Domtree.Certificate.retained_count weak
    < Domtree.Certificate.retained_count strong);
  let d = Degrade.create () in
  Alcotest.(check bool) "strong kept" true (Degrade.record d ~digest:"g" strong);
  Alcotest.(check bool) "weak rejected (signals no journal write)" false
    (Degrade.record d ~digest:"g" weak);
  (match Degrade.lookup d ~digest:"g" with
  | Some { Degrade.cert; _ } ->
    Alcotest.(check bool) "strong survives a weak record" true (cert = strong)
  | None -> Alcotest.fail "certificate vanished");
  (* the weak certificate is still better than nothing on a fresh
     digest, and a strong record upgrades it *)
  Alcotest.(check bool) "weak kept on fresh digest" true
    (Degrade.record d ~digest:"g2" weak);
  Alcotest.(check bool) "strong upgrade kept" true
    (Degrade.record d ~digest:"g2" strong);
  match Degrade.lookup d ~digest:"g2" with
  | Some { Degrade.cert; _ } ->
    Alcotest.(check bool) "strong upgrades weak" true (cert = strong)
  | None -> Alcotest.fail "certificate vanished"

(* ------------------------------------------------------------------ *)
(* Worker: one request in, one structured response out — always *)

let worker () = Worker.create Worker.default_config
let gen = "harary:k=4,n=32"
let now = Worker.now_ms

let expect_error kind = function
  | P.Error (k, _) when k = kind -> ()
  | resp ->
    Alcotest.failf "wanted %s, got: %a"
      (P.error_kind_to_string kind)
      P.pp_response resp

let test_worker_bad_requests () =
  let w = worker () in
  let d = P.default_decompose ~gen in
  expect_error P.Bad_request
    (Worker.handle w ~enqueued_at_ms:(now ())
       (P.Decompose { d with P.gen = "no-such-generator:x=1" }));
  expect_error P.Bad_request
    (Worker.handle w ~enqueued_at_ms:(now ())
       (P.Decompose { d with P.fail_p = 1.5 }));
  (* NaN fails every comparison; it must bounce, not run fault-free *)
  expect_error P.Bad_request
    (Worker.handle w ~enqueued_at_ms:(now ())
       (P.Decompose { d with P.distributed = true; fail_p = Float.nan }));
  expect_error P.Bad_request
    (Worker.handle w ~enqueued_at_ms:(now ())
       (* fault injection without distributed mode is meaningless *)
       (P.Decompose { d with P.fail_p = 0.1 }));
  expect_error P.Bad_request
    (Worker.handle w ~enqueued_at_ms:(now ())
       (P.Decompose { d with P.distributed = true; storm = "nonsense" }));
  expect_error P.Bad_request
    (Worker.handle w ~enqueued_at_ms:(now ()) (P.Decompose { d with P.k = -1 }));
  (* control ops never reach the worker in a healthy daemon *)
  expect_error P.Bad_request (Worker.handle w ~enqueued_at_ms:(now ()) P.Health);
  expect_error P.Bad_request (Worker.handle w ~enqueued_at_ms:(now ()) P.Drain)

let test_worker_crash_contained () =
  let w = worker () in
  expect_error P.Internal_error
    (Worker.handle w ~enqueued_at_ms:(now ()) P.Crash_test);
  (* the worker is not poisoned: a normal request still computes *)
  match
    Worker.handle w ~enqueued_at_ms:(now ())
      (P.Decompose { (P.default_decompose ~gen) with P.k = 4 })
  with
  | P.Result r -> Alcotest.(check bool) "verified after crash" true r.P.verified
  | resp -> Alcotest.failf "wanted a result, got: %a" P.pp_response resp

let test_worker_memoizes () =
  let w = worker () in
  let req = P.Decompose { (P.default_decompose ~gen) with P.k = 4 } in
  let r1 = Worker.handle w ~enqueued_at_ms:(now ()) req in
  let t0 = now () in
  let r2 = Worker.handle w ~enqueued_at_ms:(now ()) req in
  let dt = now () -. t0 in
  Alcotest.(check bool) "memo hit is identical" true (r1 = r2);
  Alcotest.(check bool) "memo hit is instant (<50ms)" true (dt < 50.)

let test_worker_deadline_degrades_to_stale () =
  let w = worker () in
  let d = { (P.default_decompose ~gen) with P.k = 4 } in
  (* nothing cached yet: an expired-in-queue deadline is a hard error *)
  expect_error P.Deadline_exceeded
    (Worker.handle w
       ~enqueued_at_ms:(now () -. 10_000.)
       (P.Decompose { d with P.seed = 1 }));
  (* prime the last-good store with a verified run, then expire again:
     the daemon now degrades to the stale certificate instead *)
  (match Worker.handle w ~enqueued_at_ms:(now ()) (P.Decompose d) with
  | P.Result r -> Alcotest.(check bool) "priming verified" true r.P.verified
  | resp -> Alcotest.failf "priming failed: %a" P.pp_response resp);
  match
    Worker.handle w
      ~enqueued_at_ms:(now () -. 10_000.)
      (P.Decompose { d with P.seed = 2 })
  with
  | P.Cert c ->
    Alcotest.(check bool) "served stale" true c.P.c_stale;
    Alcotest.(check bool) "the certificate is machine-checkable" true
      (Domtree.Certificate.degraded c.P.c_cert = false)
  | resp -> Alcotest.failf "wanted a stale certificate, got: %a" P.pp_response resp

let test_worker_certificate_lookup () =
  let w = worker () in
  expect_error P.Not_found
    (Worker.handle w ~enqueued_at_ms:(now ()) (P.Certificate { gen }));
  (match
     Worker.handle w ~enqueued_at_ms:(now ())
       (P.Decompose { (P.default_decompose ~gen) with P.k = 4 })
   with
  | P.Result _ -> ()
  | resp -> Alcotest.failf "decompose failed: %a" P.pp_response resp);
  match Worker.handle w ~enqueued_at_ms:(now ()) (P.Certificate { gen }) with
  | P.Cert c ->
    Alcotest.(check bool) "this process's certificate is not stale" false
      c.P.c_stale
  | resp -> Alcotest.failf "wanted a certificate, got: %a" P.pp_response resp

let test_worker_chaos_survives () =
  (* distributed request under heavy fault injection: whatever comes
     back must be a structured frame — degraded results, stale certs
     and structured errors are all acceptable; an exception is not *)
  let w = worker () in
  for seed = 1 to 5 do
    let req =
      P.Decompose
        {
          (P.default_decompose ~gen) with
          P.k = 4;
          seed;
          distributed = true;
          fail_p = 0.4;
          storm = "2:4:4";
          deadline_ms = 50;
        }
    in
    match Worker.handle w ~enqueued_at_ms:(now ()) req with
    | P.Result _ | P.Cert _ | P.Error ((P.Deadline_exceeded | P.Internal_error), _)
      ->
      ()
    | resp -> Alcotest.failf "unexpected chaos response: %a" P.pp_response resp
  done

(* ------------------------------------------------------------------ *)
(* End-to-end daemon: all four robustness paths over one socket *)

let with_daemon ?(queue_capacity = 4) ?state_dir ?idle_timeout_ms f =
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "serve-test-%d-%d.sock" (Unix.getpid ()) (Random.bits ()))
  in
  let cfg = Server.default_config ~socket_path:socket in
  let cfg =
    {
      cfg with
      Server.queue_capacity;
      state_dir;
      idle_timeout_ms =
        Option.value idle_timeout_ms ~default:cfg.Server.idle_timeout_ms;
    }
  in
  let ready = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Server.run ~on_ready:(fun () -> Atomic.set ready true) cfg)
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.002
  done;
  Fun.protect
    ~finally:(fun () ->
      (* drain if the test has not already; never leave the domain
         running *)
      (try
         let cl = Server.Client.connect socket in
         ignore (Server.Client.request cl P.Drain);
         Server.Client.close cl
       with _ -> ());
      Domain.join daemon)
    (fun () -> f socket)

let request_ok cl req =
  match Server.Client.request cl req with
  | Ok resp -> resp
  | Error m -> Alcotest.fail ("transport error: " ^ m)

let test_daemon_end_to_end () =
  with_daemon @@ fun socket ->
  let cl = Server.Client.connect socket in
  (* 0. liveness *)
  (match request_ok cl P.Health with
  | P.Health_report h ->
    Alcotest.(check int) "nothing served yet" 0 h.P.h_served
  | resp -> Alcotest.failf "health broke: %a" P.pp_response resp);
  (* 1. crash containment: the worker dies, the daemon does not *)
  (match request_ok cl P.Crash_test with
  | P.Error (P.Internal_error, _) -> ()
  | resp -> Alcotest.failf "crash not contained: %a" P.pp_response resp);
  (* 2. a verified decomposition primes the last-good store *)
  let d = { (P.default_decompose ~gen) with P.k = 4 } in
  (match request_ok cl (P.Decompose d) with
  | P.Result r -> Alcotest.(check bool) "verified" true r.P.verified
  | resp -> Alcotest.failf "decompose broke: %a" P.pp_response resp);
  (* 3. stale degradation: chaos + a 1ms deadline on the same graph *)
  let chaos_seen = ref false in
  for seed = 10 to 19 do
    match
      request_ok cl
        (P.Decompose
           {
             d with
             P.seed;
             distributed = true;
             fail_p = 0.45;
             storm = "1:8:8";
             deadline_ms = 1;
           })
    with
    | P.Cert { P.c_stale = true; _ } -> chaos_seen := true
    | P.Result { P.verified = false; _ } | P.Result { P.degraded = true; _ } ->
      chaos_seen := true
    | P.Result _ | P.Error ((P.Deadline_exceeded | P.Internal_error), _) -> ()
    | resp -> Alcotest.failf "chaos leaked: %a" P.pp_response resp
  done;
  Alcotest.(check bool) "chaos produced degraded service, not death" true
    !chaos_seen;
  (* 4. load shedding: pipeline far more than queue + loop can admit.
     Sheds are load-dependent, so only assert the daemon answered every
     single frame with a structured response *)
  let burst = 64 in
  for seed = 100 to 100 + burst - 1 do
    Server.Client.send cl (P.Decompose { d with P.seed })
  done;
  let answered = ref 0 in
  for _ = 1 to burst do
    match Server.Client.recv cl with
    | Ok (P.Result _ | P.Cert _ | P.Error _) -> incr answered
    | Ok resp -> Alcotest.failf "burst surprise: %a" P.pp_response resp
    | Error m -> Alcotest.fail ("burst transport error: " ^ m)
  done;
  Alcotest.(check int) "every burst frame answered" burst !answered;
  (* 5. malformed frame: one structured error, that connection dies,
     the daemon lives *)
  let bad = Server.Client.connect socket in
  Server.Client.send_raw bad "this is definitely not a frame";
  (match Server.Client.recv bad with
  | Ok (P.Error (P.Bad_request, _)) -> ()
  | Ok resp -> Alcotest.failf "malformed frame got: %a" P.pp_response resp
  | Error m -> Alcotest.fail ("malformed frame transport error: " ^ m));
  (match Server.Client.recv bad with
  | Error _ -> () (* connection closed: the stream cannot be resynced *)
  | Ok resp -> Alcotest.failf "poisoned stream answered: %a" P.pp_response resp);
  Server.Client.close bad;
  (* the original connection and a fresh one both still work *)
  (match request_ok cl P.Health with
  | P.Health_report h ->
    Alcotest.(check bool) "served counts grew" true (h.P.h_served > 0);
    Alcotest.(check bool) "errors were accounted" true (h.P.h_errors > 0)
  | resp -> Alcotest.failf "health after abuse: %a" P.pp_response resp);
  Server.Client.close cl;
  let cl2 = Server.Client.connect socket in
  (* 6. clean drain: structured goodbye, then the socket disappears *)
  (match request_ok cl2 P.Drain with
  | P.Drained { served } ->
    Alcotest.(check bool) "drain reports the served total" true (served > 0)
  | resp -> Alcotest.failf "drain broke: %a" P.pp_response resp);
  Server.Client.close cl2

let test_daemon_sheds_under_tiny_queue () =
  (* deterministic shedding: capacity 1 and a burst of slow distinct
     requests must produce at least one Overloaded *)
  with_daemon ~queue_capacity:1 @@ fun socket ->
  let cl = Server.Client.connect socket in
  let d = { (P.default_decompose ~gen:"harary:k=6,n=96") with P.k = 6 } in
  let burst = 32 in
  for seed = 1 to burst do
    Server.Client.send cl (P.Decompose { d with P.seed })
  done;
  let shed = ref 0 and okay = ref 0 in
  for _ = 1 to burst do
    match Server.Client.recv cl with
    | Ok (P.Error (P.Overloaded, _)) -> incr shed
    | Ok (P.Result _) -> incr okay
    | Ok resp -> Alcotest.failf "burst surprise: %a" P.pp_response resp
    | Error m -> Alcotest.fail ("transport error: " ^ m)
  done;
  Alcotest.(check int) "every frame answered" burst (!shed + !okay);
  Alcotest.(check bool) "some requests were shed" true (!shed > 0);
  Alcotest.(check bool) "some requests were served" true (!okay > 0);
  Server.Client.close cl

(* ------------------------------------------------------------------ *)
(* Framing under adversarial byte boundaries: however a stream of
   concatenated frames is split and coalesced by the transport, an
   incremental reader must recover exactly the original payloads *)

let prop_framing_adversarial_boundaries =
  QCheck.Test.make
    ~name:"any chunking of a frame stream decodes to the same payloads"
    ~count:100
    QCheck.(
      pair
        (list_of_size
           (QCheck.Gen.int_range 0 8)
           (string_of_size (QCheck.Gen.int_range 0 64)))
        small_int)
    (fun (payloads, seed) ->
      let stream = String.concat "" (List.map Framing.encode payloads) in
      let rng = Random.State.make [| seed |] in
      let pending = Buffer.create 256 in
      let decoded = ref [] in
      let drain () =
        let b = Buffer.to_bytes pending in
        let len = Bytes.length b in
        let pos = ref 0 in
        let continue = ref true in
        while !continue do
          match Framing.try_decode ~pos:!pos b ~len with
          | `Frame (p, consumed) ->
            decoded := p :: !decoded;
            pos := !pos + consumed
          | `Need_more -> continue := false
          | `Error m -> Alcotest.fail ("valid stream rejected: " ^ m)
        done;
        Buffer.clear pending;
        Buffer.add_subbytes pending b !pos (len - !pos)
      in
      let i = ref 0 in
      let n = String.length stream in
      while !i < n do
        let chunk = min (1 + Random.State.int rng 7) (n - !i) in
        Buffer.add_substring pending stream !i chunk;
        i := !i + chunk;
        drain ()
      done;
      List.rev !decoded = payloads && Buffer.length pending = 0)

(* ------------------------------------------------------------------ *)
(* Journal: the write-ahead log behind crash-only restarts *)

let test_journal_record_codec () =
  let cert = sample_cert () in
  List.iter
    (fun r ->
      match Journal.decode_record (Journal.encode_record r) with
      | Ok r' ->
        Alcotest.(check bool) "record survives the codec" true (r = r')
      | Error m -> Alcotest.fail ("record failed to decode: " ^ m))
    [
      Journal.Meta { gen = 7 };
      Journal.Graph { spec = "harary:k=4,n=32" };
      Journal.Accept { req = P.encode_request P.Health };
      Journal.Promote { digest = "abc123"; cert };
    ];
  (match Journal.decode_record "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty record accepted");
  match Journal.decode_record "\xff\x00\x01" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown tag accepted"

let journal_graphs n = List.init n (fun i -> Printf.sprintf "g-%d" i)

let test_journal_append_and_reopen () =
  with_tmp_dir @@ fun dir ->
  let cert = sample_cert () in
  let records =
    List.map (fun s -> Journal.Graph { spec = s }) (journal_graphs 3)
    @ [
        Journal.Accept { req = P.encode_request P.Health };
        Journal.Promote { digest = "d1"; cert };
        (* duplicate graph: replay must dedup it *)
        Journal.Graph { spec = "g-0" };
      ]
  in
  let t, r0 = Journal.open_dir dir in
  Alcotest.(check int) "fresh dir replays nothing" 0 r0.Journal.r_records;
  List.iter (Journal.append t) records;
  Journal.sync t;
  Journal.close t;
  let t2, r = Journal.open_dir dir in
  Journal.close t2;
  let expected = Journal.replay_records records in
  Alcotest.(check int) "every record replayed" expected.Journal.r_records
    r.Journal.r_records;
  Alcotest.(check (list string)) "graphs deduped in first-seen order"
    expected.Journal.r_graphs r.Journal.r_graphs;
  Alcotest.(check int) "accepts counted" 1 r.Journal.r_accepted;
  Alcotest.(check bool) "the promoted certificate replays intact" true
    (r.Journal.r_certs = [ ("d1", cert) ]);
  Alcotest.(check int) "nothing torn" 0 r.Journal.r_torn_bytes

let live_segment dir = Filename.concat dir "journal-000000000.wal"

let test_journal_torn_tail_truncated () =
  with_tmp_dir @@ fun dir ->
  let t, _ = Journal.open_dir dir in
  List.iter
    (fun s -> Journal.append t (Journal.Graph { spec = s }))
    (journal_graphs 3);
  Journal.sync t;
  Journal.close t;
  (* a kill -9 mid-write leaves a partial frame at the tail *)
  let torn_frame =
    Framing.encode (Journal.encode_record (Journal.Graph { spec = "torn" }))
  in
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o644 (live_segment dir)
  in
  output_string oc (String.sub torn_frame 0 7);
  close_out oc;
  let t2, r = Journal.open_dir dir in
  Alcotest.(check int) "synced records all survive" 3 r.Journal.r_records;
  Alcotest.(check int) "the torn tail is measured" 7 r.Journal.r_torn_bytes;
  Alcotest.(check int) "torn is not corrupt" 0 r.Journal.r_corrupt_frames;
  (* the tail was physically cut: the next append extends a valid
     stream *)
  Journal.append t2 (Journal.Graph { spec = "after-the-tear" });
  Journal.sync t2;
  Journal.close t2;
  let t3, r' = Journal.open_dir dir in
  Journal.close t3;
  Alcotest.(check int) "append after truncation replays cleanly" 4
    r'.Journal.r_records;
  Alcotest.(check int) "no residual tear" 0 r'.Journal.r_torn_bytes;
  Alcotest.(check (list string)) "order preserved"
    (journal_graphs 3 @ [ "after-the-tear" ])
    r'.Journal.r_graphs

let test_journal_bit_flip_detected () =
  with_tmp_dir @@ fun dir ->
  let t, _ = Journal.open_dir dir in
  let sizes =
    List.map
      (fun s ->
        Journal.append t (Journal.Graph { spec = s });
        Journal.sync t;
        (Unix.stat (live_segment dir)).Unix.st_size)
      (journal_graphs 5)
  in
  Journal.close t;
  (* flip one payload byte of the third frame: its CRC no longer
     matches, and frames cannot be resynchronized past it *)
  let boundary = List.nth sizes 1 in
  let fd = Unix.openfile (live_segment dir) [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd (boundary + 5) Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
  ignore (Unix.lseek fd (boundary + 5) Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let t2, r = Journal.open_dir dir in
  Alcotest.(check int) "records before the flip survive" 2
    r.Journal.r_records;
  Alcotest.(check int) "corruption is reported, not ignored" 1
    r.Journal.r_corrupt_frames;
  Alcotest.(check bool) "poisoned bytes are discarded" true
    (r.Journal.r_torn_bytes > 0);
  (* the journal stays writable: crash-only recovery truncated the
     poisoned region *)
  Journal.append t2 (Journal.Graph { spec = "after-the-flip" });
  Journal.sync t2;
  Journal.close t2;
  let t3, r' = Journal.open_dir dir in
  Journal.close t3;
  Alcotest.(check (list string)) "recovered stream is clean"
    [ "g-0"; "g-1"; "after-the-flip" ]
    r'.Journal.r_graphs;
  Alcotest.(check int) "no residual corruption" 0 r'.Journal.r_corrupt_frames

let test_journal_snapshot_rotation () =
  with_tmp_dir @@ fun dir ->
  let cert = sample_cert () in
  let t, _ = Journal.open_dir dir in
  List.iter
    (fun s -> Journal.append t (Journal.Graph { spec = s }))
    (journal_graphs 4);
  Journal.append t (Journal.Promote { digest = "d1"; cert });
  Journal.sync t;
  Alcotest.(check int) "appends counted" 5 (Journal.appended_since_snapshot t);
  (* compaction: the snapshot replaces the whole history *)
  Journal.snapshot t
    [ Journal.Graph { spec = "g-0" }; Journal.Promote { digest = "d1"; cert } ];
  Alcotest.(check int) "rotation resets the counter" 0
    (Journal.appended_since_snapshot t);
  Alcotest.(check bool) "compacted segment deleted" false
    (Sys.file_exists (live_segment dir));
  Alcotest.(check bool) "snapshot materialized" true
    (Sys.file_exists (Filename.concat dir "snapshot.bin"));
  Journal.append t (Journal.Graph { spec = "post-snapshot" });
  Journal.sync t;
  Journal.close t;
  let t2, r = Journal.open_dir dir in
  Journal.close t2;
  Alcotest.(check int) "snapshot generation advanced" 1
    r.Journal.r_snapshot_gen;
  Alcotest.(check (list string)) "snapshot + live segment replay"
    [ "g-0"; "post-snapshot" ] r.Journal.r_graphs;
  Alcotest.(check bool) "certificate compacted into the snapshot" true
    (r.Journal.r_certs = [ ("d1", cert) ])

(* The acceptance property: kill -9 at an arbitrary byte offset loses
   nothing that was synced and replays a clean prefix of history. Each
   record is synced individually so every frame boundary is a possible
   kill point. *)
let prop_journal_random_kill_point =
  QCheck.Test.make
    ~name:"kill -9 at any offset: synced prefix survives, tail is torn"
    ~count:60
    QCheck.(pair (int_range 1 40) small_int)
    (fun (n, cut_salt) ->
      with_tmp_dir @@ fun dir ->
      let records =
        List.init n (fun i ->
            if i mod 3 = 2 then
              Journal.Accept { req = Printf.sprintf "req-%d" i }
            else Journal.Graph { spec = Printf.sprintf "graph-%d" i })
      in
      let t, _ = Journal.open_dir dir in
      let seg = live_segment dir in
      let sizes =
        List.map
          (fun r ->
            Journal.append t r;
            Journal.sync t;
            (Unix.stat seg).Unix.st_size)
          records
      in
      Journal.close t;
      let total = (Unix.stat seg).Unix.st_size in
      let cut = cut_salt mod (total + 1) in
      Unix.truncate seg cut;
      let t2, r = Journal.open_dir dir in
      Journal.close t2;
      (* exactly the records whose sync completed inside the surviving
         prefix replay; a mid-frame cut is torn, never misread *)
      let durable = List.length (List.filter (fun s -> s <= cut) sizes) in
      let expected =
        Journal.replay_records
          (List.filteri (fun i _ -> i < durable) records)
      in
      r.Journal.r_records = durable
      && r.Journal.r_graphs = expected.Journal.r_graphs
      && r.Journal.r_accepted = expected.Journal.r_accepted
      && r.Journal.r_corrupt_frames = 0)

(* ------------------------------------------------------------------ *)
(* Decoder fuzzing: the journal is the only durable copy of the
   daemon's certificates, so every decoder it (and the wire) relies on
   must fail only with its typed [Error], whatever bytes it is fed *)

let fuzz_cert = lazy (sample_cert ())

(* Stats snapshots as registries produce them: empty, and one with
   every instrument kind, a negative gauge and a spread histogram *)
let sample_snapshots () =
  let m = Obs.Metrics.create () in
  let empty = Obs.Metrics.snapshot m in
  Obs.Metrics.add (Obs.Metrics.counter m "c_requests") 41;
  Obs.Metrics.incr (Obs.Metrics.counter m "c_failed");
  Obs.Metrics.set (Obs.Metrics.gauge m "g_depth") (-7);
  let h = Obs.Metrics.histogram m "h_latency_us" in
  List.iter (Obs.Metrics.observe h) [ 0; 1; 9; 130; 4_000; 2_000_000 ];
  [ empty; Obs.Metrics.snapshot m ]

(* (name, valid encoding, decoder) — the decoder reports whether it
   answered at all; an exception escapes and fails the property *)
let fuzz_corpus =
  lazy
    (let cert = Lazy.force fuzz_cert in
     let total decode s = match decode s with Ok _ | Error _ -> () in
     List.map
       (fun r -> ("journal record", Journal.encode_record r, total Journal.decode_record))
       [
         Journal.Graph { spec = "harary:k=4,n=32" };
         Journal.Promote { digest = "abc123"; cert };
       ]
     @ [ ("certificate", P.encode_certificate cert, total P.decode_certificate) ]
     @ List.map
         (fun q -> ("request", P.encode_request q, total P.decode_request))
         sample_requests
     @ List.map
         (fun r -> ("response", P.encode_response r, total P.decode_response))
         (sample_responses cert)
     @ List.map
         (fun s -> ("snapshot", P.encode_snapshot s, total P.decode_snapshot))
         (sample_snapshots ())
     |> Array.of_list)

(* lengths and counts a forger would try: negative, zero, just past the
   buffer, and values that overflow an int-sized allocation *)
let forged_lengths len =
  [| -1L; 0L; Int64.of_int len; Int64.of_int (len + 1); 0x7fff_ffffL;
     0xffff_ffffL; Int64.max_int; Int64.min_int |]

(* One random mutation: a byte flip, a truncation, an insertion of
   random bytes, or a forged big-endian 8-byte length written over
   whatever sits at a random offset. *)
let mutate rng s =
  let n = String.length s in
  let pos () = Random.State.int rng (n + 1) in
  match Random.State.int rng 4 with
  | 0 when n > 0 ->
    let b = Bytes.of_string s in
    let i = Random.State.int rng n in
    Bytes.set b i
      (Char.chr (Char.code (Bytes.get b i) lxor (1 + Random.State.int rng 255)));
    Bytes.to_string b
  | 1 -> String.sub s 0 (pos ())
  | 2 ->
    let i = pos () in
    let ins =
      String.init (1 + Random.State.int rng 16) (fun _ ->
          Char.chr (Random.State.int rng 256))
    in
    String.sub s 0 i ^ ins ^ String.sub s i (n - i)
  | _ ->
    let b = Bytes.of_string s in
    let forged = forged_lengths n in
    let v = forged.(Random.State.int rng (Array.length forged)) in
    let i = Random.State.int rng (max 1 (n - 7)) in
    if i + 8 <= n then Bytes.set_int64_be b i v;
    Bytes.to_string b

let rec mutate_times rng s k =
  if k = 0 then s else mutate_times rng (mutate rng s) (k - 1)

let prop_decoders_never_raise =
  QCheck.Test.make ~name:"fuzzed encodings never raise"
    ~count:2000 QCheck.int
    (fun seed ->
      let corpus = Lazy.force fuzz_corpus in
      let rng = Random.State.make [| seed |] in
      let name, enc, decode =
        corpus.(Random.State.int rng (Array.length corpus))
      in
      let s = mutate_times rng enc (1 + Random.State.int rng 4) in
      match decode s with
      | () -> true
      | exception e ->
        QCheck.Test.fail_reportf "%s decoder raised %s on %S" name
          (Printexc.to_string e) s)

(* Framing under mutation: a valid multi-frame stream, mutated, walked
   frame by frame from the start. The decoder must only answer, never
   raise; no answer may claim bytes past [len]; and every frame it
   accepts must carry a payload that was encoded (a forged frame would
   need a matching CRC). *)
let prop_framing_mutated =
  QCheck.Test.make ~name:"mutated frame streams" ~count:1000 QCheck.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let payloads =
        List.init (1 + Random.State.int rng 5) (fun _ ->
            String.init (Random.State.int rng 48) (fun _ ->
                Char.chr (Random.State.int rng 256)))
      in
      let stream = String.concat "" (List.map Framing.encode payloads) in
      let s = mutate_times rng stream (1 + Random.State.int rng 4) in
      let b = Bytes.of_string s and len = String.length s in
      let rec walk pos =
        match Framing.try_decode ~pos b ~len with
        | `Frame (p, consumed) ->
          if consumed <= 0 || pos + consumed > len then
            QCheck.Test.fail_reportf "frame at %d consumed %d of %d bytes" pos
              consumed len
          else if not (List.mem p payloads) then
            QCheck.Test.fail_reportf "forged frame %S accepted at %d" p pos
          else walk (pos + consumed)
        | `Need_more | `Error _ -> true
        | exception e ->
          QCheck.Test.fail_reportf "try_decode raised %s at %d on %S"
            (Printexc.to_string e) pos s
      in
      walk 0)

(* A flipped byte anywhere in a synced segment (header, payload or CRC)
   must stop replay at a frame boundary: what survives is exactly some
   prefix of the history, never a misread record. *)
let prop_journal_flipped_segment =
  QCheck.Test.make
    ~name:"flipped segment replays a prefix"
    ~count:100 QCheck.int
    (fun seed ->
      with_tmp_dir @@ fun dir ->
      let cert = Lazy.force fuzz_cert in
      let records =
        [
          Journal.Graph { spec = "graph-0" };
          Journal.Promote { digest = "d0"; cert };
          Journal.Accept { req = P.encode_request P.Health };
          Journal.Graph { spec = "graph-1" };
          Journal.Promote { digest = "d1"; cert };
        ]
      in
      let t, _ = Journal.open_dir dir in
      List.iter
        (fun r ->
          Journal.append t r;
          Journal.sync t)
        records;
      Journal.close t;
      let seg = live_segment dir in
      let bytes =
        Bytes.of_string (In_channel.with_open_bin seg In_channel.input_all)
      in
      let rng = Random.State.make [| seed |] in
      for _ = 1 to 1 + Random.State.int rng 3 do
        let i = Random.State.int rng (Bytes.length bytes) in
        Bytes.set bytes i
          (Char.chr
             (Char.code (Bytes.get bytes i) lxor (1 + Random.State.int rng 255)))
      done;
      Out_channel.with_open_bin seg (fun oc -> Out_channel.output_bytes oc bytes);
      let t2, r = Journal.open_dir dir in
      Journal.close t2;
      let same (e : Journal.replay) =
        r.Journal.r_records = e.Journal.r_records
        && r.Journal.r_graphs = e.Journal.r_graphs
        && r.Journal.r_certs = e.Journal.r_certs
        && r.Journal.r_accepted = e.Journal.r_accepted
      in
      List.exists
        (fun p ->
          same (Journal.replay_records (List.filteri (fun i _ -> i < p) records)))
        (List.init (List.length records + 1) Fun.id))

(* ------------------------------------------------------------------ *)
(* Daemon crash-only behaviors over a real socket *)

let test_daemon_warm_restart () =
  with_tmp_dir @@ fun dir ->
  (* first life: resolve a graph and promote a certificate *)
  with_daemon ~state_dir:dir (fun socket ->
      let cl = Server.Client.connect socket in
      (match
         request_ok cl (P.Decompose { (P.default_decompose ~gen) with P.k = 4 })
       with
      | P.Result r -> Alcotest.(check bool) "verified" true r.P.verified
      | resp -> Alcotest.failf "decompose broke: %a" P.pp_response resp);
      Server.Client.close cl);
  (* second life over the same state directory: the journal replays
     into warm state before the socket opens *)
  with_daemon ~state_dir:dir (fun socket ->
      let cl = Server.Client.connect socket in
      (match request_ok cl P.Health with
      | P.Health_report h ->
        Alcotest.(check bool) "journal replayed into warm state" true
          (h.P.h_replayed > 0)
      | resp -> Alcotest.failf "health broke: %a" P.pp_response resp);
      (match request_ok cl (P.Certificate { gen }) with
      | P.Cert c ->
        Alcotest.(check bool) "replayed certificate is stale" true c.P.c_stale;
        Alcotest.(check bool) "and machine-checkable" false
          (Domtree.Certificate.degraded c.P.c_cert)
      | resp ->
        Alcotest.failf "wanted the replayed certificate, got: %a" P.pp_response
          resp);
      Server.Client.close cl)

let test_daemon_drops_stalled_conn () =
  with_daemon ~idle_timeout_ms:150 @@ fun socket ->
  (* a dribbling client: three bytes of a valid frame, then silence *)
  let dribble = Server.Client.connect ~timeout_s:5. socket in
  let frame = Framing.encode (P.encode_request P.Health) in
  Server.Client.send_raw dribble (String.sub frame 0 3);
  (* a fast client keeps working well past the dribbler's deadline *)
  let cl = Server.Client.connect socket in
  let deadline = Unix.gettimeofday () +. 0.6 in
  while Unix.gettimeofday () < deadline do
    (match request_ok cl P.Health with
    | P.Health_report _ -> ()
    | resp -> Alcotest.failf "health under dribble: %a" P.pp_response resp);
    Unix.sleepf 0.02
  done;
  (* the stalled connection got one structured complaint and was
     dropped; an idle-but-empty connection would have been spared *)
  (match Server.Client.recv dribble with
  | Ok (P.Error (P.Bad_request, m)) ->
    Alcotest.(check bool) "the error names the stall" true
      (String.length m > 0)
  | Ok resp -> Alcotest.failf "stalled conn answered: %a" P.pp_response resp
  | Error m -> Alcotest.fail ("stalled conn transport error: " ^ m));
  (match Server.Client.recv dribble with
  | Error _ -> ()
  | Ok resp -> Alcotest.failf "dead conn answered: %a" P.pp_response resp);
  Server.Client.close dribble;
  (match request_ok cl P.Health with
  | P.Health_report _ -> ()
  | resp -> Alcotest.failf "fast client collateral: %a" P.pp_response resp);
  Server.Client.close cl

let test_accept_error_action () =
  Alcotest.(check bool) "EMFILE pauses the listener" true
    (Server.accept_error_action Unix.EMFILE = `Pause);
  Alcotest.(check bool) "ENFILE pauses the listener" true
    (Server.accept_error_action Unix.ENFILE = `Pause);
  List.iter
    (fun e ->
      Alcotest.(check bool) "transient accept noise retries" true
        (Server.accept_error_action e = `Retry))
    [ Unix.EINTR; Unix.ECONNABORTED; Unix.ECONNRESET; Unix.EAGAIN ]

(* ------------------------------------------------------------------ *)
(* Supervisor: restart policy without a real daemon underneath *)

let sup_cfg =
  {
    Supervisor.max_crashes = 3;
    window_s = 60.;
    backoff0_ms = 1.;
    backoff_max_ms = 4.;
    stable_s = 5.;
    ready_timeout_s = 2.;
    probe_interval_ms = 2.;
  }

let test_supervisor_clean_exit () =
  match
    Supervisor.supervise sup_cfg
      ~spawn:(fun () -> ())
      ~probe:(fun () -> false)
  with
  | Supervisor.Clean_exit { restarts } ->
    Alcotest.(check int) "no restarts for a clean child" 0 restarts
  | Supervisor.Crash_loop _ ->
    Alcotest.fail "clean exit reported as a crash loop"

let test_supervisor_crash_loop_opens_circuit () =
  let events = ref [] in
  match
    Supervisor.supervise
      ~on_event:(fun e -> events := e :: !events)
      sup_cfg
      ~spawn:(fun () -> failwith "always crashing")
      ~probe:(fun () -> false)
  with
  | Supervisor.Crash_loop { crashes } ->
    Alcotest.(check bool) "breaker opened past the budget" true (crashes > 3);
    Alcotest.(check bool) "backoff ladder was climbed" true
      (List.exists
         (function Supervisor.Backoff _ -> true | _ -> false)
         !events);
    Alcotest.(check bool) "circuit-open event emitted" true
      (List.exists
         (function Supervisor.Circuit_open _ -> true | _ -> false)
         !events)
  | Supervisor.Clean_exit _ ->
    Alcotest.fail "a child that always crashes reported clean"

let test_supervisor_flaky_child_heals () =
  with_tmp_dir @@ fun dir ->
  (* the child is a forked process: the crash counter must live on
     disk, exactly like the daemon's own journal *)
  let counter = Filename.concat dir "attempts" in
  let spawn () =
    let attempts =
      if Sys.file_exists counter then (
        let ic = open_in counter in
        let n = int_of_string (input_line ic) in
        close_in ic;
        n)
      else 0
    in
    let oc = open_out counter in
    output_string oc (string_of_int (attempts + 1));
    close_out oc;
    if attempts < 2 then failwith "still flaky"
  in
  match Supervisor.supervise sup_cfg ~spawn ~probe:(fun () -> false) with
  | Supervisor.Clean_exit { restarts } ->
    Alcotest.(check int) "two restarts healed it" 2 restarts
  | Supervisor.Crash_loop _ ->
    Alcotest.fail "a healing child tripped the breaker"

let test_supervisor_operator_sigterm () =
  (* "kill <supervisor>" must drain the whole tree: the forwarded TERM
     reaches a child whose default disposition was restored after the
     fork (the inherited forward handler would discard it), and the
     supervisor reports the death as Clean_exit instead of restarting
     into a shutdown. Run supervise in its own process so the real
     signal path — handler, forward, waitpid EINTR — is exercised. *)
  let pid = Unix.fork () in
  if pid = 0 then begin
    let outcome =
      Supervisor.supervise sup_cfg
        ~spawn:(fun () ->
          while true do
            Unix.sleepf 3600.
          done)
        ~probe:(fun () -> true)
    in
    match outcome with
    | Supervisor.Clean_exit _ -> Unix._exit 0
    | Supervisor.Crash_loop _ -> Unix._exit 7
  end
  else begin
    (* let the supervisor fork its child and pass the readiness gate *)
    Unix.sleepf 0.3;
    Unix.kill pid Sys.sigterm;
    let deadline = Unix.gettimeofday () +. 5. in
    let rec await () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          Alcotest.fail "supervisor ignored SIGTERM (tree still alive)"
        end
        else begin
          Unix.sleepf 0.02;
          await ()
        end
      | _, status -> status
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> await ()
    in
    match await () with
    | Unix.WEXITED 0 -> ()
    | Unix.WEXITED 7 ->
      Alcotest.fail "operator SIGTERM was counted as a crash loop"
    | Unix.WEXITED c -> Alcotest.failf "supervisor exited %d on SIGTERM" c
    | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      Alcotest.failf "supervisor killed by signal %d instead of draining" s
  end

let () =
  Alcotest.run "serve"
    [
      ( "framing",
        [
          Alcotest.test_case "crc32 check vector" `Quick test_crc32_vector;
          Alcotest.test_case "roundtrip" `Quick test_framing_roundtrip;
          Alcotest.test_case "partial feed wants more" `Quick
            test_framing_partial_feed;
          Alcotest.test_case "corrupt CRC rejected" `Quick
            test_framing_corrupt_crc;
          Alcotest.test_case "bad version rejected" `Quick
            test_framing_bad_version;
          Alcotest.test_case "oversize length rejected" `Quick
            test_framing_oversize_rejected;
          QCheck_alcotest.to_alcotest prop_framing_adversarial_boundaries;
          QCheck_alcotest.to_alcotest prop_framing_mutated;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick
            test_response_roundtrip;
          Alcotest.test_case "certificate codec" `Quick test_certificate_codec;
          Alcotest.test_case "garbage rejected" `Quick
            test_decoder_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_decoders_never_raise;
        ] );
      ( "queue",
        [
          Alcotest.test_case "FIFO + shed at capacity" `Quick
            test_queue_fifo_and_shed;
        ] );
      ( "degrade",
        [
          Alcotest.test_case "memory store" `Quick test_degrade_memory;
          Alcotest.test_case "record keeps the stronger certificate" `Quick
            test_degrade_record_is_monotone;
        ] );
      ( "worker",
        [
          Alcotest.test_case "bad requests are structured" `Quick
            test_worker_bad_requests;
          Alcotest.test_case "crash contained" `Quick
            test_worker_crash_contained;
          Alcotest.test_case "memoizes" `Quick test_worker_memoizes;
          Alcotest.test_case "deadline degrades to stale cert" `Quick
            test_worker_deadline_degrades_to_stale;
          Alcotest.test_case "certificate lookup" `Quick
            test_worker_certificate_lookup;
          Alcotest.test_case "chaos answers structurally" `Quick
            test_worker_chaos_survives;
        ] );
      ( "journal",
        [
          Alcotest.test_case "record codec" `Quick test_journal_record_codec;
          Alcotest.test_case "append, sync, reopen" `Quick
            test_journal_append_and_reopen;
          Alcotest.test_case "torn tail truncated" `Quick
            test_journal_torn_tail_truncated;
          Alcotest.test_case "bit flip detected and contained" `Quick
            test_journal_bit_flip_detected;
          Alcotest.test_case "snapshot rotation" `Quick
            test_journal_snapshot_rotation;
          QCheck_alcotest.to_alcotest prop_journal_random_kill_point;
          QCheck_alcotest.to_alcotest prop_journal_flipped_segment;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "clean exit" `Quick test_supervisor_clean_exit;
          Alcotest.test_case "crash loop opens the circuit" `Quick
            test_supervisor_crash_loop_opens_circuit;
          Alcotest.test_case "flaky child heals after restarts" `Quick
            test_supervisor_flaky_child_heals;
          Alcotest.test_case "operator SIGTERM drains, never restarts" `Quick
            test_supervisor_operator_sigterm;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "end to end robustness" `Quick
            test_daemon_end_to_end;
          Alcotest.test_case "sheds under a tiny queue" `Quick
            test_daemon_sheds_under_tiny_queue;
          Alcotest.test_case "warm restart replays the journal" `Quick
            test_daemon_warm_restart;
          Alcotest.test_case "stalled partial frame is dropped" `Quick
            test_daemon_drops_stalled_conn;
          Alcotest.test_case "accept error policy" `Quick
            test_accept_error_action;
        ] );
    ]
