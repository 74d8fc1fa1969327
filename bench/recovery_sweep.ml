(* Process-level chaos harness for the crash-only daemon
   (`bench/main.exe -- recovery [kills]`).

   Unlike serve_sweep (which spawns the daemon in-process to measure
   the service stack), this sweep drives a real out-of-process
   `decompose serve` through the failures that only exist at the
   process boundary:

   - [kill_under_load]: upload graphs, pipeline a burst, SIGKILL the
     daemon mid-burst at a varying kill point, restart it on the same
     state directory, and measure recovery time, journal replay counts,
     requests lost vs. served, whether every pre-crash certificate is
     queryable again, and that the degrade store stayed monotone
     (no retained-class regression vs. pre-crash).
   - [torn_files]: kill the daemon, append a torn tail to the live
     journal segment, and demand a clean restart that still serves the
     pre-crash certificate.

   The journal under [--state-dir] is the daemon's only persistence, so
   [certs_recovered] and [cert_queryable] test the journal alone: a
   journal that lost a [Promote] record shows up as a missing
   certificate.
   - [slowloris]: a dribbling client parks a half-written frame while a
     fast client keeps getting answers; the idle deadline must drop the
     dribbler with one structured error.
   - [fd_exhaustion]: the daemon runs under `ulimit -n`; a herd of idle
     connections starves it of fds; once they leave, the accept-loop
     backoff must recover without a restart.

   BENCH_recovery.json schema:
     { "sweep": "recovery", "wall_s": W,
       "rows": [ { "phase": ..., per-phase fields ... } ] }
   kill_under_load rows carry "recovery_ms" — the restart-to-ready
   latency the issue's acceptance criteria ask for. *)

module P = Serve.Protocol
module Client = Serve.Server.Client

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Daemon process control *)

let bin () =
  match Sys.getenv_opt "DECOMPOSE_BIN" with
  | Some p -> p
  | None ->
    (* the sweep runs as _build/default/bench/main.exe; the daemon
       binary sits in the sibling bin/ directory *)
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat Filename.parent_dir_name
         (Filename.concat "bin" "decompose.exe"))

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

type env = { socket : string; state_dir : string }

let fresh_env tag =
  let base =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "decompose-recovery-%d-%s" (Unix.getpid ()) tag)
  in
  rm_rf base;
  Unix.mkdir base 0o755;
  {
    socket = Filename.concat base "d.sock";
    state_dir = Filename.concat base "state";
  }

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)

(* Start `decompose serve` out of process. [fd_limit > 0] wraps it in
   `sh -c 'ulimit -n N; exec ...'` so the limit applies to the daemon
   alone, not this sweep. *)
let start_daemon ?(fd_limit = 0) ?(extra = []) env =
  let null = Lazy.force devnull in
  let args =
    [
      bin (); "serve"; "--socket"; env.socket; "--state-dir"; env.state_dir;
    ]
    @ extra
  in
  if fd_limit > 0 then
    let cmd =
      Printf.sprintf "ulimit -n %d; exec %s" fd_limit
        (String.concat " " (List.map Filename.quote args))
    in
    Unix.create_process "/bin/sh" [| "/bin/sh"; "-c"; cmd |] Unix.stdin null null
  else Unix.create_process (bin ()) (Array.of_list args) Unix.stdin null null

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

let kill9 pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (waitpid_retry [] pid)

(* Poll a Health round trip until the daemon answers; returns the wait
   in seconds and the first health report. *)
let wait_ready ?(timeout_s = 30.) env =
  let t0 = now () in
  let rec go () =
    if now () -. t0 > timeout_s then
      failwith ("daemon not ready within timeout on " ^ env.socket)
    else
      match Client.connect ~timeout_s:1. env.socket with
      | cl ->
        let h =
          match Client.request cl P.Health with
          | Ok (P.Health_report h) -> Some h
          | _ -> None
        in
        Client.close cl;
        (match h with
        | Some h -> (now () -. t0, h)
        | None ->
          Unix.sleepf 0.01;
          go ())
      | exception (Unix.Unix_error _ | Sys_error _) ->
        Unix.sleepf 0.01;
        go ()
  in
  go ()

let drain env pid =
  (match Client.connect ~timeout_s:10. env.socket with
  | cl ->
    (match Client.request cl P.Drain with
    | Ok (P.Drained _) -> ()
    | Ok r -> Format.printf "drain surprise: %a@." P.pp_response r
    | Error m -> Format.printf "drain failed: %s@." m);
    Client.close cl
  | exception (Unix.Unix_error _ | Sys_error _) ->
    Format.printf "drain: could not connect; killing@.";
    try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (waitpid_retry [] pid)

(* ------------------------------------------------------------------ *)
(* Rows: phases report different facts, so a row is a tagged field list *)

type row = { phase : string; fields : (string * Exec.Artifact.json) list }

let pp_row r =
  Format.printf "%-16s" r.phase;
  List.iter
    (fun (k, v) ->
      match v with
      | Exec.Artifact.Int i -> Format.printf " %s=%d" k i
      | Exec.Artifact.Float f -> Format.printf " %s=%.2f" k f
      | Exec.Artifact.Bool b -> Format.printf " %s=%b" k b
      | Exec.Artifact.String s -> Format.printf " %s=%s" k s
      | _ -> ())
    r.fields;
  Format.printf "@."

let json_row r =
  Exec.Artifact.Obj (("phase", Exec.Artifact.String r.phase) :: r.fields)

(* ------------------------------------------------------------------ *)
(* Phase 1: SIGKILL under load, restart, recover *)

let uploads = [ ("harary:k=4,n=32", 4); ("harary:k=4,n=40", 4); ("hypercube:d=4", 2) ]

let decompose_req ~gen ~k ~seed =
  { (P.default_decompose ~gen) with P.k; seed }

let certificate_retained env gen =
  let cl = Client.connect ~timeout_s:10. env.socket in
  let r =
    match Client.request cl (P.Certificate { gen }) with
    | Ok (P.Cert c) ->
      Some (Domtree.Certificate.retained_count c.P.c_cert, c.P.c_stale)
    | _ -> None
  in
  Client.close cl;
  r

let kill_under_load_phase ~index env =
  let pid = start_daemon env in
  let _, _ = wait_ready env in
  (* upload: one verified decompose per graph promotes a certificate,
     each journaled durably before the reply *)
  let cl = Client.connect ~timeout_s:30. env.socket in
  List.iter
    (fun (gen, k) ->
      match Client.request cl (P.Decompose (decompose_req ~gen ~k ~seed:7)) with
      | Ok (P.Result { P.verified = true; _ }) -> ()
      | Ok r -> Format.printf "upload surprise (%s): %a@." gen P.pp_response r
      | Error m -> failwith ("upload failed: " ^ m))
    uploads;
  Client.close cl;
  let pre =
    List.filter_map
      (fun (gen, _) ->
        Option.map (fun (ret, _) -> (gen, ret)) (certificate_retained env gen))
      uploads
  in
  (* burst: pipeline fresh-seed requests (memo misses, so the daemon is
     genuinely computing when the kill lands), then SIGKILL after
     draining a phase-dependent number of replies *)
  let burst = 24 in
  let kill_after = 2 + (5 * index) in
  let bc = Client.connect ~timeout_s:5. env.socket in
  let gen0, k0 = List.hd uploads in
  for i = 1 to burst do
    Client.send bc (P.Decompose (decompose_req ~gen:gen0 ~k:k0 ~seed:(100 + (burst * index) + i)))
  done;
  let received = ref 0 in
  (try
     for _ = 1 to kill_after do
       match Client.recv bc with Ok _ -> incr received | Error _ -> raise Exit
     done
   with Exit -> ());
  kill9 pid;
  (* everything still in flight is lost — count it *)
  let lost = ref 0 in
  (try
     for _ = !received + 1 to burst do
       match Client.recv bc with Ok _ -> incr received | Error _ -> incr lost; raise Exit
     done
   with Exit -> lost := !lost + (burst - !received - !lost));
  Client.close bc;
  (* restart on the same state directory: the journal replay must hand
     back every uploaded graph and certificate *)
  let t_restart = now () in
  let pid' = start_daemon env in
  let wait_s, h = wait_ready env in
  let recovery_ms = (now () -. t_restart) *. 1000. in
  ignore wait_s;
  let recovered = ref 0 in
  let monotone = ref true in
  List.iter
    (fun (gen, pre_ret) ->
      match certificate_retained env gen with
      | Some (post_ret, _stale) ->
        incr recovered;
        if post_ret < pre_ret then monotone := false
      | None -> ())
    pre;
  drain env pid';
  {
    phase = "kill_under_load";
    fields =
      [
        ("kill_point", Exec.Artifact.Int kill_after);
        ("uploads", Exec.Artifact.Int (List.length uploads));
        ("burst", Exec.Artifact.Int burst);
        ("served_before_kill", Exec.Artifact.Int !received);
        ("lost", Exec.Artifact.Int !lost);
        ("recovery_ms", Exec.Artifact.Float recovery_ms);
        ("replayed", Exec.Artifact.Int h.P.h_replayed);
        ("certs_pre_crash", Exec.Artifact.Int (List.length pre));
        ("certs_recovered", Exec.Artifact.Int !recovered);
        ("monotone", Exec.Artifact.Bool !monotone);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Phase 2: torn journal tail *)

let append_garbage path bytes =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc bytes;
  close_out oc

let files_under dir =
  match Sys.readdir dir with
  | entries ->
    Array.to_list entries |> List.sort String.compare
    |> List.filter_map (fun e ->
           let p = Filename.concat dir e in
           if Sys.is_directory p then None else Some p)
  | exception Sys_error _ -> []

let torn_files_phase env =
  let pid = start_daemon env in
  let _ = wait_ready env in
  let cl = Client.connect ~timeout_s:30. env.socket in
  List.iter
    (fun (gen, k) ->
      ignore (Client.request cl (P.Decompose (decompose_req ~gen ~k ~seed:7))))
    uploads;
  Client.close cl;
  kill9 pid;
  (* vandalism: a torn tail on the live journal segment *)
  let torn = "\x01\x00\x00\x13torn-mid-write" (* valid header, missing body *) in
  let journal_torn =
    match
      files_under env.state_dir
      |> List.filter (fun p -> Filename.check_suffix p ".wal")
    with
    | seg :: _ ->
      append_garbage seg torn;
      true
    | [] -> false
  in
  (* the daemon must restart cleanly anyway *)
  let pid' = start_daemon env in
  let _, h = wait_ready env in
  let gen0, _ = List.hd uploads in
  let queryable = certificate_retained env gen0 <> None in
  drain env pid';
  {
    phase = "torn_files";
    fields =
      [
        ("journal_torn", Exec.Artifact.Bool journal_torn);
        ("torn_bytes", Exec.Artifact.Int (String.length torn));
        ("replayed", Exec.Artifact.Int h.P.h_replayed);
        ("cert_queryable", Exec.Artifact.Bool queryable);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Phase 3: slowloris dribbler vs. fast client *)

let slowloris_phase env =
  let pid = start_daemon ~extra:[ "--idle-timeout-ms"; "300" ] env in
  let _ = wait_ready env in
  (* the dribbler parks 3 bytes of a valid frame and stalls *)
  let dribbler = Client.connect ~timeout_s:5. env.socket in
  let frame = Serve.Framing.encode (P.encode_request P.Health) in
  Client.send_raw dribbler (String.sub frame 0 3);
  (* the fast client keeps being served during and after the stall *)
  let fast = Client.connect ~timeout_s:10. env.socket in
  let gen0, k0 = List.hd uploads in
  let fast_ok = ref 0 in
  for seed = 1 to 10 do
    match Client.request fast (P.Decompose (decompose_req ~gen:gen0 ~k:k0 ~seed)) with
    | Ok (P.Result _) -> incr fast_ok
    | _ -> ()
  done;
  Unix.sleepf 0.5 (* past the 300 ms idle deadline *);
  (match Client.request fast (P.Decompose (decompose_req ~gen:gen0 ~k:k0 ~seed:99)) with
  | Ok (P.Result _) -> incr fast_ok
  | _ -> ());
  (* the dribbler gets one structured error (or a straight close) *)
  let dropped =
    match Client.recv dribbler with
    | Ok (P.Error (P.Bad_request, _)) -> true
    | Error _ -> true
    | _ -> false
  in
  Client.close dribbler;
  Client.close fast;
  drain env pid;
  {
    phase = "slowloris";
    fields =
      [
        ("fast_ok", Exec.Artifact.Int !fast_ok);
        ("fast_total", Exec.Artifact.Int 11);
        ("dribbler_dropped", Exec.Artifact.Bool dropped);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Phase 4: fd exhaustion around the accept loop *)

let fd_exhaustion_phase env =
  let pid = start_daemon ~fd_limit:32 env in
  let _ = wait_ready env in
  (* a herd of idle connections: with ~32 fds the daemon hits EMFILE
     partway through accepting these *)
  let herd = ref [] in
  let opened = ref 0 in
  (try
     for _ = 1 to 64 do
       let cl = Client.connect ~timeout_s:1. env.socket in
       herd := cl :: !herd;
       incr opened
     done
   with Unix.Unix_error _ | Sys_error _ -> ());
  Unix.sleepf 0.3 (* let the accept loop hit EMFILE and start pausing *);
  (* the herd leaves; the paused listener must come back on its own *)
  List.iter Client.close !herd;
  let health_after =
    let t0 = now () in
    let rec go () =
      if now () -. t0 > 10. then false
      else
        match Client.connect ~timeout_s:1. env.socket with
        | cl ->
          let ok =
            match Client.request cl P.Health with
            | Ok (P.Health_report _) -> true
            | _ -> false
          in
          Client.close cl;
          if ok then true
          else begin
            Unix.sleepf 0.05;
            go ()
          end
        | exception (Unix.Unix_error _ | Sys_error _) ->
          Unix.sleepf 0.05;
          go ()
    in
    go ()
  in
  drain env pid;
  {
    phase = "fd_exhaustion";
    fields =
      [
        ("fd_limit", Exec.Artifact.Int 32);
        ("herd_opened", Exec.Artifact.Int !opened);
        ("recovered_without_restart", Exec.Artifact.Bool health_after);
      ];
  }

(* ------------------------------------------------------------------ *)

let all ?(kills = 2) () =
  Format.printf "@.== crash-recovery chaos sweep (%d kill points) ==@." kills;
  Format.printf "daemon binary: %s@." (bin ());
  let t0 = now () in
  let rows = ref [] in
  for i = 0 to kills - 1 do
    let env = fresh_env (Printf.sprintf "kill%d" i) in
    let r = kill_under_load_phase ~index:i env in
    pp_row r;
    rows := r :: !rows
  done;
  let torn = torn_files_phase (fresh_env "torn") in
  pp_row torn;
  let slow = slowloris_phase (fresh_env "slow") in
  pp_row slow;
  let fd = fd_exhaustion_phase (fresh_env "fd") in
  pp_row fd;
  rows := fd :: slow :: torn :: !rows;
  let rows = List.rev !rows in
  let wall = now () -. t0 in
  Exec.Artifact.write_json ~path:"BENCH_recovery.json"
    (Exec.Artifact.Obj
       [
         ("sweep", Exec.Artifact.String "recovery");
         ("wall_s", Exec.Artifact.Float wall);
         ("rows", Exec.Artifact.List (List.map json_row rows));
       ]);
  Format.printf "BENCH_recovery.json written (%.1f s)@." wall
