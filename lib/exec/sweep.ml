type item = Text of string | Job of Job.t

let text fmt = Format.kasprintf (fun s -> Text s) fmt

type stats = {
  name : string;
  jobs : int;
  ok : int;
  failed : int;
  domains : int;
  wall_s : float;
  cpu_s : float;
  speedup_est : float;
  utilization : float array;
  rows_digest : string;
}

let default_jobs = Pool.default_domains

(* Throttled stderr meter; returns a Pool.on_progress callback. The
   clock read is display-only (lib/exec is scope-exempt from
   nondet-clock — nothing here feeds back into job payloads). *)
let stderr_meter ~name () =
  let last = ref 0. in
  fun (p : Pool.progress) ->
    let due = p.Pool.p_elapsed_s -. !last >= 0.5 || p.Pool.p_done = p.Pool.p_total in
    if due then begin
      last := p.Pool.p_elapsed_s;
      let util =
        if Array.length p.Pool.p_utilization = 0 then 0.
        else
          Array.fold_left ( +. ) 0. p.Pool.p_utilization
          /. float_of_int (Array.length p.Pool.p_utilization)
      in
      Printf.eprintf "\r[%s] %d/%d jobs  elapsed %.1fs  eta %.1fs  util %3.0f%%%s"
        name p.Pool.p_done p.Pool.p_total p.Pool.p_elapsed_s p.Pool.p_eta_s
        (100. *. util)
        (if p.Pool.p_done = p.Pool.p_total then "\n" else "");
      flush stderr
    end

let run ~name ?jobs ?csv ?csv_header ?bench_json ?progress items =
  let domains =
    match jobs with Some j -> max 1 j | None -> default_jobs ()
  in
  let grid =
    List.filter_map (function Job j -> Some j | Text _ -> None) items
    |> Array.of_list
  in
  let total = Array.length grid in
  let tasks = Array.map (fun job () -> Job.run job) grid in
  let progress =
    match progress with Some b -> b | None -> total > 1
  in
  let on_progress = if progress then Some (stderr_meter ~name ()) else None in
  let report = Pool.run ~domains ?on_progress tasks in
  (* Render the document in item order, mirroring every byte into the
     digest buffer: text items, each payload's [out] and [rows], and
     failure lines. The digest is the sweep's document identity, what CI
     compares across -j N runs; it must not be vacuous for sweeps whose
     jobs emit no CSV rows (digesting only the rows would report the MD5
     of the empty string for a rows-free sweep). *)
  let doc = Buffer.create 4096 in
  let csv_lines = ref [] in
  let idx = ref 0 in
  let outcomes = ref [] in
  List.iter
    (fun item ->
      match item with
      | Text s ->
        print_string s;
        Buffer.add_string doc s
      | Job job ->
        let i = !idx in
        incr idx;
        let outcome = report.Pool.results.(i) in
        outcomes := (Job.label job, outcome) :: !outcomes;
        (match outcome with
        | `Ok p ->
          print_string p.Job.out;
          Buffer.add_string doc p.Job.out;
          List.iter
            (fun r ->
              Buffer.add_string doc r;
              Buffer.add_char doc '\n';
              csv_lines := r :: !csv_lines)
            p.Job.rows
        | `Failed msg ->
          Format.printf "FAILED %s: %s@." (Job.label job) msg;
          Buffer.add_string doc (Printf.sprintf "FAILED %s: %s\n" (Job.label job) msg)))
    items;
  flush stdout;
  let outcomes = List.rev !outcomes in
  (* CSV artifact, atomic *)
  (match (csv, csv_header) with
  | Some path, Some header ->
    Artifact.with_csv ~path ~header (fun emit ->
        List.iter emit (List.rev !csv_lines))
  | Some path, None ->
    Artifact.with_file ~path (fun emit ->
        List.iter emit (List.rev !csv_lines))
  | None, _ -> ());
  let failed =
    Array.fold_left
      (fun a -> function `Failed _ -> a + 1 | `Ok _ -> a)
      0 report.Pool.results
  in
  let cpu_s = Array.fold_left ( +. ) 0. report.Pool.busy_s in
  let wall = report.Pool.wall_s in
  let stats =
    {
      name;
      jobs = total;
      ok = total - failed;
      failed;
      domains;
      wall_s = wall;
      cpu_s;
      speedup_est = (if wall > 0. then cpu_s /. wall else 1.);
      utilization =
        Array.map
          (fun b -> if wall > 0. then b /. wall else 0.)
          report.Pool.busy_s;
      rows_digest = Digest.to_hex (Digest.string (Buffer.contents doc));
    }
  in
  (match bench_json with
  | None -> ()
  | Some path ->
    let open Artifact in
    write_json ~path
      (Obj
         [
           ("sweep", String stats.name);
           ("jobs", Int stats.jobs);
           ("ok", Int stats.ok);
           ("failed", Int stats.failed);
           ("domains", Int stats.domains);
           ("wall_s", Float stats.wall_s);
           ("cpu_s", Float stats.cpu_s);
           ("speedup_vs_j1_est", Float stats.speedup_est);
           ( "utilization",
             List
               (Array.to_list
                  (Array.map (fun u -> Float u) stats.utilization)) );
           ("rows_digest", String stats.rows_digest);
         ]));
  (stats, outcomes)
