(* Driver: hybrid parsetree + typedtree analysis over the repository.

   For every .ml under the given roots:

   - with .cmt coverage (dune's -bin-annot output, located under the
     --cmt-dir trees and matched by the compiler-recorded source path),
     the typedtree rules of Typed_lint carry the identifier-resolved
     rule families plus the race and message-budget detectors, and the
     parsetree pass keeps only what a typedtree cannot see (comments →
     allow auditing, attributes → silenced-warning, toplevel binding
     shapes → global-mutable-state, parse errors);
   - without coverage (executables whose .cmt dune does not install,
     e.g. bin/ and bench/main.ml), the full parsetree rule set applies
     as before — spelled-out effects are still caught, and the summary
     reports the coverage gap.

   "lint: allow" suppression is applied to the *merged* finding set per
   file, so one allow grammar serves both halves; the suppression
   auditor (unused-allow / bare-allow) rides on the merge. With
   --baseline, findings matching the baseline's per-(file, rule) budget
   are reported but do not fail the build; new ones do. --sarif writes
   the machine-readable report (always, including on failure, so CI can
   upload it). Run as `dune build @lint`. *)

(* Scoped rule exemptions. lib/exec is the experiment-execution engine:
   it is the one subsystem allowed to spawn domains (that is its job —
   the [domain-spawn] rule exists to keep Domain.spawn out of everywhere
   else) and to read the wall clock (progress/ETA/BENCH timing). Those
   readings reach only stderr meters and BENCH_*.json reports, which no
   byte-identity check compares, and never decide a job's result.
   Everything
   else in lib/exec (no global mutable state, no global Random, no
   Obj.magic, the race discipline on its own pool) is held to the same
   rules as the simulator. *)
let scoped_exemptions =
  [
    ("lib/exec/", [ "domain-spawn"; "nondet-clock" ]);
    (* lib/serve is the I/O boundary: deadlines and retry backoff are
       wall-clock phenomena by definition. The clock never reaches the
       algorithms — it is converted to deterministic budgets (CONGEST
       rounds, retry counts) before any computation starts, which is
       exactly the DESIGN.md §11 deadline→budget mapping. *)
    ("lib/serve/", [ "nondet-clock" ]);
    (* bench/ measures wall time — that is what a benchmark is. The
       measured numbers land only in BENCH_*.json reports and timing
       columns (E7's seconds), which no byte-identity check compares;
       the sweeps CI compares across -j N print no clock reading. *)
    ("bench/", [ "nondet-clock" ]);
  ]

(* Scope-restricted rules: enforced only inside the listed directories,
   exempt everywhere else. [polymorphic-compare] is a hot-path hygiene
   rule — caml_compare in the CSR graph core or the round engine undoes
   the flat-int-array design — but in cold analysis/reporting code a
   structural compare is harmless and often clearer. *)
let scoped_only =
  [
    ( "polymorphic-compare",
      [
        "lib/graph/"; "lib/congest/"; "lib/domtree/"; "lib/routing/";
        "lib/spantree/";
      ] );
  ]

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

let exemptions_for file =
  List.concat_map
    (fun (scope, rules) -> if contains ~sub:scope file then rules else [])
    scoped_exemptions
  @ List.filter_map
      (fun (rule, scopes) ->
        if List.exists (fun scope -> contains ~sub:scope file) scopes then None
        else Some rule)
      scoped_only

(* Rules whose typedtree port subsumes the parsetree version on any
   file with .cmt coverage. *)
let typed_covered =
  [
    "nondet-random"; "nondet-clock"; "nondet-hash"; "hashtbl-order";
    "obj-magic"; "physical-eq"; "domain-spawn"; "polymorphic-compare";
  ]

let rec gather_suffix ~suffix path acc =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.fold_left
         (fun acc entry ->
           if entry = "_build" || (String.length entry > 0 && entry.[0] = '.')
           then acc
           else gather_suffix ~suffix (Filename.concat path entry) acc)
         acc
  else if Filename.check_suffix path suffix then path :: acc
  else acc

let usage () =
  prerr_endline
    "usage: congest_lint [--cmt-dir DIR]... [--sarif FILE] [--baseline FILE] \
     [--update-baseline] [--no-typed] [ROOT]...";
  exit 2

type options = {
  cmt_dirs : string list;
  sarif : string option;
  baseline : string option;
  update_baseline : bool;
  typed : bool;
  roots : string list;
}

let parse_args argv =
  let rec go o = function
    | [] -> o
    | "--cmt-dir" :: dir :: rest -> go { o with cmt_dirs = o.cmt_dirs @ [ dir ] } rest
    | "--sarif" :: file :: rest -> go { o with sarif = Some file } rest
    | "--baseline" :: file :: rest -> go { o with baseline = Some file } rest
    | "--update-baseline" :: rest -> go { o with update_baseline = true } rest
    | "--no-typed" :: rest -> go { o with typed = false } rest
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' -> usage ()
    | root :: rest -> go { o with roots = o.roots @ [ root ] } rest
  in
  let o =
    go
      {
        cmt_dirs = [];
        sarif = None;
        baseline = None;
        update_baseline = false;
        typed = true;
        roots = [];
      }
      (List.tl (Array.to_list argv))
  in
  if o.roots = [] then { o with roots = [ "lib"; "bin"; "bench" ] } else o

let () =
  let o = parse_args Sys.argv in
  let files = List.concat_map (fun r -> List.rev (gather_suffix ~suffix:".ml" r [])) o.roots in
  if files = [] then begin
    Format.eprintf "congest-lint: no .ml files under %s@."
      (String.concat " " o.roots);
    exit 2
  end;
  (* index typedtrees by the compiler-recorded source path *)
  let units = Hashtbl.create 64 in
  if o.typed then
    List.iter
      (fun dir ->
        if Sys.file_exists dir then
          List.iter
            (fun cmt ->
              match Typed_lint.read_cmt cmt with
              | Some (source, modname, str) ->
                if not (Hashtbl.mem units source) then
                  Hashtbl.replace units source (modname, str)
              | None -> ())
            (List.rev (gather_suffix ~suffix:".cmt" dir [])))
      o.cmt_dirs;
  (* per-file: parse half + typed half, merged, then allows *)
  let analyzed =
    List.map
      (fun file ->
        let source = Lint_core.read_file file in
        let allows = Lint_core.scan_allows source in
        let parse_findings = Lint_core.check_structure ~file source in
        let covered = Hashtbl.mem units file in
        let unit_info =
          if covered then
            let modname, str = Hashtbl.find units file in
            Some (Typed_lint.analyze_unit ~file ~modname str)
          else None
        in
        let parse_kept =
          if covered then
            List.filter
              (fun (f : Lint_core.finding) ->
                not (List.mem f.Lint_core.rule typed_covered))
              parse_findings
          else parse_findings
        in
        (file, allows, parse_kept, unit_info))
      files
  in
  let infos = List.filter_map (fun (_, _, _, u) -> u) analyzed in
  let cross = Typed_lint.cross_findings infos in
  let findings, suppressed =
    List.fold_left
      (fun (acc, sup) (file, allows, parse_kept, unit_info) ->
        let typed_raw =
          match unit_info with
          | Some u -> u.Typed_lint.u_findings
          | None -> []
        in
        let cross_here =
          List.filter (fun (f : Lint_core.finding) -> f.Lint_core.file = file) cross
        in
        let exempt = exemptions_for file in
        let raw =
          parse_kept @ typed_raw @ cross_here
          |> List.filter (fun (f : Lint_core.finding) ->
                 not (List.mem f.Lint_core.rule exempt))
        in
        let kept, s = Lint_core.apply_allows ~file ~allows raw in
        (acc @ kept, sup + s))
      ([], 0) analyzed
  in
  let findings = List.sort_uniq Lint_core.compare_findings findings in
  (* baseline diff *)
  let base =
    match o.baseline with
    | Some path when Sys.file_exists path -> (
      match Baseline.load path with
      | Ok t -> t
      | Error e ->
        Format.eprintf "congest-lint: bad baseline: %s@." e;
        exit 2)
    | _ -> Baseline.empty ()
  in
  let diff = Baseline.diff base findings in
  (match (o.update_baseline, o.baseline) with
  | true, Some path ->
    Baseline.save path (Baseline.of_findings findings);
    Format.printf "congest-lint: baseline %s updated (%d finding(s))@." path
      (List.length findings)
  | true, None ->
    Format.eprintf "congest-lint: --update-baseline needs --baseline@.";
    exit 2
  | false, _ -> ());
  (* SARIF report — written even when findings fail the build, so CI
     uploads the evidence *)
  (match o.sarif with
  | Some path ->
    let baseline_state =
      if o.baseline = None then fun _ -> None
      else fun f -> Some (diff.Baseline.state f)
    in
    Sarif.write_file path ~rules:Lint_core.rules ~baseline_state findings
  | None -> ());
  List.iter
    (fun (f : Lint_core.finding) ->
      let tag =
        if o.baseline <> None && diff.Baseline.state f = "unchanged" then
          " (baseline)"
        else ""
      in
      Format.printf "%a%s@." Lint_core.pp_finding f tag)
    findings;
  List.iter
    (fun (file, rule, surplus) ->
      Format.printf
        "congest-lint: %d tracked [%s] finding(s) in %s resolved — run \
         --update-baseline to ratchet down@."
        surplus rule file)
    diff.Baseline.resolved;
  let covered = List.length infos in
  Format.printf
    "congest-lint: %d file(s) (%d with typedtree coverage), %d finding(s) \
     (%d new, %d baseline-tracked), %d suppressed by lint: allow@."
    (List.length files) covered (List.length findings) diff.Baseline.new_count
    diff.Baseline.tracked_count suppressed;
  if o.typed && covered = 0 then begin
    Format.eprintf
      "congest-lint: no .cmt coverage found under %s — typedtree rules did \
       not run; pass --cmt-dir or build the libraries first@."
      (String.concat " " o.cmt_dirs);
    exit 2
  end;
  if diff.Baseline.new_count > 0 then exit 1
