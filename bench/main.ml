(* Benchmark entry point:

     dune exec bench/main.exe -- [MODE] [SIZE...] [-j N]

   MODE is `tables` (the experiment tables E1..E15, DESIGN.md §3),
   `failures` / `chaos` (the fault sweeps), `perf` / `obs` (round-engine
   timing), `serve` / `recovery` (the daemon), or `all` (the default:
   tables, then the failure sweep). SIZE overrides a mode's scale for
   CI smokes, e.g. `failures 48 12`.

   `tables`, `failures`, `chaos` and `all` execute their grids on the
   lib/exec domain pool: `-j N` sets the worker domains (default:
   recommended_domain_count - 1), and every run recomputes every cell.
   Each sweep also writes a BENCH_<sweep>.json run report (wall clock,
   jobs, estimated speedup vs -j 1); see DESIGN.md §9. *)

open Cmdliner

let run mode sizes jobs =
  let size i default = Option.value (List.nth_opt sizes i) ~default in
  let first = List.nth_opt sizes 0 in
  match mode with
  | `Tables -> Sweeps.Experiments.all ?jobs ()
  | `Failures ->
    Sweeps.Failure_sweep.all ~n:(size 0 96) ~k:(size 1 24) ~csv:"failures.csv"
      ?jobs ()
  | `Chaos ->
    Sweeps.Chaos_sweep.all ~n:(size 0 48) ~k:(size 1 8) ~csv:"chaos.csv" ?jobs
      ()
  | `Perf -> Sweeps.Perf_sweep.all ?n_cap:first ?jobs ()
  | `Serve -> Sweeps.Serve_sweep.all ?requests:first ()
  (* `obs` is never parallel: it interleaves metrics-off and metrics-on
     runs. *)
  | `Obs -> Sweeps.Obs_sweep.all ?n:first ()
  | `Recovery -> Sweeps.Recovery_sweep.all ?kills:first ()
  | `All ->
    Sweeps.Experiments.all ?jobs ();
    Sweeps.Failure_sweep.all ?jobs ()

let mode_arg =
  let modes =
    [
      ("all", `All);
      ("tables", `Tables);
      ("failures", `Failures);
      ("chaos", `Chaos);
      ("perf", `Perf);
      ("serve", `Serve);
      ("recovery", `Recovery);
      ("obs", `Obs);
    ]
  in
  Arg.(value & pos 0 (enum modes) `All & info [] ~docv:"MODE"
         ~doc:(Printf.sprintf "Benchmark to run: %s." (doc_alts_enum modes)))

let sizes_arg =
  Arg.(value & pos_right 0 int [] & info [] ~docv:"SIZE"
         ~doc:"Scale overrides: $(b,failures)/$(b,chaos) take [n [k]], \
               $(b,perf) a size cap, $(b,serve) a request count, \
               $(b,recovery) a kill-point count, $(b,obs) a graph size.")

let jobs_arg =
  let positive =
    let parse s =
      match int_of_string_opt s with
      | Some j when j >= 1 -> Ok j
      | _ -> Error (`Msg (Printf.sprintf "expected an integer >= 1, got %S" s))
    in
    Arg.conv ~docv:"N" (parse, Format.pp_print_int)
  in
  Arg.(value & opt (some positive) None & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains (default: recommended domain count - 1).")

let () =
  let cmd =
    Cmd.v
      (Cmd.info "main.exe" ~doc:"Experiment tables and sweeps")
      Term.(const run $ mode_arg $ sizes_arg $ jobs_arg)
  in
  exit (Cmd.eval ~catch:false cmd)
