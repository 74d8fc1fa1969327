type 'a outcome = [ `Ok of 'a | `Failed of string ]

type progress = {
  p_done : int;
  p_total : int;
  p_elapsed_s : float;
  p_eta_s : float;
  p_utilization : float array;
}

type 'a report = {
  results : 'a outcome array;
  wall_s : float;
  busy_s : float array;
}

let default_domains () = max 1 (Domain.recommended_domain_count () - 1)
let now () = Unix.gettimeofday ()

(* Instrument lookups happen once per [run] (they take the registry
   mutex); the per-task path is Atomic-only and shared across domains. *)
type pool_obs = {
  po_jobs : Obs.Metrics.counter;
  po_failed : Obs.Metrics.counter;
  po_steals : Obs.Metrics.counter;
}

let make_obs metrics =
  {
    po_jobs = Obs.Metrics.counter metrics "exec_jobs_total";
    po_failed = Obs.Metrics.counter metrics "exec_jobs_failed_total";
    po_steals = Obs.Metrics.counter metrics "exec_steals_total";
  }

let run ?domains ?metrics ?on_progress tasks =
  let total = Array.length tasks in
  let obs = Option.map make_obs metrics in
  let domains =
    let d = match domains with Some d -> max 1 d | None -> default_domains () in
    (* never park idle domains on a short grid *)
    max 1 (min d (max 1 total))
  in
  let results : 'a outcome array = Array.make total (`Failed "never ran") in
  let next = Atomic.make 0 in
  let completed = Atomic.make 0 in
  let busy_s = Array.make domains 0. in
  let progress_mu = Mutex.create () in
  let t0 = now () in
  let notify () =
    match on_progress with
    | None -> ()
    | Some f ->
      Mutex.protect progress_mu (fun () ->
          let done_ = Atomic.get completed in
          let elapsed = now () -. t0 in
          let eta =
            if done_ = 0 then 0.
            else elapsed /. float_of_int done_ *. float_of_int (total - done_)
          in
          let util =
            Array.map
              (fun b -> if elapsed <= 0. then 0. else b /. elapsed)
              busy_s
          in
          f
            {
              p_done = done_;
              p_total = total;
              p_elapsed_s = elapsed;
              p_eta_s = eta;
              p_utilization = util;
            })
  in
  (* Each domain claims the next unclaimed task index; distinct indices
     mean distinct result slots, so slot writes never race. *)
  let worker d =
    let continue = ref true in
    while !continue do
      let i = Atomic.fetch_and_add next 1 in
      if i >= total then continue := false
      else begin
        let start = now () in
        let r =
          try `Ok (tasks.(i) ())
          with e -> `Failed (Printexc.to_string e)
        in
        busy_s.(d) <- busy_s.(d) +. (now () -. start);
        results.(i) <- r;
        (match obs with
        | None -> ()
        | Some o ->
          Obs.Metrics.incr o.po_jobs;
          (match r with
          | `Failed _ -> Obs.Metrics.incr o.po_failed
          | `Ok _ -> ());
          (* a claim by any domain other than the caller's is a steal
             off the shared counter *)
          if d > 0 then Obs.Metrics.incr o.po_steals);
        Atomic.incr completed;
        notify ()
      end
    done
  in
  if domains = 1 then worker 0
  else begin
    let spawned =
      Array.init (domains - 1) (fun d -> Domain.spawn (fun () -> worker (d + 1)))
    in
    worker 0;
    Array.iter Domain.join spawned
  end;
  { results; wall_s = now () -. t0; busy_s }
