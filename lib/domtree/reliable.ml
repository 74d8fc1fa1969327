module Graph = Graphs.Graph
module Net = Congest.Net

type policy = [ `Retry | `Repair ]

type attempt = {
  attempt_seed : int;
  outcome : Tester.outcome;
  attempt_rounds : int;
  repaired : bool;
}

type result = {
  packing : Cds_packing.t;
  memberships : int list array;
  attempts : attempt list;
  verified : bool;
  retries : int;
  rounds_charged : int;
  budget_exhausted : bool;
  repair : Repair.t option;
  certificate : Certificate.t;
  degraded : bool;
  classes_retained : int;
}

let default_max_retries = 4
let default_backoff attempt = 1 lsl attempt

(* fresh, decorrelated seed per attempt *)
let reseed seed attempt = seed + (1_000_003 * attempt)

(* Restrict [memberships] to [retained] classes, renumbered
   contiguously — the shape the Tester needs to re-verify a degraded
   packing. *)
let remap ~classes retained memberships =
  let idx = Array.make (max 1 classes) (-1) in
  List.iteri
    (fun j i -> if i >= 0 && i < classes then idx.(i) <- j)
    retained;
  fun r ->
    List.filter_map
      (fun i ->
        if i >= 0 && i < classes && idx.(i) >= 0 then Some idx.(i) else None)
      memberships.(r)

let snapshot_memberships ~live n memfn =
  Array.init n (fun r ->
      if live r then List.sort_uniq Int.compare (memfn r) else [])

(* The one ladder: pack, test, optionally repair and retest inside the
   side's region, then retry after the backoff or stop. *)
let run ?(seed = 42) ?(max_retries = default_max_retries)
    ?(policy = (`Retry : policy)) ?round_budget ?k (side : Side.t) ~classes
    ~layers =
  let g = Comm.graph side.side and live = side.live in
  let n = Graph.n g in
  let k = match k with Some k -> k | None -> 3 * classes in
  let test ~seed ~memberships ~classes =
    Tester.run_on side.side ~seed ~live ~memberships ~classes
      ~detection_rounds:(Tester.default_detection_rounds ~n)
  in
  let rec go attempt acc =
    let a_start = side.charged () in
    let s = reseed seed attempt in
    let res =
      Cds_packing.run_on side.side ~seed:s ~jumpstart:(layers / 2) ~classes
        ~layers
    in
    let memfn = Array.get (Cds_packing.real_classes res) in
    let outcome = test ~seed:s ~memberships:memfn ~classes in
    let record ~repaired outcome =
      let attempt_rounds = side.charged () - a_start in
      { attempt_seed = s; outcome; attempt_rounds; repaired } :: acc
    in
    let stop ?(budget_exhausted = false) ~verified ~repaired ~outcome
        ~memberships repair =
      let certificate =
        Certificate.build ~live g ~memberships:(Array.get memberships) ~classes
          ~k
      in
      {
        packing = res;
        memberships;
        attempts = List.rev (record ~repaired outcome);
        verified;
        retries = attempt;
        rounds_charged = side.charged ();
        budget_exhausted;
        repair;
        certificate;
        degraded = Certificate.degraded certificate;
        classes_retained = Certificate.retained_count certificate;
      }
    in
    if outcome.Tester.pass then
      stop ~verified:true ~repaired:false ~outcome
        ~memberships:(snapshot_memberships ~live n memfn)
        None
    else
      let repair_win =
        match policy with
        | `Retry -> None
        | `Repair ->
          (* a repaired packing that still fails verification poisons
             its region: the side rolls it back and the ladder falls
             through to a reseeded retry, as if the repair had never
             run; its rounds stay charged *)
          side.region (fun () ->
              let rep =
                Repair.run_on side.side ~live ~memberships:memfn ~classes
              in
              match rep.Repair.r_retained with
              | [] -> None
              | retained ->
                let o =
                  test ~seed:(s + 7919)
                    ~memberships:
                      (remap ~classes retained rep.Repair.r_memberships)
                    ~classes:(List.length retained)
                in
                if o.Tester.pass then Some (rep, o) else None)
      in
      match repair_win with
      | Some (rep, o) ->
        stop ~verified:true ~repaired:true ~outcome:o
          ~memberships:rep.Repair.r_memberships (Some rep)
      | None ->
        let repaired = policy = `Repair in
        (* a deadline-derived round budget truncates the ladder: once
           the rounds charged (plus the backoff the next retry would
           cost) reach the budget, stop and report the exhaustion
           instead of overrunning the caller's deadline *)
        let budget_hit =
          match round_budget with
          | None -> false
          | Some b -> side.charged () + default_backoff attempt >= b
        in
        if attempt >= max_retries || budget_hit then
          stop ~budget_exhausted:budget_hit ~verified:false ~repaired ~outcome
            ~memberships:(snapshot_memberships ~live n memfn)
            None
        else begin
          let acc = record ~repaired outcome in
          (* round-charged backoff: the network idles before retrying,
             so the cost of flaky decompositions is visible on the
             clock *)
          side.idle (default_backoff attempt);
          go (attempt + 1) acc
        end
  in
  go 0 []

let run_verified ?seed ?max_retries ?policy ?live ?k g ~classes ~layers =
  run ?seed ?max_retries ?policy ?k (Side.central ?live g) ~classes ~layers

let pack_verified ?seed ?max_retries ?policy g ~k =
  run_verified ?seed ?max_retries ?policy ~k g
    ~classes:(Cds_packing.default_classes ~k)
    ~layers:(Cds_packing.default_layers ~n:(Graph.n g))

let run_verified_distributed ?seed ?max_retries ?policy ?round_budget ?k net
    ~classes ~layers =
  run ?seed ?max_retries ?policy ?round_budget ?k (Side.distributed net)
    ~classes ~layers

let pack_verified_distributed ?seed ?max_retries ?policy ?round_budget net ~k =
  run_verified_distributed ?seed ?max_retries ?policy ?round_budget ~k net
    ~classes:(Cds_packing.default_classes ~k)
    ~layers:(Cds_packing.default_layers ~n:(Net.n net))
