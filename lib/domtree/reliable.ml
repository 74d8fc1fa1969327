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

let memberships_of res =
  let per_real = Cds_packing.real_classes res in
  fun r -> per_real.(r)

(* Restrict [memfn] to [retained] classes, renumbered contiguously —
   the shape the Tester needs to re-verify a degraded packing. *)
let remap ~classes retained memfn =
  let idx = Array.make (max 1 classes) (-1) in
  List.iteri
    (fun j i -> if i >= 0 && i < classes then idx.(i) <- j)
    retained;
  fun r ->
    List.filter_map
      (fun i ->
        if i >= 0 && i < classes && idx.(i) >= 0 then Some idx.(i) else None)
      (memfn r)

let snapshot_memberships ~live n memfn =
  Array.init n (fun r ->
      if live r then List.sort_uniq Int.compare (memfn r) else [])

let finalize ~live ~k g ~classes ~packing ~memberships ~attempts ~retries
    ~rounds_charged ~repair ~verified ?(budget_exhausted = false) () =
  let memfn r = memberships.(r) in
  let certificate = Certificate.build ~live g ~memberships:memfn ~classes ~k in
  {
    packing;
    memberships;
    attempts = List.rev attempts;
    verified;
    retries;
    rounds_charged;
    budget_exhausted;
    repair;
    certificate;
    degraded = Certificate.degraded certificate;
    classes_retained = Certificate.retained_count certificate;
  }

(* ------------------------------------------------------------------ *)
(* Centralized pipeline *)

let run_verified ?(seed = 42) ?(max_retries = default_max_retries) ?jumpstart
    ?(policy = (`Retry : policy)) ?(live = fun _ -> true) ?k g ~classes ~layers
    =
  let n = Graph.n g in
  let k = match k with Some k -> k | None -> 3 * classes in
  let detection_rounds = Tester.default_detection_rounds ~n in
  let finalize = finalize ~live ~k g ~classes in
  let rec go attempt acc =
    let s = reseed seed attempt in
    let res = Cds_packing.run ~seed:s ?jumpstart g ~classes ~layers in
    let memfn = memberships_of res in
    let outcome =
      Tester.run_centralized ~seed:s ~live g ~memberships:memfn ~classes
        ~detection_rounds
    in
    let stop ~verified ~repaired ~outcome ~memberships ~repair acc =
      let acc =
        { attempt_seed = s; outcome; attempt_rounds = 0; repaired } :: acc
      in
      finalize ~packing:res ~memberships ~attempts:acc ~retries:attempt
        ~rounds_charged:0 ~repair ~verified ()
    in
    if outcome.Tester.pass then
      stop ~verified:true ~repaired:false ~outcome
        ~memberships:(snapshot_memberships ~live n memfn)
        ~repair:None acc
    else begin
      let repair_win =
        match policy with
        | `Retry -> None
        | `Repair -> (
          let rep = Repair.run_centralized ~live g ~memberships:memfn ~classes in
          match rep.Repair.r_retained with
          | [] -> None
          | retained ->
            let memfn' =
              remap ~classes retained (fun r -> rep.Repair.r_memberships.(r))
            in
            let o =
              Tester.run_centralized ~seed:(s + 7919) ~live g
                ~memberships:memfn'
                ~classes:(List.length retained)
                ~detection_rounds
            in
            if o.Tester.pass then Some (rep, o) else None)
      in
      match repair_win with
      | Some (rep, o) ->
        stop ~verified:true ~repaired:true ~outcome:o
          ~memberships:rep.Repair.r_memberships ~repair:(Some rep) acc
      | None ->
        if attempt >= max_retries then
          stop ~verified:false
            ~repaired:(policy = `Repair)
            ~outcome
            ~memberships:(snapshot_memberships ~live n memfn)
            ~repair:None acc
        else
          go (attempt + 1)
            ({
               attempt_seed = s;
               outcome;
               attempt_rounds = 0;
               repaired = policy = `Repair;
             }
            :: acc)
    end
  in
  go 0 []

let pack_verified ?seed ?max_retries ?policy g ~k =
  run_verified ?seed ?max_retries ?policy ~k g
    ~classes:(Cds_packing.default_classes ~k)
    ~layers:(Cds_packing.default_layers ~n:(Graph.n g))

(* ------------------------------------------------------------------ *)
(* Distributed pipeline *)

let run_verified_distributed ?(seed = 42) ?(max_retries = default_max_retries)
    ?(backoff = default_backoff) ?jumpstart ?(policy = (`Retry : policy))
    ?round_budget ?k net ~classes ~layers =
  let n = Net.n net in
  let k = match k with Some k -> k | None -> 3 * classes in
  let live r = Net.node_alive net r in
  let g = Net.graph net in
  let detection_rounds = Tester.default_detection_rounds ~n in
  let start = Net.checkpoint net in
  (* rounds consumed inside repair regions that were later rolled back;
     the rollback erases them from the clock, honest accounting adds
     them back *)
  let discarded_total = ref 0 in
  let finalize = finalize ~live ~k g ~classes in
  let rec go attempt acc =
    let a_start = Net.checkpoint net in
    let s = reseed seed attempt in
    let res = Dist_packing.run ~seed:s ?jumpstart net ~classes ~layers in
    let memfn = memberships_of res in
    let outcome =
      Tester.run_distributed ~seed:s ~live net ~memberships:memfn ~classes
        ~detection_rounds
    in
    let stop ?budget_exhausted ~verified ~repaired ~outcome ~memberships
        ~repair ~discarded acc =
      let attempt_rounds = Net.rounds_since net a_start + discarded in
      let acc =
        { attempt_seed = s; outcome; attempt_rounds; repaired } :: acc
      in
      finalize ?budget_exhausted ~packing:res ~memberships ~attempts:acc
        ~retries:attempt
        ~rounds_charged:(Net.rounds_since net start + !discarded_total)
        ~repair ~verified ()
    in
    if outcome.Tester.pass then
      stop ~verified:true ~repaired:false ~outcome
        ~memberships:(snapshot_memberships ~live n memfn)
        ~repair:None ~discarded:0 acc
    else begin
      let repair_win, repair_discarded =
        match policy with
        | `Retry -> (None, 0)
        | `Repair ->
          (* barrier before the repair region: if the repaired packing
             still fails verification the region is poisoned — roll it
             back (network counters, digests, adversary state) and fall
             through to a reseeded retry, exactly as if the repair had
             never run; its rounds are still charged. *)
          let b = Net.barrier net in
          let rep = Repair.run_distributed ~live net ~memberships:memfn ~classes in
          let retest =
            match rep.Repair.r_retained with
            | [] -> None
            | retained ->
              let memfn' =
                remap ~classes retained (fun r -> rep.Repair.r_memberships.(r))
              in
              Some
                ( rep,
                  Tester.run_distributed ~seed:(s + 7919) ~live net
                    ~memberships:memfn'
                    ~classes:(List.length retained)
                    ~detection_rounds )
          in
          (match retest with
          | Some (rep, o) when o.Tester.pass -> (Some (rep, o), 0)
          | _ ->
            let discarded = Net.discarded_since net b in
            discarded_total := !discarded_total + discarded;
            Net.rollback net b;
            (None, discarded))
      in
      match repair_win with
      | Some (rep, o) ->
        stop ~verified:true ~repaired:true ~outcome:o
          ~memberships:rep.Repair.r_memberships ~repair:(Some rep) ~discarded:0
          acc
      | None ->
        (* a deadline-derived round budget truncates the retry ladder:
           once the rounds already charged (plus the backoff the next
           retry would cost) reach the budget, stop here and report the
           exhaustion instead of overrunning the caller's deadline *)
        let budget_hit =
          match round_budget with
          | None -> false
          | Some b ->
            Net.rounds_since net start + !discarded_total + backoff attempt
            >= b
        in
        if attempt >= max_retries || budget_hit then
          stop ~budget_exhausted:budget_hit ~verified:false
            ~repaired:(policy = `Repair)
            ~outcome
            ~memberships:(snapshot_memberships ~live n memfn)
            ~repair:None ~discarded:repair_discarded acc
        else begin
          let attempt_rounds = Net.rounds_since net a_start + repair_discarded in
          let acc =
            {
              attempt_seed = s;
              outcome;
              attempt_rounds;
              repaired = policy = `Repair;
            }
            :: acc
          in
          (* round-charged backoff: the network idles before retrying,
             so the cost of flaky decompositions is visible on the
             clock *)
          Net.silent_rounds net (backoff attempt);
          go (attempt + 1) acc
        end
    end
  in
  go 0 []

let pack_verified_distributed ?seed ?max_retries ?backoff ?policy ?round_budget
    net ~k =
  run_verified_distributed ?seed ?max_retries ?backoff ?policy ?round_budget ~k
    net
    ~classes:(Cds_packing.default_classes ~k)
    ~layers:(Cds_packing.default_layers ~n:(Net.n net))
