type event =
  | Crash of { round : int; node : int }
  | Drop of { round : int; src : int; dst : int; words : int }
  | Edge_kill of { round : int; u : int; v : int }

let pp_event ppf = function
  | Crash { round; node } ->
    Format.fprintf ppf "round %d: node %d crashed" round node
  | Drop { round; src; dst; words } ->
    Format.fprintf ppf "round %d: dropped %d words on (%d,%d)" round words src
      dst
  | Edge_kill { round; u; v } ->
    Format.fprintf ppf "round %d: edge (%d,%d) killed" round u v

type spec =
  | Crash_at of (int * int) list
  | Drop_bernoulli of float
  | Kill_edges_at of (int * (int * int)) list
  | Greedy_edge_kill of { budget : int; period : int; from_round : int }
  | Crash_storm of {
      from_round : int;
      per_round : int;
      storm_rounds : int;
      universe : int;
    }

type t = {
  seed : int;
  mutable rng : Random.State.t;
  p_drop : float;
  crash_sched : (int * int) list; (* sorted by round *)
  kill_sched : (int * (int * int)) list; (* sorted by round *)
  greedy : (int * int * int) option; (* budget, period, from_round *)
  storm : (int * int * int * int) option;
      (* from_round, per_round, storm_rounds, universe *)
  mutable greedy_left : int;
  mutable round : int;
  crashed : (int, unit) Hashtbl.t;
  killed : (int * int, unit) Hashtbl.t;
  traffic : (int * int, int) Hashtbl.t; (* cumulative words per edge *)
  mutable pending_crash : (int * int) list;
  mutable pending_kill : (int * (int * int)) list;
  mutable events : event list; (* reverse chronological *)
  mutable drops : int;
  mutable words_lost : int;
}

let norm (u, v) = (min u v, max u v)

(* Schedules and reports hold int pairs; order them without caml_compare.
   Ordering matches polymorphic compare on (int * int). *)
let compare_pair (a1, b1) (a2, b2) =
  match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c

let create ?(seed = 42) specs =
  let p_drop =
    List.fold_left
      (fun acc -> function
        | Drop_bernoulli p ->
          if p < 0. || p > 1. then
            invalid_arg "Faults.create: drop probability outside [0,1]";
          1. -. ((1. -. acc) *. (1. -. p))
        | _ -> acc)
      0. specs
  in
  let crash_sched =
    List.concat_map (function Crash_at l -> l | _ -> []) specs
    |> List.sort compare_pair
  in
  let kill_sched =
    List.concat_map (function Kill_edges_at l -> l | _ -> []) specs
    |> List.map (fun (r, e) -> (r, norm e))
    |> List.sort (fun (r1, e1) (r2, e2) ->
           match Int.compare r1 r2 with 0 -> compare_pair e1 e2 | c -> c)
  in
  let greedy =
    List.fold_left
      (fun acc -> function
        | Greedy_edge_kill { budget; period; from_round } ->
          Some (budget, max 1 period, from_round)
        | _ -> acc)
      None specs
  in
  let storm =
    List.fold_left
      (fun acc -> function
        | Crash_storm { from_round; per_round; storm_rounds; universe } ->
          if per_round < 0 then
            invalid_arg "Faults.create: negative storm intensity";
          if storm_rounds < 0 then
            invalid_arg "Faults.create: negative storm duration";
          if universe < 1 then
            invalid_arg "Faults.create: storm universe must be positive";
          Some (from_round, per_round, storm_rounds, universe)
        | _ -> acc)
      None specs
  in
  {
    seed;
    rng = Random.State.make [| seed; 0x0FA17 |];
    p_drop;
    crash_sched;
    kill_sched;
    greedy;
    storm;
    greedy_left = (match greedy with Some (b, _, _) -> b | None -> 0);
    round = 0;
    crashed = Hashtbl.create 8;
    killed = Hashtbl.create 8;
    traffic = Hashtbl.create 64;
    pending_crash = crash_sched;
    pending_kill = kill_sched;
    events = [];
    drops = 0;
    words_lost = 0;
  }

let none () = create []

(* Rewind the adversary to its creation state: reseed the drop RNG,
   revive crashed nodes and killed edges, restore the greedy budget, and
   clear the observed-traffic table and telemetry. With [reset] between
   two runs of the same protocol from the same seed, the adversary
   re-makes exactly the same decisions — the contract Net.replay_check
   relies on. *)
let reset t =
  t.rng <- Random.State.make [| t.seed; 0x0FA17 |];
  t.greedy_left <- (match t.greedy with Some (b, _, _) -> b | None -> 0);
  t.round <- 0;
  Hashtbl.reset t.crashed;
  Hashtbl.reset t.killed;
  Hashtbl.reset t.traffic;
  t.pending_crash <- t.crash_sched;
  t.pending_kill <- t.kill_sched;
  t.events <- [];
  t.drops <- 0;
  t.words_lost <- 0

let record t ev = t.events <- ev :: t.events

let crash t ~round node =
  if not (Hashtbl.mem t.crashed node) then begin
    Hashtbl.replace t.crashed node ();
    record t (Crash { round; node })
  end

let kill_edge t ~round e =
  let e = norm e in
  if not (Hashtbl.mem t.killed e) then begin
    Hashtbl.replace t.killed e ();
    record t (Edge_kill { round; u = fst e; v = snd e })
  end

let hottest_live_edge t =
  (* lint: allow hashtbl-order — commutative max with a total-order
     tie-break on the edge id, so the winner is iteration-order-free *)
  Hashtbl.fold
    (fun e w best ->
      if Hashtbl.mem t.killed e then best
      else
        match best with
        | None -> Some (e, w)
        | Some (be, bw) ->
          (* deterministic tie-break on the smaller edge id *)
          if w > bw || (w = bw && compare_pair e be < 0) then Some (e, w)
          else best)
    t.traffic None

let on_round_start t r =
  t.round <- r;
  let rec fire_crashes = function
    | (rc, node) :: rest when rc <= r ->
      crash t ~round:r node;
      fire_crashes rest
    | rest -> rest
  in
  t.pending_crash <- fire_crashes t.pending_crash;
  let rec fire_kills = function
    | (rc, e) :: rest when rc <= r ->
      kill_edge t ~round:r e;
      fire_kills rest
    | rest -> rest
  in
  t.pending_kill <- fire_kills t.pending_kill;
  (match t.storm with
  | Some (from_round, per_round, storm_rounds, universe)
    when r >= from_round && r < from_round + storm_rounds ->
    (* [per_round] seeded draws over the universe; redrawing an already
       crashed victim is a no-op, so a storm round crashes at most
       [per_round] fresh nodes *)
    for _ = 1 to per_round do
      crash t ~round:r (Random.State.int t.rng universe)
    done
  | _ -> ());
  match t.greedy with
  | Some (_, period, from_round)
    when r >= from_round
         && (r - from_round) mod period = 0
         && t.greedy_left > 0 -> (
    match hottest_live_edge t with
    | Some (e, _) ->
      t.greedy_left <- t.greedy_left - 1;
      kill_edge t ~round:r e
    | None -> ())
  | _ -> ()

let node_alive t u = not (Hashtbl.mem t.crashed u)

let lose t ~src ~dst ~words ~noted =
  t.drops <- t.drops + 1;
  t.words_lost <- t.words_lost + words;
  if noted then record t (Drop { round = t.round; src; dst; words })

let deliver t ~src ~dst (m : Net.msg) =
  let words = Array.length m in
  let e = norm (src, dst) in
  (* the greedy killer targets the busiest edge it has observed *)
  if t.greedy <> None then
    Hashtbl.replace t.traffic e
      (words + Option.value ~default:0 (Hashtbl.find_opt t.traffic e));
  if Hashtbl.mem t.crashed dst then begin
    (* inbox of a crashed node is silenced: counted, not event-logged *)
    lose t ~src ~dst ~words ~noted:false;
    false
  end
  else if Hashtbl.mem t.killed e then begin
    lose t ~src ~dst ~words ~noted:true;
    false
  end
  else if t.p_drop > 0. && Random.State.float t.rng 1. < t.p_drop then begin
    lose t ~src ~dst ~words ~noted:true;
    false
  end
  else true

(* Refill [dst] with [src]'s bindings. Insertion order does not affect
   Hashtbl lookup/membership semantics, and every consumer of these
   tables canonicalizes (sorts) on read. *)
let refill dst src =
  Hashtbl.reset dst;
  (* lint: allow hashtbl-order — refill of a set-like table; consumers
     sort on read, so insertion order is unobservable *)
  Hashtbl.iter (fun k v -> Hashtbl.replace dst k v) src

(* Deep snapshot of the adversary's full state; the returned thunk
   restores it. A restored adversary re-makes exactly the decisions it
   made after the snapshot (same RNG state, same pending schedules, same
   greedy budget), which is what lets Net.rollback discard a poisoned
   region and re-execute it deterministically. *)
let save t =
  let rng = Random.State.copy t.rng in
  let greedy_left = t.greedy_left in
  let round = t.round in
  let crashed = Hashtbl.copy t.crashed in
  let killed = Hashtbl.copy t.killed in
  let traffic = Hashtbl.copy t.traffic in
  let pending_crash = t.pending_crash in
  let pending_kill = t.pending_kill in
  let events = t.events in
  let drops = t.drops in
  let words_lost = t.words_lost in
  fun () ->
    t.rng <- Random.State.copy rng;
    t.greedy_left <- greedy_left;
    t.round <- round;
    refill t.crashed crashed;
    refill t.killed killed;
    refill t.traffic traffic;
    t.pending_crash <- pending_crash;
    t.pending_kill <- pending_kill;
    t.events <- events;
    t.drops <- drops;
    t.words_lost <- words_lost

let hook t =
  {
    Net.on_round_start = on_round_start t;
    node_alive = node_alive t;
    deliver = (fun ~src ~dst m -> deliver t ~src ~dst m);
    reset = (fun () -> reset t);
    save = (fun () -> save t);
  }

let install net t = Net.install_faults net (hook t)
let uninstall net = Net.clear_faults net

let alive t u = node_alive t u
let crashed t u = Hashtbl.mem t.crashed u

let crashed_nodes t =
  Hashtbl.fold (fun u () acc -> u :: acc) t.crashed [] |> List.sort Int.compare

let killed_edges t =
  Hashtbl.fold (fun e () acc -> e :: acc) t.killed [] |> List.sort compare_pair

let edge_killed t (u, v) = Hashtbl.mem t.killed (norm (u, v))
let events t = List.rev t.events
let drops t = t.drops
let words_lost t = t.words_lost
let crashes t = Hashtbl.length t.crashed
let edges_killed t = Hashtbl.length t.killed

let pp_summary ppf t =
  Format.fprintf ppf
    "faults: %d crash(es), %d edge kill(s), %d drop(s), %d words lost"
    (crashes t) (edges_killed t) (drops t) (words_lost t)
