module Graph = Graphs.Graph

type event =
  | Crash of { round : int; node : int }
  | Edge_kill of { round : int; u : int; v : int }

let pp_event ppf = function
  | Crash { round; node } ->
    Format.fprintf ppf "round %d: node %d crashed" round node
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

(* Schedules and reports hold int pairs; order them without caml_compare.
   Ordering matches polymorphic compare on (int * int). *)
let compare_pair (a1, b1) (a2, b2) =
  match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c

module Nodes = Set.Make (Int)

module Edges = Set.Make (struct
  type t = int * int

  let compare = compare_pair
end)

(* What the adversary decides from, as one value: [on_round_start]
   replaces it between rounds (the send walk only reads it),
   [save] keeps it, [reset] restores the creation one. *)
type state = {
  round : int;
  greedy_left : int;
  crashed : Nodes.t;
  killed : Edges.t;
  pending_crash : (int * int) list; (* sorted by round *)
  pending_kill : (int * (int * int)) list; (* sorted by round *)
  events : event list; (* reverse chronological *)
}

type t = {
  seed : int;
  p_drop : float;
  greedy : (int * int * int) option; (* budget, period, from_round *)
  storm : (int * int * int * int) option;
      (* from_round, per_round, storm_rounds, universe *)
  initial : state;
  mutable st : state;
  mutable traffic : int array;
      (* greedy only: cumulative words per directed edge, at
         [2 * edge + (src > dst)]; written only for that direction *)
}

let norm (u, v) = (min u v, max u v)

(* The 32-bit murmur3 hash of [seed; stream; round; a; b], top 30 bits:
   every random fault decision is this pure function of its inputs, so
   it is the same in whatever order the net asks. *)
let mask32 x = x land 0xFFFF_FFFF
let rotl32 x r = mask32 ((x lsl r) lor (x lsr (32 - r)))

let block h k =
  let k = rotl32 (mask32 (mask32 k * 0xcc9e2d51)) 15 in
  let h = rotl32 (h lxor mask32 (k * 0x1b873593)) 13 in
  mask32 ((h * 5) + 0xe6546b64)

let fmix32 h =
  let h = mask32 ((h lxor (h lsr 16)) * 0x85ebca6b) in
  let h = mask32 ((h lxor (h lsr 13)) * 0xc2b2ae35) in
  h lxor (h lsr 16)

let hash30 t ~stream ~round a b =
  let h = block (block (block (block (block 0 t.seed) stream) round) a) b in
  fmix32 (h lxor 20) lsr 2

let drop_stream = 1
let storm_stream = 2

let create ?(seed = 42) specs =
  let p_drop =
    List.fold_left
      (fun acc -> function
        | Drop_bernoulli p ->
          if not (p >= 0. && p <= 1.) then
            invalid_arg "Faults.create: drop probability outside [0,1]";
          1. -. ((1. -. acc) *. (1. -. p))
        | _ -> acc)
      0. specs
  in
  let pending_crash =
    List.concat_map (function Crash_at l -> l | _ -> []) specs
    |> List.sort compare_pair
  in
  let pending_kill =
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
  let initial =
    {
      round = 0;
      greedy_left = (match greedy with Some (b, _, _) -> b | None -> 0);
      crashed = Nodes.empty;
      killed = Edges.empty;
      pending_crash;
      pending_kill;
      events = [];
    }
  in
  {
    seed;
    p_drop;
    greedy;
    storm;
    initial;
    st = initial;
    traffic = [||];
  }

let none () = create []

(* Rewind the adversary to its creation state. With [reset] between two
   runs of the same protocol from the same seed, the adversary re-makes
   exactly the same decisions — the contract Net.replay_check relies
   on. *)
let reset t =
  t.st <- t.initial;
  Array.fill t.traffic 0 (Array.length t.traffic) 0

let crash st ~round node =
  if Nodes.mem node st.crashed then st
  else
    {
      st with
      crashed = Nodes.add node st.crashed;
      events = Crash { round; node } :: st.events;
    }

let kill_edge st ~round e =
  let ((u, v) as e) = norm e in
  if Edges.mem e st.killed then st
  else
    {
      st with
      killed = Edges.add e st.killed;
      events = Edge_kill { round; u; v } :: st.events;
    }

(* The live edge that has carried the most words, both directions
   summed (an edge that carried none is never picked); ties go to the
   smaller edge id, i.e. the lexicographically smaller endpoint pair. *)
let hottest_live_edge t g killed =
  let best = ref None and best_w = ref 0 in
  for e = 0 to Graph.m g - 1 do
    let w = t.traffic.(2 * e) + t.traffic.((2 * e) + 1) in
    let uv = Graph.edge_endpoints g e in
    if w > !best_w && not (Edges.mem uv killed) then begin
      best := Some uv;
      best_w := w
    end
  done;
  !best

(* [g] is the graph of the net the adversary is installed on *)
let on_round_start t g r =
  let rec fire f st = function
    | (rc, x) :: rest when rc <= r -> fire f (f st ~round:r x) rest
    | rest -> (st, rest)
  in
  let st, pending_crash = fire crash t.st t.st.pending_crash in
  let st, pending_kill = fire kill_edge st st.pending_kill in
  let st = { st with round = r; pending_crash; pending_kill } in
  let st =
    match t.storm with
    | Some (from_round, per_round, storm_rounds, universe)
      when r >= from_round && r < from_round + storm_rounds ->
      (* victim j of round r is a hash of (seed, r, j) scaled onto the
         universe; a victim already dead is a no-op, so a storm round
         crashes at most [per_round] fresh nodes *)
      List.init per_round (fun j ->
          (hash30 t ~stream:storm_stream ~round:r (j + 1) 0 * universe) lsr 30)
      |> List.fold_left (fun st v -> crash st ~round:r v) st
    | _ -> st
  in
  t.st <-
    (match t.greedy with
    | Some (_, period, from_round)
      when r >= from_round
           && (r - from_round) mod period = 0
           && st.greedy_left > 0 -> (
      match hottest_live_edge t g st.killed with
      | Some e ->
        kill_edge { st with greedy_left = st.greedy_left - 1 } ~round:r e
      | None -> st)
    | _ -> st)

let alive t u = not (Nodes.mem u t.st.crashed)

(* Pure in the round's state: a copy is lost if its receiver crashed,
   its edge was killed, or its drop hash (seed, round, src, dst) falls
   below the drop probability. *)
let deliver t ~src ~dst ~edge (m : Net.msg) =
  if t.greedy <> None then begin
    let d = (2 * edge) + Bool.to_int (src > dst) in
    t.traffic.(d) <- t.traffic.(d) + Array.length m
  end;
  alive t dst
  && (not (Edges.mem (norm (src, dst)) t.st.killed))
  && not
       (t.p_drop > 0.
       && float_of_int (hash30 t ~stream:drop_stream ~round:t.st.round src dst)
          < t.p_drop *. 0x1p30)

(* The state is a value and only the traffic counts are mutated in
   place, so a snapshot is the state plus a copy of the counts. A
   restored adversary re-makes exactly the decisions it made after the
   snapshot, which is what lets Net.rollback discard a poisoned region
   and re-execute it deterministically. *)
let save t =
  let st = t.st and traffic = Array.copy t.traffic in
  fun () ->
    t.st <- st;
    t.traffic <- Array.copy traffic

let hook g t =
  if t.greedy <> None && Array.length t.traffic <> 2 * Graph.m g then
    t.traffic <- Array.make (2 * Graph.m g) 0;
  {
    Net.on_round_start = on_round_start t g;
    node_alive = alive t;
    deliver = (fun ~src ~dst ~edge m -> deliver t ~src ~dst ~edge m);
    reset = (fun () -> reset t);
    save = (fun () -> save t);
  }

let install net t = Net.install_faults net (hook (Net.graph net) t)

let uninstall net = Net.clear_faults net
let crashed t u = not (alive t u)
let crashed_nodes t = Nodes.elements t.st.crashed
let killed_edges t = Edges.elements t.st.killed
let edge_killed t (u, v) = Edges.mem (norm (u, v)) t.st.killed
let events t = List.rev t.st.events
let crashes t = Nodes.cardinal t.st.crashed
let edges_killed t = Edges.cardinal t.st.killed

let pp_summary net ppf t =
  Format.fprintf ppf
    "faults: %d crash(es), %d edge kill(s), %d drop(s), %d words lost"
    (crashes t) (edges_killed t) (Net.messages_lost net) (Net.words_lost net)
