module Graph = Graphs.Graph
module Net = Congest.Net

type result = {
  estimate : int;
  guesses_tried : int;
  rounds : int;
}

(* Deterministic per-edge coin: both endpoints compute the same value
   from (min u v, max u v, seed, trial) — shared randomness without
   communication. A small 64-bit mix suffices here. *)
let edge_coin ~seed ~trial u v =
  let a = min u v and b = max u v in
  let h = ref (seed * 0x9E3779B1) in
  let mix x = h := (!h lxor (x + 0x7F4A7C15 + (!h lsl 6) + (!h lsr 2))) land max_int in
  mix a;
  mix b;
  mix trial;
  float_of_int (!h land 0xFFFFFF) /. float_of_int 0x1000000

let connected_under_sampling net ~p ~seed ~trial =
  let keep u v = edge_coin ~seed ~trial u v < p in
  let labels =
    Congest.Components.identify net
      ~active:(fun _ -> true)
      ~edge_active:(fun u v -> keep u v)
  in
  Array.for_all (fun l -> l = labels.(0)) labels

let run ?(seed = 42) ?(trials = 3) net =
  let g = Net.graph net in
  let n = Graph.n g in
  let start = Net.rounds net in
  let c_log_n = 2.0 *. log (float_of_int (max 2 n)) in
  (* doubling search downward: the largest guess whose samples all stay
     connected. Guess = min degree is an upper bound on lambda, learned
     with one flood (min over the network of each node's degree would be
     a lower bound on max guess; we just start at min degree). *)
  let min_deg = Graph.min_degree g in
  let rec search guess tried =
    if guess <= 1 then (1, tried)
    else begin
      let p = Float.min 1.0 (c_log_n /. float_of_int guess) in
      let ok = ref true in
      for trial = 1 to trials do
        if !ok then
          ok := connected_under_sampling net ~p ~seed ~trial
      done;
      if !ok then (guess, tried + 1) else search (guess / 2) (tried + 1)
    end
  in
  let estimate, guesses_tried = search (max 1 min_deg) 0 in
  { estimate; guesses_tried; rounds = Net.rounds net - start }
