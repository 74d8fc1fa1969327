module Graph = Graphs.Graph
module Net = Congest.Net

type t = {
  graph : Graph.t;
  live : int -> bool;
  pack : seed:int -> classes:int -> layers:int -> Cds_packing.t;
  test :
    seed:int -> memberships:(int -> int list) -> classes:int -> Tester.outcome;
  repair : memberships:(int -> int list) -> classes:int -> Repair.t;
  charged : unit -> int;
  region : 'a. (unit -> 'a option) -> 'a option;
  idle : int -> unit;
}

let central ?(live = fun _ -> true) g =
  let detection_rounds = Tester.default_detection_rounds ~n:(Graph.n g) in
  {
    graph = g;
    live;
    pack =
      (fun ~seed ~classes ~layers -> Cds_packing.run ~seed g ~classes ~layers);
    test =
      (fun ~seed ~memberships ~classes ->
        Tester.run_centralized ~seed ~live g ~memberships ~classes
          ~detection_rounds);
    repair =
      (fun ~memberships ~classes ->
        Repair.run_centralized ~live g ~memberships ~classes);
    charged = (fun () -> 0);
    region = (fun f -> f ());
    idle = ignore;
  }

let distributed net =
  let live = Net.node_alive net in
  let detection_rounds = Tester.default_detection_rounds ~n:(Net.n net) in
  let start = Net.checkpoint net in
  (* rounds of rolled-back regions: the rollback erases them from the
     clock, honest accounting adds them back *)
  let discarded = ref 0 in
  {
    graph = Net.graph net;
    live;
    pack =
      (fun ~seed ~classes ~layers ->
        Dist_packing.run ~seed net ~classes ~layers);
    test =
      (fun ~seed ~memberships ~classes ->
        Tester.run_distributed ~seed ~live net ~memberships ~classes
          ~detection_rounds);
    repair =
      (fun ~memberships ~classes ->
        Repair.run_distributed ~live net ~memberships ~classes);
    charged = (fun () -> Net.rounds_since net start + !discarded);
    region =
      (fun f ->
        let b = Net.barrier net in
        match f () with
        | Some _ as kept -> kept
        | None ->
          discarded := !discarded + Net.discarded_since net b;
          Net.rollback net b;
          None);
    idle = Net.silent_rounds net;
  }
