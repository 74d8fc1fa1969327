module Net = Congest.Net

type t = {
  side : Comm.side;
  live : int -> bool;
  charged : unit -> int;
  region : 'a. (unit -> 'a option) -> 'a option;
  idle : int -> unit;
}

let central ?(live = fun _ -> true) g =
  {
    side = Comm.Central g;
    live;
    charged = (fun () -> 0);
    region = (fun f -> f ());
    idle = ignore;
  }

let distributed net =
  let start = Net.checkpoint net in
  (* rounds of rolled-back regions: the rollback erases them from the
     clock, honest accounting adds them back *)
  let discarded = ref 0 in
  {
    side = Comm.Distributed net;
    live = Net.node_alive net;
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
