(** Where a ladder runs: on a graph (central) or on a CONGEST network
    (distributed).

    {!Reliable}'s verify-and-recover ladder and {!Vc_approx}'s guess
    ladder are each written once over a side; a side carries only what
    differs between the two runs. Both pack with {!Cds_packing.run_on},
    test with {!Tester.run_on} and repair with {!Repair.run_on} on its
    {!Comm.side}. A distributed side belongs to one ladder run: it
    charges rounds from the moment it is built. *)

type t = {
  side : Comm.side;
  live : int -> bool;  (** the nodes the tester and repair consider *)
  charged : unit -> int;
      (** rounds charged since the side was built, rolled-back regions
          included; always 0 central *)
  region : 'a. (unit -> 'a option) -> 'a option;
      (** [region f] runs [f]. Distributed, [f] runs behind a
          {!Congest.Net.barrier}, and a [None] rolls the network back to
          it (counters, digests, adversary state) while its rounds stay
          charged *)
  idle : int -> unit;
      (** [idle r] charges [r] silent rounds; nothing central *)
}

(** [central ?live g]: [live] defaults to everyone. *)
val central : ?live:(int -> bool) -> Graphs.Graph.t -> t

(** [distributed net]: [live] is {!Congest.Net.node_alive}, the
    installed adversary's survivors. *)
val distributed : Congest.Net.t -> t
