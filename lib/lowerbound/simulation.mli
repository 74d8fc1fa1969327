(** The Appendix G reduction, executable (Lemma G.5/G.6, Theorem G.2).

    Lemma G.6: a T-round protocol on G(X,Y) in which the hubs a and b
    broadcast at most B bits per round can be simulated by Alice
    (holding V'_A(0)) and Bob (holding V'_B(0)) exchanging 2·B·T bits —
    per round, Alice only needs b's broadcast and Bob only a's, because
    every other crossing message is between heavy nodes both players can
    still simulate (the simulated node sets shrink by one path position
    per round, which is why T <= ℓ is required).

    Razborov: deciding |X ∩ Y| = 0 vs 1 needs Ω(h) bits, so
    T = Ω(h / B): with n = Θ(h·ℓ·αk) and ℓ = h / log n this is the
    Ω~(√(n/(αk))) round bound of Theorem G.2. *)

type report = {
  h : int;
  n : int;
  bandwidth_bits : int;  (** B: bits per hub broadcast per round *)
  implied_round_lower_bound : float;  (** h / (4·B) *)
  measured_rounds : int;  (** rounds of the distinguishing run *)
  boundary_bits : int;  (** bits that crossed the Alice/Bob midline *)
  estimate : int;  (** the connectivity estimate the protocol produced *)
  truth_small_cut : bool;  (** instance was intersecting (k = 4) *)
}

(** [bits_per_message ~n] — the O(log n) message size in bits (4⌈log₂n⌉
    per word times the word budget). *)
val bits_per_message : n:int -> int

(** [two_party_cost ~rounds ~n] = 2·B·T, the Lemma G.6 simulation cost in
    bits. *)
val two_party_cost : rounds:int -> n:int -> int

(** [implied_round_lower_bound ~h ~n] = h / (4·B): the Theorem G.2 round
    bound for this instance size (constant 1/4 standing in for the
    Razborov constant). *)
val implied_round_lower_bound : h:int -> n:int -> float

(** [distinguish_via_packing ?seed construction] runs the distributed
    vertex-connectivity approximation (Corollary 1.7) on G(X,Y) with
    midline boundary accounting, and reports the measured quantities
    next to the implied lower bound. *)
val distinguish_via_packing : ?seed:int -> Construction.t -> report

(** {1 Lemma G.5/G.6, literally executed}

    A {e local protocol} is a per-node synchronous state machine: each
    round every node turns its state and inbox into a new state and an
    optional broadcast. The two-party simulation runs it twice — once
    globally, once split between Alice (simulating V'_A(r) at round r)
    and Bob (V'_B(r)) where the only information crossing the table is
    what the hubs a and b broadcast (at most B bits each per round) —
    and checks the split run reproduces the global run exactly. *)

type 'state protocol = {
  init : int -> 'state;  (** node id -> initial state *)
  emit : int -> 'state -> Congest.Net.msg option;
      (** what the node broadcasts this round *)
  absorb : int -> 'state -> int -> Congest.Net.msg -> 'state;
      (** [absorb v state sender m]: state update from one received
          message; each inbox is folded senders ascending *)
}

type replay = {
  rounds_simulated : int;
  bits_exchanged : int;  (** words x word-bits actually sent between the players *)
  lemma_bound_bits : int;  (** 2·B·T *)
  states_match : bool;  (** split run == global run on every simulated node *)
}

(** [two_party_replay construction protocol ~rounds ~equal] runs
    [protocol] for [rounds <= ell] rounds both ways. [equal] compares
    states. The Alice/Bob exchange is exactly the hubs' broadcasts. *)
val two_party_replay :
  Construction.t -> 'state protocol -> rounds:int ->
  equal:('state -> 'state -> bool) -> replay

(** [flood_min_protocol] — the simple protocol used by the experiment:
    every node floods the minimum id it has heard. *)
val flood_min_protocol : int protocol
