(** Random linear network coding (RLNC) broadcast over GF(2) — the §1
    comparison point.

    The paper's motivation: network coding achieves cut-capacity flow
    {e if coefficient overhead is ignored}, but CONGEST messages carry
    only O(log n) bits, and a coded packet must ship its whole
    N-dimensional coefficient vector; "because of the coefficients,
    network coding can only support a flow of O(log n) messages per
    round". The tree decompositions sidestep this entirely.

    This module simulates honest RLNC gossip: every node maintains the
    GF(2) row space of the coded packets it has received; per
    transmission it broadcasts a uniformly random vector of its span,
    chunked into as many O(log n)-bit rounds as the N coefficient bits
    (plus payload) require. Decoding completes at rank N. Experiment
    E15 plots its throughput collapsing as N grows, against the
    N-independent tree-routing throughput. *)

type result = {
  rounds : int;
  messages : int;  (** N *)
  throughput : float;  (** N / rounds *)
  transmissions : int;  (** coded packets sent in total *)
  decoded_all : bool;  (** every node reached full rank *)
}

(** [rlnc_broadcast ?seed ?coeff_words_per_round net ~sources]
    disseminates the messages listed in [sources] ((origin, count)
    pairs) to every node. Each packet carries one data word after its
    coefficients, shipped at most [coeff_words_per_round] (default 6,
    capped at 6) words per round. Gives up after a generous
    [200 * (N + n) * (coefficient words + 1)] rounds, reporting
    [decoded_all = false]. *)
val rlnc_broadcast :
  ?seed:int -> ?coeff_words_per_round:int ->
  Congest.Net.t -> sources:(int * int) list -> result

(** [coefficient_words ~n ~messages] — how many O(log n)-bit words the
    coefficient vector of one packet occupies (the overhead driving the
    paper's argument). *)
val coefficient_words : n:int -> messages:int -> int
