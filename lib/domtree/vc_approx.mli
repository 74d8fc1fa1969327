(** Vertex-connectivity approximation (Corollary 1.7): run the
    dominating-tree packing with exponentially decreasing guesses
    n/2^j of k and accept the first guess whose packing passes the
    Appendix E tester. The accepted class count t = Θ(guess) is an
    O(log n)-approximation of k:

    - at guesses <= k the packing succeeds w.h.p., so the accepted guess
      is >= k/2, giving t = Ω(k);
    - t classes of vertex-disjoint (virtual) CDSs with real-level
      multiplicity O(log n) force k >= t / O(log n).

    Guess n/2^j runs with seed [seed + j]; the last guess (1) is
    accepted whatever the tester says. {!centralized} and
    {!distributed} run this one ladder over a {!Side}. *)

type result = {
  estimate : int;  (** k̂ — the accepted number of classes *)
  accepted_guess : int;  (** the k-guess that passed *)
  attempts : int;  (** how many guesses were tried *)
  packing : Packing.t;  (** the dominating-tree packing of the accepted run *)
}

(** [centralized ?seed g] — O~(m)-style implementation on a connected
    graph with at least 2 vertices. *)
val centralized : ?seed:int -> Graphs.Graph.t -> result

(** [distributed ?seed net] — same ladder over the CONGEST runtime with
    the distributed packing and distributed tester; rounds accumulate on
    [net]. *)
val distributed : ?seed:int -> Congest.Net.t -> result

(** [approximation_ratio ~truth result] is max(k/k̂, k̂/k), the quantity
    Corollary 1.7 bounds by O(log n). *)
val approximation_ratio : truth:int -> result -> float
