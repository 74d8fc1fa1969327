(** The Appendix E randomized CDS-partition tester (Lemma E.1).

    Given per-node class memberships (a partition of the virtual nodes,
    seen from the base graph as each real node holding O(log n)
    memberships), the tester checks that every class is a connected
    dominating set:

    - {b domination test} (exact): every node must see every class in
      its closed neighborhood;
    - {b connectivity test} (randomized): identify per-class component
      ids, then run Θ(log n) rounds in which each node announces the
      component id of a random class; two different ids for one class
      meeting at a node is a {e disconnect detection}. Lemma E.1: if any
      class is disconnected, detection happens w.h.p.

    A passing test is always sound for domination and sound w.h.p. for
    connectivity; a valid partition always passes.

    The test is written once ({!run_on}) over a {!Comm.side}; the
    central side sends nothing and builds no BFS tree. Both draw the
    same random numbers, so a seed gives one outcome on either side,
    fault-free. *)

type outcome = {
  pass : bool;
  domination_ok : bool;
  connectivity_ok : bool;
  detection_round : int option;
      (** first random round at which a disconnect was detected *)
}

(** [run_on side ~seed ~live ~memberships ~classes ~detection_rounds]
    runs the test on [side].
    @raise Invalid_argument if a live node holds a class outside
    [0 .. classes - 1]. *)
val run_on :
  Comm.side ->
  seed:int ->
  live:(int -> bool) ->
  memberships:(int -> int list) ->
  classes:int ->
  detection_rounds:int ->
  outcome

(** [run_distributed ?seed ?live net ~memberships ~classes
    ~detection_rounds] executes the test over the CONGEST runtime
    (rounds are charged, including the final Θ(D) failure-flag flood).

    [live] (default: everyone) restricts the test to the surviving
    graph: a node with [live r = false] holds no memberships, owes no
    coverage (nobody must dominate the dead), and observes nothing —
    the semantics under which a {e degraded} packing can still be
    verified after crashes. Defaulting [live] from
    [Congest.Net.node_alive] tests against the installed adversary's
    crash set. *)
val run_distributed :
  ?seed:int ->
  ?live:(int -> bool) ->
  Congest.Net.t ->
  memberships:(int -> int list) ->
  classes:int ->
  detection_rounds:int ->
  outcome

(** [run_centralized ?seed ?live g ~memberships ~classes
    ~detection_rounds] is {!run_on}'s central side: O(m log n) steps and
    no message, with the same [live] semantics. *)
val run_centralized :
  ?seed:int ->
  ?live:(int -> bool) ->
  Graphs.Graph.t ->
  memberships:(int -> int list) ->
  classes:int ->
  detection_rounds:int ->
  outcome

(** [default_detection_rounds ~n] = Θ(log n). *)
val default_detection_rounds : n:int -> int
