(** Distributed implementation of the fractional dominating-tree packing
    (Theorem 1.1, Appendix B), executed over the V-CONGEST runtime.

    Every step of Appendix B is realized with explicit message passing
    on the base graph, simulating the virtual graph by meta-rounds:

    - B.1 component identification of old nodes: per-class min-id
      flooding over intra-class virtual edges ({!Multiflood}, the
      Theorem B.2 interface);
    - B.2 bridging-graph creation: type-1 "connector" declarations and
      component deactivation, type-3 witness messages, local neighbor
      lists at type-2 nodes;
    - B.3 maximal matching: Luby-style proposal stages — random values,
      component-wide maximum by intra-component flooding, accept
      announcements — at most O(log n) stages, ending at the first
      silent proposal round (no unmatched node has an open option left,
      so the matching is maximal and no later stage could change it).

    The returned record is the same shape as the centralized one; the
    [connected]/[dominating]/[stats] fields are filled in by (free)
    post-hoc verification. Round/congestion costs are read off the
    {!Congest.Net} counters by the caller.

    A run allocates its layer scratch once: per-slot arrays for up to
    [n × min classes (3 × layers)] slots, the per-(node, class) B.2b
    witness state, and growable buffers for the filtered status-sweep
    log and the B.2c option lists. *)

(** [run ?seed ?jumpstart net ~classes ~layers] executes the distributed
    packing on [net] (a V-CONGEST or E-CONGEST network). *)
val run :
  ?seed:int ->
  ?jumpstart:int ->
  Congest.Net.t ->
  classes:int ->
  layers:int ->
  Cds_packing.t

(** [pack ?seed net ~k] uses the default parameters of {!Cds_packing}. *)
val pack : ?seed:int -> Congest.Net.t -> k:int -> Cds_packing.t

(** [extract_trees net result] is the B.4 wrap-up, distributed: spans
    every valid class with a tree via the distributed MST restricted to
    the class's members (the paper gives weight 0 to intra-class virtual
    edges and runs one MST on the virtual graph; here the per-class runs
    execute sequentially on the runtime, an upper bound on that cost).
    Returns the same fractional packing {!Tree_extract.of_cds_packing}
    builds centrally. *)
val extract_trees : Congest.Net.t -> Cds_packing.t -> Packing.t
