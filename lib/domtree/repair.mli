(** Incremental repair of a broken CDS packing.

    When faults crash nodes mid-run — or the Appendix E {!Tester} flags
    classes as no longer connected dominating sets — the all-or-nothing
    alternative ([Domtree.Reliable]'s reseed-and-retry) throws away
    every healthy class and pays a full re-decomposition. This module
    repairs {e only} the broken classes, locally:

    + {b extinction}: a class with no surviving member has no fragments
      to splice and is dropped up front;
    + {b domination fix}: a live node with no live member of class [i]
      in its closed neighborhood is {e orphaned}; it reassigns itself
      into [i] (a radius-0 decision off one membership sweep), after
      which every surviving class dominates the live graph;
    + {b splice loop}: a dominating class's fragments are pairwise
      within distance 3 through live vertices, so bridges are purely
      local: a vertex adjacent to two fragments joins (length-2
      bridge), and two adjacent vertices that each relay a different
      nearest-fragment id both join (length-3 bridge). All bridges fire
      simultaneously, so fragments merge Borůvka-style — the loop runs
      at most ⌈lg n⌉ + 2 iterations;
    + {b graceful degradation}: a class still fragmented at the cap
      (e.g. its fragments live in different components of a
      disconnected live graph) is dropped, and the survivors stand —
      certified by {!Certificate} rather than discarded.

    The distributed variant drives the same decision rules with actual
    CONGEST traffic — component ids by per-class
    {!Multiflood.flood_min_on_change}, fragment ids and relays by
    membership sweeps — so its rounds are charged to the clock ({e only}
    the repair's rounds, the point of the exercise), it runs unmodified
    under an installed fault adversary, and it stays
    replay-deterministic. It pays only for work that can change its
    output: the first splice iteration floods every surviving class,
    later ones only the classes still split, the announcements and
    relays carry split classes alone, and the BFS tree that bounds the
    dissemination flood is built only when a class is dropped. Repaired classes are no longer
    vertex-disjoint in general (connectors may serve several classes);
    the certificate's [c_max_load] reports the overlap honestly. *)

type class_status =
  | Healthy  (** untouched: was already connected + dominating *)
  | Repaired  (** fixed by orphan reassignment and/or splicing *)
  | Dropped  (** unfixable: extinct, or still fragmented at the cap *)

type t = {
  r_memberships : int list array;
      (** per-real-node class lists after repair (sorted, unique; empty
          for dead nodes; dropped classes removed) *)
  r_status : class_status array;  (** per original class *)
  r_retained : int list;  (** Healthy + Repaired class ids, ascending *)
  r_dropped : int list;  (** Dropped class ids, ascending *)
  r_orphans : int;  (** vertices self-assigned to restore domination *)
  r_splices : int;  (** vertex-class pairs added as fragment bridges *)
  r_rounds : int;  (** CONGEST rounds charged; 0 for centralized *)
}

val pp : Format.formatter -> t -> unit

(** [run_centralized ?live g ~memberships ~classes] repairs the packing
    against the live subgraph ([live] defaults to everyone). Membership
    lists of dead nodes are discarded. *)
val run_centralized :
  ?live:(int -> bool) ->
  Graphs.Graph.t ->
  memberships:(int -> int list) ->
  classes:int ->
  t

(** [run_distributed ?live net ~memberships ~classes] is the
    message-driven variant; [live] defaults to
    {!Congest.Net.node_alive} (the installed adversary's crash set).
    Rounds for the sweeps, per-class floods, and, when a class is
    dropped, the BFS tree and the dissemination flood are charged to
    [net]'s clock. *)
val run_distributed :
  ?live:(int -> bool) ->
  Congest.Net.t ->
  memberships:(int -> int list) ->
  classes:int ->
  t
