(** The bridging graph (§3.1 step (2), Fig. 1), as a standalone
    inspectable structure.

    Given a snapshot of the old nodes' class memberships and the random
    class choices of the new layer's type-1 and type-3 nodes, this
    module materializes the bipartite graph between {e old components}
    (one side) and {e type-2 new nodes} (other side), applying the
    paper's three adjacency conditions:

    (a) the type-2 node has a neighbor in the component;
    (b) the component is not already connected to another component of
        its class by a type-1 new node that joined the class
        (deactivation);
    (c) the type-2 node has a type-3 new neighbor of the class
        witnessing a different component.

    The packing algorithms implement the same rules incrementally; this
    module recomputes them from scratch, serving both as the Fig. 1
    realization and as an independent cross-check in the tests. *)

type component = {
  cls : int;
  id : int;  (** canonical id: minimum member vertex *)
  members : int list;
  active : bool;  (** false once deactivated by a type-1 connector *)
}

type t = {
  components : component list;
  edges : (int * (int * int)) list;
      (** (type-2 real node, (class, component id)) adjacency *)
}

(** [build g ~members ~class1 ~class3] — [members i v] says whether real
    vertex [v] is an old member of class [i] ([0 <= i < classes]);
    [class1]/[class3] give the new layer's random type-1/type-3 class
    choices per real vertex. *)
val build :
  Graphs.Graph.t ->
  classes:int ->
  members:(int -> int -> bool) ->
  class1:int array ->
  class3:int array ->
  t

(** [greedy_matching t] — a maximal matching, for illustration; returns
    (type-2 node, (class, component id)) pairs. *)
val greedy_matching : t -> (int * (int * int)) list

val pp : Format.formatter -> t -> unit
