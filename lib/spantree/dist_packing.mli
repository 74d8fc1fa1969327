(** Distributed fractional spanning-tree packing (Theorem 1.3) on the
    E-CONGEST runtime.

    The §5.1 loop is {!Lagrangian.iterate}'s; only its MST runs on the
    runtime. Each iteration runs the distributed MST of
    {!Congest.Dist_mst} with edge weights z_e rounded to multiples of
    1/n (the footnote-6 encoding), then the leader decides continuation
    via a convergecast / broadcast over the BFS tree (charged as rounds
    on the runtime).

    For general λ ([run_sampled], §5.2): edges are Karger-partitioned
    into η subgraphs, each packed the same way. Because the parts are
    edge-disjoint, their per-iteration MSTs exchange messages over
    disjoint edges and can be pipelined over one shared BFS tree (Lemma
    5.1); the runtime executes them sequentially and additionally
    reports the pipelined round estimate [parallel_rounds] =
    Σ_iterations (max over parts + coordination). *)

type result = {
  packing : Spacking.t;
  iterations : int;  (** total §5.1 iterations across parts *)
  measured_rounds : int;  (** rounds actually consumed on the runtime *)
  parallel_rounds : int;  (** Lemma 5.1 pipelined estimate *)
  eta : int;
  cost_ratios : float list;
      (** per §5.1 iteration, parts in order: the new MST's cost over
          Σ_e c_e·x_e at the current loads. The loop stops at the first
          ratio above 1 − ε; the values are the stop rule's evidence. *)
}

(** [run ?eps ?max_iterations net ~lambda] — single-subgraph case
    (λ = O(log n) regime): {!Lagrangian.iterate} on the whole graph,
    each MST solved by {!Congest.Dist_mst.forest_ids} (Borůvka with
    intra-fragment flooding). It is [run_sampled]'s per-part driver
    with one part. Iterations default to Θ(log³ n). *)
val run :
  ?eps:float -> ?max_iterations:int -> Congest.Net.t -> lambda:int -> result

(** [run_sampled ?seed ?eps net ~lambda] — the general case. *)
val run_sampled : ?seed:int -> ?eps:float -> Congest.Net.t -> lambda:int -> result

(** [run_auto ?seed ?eps net] first estimates λ with the distributed
    sampling search ({!Dist_ec_approx}, the paper's [21] step), then
    runs [run_sampled]; all rounds accumulate on [net]. *)
val run_auto : ?seed:int -> ?eps:float -> Congest.Net.t -> result
