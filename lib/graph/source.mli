(** Graph sources for drivers: a generator spec ("harary:k=8,n=64") or
    an edge-list file. Factored out of the CLI so that (a) the parsing
    is unit-testable and (b) callers can count how many times a graph is
    actually constructed — the regression surface for "the retry loop
    must not rebuild the graph per attempt". *)

(** ["name:k=8,n=64"] -> [("name", [("k", 8); ("n", 64)])]. Raises
    [Failure] on a malformed spec. *)
val parse_kv : string -> string * (string * int) list

(** Build a graph from a generator spec. Known generators: harary,
    hypercube, clique, cycle, grid, torus, clique_path, lollipop,
    random, er (["er:n=1024,deg=8,seed=1"] is G(n, deg/n)). Raises
    [Failure] on an unknown name. *)
val gen_graph : string -> Graph.t

(** [load ~gen ~file] resolves exactly one of a generator spec or an
    edge-list path ('-' = stdin) to a graph. [on_load] (default a
    no-op) is invoked once per graph actually constructed — drivers
    thread a counter through it to assert single construction. *)
val load :
  ?on_load:(unit -> unit) -> gen:string option -> file:string option ->
  unit -> Graph.t
