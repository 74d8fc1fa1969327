(** Plain-text graph I/O.

    The edge-list format: one [u v] pair per line, 0-based vertex ids;
    blank lines and [#]-comments ignored. The vertex count is
    [1 + max id] unless a [# n <count>] header names a larger one
    (allowing isolated trailing vertices). *)

(** [load path] reads a file ([-] = stdin).
    @raise Failure on malformed lines. *)
val load : string -> Graph.t

(** [save path g] writes the canonical edge list with a [# n <count>]
    header to a file ([-] = stdout). *)
val save : string -> Graph.t -> unit
