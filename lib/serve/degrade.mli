(** Graceful degradation: the last-good certificate store.

    Every verified decomposition deposits its {!Domtree.Certificate}
    here, keyed by the graph's content digest. When a later request for
    the same graph blows its deadline (or its recompute fails under
    chaos), the daemon serves this last-good certificate marked
    [stale = true] instead of failing — a degraded response that is
    still a machine-checkable claim.

    The store is two-level: an in-memory map for the hot path, mirrored
    to {!Exec.Cache} (content-addressed by graph digest) so a restarted
    daemon still has every certificate its predecessors verified.
    Entries loaded back from disk are flagged [fresh = false]; only a
    certificate computed by {e this} process is ever served with
    [stale = false]. *)

type entry = {
  cert : Domtree.Certificate.t;
  fresh : bool;  (** computed by this daemon process *)
}

type t

(** [create ?disk ()] — [disk] enables cross-restart persistence. *)
val create : ?disk:Exec.Cache.t -> unit -> t

(** [record ?fresh t ~digest cert] stores [cert] as the last-good
    certificate for [digest] (in memory, and on disk when enabled).
    "Last-good" is monotone in retained classes: a certificate weaker
    than the one already held (e.g. verified-but-empty after a storm)
    is discarded rather than clobbering it; equal strength re-records.
    Returns [true] iff the certificate was kept — the caller's cue to
    journal the promotion. [fresh] (default [true]) marks the entry as
    computed by this process; journal replay warms with [~fresh:false]
    so replayed certificates are served as stale. *)
val record :
  ?fresh:bool -> t -> digest:string -> Domtree.Certificate.t -> bool

(** [lookup t ~digest] consults memory first, then the disk cache —
    a disk hit is memoized (as non-fresh) for subsequent lookups. *)
val lookup : t -> digest:string -> entry option

(** Number of digests with a last-good certificate in memory. *)
val count : t -> int

(** [fold t f init] folds over in-memory entries in sorted-digest
    order — the deterministic order journal snapshots are written in. *)
val fold : t -> ('a -> string -> entry -> 'a) -> 'a -> 'a
