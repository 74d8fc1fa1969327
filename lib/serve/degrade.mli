(** Graceful degradation: the last-good certificate store.

    Every verified decomposition deposits its {!Domtree.Certificate}
    here, keyed by the graph's content digest. When a later request for
    the same graph blows its deadline (or its recompute fails under
    chaos), the daemon serves this last-good certificate marked
    [stale = true] instead of failing — a degraded response that is
    still a machine-checkable claim.

    The store is in memory. Persistence across restarts is the
    {!Journal}'s job: each promotion is journaled as a [Promote] record,
    and a restarted daemon replays those records back in with
    [~fresh:false]. Only a certificate computed by {e this} process is
    ever served with [stale = false]. *)

type entry = {
  cert : Domtree.Certificate.t;
  fresh : bool;  (** computed by this daemon process *)
}

type t

val create : unit -> t

(** [record ?fresh t ~digest cert] stores [cert] as the last-good
    certificate for [digest]. "Last-good" is monotone in retained
    classes: a certificate weaker than the one already held (e.g.
    verified-but-empty after a storm) is discarded rather than
    clobbering it; equal strength re-records. Returns [true] iff the
    certificate was kept — the caller's cue to journal the promotion.
    [fresh] (default [true]) marks the entry as computed by this
    process; journal replay warms with [~fresh:false] so replayed
    certificates are served as stale. *)
val record :
  ?fresh:bool -> t -> digest:string -> Domtree.Certificate.t -> bool

val lookup : t -> digest:string -> entry option

(** Number of digests with a last-good certificate. *)
val count : t -> int

(** [fold t f init] folds over the entries in sorted-digest order — the
    deterministic order journal snapshots are written in. *)
val fold : t -> ('a -> string -> entry -> 'a) -> 'a -> 'a
