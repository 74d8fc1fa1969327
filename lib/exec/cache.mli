(** Disk-backed memoization of job payloads, keyed by {!Job.key}.

    Layout: one file per entry at [<dir>/v<version>/<key>]. Bumping the
    version changes the directory, so every old entry becomes invisible
    at once — versioned invalidation without a scan. Entries carry a
    magic header and a digest of the marshalled payload; a read that
    fails the magic, the digest, or unmarshalling is treated as a miss
    and the corrupt file is moved into [<root>/_quarantine/] — never
    served, never silently destroyed (recompute-and-overwrite recovery,
    with the evidence preserved for inspection).

    Writes go through a per-domain temporary file that is fsync'd and
    then renamed into place, so a kill -9 at any instant never leaves a
    truncated or torn entry under the entry's name (the rename is
    atomic in the namespace; the fsync makes it atomic in content), and
    concurrent stores of the same key resolve to one complete file
    (last rename wins). [find]/[store] are safe to call from any
    {!Pool} domain. *)

type t

(** The default cache root, [_cache/] (gitignored). *)
val default_dir : string

(** [open_dir ?version ?metrics dir] creates [<dir>/v<version>/] if
    needed, and sweeps stale write temporaries ([<key>.tmp.<domain>]
    files a crashed writer left behind — nothing ever reads them, so at
    open time, which precedes every pool write of this process, they are
    garbage). [version] defaults to the engine's entry-format version,
    bumped when {!Job.payload} or the entry encoding changes shape. With
    [metrics], the hit/miss/quarantine counters are mirrored into that
    registry as [exec_cache_{hits,misses,quarantined}_total]. *)
val open_dir : ?version:int -> ?metrics:Obs.Metrics.t -> string -> t

val dir : t -> string

(** [find t ~key] is the cached payload, or [None] on miss/corruption. *)
val find : t -> key:string -> Job.payload option

(** [store t ~key p] persists [p] atomically. Never called for failed
    jobs — only successful payloads are cacheable. *)
val store : t -> key:string -> Job.payload -> unit

(** Hit/miss counters since [open_dir] (every [find] increments one). *)
val hits : t -> int

val misses : t -> int

(** Entries moved to quarantine since [open_dir] (by {!find} or
    {!scan}). *)
val quarantined : t -> int

type scan_report = {
  scanned : int;  (** entry files examined *)
  valid : int;  (** decoded cleanly *)
  swept : int;  (** corrupt: quarantined by this scan *)
}

(** [scan t] decodes every entry in the cache (skipping the quarantine
    and write temporaries) and quarantines the ones that fail. After it
    returns, every entry still in place is servable — the invariant the
    crash-recovery harness asserts as "zero undetected-corrupt
    entries". *)
val scan : t -> scan_report
