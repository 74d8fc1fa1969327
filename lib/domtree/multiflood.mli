(** Simulation of per-class flooding on the virtual graph (§3.1).

    Every real node holds one value per class membership; one virtual
    round is simulated by [max memberships] base-graph rounds (the
    meta-round of §3.1), in which each real node broadcasts one
    (class, value) pair per membership slot. Values flow
    only along intra-class virtual edges, i.e. between same-class
    memberships of adjacent (or identical) real nodes.

    {b Slot layout.} A {!slots} value is a CSR over the memberships:
    node [r]'s slots are [off.(r) .. off.(r + 1) - 1], one per entry of
    its membership list, in list order, and [cls.(s)] is the class of
    slot [s]. Meta-round [k] is the base round in which every node with
    a [k]-th slot broadcasts for it. A list that repeats a class gets one
    slot per repeat, but the repeats share one state: the {e first} slot
    of that class in the node's slice ({!find}) holds it, and every
    repeat broadcasts it. Per-slot state of the callers lives in int
    arrays indexed by slot.

    {b Class→slot row.} Resolving a delivery's class to the receiver's
    slot is a {!row} read, not a {!find} scan: one int array over the
    class universe, [-1] everywhere except while a receiver's inbox is
    walked. {!iter_deliveries} fills it from receiver [r]'s own slice
    (every class of the slice maps to its first slot) just before
    [Net.iter_inbox net r] and resets it just after. A lookup is O(1)
    per delivery; filling and resetting cost O(|slice|) per receiver
    and round; the row holds O(classes) entries, not [n × classes].
    The walk keeps the delivery order of [Net.iter_deliveries]:
    receivers ascending, each inbox in ascending sender order. *)

type slots = private {
  off : int array;  (** [n + 1] offsets into [cls] *)
  cls : int array;  (** class of every slot *)
  universe : int;  (** 1 + the largest class of any slot, 0 if none *)
}

(** [layout ~n memberships] lays out [memberships r] for [r < n].
    @raise Invalid_argument on a negative class. *)
val layout : n:int -> (int -> int list) -> slots

(** [find slots r i] is the first slot of class [i] in [r]'s slice, or
    [-1] when [r] is not a member of [i]. A scan of the slice, for
    per-node lookups; per-delivery lookups read a {!row}. *)
val find : slots -> int -> int -> int

(** [row ?classes slots] is a fresh class→slot row for [slots]: [max
    classes slots.universe] entries ([classes] defaults to [0]), all
    [-1]. Pass the protocol's class count when messages may name a
    class that no slot holds. *)
val row : ?classes:int -> slots -> int array

(** [fill_row slots row r] maps every class of [r]'s slice to its first
    slot in [row]; [clear_row slots row r] sets those entries back to
    [-1]. Between the two, [row.(i)] is [find slots r i] for every [i]
    below [Array.length row]. *)
val fill_row : slots -> int array -> int -> unit

val clear_row : slots -> int array -> int -> unit

(** [iter_deliveries net slots row f] is [Net.iter_deliveries net f]
    with [row] filled from each receiver's slice while that receiver's
    inbox is walked, so [f] resolves a class [i] of the receiver as
    [row.(i)]. [row] must be all [-1] on entry and is so again on
    return. *)
val iter_deliveries :
  Congest.Net.t ->
  slots ->
  int array ->
  (int -> int -> int -> Congest.Net.msg -> unit) ->
  unit

(** [max_int], which no flood sends: a minimum with it changes nothing. *)
val neutral : int

(** Caller-owned scratch of the floods: per-slot state for up to
    [slots] slots and a class→slot row of [classes] entries. A protocol
    that floods once per layer or per stage allocates its buffers once
    per run instead of once per call. *)
type buffers

(** [buffers ~slots ~classes] is scratch for layouts of at most [slots]
    slots whose classes are below [classes]. *)
val buffers : slots:int -> classes:int -> buffers

(** [flood_min ?buffers net slots ~init] floods minimum values within
    every class-component simultaneously and returns the fixed point as
    one array indexed by slot. Every slot starts from [init r s] of the
    first slot [s] of its class in [r]'s slice; repeats of a class end
    with the same value as its first slot. A slot broadcasts [(class,
    value)] in its meta-round unless its value is {!neutral}.
    Termination is detected by the simulator (one quiescent sweep is
    charged). Every delivery resolves its class through a {!row} of
    [slots.universe] entries.

    Without [~buffers], the row and the per-slot arrays are allocated
    per call and the result array has one entry per slot. With
    [~buffers b], nothing is allocated: the result array is [b]'s own,
    may be longer than the slot count (entries past it are junk), and
    is overwritten by the next call on [b]. Messages, rounds and
    results are the same either way.
    @raise Invalid_argument if [b] holds fewer slots than [slots] or a
    row shorter than [slots.universe].

    Instantiations used in this repository:
    - component identification: [init r _ = r];
    - flag dissemination: [0] for a raised flag, {!neutral} otherwise,
      so only the raised flags and the slots they reach talk;
    - maximum aggregation: a key that is smaller for a larger value,
      {!neutral} for none ({!Cds_packing.proposal_key}). *)
val flood_min :
  ?buffers:buffers ->
  Congest.Net.t ->
  slots ->
  init:(int -> int -> int) ->
  int array

(** [flood_min_on_change net slots ~init] reaches the same
    fixed point as {!flood_min} on a fault-free run, but a node sends a
    class only when its value has changed since it last sent it, and
    never a {!neutral} one. In every base round, each node broadcasts at
    most one such class, the first pending one in its slice. Repeats of
    a class are never sent. The first round in which no node sends is
    charged as the quiescence detection. A layout with no slot to send
    costs no round.

    Once most values have settled, a meta-round of {!flood_min} spends
    [max memberships] rounds re-sending them; this schedule does not.
    A dropped message is not sent again unless its value changes once
    more. Under drops, a member can therefore keep a larger value than
    its class-component's minimum. Values never cross between
    class-components: every slot ends with the [init] value of a first
    slot of its own class-component. [Repair] uses this schedule for
    its fragment ids. *)
val flood_min_on_change :
  Congest.Net.t ->
  slots ->
  init:(int -> int -> int) ->
  int array

(** [membership_sweep net slots ~payload ~recv] performs one meta-round
    in which every real node [r] broadcasts, for each of its slots [s],
    the class followed by the words of [payload r s]. Every delivery is
    handed to [recv r sender cls m] as it arrives, where [m] is the
    whole message ([m.(0) = cls], the payload from index 1): meta-round
    by meta-round, receivers [r] ascending, and each receiver's
    deliveries of one slot round in increasing sender order. Nothing is
    kept across rounds; [m] is valid only during the call. *)
val membership_sweep :
  Congest.Net.t ->
  slots ->
  payload:(int -> int -> int array) ->
  recv:(int -> int -> int -> Congest.Net.msg -> unit) ->
  unit
