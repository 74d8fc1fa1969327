(** Edge-connectivity estimation from a spanning-tree packing: a packing
    of size s certifies λ >= ⌊s⌋ + 1 - ish lower bounds and the
    Tutte/Nash-Williams bound says s can reach ⌈(λ-1)/2⌉, so
    λ̂ = 2s + 1 is a constant-factor estimate (the §5 counterpart of
    Corollary 1.7; the exact Stoer–Wagner value serves as ground
    truth). *)

type result = {
  estimate : int;  (** λ̂ = round(2·size + 1) *)
  packing_size : float;
  truth : int;  (** exact Stoer–Wagner edge connectivity *)
}

(** [centralized ?seed g] — §5.2 packing, then estimate. *)
val centralized : ?seed:int -> Graphs.Graph.t -> result
