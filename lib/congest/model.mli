(** The paper's two synchronous message-passing models (§1.2).

    - [V_congest]: per round, each node sends one O(log n)-bit message to
      {e all} of its neighbors (congestion lives in the vertices).
    - [E_congest]: per round, one O(log n)-bit message can be sent in
      each direction of each edge (the classical CONGEST model).

    V-CONGEST is a restriction of E-CONGEST: any V-CONGEST algorithm
    runs unchanged in E-CONGEST. *)

type t =
  | V_congest
  | E_congest

(** [words_budget ~n] is the per-message budget in "words", where a word
    is an integer of O(log n) bits (the paper's messages are O(log n)
    bits total; we allow a small constant number of words, matching the
    usual constant-factor slack of the model). *)
val words_budget : n:int -> int

(** [max_word ~n] bounds the magnitude a single word may carry: ids are
    4·log₂ n-bit random strings in the paper, so values up to n⁴ are
    legal (with a small floor for tiny graphs). *)
val max_word : n:int -> int
