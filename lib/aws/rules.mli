(** The AWS hidden ground-truth rule set. *)

val ground_truth : unit -> Zodiac_provider.Provider.rule list
(** Built on first call and shared afterwards. List order is
    load-bearing: the simulator reports the first violating rule in
    phase order. *)
