(** Positive test cases: corpus programs witnessing a candidate check
    (its condition and statement both hold), pruned to a minimal
    deployable configuration. *)

type tp = {
  program : Zodiac_iac.Program.t;  (** the MDC *)
  original : Zodiac_iac.Program.t;  (** the un-pruned source program *)
  witness : Zodiac_spec.Eval.assignment;
  source : string;  (** project name *)
}

val find :
  ?limit:int ->
  provider:Zodiac_provider.Provider.t ->
  corpus:(string * Zodiac_iac.Program.t) list ->
  Zodiac_spec.Eval.compiled ->
  tp list
(** Up to [limit] (default 3) positive test cases from distinct
    projects, smallest MDC first. The MDC is re-checked to still
    witness the check after pruning. *)

type entry = {
  e_source : string;  (** project name *)
  e_prog : Zodiac_iac.Program.t;
  e_graph : Zodiac_iac.Graph.t;  (** [Graph.build e_prog] *)
  e_types : string list;  (** [Program.types e_prog] *)
}

type index
(** A corpus with pre-built graphs and type signatures, so repeated
    lookups don't rebuild graphs per (check, program) pair. *)

val index : (string * Zodiac_iac.Program.t) list -> index

val binding_entries : index -> Zodiac_spec.Eval.compiled -> entry Seq.t
(** The indexed programs that declare every resource type the check
    binds, lazily, in corpus order. Any other program has no assignment
    for the check, so it can neither witness nor violate it. *)

val find_indexed :
  ?limit:int ->
  provider:Zodiac_provider.Provider.t ->
  index:index ->
  Zodiac_spec.Eval.compiled ->
  tp list
