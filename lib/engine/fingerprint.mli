(** Canonical program fingerprints for outcome memoization.

    The validation scheduler re-deploys structurally identical mutants
    across its FP/TP passes and iterations; the only differences are
    the generated local resource names. Deployment outcomes are
    invariant under a consistent renaming of those local names (all
    references move with the resource they point at), so the memo
    cache keys on an {e α-canonical} form:

    - each resource is summarized by its type and attributes, with
      every reference abstracted to the equivalence class of its
      target rather than its spelled name;
    - classes are computed by iterative partition refinement (colour
      refinement on the resource graph), which terminates in at most
      [|resources|] rounds;
    - the canonical form is the sorted multiset of final resource
      summaries, so resource order is irrelevant too.

    Two α-equivalent programs (identical up to local-name renaming and
    resource order) therefore produce equal fingerprints, and any
    attribute difference — including the cloud-visible ["name"]
    attributes — produces a different one. Topology differences are
    separated only as far as bidirectional 1-WL colour refinement
    separates them, so two non-isomorphic programs can collide: for
    example, subnets cross-wired across two attribute-identical VNets
    and route tables, one 8-cycle against two 4-cycles. *)

val canonical : Zodiac_iac.Program.t -> string
(** The full canonical form, used as the cache key: equal for
    α-equivalent programs, but not guaranteed distinct for
    1-WL-indistinguishable ones (see above). *)

val digest : Zodiac_iac.Program.t -> string
(** 16-hex-digit FNV-1a hash of {!canonical}, for display. *)

val equivalent : Zodiac_iac.Program.t -> Zodiac_iac.Program.t -> bool
(** α-equivalence: equal canonical forms. *)
