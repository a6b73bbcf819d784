(** Synthetic IaC repository generator.

    Stands in for the paper's 26k crawled GitHub repositories. Projects
    are drawn from the provider's weighted scenario families
    ({!Zodiac_provider.Provider.scenarios}) — for Azure, fourteen
    realistic shapes (web tiers,
    hub-and-spoke networks, VPN sites, AKS clusters, storage pipelines,
    application-gateway frontends, data tiers, VM fleets, hardened
    networks, DNS setups, messaging stacks, PaaS apps). Generation is
    conforming-by-construction — locations agree, CIDRs are carved
    disjointly from the VPC space, skus come from the documentation
    tables — and then a configurable fraction of projects get a
    violation injected, reproducing the statistical structure mining
    relies on (high confidence with a tail of counterexamples).

    The generator also skews option usage the way real corpora do:
    e.g. the [VM.create = "Attach"] path is vanishingly rare, which is
    exactly what produces the paper's §5.6 false positive. *)

type project = {
  pname : string;
  scenario : string;
  program : Zodiac_iac.Program.t;
  injected : string list;
      (** labels of violations injected into this project (empty for a
          conforming project) *)
}

val scenario_names : Zodiac_provider.Provider.t -> string list

val generate_one :
  provider:Zodiac_provider.Provider.t ->
  ?violation_rate:float ->
  Zodiac_util.Prng.t ->
  int ->
  project
(** [generate_one rng index] builds one project; the scenario is chosen
    from a weighted distribution. [violation_rate] (default 0.04) is
    the probability that a violation is injected. *)

val generate :
  provider:Zodiac_provider.Provider.t ->
  ?violation_rate:float ->
  ?jobs:int ->
  seed:int ->
  count:int ->
  unit ->
  project list
(** A deterministic corpus of [count] projects. Project [i] is generated
    from the independent stream [Prng.derive seed i], so the corpus is
    identical for every [jobs] value (default: recommended domain count). *)

val generate_range :
  provider:Zodiac_provider.Provider.t ->
  ?violation_rate:float ->
  ?jobs:int ->
  seed:int ->
  lo:int ->
  hi:int ->
  unit ->
  project list
(** Projects [lo, hi) of the corpus [generate ~seed ~count:hi ()] — per-
    index PRNG streams make [generate ~count:n] a strict prefix of
    [generate ~count:m] for [n < m], so a shard [\[lo, hi)] is the same
    projects whatever the corpus size it is generated for. *)

val write_project : Zodiac_util.Codec.sink -> project -> unit
(** Binary codec for projects; exact inverse of {!read_project}. *)

val read_project : Zodiac_util.Codec.src -> project
(** @raise Zodiac_util.Codec.Corrupt on malformed input. *)

val conforming :
  provider:Zodiac_provider.Provider.t ->
  ?jobs:int ->
  seed:int ->
  count:int ->
  unit ->
  project list
(** A corpus with no injected violations (used for clean baselines). *)
