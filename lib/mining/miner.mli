(** The association-rule mining engine (§3.3).

    One counting pass per template family walks the (default-
    materialized) corpus and instantiates every witnessed check with
    its association statistics:

    - {e support}: number of instances satisfying the condition;
    - {e confidence}: P(statement | condition);
    - {e lift}: confidence / P(statement), where the statement's prior
      is estimated from the KB's global value distributions.

    The counts of every family form one mergeable {!tables} value, so
    the pipeline counts the corpus shard by shard, folds the shards'
    tables and emits candidates once from the merged result; the same
    fold serves a one-shard corpus held in memory and a streamed,
    checkpointed one. Nothing here caches: the pipeline caches the
    shard tables and the emitted candidate set.

    With [use_kb = false] the intra-resource families run without the
    KB's slot restrictions (any scalar value may appear on the right
    of an [==], any attribute in a presence test) — the ablation of
    Figure 7a. *)

type config = {
  use_kb : bool;
  min_support : int;  (** candidates below this support are not emitted *)
}

val default_config : config

val materialize :
  provider:Zodiac_provider.Provider.t ->
  ?jobs:int ->
  Zodiac_iac.Program.t list ->
  Zodiac_iac.Program.t list
(** Apply provider defaults to every resource. Mining always runs on
    materialized programs; build the KB from the same materialized
    corpus so that statement priors line up with observation (a
    default-valued attribute then has prior ~1 and its artifacts are
    removed by the lift filter). *)

val mine :
  provider:Zodiac_provider.Provider.t ->
  ?config:config ->
  ?jobs:int ->
  Zodiac_kb.Kb.t ->
  Zodiac_iac.Program.t list ->
  Candidate.t list
(** Run every template family over the corpus; candidates are
    deduplicated, keeping the highest-support instance, and returned in
    the canonical (support desc, cid) order. Counting shards across up
    to [jobs] domains (default: recommended domain count); the result
    is identical for every [jobs] value.

    The pipeline mines through the tables monoid below, shard by shard;
    [mine] counts every family directly and is the independent
    reference the fold is tested against. *)

(** {2 The tables monoid}

    The pipeline's mining path: a {!tables} value bundles
    every counting family's tables as one mergeable unit, so a shard
    stream can count each shard independently ({!count_tables}), fold
    the per-shard values in shard order ({!merge_tables}), checkpoint
    them through the {!Zodiac_util.Cache} codec pair
    ({!write_tables}/{!read_tables}) and emit candidates once from the
    final merged value ({!emit_tables}). Every merge is an exact monoid
    over contiguous groupings — addition, (min, max, sum) or
    (max, sum) — so for any shard size (and any mix of resumed and
    rebuilt shards) [emit_tables config kb (fold of count_tables)]
    equals [mine ~config kb corpus]. *)

type tables
(** Intra + indexed + inter counting tables, merged by mutation. *)

val count_tables :
  provider:Zodiac_provider.Provider.t ->
  ?jobs:int ->
  config ->
  Zodiac_kb.Kb.t ->
  Zodiac_iac.Program.t list ->
  tables
(** Count one shard of {e materialized} programs. [kb] must be the
    finalized KB of the {e whole} corpus (the inter family derives its
    reserved names from it), so a stream runs its KB fold to completion
    before the first [count_tables] call. Within the shard, counting
    shards again across up to [jobs] domains. *)

val merge_tables : tables -> tables -> tables
(** [merge_tables dst src] folds [src] into [dst] (mutating [dst]) and
    returns [dst]; [src] is unchanged. *)

val write_tables : Zodiac_util.Codec.sink -> tables -> unit

val read_tables : Zodiac_util.Codec.src -> tables
(** Codec pair for shard checkpoints. Rows are written in canonical
    key order, so equal tables encode to equal bytes regardless of
    merge history. [read_tables] may raise
    {!Zodiac_util.Codec.Corrupt}. *)

val emit_tables : config -> Zodiac_kb.Kb.t -> tables -> Candidate.t list
(** Emit candidates from final merged tables — a pure function of
    (config, KB, tables): [emit_tables config kb (count_tables config
    kb corpus)] is exactly [mine ~config kb corpus] on a materialized
    corpus, including dedup and canonical order. *)

val mine_intra :
  provider:Zodiac_provider.Provider.t ->
  ?config:config ->
  ?jobs:int ->
  Zodiac_kb.Kb.t ->
  Zodiac_iac.Program.t list ->
  Candidate.t list
(** Only the intra-resource families (used by the Figure 7a ablation,
    which plots per-type intra candidate counts with and without the
    KB). *)

val intra_counts_by_type :
  provider:Zodiac_provider.Provider.t ->
  ?jobs:int ->
  use_kb:bool ->
  Zodiac_kb.Kb.t ->
  Zodiac_iac.Program.t list ->
  (string * int * int) list
(** Per resource type: (type, attribute count, mined intra
    candidates). *)
