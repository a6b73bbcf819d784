(** Scanning logic shared by the one-shot CLI and the resident daemon.

    Both front ends funnel through this module, which is how the
    acceptance property — resident-daemon SARIF byte-identical to the
    one-shot CLI — holds by construction rather than by test luck. *)

type check_entry = {
  id : string;
  message : string;
  check : Zodiac_spec.Check.t;
  compiled : Zodiac_spec.Eval.compiled;  (** [check], compiled when the entries are made *)
}
(** One check to evaluate: stable id, human message, spec. *)

val ground_truth_entries :
  Zodiac_provider.Provider.t -> check_entry list
(** The provider's simulated-cloud ground-truth rule set (the [scan]
    default), sharing the rules' compiled checks. *)

val load_checks :
  Zodiac_provider.Provider.t ->
  string option ->
  (check_entry list, string) result
(** [None] -> the provider's ground truth; [Some file] ->
    {!Zodiac.Checkset.load}. *)

val scan_source :
  ?checkpoint:(unit -> unit) ->
  provider:Zodiac_provider.Provider.t ->
  checks:check_entry list ->
  file:string ->
  string ->
  (Sarif.finding list, string) result
(** Compile HCL source and evaluate every check, diagnosing each
    violating assignment. The source is lexed once; the same tokens
    give the findings' lines ({!Sarif.index_tokens}). [file] is only metadata (the SARIF artifact
    URI and line-index scope). Compile failures come back as [Error].
    [checkpoint] is called between check evaluations; it may raise to
    abandon the scan (the cooperative deadline probe). *)

val scan_plan_source :
  ?checkpoint:(unit -> unit) ->
  provider:Zodiac_provider.Provider.t ->
  checks:check_entry list ->
  file:string ->
  string ->
  (Sarif.finding list, string) result
(** Like {!scan_source} but the input is Terraform plan JSON
    ([terraform show -json] output) decoded via {!Zodiac_hcl.Plan}.
    Plan JSON has no source positions, so findings anchor at line 1. *)

val scan_file :
  ?checkpoint:(unit -> unit) ->
  provider:Zodiac_provider.Provider.t ->
  checks:check_entry list ->
  string ->
  (Sarif.finding list, string) result
(** {!scan_source} on a file's contents. *)

val read_file : string -> (string, string) result
(** Whole-file read, [Error] on I/O failure or when [path] is a
    directory (the message names it and points to [scan_directory]) —
    exposed so callers that cache by content fingerprint can read once
    and scan from source. *)

val hcl_files : string -> string list
(** [.tf]/[.hcl] files under a directory, recursive, sorted by path —
    the deterministic work list for [scan_directory]. *)

val scan_directory :
  ?jobs:int ->
  ?checkpoint:(unit -> unit) ->
  ?scan:(string -> (Sarif.finding list, string) result) ->
  provider:Zodiac_provider.Provider.t ->
  checks:check_entry list ->
  string ->
  (Sarif.finding list * (string * string) list, string) result
(** Scan every {!hcl_files} member, fanning the per-file scans onto the
    {!Zodiac_util.Parallel} domain pool. Findings aggregate across
    files; per-file compile failures are collected as [(file, error)]
    pairs rather than failing the batch. [Error] only when the
    directory itself is unreadable. [scan] overrides the per-file
    scanner (the daemon routes through its content-fingerprint cache);
    ordering and aggregation stay here either way. *)
