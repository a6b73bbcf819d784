(** SARIF 2.1.0 rendering of scan findings.

    SARIF (Static Analysis Results Interchange Format) is the lingua
    franca of the IaC-scanner plugin ecosystem — Checkov, tfsec and the
    MCP tool surfaces all speak it — so emitting it is what lets Zodiac
    slot in as one more scanner. The emitted document is {b
    deterministic}: results are sorted by (file, line, rule id,
    bindings), rules by id, and no wall-clock value appears unless the
    caller explicitly passes [~timestamp]. That byte-stability is load
    bearing: the test suite asserts the resident daemon and the
    one-shot CLI produce identical SARIF for the same input. *)

type finding = {
  rule_id : string;
  message : string;  (** the rule's short message *)
  bindings : (string * string) list;  (** var -> "TYPE.name" *)
  explanation : string;  (** {!Zodiac_spec.Diagnose} value-level reason *)
  file : string;  (** artifact URI as given by the caller *)
  line : int;  (** 1-based start line; 1 when unknown *)
}

type line_index
(** Maps resources of one HCL source to the line of their defining
    [resource] block. *)

val index_tokens : Zodiac_hcl.Lexer.spanned list -> line_index
(** Walk an HCL document's tokens for top-level
    [resource "type" "name"] headers, so the scanner reuses the tokens
    it compiled instead of lexing the source again. Type labels are
    recorded both raw ([azurerm_subnet] / [aws_subnet]) and
    canonicalized through the matching provider's type mapping
    ([SUBNET]); when a header repeats, the first one wins. *)

val resource_line : line_index -> Zodiac_iac.Resource.id -> int
(** Line of the resource's block header, or 1 when absent. *)

val document : ?timestamp:string -> finding list -> Zodiac_util.Json.t
(** One SARIF run: [tool.driver.rules] lists the distinct triggered
    rules (sorted by id), [results] the findings (sorted, with
    [ruleIndex] back-references and physical locations). [~timestamp]
    (an ISO-8601 string the caller formats) adds an [invocations]
    entry with [endTimeUtc]; omitted by default so output is
    byte-stable. *)

val to_string : ?timestamp:string -> finding list -> string
(** Pretty-printed {!document} with a trailing newline — exactly the
    bytes [zodiac scan --format sarif] writes to stdout. *)
