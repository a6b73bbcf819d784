(** The baseline checkers Zodiac is compared against in Table 4.

    Each is a faithful miniature of the corresponding tool's rule
    style and input format:

    - {b native}: [terraform validate] — provider-schema conformance
      (missing required attributes, declared enums, conflicts);
    - {b tfsec}: a small security rule set on the plan;
    - {b checkov}: a broad security/compliance rule set on the plan;
    - {b tfcomp}: a handful of BDD-style conventions;
    - {b regula}: an OPA/Rego-flavoured policy set;
    - {b tflint}: per-attribute lints on HCL only — it cannot consume
      Zodiac's JSON test cases at all. *)

val native : Zodiac_provider.Provider.t -> Checker.t
val tfsec : Checker.t
val checkov : Checker.t
val tfcomp : Checker.t
val tflint : Checker.t

val all : Zodiac_provider.Provider.t -> Checker.t list
