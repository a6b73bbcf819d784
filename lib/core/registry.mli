(** Provider-registry usage examples (§5.5).

    Miniatures of the official Terraform Azure provider documentation
    examples, written in HCL. [appgw_assoc_buggy] reproduces the
    documented NIC / application-gateway backend-pool association
    example whose two semantic violations Zodiac reported upstream
    (issue #27222): a Basic/Dynamic frontend IP, and a NIC sharing the
    gateway's subnet. [appgw_assoc_fixed] is the corrected version. *)

val appgw_assoc_buggy : string
val appgw_assoc_fixed : string

val mssql_db_buggy : string
(** Miniature of the azurerm_mssql_database documentation example whose
    Basic-sku database declared an oversized max_size (issue #27194
    analogue): compiles, fails to deploy. *)

val mssql_db_fixed : string

val aws_db_buggy : string
(** An AWS database that breaks two AWS ground-truth rules: 5 GB of
    storage (minimum 20) and a 40-day backup retention (maximum 35). *)

val quickstart_vm : string
(** A correct single-VM example used by the quickstart. *)

val compile :
  ?provider:Zodiac_provider.Provider.t ->
  string ->
  (Zodiac_iac.Program.t, string) result
(** Parse + compile with the provider's type mapping (default Azure);
    fails on diagnostics. *)

val compile_file :
  ?provider:Zodiac_provider.Provider.t ->
  string ->
  (Zodiac_iac.Program.t, string) result
(** {!compile} the contents of a file; unreadable files and compile
    diagnostics both surface as [Error] with the path in the message,
    so CLI callers report malformed input cleanly instead of aborting
    with a backtrace. *)

val compile_exn : string -> Zodiac_iac.Program.t
