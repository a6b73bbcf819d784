(** Few-shot prompt construction for interpolation queries (§3.3).

    Zodiac translates a quantitative candidate check into a natural-
    language question and wraps it with input/output examples so the
    language model answers with a bare constant or "none". The prompt
    text is what a production deployment would send to the LLM; the
    offline oracle consumes the structured query directly but the
    prompt is still built (and exposed) for inspection and testing. *)

type query = {
  subject_type : string;  (** e.g. ["VM"] *)
  cond_attr : string;  (** e.g. ["sku"] *)
  cond_value : string;  (** e.g. ["Standard_F2s_v2"] *)
  quantity : string;  (** e.g. ["maximum number of NICs"] *)
}

val few_shot : query -> string
(** The full prompt: instructions, worked examples, then the query. *)

val of_check : Zodiac_spec.Check.t -> query option
(** Extract a query from a quantitative candidate of the shape
    [A.attr == Enum => degree/number <= int]. *)
