module Check = Zodiac_spec.Check
module Spec_printer = Zodiac_spec.Spec_printer
module Filter = Zodiac_mining.Filter
module Scheduler = Zodiac_validation.Scheduler
module Tablefmt = Zodiac_util.Tablefmt
module Telemetry = Zodiac_util.Telemetry
module Cache = Zodiac_util.Cache
module Rss = Zodiac_util.Rss
module Shard_stream = Zodiac_util.Shard_stream

(* The mining funnel, from the KB to the candidates entering
   validation — shared by the in-memory and the streamed report. *)
let funnel_lines ~kb ~mined ~(filtered : Filter.outcome) ~llm_refined
    ~llm_rejected ~candidates =
  [
    Printf.sprintf "knowledge base: %d attribute entries, %d connection kinds"
      (Zodiac_kb.Kb.size kb)
      (List.length (Zodiac_kb.Kb.conn_kinds kb));
    Printf.sprintf "hypothesized checks: %d" (List.length mined);
    Printf.sprintf "  removed by confidence: %d"
      (List.length filtered.Filter.removed_confidence);
    Printf.sprintf "  removed by lift:       %d"
      (List.length filtered.Filter.removed_lift);
    Printf.sprintf "  kept after filtering:  %d" (List.length filtered.Filter.kept);
    Printf.sprintf "  interpolation queue:   %d (LLM refined %d, rejected %d)"
      (List.length filtered.Filter.interpolation_queue)
      (List.length llm_refined) llm_rejected;
    Printf.sprintf "candidates entering validation: %d" (List.length candidates);
  ]

let mining_summary (a : Pipeline.artifacts) =
  String.concat "\n"
    (Printf.sprintf "corpus: %d projects, %d resources"
       (List.length a.Pipeline.projects)
       (List.fold_left
          (fun acc (_, p) -> acc + Zodiac_iac.Program.size p)
          0 a.Pipeline.corpus)
    :: funnel_lines ~kb:a.Pipeline.kb ~mined:a.Pipeline.mined
         ~filtered:a.Pipeline.filtered ~llm_refined:a.Pipeline.llm_refined
         ~llm_rejected:a.Pipeline.llm_rejected ~candidates:a.Pipeline.candidates
    )

let validation_summary (a : Pipeline.artifacts) =
  let v = a.Pipeline.validation in
  let iteration_lines =
    List.map
      (fun (it : Scheduler.iteration) ->
        Printf.sprintf
          "  iter %d: fp(deployable)=%d fp(unsat)=%d fp(no-instance)=%d tp(single)=%d tp(group)=%d remaining=%d"
          it.Scheduler.iter it.Scheduler.fp_deployable it.Scheduler.fp_unsat
          it.Scheduler.fp_no_instance it.Scheduler.tp_single it.Scheduler.tp_group
          it.Scheduler.remaining)
      v.Scheduler.iterations
  in
  String.concat "\n"
    ([
       Printf.sprintf "validated checks: %d" (List.length v.Scheduler.validated);
       Printf.sprintf "falsified candidates: %d" (List.length v.Scheduler.falsified);
       Printf.sprintf "cloud deployments: %d" v.Scheduler.deployments;
       Printf.sprintf "counterexample pass: kept %d, exposed %d false positives"
         (List.length a.Pipeline.final_checks)
         (List.length a.Pipeline.counterexample_fps);
     ]
    @ iteration_lines)

let category_breakdown checks =
  let count cat =
    List.length (List.filter (fun c -> Check.category c = cat) checks)
  in
  [
    ("intra-resource", count Check.Intra);
    ("inter w/o agg", count Check.Inter_no_agg);
    ("inter w/ agg", count Check.Inter_agg);
    ("interpolation", count Check.Interpolated);
  ]

let checks_listing ?(limit = 20) checks =
  let shown = List.filteri (fun i _ -> i < limit) checks in
  String.concat "\n"
    (List.map (fun c -> "  " ^ Spec_printer.describe c) shown)
  ^
  if List.length checks > limit then
    Printf.sprintf "\n  ... and %d more" (List.length checks - limit)
  else ""

let engine_summary (a : Pipeline.artifacts) =
  Zodiac_engine.Stats.summary a.Pipeline.engine_stats

(* Failed writes are rare enough (read-only dir, disk full) that the
   healthy-run line keeps its historical shape; the suffix appears only
   when something was actually lost. *)
let write_failure_suffix (s : Cache.stats) =
  if s.Cache.write_failures = 0 then ""
  else Printf.sprintf " / %d write failures" s.Cache.write_failures

let cache_line ~off (config : Pipeline.config) (s : Cache.stats) =
  match config.Pipeline.cache_dir with
  | None -> off
  | Some dir ->
      Printf.sprintf "warm-start cache (%s): %d hits / %d misses / %d writes%s"
        dir s.Cache.hits s.Cache.misses s.Cache.writes
        (write_failure_suffix s)

let cache_summary (a : Pipeline.artifacts) =
  cache_line ~off:"warm-start cache: off (--cache-dir to enable)"
    a.Pipeline.config a.Pipeline.cache_stats

let stage_summary telemetry =
  if Telemetry.spans telemetry = [] then None
  else Some (Telemetry.summary_table telemetry)

(* Read at render time only: memory accounting never enters telemetry
   counters (which are compared for determinism) or any artifact. *)
let rss_summary () =
  match Rss.peak_rss_kb () with
  | None -> []
  | Some kb -> [ Printf.sprintf "peak RSS: %.1f MB" (float_of_int kb /. 1024.) ]

let stats_section ?telemetry (a : Pipeline.artifacts) =
  String.concat "\n"
    ([ Tablefmt.section "Run statistics"; cache_summary a ]
    @ (match Option.bind telemetry stage_summary with
      | Some table -> [ table ]
      | None -> [])
    @ [ engine_summary a ]
    @ rss_summary ())

let streamed_summary (s : Pipeline.streamed) =
  let fold_line name (o : Shard_stream.outcome) =
    if o.Shard_stream.shards = 0 then
      Printf.sprintf "  %s pass: final artifact cached (no shards folded)" name
    else
      Printf.sprintf "  %s pass: %d shards (%d resumed from checkpoints, %d built)"
        name o.Shard_stream.shards o.Shard_stream.resumed o.Shard_stream.built
  in
  (* Worker-fleet accounting: a distinct prefix ("mproc kb:", never
     "kb pass:") so line-oriented report parsers keep matching the fold
     lines they matched before multi-process mining existed. *)
  let mproc_lines =
    List.concat_map
      (fun (name, (m : Pipeline.mproc)) ->
        if m.Pipeline.m_workers = 0 then []
        else
          [
            Printf.sprintf
              "  mproc %s: workers=%d claimed=%d built=%d stolen=%d%s" name
              m.Pipeline.m_workers m.Pipeline.m_claimed m.Pipeline.m_built
              m.Pipeline.m_stolen
              (if m.Pipeline.m_failed = 0 then ""
               else Printf.sprintf " failed=%d" m.Pipeline.m_failed);
          ])
      [ ("kb", s.Pipeline.s_kb_mproc); ("mine", s.Pipeline.s_mine_mproc) ]
  in
  String.concat "\n"
    ([
       Printf.sprintf "streamed corpus: %d projects in shards of %d"
         s.Pipeline.s_config.Pipeline.corpus_size
         (let k = s.Pipeline.s_shard_size in
          if k <= 0 then s.Pipeline.s_config.Pipeline.corpus_size else k);
       fold_line "kb" s.Pipeline.s_kb_fold;
       fold_line "mine" s.Pipeline.s_mine_fold;
     ]
    @ mproc_lines
    @ funnel_lines ~kb:s.Pipeline.s_kb ~mined:s.Pipeline.s_mined
        ~filtered:s.Pipeline.s_filtered ~llm_refined:s.Pipeline.s_llm_refined
        ~llm_rejected:s.Pipeline.s_llm_rejected
        ~candidates:s.Pipeline.s_candidates
    @ [
        cache_line
          ~off:
            "warm-start cache: off (--cache-dir to enable checkpointed resume)"
          s.Pipeline.s_config
          s.Pipeline.s_cache_stats;
      ]
    @ rss_summary ())

let full ?telemetry a =
  String.concat "\n"
    [
      Tablefmt.section "Mining phase";
      mining_summary a;
      Tablefmt.section "Validation phase";
      validation_summary a;
      stats_section ?telemetry a;
      Tablefmt.section "Validated checks by category";
      Tablefmt.render
        ~header:[ "category"; "count" ]
        (List.map
           (fun (cat, n) -> [ cat; string_of_int n ])
           (category_breakdown a.Pipeline.final_checks));
      Tablefmt.section "Sample of validated checks";
      checks_listing a.Pipeline.final_checks;
    ]
