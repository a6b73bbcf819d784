(* Checkpointed shard folds. See shard_stream.mli. *)

type outcome = { shards : int; resumed : int; built : int }

let no_shards = { shards = 0; resumed = 0; built = 0 }

let plan ~total ~shard_size =
  if total <= 0 then []
  else
    let k = if shard_size <= 0 then total else shard_size in
    let rec go i lo acc =
      if lo >= total then List.rev acc
      else
        let hi = min total (lo + k) in
        go (i + 1) hi ((i, lo, hi) :: acc)
    in
    go 0 0 []

let shard_key ~key ~lo ~hi =
  Codec.fingerprint [ "shard"; key; string_of_int lo; string_of_int hi ]

let fold ?cache ?(telemetry = Telemetry.null) ?on_shard ~stage ~key ~write
    ~read ~load ~count ~merge ~init ~total ~shard_size () =
  let shards = plan ~total ~shard_size in
  let nshards = List.length shards in
  let resumed = ref 0 and built = ref 0 in
  let acc =
    List.fold_left
      (fun acc (i, lo, hi) ->
        let ckey = shard_key ~key ~lo ~hi in
        let checkpointed =
          Option.bind cache (fun c -> Cache.find c ~stage ~key:ckey read)
        in
        let value =
          match checkpointed with
          | Some v ->
              incr resumed;
              v
          | None ->
              let v = count (load ~lo ~hi) in
              Option.iter
                (fun c ->
                  Cache.store c ~stage ~key:ckey (fun b -> write b v))
                cache;
              incr built;
              Telemetry.count telemetry "shard.items" (hi - lo);
              v
        in
        (* The first shard's value seeds the accumulator: merging it
           into [init] would only copy it. *)
        let acc =
          match acc with None -> Some value | Some acc -> Some (merge acc value)
        in
        (* The shard's projects and private tables are garbage now.
           On OCaml 5.1 [Gc.compact] is a full major collection that
           moves nothing ([Gc.quick_stat]'s [compactions] stays 0); it
           frees that garbage before the next shard allocates, so the
           next shard reuses the space. What bounds peak RSS is that
           one shard is live at a time plus the caller's GC pacing
           ([Pipeline]'s lowered [space_overhead]): on a 2-core host,
           mining 5000 projects in 10 shards peaked at 44-47 MB
           without the pacing and 32-35 MB without this collection,
           against 31-34 MB with both. A one-shard plan has no next
           shard to make room for. Results are unaffected. *)
        if nshards > 1 then Gc.compact ();
        (match on_shard with
        | Some f ->
            f ~index:i ~shards:nshards ~built:(Option.is_none checkpointed)
        | None -> ());
        acc)
      None shards
    |> Option.value ~default:init
  in
  let outcome = { shards = nshards; resumed = !resumed; built = !built } in
  Telemetry.count telemetry "shard.total" outcome.shards;
  Telemetry.count telemetry "shard.resumed" outcome.resumed;
  Telemetry.count telemetry "shard.built" outcome.built;
  (acc, outcome)

(* ---- fixed-slice worker -------------------------------------------
   The multi-process half of the stream: worker K of N checkpoints the
   shards whose index is K mod N and never merges. The parent's
   subsequent [fold] resumes every checkpoint in shard order: that fold
   IS the merge pass, and doubles as the crash backstop, rebuilding
   inline any shard a dead worker left (or whose checkpoint is
   corrupt). Slices are disjoint, so no shard is built twice. *)

let fold_worker ~cache ~slice:(k, n) ~stage ~key ~write ~load ~count ~total
    ~shard_size () =
  if n < 1 || k < 0 || k >= n then
    invalid_arg (Printf.sprintf "Shard_stream.fold_worker: bad slice %d/%d" k n);
  List.fold_left
    (fun built (i, lo, hi) ->
      let ckey = shard_key ~key ~lo ~hi in
      if i mod n <> k || Cache.mem cache ~stage ~key:ckey then built
      else begin
        let v = count (load ~lo ~hi) in
        Cache.store cache ~stage ~key:ckey (fun b -> write b v);
        (* A full major collection, as in [fold]: the next shard
           reuses this one's space. *)
        Gc.compact ();
        built + 1
      end)
    0 (plan ~total ~shard_size)
