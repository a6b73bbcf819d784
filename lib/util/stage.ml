(* The stage runner. See stage.mli. *)

type 'a artifact = {
  write : Codec.sink -> 'a -> unit;
  read : Codec.src -> 'a;
}

let run ?cache ?(telemetry = Telemetry.null) ?jobs ~name ~key ?size ~artifact
    fold =
  let jobs =
    match jobs with Some j -> max 1 j | None -> Parallel.recommended_jobs ()
  in
  Telemetry.with_span telemetry name (fun () ->
      Telemetry.note telemetry "jobs" (string_of_int jobs);
      let set_source s = Telemetry.note telemetry "source" s in
      let stats0 = Option.map Cache.stats cache in
      let chunks0 = Parallel.chunks_scheduled () in
      let v =
        (* Exact hit → resume from per-shard checkpoints (inside
           [fold]) → cold. A cacheless run still folds. *)
        match cache with
        | None ->
            set_source "uncached";
            fold ()
        | Some c -> (
            match Cache.find ?size c ~stage:name ~key artifact.read with
            | Some v ->
                set_source "warm";
                v
            | None ->
                let v = fold () in
                Cache.store ?size c ~stage:name ~key (fun b ->
                    artifact.write b v);
                set_source "streamed";
                v)
      in
      (match (cache, stats0) with
      | Some c, Some s0 ->
          let s1 = Cache.stats c in
          Telemetry.count telemetry "cache.hits" (s1.Cache.hits - s0.Cache.hits);
          Telemetry.count telemetry "cache.misses"
            (s1.Cache.misses - s0.Cache.misses);
          Telemetry.count telemetry "cache.writes"
            (s1.Cache.writes - s0.Cache.writes);
          (* Only surfaced when something actually failed, so healthy
             runs keep their historical counter sets. *)
          let failed = s1.Cache.write_failures - s0.Cache.write_failures in
          if failed <> 0 then
            Telemetry.count telemetry "cache.write_failures" failed
      | _ -> ());
      Telemetry.count telemetry "parallel.chunks"
        (Parallel.chunks_scheduled () - chunks0);
      v)
