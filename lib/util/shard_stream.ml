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

let claim_name ~stage ~key ~lo ~hi =
  Printf.sprintf "%s-%s" stage (shard_key ~key ~lo ~hi)

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
        (* The shard's projects and private tables are garbage now;
           compacting keeps the heap at the live set so peak RSS
           tracks one shard plus the accumulator, not fifty shards
           of churn. A one-shard plan has no next shard to make room
           for. Results are unaffected. *)
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

(* ---- claim-driven worker sweep -------------------------------------
   The multi-process half of the stream: a worker never merges — it
   only races its siblings to checkpoint shards, sweeping the plan and
   claiming un-checkpointed shards through {!Cache.try_claim}. The
   parent's subsequent [fold] then resumes every checkpoint in shard
   order — that fold IS the merge pass, and doubles as the crash
   backstop: any shard no worker finished (or whose checkpoint is
   corrupt) is simply rebuilt inline. Claims arbitrate WHO builds;
   checkpoint bytes are deterministic, so duplicated work after a
   stale-claim takeover changes nothing. *)

type worker_outcome = {
  w_claimed : int;
  w_built : int;
  w_stolen : int;
  w_waits : int;
}

let fold_worker ~cache ?(telemetry = Telemetry.null) ?stale_after
    ?(poll_interval = 0.05) ~stage ~key ~write ~load ~count ~total
    ~shard_size () =
  let shards = plan ~total ~shard_size in
  let owner = Printf.sprintf "pid%d" (Unix.getpid ()) in
  Telemetry.with_span telemetry "shard.worker" (fun () ->
      let claimed = ref 0 and built = ref 0 in
      let stolen = ref 0 and waits = ref 0 in
      let done_ ckey = Cache.mem cache ~stage ~key:ckey in
      (* One sweep: try to build every shard that is neither
         checkpointed nor claimed by a live sibling. Returns [true]
         when every shard in the plan has a checkpoint. *)
      let sweep () =
        List.fold_left
          (fun all_done (_i, lo, hi) ->
            let ckey = shard_key ~key ~lo ~hi in
            if done_ ckey then all_done
            else
              let name = claim_name ~stage ~key ~lo ~hi in
              match Cache.try_claim ?stale_after cache ~name ~owner with
              | Cache.Busy -> false
              | Cache.Claimed { stolen = st } ->
                  Fun.protect
                    ~finally:(fun () -> Cache.release cache ~name)
                    (fun () ->
                      (* The previous holder may have finished the
                         store and died before releasing: re-probe
                         under the claim before re-mining. *)
                      if not (done_ ckey) then begin
                        incr claimed;
                        if st then incr stolen;
                        let v = count (load ~lo ~hi) in
                        Cache.store cache ~stage ~key:ckey (fun b ->
                            write b v);
                        incr built;
                        Telemetry.count telemetry "shard.items" (hi - lo);
                        Gc.compact ()
                      end);
                  all_done)
          true shards
      in
      let rec run () =
        if not (sweep ()) then begin
          (* Shards remain, all claimed by live siblings: poll until
             they checkpoint (or their claims go stale). *)
          incr waits;
          Unix.sleepf poll_interval;
          run ()
        end
      in
      run ();
      let outcome =
        {
          w_claimed = !claimed;
          w_built = !built;
          w_stolen = !stolen;
          w_waits = !waits;
        }
      in
      Telemetry.count telemetry "mproc.claimed" outcome.w_claimed;
      Telemetry.count telemetry "mproc.built" outcome.w_built;
      Telemetry.count telemetry "mproc.stolen" outcome.w_stolen;
      Telemetry.count telemetry "mproc.waits" outcome.w_waits;
      outcome)
