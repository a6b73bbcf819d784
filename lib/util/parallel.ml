(* Deterministic domain pool. See parallel.mli for the contract.

   Scheduling is work-stealing over chunk indices via one [Atomic.t]; the
   nondeterminism of which domain runs which chunk never leaks into results
   because every chunk writes to slots owned by its input positions and
   merges happen strictly in index order afterwards. *)

let recommended_jobs () = max 1 (Domain.recommended_domain_count ())

let resolve_jobs = function
  | None -> recommended_jobs ()
  | Some j -> max 1 j

let sequential_cutoff = 8

(* Monotone count of chunks handed to workers since program start.
   Telemetry reads it before/after a stage to report scheduling
   granularity (the [parallel.chunks] counter). Scheduling metadata
   only: the value varies with [jobs] and the host's domain count and
   never influences results. *)
let scheduled = Atomic.make 0

let chunks_scheduled () = Atomic.get scheduled

(* Domains actually worth spawning for [len] items when the caller asked
   for [jobs]: never more than the hardware has (oversubscribing a box
   only adds spawn/contention overhead — the determinism contract makes
   the clamp invisible in results), never more than [len], and none at
   all below the small-input cutoff, where spawn cost dominates. *)
let effective_jobs ~len jobs =
  if len < sequential_cutoff then 1
  else max 1 (min len (min jobs (recommended_jobs ())))

(* Contiguous chunk boundaries: chunk [i] of [n] over [len] elements covers
   [\lfloor i*len/n \rfloor, \lfloor (i+1)*len/n \rfloor). Depends only on
   [len] and [n]. *)
let bounds ~len ~n i =
  let lo = i * len / n in
  let hi = (i + 1) * len / n in
  (lo, hi)

let chunks ?jobs xs =
  let jobs = resolve_jobs jobs in
  let arr = Array.of_list xs in
  let len = Array.length arr in
  if len = 0 then []
  else
    let n = effective_jobs ~len jobs in
    ignore (Atomic.fetch_and_add scheduled n);
    List.init n (fun i ->
        let lo, hi = bounds ~len ~n i in
        Array.to_list (Array.sub arr lo (hi - lo)))

(* Run [f_chunk i] for every [i] in [0, n) on up to [jobs] domains (the
   calling domain participates). Exceptions are captured per chunk; after
   all domains join, the exception of the lowest-indexed failing chunk is
   re-raised with its backtrace. Since each chunk processes its elements in
   order and stops at the first failure, this is the lowest-indexed failing
   input among those evaluated — matching what a sequential run raises. *)
let run_chunks ~jobs ~n f_chunk =
  let jobs = min jobs (recommended_jobs ()) in
  if n <= 0 then ()
  else begin
  ignore (Atomic.fetch_and_add scheduled n);
  if jobs <= 1 || n = 1 then
    for i = 0 to n - 1 do
      f_chunk i
    done
  else begin
    let next = Atomic.make 0 in
    let errors = Array.make n None in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (try f_chunk i
           with e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
          loop ()
        end
      in
      loop ()
    in
    let spawned =
      List.init (min jobs n - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join spawned;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors
  end
  end

(* Finer-grained than [chunks]: a few chunks per domain so a slow element
   does not leave the other domains idle. Output is unaffected by the
   granularity — only load balance is. *)
let chunk_count ~len ~jobs = max 1 (min len (jobs * 4))

let mapi ?jobs f xs =
  let jobs = resolve_jobs jobs in
  match xs with
  | [] -> []
  | [ x ] -> [ f 0 x ]
  | _ when jobs <= 1 -> List.mapi f xs
  | _ ->
      let arr = Array.of_list xs in
      let len = Array.length arr in
      let jobs = effective_jobs ~len jobs in
      if jobs <= 1 then List.mapi f xs
      else begin
      let out = Array.make len None in
      let n = chunk_count ~len ~jobs in
      run_chunks ~jobs ~n (fun ci ->
          let lo, hi = bounds ~len ~n ci in
          for i = lo to hi - 1 do
            out.(i) <- Some (f i arr.(i))
          done);
      Array.to_list
        (Array.map
           (function
             | Some y -> y
             | None -> assert false (* every slot written or we raised *))
           out)
      end

let map ?jobs f xs = mapi ?jobs (fun _ x -> f x) xs
