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

(* Domains actually worth using for [len] items when the caller asked
   for [jobs]: never more than the hardware has (oversubscribing a box
   only adds contention — the determinism contract makes the clamp
   invisible in results), never more than [len], and only the calling
   domain below the small-input cutoff, where waking a helper costs
   more than the work. *)
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

(* ---- the helper pool -----------------------------------------------
   [recommended_jobs () - 1] helper domains, spawned by the first call
   that wants a second domain and kept for the life of the process: a
   domain spawned per call brings a fresh heap each time, which on a
   streamed mine raised peak RSS by about a third. An idle helper
   blocks in [Condition.wait]; it burns no CPU and does not hold up
   process exit.

   One call holds the pool at a time ([busy]). A call that finds it
   held — a nested call from inside a chunk, on a helper or on the
   holder, or a call from another domain — runs its chunks in the
   calling domain, which the contract makes invisible in results. *)

type batch = {
  n : int;
  chunk : int -> unit;  (* never raises: failures are recorded *)
  next : int Atomic.t;  (* next unclaimed chunk *)
  mutable seats : int;  (* helpers that may still join; under [lock] *)
  mutable active : int;  (* helpers working on it; under [lock] *)
}

let busy = Atomic.make false
let lock = Mutex.create ()
let posted = Condition.create ()
let left = Condition.create ()
let current : batch option ref = ref None

(* Read and set only while holding [busy]. *)
let started = ref false
let helpers = ref 0

let drain b =
  let rec loop () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.n then begin
      b.chunk i;
      loop ()
    end
  in
  loop ()

let helper () =
  Mutex.lock lock;
  while true do
    match !current with
    | Some b when b.seats > 0 ->
        b.seats <- b.seats - 1;
        b.active <- b.active + 1;
        Mutex.unlock lock;
        drain b;
        Mutex.lock lock;
        b.active <- b.active - 1;
        if b.active = 0 then Condition.signal left
    | _ -> Condition.wait posted lock
  done

(* Past the runtime's domain limit (a daemon with very many client
   domains) the pool keeps the helpers it got, possibly none. *)
let start_helpers () =
  if not !started then begin
    started := true;
    for _ = 2 to recommended_jobs () do
      match Domain.spawn helper with
      | _ -> incr helpers
      | exception Failure _ -> ()
    done
  end

(* Run [f_chunk i] for every [i] in [0, n) on the calling domain plus
   up to [jobs - 1] helpers. Exceptions are captured per chunk; once
   every helper has left the batch, the exception of the lowest-indexed
   failing chunk is re-raised with its backtrace. Since each chunk
   processes its elements in order and stops at the first failure, this
   is the lowest-indexed failing input among those evaluated — matching
   what a sequential run raises. *)
let run_chunks ~jobs ~n f_chunk =
  let jobs = min jobs (recommended_jobs ()) in
  if n > 0 then begin
    ignore (Atomic.fetch_and_add scheduled n);
    if jobs <= 1 || n = 1 || not (Atomic.compare_and_set busy false true)
    then
      for i = 0 to n - 1 do
        f_chunk i
      done
    else begin
      start_helpers ();
      let errors = Array.make n None in
      let chunk i =
        try f_chunk i
        with e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ())
      in
      let b =
        {
          n;
          chunk;
          next = Atomic.make 0;
          seats = min !helpers (min jobs n - 1);
          active = 0;
        }
      in
      Mutex.lock lock;
      current := Some b;
      Condition.broadcast posted;
      Mutex.unlock lock;
      drain b;
      Mutex.lock lock;
      current := None;
      b.seats <- 0;
      while b.active > 0 do
        Condition.wait left lock
      done;
      Mutex.unlock lock;
      Atomic.set busy false;
      Array.iter
        (function
          | Some (e, bt) -> Printexc.raise_with_backtrace e bt
          | None -> ())
        errors
    end
  end

let collect out =
  Array.to_list
    (Array.map
       (function
         | Some y -> y
         | None -> assert false (* every slot written or we raised *))
       out)

(* Finer-grained than [map_chunks]: a few chunks per domain so a slow
   element does not leave the other domains idle. Output is unaffected
   by the granularity — only load balance is. *)
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
      collect out
      end

let map ?jobs f xs = mapi ?jobs (fun _ x -> f x) xs

let map_chunks ?jobs f xs =
  let arr = Array.of_list xs in
  let len = Array.length arr in
  if len = 0 then []
  else begin
    let n = effective_jobs ~len (resolve_jobs jobs) in
    let out = Array.make n None in
    run_chunks ~jobs:n ~n (fun ci ->
        let lo, hi = bounds ~len ~n ci in
        out.(ci) <- Some (f (Array.to_list (Array.sub arr lo (hi - lo)))));
    collect out
  end
