module Program = Zodiac_iac.Program
module Graph = Zodiac_iac.Graph
module Check = Zodiac_spec.Check
module Eval = Zodiac_spec.Eval
module Kb = Zodiac_kb.Kb
module Arm = Zodiac_cloud.Arm
module Parallel = Zodiac_util.Parallel
module Telemetry = Zodiac_util.Telemetry

type deploy = Program.t -> bool
type deploy_batch = Program.t list -> bool list

type iteration = {
  iter : int;
  fp_deployable : int;
  fp_unsat : int;
  fp_no_instance : int;
  tp_single : int;
  tp_group : int;
  remaining : int;
}

type verdict =
  | Validated of { group : string list }
  | Falsified of [ `Deployable | `Unsat | `No_instance | `Stalled ]

type result = {
  validated : Check.t list;
  falsified : (Check.t * verdict) list;
  iterations : iteration list;
  deployments : int;
}

type config = {
  handle_indistinct : bool;
  use_partial_order : bool;
  max_iterations : int;
  tp_limit : int;
  donor_pool : int;
}

let default_config =
  {
    handle_indistinct = true;
    use_partial_order = true;
    max_iterations = 8;
    tp_limit = 2;
    donor_pool = 200;
  }

(* --- evaluation partial order (O4) ---------------------------------- *)

(* Types referenced by others deploy first; a check's rank is the
   highest rank among its bound types, and lower ranks are evaluated
   first. *)
let type_ranks kb =
  let ranks : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let rank ty = Option.value ~default:0 (Hashtbl.find_opt ranks ty) in
  let changed = ref true in
  let guard = ref 0 in
  while !changed && !guard < 64 do
    changed := false;
    incr guard;
    List.iter
      (fun (k : Kb.conn_kind) ->
        let wanted = rank k.Kb.dst_type + 1 in
        if rank k.Kb.src_type < wanted then begin
          Hashtbl.replace ranks k.Kb.src_type wanted;
          changed := true
        end)
      (Kb.conn_kinds kb)
  done;
  rank

let cid c = (Eval.check c).Check.cid

let check_rank rank c =
  List.fold_left
    (fun acc (b : Check.binding) -> max acc (rank b.Check.btype))
    0 (Eval.check c).Check.bindings

(* --- main loop ------------------------------------------------------ *)

type state = {
  mutable rc : Eval.compiled list;
  mutable rv : Eval.compiled list;
  mutable falsified : (Eval.compiled * verdict) list;
  mutable deployments : int;
  tp_cache : (string, Testcase.tp list) Hashtbl.t;
  index : Testcase.index;
}

let find_tps st ~provider ~limit c =
  match Hashtbl.find_opt st.tp_cache (cid c) with
  | Some tps -> tps
  | None ->
      let tps = Testcase.find_indexed ~limit ~provider ~index:st.index c in
      Hashtbl.replace st.tp_cache (cid c) tps;
      tps

let remove_from_rc st id =
  st.rc <- List.filter (fun c -> not (String.equal (cid c) id)) st.rc

let in_rc st c =
  List.exists (fun c' -> String.equal (cid c') (cid c)) st.rc

(* Warm the t_p cache for [checks]: the misses are computed in parallel
   (index search is pure) and committed sequentially, after which
   [find_tps] is a read-only probe that any domain may run. *)
let ensure_tps ?jobs st ~provider ~limit checks =
  let missing =
    List.filter
      (fun c -> not (Hashtbl.mem st.tp_cache (cid c)))
      checks
  in
  let found =
    Parallel.map ?jobs
      (fun c -> Testcase.find_indexed ~limit ~provider ~index:st.index c)
      missing
  in
  List.iter2
    (fun c tps -> Hashtbl.replace st.tp_cache (cid c) tps)
    missing found

(* Union-find style grouping of mutually-inseparable checks. [rc] is
   [st.rc] and [plans] its TP-pass mutants (same target, hard [st.rv],
   soft [rc] minus the target, first t_p), so each check's R_n is read
   off its TP plan instead of being planned a second time. [negative]
   plans a mutant from the scheduler's provider, KB and donors. *)
let compute_groups ?jobs st ~provider ~tp_limit ~negative ~rc ~plans =
  let rns : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  List.iter2
    (fun c plan ->
      let rn =
        match plan with
        | None -> []
        | Some res -> cid c :: res.Mutation.violated_soft
      in
      Hashtbl.replace rns (cid c) rn)
    rc plans;
  let mutual c1 c2 =
    let rn_for c =
      Option.value ~default:[] (Hashtbl.find_opt rns (cid c))
    in
    List.mem (cid c2) (rn_for c1) && List.mem (cid c1) (rn_for c2)
  in
  (* build candidate groups by transitive closure of mutuality *)
  let groups = ref [] in
  List.iter
    (fun c ->
      let joined = ref false in
      groups :=
        List.map
          (fun group ->
            if (not !joined) && List.exists (mutual c) group then begin
              joined := true;
              c :: group
            end
            else group)
          !groups;
      if not !joined then
        let mates =
          List.filter
            (fun c' ->
              (not (String.equal (cid c') (cid c))) && mutual c c')
            rc
        in
        if mates <> [] then groups := (c :: mates) :: !groups)
    rc;
  (* refine: a member is separable if some t_p admits a t_n conforming
     to all other group members (hard) *)
  let refined =
    Parallel.map ?jobs
      (fun group ->
        List.filter
          (fun c ->
            let others =
              List.filter
                (fun c' -> not (String.equal (cid c') (cid c)))
                group
            in
            let separable =
              List.exists
                (fun tp ->
                  Option.is_some
                    (negative ~target:c ~hard:(st.rv @ others) ~soft:[] tp))
                (find_tps st ~provider ~limit:tp_limit c)
            in
            not separable)
          group)
      !groups
  in
  List.filter (fun g -> List.length g >= 2) refined

(* Each pass is batch-synchronous: every surviving check computes its
   mutant from the same pass-start snapshot of (R_c, R_v) — a pure
   computation fanned out across domains — then the whole mutant batch
   deploys in snapshot order, and verdicts are committed sequentially in
   that same order. The result is identical for every [jobs] value; it
   differs from a per-check-interleaved schedule only in that mutants are
   planned against the snapshot rather than against mid-pass removals,
   which batching (the paper's concurrent validation against Azure)
   inherently requires. *)

type 'a plan = No_instance | Unsat | Planned of 'a

let run ?(config = default_config) ?(telemetry = Telemetry.null) ?jobs
    ?deploy_batch ~provider ~kb ~corpus ~deploy candidates =
  let deploy_batch =
    match deploy_batch with Some f -> f | None -> List.map deploy
  in
  let donors =
    List.filteri (fun i _ -> i < config.donor_pool) corpus
  in
  let st =
    {
      rc = List.map Eval.compile candidates;
      rv = [];
      falsified = [];
      deployments = 0;
      tp_cache = Hashtbl.create 256;
      index = Testcase.index corpus;
    }
  in
  let mutations = Atomic.make 0 and counters = Mutation.counters () in
  let negative ~target ~hard ~soft tp =
    Atomic.incr mutations;
    Mutation.negative ~counters ~provider ~kb ~donors ~target ~hard ~soft tp
  in
  let rank = type_ranks kb in
  let order checks =
    if config.use_partial_order then
      List.stable_sort
        (fun c1 c2 -> Int.compare (check_rank rank c1) (check_rank rank c2))
        checks
    else checks
  in
  st.rc <- order st.rc;
  let run_batch planned =
    st.deployments <- st.deployments + List.length planned;
    Telemetry.count telemetry "scheduler.batches" 1;
    Telemetry.count telemetry "scheduler.batch_programs" (List.length planned);
    deploy_batch planned
  in
  let iterations = ref [] in
  let iter_no = ref 0 in
  let progress = ref true in
  while st.rc <> [] && !progress && !iter_no < config.max_iterations do
    incr iter_no;
    let fp_deployable = ref 0 in
    let fp_unsat = ref 0 in
    let fp_no_instance = ref 0 in
    let tp_single = ref 0 in
    let tp_group = ref 0 in
    (* ---- false positive removal pass ---- *)
    let rc0 = order st.rc in
    let rv0 = st.rv in
    ensure_tps ?jobs st ~provider ~limit:config.tp_limit rc0;
    let plans =
      Parallel.map ?jobs
        (fun c ->
          match find_tps st ~provider ~limit:config.tp_limit c with
          | [] -> No_instance
          | tps -> (
              let soft =
                List.filter
                  (fun c' -> not (String.equal (cid c') (cid c)))
                  rc0
              in
              (* only the first t_p that yields a mutant is used *)
              match
                List.find_map (fun tp -> negative ~target:c ~hard:rv0 ~soft tp) tps
              with
              | None -> Unsat
              | Some res -> Planned res))
        rc0
    in
    let to_deploy =
      List.filter_map
        (function Planned res -> Some res.Mutation.program | _ -> None)
        plans
    in
    let verdicts = ref (run_batch to_deploy) in
    let next_verdict () =
      match !verdicts with
      | v :: rest ->
          verdicts := rest;
          v
      | [] -> assert false
    in
    List.iter2
      (fun c plan ->
        match plan with
        | No_instance ->
            if in_rc st c then begin
              remove_from_rc st (cid c);
              st.falsified <- (c, Falsified `No_instance) :: st.falsified;
              incr fp_no_instance
            end
        | Unsat ->
            if in_rc st c then begin
              remove_from_rc st (cid c);
              st.falsified <- (c, Falsified `Unsat) :: st.falsified;
              incr fp_unsat
            end
        | Planned res ->
            let deployable = next_verdict () in
            if in_rc st c && deployable then begin
              (* deployable: c and every violated candidate are FPs *)
              let victims =
                cid c :: res.Mutation.violated_soft
                |> List.filter (fun id ->
                       List.exists
                         (fun c' -> String.equal (cid c') id)
                         st.rc)
              in
              List.iter
                (fun id ->
                  match
                    List.find_opt
                      (fun c' -> String.equal (cid c') id)
                      st.rc
                  with
                  | Some victim ->
                      remove_from_rc st id;
                      st.falsified <-
                        (victim, Falsified `Deployable) :: st.falsified;
                      incr fp_deployable
                  | None -> ())
                victims
            end)
      rc0 plans;
    (* ---- true positive planning ---- *)
    let rc1 = order st.rc in
    let rv1 = st.rv in
    ensure_tps ?jobs st ~provider ~limit:config.tp_limit rc1;
    let plans =
      Parallel.map ?jobs
        (fun c ->
          match find_tps st ~provider ~limit:config.tp_limit c with
          | [] -> None
          | tp :: _ ->
              let soft =
                List.filter
                  (fun c' -> not (String.equal (cid c') (cid c)))
                  rc1
              in
              negative ~target:c ~hard:rv1 ~soft tp)
        rc1
    in
    (* ---- indistinguishable groups (O3), from the TP plans ---- *)
    let groups =
      if config.handle_indistinct then
        compute_groups ?jobs st ~provider ~tp_limit:config.tp_limit ~negative
          ~rc:rc1 ~plans
      else []
    in
    let group_of id =
      List.find_opt
        (fun g -> List.exists (fun c -> String.equal (cid c) id) g)
        groups
    in
    (* ---- true positive validation pass ---- *)
    let to_deploy =
      List.filter_map (Option.map (fun res -> res.Mutation.program)) plans
    in
    let verdicts = ref (run_batch to_deploy) in
    let next_verdict () =
      match !verdicts with
      | v :: rest ->
          verdicts := rest;
          v
      | [] -> assert false
    in
    List.iter2
      (fun c plan ->
        match plan with
        | None -> ()
        | Some res ->
            let deployable = next_verdict () in
            if in_rc st c && not deployable then begin
              let rn =
                cid c
                :: List.filter
                     (fun id ->
                       List.exists
                         (fun c' -> String.equal (cid c') id)
                         st.rc)
                     res.Mutation.violated_soft
              in
              if List.length rn = 1 then begin
                remove_from_rc st (cid c);
                st.rv <- c :: st.rv;
                incr tp_single
              end
              else
                match group_of (cid c) with
                | Some group
                  when List.for_all
                         (fun id ->
                           List.exists
                             (fun g -> String.equal (cid g) id)
                             group)
                         rn ->
                    (* validate every member of R_n together *)
                    List.iter
                      (fun id ->
                        match
                          List.find_opt
                            (fun c' -> String.equal (cid c') id)
                            st.rc
                        with
                        | Some mate ->
                            remove_from_rc st id;
                            st.rv <- mate :: st.rv;
                            incr tp_group
                        | None -> ())
                      rn
                | Some _ | None -> ()
            end)
      rc1 plans;
    let made_progress =
      !fp_deployable + !fp_unsat + !fp_no_instance + !tp_single + !tp_group > 0
    in
    progress := made_progress;
    iterations :=
      {
        iter = !iter_no;
        fp_deployable = !fp_deployable;
        fp_unsat = !fp_unsat;
        fp_no_instance = !fp_no_instance;
        tp_single = !tp_single;
        tp_group = !tp_group;
        remaining = List.length st.rc;
      }
      :: !iterations
  done;
  (* whatever is left could not be resolved *)
  List.iter
    (fun c -> st.falsified <- (c, Falsified `Stalled) :: st.falsified)
    st.rc;
  Telemetry.count telemetry "scheduler.iterations" (List.length !iterations);
  Telemetry.count telemetry "scheduler.deployments" st.deployments;
  Telemetry.count telemetry "scheduler.mutations" (Atomic.get mutations);
  List.iter (fun (name, n) -> Telemetry.count telemetry name n) (Mutation.counter_totals counters);
  {
    validated = List.rev_map Eval.check st.rv;
    falsified = List.rev_map (fun (c, verdict) -> (Eval.check c, verdict)) st.falsified;
    iterations = List.rev !iterations;
    deployments = st.deployments;
  }

let counterexample_pass ?jobs ~provider ~corpus ~deploy validated =
  let defaults = Arm.defaults provider in
  let index = Testcase.index corpus in
  (* Pure phase, fanned out per check: collect the corpus programs whose
     minimal deployable counterexample still violates the check. Only
     programs declaring every bound type can violate it. *)
  let mdcs_of c =
    Testcase.binding_entries index c
    |> Seq.filter_map (fun (entry : Testcase.entry) ->
           match Eval.violations ~defaults entry.Testcase.e_graph c with
           | [] -> None
           | violation :: _ ->
               let mdc = Mdc.prune entry.Testcase.e_prog ~keep:(List.map snd violation) in
               let mdc_graph = Graph.build mdc in
               if Eval.holds ~defaults mdc_graph c then None else Some mdc)
    |> List.of_seq
  in
  let candidates = Parallel.map ?jobs mdcs_of (List.map Eval.compile validated) in
  (* Deploy phase, sequential with the same early exit as a fully
     sequential scan: per check, in corpus order, stop at the first
     deployable counterexample. *)
  let kept, exposed =
    List.partition
      (fun ((_ : Check.t), mdcs) -> not (List.exists deploy mdcs))
      (List.combine validated candidates)
  in
  (List.map fst kept, List.map fst exposed)
