module Value = Zodiac_iac.Value
module Resource = Zodiac_iac.Resource
module Program = Zodiac_iac.Program
module Graph = Zodiac_iac.Graph
module Arm = Zodiac_cloud.Arm

type action =
  | Create of Resource.id
  | Update_in_place of Resource.id * string list
  | Replace of Resource.id * string list
  | Destroy of Resource.id
  | Noop of Resource.id

(* Which attribute changes force replacement is provider knowledge
   (names and locations are immutable everywhere in Azure and most of
   AWS; structural attributes vary per type). *)
let immutable_attrs provider rtype =
  provider.Zodiac_provider.Provider.immutable_attrs rtype

let changed_paths old_r new_r =
  let paths =
    List.sort_uniq compare (Resource.attr_paths old_r @ Resource.attr_paths new_r)
  in
  List.filter
    (fun path -> not (Value.equal (Resource.get old_r path) (Resource.get new_r path)))
    paths

let matches_prefix immutables path =
  List.exists
    (fun im ->
      String.equal im path
      || (String.length path > String.length im
         && String.sub path 0 (String.length im + 1) = im ^ "."))
    immutables

let plan ~provider ~current ~desired =
  let desired_graph = Graph.build desired in
  (* first pass: direct classification *)
  let direct =
    List.map
      (fun new_r ->
        let id = Resource.id new_r in
        match Program.find current id with
        | None -> Create id
        | Some old_r -> (
            match changed_paths old_r new_r with
            | [] -> Noop id
            | changes ->
                let forces_replace =
                  List.exists
                    (matches_prefix (immutable_attrs provider id.Resource.rtype))
                    changes
                in
                if forces_replace then Replace (id, changes)
                else Update_in_place (id, changes)))
      (Program.resources desired)
  in
  let destroys =
    List.filter_map
      (fun old_r ->
        let id = Resource.id old_r in
        if Program.mem desired id then None else Some (Destroy id))
      (Program.resources current)
  in
  (* replacement cascade: anything transitively referencing a replaced
     resource must be replaced too *)
  let replaced_ids =
    List.filter_map (function Replace (id, _) -> Some id | _ -> None) direct
  in
  let cascade =
    List.concat_map (fun id -> Graph.reaching desired_graph id) replaced_ids
  in
  let in_cascade id = List.exists (Resource.equal_id id) cascade in
  let direct =
    List.map
      (fun action ->
        match action with
        | Noop id when in_cascade id -> Replace (id, [])
        | Update_in_place (id, changes) when in_cascade id -> Replace (id, changes)
        | other -> other)
      direct
  in
  direct @ destroys

type result = {
  actions : action list;
  recreated : Resource.id list;
  outcome : Arm.outcome;
}

let apply ~provider ?rules ~current ~desired () =
  let actions = plan ~provider ~current ~desired in
  let recreated =
    List.filter_map (function Replace (id, _) -> Some id | _ -> None) actions
  in
  (* The recreated and created resources must pass the full deployment
     validation; in-place updates and noops are re-validated as part of
     the same program (the cloud re-checks the whole configuration). *)
  { actions; recreated; outcome = Arm.deploy ~provider ?rules desired }

let disruption result = List.length result.recreated
