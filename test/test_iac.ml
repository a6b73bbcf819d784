(* Tests for the IaC resource model: values, resources, programs,
   graphs, schemas. *)

module Value = Zodiac_iac.Value
module Resource = Zodiac_iac.Resource
module Program = Zodiac_iac.Program
module Graph = Zodiac_iac.Graph
module Schema = Zodiac_iac.Schema
module Path = Zodiac_iac.Path

let v_str s = Value.Str s

(* ---------------- Value --------------------------------------------- *)

let test_value_refs () =
  let v =
    Value.List
      [
        Value.reference "SUBNET" "a" "id";
        Value.Block [ ("x", Value.reference "VPC" "b" "name") ];
        Value.Int 3;
      ]
  in
  Alcotest.(check int) "two refs" 2 (List.length (Value.refs v))

let test_value_map_refs () =
  let v = Value.List [ Value.reference "A" "x" "id" ] in
  let v' =
    Value.map_refs (fun r -> Value.Ref { r with Value.rname = "y" }) v
  in
  match Value.refs v' with
  | [ { Value.rname = "y"; _ } ] -> ()
  | _ -> Alcotest.fail "rename failed"

let test_value_json_roundtrip () =
  let samples =
    [
      Value.Null;
      Value.Bool false;
      Value.Int 7;
      Value.Str "x";
      Value.List [ Value.Str "a"; Value.reference "T" "n" "attr" ];
      Value.Block [ ("k", Value.Block [ ("n", Value.Int 1) ]) ];
      Value.reference "SUBNET" "a" "id";
    ]
  in
  List.iter
    (fun v ->
      Alcotest.(check bool) "roundtrip" true
        (Value.equal v (Value.of_json (Value.to_json v))))
    samples

let test_value_ref_dotted_attr_roundtrip () =
  let v = Value.reference "VM" "a" "os_disk.name" in
  Alcotest.(check bool) "dotted ref roundtrips" true
    (Value.equal v (Value.of_json (Value.to_json v)))

let test_value_cidr () =
  Alcotest.(check bool) "parses" true (Value.cidr (v_str "10.0.0.0/8") <> None);
  Alcotest.(check bool) "non-cidr" true (Value.cidr (v_str "hello") = None);
  Alcotest.(check bool) "non-string" true (Value.cidr (Value.Int 3) = None)

(* ---------------- Resource ------------------------------------------ *)

let sg =
  Resource.make "SG" "fw"
    [
      ("name", v_str "nsg");
      ( "rule",
        Value.List
          [
            Value.Block [ ("name", v_str "r0"); ("priority", Value.Int 100) ];
            Value.Block [ ("name", v_str "r1"); ("priority", Value.Int 200) ];
          ] );
      ("ip_config", Value.Block [ ("subnet_id", Value.reference "SUBNET" "a" "id") ]);
    ]

let test_resource_get () =
  Alcotest.(check bool) "top level" true (Resource.get sg "name" = v_str "nsg");
  Alcotest.(check bool) "nested" true
    (Resource.get sg "ip_config.subnet_id" = Value.reference "SUBNET" "a" "id");
  Alcotest.(check bool) "through list takes first" true
    (Resource.get sg "rule.name" = v_str "r0");
  Alcotest.(check bool) "absent is null" true (Value.is_null (Resource.get sg "zzz"))

let test_resource_get_all_fanout () =
  Alcotest.(check int) "fan out over rules" 2
    (List.length (Resource.get_all sg "rule.name"))

let test_resource_set () =
  let r = Resource.set sg "name" (v_str "new") in
  Alcotest.(check bool) "updated" true (Resource.get r "name" = v_str "new");
  let r = Resource.set sg "ip_config.subnet_id" Value.Null in
  Alcotest.(check bool) "nested nulled" true
    (Value.is_null (Resource.get r "ip_config.subnet_id"));
  let r = Resource.set sg "fresh_attr" (Value.Int 1) in
  Alcotest.(check bool) "added" true (Resource.get r "fresh_attr" = Value.Int 1);
  (* removing a top-level attr by setting Null *)
  let r = Resource.set sg "name" Value.Null in
  Alcotest.(check bool) "removed" true (Resource.attr r "name" = None)

let test_resource_references () =
  let refs = Resource.references sg in
  Alcotest.(check int) "one ref" 1 (List.length refs);
  let path, reference = List.hd refs in
  Alcotest.(check string) "path" "ip_config.subnet_id" path;
  Alcotest.(check string) "target type" "SUBNET" reference.Value.rtype

let test_resource_rename_refs () =
  let r =
    Resource.rename_refs
      ~old_id:{ Resource.rtype = "SUBNET"; rname = "a" }
      ~new_id:{ Resource.rtype = "SUBNET"; rname = "b" }
      sg
  in
  match Resource.references r with
  | [ (_, { Value.rname = "b"; _ }) ] -> ()
  | _ -> Alcotest.fail "rename missed the reference"

let test_resource_attr_paths () =
  let paths = Resource.attr_paths sg in
  Alcotest.(check bool) "has rule.priority" true (List.mem "rule.priority" paths);
  Alcotest.(check bool) "has ip_config.subnet_id" true
    (List.mem "ip_config.subnet_id" paths);
  Alcotest.(check bool) "no duplicates" true
    (List.length paths = List.length (List.sort_uniq compare paths))

let test_resource_json_roundtrip () =
  match Resource.of_json (Resource.to_json sg) with
  | Some r ->
      Alcotest.(check bool) "same id" true
        (Resource.equal_id (Resource.id r) (Resource.id sg))
  | None -> Alcotest.fail "roundtrip failed"

(* ---------------- Program ------------------------------------------- *)

let subnet = Resource.make "SUBNET" "a" [ ("name", v_str "s") ]
let nic =
  Resource.make "NIC" "n"
    [ ("ip_config", Value.Block [ ("subnet_id", Value.reference "SUBNET" "a" "id") ]) ]

let prog = Program.of_resources [ subnet; nic ]

let test_program_basics () =
  Alcotest.(check int) "size" 2 (Program.size prog);
  Alcotest.(check bool) "mem" true (Program.mem prog (Resource.id subnet));
  Alcotest.(check bool) "find" true (Program.find prog (Resource.id nic) <> None);
  Alcotest.(check (list string)) "types" [ "SUBNET"; "NIC" ] (Program.types prog)

let test_program_add_replaces () =
  let subnet' = Resource.set subnet "name" (v_str "other") in
  let p = Program.add prog subnet' in
  Alcotest.(check int) "size unchanged" 2 (Program.size p);
  match Program.find p (Resource.id subnet) with
  | Some r -> Alcotest.(check bool) "replaced" true (Resource.get r "name" = v_str "other")
  | None -> Alcotest.fail "lost resource"

let test_program_remove_update () =
  let p = Program.remove prog (Resource.id nic) in
  Alcotest.(check int) "removed" 1 (Program.size p);
  let p = Program.update prog (Resource.id subnet) (fun r -> Resource.set r "x" (Value.Int 1)) in
  match Program.find p (Resource.id subnet) with
  | Some r -> Alcotest.(check bool) "updated" true (Resource.get r "x" = Value.Int 1)
  | None -> Alcotest.fail "lost resource"

let test_program_fresh_name () =
  let name = Program.fresh_name prog "SUBNET" in
  Alcotest.(check bool) "unused" true
    (not (Program.mem prog { Resource.rtype = "SUBNET"; rname = name }))

let test_program_dangling () =
  let orphan =
    Resource.make "VM" "v" [ ("nic_ids", Value.List [ Value.reference "NIC" "ghost" "id" ]) ]
  in
  let p = Program.add prog orphan in
  Alcotest.(check int) "one dangling" 1 (List.length (Program.dangling_refs p));
  Alcotest.(check int) "none in base" 0 (List.length (Program.dangling_refs prog))

let test_program_json_roundtrip () =
  match Program.of_json (Program.to_json prog) with
  | Some p -> Alcotest.(check bool) "equal" true (Program.equal p prog)
  | None -> Alcotest.fail "roundtrip failed"

(* ---------------- Graph --------------------------------------------- *)

let vm =
  Resource.make "VM" "v"
    [ ("nic_ids", Value.List [ Value.reference "NIC" "n" "id" ]) ]

let graph = Graph.build (Program.of_resources [ subnet; nic; vm ])

let id r = Resource.id r

let test_graph_edges () =
  Alcotest.(check int) "two edges" 2 (List.length (Graph.edges graph));
  Alcotest.(check bool) "nic->subnet" true
    (Graph.conn graph ~src:(id nic) ~src_attr:"ip_config.subnet_id" ~dst:(id subnet)
       ~dst_attr:"id");
  Alcotest.(check bool) "vm->nic" true (Graph.connected graph (id vm) (id nic))

let test_graph_path () =
  Alcotest.(check bool) "vm reaches subnet" true (Graph.path graph (id vm) (id subnet));
  Alcotest.(check bool) "subnet does not reach vm" false
    (Graph.path graph (id subnet) (id vm));
  Alcotest.(check bool) "no self path" false (Graph.path graph (id vm) (id vm))

let test_graph_degrees () =
  Alcotest.(check int) "vm indegree(NIC)=1" 1
    (Graph.indegree graph (id vm) (Graph.Type "NIC"));
  Alcotest.(check int) "nic outdegree(VM)=1" 1
    (Graph.outdegree graph (id nic) (Graph.Type "VM"));
  Alcotest.(check int) "subnet outdegree(!GW)=1" 1
    (Graph.outdegree graph (id subnet) (Graph.Not_type "GW"));
  Alcotest.(check int) "subnet outdegree(GW)=0" 0
    (Graph.outdegree graph (id subnet) (Graph.Type "GW"))

let test_graph_reachability () =
  Alcotest.(check int) "vm reaches 2" 2 (List.length (Graph.reachable_from graph (id vm)));
  Alcotest.(check int) "subnet reached-by 2" 2 (List.length (Graph.reaching graph (id subnet)))

let test_graph_topo_order () =
  let order = Graph.topological_order graph in
  let pos x =
    let rec go i = function
      | [] -> -1
      | y :: rest -> if Resource.equal_id x y then i else go (i + 1) rest
    in
    go 0 order
  in
  Alcotest.(check bool) "subnet before nic" true (pos (id subnet) < pos (id nic));
  Alcotest.(check bool) "nic before vm" true (pos (id nic) < pos (id vm))

let test_graph_cycle_order_total () =
  (* a reference cycle still yields a total order *)
  let a = Resource.make "DISK" "a" [ ("source_id", Value.reference "DISK" "b" "id") ] in
  let b = Resource.make "DISK" "b" [ ("source_id", Value.reference "DISK" "a" "id") ] in
  let g = Graph.build (Program.of_resources [ a; b ]) in
  Alcotest.(check int) "both ordered" 2 (List.length (Graph.topological_order g))

let test_graph_to_dot () =
  let dot = Graph.to_dot graph in
  let has needle =
    let n = String.length needle and m = String.length dot in
    let rec go i = i + n <= m && (String.sub dot i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "digraph" true (has "digraph iac");
  Alcotest.(check bool) "node" true (has "\"SUBNET.a\"");
  Alcotest.(check bool) "edge label" true (has "ip_config.subnet_id")

let test_graph_dangling_no_edge () =
  let lone =
    Resource.make "NIC" "x"
      [ ("ip_config", Value.Block [ ("subnet_id", Value.reference "SUBNET" "ghost" "id") ]) ]
  in
  let g = Graph.build (Program.of_resources [ lone ]) in
  Alcotest.(check int) "no edges" 0 (List.length (Graph.edges g))

(* ---------------- Schema -------------------------------------------- *)

let schema =
  Schema.make "T"
    [
      Schema.attr_v ~req:Schema.Required "name" Schema.T_string;
      Schema.attr_v "blk"
        (Schema.T_block
           [ Schema.attr_v ~req:Schema.Required "inner" Schema.T_int ]);
      Schema.attr_v ~format:(Schema.Enum [ "a"; "b" ]) "mode" Schema.T_string;
      Schema.attr_v "items"
        (Schema.T_list (Schema.T_block [ Schema.attr_v "x" Schema.T_string ]));
    ]

let test_schema_lookup () =
  Alcotest.(check bool) "top" true (Schema.find_attr schema (Path.of_string "name") <> None);
  Alcotest.(check bool) "nested" true (Schema.find_attr schema (Path.of_string "blk.inner") <> None);
  Alcotest.(check bool) "list nested" true (Schema.find_attr schema (Path.of_string "items.x") <> None);
  Alcotest.(check bool) "missing" true (Schema.find_attr schema (Path.of_string "nope") = None)

let test_schema_counts () =
  Alcotest.(check int) "attr count incl nested" 6 (Schema.attr_count schema);
  Alcotest.(check int) "required top-level" 1 (List.length (Schema.required_attrs schema))

let test_schema_leaf_paths () =
  let paths = List.map fst (Schema.leaf_paths schema) in
  Alcotest.(check bool) "blk.inner leaf" true (List.mem "blk.inner" paths);
  Alcotest.(check bool) "blk itself not leaf" true (not (List.mem "blk" paths))

let test_schema_enum () =
  Alcotest.(check (option (list string))) "enum" (Some [ "a"; "b" ])
    (Schema.enum_values schema "mode");
  Alcotest.(check bool) "no enum" true (Schema.enum_values schema "name" = None)

(* ---------------- Path --------------------------------------------- *)

(* The dotted-path walker before [Path] existed, kept verbatim as the
   reference for [Resource.get]/[get_all]/[set]/[attr_paths]. *)
module Reference = struct
  let split_path path = String.split_on_char '.' path

  let rec walk ~fanout segments value =
    match segments with
    | [] -> [ value ]
    | seg :: rest -> (
        match value with
        | Value.Block fields -> (
            match List.assoc_opt seg fields with
            | Some v -> walk ~fanout rest v
            | None -> [])
        | Value.List items ->
            let items = if fanout then items else match items with [] -> [] | x :: _ -> [ x ] in
            List.concat_map (walk ~fanout (seg :: rest)) items
        | Value.Null | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Ref _ -> [])

  let lookup ~fanout (r : Resource.t) path =
    match split_path path with
    | [] -> []
    | seg :: rest -> (
        match Resource.attr r seg with
        | None -> []
        | Some v -> walk ~fanout rest v)

  let get r path = match lookup ~fanout:false r path with [] -> Value.Null | v :: _ -> v
  let get_all r path = lookup ~fanout:true r path

  let rec update_value segments v value =
    match segments with
    | [] -> v
    | seg :: rest -> (
        match value with
        | Value.Block fields ->
            let found = ref false in
            let fields =
              List.map
                (fun (k, old) ->
                  if String.equal k seg then begin
                    found := true;
                    (k, update_value rest v old)
                  end
                  else (k, old))
                fields
            in
            let fields =
              if !found then fields else fields @ [ (seg, update_value rest v Value.Null) ]
            in
            Value.Block fields
        | Value.List (x :: xs) -> Value.List (update_value (seg :: rest) v x :: xs)
        | Value.List [] | Value.Null | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Ref _ ->
            update_value rest v (Value.Block []))

  let set (r : Resource.t) path v =
    match split_path path with
    | [] -> r
    | [ seg ] when Value.is_null v ->
        { r with attrs = List.filter (fun (k, _) -> not (String.equal k seg)) r.attrs }
    | seg :: rest ->
        let found = ref false in
        let attrs =
          List.map
            (fun (k, old) ->
              if String.equal k seg then begin
                found := true;
                (k, update_value rest v old)
              end
              else (k, old))
            r.attrs
        in
        let attrs =
          if !found then attrs else attrs @ [ (seg, update_value rest v Value.Null) ]
        in
        { r with attrs }

  let attr_paths (r : Resource.t) =
    let acc = ref [] in
    let add path = if not (List.mem path !acc) then acc := path :: !acc in
    let rec walk path value =
      match value with
      | Value.Null | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Ref _ -> add path
      | Value.List items -> if items = [] then add path else List.iter (walk path) items
      | Value.Block fields ->
          if fields = [] then add path
          else List.iter (fun (k, v) -> walk (path ^ "." ^ k) v) fields
    in
    List.iter (fun (k, v) -> walk k v) r.attrs;
    List.rev !acc
end

(* Random resources: nested blocks, lists of blocks, lists of lists,
   repeated keys, from a small key alphabet so paths collide. *)
let keys = [ "a"; "b"; "rule"; "x" ]

let gen_value =
  let open QCheck.Gen in
  let key = oneofl keys in
  let scalar =
    oneof
      [
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) (int_bound 3);
        map (fun s -> Value.Str s) (oneofl [ "p"; "q" ]);
        return (Value.reference "T" "n" "id");
      ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self n ->
         if n = 0 then scalar
         else
           frequency
             [
               (2, scalar);
               (2, map (fun l -> Value.List l) (list_size (int_bound 3) (self (n - 1))));
               (3, map (fun l -> Value.Block l) (list_size (int_bound 3) (pair key (self (n - 1)))));
             ])

let gen_resource =
  QCheck.Gen.(
    map (Resource.make "T" "r") (list_size (int_bound 4) (pair (oneofl keys) gen_value)))

let gen_path =
  QCheck.Gen.(map (String.concat ".") (list_size (int_range 1 4) (oneofl (keys @ [ "zz" ]))))

let print_case (r, paths, v) =
  Format.asprintf "%a@ paths: %s@ set: %s" Resource.pp r (String.concat ", " paths)
    (Value.to_string v)

let walker_agrees_with_reference =
  QCheck.Test.make ~name:"walker agrees with the dotted-path reference" ~count:500
    (QCheck.make ~print:print_case
       QCheck.Gen.(triple gen_resource (list_size (int_bound 4) gen_path) gen_value))
    (fun (r, extra, v) ->
      let paths = Reference.attr_paths r @ extra in
      Resource.attr_paths r = Reference.attr_paths r
      && List.for_all
           (fun p ->
             Value.equal (Resource.get r p) (Reference.get r p)
             && Resource.get_all r p = Reference.get_all r p
             && (Resource.set r p v).attrs = (Reference.set r p v).attrs)
           paths
      && List.for_all
           (fun (l : Path.leaf) ->
             Value.equal l.head (Reference.get r l.path) && l.all = Reference.get_all r l.path)
           (Path.leaves r.attrs))

let of_string_roundtrips =
  QCheck.Test.make ~name:"to_string (of_string s) = s" ~count:1000
    (QCheck.make ~print:Fun.id
       QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'i'; '0'; '.'; '['; ']'; '_' ]) (int_bound 12)))
    (fun s -> Path.to_string (Path.of_string s) = s)

(* Every endpoint text in the checks Zodiac ships reads back verbatim. *)
let test_path_roundtrip () =
  let roundtrips s =
    Alcotest.(check string) "to_string (of_string s)" s (Path.to_string (Path.of_string s));
    match Path.parse s with
    | Ok p -> Alcotest.(check string) "to_string (parse s)" s (Path.to_string p)
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  let words text =
    String.split_on_char ' ' text
    |> List.map (String.map (function '(' | ')' | ',' | '!' -> ' ' | c -> c))
    |> List.concat_map (String.split_on_char ' ')
    |> List.filter (fun w -> String.contains w '.')
  in
  List.iter
    (fun (t : Zodiac_mining.Templates.t) ->
      List.iter roundtrips (words t.shape @ words t.example))
    Zodiac_mining.Templates.all;
  List.iter
    (fun (provider : Zodiac_provider.Provider.t) ->
      List.iter
        (fun (rule : Zodiac_provider.Provider.rule) ->
          let c = rule.check in
          List.iter
            (fun (e : Zodiac_spec.Check.endpoint) -> roundtrips e.attr)
            (Zodiac_spec.Check.attrs_of_expr c.cond @ Zodiac_spec.Check.attrs_of_expr c.stmt))
        (provider.ground_truth ()))
    [ Zodiac_azure.Azure.provider; Zodiac_aws.Aws.provider ]

let test_path_grammar () =
  let p = Path.of_string "rule[i].ports[j].from" in
  Alcotest.(check (list string)) "index vars" [ "i"; "j" ] (Path.index_vars p);
  Alcotest.(check string) "strip" "rule.ports.from" (Path.to_string (Path.strip p));
  Alcotest.(check string) "bind" "rule[1].ports[j].from"
    (Path.to_string (Path.bind [ ("i", 1) ] p));
  List.iter
    (fun bad ->
      Alcotest.(check bool) bad true (Result.is_error (Path.parse bad));
      Alcotest.(check string) "lenient roundtrip" bad (Path.to_string (Path.of_string bad)))
    [ "rule[ab].x"; "rule[0].x"; "rule[i"; "rule[].x"; "[i].x"; "a..b"; "rule[I]" ];
  let rules = Value.List [ Value.Block [ ("p", Value.Int 1) ]; Value.Block [ ("p", Value.Int 2) ] ] in
  let v = Value.Block [ ("rule", rules) ] in
  let p = Path.of_string "rule[i].p" in
  Alcotest.(check bool) "indexed get" true (Path.get ~env:[ ("i", 1) ] p v = Value.Int 2);
  Alcotest.(check bool) "unbound index reads nothing" true (Path.get p v = Value.Null);
  Alcotest.(check (option int)) "range" (Some 2) (Path.index_range p "i" v);
  Alcotest.(check (option int)) "no such index" None (Path.index_range p "j" v);
  Alcotest.(check bool) "indexed set touches one element" true
    (Path.get_all (Path.of_string "rule.p") (Path.set (Path.bind [ ("i", 1) ] p) (Value.Int 9) v)
    = [ Value.Int 1; Value.Int 9 ])

let () =
  Alcotest.run "iac"
    [
      ( "value",
        [
          Alcotest.test_case "refs" `Quick test_value_refs;
          Alcotest.test_case "map_refs" `Quick test_value_map_refs;
          Alcotest.test_case "json roundtrip" `Quick test_value_json_roundtrip;
          Alcotest.test_case "dotted ref roundtrip" `Quick test_value_ref_dotted_attr_roundtrip;
          Alcotest.test_case "cidr" `Quick test_value_cidr;
        ] );
      ( "resource",
        [
          Alcotest.test_case "get" `Quick test_resource_get;
          Alcotest.test_case "get_all fanout" `Quick test_resource_get_all_fanout;
          Alcotest.test_case "set" `Quick test_resource_set;
          Alcotest.test_case "references" `Quick test_resource_references;
          Alcotest.test_case "rename refs" `Quick test_resource_rename_refs;
          Alcotest.test_case "attr paths" `Quick test_resource_attr_paths;
          Alcotest.test_case "json roundtrip" `Quick test_resource_json_roundtrip;
        ] );
      ( "program",
        [
          Alcotest.test_case "basics" `Quick test_program_basics;
          Alcotest.test_case "add replaces" `Quick test_program_add_replaces;
          Alcotest.test_case "remove/update" `Quick test_program_remove_update;
          Alcotest.test_case "fresh name" `Quick test_program_fresh_name;
          Alcotest.test_case "dangling refs" `Quick test_program_dangling;
          Alcotest.test_case "json roundtrip" `Quick test_program_json_roundtrip;
        ] );
      ( "graph",
        [
          Alcotest.test_case "edges" `Quick test_graph_edges;
          Alcotest.test_case "path" `Quick test_graph_path;
          Alcotest.test_case "degrees" `Quick test_graph_degrees;
          Alcotest.test_case "reachability" `Quick test_graph_reachability;
          Alcotest.test_case "topological order" `Quick test_graph_topo_order;
          Alcotest.test_case "cycles still ordered" `Quick test_graph_cycle_order_total;
          Alcotest.test_case "dangling refs make no edges" `Quick test_graph_dangling_no_edge;
          Alcotest.test_case "dot export" `Quick test_graph_to_dot;
        ] );
      ( "schema",
        [
          Alcotest.test_case "lookup" `Quick test_schema_lookup;
          Alcotest.test_case "counts" `Quick test_schema_counts;
          Alcotest.test_case "leaf paths" `Quick test_schema_leaf_paths;
          Alcotest.test_case "enum values" `Quick test_schema_enum;
        ] );
      ( "path",
        [
          Alcotest.test_case "grammar" `Quick test_path_grammar;
          Alcotest.test_case "shipped endpoints round-trip" `Quick test_path_roundtrip;
          QCheck_alcotest.to_alcotest of_string_roundtrips;
          QCheck_alcotest.to_alcotest walker_agrees_with_reference;
        ] );
    ]
