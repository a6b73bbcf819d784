module Json = Zodiac_util.Json
module Lexer = Zodiac_hcl.Lexer

type finding = {
  rule_id : string;
  message : string;
  bindings : (string * string) list;
  explanation : string;
  file : string;
  line : int;
}

(* ---- resource -> line index ----------------------------------------- *)

type line_index = (string * string, int) Hashtbl.t

let plain_label = function
  | Lexer.Str [ Zodiac_hcl.Ast.Lit s ] -> Some s
  | Lexer.Ident s -> Some s
  | _ -> None

(* Top-level [resource "type" "name"] headers only: nested blocks never
   define resources, so brace depth gates the match. *)
let index_tokens tokens =
  let idx : line_index = Hashtbl.create 16 in
  let depth = ref 0 in
  let rec scan = function
    | [] -> ()
    | { Lexer.tok = Lexer.Lbrace; _ } :: rest ->
        incr depth;
        scan rest
    | { Lexer.tok = Lexer.Rbrace; _ } :: rest ->
        decr depth;
        scan rest
    | { Lexer.tok = Lexer.Ident "resource"; line }
      :: ({ Lexer.tok = t1; _ } as s1)
      :: ({ Lexer.tok = t2; _ } as s2)
      :: rest
      when !depth = 0 -> (
        match (plain_label t1, plain_label t2) with
        | Some rtype, Some rname ->
            if not (Hashtbl.mem idx (rtype, rname)) then
              Hashtbl.replace idx (rtype, rname) line;
            (match
               Option.bind (Zodiac_providers.Providers.of_tf_type rtype)
                 (fun p -> p.Zodiac_provider.Provider.of_terraform rtype)
             with
            | Some canonical ->
                if not (Hashtbl.mem idx (canonical, rname)) then
                  Hashtbl.replace idx (canonical, rname) line
            | None -> ());
            scan rest
        | _ -> scan (s1 :: s2 :: rest))
    | _ :: rest -> scan rest
  in
  scan tokens;
  idx

let resource_line idx (id : Zodiac_iac.Resource.id) =
  match Hashtbl.find_opt idx (id.Zodiac_iac.Resource.rtype, id.rname) with
  | Some line -> line
  | None -> 1

(* ---- document ------------------------------------------------------- *)

let compare_finding a b =
  let c = compare a.file b.file in
  if c <> 0 then c
  else
    let c = compare a.line b.line in
    if c <> 0 then c
    else
      let c = compare a.rule_id b.rule_id in
      if c <> 0 then c else compare a.bindings b.bindings

let result_text f =
  let where =
    String.concat ", "
      (List.map (fun (var, id) -> Printf.sprintf "%s = %s" var id) f.bindings)
  in
  Printf.sprintf "%s — where %s; because %s" f.message where f.explanation

let document ?timestamp findings =
  let findings = List.sort_uniq compare_finding findings in
  let rules =
    List.sort_uniq compare
      (List.map (fun f -> (f.rule_id, f.message)) findings)
  in
  let rule_index id =
    let rec go i = function
      | [] -> -1
      | (rid, _) :: rest -> if String.equal rid id then i else go (i + 1) rest
    in
    go 0 rules
  in
  let rule_json (id, message) =
    Json.Obj
      [
        ("id", Json.String id);
        ("shortDescription", Json.Obj [ ("text", Json.String message) ]);
      ]
  in
  let result_json f =
    Json.Obj
      [
        ("ruleId", Json.String f.rule_id);
        ("ruleIndex", Json.Int (rule_index f.rule_id));
        ("level", Json.String "error");
        ("message", Json.Obj [ ("text", Json.String (result_text f)) ]);
        ( "locations",
          Json.List
            [
              Json.Obj
                [
                  ( "physicalLocation",
                    Json.Obj
                      [
                        ( "artifactLocation",
                          Json.Obj [ ("uri", Json.String f.file) ] );
                        ( "region",
                          Json.Obj [ ("startLine", Json.Int (max 1 f.line)) ] );
                      ] );
                ];
            ] );
      ]
  in
  let invocations =
    match timestamp with
    | None -> []
    | Some t ->
        [
          ( "invocations",
            Json.List
              [
                Json.Obj
                  [
                    ("executionSuccessful", Json.Bool true);
                    ("endTimeUtc", Json.String t);
                  ];
              ] );
        ]
  in
  Json.Obj
    [
      ("$schema", Json.String "https://json.schemastore.org/sarif-2.1.0.json");
      ("version", Json.String "2.1.0");
      ( "runs",
        Json.List
          [
            Json.Obj
              ([
                 ( "tool",
                   Json.Obj
                     [
                       ( "driver",
                         Json.Obj
                           [
                             ("name", Json.String "zodiac");
                             ("version", Json.String "1.0.0");
                             ( "informationUri",
                               Json.String
                                 "https://github.com/zodiac/zodiac" );
                             ("rules", Json.List (List.map rule_json rules));
                           ] );
                     ] );
               ]
              @ invocations
              @ [ ("results", Json.List (List.map result_json findings)) ]);
          ] );
    ]

let to_string ?timestamp findings =
  Json.to_string ~pretty:true (document ?timestamp findings) ^ "\n"
