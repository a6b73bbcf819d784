(* Two rules about what the product is made of.

   Every library module has an interface. Behind an .mli the compiler
   reports a value nothing uses (warning 32, an error in the dev
   profile); without one every top-level value counts as exported, so
   dead code in that module goes unnoticed.

   Nothing the CLI runs links the evaluation library [zodiac_eval]
   (Table 4's baseline checkers, the live-update planner): the bench,
   the examples and the tests list it themselves. *)

(* The test runs in [_build/default/test]; its dune stanza copies the
   library sources and [bin/dune] next to it. *)
let root = ".."

(* [.ml] files under [dir], as paths relative to [root]. *)
let rec ml_files dir =
  Sys.readdir (Filename.concat root dir) |> Array.to_list |> List.sort compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory (Filename.concat root path) then ml_files path
         else if Filename.check_suffix entry ".ml" then [ path ]
         else [])

let test_every_module_has_interface () =
  let files = ml_files "lib" in
  Alcotest.(check bool) "found the library sources" true (List.length files > 50);
  match List.filter (fun f -> not (Sys.file_exists (Filename.concat root (f ^ "i")))) files with
  | [] -> ()
  | missing -> Alcotest.failf "no interface (.mli) for: %s" (String.concat ", " missing)

(* The names in every [(libraries ...)] field of a dune file. *)
let libraries_of path =
  In_channel.with_open_bin (Filename.concat root path) In_channel.input_all
  |> String.split_on_char '('
  |> List.concat_map (fun field ->
         let field = List.hd (String.split_on_char ')' field) in
         String.map (function '\n' | '\t' -> ' ' | c -> c) field
         |> String.split_on_char ' ' |> List.filter (( <> ) "")
         |> function "libraries" :: names -> names | _ -> [])

let test_product_does_not_link_eval () =
  let lib_dunes =
    Sys.readdir (Filename.concat root "lib") |> Array.to_list |> List.sort compare
    |> List.map (fun d -> Filename.concat (Filename.concat "lib" d) "dune")
    |> List.filter (fun f -> Sys.file_exists (Filename.concat root f))
  in
  let dunes = "bin/dune" :: lib_dunes in
  Alcotest.(check bool) "found the library dune files" true (List.length lib_dunes > 10);
  match List.filter (fun f -> List.mem "zodiac_eval" (libraries_of f)) dunes with
  | [] -> ()
  | linking -> Alcotest.failf "zodiac_eval linked by: %s" (String.concat ", " linking)

let () =
  Alcotest.run "layout"
    [
      ( "lib",
        [
          Alcotest.test_case "every module has an interface" `Quick
            test_every_module_has_interface;
          Alcotest.test_case "product does not link zodiac_eval" `Quick
            test_product_does_not_link_eval;
        ] );
    ]
