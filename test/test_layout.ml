(* Every library module has an interface. Behind an .mli the compiler
   reports a value nothing uses (warning 32, an error in the dev
   profile); without one every top-level value counts as exported, so
   dead code in that module goes unnoticed. *)

(* The test runs in [_build/default/test]; its dune stanza copies the
   library sources next to it. *)
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

let () =
  Alcotest.run "layout"
    [
      ( "lib",
        [
          Alcotest.test_case "every module has an interface" `Quick
            test_every_module_has_interface;
        ] );
    ]
