type t = {
  c_dir : string;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_writes : int;
  mutable c_write_failures : int;
}

type stats = {
  hits : int;
  misses : int;
  writes : int;
  write_failures : int;
}

let default_dir = ".zodiac-cache"

let rec ensure_dir dir =
  if String.equal dir "" || String.equal dir "." || String.equal dir "/"
     || Sys.file_exists dir
  then ()
  else begin
    ensure_dir (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let create ~dir () =
  ensure_dir dir;
  { c_dir = dir; c_hits = 0; c_misses = 0; c_writes = 0; c_write_failures = 0 }

let dir t = t.c_dir

let path_of t ~stage ~key size =
  let base =
    match size with
    | None -> Printf.sprintf "%s-%s.bin" stage key
    | Some n -> Printf.sprintf "%s-%s-n%d.bin" stage key n
  in
  Filename.concat t.c_dir base

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  with Sys_error _ | End_of_file -> None

let find ?size t ~stage ~key read =
  match read_file (path_of t ~stage ~key size) with
  | None ->
      t.c_misses <- t.c_misses + 1;
      None
  | Some data -> (
      match Codec.decode ~stage data read with
      | Ok v ->
          t.c_hits <- t.c_hits + 1;
          Some v
      | Error _ ->
          (* corrupt or sealed under another codec version: a miss *)
          t.c_misses <- t.c_misses + 1;
          None)

let store ?size t ~stage ~key fill =
  let path = path_of t ~stage ~key size in
  let data = Codec.encode ~stage fill in
  let tmp = path ^ ".tmp" in
  try
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc data);
    Sys.rename tmp path;
    t.c_writes <- t.c_writes + 1
  with Sys_error _ -> t.c_write_failures <- t.c_write_failures + 1

let mem ?size t ~stage ~key = Sys.file_exists (path_of t ~stage ~key size)

let stats t =
  {
    hits = t.c_hits;
    misses = t.c_misses;
    writes = t.c_writes;
    write_failures = t.c_write_failures;
  }
