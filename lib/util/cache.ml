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

(* ---- claim files ---------------------------------------------------
   Multi-process coordination: a claim is an [O_CREAT|O_EXCL]-created
   marker file in the cache directory — exactly one creator wins, with
   no locks and no server. A claim that outlives [stale_after] seconds
   (its holder was killed) can be taken over: the contender atomically
   renames the stale file aside (exactly one renamer succeeds; the
   losers see ENOENT and fall back to the normal create race) and then
   re-enters the create race for the now-vacant name. A takeover racing
   a live-but-slow holder at worst duplicates work; it can never
   corrupt results, because artifact stores are tmp+rename atomic and
   deterministic — the race only decides WHO builds, never WHAT. *)

type claim = Claimed of { stolen : bool } | Busy

let claim_path t ~name = Filename.concat t.c_dir (name ^ ".claim")

let try_create path owner =
  match
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644
  with
  | exception Unix.Unix_error _ -> false
  | fd ->
      (try
         ignore (Unix.write_substring fd owner 0 (String.length owner))
       with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ());
      true

let claim_age path =
  match Unix.stat path with
  | exception Unix.Unix_error _ -> None
  | st -> Some (Unix.gettimeofday () -. st.Unix.st_mtime)

let try_claim ?stale_after t ~name ~owner =
  let path = claim_path t ~name in
  if try_create path owner then Claimed { stolen = false }
  else
    let stale =
      match (stale_after, claim_age path) with
      | Some limit, Some age -> age > limit
      | _ -> false
    in
    if not stale then Busy
    else
      (* Rename-aside: atomic, single-winner. The unique destination
         (owner names embed the pid) means contenders never clobber
         each other's aside files. *)
      let aside = Printf.sprintf "%s.%s.stale" path owner in
      match Unix.rename path aside with
      | exception Unix.Unix_error _ ->
          (* Someone else took it over (or the holder released between
             our two looks): one more shot at the vacant name. *)
          if try_create path owner then Claimed { stolen = false } else Busy
      | () ->
          (try Unix.unlink aside with Unix.Unix_error _ -> ());
          if try_create path owner then Claimed { stolen = true } else Busy

let release t ~name =
  try Unix.unlink (claim_path t ~name) with Unix.Unix_error _ -> ()
