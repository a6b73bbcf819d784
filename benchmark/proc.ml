(* Child processes, files and sockets, all relative to the working
   directory: the benchmark reads and writes only under it. *)

let now = Unix.gettimeofday

let rec restart_on_eintr f x =
  try f x with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f x

(* Read to end of file; /proc files report no length, so no
   [in_channel_length]. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let rec go () =
        match input ic chunk 0 (Bytes.length chunk) with
        | 0 -> Buffer.contents buf
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ()
      in
      go ())

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let files_in dir = Array.to_list (Sys.readdir dir) |> List.sort compare

let dir_bytes dir =
  List.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (files_in dir)

(* Scratch space for one benchmark process: [.zbench/<pid>] under the
   working directory, removed (with [.zbench] itself once empty) on
   exit. Relative, so Unix socket paths stay short wherever the
   checkout lives. *)
let work_root = ".zbench"

let work_dir =
  lazy
    (let dir = Filename.concat work_root (string_of_int (Unix.getpid ())) in
     mkdir_p dir;
     at_exit (fun () ->
         (try rm_rf dir with Unix.Unix_error _ | Sys_error _ -> ());
         try Unix.rmdir work_root with Unix.Unix_error _ -> ());
     dir)

let scratch name = Filename.concat (Lazy.force work_dir) name

let spawn ?(stdout_to = "/dev/null") ?(stderr_to = "/dev/null") argv =
  let open_out path =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let out = open_out stdout_to and err = open_out stderr_to in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close [ out; err; null ])
    (fun () -> Unix.create_process argv.(0) argv null out err)

let wait pid = snd (restart_on_eintr (Unix.waitpid []) pid)

let children_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

type finished = {
  status : Unix.process_status;
  wall : float;  (** seconds from spawn to reaped *)
  cpu : float;  (** the child's user + system seconds *)
}

(* Run [argv] to completion with its stdout in [stdout_to]. One child at
   a time: the CPU figure is the change in reaped-children time. *)
let run ?stdout_to ?stderr_to argv =
  let cpu0 = children_cpu () in
  let t0 = now () in
  let pid = spawn ?stdout_to ?stderr_to argv in
  let status = wait pid in
  let wall = now () -. t0 in
  { status; wall; cpu = children_cpu () -. cpu0 }

let exited_ok = function Unix.WEXITED 0 -> true | _ -> false

let describe_status = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n

(* User + system seconds of a live process, from /proc/<pid>/stat
   (fields 14 and 15, after the parenthesised command name), in the
   kernel's USER_HZ ticks of 1/100 s. *)
let process_cpu pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest =
    let i = String.rindex stat ')' in
    String.sub stat (i + 2) (String.length stat - i - 2)
  in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* [rest] starts at field 3 (state) *)
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.

(* ---- line-oriented Unix-socket client ---- *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

(* Connect, retrying every 0.1 ms while the server has not bound and
   listened yet, for at most [timeout] seconds. The short poll keeps a
   daemon's few-millisecond start-up from being rounded up to the
   retry interval. *)
let connect ?(timeout = 30.) path =
  let deadline = now () +. timeout in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.0001;
        go ()
    | exception e ->
        Unix.close fd;
        raise e
  in
  let fd = go () in
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

(* Send one request line, return the reply line. *)
let request c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
