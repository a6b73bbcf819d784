module Memo = Zodiac_engine.Memo
module Codec = Zodiac_util.Codec
module Cache = Zodiac_util.Cache

let stage = "scan"

type t = {
  memo : Sarif.finding list Memo.t;
  disk : Cache.t option;
  registry_fp : string;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
}

(* The registry fingerprint folds in everything a finding can carry
   from the check set: a changed id, message or spec body must miss. *)
let registry_fingerprint checks =
  Codec.fingerprint
    ("scan-registry"
    :: List.concat_map
         (fun (e : Scan.check_entry) ->
           [ e.id; e.message; Zodiac_spec.Spec_printer.to_string e.check ])
         checks)

let create ?(capacity = 4096) ?disk ~checks () =
  {
    memo = Memo.create ~capacity ();
    disk;
    registry_fp = registry_fingerprint checks;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
  }

(* [tag] distinguishes otherwise-identical content scanned under a
   different provider (the per-request provider fingerprint). *)
let key t ?(tag = "") ~mode src =
  Codec.fingerprint [ "scan-content"; tag; mode; t.registry_fp; src ]

let fingerprint t ?tag ~mode src = key t ?tag ~mode src

(* Findings are cached path-stripped: [finding.file] carries the
   request path, and the same bytes scanned under two paths must hit
   the same entry. The caller's path is reattached on lookup. *)
let write_finding sink (f : Sarif.finding) =
  Codec.write_string sink f.rule_id;
  Codec.write_string sink f.message;
  Codec.write_list
    (fun sink (k, v) ->
      Codec.write_string sink k;
      Codec.write_string sink v)
    sink f.bindings;
  Codec.write_string sink f.explanation;
  Codec.write_int sink f.line

let read_finding src =
  let rule_id = Codec.read_string src in
  let message = Codec.read_string src in
  let bindings =
    Codec.read_list
      (fun src ->
        let k = Codec.read_string src in
        let v = Codec.read_string src in
        (k, v))
      src
  in
  let explanation = Codec.read_string src in
  let line = Codec.read_int src in
  { Sarif.rule_id; message; bindings; explanation; file = ""; line }

let strip findings =
  List.map (fun f -> { f with Sarif.file = "" }) findings

let reattach ~file findings =
  List.map (fun f -> { f with Sarif.file }) findings

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Lookup and insertion by a precomputed key: [scan] fingerprints the
   source once and uses the key for both, then hands it back. *)
let find_key t ~key ~file =
  with_lock t (fun () ->
      match Memo.find t.memo key with
      | Some findings ->
          t.hits <- t.hits + 1;
          Some (reattach ~file findings)
      | None -> (
          let from_disk =
            match t.disk with
            | None -> None
            | Some disk ->
                Cache.find disk ~stage ~key (Codec.read_list read_finding)
          in
          match from_disk with
          | Some findings ->
              Memo.add t.memo key findings;
              t.hits <- t.hits + 1;
              Some (reattach ~file findings)
          | None ->
              t.misses <- t.misses + 1;
              None))

let add_key t ~key findings =
  with_lock t (fun () ->
      let stripped = strip findings in
      Memo.add t.memo key stripped;
      match t.disk with
      | None -> ()
      | Some disk ->
          Cache.store disk ~stage ~key (fun sink ->
              Codec.write_list write_finding sink stripped))

let find t ?tag ~mode ~file src = find_key t ~key:(key t ?tag ~mode src) ~file

let add t ?tag ~mode src findings =
  add_key t ~key:(key t ?tag ~mode src) findings

(* The cached-scan composition used by every daemon verb: lookup, else
   run the underlying scanner and remember only successful results
   (errors must re-run — they may be transient I/O). *)
let scan t ?tag ~mode ~file src scanner =
  let key = key t ?tag ~mode src in
  match find_key t ~key ~file with
  | Some findings -> Ok (findings, key)
  | None -> (
      match scanner () with
      | Ok findings ->
          add_key t ~key findings;
          Ok (findings, key)
      | Error _ as e -> e)

let hits t = with_lock t (fun () -> t.hits)
let misses t = with_lock t (fun () -> t.misses)
let entries t = with_lock t (fun () -> Memo.length t.memo)
