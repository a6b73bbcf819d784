module Provider = Zodiac_provider.Provider

let all : Provider.t list =
  [ Zodiac_azure.Azure.provider; Zodiac_aws.Aws.provider ]

let default : Provider.t = Zodiac_azure.Azure.provider

let find name =
  List.find_opt (fun p -> String.equal p.Provider.name name) all

let names = List.map (fun p -> p.Provider.name) all

let of_tf_type tf_name =
  List.find_opt (fun p -> String.starts_with ~prefix:p.Provider.tf_prefix tf_name) all

(* The [String.sub] at every offset allocates about 9k words per call.
   Counting in place cut the call from about 60 to 10 us but doubled
   zbench's serve_hot p99 (1.2 -> 2.7 ms on 2 cores). The daemon's
   minor-heap size moves that p99 both ways and the cause is not yet
   found, so this stays until it is. *)
let detect_source src =
  let occurrences needle =
    let n = String.length needle and len = String.length src in
    let rec go i acc =
      if i + n > len then acc
      else if String.equal (String.sub src i n) needle then go (i + n) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  let scored = List.map (fun p -> (occurrences p.Provider.tf_prefix, p)) all in
  match List.stable_sort (fun (a, _) (b, _) -> compare b a) scored with
  | (n, p) :: _ when n > 0 -> Some p
  | _ -> None
