module Provider = Zodiac_provider.Provider

let all : Provider.t list =
  [ Zodiac_azure.Azure.provider; Zodiac_aws.Aws.provider ]

let default : Provider.t = Zodiac_azure.Azure.provider

let find name =
  List.find_opt (fun p -> String.equal p.Provider.name name) all

let names = List.map (fun p -> p.Provider.name) all

let of_tf_type tf_name =
  List.find_opt (fun p -> String.starts_with ~prefix:p.Provider.tf_prefix tf_name) all

(* Counts each prefix by comparing bytes in place. A [String.sub] at
   every offset allocated about 9k words per call: 67-88 us on a 2 KB
   serve source against 13.5-15.7 us in place (bench/main.exe micro,
   2 cores). *)
let detect_source src =
  let len = String.length src in
  let occurrences needle =
    let n = String.length needle in
    let first = needle.[0] in
    let rec matches i k =
      k = n
      || (String.unsafe_get src (i + k) = String.unsafe_get needle k
         && matches i (k + 1))
    in
    let rec go i acc =
      if i + n > len then acc
      else if String.unsafe_get src i = first && matches i 1 then
        go (i + n) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  let scored = List.map (fun p -> (occurrences p.Provider.tf_prefix, p)) all in
  match List.stable_sort (fun (a, _) (b, _) -> compare b a) scored with
  | (n, p) :: _ when n > 0 -> Some p
  | _ -> None
