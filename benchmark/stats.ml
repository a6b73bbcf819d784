(* Order statistics and the bound rule shared by [run], [trace] and
   [compare]. *)

let sorted values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. Always an observed value, never an
   interpolation, so a p99 of fewer than 100 samples is the maximum. *)
let percentile values p =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

(* The median as Python's [statistics.median] gives it (mean of the two
   middle samples for an even count). *)
let median values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile exactly as Python's
   [statistics.quantiles values ~n:4] (the default "exclusive" method)
   computes them; a single sample is its own quartiles. *)
let quartiles values =
  let a = sorted values in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples";
  if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (cut 1, cut 3)

(* Interquartile distance as a share of the median. *)
let spread values =
  let q1, q3 = quartiles values in
  let med = median values in
  if med = 0. then if q3 = q1 then 0. else infinity else (q3 -. q1) /. Float.abs med

(* A metric or workload name: a letter or digit, then at most 63 of
   letters, digits, '_', '.' and '-'. *)
let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s

type better = Lower | Higher

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

type verdict =
  | Within of float  (** relative change toward worse; negative = better *)
  | Regression of float
  | Unresolved of float
      (** a side's quartile spread exceeds the bound, so the medians
          cannot be told apart at that resolution *)

(* Compare change [b] against parent [a] for one (workload, metric):
   worse by more than [bound] of the parent's median is a regression;
   a side whose quartile spread exceeds [bound] leaves the metric
   unresolved unless every run of the change reads better than every
   run of the parent. *)
let compare_runs ~better ~bound a b =
  let ma = median a and mb = median b in
  let worse =
    if ma = 0. then 0.
    else
      match better with
      | Lower -> (mb -. ma) /. Float.abs ma
      | Higher -> (ma -. mb) /. Float.abs ma
  in
  let all_better =
    match better with
    | Lower -> List.fold_left Float.max neg_infinity b < List.fold_left Float.min infinity a
    | Higher -> List.fold_left Float.min infinity b > List.fold_left Float.max neg_infinity a
  in
  if Float.max (spread a) (spread b) > bound && not all_better then Unresolved worse
  else if worse > bound then Regression worse
  else Within worse
