(* sha256 of the batch workloads' outputs at [Workloads.default_seed]
   and [Workloads.full] sizes, recorded from the zodiac CLI:
   - validate: the check set [zodiac validate --no-cache --projects 1200
     -o checks.json] writes;
   - mine_stream: the final [kb-*] and [mine-*] cache entries of
     [zodiac mine --projects 5000 --shard-size 500 --cache-dir DIR].
   Any other seed or size is checked against an in-process composition
   instead. *)

let digests =
  [
    ( "validate",
      [ ("checks.json", "4cdc78a30258e1b607f73c87352605e174910e9975ab694ab31b25a31126d29f") ] );
    ( "mine_stream",
      [
        ("kb", "fc0036fcebb947f950cf95f8d5fc574ce238240c1e3de0d08449700e09eabfd2");
        ("mine", "bfd37afb986d5ac082e070586217c99e4efbf792d37ddfe5f8f97e5a0f9fa341");
      ] );
  ]
