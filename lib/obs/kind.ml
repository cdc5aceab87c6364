(* Span/event kinds.  Represented as small ints so a ring slot is four
   scalar stores; the builtin ones cover the engine and pool call
   sites, and tracers hand out further ids for user-registered names
   (bench phases, application spans). *)

type t = int

let step = 0
let extract = 1
let gamma_insert = 2
let rule_fire = 3
let barrier_flush = 4
let drain = 5
let spawn = 6
let steal = 7
let idle = 8
let advisor = 9
let prov_merge = 10
let audit = 11
let advisor_demote = 12
let batch_fire = 13
let builtin_count = 14

let builtin_names =
  [|
    "step";
    "class-extract";
    "gamma-insert";
    "rule-fire";
    "barrier-flush";
    "drain";
    "pool-spawn";
    "pool-steal";
    "pool-idle";
    "advisor-promote";
    "prov-merge";
    "audit-violation";
    "advisor-demote";
    "batch-fire";
  |]

let builtin_name k =
  if k >= 0 && k < builtin_count then Some builtin_names.(k) else None

let of_name name =
  let rec go k =
    if k >= builtin_count then None
    else if String.equal builtin_names.(k) name then Some k
    else go (k + 1)
  in
  go 0

let to_int k = k
let custom i = builtin_count + i
