(* Unit tests for the benchmark's own arithmetic: the tail-percentile
   rule, span self times, and the closure-size formula its output
   check relies on. *)

open Perfbench

let percentile_ladder () =
  let check n want =
    Alcotest.(check (option (float 0.0))) (Printf.sprintf "n=%d" n) want
      (Stats.tail_percentile n)
  in
  check 19 None;
  check 20 (Some 50.0);
  check 99 (Some 50.0);
  check 100 (Some 90.0);
  check 999 (Some 90.0);
  check 1000 (Some 99.0);
  (* the ladder stops at p99, even where p99.9 would have ten beyond *)
  check 50_000 (Some 99.0)

let percentile_nearest_rank () =
  let a = Stats.sorted (List.init 100 (fun i -> float_of_int (100 - i))) in
  Alcotest.(check (float 0.0)) "p50" 50.0 (Stats.percentile a 50.0);
  Alcotest.(check (float 0.0)) "p90" 90.0 (Stats.percentile a 90.0);
  Alcotest.(check (float 0.0)) "p99" 99.0 (Stats.percentile a 99.0);
  Alcotest.(check (float 0.0)) "p100" 100.0 (Stats.percentile a 100.0);
  (* with p90 chosen for 100 samples, ten lie strictly beyond it *)
  let beyond = Array.fold_left (fun n x -> if x > 90.0 then n + 1 else n) 0 a in
  Alcotest.(check int) "ten beyond p90" 10 beyond;
  Alcotest.(check (float 0.0)) "median of one" 7.0 (Stats.median [ 7.0 ])

let span ?(tid = 0) name ts dur = { Spans.name; tid; ts; dur }

let self_times () =
  let spans =
    [
      span "bench.root" 0 100;
      span "serve.feed" 10 30;
      span "protocol.encode" 15 10;
      span "serve.feed" 50 20;
      (* another thread's span overlaps in time but is not a child *)
      span ~tid:1 "persist.feed" 0 60;
    ]
  in
  Alcotest.(check (list (pair string int)))
    "self = span - children"
    [
      ("bench.root", 50); ("persist.feed", 60); ("protocol.encode", 10);
      ("serve.feed", 40);
    ]
    (Spans.self_times spans)

let self_times_edges () =
  (* a span starting exactly where another ends is its sibling; a span
     sharing its parent's start nests under the longer one *)
  let spans =
    [ span "bench.root" 0 10; span "core.a" 0 4; span "core.b" 4 6 ]
  in
  Alcotest.(check (list (pair string int)))
    "siblings and shared starts"
    [ ("bench.root", 0); ("core.a", 4); ("core.b", 6) ]
    (Spans.self_times spans);
  let share = Spans.shares spans in
  Alcotest.(check (float 1e-9)) "unattributed" 0.0 (share "bench");
  Alcotest.(check (float 1e-9)) "core" 1.0 (share "core");
  let share = Spans.shares [ span "bench.root" 0 8; span "csv.parse" 2 2 ] in
  Alcotest.(check (float 1e-9)) "unattributed share" 0.75 (share "bench");
  Alcotest.(check (float 1e-9)) "absent layer" 0.0 (share "serve")

(* Brute-force reachability over the generated graph. *)
let closure_brute edges =
  let succ = Hashtbl.create 64 in
  Array.iter (fun (a, b) -> Hashtbl.add succ a b) edges;
  let nodes = Hashtbl.create 64 in
  Array.iter
    (fun (a, b) ->
      Hashtbl.replace nodes a ();
      Hashtbl.replace nodes b ())
    edges;
  Hashtbl.fold
    (fun x () acc ->
      let seen = Hashtbl.create 16 in
      let rec visit y =
        List.iter
          (fun z ->
            if not (Hashtbl.mem seen z) then begin
              Hashtbl.replace seen z ();
              visit z
            end)
          (Hashtbl.find_all succ y)
      in
      visit x;
      acc + Hashtbl.length seen)
    nodes 0

let closure_formula () =
  List.iter
    (fun (seed, clusters, layers, width) ->
      let edges = Gen.layered_graph ~seed ~clusters ~layers ~width in
      let name = Printf.sprintf "seed %d: %dx%dx%d" seed clusters layers width in
      Alcotest.(check int) (name ^ " edges")
        (clusters * (layers - 1) * width * width)
        (Array.length edges);
      Alcotest.(check int) (name ^ " closure")
        (closure_brute edges)
        (Gen.closure_size ~clusters ~layers ~width))
    [ (1, 1, 2, 1); (2, 1, 4, 3); (3, 2, 3, 4); (4, 3, 5, 2) ]

let seeded_inputs () =
  let a = Gen.layered_graph ~seed:7 ~clusters:2 ~layers:3 ~width:4 in
  Alcotest.(check bool) "same seed, same graph" true
    (a = Gen.layered_graph ~seed:7 ~clusters:2 ~layers:3 ~width:4);
  Alcotest.(check bool) "other seed, other edge order" true
    (a <> Gen.layered_graph ~seed:8 ~clusters:2 ~layers:3 ~width:4);
  let r = Gen.pvwatts_records ~seed:7 ~installations:1 in
  Alcotest.(check int) "one year of hours" 8760 (Array.length r);
  Alcotest.(check bool) "same seed, same records" true
    (r = Gen.pvwatts_records ~seed:7 ~installations:1)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile ladder" `Quick percentile_ladder;
          Alcotest.test_case "nearest rank" `Quick percentile_nearest_rank;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self times" `Quick self_times;
          Alcotest.test_case "nesting edges and shares" `Quick self_times_edges;
        ] );
      ( "gen",
        [
          Alcotest.test_case "closure size formula" `Quick closure_formula;
          Alcotest.test_case "seeded inputs" `Quick seeded_inputs;
        ] );
    ]
