(* Batched relational-algebra rule firing (PR 6): the vectorized
   Phase A/B path ([Config.batch_fire]) must be observationally
   identical to per-tuple firing — digests, output stream, per-table
   stats, and lineage — across the full threads x batch_fire x
   put_batching grid, with provenance and the causality auditor on.
   Also covers the PR-4 lineage gap this PR closes: a put issued
   *after* a positive scan completed records the scanned tuples as
   parents, not just the trigger. *)

open Jstar_core

let v_int i = Value.Int i

(* ------------------------------------------------------------------ *)
(* Fixture: transitive closure with a declared hash-join key, so the
   batch path exercises chunk sorting and the probe cursor against a
   hash-indexed Edge table. *)

type closure = {
  c_program : Program.t;
  c_edge : Schema.t;
  c_path : Schema.t;
  c_init : Tuple.t list;
}

let closure_program edges =
  let p = Program.create () in
  let edge =
    Program.table p "Edge"
      ~columns:Schema.[ int_col "a"; int_col "b" ]
      ~orderby:Schema.[ Lit "Edge" ]
      ()
  in
  let path =
    Program.table p "Path"
      ~columns:Schema.[ int_col "a"; int_col "b" ]
      ~orderby:Schema.[ Lit "Path" ]
      ()
  in
  Program.order p [ "Edge"; "Path" ];
  Program.rule p "seed" ~trigger:edge (fun ctx e ->
      ctx.Rule.put (Tuple.make path [| Tuple.get e 0; Tuple.get e 1 |]));
  Program.rule p "close" ~trigger:path
    ~reads:[ Spec.read ~prefix:[ Spec.Field "b" ] "Edge" ]
    (fun ctx t ->
      let x = Tuple.get t 0 and y = Tuple.int t "b" in
      Query.iter ctx edge ~prefix:[| v_int y |] (fun e ->
          ctx.Rule.put (Tuple.make path [| x; Tuple.get e 1 |])));
  Program.output p path (fun t ->
      Printf.sprintf "path %d %d" (Tuple.int t "a") (Tuple.int t "b"));
  let init =
    List.map (fun (a, b) -> Tuple.make edge [| v_int a; v_int b |]) edges
  in
  { c_program = p; c_edge = edge; c_path = path; c_init = init }

(* The equivalence grid: the (1, false, false) oracle plus every
   combination the batch path can take. *)
let grid =
  [
    (1, false, false);
    (1, true, false);
    (2, false, false);
    (2, false, true);
    (2, true, false);
    (2, true, true);
    (4, true, true);
  ]

let grid_config ~threads ~batch_fire ~put_batching =
  let c =
    if threads = 1 then Config.default else Config.parallel ~threads ()
  in
  {
    c with
    Config.batch_fire;
    put_batching;
    indexes = [ ("Edge", [ 1 ]) ];
    provenance = true;
    audit_causality = true;
    digest = true;
  }

type observation = {
  o_digest : (string * string * string * (string * string) list) option;
  o_outputs : string list;
  o_stats : Table_stats.snapshot list;
  o_delta : int * int;
}

let observe result =
  {
    o_digest =
      Option.map
        (fun d ->
          ( d.Engine.d_gamma,
            d.Engine.d_classes,
            d.Engine.d_outputs,
            d.Engine.d_tables ))
        result.Engine.digest;
    o_outputs = result.Engine.outputs;
    o_stats = Table_stats.snapshot result.Engine.stats;
    o_delta = (result.Engine.delta_inserted, result.Engine.delta_deduped);
  }

let check_grid_equal ~msg observations =
  match observations with
  | [] -> ()
  | reference :: rest ->
      List.iteri
        (fun i o ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: digests at grid point %d" msg (i + 1))
            true
            (o.o_digest = reference.o_digest);
          Alcotest.(check bool)
            (Printf.sprintf "%s: outputs at grid point %d" msg (i + 1))
            true
            (o.o_outputs = reference.o_outputs);
          Alcotest.(check bool)
            (Printf.sprintf "%s: stats at grid point %d" msg (i + 1))
            true
            (o.o_stats = reference.o_stats);
          Alcotest.(check bool)
            (Printf.sprintf "%s: delta totals at grid point %d" msg (i + 1))
            true
            (o.o_delta = reference.o_delta))
        rest

(* ------------------------------------------------------------------ *)
(* Closure: batched == per-tuple on the whole grid *)

let run_closure_point edges (threads, batch_fire, put_batching) =
  let c = closure_program edges in
  let config = grid_config ~threads ~batch_fire ~put_batching in
  observe (Engine.run_program ~init:c.c_init c.c_program config)

let test_closure_grid () =
  let edges = [ (0, 1); (1, 2); (2, 3); (3, 0); (1, 4); (4, 2); (2, 5) ] in
  check_grid_equal ~msg:"closure"
    (List.map (run_closure_point edges) grid);
  (* sanity: the digest is not vacuously equal *)
  let o = run_closure_point edges (2, true, true) in
  Alcotest.(check bool) "digest present" true (o.o_digest <> None);
  Alcotest.(check bool) "outputs present" true (o.o_outputs <> [])

let prop_closure_grid =
  QCheck.Test.make ~name:"batched == per-tuple on random graphs" ~count:8
    QCheck.(
      list_of_size (Gen.int_range 1 25) (pair (int_range 0 7) (int_range 0 7)))
    (fun edges ->
      let oracle = run_closure_point edges (1, false, false) in
      List.for_all
        (fun point -> run_closure_point edges point = oracle)
        [ (2, true, false); (2, true, true); (4, true, true) ])

(* ------------------------------------------------------------------ *)
(* PvWatts-small: the numeric pipeline (custom stores, -noDelta chain,
   aggregate queries) through the same grid.  Custom stores are not
   probe-stable, so this exercises the cursor's fallback path. *)

let pvwatts_data =
  lazy
    (Jstar_csv.Pvwatts_data.to_bytes ~installations:1
       ~ordering:Jstar_csv.Pvwatts_data.Month_major)

let test_pvwatts_grid () =
  let data = Lazy.force pvwatts_data in
  let observations =
    List.map
      (fun (threads, batch_fire, put_batching) ->
        let cfg =
          {
            (Jstar_apps.Pvwatts.config ~threads ()) with
            Config.batch_fire;
            put_batching;
            digest = true;
          }
        in
        observe (Jstar_apps.Pvwatts.run ~chunks:4 ~data cfg))
      grid
  in
  check_grid_equal ~msg:"pvwatts" observations

(* ------------------------------------------------------------------ *)
(* The PR-4 lineage gap: a rule that collects scan matches and puts
   after the scan completed.  PR 4 recorded only the trigger as the
   put's parent; the completed scan's bindings must now appear too,
   and identically on every grid point. *)

let deferred_program edges =
  let p = Program.create () in
  let edge =
    Program.table p "Edge"
      ~columns:Schema.[ int_col "a"; int_col "b" ]
      ~orderby:Schema.[ Lit "Edge" ]
      ()
  in
  let path =
    Program.table p "Path"
      ~columns:Schema.[ int_col "a"; int_col "b" ]
      ~orderby:Schema.[ Lit "Path" ]
      ()
  in
  Program.order p [ "Edge"; "Path" ];
  Program.rule p "seed" ~trigger:edge (fun ctx e ->
      ctx.Rule.put (Tuple.make path [| Tuple.get e 0; Tuple.get e 1 |]));
  Program.rule p "close_deferred" ~trigger:path
    ~reads:[ Spec.read ~prefix:[ Spec.Field "b" ] "Edge" ]
    (fun ctx t ->
      let x = Tuple.get t 0 and y = Tuple.int t "b" in
      (* bind the scan's matches into a local, put after it returns *)
      let matches = ref [] in
      Query.iter ctx edge ~prefix:[| v_int y |] (fun e ->
          matches := e :: !matches);
      List.iter
        (fun e -> ctx.Rule.put (Tuple.make path [| x; Tuple.get e 1 |]))
        !matches);
  let init =
    List.map (fun (a, b) -> Tuple.make edge [| v_int a; v_int b |]) edges
  in
  (p, edge, path, init)

let test_deferred_put_full_frame () =
  let edges = [ (0, 1); (1, 2); (1, 3) ] in
  let trees =
    List.map
      (fun (threads, batch_fire, put_batching) ->
        let p, edge, path, init = deferred_program edges in
        let config = grid_config ~threads ~batch_fire ~put_batching in
        let frozen = Program.freeze p in
        let result, gamma = Engine.run_with_gamma ~init frozen config in
        let lineage = Option.get result.Engine.lineage in
        (match Jstar_prov.Explain.completeness_error ~lineage with
        | None -> ()
        | Some msg -> Alcotest.fail ("lineage incomplete: " ^ msg));
        (* Path(0,2) is derived by close_deferred from trigger
           Path(0,1) and scanned Edge(1,2): the Edge tuple must be a
           direct child of its derivation node. *)
        let target = Tuple.make path [| v_int 0; v_int 2 |] in
        (match Jstar_prov.Explain.derive ~lineage ~frozen target with
        | None -> Alcotest.fail "Path(0,2) untracked"
        | Some node ->
            let child_schemas =
              List.map
                (fun ch ->
                  (Tuple.schema ch.Jstar_prov.Explain.n_tuple).Schema.name)
                node.Jstar_prov.Explain.n_children
            in
            Alcotest.(check bool)
              "deferred put records the scanned Edge as a parent" true
              (List.mem edge.Schema.name child_schemas));
        (* whole-database canonical trees, for cross-grid comparison *)
        let tuples = ref [] in
        (gamma path).Store.iter (fun t -> tuples := t :: !tuples);
        List.map
          (fun t ->
            match Jstar_prov.Explain.derive ~lineage ~frozen t with
            | Some node -> Jstar_prov.Explain.to_string node
            | None -> Alcotest.fail ("stored but untracked: " ^ Tuple.show t))
          (List.sort Tuple.compare !tuples))
      grid
  in
  match trees with
  | reference :: rest ->
      List.iteri
        (fun i t ->
          Alcotest.(check bool)
            (Printf.sprintf "deferred-put trees identical at grid point %d"
               (i + 1))
            true (t = reference))
        rest
  | [] -> ()

(* ------------------------------------------------------------------ *)
(* Sessions: feed/drain with batching on matches the oracle *)

let test_session_grid () =
  let observations =
    List.map
      (fun (threads, batch_fire, put_batching) ->
        let c = closure_program [] in
        let config = grid_config ~threads ~batch_fire ~put_batching in
        let frozen = Program.freeze c.c_program in
        let s = Engine.start frozen config in
        let feed_edges es =
          Engine.feed s
            (List.map
               (fun (a, b) -> Tuple.make c.c_edge [| v_int a; v_int b |])
               es)
        in
        feed_edges [ (2, 3); (3, 4) ];
        ignore (Engine.drain s);
        feed_edges [ (0, 1); (1, 2) ];
        ignore (Engine.drain s);
        observe (Engine.finish s))
      grid
  in
  check_grid_equal ~msg:"session" observations

(* ------------------------------------------------------------------ *)
(* Probe contract: hash, indexed and ordered stores answer probe_prefix
   with exactly the tuples iter_prefix visits; only stores with no
   access path at all decline. *)

let test_probe_prefix_contract () =
  let schema =
    Schema.make ~id:0 ~name:"P"
      ~columns:Schema.[ int_col "a"; int_col "b" ]
      ~key_arity:2
      ~orderby:Schema.[ Lit "P" ]
  in
  let mk a b = Tuple.make schema [| v_int a; v_int b |] in
  let tuples = [ mk 0 1; mk 0 2; mk 1 1; mk 2 7; mk 0 3 ] in
  let fill store = List.iter (fun t -> ignore (store.Store.insert t)) tuples in
  let sorted l = List.sort Tuple.compare l in
  let check_store name store =
    fill store;
    List.iter
      (fun prefix ->
        let scanned = ref [] in
        store.Store.iter_prefix prefix (fun t -> scanned := t :: !scanned);
        match store.Store.probe_prefix prefix with
        | None ->
            Alcotest.failf "%s: probe declined a supported prefix" name
        | Some items ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: probe = scan for prefix len %d" name
                 (Array.length prefix))
              true
              (List.equal Tuple.equal (sorted items) (sorted !scanned)))
      [ [| v_int 0 |]; [| v_int 1 |]; [| v_int 9 |] ]
  in
  check_store "hash" (Store.of_spec (Store.Hash_index 1) schema);
  let indexed, _h =
    Store.indexed ~prefix_lens:[ 1 ] schema
      (Store.of_spec Store.Tree schema)
  in
  check_store "indexed" indexed;
  (* ordered stores now materialise the range scan in visit order —
     the vectorized negative/aggregate path; probe must equal scan,
     including visit order *)
  List.iter
    (fun (name, store) ->
      fill store;
      List.iter
        (fun prefix ->
          let scanned = ref [] in
          store.Store.iter_prefix prefix (fun t -> scanned := t :: !scanned);
          match store.Store.probe_prefix prefix with
          | None -> Alcotest.failf "%s: probe declined a range scan" name
          | Some items ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: probe = scan in visit order" name)
                true
                (List.equal Tuple.equal items (List.rev !scanned)))
        [ [| v_int 0 |]; [| v_int 1 |]; [| v_int 9 |]; [||] ])
    [
      ("tree", Store.of_spec Store.Tree schema);
      ("skiplist", Store.of_spec Store.Skiplist schema);
    ];
  (* under-specified hash prefixes materialise the full scan too *)
  let hash2 = Store.of_spec (Store.Hash_index 2) schema in
  fill hash2;
  (match hash2.Store.probe_prefix [| v_int 0 |] with
  | None -> Alcotest.fail "hash: under-specified prefix declined"
  | Some items ->
      let scanned = ref [] in
      hash2.Store.iter_prefix [| v_int 0 |] (fun t -> scanned := t :: !scanned);
      Alcotest.(check bool) "hash under-specified: probe = scan" true
        (List.equal Tuple.equal (sorted items) (sorted !scanned)));
  (* stores with no access path at all still decline *)
  let windowed =
    Store.windowed ~field:"a" ~width:2 (Store.of_spec Store.Tree) schema
  in
  Alcotest.(check bool) "windowed store declines probe" true
    (windowed.Store.probe_prefix [| v_int 0 |] = None)

let suite =
  [
    ( "batch",
      [
        Alcotest.test_case "closure grid: batched == per-tuple" `Quick
          test_closure_grid;
        QCheck_alcotest.to_alcotest prop_closure_grid;
        Alcotest.test_case "pvwatts grid: batched == per-tuple" `Slow
          test_pvwatts_grid;
        Alcotest.test_case "deferred put records full bound frame" `Quick
          test_deferred_put_full_frame;
        Alcotest.test_case "session feed/drain grid" `Quick test_session_grid;
        Alcotest.test_case "probe_prefix contract" `Quick
          test_probe_prefix_contract;
      ] );
  ]
