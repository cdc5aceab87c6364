(* Spans recorded from the benchmark's own files around each call into a
   layer's public functions, on the repo's own tracer.  A span name is
   [<layer>.<call>]; the per-thread root of each traced phase is named
   [bench.<phase>], so whatever the root's self time holds is time the
   trace did not attribute to any layer. *)

module Tracer = Jstar_obs.Tracer

(* An untraced run gets an [Off] tracer, on which every recording call
   is a single branch, so the spans stay in place in the timed loops. *)
let create ~traced =
  Tracer.create ~capacity:(1 lsl 18)
    ~level:(if traced then Jstar_obs.Level.Spans else Jstar_obs.Level.Off)
    ()

type span = { name : string; tid : int; ts : int; dur : int }

let collect tracer =
  let acc = ref [] in
  Tracer.events tracer (fun ~tid ~kind ~ts ~dur ~arg:_ ->
      if dur >= 0 then
        acc := { name = Tracer.kind_name tracer kind; tid; ts; dur } :: !acc);
  !acc

(* Self time per span name: each span's duration minus the part of it
   covered by its child spans.  Spans on one track come from one
   thread's call stack, so they nest; sorting by start (outer span
   first on ties) and keeping a stack of open spans finds each span's
   parent. *)
let self_times spans =
  let tracks = Hashtbl.create 4 in
  List.iter
    (fun s ->
      Hashtbl.replace tracks s.tid
        (s :: Option.value ~default:[] (Hashtbl.find_opt tracks s.tid)))
    spans;
  let self = Hashtbl.create 16 in
  let add name ns =
    Hashtbl.replace self name
      (ns + Option.value ~default:0 (Hashtbl.find_opt self name))
  in
  let close (s, covered) = add s.name (s.dur - covered) in
  Hashtbl.iter
    (fun _ track ->
      let a = Array.of_list track in
      Array.sort
        (fun x y -> if x.ts <> y.ts then compare x.ts y.ts else compare y.dur x.dur)
        a;
      let stack = ref [] in
      Array.iter
        (fun s ->
          let rec pop () =
            match !stack with
            | (p, c) :: rest when p.ts + p.dur <= s.ts ->
                close (p, c);
                stack := rest;
                pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
          | (p, c) :: rest ->
              let inside = min (s.ts + s.dur) (p.ts + p.dur) - s.ts in
              stack := (p, c + inside) :: rest
          | [] -> ());
          stack := (s, 0) :: !stack)
        a;
      List.iter close !stack)
    tracks;
  Hashtbl.fold (fun name ns acc -> (name, ns) :: acc) self []
  |> List.sort compare

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Per-layer self time as a share of the roots' total duration, and
   the roots' own self share — [trace.unattributed_share]. *)
let shares spans =
  let root_ns =
    List.fold_left
      (fun acc s -> if layer s.name = "bench" then acc + s.dur else acc)
      0 spans
  in
  let by_layer = Hashtbl.create 8 in
  List.iter
    (fun (name, ns) ->
      let l = layer name in
      Hashtbl.replace by_layer l
        (ns + Option.value ~default:0 (Hashtbl.find_opt by_layer l)))
    (self_times spans);
  let share l =
    if root_ns = 0 then 0.0
    else
      float_of_int (Option.value ~default:0 (Hashtbl.find_opt by_layer l))
      /. float_of_int root_ns
  in
  share

(* The end of a traced run: the per-layer and unattributed shares, and
   the Chrome trace file. *)
let layers = [ "serve"; "protocol"; "persist"; "core"; "csv"; "ref" ]

let finish r tr ~workload =
  Report.check r "trace rings kept every span" (Tracer.dropped tr = 0);
  let share = shares (collect tr) in
  Report.set r "trace.unattributed_share" (share "bench");
  List.iter (fun l -> Report.set r ("trace." ^ l ^ "_share") (share l)) layers;
  let path = Filename.concat (Util.out_dir ()) ("trace-" ^ workload ^ ".json") in
  Jstar_obs.Export.write_chrome_trace path tr;
  Report.meta r "chrome_trace" (Report.str path)
