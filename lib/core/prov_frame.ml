(* The per-domain firing frame: which rule is executing on this domain
   right now, at what timestamp it was triggered, and which Gamma tuples
   its body literals have bound so far.

   The engine maintains one frame per domain through DLS and saves /
   restores it around every rule invocation, so the frame survives the
   two ways firings nest on one domain: -noDelta puts fire rules
   synchronously inside the putting task, and a blocking fork/join
   [join] may execute a stolen task (another tuple's rules) before the
   joiner resumes.  Both provenance capture ([Lineage]) and the runtime
   causality auditor read the frame; with both features off the engine
   never touches it, keeping the put path allocation-free. *)

type t = {
  mutable rule : int;
      (* id of the executing rule (>= 0), [seed_rule] outside any
         firing, [action_rule] inside an external-action handler *)
  mutable now : Timestamp.t option;
      (* timestamp of the trigger tuple — the "T" of the law of
         causality for this firing.  More precise than the engine's
         current class timestamp for -noDelta chains, whose nested
         firings run at the nested trigger's own (later) time. *)
  mutable bound : Tuple.t list;
      (* tuples bound by enclosing body literals, innermost first; the
         trigger tuple is always the last element *)
  mutable strict : int;
      (* > 0 inside a negative/aggregate query, where the law demands
         strictly-earlier timestamps *)
  mutable past : Tuple.t list;
      (* tuples visited by *completed* positive scans of this firing.
         A put after a scan finished still depends on what the scan saw
         (the rule bound them into locals), but [bound] has already
         popped them — [past] keeps them so lineage captures the full
         bound-input frame, not just the trigger.  The visited set of a
         completed positive scan is a function of Gamma at the class
         timestamp, hence schedule-independent; strict (negative /
         aggregate) scans are excluded — their contribution is the
         scanned *aggregate*, and retaining whole scans would make
         parent arrays unbounded.  Reset at each firing entry,
         saved/restored exactly like [bound]. *)
}

let seed_rule = -1
let action_rule = -2

let key : t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { rule = seed_rule; now = None; bound = []; strict = 0; past = [] })

let get () = Domain.DLS.get key

(* Strict-query scope: entered by the aggregate/negative Query
   combinators so the auditor can demand [<] instead of [<=] for every
   tuple the scan visits.  Counted, not boolean — aggregate scans can
   nest (a reducer projection may itself query). *)
let enter_strict fr = fr.strict <- fr.strict + 1
let exit_strict fr = fr.strict <- fr.strict - 1

let with_strict f =
  let fr = get () in
  enter_strict fr;
  match f () with
  | v ->
      exit_strict fr;
      v
  | exception e ->
      exit_strict fr;
      raise e

(* Save this domain's frame, run [f] on it, and put every field back
   whether [f] returns or raises.  Every firing site wraps its rule
   bodies in this, so a nested firing (a -noDelta chain, or a stolen
   task run inside a blocking join) leaves the frame it interrupted
   exactly as it found it. *)
let with_frame f =
  let fr = get () in
  let rule = fr.rule
  and now = fr.now
  and bound = fr.bound
  and strict = fr.strict
  and past = fr.past in
  let restore () =
    fr.rule <- rule;
    fr.now <- now;
    fr.bound <- bound;
    fr.strict <- strict;
    fr.past <- past
  in
  match f fr with
  | v ->
      restore ();
      v
  | exception e ->
      restore ();
      raise e

let enter fr ~rule ~now trigger =
  fr.rule <- rule;
  fr.now <- now;
  fr.bound <- [ trigger ];
  fr.past <- []
