(** Per-domain firing frame: the rule currently executing on this
    domain, its trigger timestamp, and the tuples its body literals have
    bound.  Written by the engine (saved/restored around every firing),
    read by {!Lineage} capture and the runtime causality auditor. *)

type t = {
  mutable rule : int;
  mutable now : Timestamp.t option;
  mutable bound : Tuple.t list;  (** innermost binding first *)
  mutable strict : int;  (** > 0 inside a negative/aggregate query *)
  mutable past : Tuple.t list;
      (** tuples visited by completed positive scans of this firing —
          the rest of the bound-input frame once their scan has popped
          them from [bound].  Lineage appends them (sorted, deduped) to
          every put's parents; strict scans are excluded.  Managed by
          the engine like [bound]. *)
}

val seed_rule : int
(** Pseudo rule id for initial / externally fed puts (no firing). *)

val action_rule : int
(** Pseudo rule id for external-action handlers. *)

val get : unit -> t
(** This domain's frame (allocated on first use, then reused). *)

val with_strict : (unit -> 'a) -> 'a
(** Run [f] with the frame's strict-query depth raised: the auditor
    then requires every visited tuple to be strictly earlier than the
    trigger, per the law's negative/aggregate clause.  Exception-safe;
    nests. *)

val with_frame : (t -> 'a) -> 'a
(** [with_frame f] runs [f] on this domain's frame, then restores every
    field of the frame to its value before the call — whether [f]
    returns or raises.  The save/restore around each firing, so nested
    firings on one domain never clobber the frame they interrupt. *)

val enter : t -> rule:int -> now:Timestamp.t option -> Tuple.t -> unit
(** [enter fr ~rule ~now trigger] starts a firing of [rule] in [fr]:
    trigger time [now], [trigger] as the only binding, no completed
    scans.  [strict] is left alone. *)
