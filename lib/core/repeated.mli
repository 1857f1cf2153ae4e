(** Figure 4: repeated m-obstruction-free k-set agreement over the same
    r = n + 2m − k component snapshot as Figure 3.

    Entries are tuples (pref, id, t, history); persistent locals i, t
    and history survive across Propose invocations.  A process decides
    instance t only when every entry is a tuple of instance exactly t
    and at most m distinct tuples are present — or by adopting the
    history of a process seen in a higher instance (line 15's
    shortcut). *)

type tuple = { pref : Shm.Value.t; id : int; t : int; history : Shm.Value.t list }

val encode : tuple -> Shm.Value.t

(** [None] on ⊥; raises on non-tuple junk. *)
val decode : Shm.Value.t -> tuple option

(** {1 One scan, decoded once}

    The program decodes each scan once and asks lines 15, 17 and 22 of
    the same decoded view. *)

(** A scan view with the instance of every entry decoded. *)
type decoded

(** Raises on non-tuple junk, as {!decode} does. *)
val decode_view : Shm.Value.t array -> decoded

(** Line 15: the entry of the highest instance > t, if any (lowest
    index on ties). *)
val higher : t:int -> decoded -> tuple option

(** Line 17: [Some w] iff the view decides instance [t] with output
    [w]. *)
val decides : m:int -> t:int -> decoded -> Shm.Value.t option

(** Line 22 (with the Figure 3 erratum repair): [Some w] iff the
    process adopts [w].  [own] is the process's stored tuple as encoded
    by {!encode}, [pref] its preference. *)
val adopts :
  own:Shm.Value.t -> pref:Shm.Value.t -> i:int -> t:int -> decoded -> Shm.Value.t option

(** {1 The same predicates on a raw view} *)

(** {!higher} on [decode_view view]. *)
val find_higher : t:int -> Shm.Value.t array -> tuple option

(** {!decides} on [decode_view view]. *)
val decide_check : m:int -> t:int -> Shm.Value.t array -> Shm.Value.t option

(** {!adopts} on [decode_view view], for the tuple [own]. *)
val adopt_check :
  own:tuple -> i:int -> t:int -> Shm.Value.t array -> Shm.Value.t option

(** The full process program: one [Await] per Propose, forever. *)
val program : m:int -> pid:int -> api:Snapshot.Snap_api.t -> Shm.Program.t
