(** Replicated applications served by the shards.

    An application is a sequential state machine with replies: [apply
    state cmd] returns the next state and the reply the submitting
    client receives when the command commits.  Every replica of a shard
    applies the same committed sequence, so with consensus underneath
    (k = 1) the replies are those of an atomic object.

    Commands follow the {!Universal.Machines} convention —
    [("tag", arg)] pairs — so the Machines constructors
    ([Machines.add], [Machines.write]) build service commands too. *)

type t = {
  name : string;
  init : Shm.Value.t;
  apply : Shm.Value.t -> Shm.Value.t -> Shm.Value.t * Shm.Value.t;
      (** [apply state cmd] = (state', reply) *)
}

(** The [("read", ⊥)] command, understood by every catalog app: reply
    the current state, leave it unchanged. *)
val read : Shm.Value.t

(** Integer counter: [("add", x)] replies the new total. *)
val counter : t

(** Last-writer-wins register: [("write", v)] replies the previous
    value; [("read", _)] replies the current one.  The linearizability
    vehicle — see {!Conform.Rsm_history.check_register}. *)
val register : t

val all : t list
