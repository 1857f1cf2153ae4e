(* Replicated applications: what a shard's state machine does with each
   committed command.  Unlike Universal.Machines (a pure fold), a
   service application also produces a reply per command — the value
   the client's ticket resolves to.

   Command encodings reuse the Machines convention: ("tag", arg) pairs,
   so Machines.add / Machines.write build service commands too. *)

open Shm

type t = {
  name : string;
  init : Value.t;
  apply : Value.t -> Value.t -> Value.t * Value.t;
}

let read = Value.pair (Value.str "read") Value.bot

let counter =
  {
    name = "counter";
    init = Value.int 0;
    apply =
      (fun state cmd ->
        match Universal.Machines.tagged cmd with
        | Some ("add", x) ->
          let state' = Value.int (Value.to_int state + Value.to_int x) in
          (state', state')
        | Some ("read", _) -> (state, state)
        | _ -> (state, Value.bot));
  }

let register =
  {
    name = "register";
    init = Value.bot;
    apply =
      (fun state cmd ->
        match Universal.Machines.tagged cmd with
        | Some ("write", v) -> (v, state)
        | Some ("read", _) -> (state, state)
        | _ -> (state, Value.bot));
  }

let all = [ counter; register ]
