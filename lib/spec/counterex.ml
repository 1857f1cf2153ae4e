(* The common counterexample currency of the exploration stack.

   Every engine that can exhibit a safety violation — the naive
   exhaustive checker, the DPOR engine, the randomized stress harness —
   reports it as a value of this one type: the pid schedule that
   produced it, the checker's error message, and the final
   configuration.  The schedule is the replayable artifact: processes
   are deterministic, so a pid sequence pins down the entire execution,
   and [replay] reproduces (and re-grades) the violation from the
   initial configuration alone.  The shrinker (Spec.Shrink) works
   exclusively through [replay], so anything reported here can be
   minimized. *)

open Shm

type t = {
  schedule : int list;  (* pids, in step order *)
  error : string;       (* what the property checker reported *)
  config : Config.t;    (* the configuration the checker rejected *)
}

let pp ppf { schedule; error; _ } =
  Fmt.pf ppf "schedule [%s]: %s"
    (String.concat " " (List.map string_of_int schedule))
    error

(* One step of [pid]: invoke if idle (the input must exist), perform
   the poised step otherwise.  This is the single stepping rule shared
   by every engine, so "schedule" means the same thing everywhere. *)
let step_pid ~inputs config pid =
  match Config.proc config pid with
  | Program.Await _ ->
    let inst = Config.instance config pid + 1 in
    (match inputs ~pid ~instance:inst with
    | Some v -> fst (Config.invoke config pid v)
    | None -> config)
  | Program.Stop -> config
  | Program.Op _ | Program.Yield _ -> fst (Config.step config pid)

(* Drive [config] to quiescence deterministically (long solo bursts),
   the completion rule of the model checkers. *)
let complete ~inputs ~max_steps config =
  let sched = Schedule.completion (Config.n config) in
  (Exec.run ~sched ~inputs ~max_steps config).Exec.config

(* Tolerant replay: steps the schedule's pids in order, skipping any
   pid that is not currently runnable (shrinking removes steps, which
   can strand later ones), optionally completes, then re-checks.  Some
   (error, config) iff the property still fails.  Tolerance matters for
   minimization: a candidate schedule with a stranded step is simply a
   shorter schedule, not an invalid one. *)
let replay ?completion_steps ~inputs ~check config schedule =
  let has_input pid inst = Option.is_some (inputs ~pid ~instance:inst) in
  let final =
    List.fold_left
      (fun config pid ->
        if pid >= 0 && pid < Config.n config && Config.runnable config ~has_input pid
        then step_pid ~inputs config pid
        else config)
      config schedule
  in
  let final =
    match completion_steps with
    | Some max_steps -> complete ~inputs ~max_steps final
    | None -> final
  in
  match check final with Ok () -> None | Error error -> Some (error, final)
