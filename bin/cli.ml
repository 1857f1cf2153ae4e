(* Command-line pieces shared by sa_run, sa_table and sa_attack: the
   exit-status contract, validated argument terms, and the scenario —
   one configured simulator instance — that `sa_run` and `sa_run trace`
   both take.

   Bad input stops here: every value is checked by its converter or by
   a term, so cmdliner prints "TOOL: MSG" with the usage line and
   [eval] exits 2.  Exit 125 ("internal error") is left for bugs. *)

open Cmdliner

let usage_exits =
  Cmd.Exit.
    [
      info 2 ~doc:"on usage errors: unparsable or out-of-range arguments.";
      info internal_error ~doc:"on unexpected internal errors (bugs).";
    ]

let exits =
  Cmd.Exit.info 0 ~doc:"on success."
  :: Cmd.Exit.info 1 ~doc:"on a safety violation, a failed verdict or a divergence."
  :: usage_exits

let eval cmd =
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok () | `Version | `Help) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)

(* Report a file-system error on the file of flag [--name] as a usage
   error, not an uncaught exception. *)
let or_usage_error name f =
  try f ()
  with Sys_error e ->
    Fmt.epr "--%s: %s@." name e;
    exit 2

(* An integer converter that rejects values below [lo]. *)
let at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= lo -> Ok v
    | Some v -> Error (`Msg (Fmt.str "must be at least %d, got %d" lo v))
    | None -> Error (`Msg (Fmt.str "%S is not an integer" s))
  in
  Arg.conv (parse, Fmt.int)

(* An enum over a library's list of values and their names. *)
let enum_of name values = Arg.enum (List.map (fun v -> (name v, v)) values)

let params_term n m k =
  let make n m k =
    let p = { Agreement.Params.n; m; k } in
    Result.map (fun () -> p) (Agreement.Params.validate p)
  in
  Term.(term_result' ~usage:true (const make $ n $ m $ k))

let nmk ?(n = 5) ?(m = 1) ?(k = 2) () =
  params_term
    Arg.(value & opt int n & info [ "n" ] ~doc:"Number of processes.")
    Arg.(value & opt int m & info [ "m" ] ~doc:"Obstruction bound.")
    Arg.(value & opt int k & info [ "k" ] ~doc:"Agreement bound.")

(* A spec converter: [parse] maps the text to a value or an error
   message; the spec text is kept for printing. *)
let spec_conv parse =
  let parse s = Result.map_error (fun e -> `Msg e) (Result.map (fun v -> (s, v)) (parse s)) in
  Arg.conv (parse, fun ppf (s, _) -> Fmt.string ppf s)

(* Scheduler spec name[:arg[:arg]]; the value builds the schedule for n
   processes, or says why n does not fit. *)
let sched_specs = "round-robin | quantum[:Q] | random[:SEED] | solo:P | m-bounded:SEED[:M]"

let quantum q n = Ok (Shm.Schedule.quantum_round_robin ~quantum:q n)

let sched_conv =
  spec_conv (fun spec ->
      let ( let* ) = Result.bind in
      let int what v =
        Option.to_result (int_of_string_opt v)
          ~none:(Fmt.str "scheduler %S: %s %S is not an integer" spec what v)
      in
      let within what v lo hi =
        if v < lo || v > hi then
          Error (Fmt.str "scheduler %S: need %d <= %s <= %d" spec lo what hi)
        else Ok ()
      in
      match String.split_on_char ':' spec with
      | [ "round-robin" ] -> Ok (fun n -> Ok (Shm.Schedule.round_robin n))
      | [ "quantum" ] -> Ok (quantum 300)
      | [ "quantum"; q ] ->
        let* q = int "quantum" q in
        if q < 1 then Error (Fmt.str "scheduler %S: the quantum must be at least 1" spec)
        else Ok (quantum q)
      | [ "random" ] -> Ok (fun n -> Ok (Shm.Schedule.random ~seed:0 n))
      | [ "random"; s ] ->
        let* s = int "seed" s in
        Ok (fun n -> Ok (Shm.Schedule.random ~seed:s n))
      | [ "solo"; p ] ->
        let* p = int "pid" p in
        Ok (fun n -> Result.map (fun () -> Shm.Schedule.solo p) (within "pid" p 0 (n - 1)))
      | "m-bounded" :: s :: ([] | [ _ ] as m) ->
        let* s = int "seed" s in
        let* m = match m with [ m ] -> int "m" m | _ -> Ok 1 in
        Ok
          (fun n ->
            Result.map
              (fun () -> Shm.Schedule.m_bounded ~seed:s ~m ~prefix:100 n)
              (within "m" m 1 n))
      | _ -> Error (Fmt.str "unknown scheduler %S; valid specs: %s" spec sched_specs))

(* Exploration spec engine:DEPTH; the value picks the engine for a
   number of worker domains. *)
let explore_specs = "naive:DEPTH | dpor:DEPTH | dpor-nocache:DEPTH"

let explore_conv =
  let engines =
    [
      ("naive", fun _ -> Spec.Modelcheck.Naive);
      ("dpor", fun jobs -> Spec.Modelcheck.Dpor { cache = true; jobs });
      ("dpor-nocache", fun jobs -> Spec.Modelcheck.Dpor { cache = false; jobs });
    ]
  in
  spec_conv (fun spec ->
      match String.split_on_char ':' spec with
      | [ name; d ] -> (
        match (List.assoc_opt name engines, int_of_string_opt d) with
        | Some engine, Some depth when depth >= 0 -> Ok (engine, depth)
        | Some _, _ -> Error (Fmt.str "%S: depth %S is not a non-negative integer" spec d)
        | None, _ ->
          Error (Fmt.str "%S: unknown engine %S; valid specs: %s" spec name explore_specs))
      | _ -> Error (Fmt.str "%S: expected engine:DEPTH; valid specs: %s" spec explore_specs))

(* ------------------------------------------------------------------ *)
(* The scenario: which algorithm over which snapshot with which
   parameters, how to schedule it (one schedule, or every schedule up
   to a depth), and the resulting configuration and inputs. *)

type algo = One_shot | Repeated | Anonymous | Baseline

type scenario = {
  algo : algo;
  params : Agreement.Params.t;
  impl : Agreement.Instances.impl;
  sched : Shm.Schedule.t;
  explore : (Spec.Modelcheck.engine * int) option;
  max_steps : int;
  config : Shm.Config.t;
  inputs : pid:int -> instance:int -> Shm.Value.t option;
}

let scenario =
  let algo =
    Arg.(
      value
      & opt
          (enum
             [
               ("oneshot", One_shot); ("repeated", Repeated); ("anonymous", Anonymous);
               ("baseline", Baseline);
             ])
          One_shot
      & info [ "algo"; "a" ] ~doc:"Algorithm to run.")
  in
  let impl =
    Arg.(
      value
      & opt
          (enum
             [
               ("atomic", Agreement.Instances.Atomic);
               ("collect", Agreement.Instances.Double_collect);
               ("sw", Agreement.Instances.Sw_based);
             ])
          Agreement.Instances.Atomic
      & info [ "impl" ]
          ~doc:
            "Snapshot implementation: $(b,atomic), $(b,collect) (register-level double \
             collect) or $(b,sw) (n single-writer registers).")
  in
  let sched =
    Arg.(
      value
      & opt sched_conv ("quantum:300", quantum 300)
      & info [ "sched"; "s" ] ~docv:"SCHED"
          ~doc:("Scheduler of a single run: " ^ sched_specs ^ "."))
  in
  let rounds =
    Arg.(value & opt (at_least 1) 3 & info [ "rounds"; "r" ] ~doc:"Instances (repeated).")
  in
  let registers =
    Arg.(
      value
      & opt (some (at_least 1)) None
      & info [ "registers" ] ~docv:"R"
          ~doc:
            "Override the register budget (components) of the instance.  Fewer than \
             n+2m-k voids the correctness argument — that is the point: combine with \
             --explore to exhibit violations of register-starved instances.")
  in
  let explore =
    Arg.(
      value
      & opt (some explore_conv) None
      & info [ "explore" ] ~docv:"ENGINE:DEPTH"
          ~doc:
            ("Model-check over all schedules up to DEPTH instead of running one \
              schedule: " ^ explore_specs ^ ".  Exits 1 on a violation."))
  in
  let jobs =
    Arg.(
      value & opt (at_least 1) 1
      & info [ "jobs"; "j" ] ~doc:"Worker domains for --explore dpor (default 1).")
  in
  let max_steps =
    Arg.(
      value & opt (at_least 0) 500_000
      & info [ "max-steps" ] ~doc:"Step budget of a single run.")
  in
  let make algo params impl (_, sched) rounds registers explore jobs max_steps =
    let { Agreement.Params.n; _ } = params in
    match sched n with
    | Error e -> Error e
    | Ok _ when explore <> None && n > Spec.Explore.max_n ->
      Error (Fmt.str "--explore: at most %d processes, got n=%d" Spec.Explore.max_n n)
    | Ok sched ->
      let config =
        match algo with
        | One_shot -> Agreement.Instances.oneshot ?r:registers ~impl params
        | Repeated -> Agreement.Instances.repeated ?r:registers ~impl params
        | Baseline ->
          if registers <> None then
            Fmt.epr "note: --registers is ignored for the baseline algorithm@.";
          Agreement.Instances.baseline ~impl params
        | Anonymous ->
          Agreement.Instances.anonymous ?r:registers
            ~anonymous_collect:(impl = Agreement.Instances.Double_collect)
            params
      in
      let rounds = match algo with One_shot | Baseline -> 1 | Repeated | Anonymous -> rounds in
      Ok
        {
          algo;
          params;
          impl;
          sched;
          explore =
            Option.map (fun (_, (engine, depth)) -> (engine jobs, depth)) explore;
          max_steps;
          config;
          inputs =
            Shm.Exec.repeated_inputs ~rounds (fun pid instance ->
                Shm.Value.int ((100 * instance) + pid));
        }
  in
  Term.(
    term_result' ~usage:true
      (const make $ algo $ nmk () $ impl $ sched $ rounds $ registers $ explore $ jobs
     $ max_steps))
