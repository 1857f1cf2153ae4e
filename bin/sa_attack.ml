(* sa-attack: run the paper's lower-bound constructions from the
   command line.

   Examples:
     sa_attack theorem2 -n 5 -m 1 -k 2 --registers 3
     sa_attack theorem2 -n 5 -m 1 -k 2            (defaults to lower-1)
     sa_attack clones -k 1 --registers 3 --slots 8 *)

open Cmdliner
open Lowerbound

let theorem2 p registers icap =
  let registers =
    match registers with Some r -> r | None -> Agreement.Params.registers_lower p - 1
  in
  Fmt.pr "Theorem 2 construction: %s with %d registers (lower bound %d, algorithm uses %d)@."
    (Agreement.Params.to_string p)
    registers
    (Agreement.Params.registers_lower p)
    (Agreement.Params.registers_upper p);
  let outcome =
    Theorem2.attack ~params:p ~registers
      ~make_config:(fun ~registers -> Agreement.Instances.repeated ~r:registers p)
      ~icap ()
  in
  Fmt.pr "%a@." Theorem2.pp_outcome outcome;
  match outcome with
  | Theorem2.Violation { config; groups; _ } ->
    groups
    |> List.iter (fun g ->
           Fmt.pr "  group %d: Q={%a} P={%a} A={%a}@." g.Theorem2.index
             Fmt.(list ~sep:comma int)
             g.Theorem2.final_q
             Fmt.(list ~sep:comma int)
             g.Theorem2.pset
             Fmt.(list ~sep:comma int)
             g.Theorem2.aset);
    (match Spec.Properties.check_safety ~k:p.Agreement.Params.k config with
    | Error e -> Fmt.pr "checker: %s@." e
    | Ok () -> Fmt.pr "checker: found nothing (unexpected)@.");
    exit 0
  | Theorem2.Out_of_processes _ -> exit 1
  | Theorem2.Gamma_failed _ -> exit 2

(* The clone construction runs k+1 groups on [slots] process slots,
   by default the theorem's threshold for [registers]. *)
let clones_target k registers slots =
  let threshold = (k + 1) * (1 + (((registers * registers) - registers) / 2)) in
  let p = { Agreement.Params.n = Option.value slots ~default:threshold; m = 1; k } in
  match Agreement.Params.validate p with
  | Ok () -> Ok (p, registers, threshold)
  | Error e -> Error (Fmt.str "-k/--slots: %s (n = process slots)" e)

let clones (p, registers, threshold) =
  let { Agreement.Params.n = slots; k; _ } = p in
  Fmt.pr
    "Section 5 clone construction: k=%d, %d registers, %d process slots (theorem \
     threshold %d)@."
    k registers slots threshold;
  let outcome =
    Clones.attack ~params:p ~registers ~slots
      ~make_config:(fun ~registers ~slots ->
        Agreement.Instances.anonymous_oneshot ~r:registers ~slots p)
      ()
  in
  Fmt.pr "%a@." Clones.pp_outcome outcome;
  exit (match outcome with Clones.Violation _ -> 0 | _ -> 1)

let exits =
  Cmd.Exit.
    [
      info 0 ~doc:"when the construction breaks the algorithm (a safety violation).";
      info 1 ~doc:"when the construction does not break the algorithm.";
      info 2 ~doc:"on usage errors, or when Theorem 2's gamma construction fails.";
      info internal_error ~doc:"on unexpected internal errors (bugs).";
    ]

let theorem2_cmd =
  let registers =
    Arg.(
      value
      & opt (some (Cli.at_least 1)) None
      & info [ "registers"; "r" ] ~doc:"Register budget.")
  in
  let icap = Arg.(value & opt int 4 & info [ "icap" ] ~doc:"Ordinary-instance cap.") in
  Cmd.v
    (Cmd.info "theorem2" ~exits ~doc:"Run the Figure 2 adversary against Figure 4")
    Term.(const theorem2 $ Cli.nmk () $ registers $ icap)

let clones_cmd =
  let k = Arg.(value & opt int 1 & info [ "k" ] ~doc:"Agreement bound.") in
  let registers =
    Arg.(value & opt (Cli.at_least 1) 3 & info [ "registers"; "r" ] ~doc:"Registers.")
  in
  let slots =
    Arg.(value & opt (some int) None & info [ "slots" ] ~doc:"Process slots.")
  in
  Cmd.v
    (Cmd.info "clones" ~exits ~doc:"Run the anonymous clone construction")
    Term.(
      const clones $ term_result' ~usage:true (const clones_target $ k $ registers $ slots))

let () =
  Cli.eval
    (Cmd.group
       (Cmd.info "sa_attack" ~exits ~doc:"Executable lower bounds of the paper")
       [ theorem2_cmd; clones_cmd ])
