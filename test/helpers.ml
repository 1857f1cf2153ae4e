(* Shared test utilities. *)

open Shm

let value = Alcotest.testable Value.pp Value.equal

let check_value = Alcotest.check value

let vi i = Value.int i

(* Distinct outputs of one instance of a finished run. *)
let distinct_outputs result ~instance =
  Spec.Properties.distinct_values
    (Agreement.Runner.outputs_of_instance result ~instance)

(* Assert the run satisfies Validity and k-Agreement. *)
let assert_safe ~k result =
  match Spec.Properties.check_safety ~k result.Exec.config with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "safety violated: %s" msg

(* Assert the run quiesced with every process completing [ops] operations. *)
let assert_all_done ~ops result =
  (match result.Exec.stopped with
  | Exec.All_quiescent -> ()
  | Exec.Fuel_exhausted -> Alcotest.failf "run did not quiesce in %d steps" result.Exec.steps);
  match Spec.Properties.termination_errors ~expected:(fun _ -> ops) result.Exec.config with
  | [] -> ()
  | errs -> Alcotest.failf "termination: %s" (String.concat "; " errs)

let test name f = Alcotest.test_case name `Quick f

let slow_test name f = Alcotest.test_case name `Slow f

(* Seed discipline for randomized tests: every random choice derives
   from [base_seed], overridable with SA_TEST_SEED so a CI failure
   reproduces locally with one env var; [seeded_test]/[seeded_slow_test]
   print the seed in play whenever the test fails. *)
let base_seed =
  match Sys.getenv_opt "SA_TEST_SEED" with
  | None -> 0x5eed
  | Some s -> (
    match int_of_string_opt s with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "SA_TEST_SEED=%S is not an integer" s))

let with_seed_report f () =
  try f base_seed
  with e ->
    Fmt.epr "[test seed %d — rerun with SA_TEST_SEED=%d to reproduce]@." base_seed
      base_seed;
    raise e

let seeded_test name f = Alcotest.test_case name `Quick (with_seed_report f)

let seeded_slow_test name f = Alcotest.test_case name `Slow (with_seed_report f)

(* QCheck suites get the same discipline: the property PRNG derives
   from [base_seed] (not a per-file constant), and a failure prints the
   seed in play — so SA_TEST_SEED reproduces property failures exactly
   like it reproduces seeded unit tests. *)
let qcheck_to_alcotest t =
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| base_seed |]) t
  in
  (name, speed, fun x -> with_seed_report (fun _seed -> run x) ())

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0
