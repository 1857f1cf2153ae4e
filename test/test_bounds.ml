(* Tests for parameter validation, the Figure 1 closed forms, and the
   View helper predicates shared by the algorithms. *)

open Helpers
open Agreement

let params_validation () =
  Alcotest.(check bool) "valid" true
    (match Params.validate { Params.n = 5; m = 2; k = 3 } with Ok () -> true | Error _ -> false);
  let bad t = match Params.validate t with Ok () -> false | Error _ -> true in
  Alcotest.(check bool) "m > k rejected (unsolvable)" true
    (bad { Params.n = 5; m = 3; k = 2 });
  Alcotest.(check bool) "k >= n rejected (trivial)" true
    (bad { Params.n = 3; m = 1; k = 3 });
  Alcotest.(check bool) "m < 1 rejected" true (bad { Params.n = 3; m = 0; k = 1 });
  Alcotest.(check bool) "n <= 1 rejected" true (bad { Params.n = 1; m = 1; k = 1 })

let figure1_formulas () =
  let p = Params.make ~n:10 ~m:2 ~k:4 in
  Alcotest.(check int) "r oneshot = n+2m-k" 10 (Params.r_oneshot p);
  Alcotest.(check int) "ell = n+m-k" 8 (Params.ell p);
  Alcotest.(check int) "lower = n+m-k" 8 (Params.registers_lower p);
  Alcotest.(check int) "upper = min(n+2m-k, n)" 10 (Params.registers_upper p);
  Alcotest.(check int) "anon r = (m+1)(n-k)+m^2" 22 (Params.r_anonymous p);
  let p2 = Params.make ~n:4 ~m:2 ~k:2 in
  Alcotest.(check int) "upper capped at n" 4 (Params.registers_upper p2);
  Alcotest.(check int) "r oneshot exceeds n here" 6 (Params.r_oneshot p2)

let anon_lower_formula () =
  (* Theorem 10: > sqrt(m(n/k - 2)) *)
  let p = Params.make ~n:100 ~m:1 ~k:1 in
  Alcotest.(check bool) "~sqrt(98)" true
    (abs_float (Params.anon_lower_bound p -. sqrt 98.) < 1e-9);
  let p2 = Params.make ~n:100 ~m:4 ~k:5 in
  Alcotest.(check bool) "sqrt(4*18)" true
    (abs_float (Params.anon_lower_bound p2 -. sqrt 72.) < 1e-9)

let consensus_exact_n () =
  (* §1: obstruction-free repeated consensus requires exactly n registers *)
  for n = 2 to 20 do
    let lower, upper = Bounds.Formulas.repeated_consensus_exact ~n in
    Alcotest.(check int) "lower = n" n lower;
    Alcotest.(check int) "upper = n" n upper
  done

let bounds_rows_consistent () =
  (* on every valid parameter triple, lower <= upper in each row *)
  for n = 2 to 12 do
    for k = 1 to n - 1 do
      for m = 1 to k do
        let p = Params.make ~n ~m ~k in
        Bounds.Formulas.all
        |> List.iter (fun row ->
               let lo = row.Bounds.Formulas.lower p
               and hi = row.Bounds.Formulas.upper p in
               if lo > hi +. 1e-9 then
                 Alcotest.failf "%s at %s: lower %.2f > upper %.2f"
                   row.Bounds.Formulas.label (Params.to_string p) lo hi)
      done
    done
  done

let dfgr_comparison_row () =
  let b, ours = Bounds.Formulas.dfgr13_comparison ~n:10 ~k:3 in
  Alcotest.(check int) "baseline 2(n-k)" 14 b;
  Alcotest.(check int) "ours n-k+2" 9 ours

(* ---- View helpers ---- *)

let view_distinct_count () =
  let v = [| vi 1; vi 2; vi 1; Shm.Value.bot; vi 2 |] in
  Alcotest.(check int) "distinct" 3 (Agreement.View.distinct_count v);
  Alcotest.(check int) "empty" 0 (Agreement.View.distinct_count [||])

let view_min_duplicate () =
  let v = [| vi 5; vi 2; vi 2; vi 5 |] in
  Alcotest.(check (option int)) "min dup" (Some 0) (Agreement.View.min_duplicate_index v);
  let v2 = [| vi 1; vi 2; vi 3 |] in
  Alcotest.(check (option int)) "no dup" None (Agreement.View.min_duplicate_index v2);
  Alcotest.(check bool) "duplicated later" true (Agreement.View.duplicated_later v 1);
  Alcotest.(check bool) "last copy" false (Agreement.View.duplicated_later v 2)

let view_most_frequent () =
  let v = [| vi 1; vi 2; vi 2; vi 1; vi 2 |] in
  (match Agreement.View.most_frequent ~project:Fun.id v with
  | Some x -> check_value "2 wins" (vi 2) x
  | None -> Alcotest.fail "expected a value");
  let tie = [| vi 1; vi 2; vi 2; vi 1 |] in
  match Agreement.View.most_frequent ~project:Fun.id tie with
  | Some x -> check_value "tie -> first seen" (vi 1) x
  | None -> Alcotest.fail "expected a value"

let view_counts () =
  let v = [| vi 1; Shm.Value.bot; vi 1 |] in
  Alcotest.(check int) "count" 2 (Agreement.View.count (Shm.Value.equal (vi 1)) v);
  Alcotest.(check bool) "contains bot" true (Agreement.View.contains_bot v);
  Alcotest.(check int) "filter keeps multiplicity" 2
    (List.length (Agreement.View.filter (Shm.Value.equal (vi 1)) v))

let schedule_first_runnable () =
  let runnable pid = pid mod 2 = 1 in
  Alcotest.(check (option int)) "first odd" (Some 1)
    (Shm.Schedule.first_runnable ~runnable [ 0; 1; 2; 3 ]);
  Alcotest.(check (option int)) "none" None
    (Shm.Schedule.first_runnable ~runnable [ 0; 2 ])

let suite =
  [
    test "parameter validation" params_validation;
    test "figure 1 register formulas" figure1_formulas;
    test "anonymous lower-bound formula" anon_lower_formula;
    test "repeated consensus needs exactly n registers" consensus_exact_n;
    test "figure 1 rows: lower <= upper everywhere" bounds_rows_consistent;
    test "dfgr13 comparison row" dfgr_comparison_row;
    test "view distinct count" view_distinct_count;
    test "view min duplicate index" view_min_duplicate;
    test "view most frequent" view_most_frequent;
    test "view counts and bot detection" view_counts;
    test "schedule first_runnable helper" schedule_first_runnable;
  ]
