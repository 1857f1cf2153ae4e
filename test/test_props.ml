(* Property-based tests (qcheck) on substrate invariants and the
   paper's safety properties under randomized schedules. *)

open Shm

(* PRNG state derives from SA_TEST_SEED (default fixed): property
   failures are reproducible and the seed is printed on failure *)
let to_alcotest = Helpers.qcheck_to_alcotest

(* ---- generators ---- *)

let value_gen =
  QCheck.Gen.(
    sized @@ fix (fun self size ->
        if size <= 1 then
          oneof [ return Value.bot; map (fun i -> Value.int i) small_int ]
        else
          frequency
            [
              (3, map (fun i -> Value.int i) small_int);
              (1, return Value.bot);
              (1, map (fun s -> Value.str s) (string_size (int_bound 4)));
              (2, map2 (fun a b -> Value.pair a b) (self (size / 2)) (self (size / 2)));
              (1, map (fun l -> Value.list l) (list_size (int_bound 3) (self (size / 3))));
            ]))

let value_arb = QCheck.make ~print:Value.to_string value_gen

(* valid (n, m, k) triples with small n *)
let params_gen =
  QCheck.Gen.(
    int_range 2 6 >>= fun n ->
    int_range 1 (n - 1) >>= fun k ->
    int_range 1 k >>= fun m -> return (Agreement.Params.make ~n ~m ~k))

let params_arb =
  QCheck.make ~print:Agreement.Params.to_string params_gen

(* ---- Value laws ---- *)

let prop_equal_reflexive =
  QCheck.Test.make ~name:"Value.equal is reflexive" ~count:500 value_arb (fun v ->
      Value.equal v v)

let prop_compare_equal_consistent =
  QCheck.Test.make ~name:"Value.compare = 0 iff Value.equal" ~count:500
    (QCheck.pair value_arb value_arb) (fun (a, b) ->
      Value.equal a b = (Value.compare a b = 0))

let prop_compare_antisymmetric =
  QCheck.Test.make ~name:"Value.compare antisymmetric" ~count:500
    (QCheck.pair value_arb value_arb) (fun (a, b) ->
      let c = Value.compare a b and c' = Value.compare b a in
      (c > 0 && c' < 0) || (c < 0 && c' > 0) || (c = 0 && c' = 0))

let prop_compare_transitive =
  QCheck.Test.make ~name:"Value.compare transitive" ~count:500
    (QCheck.triple value_arb value_arb value_arb) (fun (a, b, c) ->
      let le x y = Value.compare x y <= 0 in
      (not (le a b && le b c)) || le a c)

(* Hash-consing invariant: equal values hash equal.  Random pairs are
   almost never equal, so also rebuild a structurally identical copy
   through fresh constructor calls — the pair (v, rebuild v) exercises
   the law on the equal side every time. *)
let rec rebuild v =
  match Value.view v with
  | Value.Bot -> Value.bot
  | Value.Int i -> Value.int i
  | Value.Str s -> Value.str s
  | Value.Pair (a, b) -> Value.pair (rebuild a) (rebuild b)
  | Value.List l -> Value.list (List.map rebuild l)

let prop_hash_agrees_with_equal =
  QCheck.Test.make ~name:"Value.hash agrees with Value.equal" ~count:500
    (QCheck.pair value_arb value_arb) (fun (a, b) ->
      let a' = rebuild a in
      Value.equal a a'
      && Value.hash a = Value.hash a'
      && Value.compare a a' = 0
      && ((not (Value.equal a b)) || Value.hash a = Value.hash b))

(* ---- Memory model ---- *)

let prop_memory_model =
  (* a random op sequence agrees with a naive assoc-list model *)
  QCheck.Test.make ~name:"Memory agrees with assoc model" ~count:300
    QCheck.(list (pair (int_bound 7) small_int))
    (fun writes ->
      let mem =
        List.fold_left (fun m (r, v) -> Memory.write m r (Value.int v)) (Memory.create 8)
          writes
      in
      let model r =
        match List.find_opt (fun (r', _) -> r' = r) (List.rev writes) with
        | Some (_, v) -> Value.int v
        | None -> Value.bot
      in
      List.init 8 Fun.id
      |> List.for_all (fun r -> Value.equal (Memory.read mem r) (model r)))

(* ---- View helpers vs naive specs ---- *)

let view_arb =
  QCheck.make
    QCheck.Gen.(
      map Array.of_list
        (list_size (int_range 1 8)
           (oneof [ return Value.bot; map (fun i -> Value.int (i mod 4)) small_int ])))

let prop_distinct_count_spec =
  QCheck.Test.make ~name:"View.distinct_count matches sort-uniq" ~count:500 view_arb
    (fun view ->
      let naive =
        Array.to_list view |> List.sort_uniq Value.compare |> List.length
      in
      Agreement.View.distinct_count view = naive)

let prop_min_duplicate_spec =
  QCheck.Test.make ~name:"View.min_duplicate_index matches naive search" ~count:500
    view_arb (fun view ->
      let n = Array.length view in
      let naive =
        let rec outer j1 =
          if j1 >= n then None
          else if
            List.exists
              (fun j2 -> j2 > j1 && Value.equal view.(j1) view.(j2))
              (List.init n Fun.id)
          then Some j1
          else outer (j1 + 1)
        in
        outer 0
      in
      Agreement.View.min_duplicate_index view = naive)

(* ---- Safety of the algorithms under random schedules ---- *)

let safety_arb = QCheck.pair params_arb (QCheck.make QCheck.Gen.(int_bound 9999))

let prop_oneshot_safety =
  QCheck.Test.make ~name:"one-shot: validity + k-agreement under random schedules"
    ~count:150 safety_arb (fun (p, seed) ->
      let n = p.Agreement.Params.n in
      let result =
        Agreement.Runner.run_oneshot ~sched:(Schedule.random ~seed n) ~max_steps:40_000 p
      in
      match Spec.Properties.check_safety ~k:p.Agreement.Params.k result.Exec.config with
      | Ok () -> true
      | Error _ -> false)

let prop_repeated_safety =
  QCheck.Test.make ~name:"repeated: validity + k-agreement under random schedules"
    ~count:80 safety_arb (fun (p, seed) ->
      let n = p.Agreement.Params.n in
      let result =
        Agreement.Runner.run_repeated ~rounds:3 ~sched:(Schedule.random ~seed n)
          ~max_steps:60_000 p
      in
      match Spec.Properties.check_safety ~k:p.Agreement.Params.k result.Exec.config with
      | Ok () -> true
      | Error _ -> false)

let prop_anonymous_safety =
  QCheck.Test.make ~name:"anonymous: validity + k-agreement under random schedules"
    ~count:40 safety_arb (fun (p, seed) ->
      let n = p.Agreement.Params.n in
      let result =
        Agreement.Runner.run_anonymous ~rounds:2 ~sched:(Schedule.random ~seed n)
          ~max_steps:60_000 p
      in
      match Spec.Properties.check_safety ~k:p.Agreement.Params.k result.Exec.config with
      | Ok () -> true
      | Error _ -> false)

(* ---- m-obstruction-freedom as a property ---- *)

let prop_m_obstruction_freedom =
  QCheck.Test.make
    ~name:"one-shot: m survivors always terminate (m-obstruction-freedom)" ~count:80
    safety_arb (fun (p, seed) ->
      let n = p.Agreement.Params.n and m = p.Agreement.Params.m in
      let sched = Schedule.m_bounded ~seed ~m ~prefix:(20 + (seed mod 40)) n in
      let result = Agreement.Runner.run_oneshot ~sched ~max_steps:200_000 p in
      result.Exec.stopped = Exec.All_quiescent)

(* ---- tuple codec roundtrips ---- *)

let history_gen =
  QCheck.Gen.(list_size (int_bound 4) (map (fun i -> Value.int i) small_int))

let repeated_tuple_arb =
  QCheck.make
    QCheck.Gen.(
      map2
        (fun (pref, id) (t, history) ->
          { Agreement.Repeated.pref = Value.int pref; id; t = t + 1; history })
        (pair small_int (int_bound 15))
        (pair (int_bound 9) history_gen))

let prop_repeated_codec =
  QCheck.Test.make ~name:"Repeated tuple encode/decode roundtrip" ~count:300
    repeated_tuple_arb (fun tu ->
      match Agreement.Repeated.decode (Agreement.Repeated.encode tu) with
      | Some tu' ->
        Value.equal tu.Agreement.Repeated.pref tu'.Agreement.Repeated.pref
        && tu.Agreement.Repeated.id = tu'.Agreement.Repeated.id
        && tu.Agreement.Repeated.t = tu'.Agreement.Repeated.t
        && List.for_all2 Value.equal tu.Agreement.Repeated.history
             tu'.Agreement.Repeated.history
      | None -> false)

let anonymous_tuple_arb =
  QCheck.make
    QCheck.Gen.(
      map2
        (fun pref (t, history) ->
          { Agreement.Anonymous.pref = Value.int pref; t = t + 1; history })
        small_int
        (pair (int_bound 9) history_gen))

let prop_anonymous_codec =
  QCheck.Test.make ~name:"Anonymous tuple encode/decode roundtrip" ~count:300
    anonymous_tuple_arb (fun tu ->
      match Agreement.Anonymous.decode (Agreement.Anonymous.encode tu) with
      | Some tu' ->
        Value.equal tu.Agreement.Anonymous.pref tu'.Agreement.Anonymous.pref
        && tu.Agreement.Anonymous.t = tu'.Agreement.Anonymous.t
        && List.for_all2 Value.equal tu.Agreement.Anonymous.history
             tu'.Agreement.Anonymous.history
      | None -> false)

let prop_bot_decodes_to_none =
  QCheck.Test.make ~name:"⊥ decodes to None in both codecs" ~count:1 QCheck.unit
    (fun () ->
      Agreement.Repeated.decode Value.bot = None
      && Agreement.Anonymous.decode Value.bot = None)

(* ---- Figure 4's predicates: raw view vs decoded once ---- *)

module R = Agreement.Repeated

(* The predicates as the paper states them, decoding entries one at a
   time: the reference both the public predicates and the decoded-once
   path the program runs must agree with. *)
let ref_find_higher ~t view =
  Array.fold_left
    (fun best v ->
      match R.decode v with
      | Some tu when tu.R.t > t -> (
        match best with Some b when b.R.t >= tu.R.t -> best | Some _ | None -> Some tu)
      | Some _ | None -> best)
    None view

let ref_decide_check ~m ~t view =
  let all_current =
    Array.for_all (fun v -> match R.decode v with Some tu -> tu.R.t >= t | None -> false) view
  in
  if all_current && Agreement.View.distinct_count view <= m then
    let j = Option.value (Agreement.View.min_duplicate_index view) ~default:0 in
    Option.map (fun tu -> tu.R.pref) (R.decode view.(j))
  else None

let ref_adopt_check ~own ~i ~t view =
  let clear = ref true in
  Array.iteri
    (fun j v -> if j <> i && (Value.is_bot v || Value.equal v (R.encode own)) then clear := false)
    view;
  (* j1: the minimum index of a t-tuple that appears again later *)
  let r = Array.length view in
  let rec j1 j =
    if j >= r then None
    else
      match R.decode view.(j) with
      | Some tu
        when tu.R.t = t
             && List.exists (fun j2 -> Value.equal view.(j) view.(j2))
                  (List.init (r - j - 1) (fun d -> j + 1 + d)) ->
        Some tu
      | Some _ | None -> j1 (j + 1)
  in
  if !clear then
    match j1 0 with
    | Some tu when not (Value.equal tu.R.pref own.R.pref) -> Some tu.R.pref
    | Some _ | None -> None
  else None

(* Views that hold duplicates, ⊥ entries and tuples of lower, equal and
   higher instances than the process's. *)
let fig4_case_gen =
  QCheck.Gen.(
    let tuple_gen =
      map3
        (fun (pref, id) t history -> { R.pref = Value.int pref; id; t; history })
        (pair (int_bound 2) (int_bound 2))
        (int_range 1 3)
        (list_size (int_bound 3) (map Value.int (int_bound 2)))
    in
    (* entries come from a pool of three tuples, so duplicates are common *)
    list_repeat 3 tuple_gen >>= fun pool ->
    list_size (int_range 1 6) (option ~ratio:0.8 (oneofl pool)) >>= fun entries ->
    let view =
      Array.of_list (List.map (function Some tu -> R.encode tu | None -> Value.bot) entries)
    in
    let r = Array.length view in
    let stored = List.filter_map Fun.id entries in
    quad (int_range 1 3) (int_range 1 3) (int_bound (r - 1)) tuple_gen
    >>= fun (m, t, i, fresh) ->
    (* the process's own tuple: a fresh one of instance t, or one the
       view already holds (so the "own tuple elsewhere" test bites) *)
    let own_gen =
      if stored = [] then return { fresh with R.t = t }
      else oneof [ return { fresh with R.t = t }; oneofl stored ]
    in
    map (fun own -> (view, m, t, i, own)) own_gen)

let fig4_case_print (view, m, t, i, own) =
  Fmt.str "view [%s] m=%d t=%d i=%d own=%a"
    (String.concat "; " (Array.to_list (Array.map Value.to_string view)))
    m t i Value.pp (R.encode own)

let same_tuple a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> Value.equal (R.encode a) (R.encode b)
  | Some _, None | None, Some _ -> false

let prop_repeated_predicates =
  QCheck.Test.make ~name:"Figure 4 predicates: raw and decoded-once views agree" ~count:1000
    (QCheck.make ~print:fig4_case_print fig4_case_gen)
    (fun (view, m, t, i, own) ->
      let d = R.decode_view view in
      let expected = ref_find_higher ~t view in
      same_tuple (R.find_higher ~t view) expected
      && same_tuple (R.higher ~t d) expected
      && Option.equal Value.equal (R.decide_check ~m ~t view) (ref_decide_check ~m ~t view)
      && Option.equal Value.equal (R.decides ~m ~t d) (ref_decide_check ~m ~t view)
      && Option.equal Value.equal (R.adopt_check ~own ~i ~t view)
           (ref_adopt_check ~own ~i ~t view)
      && Option.equal Value.equal
           (R.adopts ~own:(R.encode own) ~pref:own.R.pref ~i ~t d)
           (ref_adopt_check ~own ~i ~t view))

(* ---- the Theorem 2 adversary as a property ---- *)

let small_params_gen =
  QCheck.Gen.(
    int_range 4 6 >>= fun n ->
    int_range 1 (min 3 (n - 1)) >>= fun k ->
    int_range 1 (min 2 k) >>= fun m -> return (Agreement.Params.make ~n ~m ~k))

let prop_starved_always_breaks =
  QCheck.Test.make ~name:"Theorem 2: every starved instance breaks" ~count:25
    (QCheck.make ~print:Agreement.Params.to_string small_params_gen) (fun p ->
      let registers = Agreement.Params.registers_lower p - 1 in
      registers < 1
      ||
      match
        Lowerbound.Theorem2.attack ~params:p ~registers
          ~make_config:(fun ~registers -> Agreement.Instances.repeated ~r:registers p)
          ~icap:3 ()
      with
      | Lowerbound.Theorem2.Violation { config; _ } ->
        Spec.Properties.validity_errors config = []
        && Spec.Properties.agreement_errors ~k:p.Agreement.Params.k config <> []
      | _ -> false)

let prop_correct_always_resists =
  QCheck.Test.make ~name:"Theorem 2: every correct instance resists" ~count:25
    (QCheck.make ~print:Agreement.Params.to_string small_params_gen) (fun p ->
      match
        Lowerbound.Theorem2.attack ~params:p
          ~registers:(Agreement.Params.r_oneshot p)
          ~make_config:(fun ~registers -> Agreement.Instances.repeated ~r:registers p)
          ~icap:3 ()
      with
      | Lowerbound.Theorem2.Out_of_processes _ -> true
      | _ -> false)

(* ---- register budget as a property ---- *)

let prop_register_budget =
  QCheck.Test.make ~name:"one-shot never writes outside n+2m-k components" ~count:100
    safety_arb (fun (p, seed) ->
      let n = p.Agreement.Params.n in
      let result =
        Agreement.Runner.run_oneshot ~sched:(Schedule.random ~seed n) ~max_steps:40_000 p
      in
      Agreement.Runner.registers_used result <= Agreement.Params.r_oneshot p)

let suite =
  List.map to_alcotest
    [
      prop_equal_reflexive;
      prop_compare_equal_consistent;
      prop_compare_antisymmetric;
      prop_compare_transitive;
      prop_hash_agrees_with_equal;
      prop_memory_model;
      prop_distinct_count_spec;
      prop_min_duplicate_spec;
      prop_oneshot_safety;
      prop_repeated_safety;
      prop_anonymous_safety;
      prop_m_obstruction_freedom;
      prop_register_budget;
      prop_repeated_codec;
      prop_anonymous_codec;
      prop_bot_decodes_to_none;
      prop_repeated_predicates;
      prop_starved_always_breaks;
      prop_correct_always_resists;
    ]
