(* The experiment harness: regenerates the paper's evaluation.

   Every experiment is one record of [registry] at the bottom of this
   file: its id, the BENCH_*.json file its rows go to, the floors
   `check` gates them against, and the function that runs it.  Any
   unrecognised argument prints the usage line with every id;
   EXPERIMENTS.md describes each experiment (E1–E20, B1–B7). *)

open Agreement
open Lowerbound
module J = Obs.Json

let section title = Fmt.pr "@.=== %s ===@." title

let check_mark ok = if ok then "ok" else "MISMATCH"

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let point_fields { Params.n; m; k } = [ ("n", J.Int n); ("m", J.Int m); ("k", J.Int k) ]

(* Every (n, m, k) with 1 <= m <= k < n for n in [ns], k-major. *)
let triples ns =
  List.concat_map
    (fun n ->
      List.concat_map (fun k -> List.init k (fun i -> Params.make ~n ~m:(i + 1) ~k))
        (List.init (n - 1) succ))
    ns

(* ------------------------------------------------------------------ *)
(* Columns.  A table that records JSON rows declares each printed
   column once — header, width and how to show the row's field — and
   prints every row from the JSON object it returns, so the console and
   the BENCH file cannot disagree. *)

type column = { head : string; width : int; cell : J.t -> string }

let field key row = Option.value (J.member key row) ~default:J.Null

let show = function
  | J.Int i -> string_of_int i
  | J.Float f -> Fmt.str "%.1f" f
  | J.String s -> s
  | J.Bool b -> check_mark b
  | J.Null -> "-"
  | j -> J.to_string j

let col ?(w = 10) ?(fmt = show) head key =
  { head; width = w; cell = (fun r -> fmt (field key r)) }

(* A float column printed with [prec] decimals after dividing by [scale]. *)
let num ?w ?(scale = 1.) prec head key =
  col ?w head key ~fmt:(function
    | J.Float f -> Fmt.str "%.*f" prec (f /. scale)
    | j -> show j)

let nmk =
  {
    head = "(n,m,k)";
    width = 12;
    cell =
      (fun r ->
        let v key = show (field key r) in
        Fmt.str "(n=%s,m=%s,k=%s)" (v "n") (v "m") (v "k"));
  }

let print_cells cols cell =
  Fmt.pr "%s@."
    (String.concat " " (List.map (fun c -> Fmt.str "%-*s" c.width (cell c)) cols))

let print_header cols = print_cells cols (fun c -> c.head)

let print_row cols row =
  print_cells cols (fun c -> c.cell row);
  row

let get_int key row = Option.value (J.to_int_opt (field key row)) ~default:0

let counter metrics name = Obs.Metrics.Counter.value (Obs.Metrics.counter metrics name)

(* Run one model check and time it: the outcome, its stats, the
   verdict's name and the wall time in seconds. *)
let model_check f =
  let outcome, wall = timed f in
  let verdict =
    match outcome with
    | Spec.Modelcheck.Ok_bounded _ -> "ok"
    | Spec.Modelcheck.Counterexample _ -> "violation"
  in
  (outcome, Spec.Modelcheck.stats_of outcome, verdict, wall)

(* ------------------------------------------------------------------ *)
(* E1/E3: Figure 1 upper bounds — registers written vs the paper's
   bound over a parameter sweep, one row per (n, m, k). *)

let bound_cols =
  [ nmk; col ~w:8 "bound" "bound"; col "measured" "measured"; col ~w:8 "status" "ok" ]

let bound_table ~ns ~bound ~run ~shown =
  print_header bound_cols;
  List.map
    (fun p ->
      let span = Obs.Span.create () in
      let result = run ~sink:(Obs.Span.sink span) p in
      let measured = Runner.registers_used result in
      let row =
        J.Obj
          (point_fields p
          @ [
              ("bound", J.Int (bound p));
              ("measured", J.Int measured);
              ("ok", J.Bool (measured <= bound p));
              ("steps", J.Int result.Shm.Exec.steps);
            ]
          @ Obs.Bench_out.span_fields span)
      in
      if shown row then ignore (print_row bound_cols row);
      row)
    (triples ns)

let fig1_upper ~smoke:_ =
  section "E1  Figure 1 upper bound (non-anonymous repeated): min(n+2m-k, n)";
  let run ~sink p =
    let n = p.Params.n in
    let impl = if Params.r_oneshot p <= n then Instances.Atomic else Instances.Sw_based in
    Runner.run_repeated ~impl ~rounds:2 ~sink
      ~sched:(Shm.Schedule.quantum_round_robin ~quantum:500 n)
      ~max_steps:3_000_000 p
  in
  let rows =
    bound_table ~ns:[ 4; 5; 6; 7; 8; 9 ] ~bound:Params.registers_upper ~run
      ~shown:(fun r -> get_int "k" r <= 3 || get_int "measured" r <> get_int "bound" r)
  in
  Fmt.pr "(rows with k>3 and measured = bound elided) mismatches: %d@."
    (List.length (List.filter (fun r -> field "ok" r = J.Bool false) rows));
  rows

(* ------------------------------------------------------------------ *)
(* E2: Theorem 2 adversary on starved and correct instances.           *)

let fig1_lower ~smoke:_ =
  section "E2  Figure 1 lower bound (Theorem 2): n+m-k registers are necessary";
  Fmt.pr "%-12s %-12s %-44s@." "(n,m,k)" "registers" "Figure 2 construction outcome";
  let cases = [ (4, 1, 1); (5, 1, 1); (5, 1, 2); (5, 2, 2); (6, 1, 3); (6, 2, 3) ] in
  cases
  |> List.iter (fun (n, m, k) ->
         let p = Params.make ~n ~m ~k in
         let run registers =
           Theorem2.attack ~params:p ~registers
             ~make_config:(fun ~registers -> Instances.repeated ~r:registers p)
             ~icap:4 ()
         in
         let starved = Params.registers_lower p - 1 in
         Fmt.pr "%-12s %-12s %-44s@." (Params.to_string p)
           (Fmt.str "%d (=lo-1)" starved)
           (Fmt.str "%a" Theorem2.pp_outcome (run starved));
         let correct = Params.r_oneshot p in
         Fmt.pr "%-12s %-12s %-44s@." "" (Fmt.str "%d (=up)" correct)
           (Fmt.str "%a" Theorem2.pp_outcome (run correct)));
  []

(* ------------------------------------------------------------------ *)
(* E3: anonymous repeated upper bound (m+1)(n−k)+m²+1.                 *)

let fig1_anon_upper ~smoke:_ =
  section "E3  Figure 1 anonymous upper bound: (m+1)(n-k)+m^2+1 registers";
  bound_table ~ns:[ 4; 5; 6; 7 ]
    ~bound:(fun p -> Params.r_anonymous p + 1)
    ~run:(fun ~sink p ->
      Runner.run_anonymous ~rounds:2 ~sink
        ~sched:(Shm.Schedule.quantum_round_robin ~quantum:800 p.Params.n)
        ~max_steps:4_000_000 p)
    ~shown:(fun _ -> true)

(* E3b: the same algorithm over the honest *non-blocking* anonymous
   snapshot (what Theorem 11 actually has available [7]) — register
   counts unchanged, step cost much higher, H earns its keep. *)
let fig1_anon_nonblocking ~smoke:_ =
  section "E3b Anonymous repeated over the non-blocking snapshot (register parity)";
  Fmt.pr "%-12s %-8s %-14s %-14s %-14s@." "(n,m,k)" "bound" "atomic regs" "collect regs"
    "steps (atomic/collect)";
  [ (4, 1, 2); (4, 2, 2); (5, 1, 3); (5, 2, 3) ]
  |> List.iter (fun (n, m, k) ->
         let p = Params.make ~n ~m ~k in
         let run ~anonymous_collect =
           Runner.run_anonymous ~anonymous_collect ~rounds:2
             ~sched:(Shm.Schedule.quantum_round_robin ~quantum:4000 n)
             ~max_steps:8_000_000 p
         in
         let a = run ~anonymous_collect:false in
         let c = run ~anonymous_collect:true in
         Fmt.pr "%-12s %-8d %-14d %-14d %d / %d@." (Params.to_string p)
           (Params.r_anonymous p + 1)
           (Runner.registers_used a) (Runner.registers_used c) a.Shm.Exec.steps
           c.Shm.Exec.steps);
  []

(* ------------------------------------------------------------------ *)
(* E4: anonymous one-shot lower bound via the clone construction.      *)

let fig1_anon_lower ~smoke:_ =
  section
    "E4  Anonymous one-shot lower bound (Theorem 10): clones break r <= sqrt(m(n/k-2))";
  Fmt.pr "%-6s %-4s %-12s %-46s@." "r" "k" "slots" "clone construction outcome";
  [ (2, 1); (3, 1); (4, 1); (3, 2) ]
  |> List.iter (fun (r, k) ->
         let c = k + 1 in
         let slots = c * (1 + (((r * r) - r) / 2)) in
         let p = Params.make ~n:slots ~m:1 ~k in
         let run slots =
           Clones.attack ~params:p ~registers:r ~slots
             ~make_config:(fun ~registers ~slots ->
               Instances.anonymous_oneshot ~r:registers ~slots p)
             ()
         in
         Fmt.pr "%-6d %-4d %-12s %-46s@." r k
           (Fmt.str "%d (=bound)" slots)
           (Fmt.str "%a" Clones.pp_outcome (run slots));
         Fmt.pr "%-6s %-4s %-12s %-46s@." "" ""
           (Fmt.str "%d (<bound)" (slots - 1))
           (Fmt.str "%a" Clones.pp_outcome (run (slots - 1))));
  (* general m ≥ 2 gluing (Lemma9): groups of two *)
  [ (3, 2, 3); (3, 2, 2) ]
  |> List.iter (fun (r, m, k) ->
         let c = (k + m) / m in
         let slots = c * (m + (((r * r) - r) / 2)) in
         let p = Params.make ~n:slots ~m ~k in
         let outcome =
           Lemma9.attack ~params:p ~registers:r ~slots
             ~make_config:(fun ~registers ~slots ->
               Instances.anonymous_oneshot ~r:registers ~slots p)
             ()
         in
         Fmt.pr "%-6d %-4s %-12s %-46s@." r
           (Fmt.str "%d,m=%d" k m)
           (Fmt.str "%d (=bound)" slots)
           (Fmt.str "%a" Lemma9.pp_outcome outcome));
  []

(* ------------------------------------------------------------------ *)
(* E9: the Section 7 open question, probed empirically: between the    *)
(* √(m(n/k−2)) lower bound and the quadratic anonymous upper bound,    *)
(* where does the breakable/unbreakable frontier actually sit for the  *)
(* clone construction and for randomized stress?                       *)

let anon_frontier ~smoke:_ =
  section
    "E9  (§7 probe) Anonymous one-shot frontier: clone-breakable r vs the paper's bounds \
     (m=1, k=1)";
  Fmt.pr "%-4s %-12s %-14s %-18s %-12s@." "n" "sqrt lower" "clone-max r"
    "stress-safe r" "paper upper";
  [ 6; 8; 10; 12 ]
  |> List.iter (fun n ->
         let p = Params.make ~n ~m:1 ~k:1 in
         (* largest r the clone counting can break with n processes:
            n >= 2(1 + (r²−r)/2)  ⇔  r²−r+2 <= n *)
         let rec max_breakable r =
           if ((r + 1) * (r + 1)) - (r + 1) + 2 <= n then max_breakable (r + 1) else r
         in
         let rb = max_breakable 1 in
         let clone_attack r =
           Clones.attack ~params:p ~registers:r ~slots:n
             ~make_config:(fun ~registers ~slots ->
               Instances.anonymous_oneshot ~r:registers ~slots p)
             ()
         in
         let verdict r =
           match clone_attack r with
           | Clones.Violation _ -> "broken"
           | Clones.Out_of_slots _ | Clones.Prefix_mismatch _ | Clones.Stuck _ ->
             "resists"
         in
         (* randomized stress: does any of 100 bursty schedules break
            safety at this register count? *)
         let stress_breaks r =
           List.exists
             (fun seed ->
               let config = Instances.anonymous_oneshot ~r ~slots:n p in
               let inputs =
                 Shm.Exec.oneshot_inputs (Array.init n (fun pid -> Shm.Value.int pid))
               in
               let sched = Shm.Schedule.bursty_random ~seed (List.init n Fun.id) in
               let res = Shm.Exec.run ~sched ~inputs ~max_steps:50_000 config in
               Result.is_error (Spec.Properties.check_safety ~k:1 res.Shm.Exec.config))
             (List.init 100 Fun.id)
         in
         (* smallest r that survives the stress — this algorithm's
            empirical safety frontier (the paper guarantees r = 2n−1;
            the gap to √n is the open question of §7) *)
         let rec stress_safe r =
           if r > Params.r_anonymous p then r
           else if stress_breaks r then stress_safe (r + 1)
           else r
         in
         Fmt.pr "%-4d %-12.2f %-14s %-18d %-12d@." n
           (Params.anon_lower_bound p)
           (Fmt.str "%d (%s)" rb (verdict rb))
           (stress_safe (rb + 1))
           (Params.r_anonymous p));
  []

(* ------------------------------------------------------------------ *)
(* E12: the other §7 conjecture — "the upper bound could perhaps be    *)
(* improved to n+m−k".  Between n+m−k and n+2m−k−1 registers the       *)
(* Theorem 2 adversary cannot run (not enough processes), so we probe  *)
(* the gap against Figure 4 with randomized stress and, where n is     *)
(* tiny, exhaustive model checking.                                    *)

let conjecture_probe ~smoke:_ =
  section
    "E12 (§7 probe) The gap n+m-k .. n+2m-k: is Figure 4 safe below its proven budget?";
  Fmt.pr "%-12s %-8s %-12s %-26s@." "(n,m,k)" "r" "region" "stress (200 bursty runs)";
  let stress p r =
    let violated seed =
      let config = Instances.repeated ~r p in
      let inputs =
        Shm.Exec.repeated_inputs ~rounds:2 (fun pid i -> Shm.Value.int ((100 * i) + pid))
      in
      let sched = Shm.Schedule.bursty_random ~seed (List.init p.Params.n Fun.id) in
      let res = Shm.Exec.run ~sched ~inputs ~max_steps:60_000 config in
      Result.is_error (Spec.Properties.check_safety ~k:p.Params.k res.Shm.Exec.config)
    in
    match List.length (List.filter violated (List.init 200 Fun.id)) with
    | 0 -> "no violation found"
    | bad -> Fmt.str "%d VIOLATIONS" bad
  in
  [ (4, 2, 2); (5, 2, 2); (5, 2, 3); (6, 2, 3); (6, 3, 3) ]
  |> List.iter (fun (n, m, k) ->
         let p = Params.make ~n ~m ~k in
         let lo = Params.registers_lower p and hi = Params.r_oneshot p in
         for r = lo - 1 to hi do
           let region =
             if r < lo then "below lo"
             else if r = lo then "at lo"
             else if r = hi then "proven"
             else "gap"
           in
           Fmt.pr "%-12s %-8d %-12s %-26s@." (Params.to_string p) r region (stress p r)
         done);
  []

(* ------------------------------------------------------------------ *)
(* E13: exploration engines — naive enumeration vs DPOR vs DPOR with   *)
(* state caching, at equal depth, on the Figure 3 one-shot.  The       *)
(* headline number: DPOR+cache explores orders of magnitude fewer      *)
(* states than the naive engine with the same verdict.                 *)

(* (case label, n, k, r override, depth); r = None means the correct
   n+2m−k budget.  Depths chosen so naive stays tractable; the starved
   case needs depth 14 for its concurrency-only violation. *)
let oneshot_cases =
  [ ("correct", 3, 1, None, 8); ("correct", 3, 1, None, 10); ("starved-r3", 3, 1, Some 3, 14) ]

let oneshot_case (n, k, r) =
  let p = Params.make ~n ~m:1 ~k in
  let r = Option.value r ~default:(Params.r_oneshot p) in
  let inputs = Shm.Exec.oneshot_inputs (Array.init n (fun pid -> Shm.Value.int (pid + 1))) in
  (p, r, inputs)

let explore_table ~smoke:_ =
  section
    "E13 Exploration engines on Figure 3 one-shot: naive vs dpor vs dpor+cache at equal \
     depth";
  let engines =
    [
      ("naive", Spec.Modelcheck.Naive);
      ("dpor", Spec.Modelcheck.Dpor { cache = false; jobs = 1 });
      ("dpor+cache", Spec.Modelcheck.Dpor { cache = true; jobs = 1 });
    ]
  in
  let cols =
    [
      col ~w:12 "case" "case"; col ~w:6 "depth" "depth"; col ~w:12 "engine" "engine";
      col "explored" "explored"; col "leaves" "leaves"; col ~w:8 "hits" "cache_hits";
      col ~w:8 "pruned" "pruned"; col "verdict" "verdict"; col "wall ms" "wall_ms";
    ]
  in
  print_header cols;
  List.concat_map
    (fun (case, n, k, r, depth) ->
      let p, r, inputs = oneshot_case (n, k, r) in
      let check = Spec.Properties.check_safety ~k in
      let naive_explored = ref 0 in
      List.map
        (fun (name, engine) ->
          let outcome, s, verdict, wall =
            model_check (fun () ->
                Spec.Modelcheck.run ~engine ~depth ~inputs ~check (Instances.oneshot ~r p))
          in
          let explored = s.Spec.Modelcheck.explored in
          if name = "naive" then naive_explored := explored;
          print_row cols
            (J.Obj
               (point_fields p
               @ [
                   ("case", J.String case);
                   ("registers", J.Int r);
                   ("engine", J.String name);
                   ("depth", J.Int depth);
                   ("explored", J.Int explored);
                   ("leaves", J.Int s.Spec.Modelcheck.leaves);
                   ("cache_hits", J.Int s.Spec.Modelcheck.cache_hits);
                   ("pruned", J.Int s.Spec.Modelcheck.pruned);
                   ("verdict", J.String verdict);
                   ( "ce_len",
                     match outcome with
                     | Spec.Modelcheck.Counterexample { schedule; _ } ->
                       J.Int (List.length schedule)
                     | Spec.Modelcheck.Ok_bounded _ -> J.Null );
                   ( "reduction_vs_naive",
                     J.Float (float_of_int !naive_explored /. float_of_int explored) );
                   ("wall_ms", J.Float (1000. *. wall));
                 ])))
        engines)
    oneshot_cases

(* ------------------------------------------------------------------ *)
(* E19: static conditional independence for DPOR — the dataflow        *)
(* engine's refinement (Analyze.Indep) vs the dynamic-footprint        *)
(* baseline, same engine and depth per case.  Two case families:       *)
(*                                                                     *)
(* - the E13 oneshot grid (correct + starved), kept for verdict        *)
(*   identity and as an honest negative result: Figure 3 writes        *)
(*   pid-tagged pairs and scans everything, so its conflicts are       *)
(*   almost never conditionally independent — the refinement holds     *)
(*   verdicts and prunes ~nothing there;                               *)
(* - first-order protocols with provable redundancy (constant and      *)
(*   re-written registers — the patterns flow/constant-register and    *)
(*   the no-op-write rule certify), where conditional independence     *)
(*   carries real weight.                                              *)
(*                                                                     *)
(* The gate is the aggregate explored-state ratio (base/refined) plus  *)
(* verdict identity — a refinement that changes any verdict is         *)
(* unsound, not fast.                                                  *)

let indep_table ~smoke =
  section
    "E19 Static conditional independence (lib/analyze dataflow): dpor+cache \
     baseline vs dpor+cache with ?static_indep, on the E13 grid and on \
     redundancy-bearing first-order protocols";
  let oneshot_cases =
    if smoke then [ ("correct", 3, 1, None, 8); ("starved-r3", 3, 1, Some 3, 10) ]
    else oneshot_cases
  in
  (* Every process runs the same text, so constant stores collide only
     with equal values — exactly what the WW-equal and no-op-write
     rules license the engine to commute. *)
  let proto_cases =
    let depth = if smoke then 12 else 14 in
    [
      ("proto-const", "r3 n3 : W0<-7; L2[W1<-7; R0]; D last", depth);
      ("proto-noop", "r2 n3 : W0<-3; L3[W0<-3; R0]; D last", depth);
    ]
    @ if smoke then [] else [ ("proto-scan", "r2 n3 : W0<-4; S0+2; L2[W1<-4; S0+2]; D 4", 14) ]
  in
  let cols =
    [
      col ~w:12 "case" "case"; col ~w:6 "depth" "depth"; col "arm" "arm";
      col "explored" "explored"; col "pruned" "pruned"; col "refined" "refined";
      col "verdict" "verdict"; col "wall ms" "wall_ms";
    ]
  in
  print_header cols;
  let engine = Spec.Modelcheck.Dpor { cache = true; jobs = 1 } in
  (* One case: run both arms at equal depth, one row per arm. *)
  let run_case ~case ~depth ~facts ~inputs ~check ~fields mk_config =
    let base_explored = ref 0 in
    List.map
      (fun (arm, static_indep) ->
        let metrics = Obs.Metrics.create () in
        let _, s, verdict, wall =
          model_check (fun () ->
              Spec.Modelcheck.run ~engine ~depth ~inputs ~check ?static_indep ~metrics
                (mk_config ()))
        in
        let explored = s.Spec.Modelcheck.explored in
        if arm = "base" then base_explored := explored;
        print_row cols
          (J.Obj
             (fields
             @ [
                 ("bench", J.String "indep-dpor");
                 ("case", J.String case);
                 ("depth", J.Int depth);
                 ("arm", J.String arm);
                 ("explored", J.Int explored);
                 ("pruned", J.Int s.Spec.Modelcheck.pruned);
                 ("refined", J.Int (counter metrics "explore.refined"));
                 ("verdict", J.String verdict);
                 ( "states_ratio",
                   if arm = "refined" && explored > 0 then
                     J.Float (float_of_int !base_explored /. float_of_int explored)
                   else J.Null );
                 ("wall_ms", J.Float (1000. *. wall));
               ])))
      [ ("base", None); ("refined", Some (Analyze.Indep.refinement ~facts ())) ]
  in
  let oneshot_rows =
    List.concat_map
      (fun (case, n, k, r, depth) ->
        let p, r, inputs = oneshot_case (n, k, r) in
        run_case ~case ~depth
          ~facts:(Analyze.Indep.of_config (Instances.oneshot ~r p))
          ~inputs ~check:(Spec.Properties.check_safety ~k)
          ~fields:(point_fields p @ [ ("registers", J.Int r) ])
          (fun () -> Instances.oneshot ~r p))
      oneshot_cases
  in
  let proto_rows =
    List.concat_map
      (fun (case, text, depth) ->
        let prog =
          match Analyze.Ir.parse text with
          | Ok p -> p
          | Error msg -> Fmt.failwith "E19 protocol %s: %s" case msg
        in
        let inputs = Fuzz.Gen.inputs in
        let facts =
          Analyze.Indep.of_prog
            ~inputs:
              (List.filter_map
                 (fun pid -> inputs ~pid ~instance:1)
                 (List.init prog.Analyze.Ir.n Fun.id))
            prog
        in
        (* agreement-only: these protocols decide certified constants, so
           validity (output ∈ inputs) is vacuously false and would stop
           exploration at the first leaf; k-agreement is the verdict that
           exercises the full bounded state space *)
        let check_agreement config =
          match Spec.Properties.agreement_errors ~k:1 config with
          | [] -> Ok ()
          | e :: _ -> Error e
        in
        run_case ~case ~depth ~facts ~inputs ~check:check_agreement
          ~fields:
            [
              ("protocol", J.String (Analyze.Ir.to_string prog));
              ("n", J.Int prog.Analyze.Ir.n);
              ("registers", J.Int prog.Analyze.Ir.registers);
            ]
          (fun () -> Fuzz.Gen.config prog))
      proto_cases
  in
  let rows = oneshot_rows @ proto_rows in
  let total arm =
    List.fold_left
      (fun acc r -> if field "arm" r = J.String arm then acc + get_int "explored" r else acc)
      0 rows
  in
  let total_base = total "base" and total_refined = total "refined" in
  (* verdict identity per case: rows come in (base, refined) pairs *)
  let rec verdicts_match = function
    | b :: r :: rest -> field "verdict" b = field "verdict" r && verdicts_match rest
    | _ -> true
  in
  let verdicts_match = verdicts_match rows in
  let ratio =
    if total_refined = 0 then 1.0 else float_of_int total_base /. float_of_int total_refined
  in
  Fmt.pr "total: base %d, refined %d, ratio %.3f, verdicts %s@." total_base total_refined
    ratio
    (if verdicts_match then "identical" else "DIVERGED");
  rows
  @ [
      J.Obj
        [
          ("bench", J.String "indep-total");
          ("explored_base", J.Int total_base);
          ("explored_refined", J.Int total_refined);
          ("states_ratio", J.Float ratio);
          ("verdict_match", J.Float (if verdicts_match then 1.0 else 0.0));
        ];
    ]

(* ------------------------------------------------------------------ *)
(* E14: native conformance harness — linearizability-checker           *)
(* throughput and native op latency under each chaos profile.          *)

(* One snapshot conformance campaign (4 domains x 16 ops on 4
   components, seed 42): its config, verdict, metrics and wall time. *)
let conform_snapshot ~profile ~iters =
  let metrics = Obs.Metrics.create () in
  let cfg =
    { Conform.Harness.domains = 4; components = 4; ops = 16; profile; seed = 42; iters }
  in
  let outcome, wall =
    timed (fun () -> Conform.Harness.run_snapshot ~metrics ~sut:Conform.Sut.real cfg)
  in
  let ok = match outcome with Conform.Harness.Pass _ -> true | _ -> false in
  (cfg, ok, metrics, wall)

(* checker throughput: operations graded per second of checker time
   (the checker sees every completed op of every history) *)
let checks_per_s metrics =
  let check_ns = counter metrics "conform.check_ns" in
  if check_ns = 0 then 0.
  else float_of_int (counter metrics "conform.ops") /. (float_of_int check_ns /. 1e9)

let conform_table ~smoke:_ =
  section
    "E14 Native conformance (lib/conform): op latency and checker throughput per chaos \
     profile (4 domains x 16 ops, 150 histories)";
  let cols =
    [
      col "profile" "profile"; col ~w:8 "iters" "iters"; col "ops" "ops";
      num ~w:12 0 "upd p50 ns" "update_p50_ns"; num ~w:12 0 "upd p99 ns" "update_p99_ns";
      num ~w:12 0 "scan p50 ns" "scan_p50_ns"; num ~w:12 0 "scan p99 ns" "scan_p99_ns";
      num ~w:14 0 "check ops/s" "check_ops_per_s"; col "wall ms" "wall_ms";
    ]
  in
  print_header cols;
  List.map
    (fun profile ->
      let cfg, ok, metrics, wall = conform_snapshot ~profile ~iters:150 in
      let hist name = Obs.Metrics.histogram metrics name in
      let upd = hist "conform.update_ns" and scn = hist "conform.scan_ns" in
      let row =
        print_row cols
          (J.Obj
             [
               ("object", J.String "snapshot");
               ("impl", J.String Conform.Sut.real.Conform.Sut.name);
               ("profile", J.String (Conform.Chaos.profile_name profile));
               ("domains", J.Int cfg.Conform.Harness.domains);
               ("components", J.Int cfg.Conform.Harness.components);
               ("ops_per_domain", J.Int cfg.Conform.Harness.ops);
               ("iters", J.Int cfg.Conform.Harness.iters);
               ("ops", J.Int (counter metrics "conform.ops"));
               ("pending", J.Int (counter metrics "conform.crashes"));
               ("violations", J.Int (counter metrics "conform.violations"));
               ("linearizable", J.Bool ok);
               ("update_p50_ns", J.Float (Obs.Metrics.Histogram.p50 upd));
               ("update_p99_ns", J.Float (Obs.Metrics.Histogram.p99 upd));
               ("scan_p50_ns", J.Float (Obs.Metrics.Histogram.p50 scn));
               ("scan_p99_ns", J.Float (Obs.Metrics.Histogram.p99 scn));
               ("check_ns_total", J.Int (counter metrics "conform.check_ns"));
               ("check_ops_per_s", J.Float (checks_per_s metrics));
               ("wall_ms", J.Float (1000. *. wall));
             ])
      in
      if not ok then Fmt.pr "  !! unexpected violation on the real implementation@.";
      row)
    Conform.Chaos.all_profiles

(* ------------------------------------------------------------------ *)
(* E16: simulator hot-path performance — the journaled memory backend  *)
(* and incremental state keys vs the persistent-map + full-MD5-digest  *)
(* reference, measured in the same run on the Figure 3 one-shot        *)
(* (n=4, m=1, k=1).  E20 adds the bytecode vm vs the interpreter.      *)
(* Schemas in EXPERIMENTS.md §E16 and §E20.                            *)

(* Exploration-style interpreter stepping: every step also updates the
   state hash and derives the node's cache key — the full-digest key
   when [full], else the incremental one — exactly the per-node work
   of the engines' DFS, round-robin until quiescence, [iters] times.
   Returns (steps, wall seconds). *)
let interp_steps ~n ~inputs ~full make_config ~iters =
  let has_input pid inst = Option.is_some (inputs ~pid ~instance:inst) in
  let steps = ref 0 and sink = ref 0 in
  timed (fun () ->
      for _ = 1 to iters do
        let config = ref (make_config ()) in
        let hash = ref (Spec.Statehash.create ~audit:full !config) in
        let quiescent = ref false in
        while not !quiescent do
          let stepped = ref false in
          for pid = 0 to n - 1 do
            if Shm.Config.runnable !config ~has_input pid then (
              let before = !config in
              let config', ev =
                match Shm.Config.proc before pid with
                | Shm.Program.Await _ ->
                  let inst = Shm.Config.instance before pid + 1 in
                  Shm.Config.invoke before pid (Option.get (inputs ~pid ~instance:inst))
                | Shm.Program.Stop -> assert false
                | Shm.Program.Op _ | Shm.Program.Yield _ -> Shm.Config.step before pid
              in
              let hash' = Spec.Statehash.record !hash ~before config' ev in
              (sink :=
                 !sink
                 +
                 if full then String.length (Spec.Statehash.full_key hash' config')
                 else Spec.Statehash.key_hash (Spec.Statehash.key hash'));
              config := config';
              hash := hash';
              stepped := true;
              incr steps)
          done;
          if not !stepped then quiescent := true
        done
      done;
      ignore (Sys.opaque_identity !sink);
      !steps)

(* A reference arm and a measured arm of one bench, each measured as
   (count, wall seconds) — measure the reference first: arguments are
   evaluated right to left.  Two rows whose [rate] is count per second,
   the reference's ratio 1 and the other's its rate over the
   reference's. *)
let versus ~bench ~size ~count ~rate (ref_arm, ref_labels, ref_m) (arm, labels, m) =
  let per_s (c, wall) = float_of_int c /. wall in
  let row arm labels ((c, wall) as m) ratio =
    J.Obj
      ([ ("bench", J.String bench); ("arm", J.String arm) ]
      @ labels
      @ [
          size;
          (count, J.Int c);
          ("wall_ms", J.Float (1000. *. wall));
          (rate, J.Float (per_s m));
          ("ratio_vs_reference", J.Float ratio);
        ])
  in
  [ row ref_arm ref_labels ref_m 1.0; row arm labels m (per_s m /. per_s ref_m) ]

let ratio_of rows =
  match field "ratio_vs_reference" (List.nth rows 1) with J.Float f -> f | _ -> nan

let perf_table ~smoke =
  section
    (Fmt.str "E16 Simulator hot path: journaled + incremental keys vs persistent + \
              full digests (Figure 3, n=4 m=1 k=1%s)"
       (if smoke then ", smoke" else ""));
  let p = Params.make ~n:4 ~m:1 ~k:1 in
  let n = p.Params.n in
  let inputs = Shm.Exec.oneshot_inputs (Array.init n (fun pid -> Shm.Value.int (pid + 1))) in
  let keying full = ("keying", J.String (if full then "full-digest" else "incremental")) in
  let labels backend full =
    [ ("backend", J.String (Shm.Memory.backend_name backend)); keying full ]
  in
  (* -- simulator stepping.  Reference arm = persistent backend +
     audited MD5 digests + full-digest key (the old hot path); new arm
     = journaled backend + incremental key. *)
  let sim_iters = if smoke then 200 else 2_000 in
  let sim_arm backend full =
    interp_steps ~n ~inputs ~full (fun () -> Instances.oneshot ~backend p) ~iters:sim_iters
  in
  let sim_ref = sim_arm Shm.Memory.Persistent true in
  let sim =
    versus ~bench:"sim-steps" ~size:("iters", J.Int sim_iters) ~count:"steps"
      ~rate:"steps_per_s"
      ("reference", labels Shm.Memory.Persistent true, sim_ref)
      ("new", labels Shm.Memory.Journaled false, sim_arm Shm.Memory.Journaled false)
  in
  (* -- DPOR: same engine, old vs new cache key and backend.  States
     per second over a fixed-depth exploration of the same instance.
     This measures the exploration core — per-node state hashing, cache
     lookups, footprints, successor construction on each backend — so
     frontier completion is excluded ([completion_steps:0]): that cost
     is plain simulator stepping, identical in both arms, and the
     sim-steps rows above already measure it end to end. *)
  let dpor_depth = if smoke then 9 else 12 in
  let explored f =
    let _, s, _, wall = model_check f in
    (s.Spec.Modelcheck.explored, wall)
  in
  let dpor_arm backend key =
    explored (fun () ->
        Spec.Modelcheck.run
          ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 1 })
          ~depth:dpor_depth ~key ~completion_steps:0 ~inputs
          ~check:(Spec.Properties.check_safety ~k:1)
          (Instances.oneshot ~backend p))
  in
  let dpor_ref = dpor_arm Shm.Memory.Persistent `Full in
  let dpor =
    versus ~bench:"dpor-states" ~size:("depth", J.Int dpor_depth) ~count:"explored"
      ~rate:"states_per_s"
      ("reference", labels Shm.Memory.Persistent true, dpor_ref)
      ("new", labels Shm.Memory.Journaled false, dpor_arm Shm.Memory.Journaled `Incremental)
  in
  (* -- E20: the bytecode vm vs the free-monad interpreter on the same
     first-order workload.  The reference arm is the PR-5 winner —
     journaled backend + incremental keys — driving the free-monad
     form of the protocol with per-step key maintenance; the vm arm
     executes the compiled form (key maintenance happens inside
     [Vm.step]).  Same workload, schedule, and key recipe, so the
     ratio isolates engine cost: free-monad dispatch + closure
     allocation + pointer chasing vs a match on an int opcode over a
     flat int slice.  Methodology in EXPERIMENTS.md §E20 and
     docs/PERFORMANCE.md. *)
  (* The workload is a collect loop over 62 registers — the paper's
     space bound (m+1)(n-k)+m^2+1 at n=10, m=4, k=1 — because that is
     the shape the exhaustive Figure-5 sweeps actually execute:
     repeated full-array scans punctuated by writes.  Scans are where
     the engines differ most (the interpreter allocates a view and
     hashes every component per scan; the vm reads one slot and does
     O(1) key work), so the register width is the paper's, not a toy
     value that would understate the gap. *)
  let proto : Shm.Vm.proto =
    {
      Shm.Vm.registers = 62;
      n = 4;
      steps =
        [
          Shm.Vm.Write (0, Shm.Vm.Input);
          Shm.Vm.Loop
            ( 12,
              [
                Shm.Vm.Scan (0, 62);
                Shm.Vm.Scan (0, 62);
                Shm.Vm.Scan (0, 62);
                Shm.Vm.Write (1, Shm.Vm.Last);
              ] );
          Shm.Vm.Decide Shm.Vm.Last;
        ];
    }
  in
  let vn = proto.Shm.Vm.n in
  let proto_inputs ~pid ~instance =
    if instance = 1 then Some (Shm.Value.int (pid + 1)) else None
  in
  let vm_iters = if smoke then 300 else 3_000 in
  let proto_vm_arm ~iters =
    let e = Shm.Vm.env (Shm.Vm.compile proto) ~inputs:proto_inputs in
    let st = Shm.Vm.make_state e in
    let steps = ref 0 and sink = ref 0 in
    timed (fun () ->
        for _ = 1 to iters do
          Shm.Vm.init e st 0;
          let quiescent = ref false in
          while not !quiescent do
            let stepped = ref false in
            for pid = 0 to vn - 1 do
              if Shm.Vm.runnable e st 0 pid then begin
                Shm.Vm.step e st 0 pid;
                sink := !sink + Shm.Vm.key_hash e st 0;
                stepped := true;
                incr steps
              end
            done;
            if not !stepped then quiescent := true
          done
        done;
        ignore (Sys.opaque_identity !sink);
        !steps)
  in
  (* Best-of-3 after a warm-up pass: the arms are short (especially
     under --smoke), so scheduler noise easily shadows the engine
     difference; the fastest repetition is the least-disturbed
     measurement of each arm's actual cost. *)
  let best_of arm =
    ignore (arm ~iters:(max 1 (vm_iters / 10)));
    let best = ref (0, infinity) in
    for _ = 1 to 3 do
      let steps, wall = arm ~iters:vm_iters in
      if wall < snd !best then best := (steps, wall)
    done;
    !best
  in
  let engine name =
    [ ("engine", J.String name); ("workload", J.String (Analyze.Ir.to_string proto)) ]
  in
  let vm_sim_ref =
    best_of
      (interp_steps ~n:vn ~inputs:proto_inputs ~full:false (fun () ->
           Shm.Vm.config ~backend:Shm.Memory.Journaled proto))
  in
  let vm_sim =
    versus ~bench:"vm-sim-steps" ~size:("iters", J.Int vm_iters) ~count:"steps"
      ~rate:"steps_per_s"
      ("reference", engine "interp", vm_sim_ref)
      ("vm", engine "vm", best_of proto_vm_arm)
  in
  (* -- vm DPOR: reduced exploration of the same protocol, interpreter
     engine ([Dpor] on the journaled backend + incremental keys) vs the
     bytecode engine ([Vmexplore]: arena states, batched expansion,
     keys read off the slice).  The check always passes so both arms
     sweep the full reduced space; completion is excluded as above. *)
  let vm_dpor_depth = if smoke then 10 else 13 in
  let engine_dpor = Spec.Modelcheck.Dpor { cache = true; jobs = 1 } in
  let vm_dpor_ref =
    explored (fun () ->
        Spec.Modelcheck.run ~engine:engine_dpor ~depth:vm_dpor_depth ~key:`Incremental
          ~completion_steps:0 ~inputs:proto_inputs
          ~check:(fun _ -> Ok ())
          (Shm.Vm.config ~backend:Shm.Memory.Journaled proto))
  in
  let vm_dpor =
    versus ~bench:"vm-dpor-states" ~size:("depth", J.Int vm_dpor_depth) ~count:"explored"
      ~rate:"states_per_s"
      ("reference", engine "interp", vm_dpor_ref)
      ( "vm",
        engine "vm",
        explored (fun () ->
            Spec.Modelcheck.run_vm ~engine:engine_dpor ~depth:vm_dpor_depth
              ~completion_steps:0 ~inputs:proto_inputs
              ~check:(fun ~inputs:_ ~outputs:_ -> Ok ())
              proto) )
  in
  (* -- linearizability checker throughput (tracked so a regression in
     the checker shows up here; memory backend is irrelevant to it). *)
  let cfg, lin_ok, metrics, _ =
    conform_snapshot ~profile:Conform.Chaos.Calm ~iters:(if smoke then 20 else 150)
  in
  let linearize =
    J.Obj
      [
        ("bench", J.String "linearize");
        ("arm", J.String "checker");
        ("iters", J.Int cfg.Conform.Harness.iters);
        ("ops", J.Int (counter metrics "conform.ops"));
        ("linearizable", J.Bool lin_ok);
        ("check_ns_total", J.Int (counter metrics "conform.check_ns"));
        ("checks_per_s", J.Float (checks_per_s metrics));
      ]
  in
  let first_of keys row =
    List.fold_left (fun acc k -> if acc = J.Null then field k row else acc) J.Null keys
  in
  let cols =
    [
      col ~w:14 "bench" "bench"; col ~w:12 "arm" "arm";
      {
        head = "backend";
        width = 12;
        cell = (fun r -> show (first_of [ "backend"; "engine" ] r));
      };
      {
        head = "per-second";
        width = 14;
        cell =
          (fun r ->
            match first_of [ "steps_per_s"; "states_per_s"; "checks_per_s" ] r with
            | J.Float f -> Fmt.str "%.0f" f
            | j -> show j);
      };
      num 2 "ratio" "ratio_vs_reference";
    ]
  in
  print_header cols;
  let rows = List.map (print_row cols) (sim @ dpor @ vm_sim @ vm_dpor @ [ linearize ]) in
  Fmt.pr "speedups: sim %.2fx, dpor %.2fx (targets: >=5x, >=3x)@." (ratio_of sim)
    (ratio_of dpor);
  rows

(* ------------------------------------------------------------------ *)
(* E5: DFGR'13 baseline comparison (Section 4.1).                      *)

let baseline_table ~smoke:_ =
  section "E5  Baseline: DFGR'13 2(n-k) registers vs Figure 3's n-k+2 (m=1, n=10)";
  Fmt.pr "%-4s %-16s %-16s %-14s %-14s@." "k" "DFGR13 regs" "Fig.3 regs" "DFGR13 steps"
    "Fig.3 steps";
  let n = 10 in
  for k = 1 to n - 2 do
    let p = Params.make ~n ~m:1 ~k in
    let sched () = Shm.Schedule.quantum_round_robin ~quantum:400 n in
    let b = Runner.run_baseline ~sched:(sched ()) ~max_steps:2_000_000 p in
    let o = Runner.run_oneshot ~sched:(sched ()) ~max_steps:2_000_000 p in
    Fmt.pr "%-4d %-16s %-16s %-14d %-14d@." k
      (Fmt.str "%d (used %d)" (Params.r_dfgr13 p) (Runner.registers_used b))
      (Fmt.str "%d (used %d)" (Params.r_oneshot p) (Runner.registers_used o))
      b.Shm.Exec.steps o.Shm.Exec.steps
  done;
  []

(* ------------------------------------------------------------------ *)
(* E15: static analyzer — abstract footprints vs paper bounds vs       *)
(* dynamically measured registers, plus the mutation tests.            *)

let analyze_table ~smoke:_ =
  section
    "E15 Static analyzer: abstract footprint <= paper bound, dynamic subset \
     of static (n <= 6), mutants rejected";
  let rows, wall = timed (fun () -> Analyze.Report.sweep ~max_n:6 ()) in
  Fmt.pr "%a@." Analyze.Report.pp_header ();
  List.iter (fun r -> Fmt.pr "%a@." Analyze.Report.pp_row r) rows;
  Fmt.pr "%d rows, %d violations, %.0f ms@." (List.length rows)
    (List.length (Analyze.Report.violations rows))
    (1000. *. wall);
  let p = Params.make ~n:4 ~m:1 ~k:2 in
  let json = Analyze.Report.json_rows ~mutants:p rows in
  List.iter
    (fun r ->
      if field "kind" r = J.String "mutant" then
        Fmt.pr "mutant %-20s at %s: %s@." (show (field "algo" r)) (Params.to_string p)
          (if field "rejected" r = J.Bool true then "rejected"
           else "ACCEPTED (analyzer failure)"))
    json;
  json

(* ------------------------------------------------------------------ *)
(* E6: repeated consensus needs exactly n registers (m = k = 1).       *)

let consensus_exact ~smoke:_ =
  section "E6  Repeated consensus (m=k=1) needs exactly n registers";
  Fmt.pr "%-4s %-18s %-46s@." "n" "upper (measured)" "lower (adversary at n-1 registers)";
  for n = 3 to 7 do
    let p = Params.make ~n ~m:1 ~k:1 in
    (* upper: r_oneshot = n+1 > n, so the SW-based snapshot gives n *)
    let result =
      Runner.run_repeated ~impl:Instances.Sw_based ~rounds:2
        ~sched:(Shm.Schedule.quantum_round_robin ~quantum:800 n)
        ~max_steps:4_000_000 p
    in
    let outcome =
      Theorem2.attack ~params:p ~registers:(n - 1)
        ~make_config:(fun ~registers -> Instances.repeated ~r:registers p)
        ~icap:4 ()
    in
    Fmt.pr "%-4d %-18s %-46s@." n
      (Fmt.str "n=%d, used %d" n (Runner.registers_used result))
      (Fmt.str "%a" Theorem2.pp_outcome outcome)
  done;
  []

(* ------------------------------------------------------------------ *)
(* E7: snapshot implementation ablation.                               *)

let snapshot_ablation ~smoke:_ =
  section "E7  Snapshot ablation: one-shot (n=5,m=1,k=2) over three implementations";
  Fmt.pr "%-16s %-10s %-10s %-10s %-10s@." "implementation" "steps" "registers" "reads"
    "writes";
  [ Instances.Atomic; Instances.Double_collect; Instances.Sw_based ]
  |> List.iter (fun impl ->
         let p = Params.make ~n:5 ~m:1 ~k:2 in
         let result =
           Runner.run_oneshot ~impl
             ~sched:(Shm.Schedule.quantum_round_robin ~quantum:2000 5)
             ~max_steps:4_000_000 p
         in
         let mem = Shm.Config.mem result.Shm.Exec.config in
         Fmt.pr "%-16s %-10d %-10d %-10d %-10d@." (Instances.impl_name impl)
           result.Shm.Exec.steps (Runner.registers_used result)
           (Shm.Memory.read_count mem) (Shm.Memory.write_count mem));
  []

(* ------------------------------------------------------------------ *)
(* E8: progress vs m (the meaning of m-obstruction-freedom).           *)

let progress_vs_m ~smoke:_ =
  section "E8  Steps to quiescence vs m (n=8, k=4, m-bounded adversary, 20 seeds)";
  let cols =
    [
      col ~w:4 "m" "m";
      num ~w:14 1 "mean steps" "mean_steps";
      col ~w:14 "max steps" "max_steps";
      col "decided" "decided" ~fmt:(fun j -> show j ^ "/20");
    ]
  in
  print_header cols;
  List.map
    (fun m ->
      let p = Params.make ~n:8 ~m ~k:4 in
      let span = Obs.Span.create () in
      let results =
        List.init 20 (fun seed ->
            Runner.run_oneshot ~sink:(Obs.Span.sink span) ~max_steps:400_000
              ~sched:(Shm.Schedule.m_bounded ~seed ~m ~prefix:60 8)
              p)
      in
      let steps = List.map (fun r -> r.Shm.Exec.steps) results in
      let decided =
        List.filter (fun r -> r.Shm.Exec.stopped = Shm.Exec.All_quiescent) results
      in
      print_row cols
        (J.Obj
           (point_fields p
           @ [
               ("seeds", J.Int 20);
               ("mean_steps", J.Float (float_of_int (List.fold_left ( + ) 0 steps) /. 20.));
               ("max_steps", J.Int (List.fold_left max 0 steps));
               ("decided", J.Int (List.length decided));
             ]
           @ Obs.Bench_out.span_fields span)))
    [ 1; 2; 3; 4 ]

(* Decision diversity vs input workload: how many distinct values an
   election actually commits, depending on the proposal pattern and the
   contention regime.  (Extra analysis — not a figure of the paper.) *)
let diversity_vs_workload ~smoke:_ =
  section "E11 Decision diversity vs workload (n=8, m=2, k=4; 20 schedules per cell)";
  Fmt.pr "%-18s %-10s %-14s %-14s %-12s@." "workload" "inputs" "calm mean" "bursty mean"
    "max seen";
  Agreement.Workload.all
  |> List.iter (fun w ->
         let n = 8 in
         let p = Params.make ~n ~m:2 ~k:4 in
         let inputs = Agreement.Workload.inputs w ~n in
         (* distinct decisions of 20 seeded runs under [sched] *)
         let runs sched =
           List.init 20 (fun seed ->
               let result =
                 Runner.run_oneshot ~sched:(sched seed) ~inputs ~max_steps:400_000 p
               in
               List.length
                 (Spec.Properties.distinct_values
                    (Runner.outputs_of_instance result ~instance:1)))
         in
         let calm = runs (fun seed -> Shm.Schedule.m_bounded ~seed ~m:1 ~prefix:30 n) in
         let bursty =
           runs (fun seed -> Shm.Schedule.bursty_random ~seed (List.init n Fun.id))
         in
         let mean l = float_of_int (List.fold_left ( + ) 0 l) /. 20. in
         Fmt.pr "%-18s %-10d %-14.2f %-14.2f %-12d@." (Agreement.Workload.name w)
           (Agreement.Workload.distinct_inputs w ~n)
           (mean calm) (mean bursty)
           (List.fold_left max 0 (calm @ bursty)));
  []

let steps_vs_n ~smoke:_ =
  section "E8b Steps to quiescence vs n (m=1, k=1, solo-burst schedule)";
  let cols = [ col ~w:4 "n" "n"; col ~w:12 "steps" "steps"; col ~w:12 "regs" "registers" ] in
  print_header cols;
  List.map
    (fun n ->
      let p = Params.make ~n ~m:1 ~k:1 in
      let impl = if Params.r_oneshot p <= n then Instances.Atomic else Instances.Sw_based in
      let span = Obs.Span.create () in
      let result =
        Runner.run_oneshot ~impl ~sink:(Obs.Span.sink span)
          ~sched:(Shm.Schedule.quantum_round_robin ~quantum:1500 n)
          ~max_steps:6_000_000 p
      in
      print_row cols
        (J.Obj
           (point_fields p
           @ [
               ("steps", J.Int result.Shm.Exec.steps);
               ("registers", J.Int (Runner.registers_used result));
             ]
           @ Obs.Bench_out.span_fields span)))
    (List.init 10 (fun i -> i + 3))

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks (B1–B7).                                   *)

let bechamel_benches () =
  section "B1-B7  Bechamel microbenchmarks (time per fully solved instance)";
  let open Bechamel in
  (* one fully solved instance per run, under a quantum-2000 round robin *)
  let bench name solve p =
    Test.make ~name
      (Staged.stage (fun () ->
           ignore (solve (Shm.Schedule.quantum_round_robin ~quantum:2000 p.Params.n) p)))
  in
  let max_steps = 4_000_000 in
  let p512 = Params.make ~n:5 ~m:1 ~k:2 in
  let oneshot ?impl sched p = Runner.run_oneshot ?impl ~sched ~max_steps p in
  let tests =
    Test.make_grouped ~name:"set-agreement"
      [
        bench "B1 oneshot atomic n=5 m=1 k=2" oneshot p512;
        bench "B2 oneshot atomic n=5 m=2 k=3" oneshot (Params.make ~n:5 ~m:2 ~k:3);
        bench "B3 oneshot atomic n=8 m=1 k=3" oneshot (Params.make ~n:8 ~m:1 ~k:3);
        bench "B4 oneshot double-collect n=5 m=1 k=2"
          (oneshot ~impl:Instances.Double_collect) p512;
        bench "B4b oneshot sw-snapshot n=5 m=1 k=2" (oneshot ~impl:Instances.Sw_based) p512;
        bench "B5 repeated (3 rounds) n=5 m=1 k=2"
          (fun sched p -> Runner.run_repeated ~rounds:3 ~sched ~max_steps p)
          p512;
        bench "B6 anonymous (2 rounds) n=5 m=1 k=2"
          (fun sched p -> Runner.run_anonymous ~rounds:2 ~sched ~max_steps p)
          p512;
        bench "B5b baseline DFGR13 n=5 m=1 k=2"
          (fun sched p -> Runner.run_baseline ~sched ~max_steps p)
          p512;
        bench "B7 native multicore (4 domains) n=4 m=2 k=2"
          (fun _ p ->
            Native.Native_agreement.run_instance ~params:p
              (Array.init p.Params.n (fun pid -> Shm.Value.int (pid + 1))))
          (Params.make ~n:4 ~m:2 ~k:2);
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.6) ~kde:None () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Fmt.pr "%-50s %-16s %-8s@." "benchmark" "time/run" "r^2";
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort compare
  |> List.iter (fun (name, ols) ->
         let est =
           match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
         in
         let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> nan in
         let pretty =
           if est > 1e9 then Fmt.str "%.2f s" (est /. 1e9)
           else if est > 1e6 then Fmt.str "%.2f ms" (est /. 1e6)
           else if est > 1e3 then Fmt.str "%.2f us" (est /. 1e3)
           else Fmt.str "%.0f ns" est
         in
         Fmt.pr "%-50s %-16s %-8.3f@." name pretty r2)

(* ------------------------------------------------------------------ *)
(* E17: the serving layer (lib/service).  Three sections, one schema:
   - service-scaling: closed-loop throughput/latency over a
     domains × shards grid (the scaling curve);
   - service-throughput: same-binary batched (batch_max 16) vs
     reference (batch_max 1) arms on one shard — the floor-gated
     machine-independent ratio;
   - service-verdict: a crash-chaos run whose per-shard histories are
     graded by the Conform linearizability/k-agreement oracles ("ok"
     is 1.0 or 0.0, and floor-gated to 1.0). *)

let service_table ~smoke =
  section
    (Fmt.str "E17: set-agreement-as-a-service — sharded batched serving%s"
       (if smoke then ", smoke" else ""));
  let params = Agreement.Params.make ~n:4 ~m:1 ~k:1 in
  let clients = if smoke then 48 else 192 in
  let ops = if smoke then 4 else 12 in
  let keys = 1024 in
  let theta = 0.9 in
  let seed = 0x5e17 in
  let loadrun ~domains ~shards ~batch_max =
    let server =
      Service.Server.create ~batch_max ~window:64 ~app:Service.App.counter ~history:false
        ~seed ~shards ~domains params
    in
    let report =
      Service.Loadgen.run server
        { Service.Loadgen.clients; ops_per_client = ops; keys; theta; seed }
    in
    Service.Server.stop server;
    (server, report)
  in
  let totals server =
    List.fold_left
      (fun (slots, cmds) (s : Service.Shard.stats) ->
        (slots + s.Service.Shard.slots, cmds + s.Service.Shard.committed))
      (0, 0) (Service.Server.stats server)
  in
  (* scaling curve: domains × shards *)
  let grid =
    if smoke then [ (1, 1); (1, 4); (2, 4); (4, 8) ]
    else
      List.concat_map
        (fun domains -> List.map (fun shards -> (domains, shards)) [ 1; 2; 4; 8 ])
        [ 1; 2; 4 ]
  in
  let cols =
    [
      col ~w:8 "domains" "domains"; col ~w:8 "shards" "shards";
      num ~w:14 0 "cmds/s" "throughput_cps"; num ~w:12 ~scale:1e3 1 "p50 us" "p50_ns";
      num ~w:12 ~scale:1e3 1 "p99 us" "p99_ns"; col ~w:8 "slots" "slots";
    ]
  in
  print_header cols;
  let scaling =
    List.map
      (fun (domains, shards) ->
        let server, report = loadrun ~domains ~shards ~batch_max:16 in
        let slots, cmds = totals server in
        print_row cols
          (J.Obj
             [
               ("bench", J.String "service-scaling");
               ("domains", J.Int domains);
               ("shards", J.Int shards);
               ("clients", J.Int clients);
               ("commands", J.Int cmds);
               ("slots", J.Int slots);
               ("batch_max", J.Int 16);
               ("window", J.Int 64);
               ("theta", J.Float theta);
               ("throughput_cps", J.Float report.Service.Loadgen.throughput_cps);
               ("p50_ns", J.Float report.Service.Loadgen.p50_ns);
               ("p99_ns", J.Float report.Service.Loadgen.p99_ns);
               ("stalls", J.Int report.Service.Loadgen.stalls);
               ("registers", J.Int (Service.Server.registers_used server));
             ]))
      grid
  in
  (* batched vs reference: the same binary, one shard, one domain; the
     floor gates the machine-independent ratio *)
  let _, ref_report = loadrun ~domains:1 ~shards:1 ~batch_max:1 in
  let _, batched_report = loadrun ~domains:1 ~shards:1 ~batch_max:16 in
  let tput (r : Service.Loadgen.report) = r.Service.Loadgen.throughput_cps in
  let ratio = tput batched_report /. tput ref_report in
  Fmt.pr "@.batching: reference %.0f cmds/s, batched %.0f cmds/s (%.1fx)@."
    (tput ref_report) (tput batched_report) ratio;
  let arm_row name report r =
    J.Obj
      [
        ("bench", J.String "service-throughput");
        ("arm", J.String name);
        ("throughput_cps", J.Float (tput report));
        ("p99_ns", J.Float report.Service.Loadgen.p99_ns);
        ("ratio_vs_reference", J.Float r);
      ]
  in
  (* chaos verdict: a crash-profile run on the register app, graded by
     the Conform oracles per shard *)
  let shards = 4 in
  let server =
    Service.Server.create ~batch_max:4 ~window:16 ~app:Service.App.register
      ~history:true ~seed ~shards ~domains:0 params
  in
  let rng = Shm.Rng.create seed in
  let rounds = if smoke then 16 else 48 in
  for round = 1 to rounds do
    for client = 0 to 15 do
      let cmd =
        if Shm.Rng.bool rng then Service.App.read
        else
          Universal.Machines.write
            (Shm.Value.pair (Shm.Value.int client) (Shm.Value.int round))
      in
      ignore
        (Service.Server.try_submit server
           ~key:(Shm.Value.int (Shm.Rng.int rng keys))
           ~tag:client cmd)
    done;
    ignore (Service.Server.pump server);
    (* fail-stop a replica on some shard every few rounds *)
    if round mod (rounds / 4) = 0 then
      ignore
        (Service.Server.crash_replica server
           ~shard:(Shm.Rng.int rng shards)
           ~pid:(Shm.Rng.int rng params.Agreement.Params.n))
  done;
  Service.Server.drain server;
  let verdict = Service.Server.verdict server in
  let _, chaos_cmds = totals server in
  let crashed =
    List.fold_left
      (fun acc (s : Service.Shard.stats) ->
        acc + (params.Agreement.Params.n - s.Service.Shard.alive))
      0 (Service.Server.stats server)
  in
  (match verdict with
  | Ok () ->
    Fmt.pr "chaos verdict: ok (%d commands, %d shards, %d crashed replicas)@."
      chaos_cmds shards crashed
  | Error errs ->
    Fmt.pr "chaos verdict: MISMATCH@.";
    List.iter (fun e -> Fmt.pr "  %s@." e) errs);
  scaling
  @ [
      arm_row "reference" ref_report 1.0;
      arm_row "batched" batched_report ratio;
      J.Obj
        [
          ("bench", J.String "service-verdict");
          ("arm", J.String "chaos");
          ("shards", J.Int shards);
          ("commands", J.Int chaos_cmds);
          ("crashed_replicas", J.Int crashed);
          ("ok", J.Float (match verdict with Ok () -> 1.0 | Error _ -> 0.0));
        ];
    ]

(* ------------------------------------------------------------------ *)
(* E18: coverage-guided fuzzing (lib/fuzz) — execs/s and the coverage
   curve per oracle, plus the seeded-mutant regression sweep.  The
   gated metrics are machine-independent verdicts (clean campaign,
   every mutant caught) and the deterministic coverage-bit count; the
   throughput column is informational.  Schema in EXPERIMENTS.md §E18. *)

let fuzz_table ~smoke =
  let budget = if smoke then 100 else 600 in
  let mutant_budget = if smoke then 200 else 400 in
  let seed = 0x5eed in
  section
    (Fmt.str
       "E18 Coverage-guided fuzzing (lib/fuzz): %d execs per oracle, seed %d%s"
       budget seed
       (if smoke then ", smoke" else ""));
  let cols =
    [
      col ~w:14 "oracle" "oracle"; col ~w:8 "execs" "execs"; col "interest" "interesting";
      col ~w:12 "corpus" "corpus_size"; col "cov bits" "coverage_bits";
      col "diverge" "divergences"; num ~w:12 0 "execs/s" "execs_per_s";
      col "wall ms" "wall_ms";
    ]
  in
  print_header cols;
  let oracle_rows =
    List.map
      (fun oracle ->
        let outcome, wall = timed (fun () -> Fuzz.Driver.run ~oracle ~budget ~seed ()) in
        let s = outcome.Fuzz.Driver.stats in
        let row =
          print_row cols
            (J.Obj
               [
                 ("bench", J.String "fuzz-oracle");
                 ("oracle", J.String (Fuzz.Oracle.name oracle));
                 ("budget", J.Int s.Fuzz.Driver.budget);
                 ("seed", J.Int s.Fuzz.Driver.seed);
                 ("execs", J.Int s.Fuzz.Driver.execs);
                 ("interesting", J.Int s.Fuzz.Driver.interesting);
                 ("corpus_size", J.Int s.Fuzz.Driver.corpus_size);
                 ("coverage_bits", J.Int s.Fuzz.Driver.coverage_bits);
                 ( "coverage_curve",
                   J.Arr
                     (List.map
                        (fun (x, b) -> J.Obj [ ("exec", J.Int x); ("bits", J.Int b) ])
                        s.Fuzz.Driver.curve) );
                 ("divergences", J.Int s.Fuzz.Driver.divergences);
                 ( "execs_per_s",
                   J.Float
                     (if wall <= 0. then 0. else float_of_int s.Fuzz.Driver.execs /. wall) );
                 ("wall_ms", J.Float (1000. *. wall));
                 ("ok", J.Float (if s.Fuzz.Driver.divergences = 0 then 1.0 else 0.0));
               ])
        in
        Option.iter (Fmt.pr "  !! %a@." Fuzz.Driver.pp_witness) outcome.Fuzz.Driver.witness;
        row)
      Fuzz.Oracle.all
  in
  let results, wall =
    timed (fun () -> Fuzz.Oracle.mutant_sweep ~budget:mutant_budget ~seed:42)
  in
  let caught = List.length (List.filter (fun r -> r.Fuzz.Oracle.caught) results) in
  let total = List.length results in
  Fmt.pr "mutants: %d/%d caught in %.1f ms@." caught total (1000. *. wall);
  oracle_rows
  @ [
      J.Obj
        [
          ("bench", J.String "fuzz-mutants");
          ("budget", J.Int mutant_budget);
          ("seed", J.Int 42);
          ("mutants", J.Int total);
          ("caught", J.Int caught);
          ( "caught_ratio",
            J.Float (if total = 0 then 1.0 else float_of_int caught /. float_of_int total) );
          ( "witness_sizes",
            J.Arr
              (List.map
                 (fun r ->
                   J.Obj
                     [
                       ("mutant", J.String r.Fuzz.Oracle.mutant);
                       ("caught", J.Bool r.Fuzz.Oracle.caught);
                       ("witness_size", J.Int r.Fuzz.Oracle.witness_size);
                     ])
                 results) );
          ("wall_ms", J.Float (1000. *. wall));
        ];
    ]

(* ------------------------------------------------------------------ *)
(* The registry: the only list of experiments.  [file] is where the
   rows go (with a history entry); experiments that only print have
   none.  [floors] are the committed machine-independent gates `check`
   enforces and `floors` (re)records. *)

type experiment = {
  id : string;
  file : string option;
  floors : Obs.History.floor list;
  run : smoke:bool -> J.t list;
}

let floor selector metric min = { Obs.History.selector; metric; min }

let experiment ?file ?(floors = []) id run = { id; file; floors; run }

let registry =
  [
    experiment "fig1-upper" fig1_upper ~file:"BENCH_fig1.json";
    experiment "fig1-lower" fig1_lower;
    experiment "fig1-anon-upper" fig1_anon_upper ~file:"BENCH_fig1_anon.json";
    experiment "fig1-anon-nonblocking" fig1_anon_nonblocking;
    experiment "fig1-anon-lower" fig1_anon_lower;
    experiment "anon-frontier" anon_frontier;
    experiment "conjecture-probe" conjecture_probe;
    experiment "baseline" baseline_table;
    experiment "consensus-exact" consensus_exact;
    experiment "snapshot-ablation" snapshot_ablation;
    experiment "explore" explore_table ~file:"BENCH_explore.json";
    experiment "conform" conform_table ~file:"BENCH_conform.json";
    experiment "analyze" analyze_table ~file:"BENCH_analyze.json";
    (* E16/E20: same-binary speedup ratios.  The journaled backend +
       incremental keys must stay >= 5x (stepping) and >= 3x (DPOR) the
       persistent + full-digest reference (the hot-path targets); the
       bytecode engine >= 5x the journal + incremental-key interpreter
       on the shared collect workload (measured 7-8x), and the vm DPOR
       engine must keep a real margin over interpreted DPOR (measured
       1.9-2.6x; floored conservatively against scheduler noise). *)
    experiment "perf" perf_table ~file:"BENCH_perf.json"
      ~floors:
        [
          floor [ ("bench", "sim-steps"); ("arm", "new") ] "ratio_vs_reference" 5.0;
          floor [ ("bench", "dpor-states"); ("arm", "new") ] "ratio_vs_reference" 3.0;
          floor [ ("bench", "vm-sim-steps"); ("arm", "vm") ] "ratio_vs_reference" 5.0;
          floor [ ("bench", "vm-dpor-states"); ("arm", "vm") ] "ratio_vs_reference" 1.3;
        ];
    (* E17: the batching speedup is a same-binary ratio (so it holds
       across hardware), and the chaos verdict must be clean — a
       history that stops linearizing is a regression like any other. *)
    experiment "service" service_table ~file:"BENCH_service.json"
      ~floors:
        [
          floor
            [ ("bench", "service-throughput"); ("arm", "batched") ]
            "ratio_vs_reference" 2.0;
          floor [ ("bench", "service-verdict"); ("arm", "chaos") ] "ok" 1.0;
        ];
    (* E18: verdict floors are exact (a clean campaign and a full
       mutant catch are both 1.0 by construction, on any machine); the
       coverage floor is a conservative bound on the deterministic bit
       count at the smoke budget — a generator or coverage regression
       that guts feedback shows up as a collapse here. *)
    experiment "fuzz" fuzz_table ~file:"BENCH_fuzz.json"
      ~floors:
        (List.map
           (fun o ->
             floor [ ("bench", "fuzz-oracle"); ("oracle", Fuzz.Oracle.name o) ] "ok" 1.0)
           Fuzz.Oracle.all
        @ [
            floor [ ("bench", "fuzz-oracle"); ("oracle", "analyzer") ] "coverage_bits" 500.0;
            floor [ ("bench", "fuzz-mutants") ] "caught_ratio" 1.0;
          ]);
    (* E19: the state reduction is a same-binary ratio of explored-state
       counts (machine-independent), and verdict identity is exact — the
       refinement must never flip a verdict. *)
    experiment "indep" indep_table ~file:"BENCH_indep.json"
      ~floors:
        [
          floor [ ("bench", "indep-total") ] "states_ratio" 1.1;
          floor [ ("bench", "indep-total") ] "verdict_match" 1.0;
        ];
    experiment "progress-vs-m" progress_vs_m ~file:"BENCH_progress_vs_m.json";
    experiment "steps-vs-n" steps_vs_n ~file:"BENCH_steps_vs_n.json";
    experiment "diversity-vs-workload" diversity_vs_workload;
  ]

(* ------------------------------------------------------------------ *)
(* Running experiments.  Every run of an experiment with a file writes
   BENCH_<...>.json and appends one entry (schema version, git rev,
   rows) to BENCH_history.jsonl, the repo's perf trajectory; `diff`
   compares the last two runs of an experiment; `check` reruns every
   gated experiment and holds its rows to the committed floors. *)

let history_path = "BENCH_history.jsonl"

(* Obs.History is subprocess-free by design; resolving the revision is
   the harness's job.  CI exposes GITHUB_SHA; locally ask git. *)
let git_rev () =
  match Sys.getenv_opt "GITHUB_SHA" with
  | Some s when String.length s >= 7 -> String.sub s 0 7
  | Some s -> s
  | None -> (
    try
      let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
      let line = try input_line ic with End_of_file -> "unknown" in
      match Unix.close_process_in ic with Unix.WEXITED 0 -> line | _ -> "unknown"
    with _ -> "unknown")

let record ~smoke e =
  let rows = e.run ~smoke in
  Option.iter
    (fun file ->
      Obs.Bench_out.write ~experiment:e.id ~path:file rows;
      Obs.History.append ~path:history_path
        (Obs.History.make ~ts:(Unix.time ()) ~rev:(git_rev ()) ~smoke ~experiment:e.id rows);
      Fmt.pr "wrote %s (%d rows; history: %s)@." file (List.length rows) history_path)
    e.file;
  rows

let gated = List.filter (fun e -> e.floors <> []) registry

let usage () =
  Fmt.epr
    "usage: main.exe [all | bechamel | table <id> | series <id> | diff [<experiment>] | \
     check [--smoke] [--fault] | floors]@.ids: %a@."
    Fmt.(list ~sep:sp string)
    (List.map (fun e -> e.id) registry);
  exit 2

let load_history () =
  match Obs.History.load history_path with
  | Ok entries -> entries
  | Error e ->
    Fmt.epr "%s: %s@." history_path e;
    exit 2

(* `diff [experiment]`: metric drift between the last two recorded runs
   of an experiment (default: perf). *)
let diff_cmd experiment =
  let runs =
    load_history ()
    |> List.filter (fun (e : Obs.History.entry) ->
           e.Obs.History.experiment = experiment && e.Obs.History.kind = "run")
  in
  match List.rev runs with
  | cur :: base :: _ ->
    Fmt.pr "%s: %a -> %a@." experiment Obs.History.pp_entry base
      Obs.History.pp_entry cur;
    (match Obs.History.diff base cur with
    | [] -> Fmt.pr "no shared metric changed@."
    | deltas -> List.iter (fun d -> Fmt.pr "%a@." Obs.History.pp_delta d) deltas)
  | _ ->
    Fmt.epr "need at least two %S run entries in %s (run `bench table %s` twice)@."
      experiment history_path experiment;
    exit 2

let floors_cmd () =
  List.iter
    (fun e ->
      let entry =
        Obs.History.make ~ts:(Unix.time ()) ~rev:(git_rev ()) ~kind:"floors"
          ~experiment:e.id
          (List.map Obs.History.floor_row e.floors)
      in
      Obs.History.append ~path:history_path entry;
      Fmt.pr "appended floors entry to %s: %a@." history_path Obs.History.pp_entry entry)
    gated

(* `check [--smoke] [--fault]`: run each gated experiment and gate its
   rows against the committed floors.  Exit 1 on any violation.
   --fault synthetically regresses every gated float metric (divides it
   by 100) before checking — CI uses it to prove the gate fails. *)
let check_cmd ~smoke ~fault =
  let check e =
    let floors =
      match Obs.History.latest_floors (load_history ()) ~experiment:e.id with
      | Some entry -> Obs.History.floors_of_entry entry
      | None ->
        Fmt.epr "no committed floors entry for %S in %s (run `bench floors`)@." e.id
          history_path;
        exit 2
    in
    let gated_metric k = List.exists (fun (f : Obs.History.floor) -> f.metric = k) floors in
    let regress = function
      | J.Obj fields ->
        J.Obj
          (List.map
             (function
               | k, J.Float x when gated_metric k -> (k, J.Float (x /. 100.)) | kv -> kv)
             fields)
      | row -> row
    in
    let rows = record ~smoke e in
    let rows = if fault then List.map regress rows else rows in
    if fault then Fmt.pr "--fault: gated metrics synthetically regressed 100x@.";
    let verdicts = Obs.History.check_floors ~floors rows in
    List.iter (Fmt.pr "%a@." Obs.History.pp_verdict) verdicts;
    verdicts
  in
  let verdicts = List.concat_map check gated in
  let bad = List.filter Obs.History.violated verdicts in
  if bad <> [] then begin
    Fmt.pr "bench check: FAIL (%d of %d floors violated)@." (List.length bad)
      (List.length verdicts);
    exit 1
  end;
  Fmt.pr "bench check: ok (%d floors)@." (List.length verdicts)

let () =
  (* --smoke anywhere on the line switches the smoke-aware experiments
     to CI-sized workloads (same arms, same schema); --fault makes
     `check` regress the gated metrics synthetically. *)
  let args = List.tl (Array.to_list Sys.argv) in
  let smoke = List.mem "--smoke" args and fault = List.mem "--fault" args in
  let run e = ignore (record ~smoke e) in
  match List.filter (fun a -> a <> "--smoke" && a <> "--fault") args with
  | [] | [ "all" ] ->
    List.iter run registry;
    bechamel_benches ()
  | [ "bechamel" ] -> bechamel_benches ()
  | [ ("table" | "series"); id ] -> (
    match List.find_opt (fun e -> e.id = id) registry with
    | Some e -> run e
    | None ->
      Fmt.epr "unknown experiment %S@." id;
      usage ())
  | [ "diff" ] -> diff_cmd "perf"
  | [ "diff"; experiment ] -> diff_cmd experiment
  | [ "check" ] -> check_cmd ~smoke ~fault
  | [ "floors" ] -> floors_cmd ()
  | _ -> usage ()
