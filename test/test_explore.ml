(* Tests for exploration engine v2: DPOR vs naive agreement, state-hash
   collision freedom, counterexample shrinking, parallel-domain
   agreement, and the stress harness's replayable schedules. *)

open Helpers
open Agreement

let inputs_for n = Shm.Exec.oneshot_inputs (Array.init n (fun pid -> vi (pid + 1)))

let check_safety ~k config = Spec.Properties.check_safety ~k config

let is_ok = function Spec.Modelcheck.Ok_bounded _ -> true | _ -> false

let explored = function
  | Spec.Modelcheck.Ok_bounded s -> s.Spec.Modelcheck.explored
  | Spec.Modelcheck.Counterexample { stats; _ } -> stats.Spec.Modelcheck.explored

let run_engine ~engine ~depth ~n ~k ~r =
  let p = Params.make ~n ~m:1 ~k in
  Spec.Modelcheck.run ~engine ~depth ~inputs:(inputs_for n) ~check:(check_safety ~k)
    (Instances.oneshot ~r p)

(* Replay oracle over a fresh instance: model-checker style (tolerant
   replay + deterministic completion + safety check). *)
let shrink_oracle ~n ~k ~r =
  let p = Params.make ~n ~m:1 ~k in
  fun schedule ->
    Spec.Counterex.replay ~completion_steps:50_000 ~inputs:(inputs_for n)
      ~check:(check_safety ~k)
      (Instances.oneshot ~r p)
      schedule

(* ---- DPOR vs naive: verdict agreement and state-count reduction ---- *)

(* Correct and starved one-shot instances, 2 and 3 processes: the two
   engines agree on every verdict, and on fully-explored (Ok) spaces
   DPOR visits at most as many nodes as the naive engine. *)
let dpor_agrees_with_naive () =
  [ (2, 1, 1, 10); (2, 1, 2, 10); (2, 1, 3, 10); (3, 2, 2, 8); (3, 2, 4, 7) ]
  |> List.iter (fun (n, k, r, depth) ->
         let naive = run_engine ~engine:Spec.Modelcheck.Naive ~depth ~n ~k ~r in
         let dpor =
           run_engine
             ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 1 })
             ~depth ~n ~k ~r
         in
         Alcotest.(check bool)
           (Fmt.str "verdicts agree (n=%d k=%d r=%d)" n k r)
           (is_ok naive) (is_ok dpor);
         if is_ok naive then
           Alcotest.(check bool)
             (Fmt.str "dpor explores no more (n=%d k=%d r=%d)" n k r)
             true
             (explored dpor <= explored naive))

(* On a starved 2-process/2-register config both engines find a
   counterexample, and DPOR's independently re-checks: replaying its
   schedule (plus completion) still violates safety. *)
let dpor_counterexample_recheck () =
  let n = 2 and k = 1 and r = 1 and depth = 10 in
  let naive = run_engine ~engine:Spec.Modelcheck.Naive ~depth ~n ~k ~r in
  let dpor =
    run_engine ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 1 }) ~depth ~n ~k ~r
  in
  match Spec.Modelcheck.counterex_of naive, Spec.Modelcheck.counterex_of dpor with
  | Some nce, Some ce ->
    let replay = shrink_oracle ~n ~k ~r in
    Alcotest.(check bool) "dpor counterexample re-checks" true
      (replay ce.Spec.Counterex.schedule <> None);
    (* the engines visit the tree in different orders, so the raw first
       counterexamples differ (and greedy shrinking can land them in
       different local minima) — but both shrink to genuine violating
       schedules *)
    List.iter
      (fun c ->
        match Spec.Shrink.minimize ~replay c.Spec.Counterex.schedule with
        | Some { ce = m; _ } ->
          Alcotest.(check bool) "shrunk schedule still violates" true
            (replay m.Spec.Counterex.schedule <> None)
        | None -> Alcotest.fail "shrinker lost a counterexample")
      [ nce; ce ]
  | _ -> Alcotest.fail "expected counterexamples from both engines"

(* The state cache earns its keep: with caching strictly fewer nodes
   than without, same verdict. *)
let cache_reduces_states () =
  let n = 3 and k = 1 and depth = 8 in
  let p = Params.make ~n ~m:1 ~k in
  let r = Params.r_oneshot p in
  let nocache =
    run_engine ~engine:(Spec.Modelcheck.Dpor { cache = false; jobs = 1 }) ~depth ~n ~k ~r
  in
  let cached =
    run_engine ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 1 }) ~depth ~n ~k ~r
  in
  Alcotest.(check bool) "both ok" true (is_ok nocache && is_ok cached);
  Alcotest.(check bool) "cache strictly reduces" true (explored cached < explored nocache)

(* ---- state hashing ---- *)

(* The collision audit.  Enumerate every state reachable within a depth
   bound (every schedule, no reduction) and certify the incremental key
   partitions the space exactly as the full canonical form does: equal
   keys always mean equal canonical forms (no collision ever merges
   distinct states), and equal canonical forms always mean equal keys
   (incrementality loses no cache hits vs the full digest). *)
let statehash_audit ~n ~depth ~min_states () =
  let p = Params.make ~n ~m:1 ~k:1 in
  let inputs = inputs_for n in
  let has_input pid inst = Option.is_some (inputs ~pid ~instance:inst) in
  let by_key : (Spec.Statehash.key, string) Hashtbl.t = Hashtbl.create 1024 in
  let by_repr : (string, Spec.Statehash.key) Hashtbl.t = Hashtbl.create 1024 in
  let states = ref 0 in
  let rec go config hash d =
    incr states;
    let key = Spec.Statehash.key hash in
    let repr = Spec.Statehash.repr hash config in
    (match Hashtbl.find_opt by_key key with
    | Some repr' ->
      Alcotest.(check string) "equal key implies equal canonical form" repr' repr
    | None -> Hashtbl.add by_key key repr);
    (match Hashtbl.find_opt by_repr repr with
    | Some key' ->
      if not (Spec.Statehash.key_equal key key') then
        Alcotest.failf "equal canonical form, different keys: %a vs %a"
          Spec.Statehash.pp_key key Spec.Statehash.pp_key key'
    | None -> Hashtbl.add by_repr repr key);
    if d < depth then
      List.init n Fun.id
      |> List.filter (fun pid -> Shm.Config.runnable config ~has_input pid)
      |> List.iter (fun pid ->
             let config', ev =
               match Shm.Config.proc config pid with
               | Shm.Program.Await _ ->
                 let inst = Shm.Config.instance config pid + 1 in
                 Shm.Config.invoke config pid (Option.get (inputs ~pid ~instance:inst))
               | Shm.Program.Stop -> assert false
               | Shm.Program.Op _ | Shm.Program.Yield _ -> Shm.Config.step config pid
             in
             go config' (Spec.Statehash.record hash ~before:config config' ev) (d + 1))
  in
  go (Instances.oneshot p) (Spec.Statehash.create ~audit:true (Instances.oneshot p)) 0;
  Alcotest.(check bool) "enumerated a real space" true (!states > min_states)

let statehash_no_collisions = statehash_audit ~n:2 ~depth:10 ~min_states:1000

let statehash_audit_n3 = statehash_audit ~n:3 ~depth:8 ~min_states:5000

(* Commuted independent steps produce the same key: two processes
   writing distinct registers in either order. *)
let statehash_merges_commuted_writes () =
  let program reg =
    Shm.Program.await (fun v ->
        Shm.Program.write reg v (fun () -> Shm.Program.yield v Shm.Program.stop))
  in
  let config =
    Shm.Config.create ~registers:2 ~procs:[| program 0; program 1 |] ()
  in
  let inputs = inputs_for 2 in
  let run schedule =
    List.fold_left
      (fun (config, hash) pid ->
        let config', ev =
          match Shm.Config.proc config pid with
          | Shm.Program.Await _ ->
            let inst = Shm.Config.instance config pid + 1 in
            Shm.Config.invoke config pid (Option.get (inputs ~pid ~instance:inst))
          | _ -> Shm.Config.step config pid
        in
        (config', Spec.Statehash.record hash ~before:config config' ev))
      (config, Spec.Statehash.create ~audit:true config)
      schedule
  in
  let c1, h1 = run [ 0; 1; 0; 1 ] (* invoke 0, invoke 1, write R0, write R1 *)
  and c2, h2 = run [ 1; 0; 1; 0 ] (* same steps, writes commuted *) in
  Alcotest.(check string) "same canonical form" (Spec.Statehash.repr h1 c1)
    (Spec.Statehash.repr h2 c2);
  Alcotest.(check bool) "same incremental key" true
    (Spec.Statehash.key_equal (Spec.Statehash.key h1) (Spec.Statehash.key h2))

(* ---- shrinking ---- *)

(* Shrinking a model-checker counterexample: the result still violates
   and is 1-minimal (removing any single remaining step loses the
   violation).  n=3/k=1/r=3 is one register short of the n+2m−k bound
   and violates only under a genuine interleaving — the empty schedule
   is safe — so 1-minimality is non-trivial here. *)
let shrinker_one_minimal () =
  let n = 3 and k = 1 and r = 3 and depth = 14 in
  let replay = shrink_oracle ~n ~k ~r in
  Alcotest.(check bool) "completion alone is safe at r=3" true (replay [] = None);
  let dpor =
    run_engine ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 1 }) ~depth ~n ~k ~r
  in
  let ce =
    match Spec.Modelcheck.counterex_of dpor with
    | Some ce -> ce
    | None -> Alcotest.fail "expected a counterexample"
  in
  match Spec.Shrink.minimize ~replay ce.Spec.Counterex.schedule with
  | None -> Alcotest.fail "shrinker lost the violation"
  | Some { ce = shrunk; _ } ->
    let s = shrunk.Spec.Counterex.schedule in
    Alcotest.(check bool) "shrunk no longer than original" true
      (List.length s <= List.length ce.Spec.Counterex.schedule);
    Alcotest.(check bool) "shrunk still violates" true (replay s <> None);
    List.iteri
      (fun i _ ->
        let without = List.filteri (fun j _ -> j <> i) s in
        Alcotest.(check bool)
          (Fmt.str "1-minimal: dropping step %d loses the violation" i)
          true
          (replay without = None))
      s

(* The polymorphic ddmin core on a synthetic oracle: failure iff the
   subset keeps both sentinel elements; the 1-minimal result is exactly
   those two, in their original relative order. *)
let minimize_generic_synthetic () =
  let replay keep =
    if List.mem 3 keep && List.mem 7 keep then Some (List.length keep) else None
  in
  match Spec.Shrink.minimize_generic ~replay (List.init 12 Fun.id) with
  | None -> Alcotest.fail "generic shrinker lost the failure"
  | Some r ->
    Alcotest.(check (list int)) "exact minimum, order preserved" [ 3; 7 ]
      r.Spec.Shrink.schedule;
    Alcotest.(check int) "witness from the final oracle call" 2 r.Spec.Shrink.witness;
    Alcotest.(check int) "removed the other ten" 10 r.Spec.Shrink.g_removed;
    Alcotest.(check bool) "oracle consulted" true (r.Spec.Shrink.g_replays > 0);
  (* an oracle that never fails: nothing to shrink *)
  Alcotest.(check bool) "non-failing start refused" true
    (Spec.Shrink.minimize_generic ~replay:(fun _ -> None) [ 1; 2; 3 ] = None)

(* The Counterex wrapper is the generic core: on the same oracle both
   produce the same schedule, and the generic witness carries the
   (error, config) pair that re-checks. *)
let minimize_generic_agrees_with_wrapper () =
  let n = 3 and k = 1 and r = 3 and depth = 14 in
  let dpor =
    run_engine ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 1 }) ~depth ~n ~k ~r
  in
  let ce =
    match Spec.Modelcheck.counterex_of dpor with
    | Some ce -> ce
    | None -> Alcotest.fail "expected a counterexample"
  in
  let replay = shrink_oracle ~n ~k ~r in
  match
    ( Spec.Shrink.minimize ~replay ce.Spec.Counterex.schedule,
      Spec.Shrink.minimize_generic ~replay ce.Spec.Counterex.schedule )
  with
  | Some w, Some g ->
    Alcotest.(check (list int)) "same minimized schedule"
      w.Spec.Shrink.ce.Spec.Counterex.schedule g.Spec.Shrink.schedule;
    Alcotest.(check int) "same oracle spend" w.Spec.Shrink.replays g.Spec.Shrink.g_replays;
    let error, _config = g.Spec.Shrink.witness in
    Alcotest.(check string) "same violation" w.Spec.Shrink.ce.Spec.Counterex.error error;
    (* shrink-then-recheck: replaying the generic schedule still fails *)
    Alcotest.(check bool) "generic schedule re-checks" true
      (replay g.Spec.Shrink.schedule <> None)
  | _ -> Alcotest.fail "one of the shrinkers lost the counterexample"

(* At r=1 even the deterministic completion violates — no adversarial
   scheduling needed — and the shrinker discovers exactly that: the
   counterexample shrinks to the empty schedule. *)
let shrinker_reaches_empty () =
  let n = 2 and k = 1 and r = 1 and depth = 10 in
  let dpor =
    run_engine ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 1 }) ~depth ~n ~k ~r
  in
  let ce =
    match Spec.Modelcheck.counterex_of dpor with
    | Some ce -> ce
    | None -> Alcotest.fail "expected a counterexample"
  in
  let replay = shrink_oracle ~n ~k ~r in
  match Spec.Shrink.minimize ~replay ce.Spec.Counterex.schedule with
  | None -> Alcotest.fail "shrinker lost the violation"
  | Some { ce = shrunk; _ } ->
    Alcotest.(check (list int)) "shrinks to the empty schedule" []
      shrunk.Spec.Counterex.schedule

(* ---- parallel domains ---- *)

(* --jobs 1 and --jobs 4 agree on the outcome, on both a correct and a
   starved instance, and on generated protocols run through the
   bytecode engine (whose worker domains steal and replay too). *)
let jobs_agree () =
  [ (2, 1, 3, 10, true); (2, 1, 1, 10, false); (3, 1, 1, 7, false) ]
  |> List.iter (fun (n, k, r, depth, expect_ok) ->
         let j1 =
           run_engine ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 1 }) ~depth ~n
             ~k ~r
         and j4 =
           run_engine ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 4 }) ~depth ~n
             ~k ~r
         in
         Alcotest.(check bool) (Fmt.str "jobs=1 verdict (n=%d r=%d)" n r) expect_ok (is_ok j1);
         Alcotest.(check bool) (Fmt.str "jobs=4 verdict (n=%d r=%d)" n r) expect_ok (is_ok j4));
  let rng = Shm.Rng.create 5 in
  for i = 1 to 60 do
    let proto = Fuzz.Gen.generate rng in
    let run jobs =
      Spec.Modelcheck.run_vm
        ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs })
        ~depth:10 ~inputs:Fuzz.Gen.inputs
        ~check:(Spec.Properties.check_safety_io ~k:1)
        proto
    in
    let j4 = run 4 in
    Alcotest.(check bool) (Fmt.str "run_vm jobs=1 and jobs=4 verdicts (protocol %d)" i)
      (is_ok (run 1)) (is_ok j4);
    (* a parallel counterexample is genuine: it replays through the
       interpreter *)
    match Spec.Modelcheck.counterex_of j4 with
    | None -> ()
    | Some ce ->
      Alcotest.(check bool) (Fmt.str "run_vm jobs=4 counterexample replays (protocol %d)" i)
        true
        (Spec.Counterex.replay ~completion_steps:50_000 ~inputs:Fuzz.Gen.inputs
           ~check:(check_safety ~k:1) (Shm.Vm.config proto) ce.Spec.Counterex.schedule
        <> None)
  done

(* A check that raises in one worker stops the others and reaches the
   caller, on both engines, instead of leaving them waiting for nodes
   that will never be finished. *)
let raising_check_propagates () =
  let p = Params.make ~n:3 ~m:1 ~k:1 in
  let leaves = Atomic.make 0 in
  let boom () = if Atomic.fetch_and_add leaves 1 = 50 then failwith "boom" in
  Alcotest.check_raises "interpreter, jobs=4" (Failure "boom") (fun () ->
      ignore
        (Spec.Modelcheck.run
           ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 4 })
           ~depth:10 ~inputs:(inputs_for 3)
           ~check:(fun _ -> boom (); Ok ())
           (Instances.oneshot p)));
  Atomic.set leaves 0;
  let proto =
    Shm.Vm.
      { registers = 2; n = 3; steps = [ Write (0, Input); Scan (0, 2); Read 1; Decide Last ] }
  in
  Alcotest.check_raises "vm, jobs=4" (Failure "boom") (fun () ->
      ignore
        (Spec.Modelcheck.run_vm
           ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 4 })
           ~depth:10 ~inputs:Fuzz.Gen.inputs
           ~check:(fun ~inputs:_ ~outputs:_ -> boom (); Ok ())
           proto))

(* ---- pinned visit order ---- *)

(* Counts recorded on the engines before they shared one core: every
   node, leaf, cache hit and prune depends on the visit order (pids
   ascending, cache checked before branching, the batch pops), so any
   change to that order moves them. *)
let visit_order_pinned () =
  let p = Params.make ~n:3 ~m:1 ~k:1 in
  let s =
    Spec.Modelcheck.stats_of
      (Spec.Modelcheck.run
         ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 1 })
         ~depth:10 ~inputs:(inputs_for 3) ~check:(check_safety ~k:1) (Instances.oneshot p))
  in
  Alcotest.(check (list int)) "Figure 3, n=3, depth 10: explored, leaves, hits, pruned"
    [ 1428; 843; 33; 223 ]
    Spec.Modelcheck.[ s.explored; s.leaves; s.cache_hits; s.pruned ];
  let rng = Shm.Rng.create 1 in
  let nodes = ref 0 and violations = ref 0 in
  for _ = 1 to 50 do
    let out =
      Spec.Modelcheck.run_vm
        ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 1 })
        ~depth:14 ~inputs:Fuzz.Gen.inputs
        ~check:(Spec.Properties.check_safety_io ~k:1)
        (Fuzz.Gen.generate rng)
    in
    nodes := !nodes + (Spec.Modelcheck.stats_of out).Spec.Modelcheck.explored;
    if not (is_ok out) then incr violations
  done;
  Alcotest.(check (pair int int))
    "run_vm, 50 generated protocols (seed 1): nodes, violations"
    (23_579, 41) (!nodes, !violations)

(* The state spaces of Figures 4 and 5, recorded before their programs
   were rewritten to encode each stored tuple once and decode each scan
   once: any changed transition moves a state key, and with it these
   counts.  Proposal values are 100·instance + pid over 2 rounds. *)
let rewritten_programs_pinned () =
  let inputs = Shm.Exec.repeated_inputs ~rounds:2 (fun pid i -> vi ((100 * i) + pid)) in
  let counts ~depth ~k config =
    let s =
      Spec.Modelcheck.stats_of
        (Spec.Modelcheck.run
           ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs = 1 })
           ~depth ~inputs ~check:(check_safety ~k) config)
    in
    Spec.Modelcheck.[ s.explored; s.leaves; s.cache_hits; s.pruned ]
  in
  let fig4 = Params.make ~n:3 ~m:1 ~k:1 and fig5 = Params.make ~n:3 ~m:1 ~k:2 in
  Alcotest.(check (list int)) "Figure 4, n=3, depth 12: explored, leaves, hits, pruned"
    [ 9051; 5310; 200; 1561 ]
    (counts ~depth:12 ~k:1 (Instances.repeated fig4));
  Alcotest.(check (list int)) "Figure 5, n=3 k=2, depth 8"
    [ 130; 42; 33; 30 ]
    (counts ~depth:8 ~k:2 (Instances.anonymous fig5));
  Alcotest.(check (list int)) "Figure 5, n=3 k=2, depth 12"
    [ 463; 135; 111; 177 ]
    (counts ~depth:12 ~k:2 (Instances.anonymous fig5))

(* ---- allocation budget of a completion step ---- *)

(* Minor-heap words per simulator step while completing 50 seeded
   random prefixes (0–12 steps) of a Figure 3 or Figure 4 system, the
   model checkers' completion workload.  Rebuilding a stored tuple, a
   decoded scan or the snapshot API on every step shows up here. *)
let words_per_completion_step ~n build inputs =
  let steps = ref 0 and words = ref 0. in
  for seed = 0 to 49 do
    let prefix =
      (Shm.Exec.run ~sched:(Shm.Schedule.random ~seed n) ~inputs ~max_steps:(seed mod 13)
         (build ()))
        .Shm.Exec.config
    in
    let before = Gc.minor_words () in
    let r = Shm.Exec.run ~sched:(Shm.Schedule.completion n) ~inputs ~max_steps:100_000 prefix in
    words := !words +. (Gc.minor_words () -. before);
    steps := !steps + r.Shm.Exec.steps
  done;
  !words /. float_of_int !steps

(* Measured on OCaml 5.1: Figure 4 298 → 100 words/step and Figure 3
   143 → 87 when the programs stopped re-encoding and re-decoding per
   step.  The bounds sit between those and the single regressions:
   re-encoding Figure 4's tuple every iteration gives 131, decoding its
   scan per predicate 141, building Figure 3's pair twice per iteration
   125, rebuilding the atomic snapshot API per step 103 (Figure 3). *)
let completion_allocation_budget () =
  let p4 = Params.make ~n:4 ~m:1 ~k:1 and p3 = Params.make ~n:3 ~m:1 ~k:1 in
  let fig4 =
    words_per_completion_step ~n:4
      (fun () -> Instances.repeated p4)
      (Shm.Exec.repeated_inputs ~rounds:3 (fun pid i -> vi ((100 * i) + pid)))
  in
  let fig3 = words_per_completion_step ~n:3 (fun () -> Instances.oneshot p3) (inputs_for 3) in
  if fig4 > 120. then Alcotest.failf "Figure 4: %.1f words/step > 120" fig4;
  if fig3 > 100. then Alcotest.failf "Figure 3: %.1f words/step > 100" fig3

(* Every combination of memory backend × cache-key flavour × domain
   count reaches the same verdict, on a correct and a starved instance.
   This pins the journaled backend's replay-based stealing and the
   incremental key against the persistent/full-digest reference. *)
let backends_and_key_modes_agree () =
  [ (3, true); (1, false) ]
  |> List.iter (fun (r, expect_ok) ->
         let n = 2 and k = 1 and depth = 10 in
         let p = Params.make ~n ~m:1 ~k in
         [ Shm.Memory.Persistent; Shm.Memory.Journaled ]
         |> List.iter (fun backend ->
                [ `Incremental; `Full ]
                |> List.iter (fun key ->
                       [ 1; 4 ]
                       |> List.iter (fun jobs ->
                              let out =
                                Spec.Modelcheck.run
                                  ~engine:(Spec.Modelcheck.Dpor { cache = true; jobs })
                                  ~depth ~key ~inputs:(inputs_for n)
                                  ~check:(check_safety ~k)
                                  (Instances.oneshot ~r ~backend p)
                              in
                              Alcotest.(check bool)
                                (Fmt.str "verdict (r=%d %s %s jobs=%d)" r
                                   (Shm.Memory.backend_name backend)
                                   (match key with `Incremental -> "inc" | `Full -> "full")
                                   jobs)
                                expect_ok (is_ok out)))))

(* ---- the state cache ---- *)

(* The list-per-key policy the flat table replaced, kept as the fake the
   table is checked against: a key's entries newest first, cut to 8, and
   a visit is covered when some entry had at least its remaining budget
   and a sleep set inside its own. *)
module Fake_cache = struct
  type t = { tbl : (int list, (int * int) list) Hashtbl.t; mutable evictions : int }

  let create () = { tbl = Hashtbl.create 16; evictions = 0 }

  let visit t key ~remaining ~sleep =
    let key = Array.to_list key in
    let entries = Option.value (Hashtbl.find_opt t.tbl key) ~default:[] in
    List.exists (fun (r, sl) -> r >= remaining && sl land lnot sleep = 0) entries
    || begin
      let entries = (remaining, sleep) :: entries in
      if List.length entries > 8 then t.evictions <- t.evictions + 1;
      Hashtbl.replace t.tbl key (List.filteri (fun i _ -> i < 8) entries);
      false
    end
end

(* A visit program over a tiny key space: key words from a three-value
   pool (keys that differ in one word only are distinct keys), sleep
   sets from six bits including the top ones a 62-process sleep set
   uses, remaining budgets 0..15.  Few keys and many visits give keys
   9 or more entries, so the oldest-entry eviction runs. *)
let cache_program =
  let open QCheck.Gen in
  let word = oneofl [ 0; -1; max_int ] in
  let key = map (fun l -> Array.of_list l) (list_repeat 4 word) in
  let bits = oneofl [ 0; 1; 2; 59; 60; 61 ] in
  let sleep = map (List.fold_left (fun m b -> m lor (1 lsl b)) 0) (list_size (0 -- 3) bits) in
  let visit keys = triple (oneofl keys) (0 -- 15) sleep in
  list_size (1 -- 6) key >>= fun keys -> list_size (50 -- 400) (visit keys)

let print_visit (key, remaining, sleep) =
  Fmt.str "%a r=%d s=%x" Fmt.(array ~sep:(any ".") int) key remaining sleep

(* The table and the fake decide every visit of every program alike and
   drop as many entries; over the run, some key must have reached a 9th
   entry and some table must have doubled at least 3 times, or the
   programs would not reach the paths they are for. *)
let cache_model_test seed =
  let evictions = ref 0 and doublings = ref 0 in
  let rec log2 x = if x <= 1 then 0 else 1 + log2 (x / 2) in
  let agree visits =
    let real = Spec.Cache.create 1 and fake = Fake_cache.create () in
    let cap0 = Spec.Cache.capacity real in
    List.iteri
      (fun i (key, remaining, sleep) ->
        let r = Spec.Cache.visit real key ~remaining ~sleep
        and f = Fake_cache.visit fake key ~remaining ~sleep in
        if r <> f then
          QCheck.Test.fail_reportf "visit %d (%s): table says %b, list policy %b" i
            (print_visit (key, remaining, sleep))
            r f)
      visits;
    if Spec.Cache.evictions real <> fake.Fake_cache.evictions then
      QCheck.Test.fail_reportf "%d evictions, list policy %d" (Spec.Cache.evictions real)
        fake.Fake_cache.evictions;
    evictions := !evictions + Spec.Cache.evictions real;
    doublings := max !doublings (log2 (Spec.Cache.capacity real / cap0));
    true
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| seed |])
    (QCheck.Test.make ~count:300 ~name:"state cache decides every visit as the list policy"
       (QCheck.make ~print:QCheck.Print.(list print_visit) cache_program)
       agree);
  if !evictions = 0 then Alcotest.fail "no key ever reached a 9th entry";
  if !doublings < 3 then
    Alcotest.failf "the table doubled at most %d times in one program" !doublings

(* Minor-heap words allocated by [f ()]. *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* The cache allocates nothing per probe or insert once grown, and
   neither do the two engines' key paths feeding it: the words of an
   interpreter state's incremental hash (Spec.Statehash) and of a vm
   arena slot (Shm.Vm). *)
let cache_allocation_free () =
  let words = Array.make 4 0 in
  let c = Spec.Cache.create 1 in
  let visit_int i ~remaining =
    words.(0) <- i;
    words.(1) <- i lxor 0x55;
    words.(2) <- -i;
    words.(3) <- 7;
    Spec.Cache.visit c words ~remaining ~sleep:0
  in
  for i = 0 to 29_999 do
    ignore (visit_int i ~remaining:3)
  done;
  let cap = Spec.Cache.capacity c in
  let hits = ref 0 in
  let w =
    minor_words (fun () ->
        for i = 0 to 4_999 do
          (* a probe that hits, then an insert of a fresh key *)
          if visit_int i ~remaining:2 then incr hits;
          ignore (visit_int (30_000 + i) ~remaining:3)
        done)
  in
  Alcotest.(check int) "every probe of a recorded key hits" 5_000 !hits;
  Alcotest.(check int) "no growth while measured" cap (Spec.Cache.capacity c);
  Alcotest.(check (float 0.)) "minor words over 10k probes and inserts" 0. w;
  (* the interpreter's key path, over the states of a Figure 3 walk *)
  let inputs = inputs_for 3 in
  let has_input pid inst = Option.is_some (inputs ~pid ~instance:inst) in
  let config = Instances.oneshot (Params.make ~n:3 ~m:1 ~k:1) in
  let rng = Shm.Rng.create 3 in
  let rec walk config hash d acc =
    let acc = hash :: acc in
    let runnable = List.filter (fun pid -> Shm.Config.runnable config ~has_input pid) [ 0; 1; 2 ] in
    if d = 0 || runnable = [] then acc
    else
      let pid = List.nth runnable (Shm.Rng.int rng (List.length runnable)) in
      let config', ev =
        match Shm.Config.proc config pid with
        | Shm.Program.Await _ ->
          let inst = Shm.Config.instance config pid + 1 in
          Shm.Config.invoke config pid (Option.get (inputs ~pid ~instance:inst))
        | _ -> Shm.Config.step config pid
      in
      walk config' (Spec.Statehash.record hash ~before:config config' ev) (d - 1) acc
  in
  let hashes =
    Array.of_list
      (List.concat_map
         (fun _ -> walk config (Spec.Statehash.create config) 20 [])
         (List.init 100 Fun.id))
  in
  let c = Spec.Cache.create (4 * Array.length hashes) in
  let w =
    minor_words (fun () ->
        for i = 0 to Array.length hashes - 1 do
          Spec.Statehash.key_words hashes.(i) words;
          ignore (Spec.Cache.visit c words ~remaining:(i land 15) ~sleep:0)
        done)
  in
  Alcotest.(check (float 0.)) "interpreter key path: minor words" 0. w;
  (* the vm's key path, over slots of generated protocols *)
  let p = Fuzz.Gen.generate (Shm.Rng.create 4) in
  let e = Shm.Vm.env (Shm.Vm.compile p) ~inputs:Fuzz.Gen.inputs in
  let sw = Shm.Vm.state_words e and slots = 1_000 in
  let buf = Array.make (slots * sw) 0 in
  for s = 0 to slots - 1 do
    Shm.Vm.init e buf (s * sw);
    for _ = 1 to s mod 17 do
      let pid = Shm.Rng.int rng p.Shm.Vm.n in
      if Shm.Vm.runnable e buf (s * sw) pid then Shm.Vm.step e buf (s * sw) pid
    done
  done;
  let c = Spec.Cache.create (4 * slots) in
  let w =
    minor_words (fun () ->
        for s = 0 to slots - 1 do
          Shm.Vm.key_words e buf (s * sw) words;
          ignore (Spec.Cache.visit c words ~remaining:(s land 15) ~sleep:0)
        done)
  in
  Alcotest.(check (float 0.)) "vm key path: minor words" 0. w;
  let k = Shm.Vm.key e buf 0 in
  Shm.Vm.key_words e buf 0 words;
  Alcotest.(check (array int)) "vm key words are the key's fields"
    Shm.Vm.[| k.k_mem; k.k_locals; k.k_in; k.k_out |]
    words

(* ---- stress: replayable witness schedules ---- *)

(* A Broken verdict now carries the pid schedule; replaying it from a
   fresh configuration reproduces a safety violation, and it shrinks. *)
let stress_schedule_replays_and_shrinks () =
  let n = 5 and k = 2 and r = 2 in
  let p = Params.make ~n ~m:2 ~k in
  let build () = Instances.oneshot ~r p in
  let inputs = Shm.Exec.oneshot_inputs (Array.init n (fun pid -> vi pid)) in
  match Spec.Stress.run ~runs:100 ~k ~n ~build ~inputs () with
  | Spec.Stress.Survived _ -> Alcotest.fail "starved system survived stress"
  | Spec.Stress.Broken { schedule; _ } as verdict ->
    Alcotest.(check bool) "non-empty schedule" true (schedule <> []);
    let replay s = Spec.Counterex.replay ~inputs ~check:(check_safety ~k) (build ()) s in
    Alcotest.(check bool) "witness schedule replays to a violation" true
      (replay schedule <> None);
    let ce = Option.get (Spec.Stress.counterex_of verdict) in
    (match Spec.Shrink.minimize ~replay ce.Spec.Counterex.schedule with
    | None -> Alcotest.fail "shrinker lost the stress violation"
    | Some { ce = shrunk; _ } ->
      Alcotest.(check bool) "shrunk stress schedule is shorter" true
        (List.length shrunk.Spec.Counterex.schedule < List.length schedule);
      Alcotest.(check bool) "shrunk stress schedule still violates" true
        (replay shrunk.Spec.Counterex.schedule <> None);
      (* stress oracle has no completion, so 1-minimality is never vacuous *)
      let s = shrunk.Spec.Counterex.schedule in
      List.iteri
        (fun i _ ->
          let without = List.filteri (fun j _ -> j <> i) s in
          Alcotest.(check bool)
            (Fmt.str "stress 1-minimal: dropping step %d loses the violation" i)
            true
            (replay without = None))
        s)

let suite =
  [
    slow_test "dpor agrees with naive on seeded configs" dpor_agrees_with_naive;
    slow_test "dpor counterexample independently re-checks" dpor_counterexample_recheck;
    slow_test "state cache strictly reduces explored states" cache_reduces_states;
    slow_test "state hash: no collisions over an enumerated space" statehash_no_collisions;
    slow_test "state hash: collision audit vs full digest (n=3)" statehash_audit_n3;
    test "state hash merges commuted independent writes" statehash_merges_commuted_writes;
    slow_test "shrinker output violates and is 1-minimal" shrinker_one_minimal;
    test "generic ddmin finds the exact synthetic minimum" minimize_generic_synthetic;
    slow_test "generic shrinker agrees with the Counterex wrapper"
      minimize_generic_agrees_with_wrapper;
    slow_test "shrinker reaches the empty schedule when completion violates"
      shrinker_reaches_empty;
    slow_test "jobs=1 and jobs=4 agree on outcomes" jobs_agree;
    test "visit order pinned: node, leaf and cache counts" visit_order_pinned;
    test "Figures 4 and 5 state spaces pinned" rewritten_programs_pinned;
    test "completion steps stay within their allocation budget" completion_allocation_budget;
    test "a raising check stops every worker and propagates" raising_check_propagates;
    slow_test "backends and key modes agree on verdicts" backends_and_key_modes_agree;
    seeded_test "state cache matches the list-per-key policy" cache_model_test;
    test "state cache and key paths allocate nothing per visit" cache_allocation_free;
    slow_test "stress witness schedule replays and shrinks" stress_schedule_replays_and_shrinks;
  ]
