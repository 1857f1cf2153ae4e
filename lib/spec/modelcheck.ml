(* Bounded model checking of the simulated system: one front door over
   two engines.

   Because configurations are pure values and processes are
   deterministic, the only nondeterminism is the schedule; exploring all
   schedules up to a depth bound therefore covers *every* reachable
   configuration prefix.  After the bound, each frontier configuration
   is driven to quiescence with a deterministic completion schedule,
   and the property is evaluated there — so the check covers "all
   executions that diverge in their first [depth] steps".

   Two engines implement that contract:

   - [Naive] (also available directly as [exhaustive]): literal
     enumeration of every schedule — n^depth nodes, the reference
     semantics, and the engine whose counterexamples are
     lexicographically first;
   - [Dpor]: partial-order reduction + state caching + optional
     parallel domains — orders of magnitude fewer nodes, same class
     coverage (see docs/EXPLORATION.md for the bounded-depth caveat).
     One core (Spec.Explore) runs it over two state instances: the
     interpreter (Spec.Dpor, [run]) and the bytecode vm
     (Spec.Vmexplore, [run_vm]).

   For small n the naive engine is a proof (up to the depth bound)
   rather than a sample, and it finds minimal counterexample schedules,
   reported as the list of pids stepped. *)

open Shm

(* [stats], [outcome], [pp_outcome] and [stats_of] are the DPOR core's;
   the interface re-exports exactly those. *)
include Explore

(* Extract the counterexample as the common currency of the stack, for
   shrinking and replay. *)
let counterex_of = function
  | Ok_bounded _ -> None
  | Counterexample { schedule; error; config; _ } ->
    Some { Counterex.schedule; error; config }

(* [exhaustive ~depth ~inputs ~check config] explores every schedule of
   length ≤ depth, completes each frontier, and applies [check].  Stops
   at the first violation. *)
let exhaustive ~depth ~inputs ?(completion_steps = 50_000) ~check config =
  let has_input pid inst = Option.is_some (inputs ~pid ~instance:inst) in
  let explored = ref 0 and leaves = ref 0 and deepest = ref 0 in
  let exception Found of int list * string * Config.t in
  let check_leaf schedule config =
    incr leaves;
    let final = Counterex.complete ~inputs ~max_steps:completion_steps config in
    match check final with
    | Ok () -> ()
    | Error e -> raise (Found (List.rev schedule, e, final))
  in
  let rec go config d schedule =
    incr explored;
    if d > !deepest then deepest := d;
    let n = Config.n config in
    let runnable =
      List.filter (fun pid -> Config.runnable config ~has_input pid) (List.init n Fun.id)
    in
    match runnable with
    | [] -> check_leaf schedule config
    | _ when d >= depth -> check_leaf schedule config
    | _ ->
      runnable
      |> List.iter (fun pid ->
             let config' =
               match Config.proc config pid with
               | Program.Await _ ->
                 let inst = Config.instance config pid + 1 in
                 fst (Config.invoke config pid (Option.get (inputs ~pid ~instance:inst)))
               | Program.Stop -> config
               | Program.Op _ | Program.Yield _ -> fst (Config.step config pid)
             in
             go config' (d + 1) (pid :: schedule))
  in
  let stats () =
    { explored = !explored; leaves = !leaves; max_depth = !deepest;
      cache_hits = 0; pruned = 0; refined = 0; steals = 0; batches = 0; domains = 1 }
  in
  try
    go config 0 [];
    Ok_bounded (stats ())
  with Found (schedule, error, config) ->
    Counterexample { schedule; error; config; stats = stats () }

(* ---- engine dispatch ---- *)

type engine = Naive | Dpor of { cache : bool; jobs : int }

let engine_name = function
  | Naive -> "naive"
  | Dpor { cache; jobs } ->
    Fmt.str "dpor%s%s"
      (if cache then "+cache" else "")
      (if jobs > 1 then Fmt.str " (%d domains)" jobs else "")

let run ~engine ~depth ?key ~inputs ?completion_steps ?static_indep ?metrics
    ?prof ?series ~check config =
  match engine with
  | Naive ->
    let out = exhaustive ~depth ~inputs ?completion_steps ~check config in
    Option.iter (fun m -> Explore.export_metrics m (stats_of out)) metrics;
    out
  | Dpor { cache; jobs } ->
    Dpor.explore ~depth ~cache ~jobs ?key ?completion_steps ?static_indep ?metrics
      ?prof ?series ~inputs ~check config

(* ---- the same front door over the bytecode engine ---- *)

(* [run_vm] is [run] for first-order protocols executed by [Shm.Vm]:
   [Naive] maps to the vm instance with the reduction off (literal
   schedule enumeration, the reference), [Dpor {cache; jobs}] to the
   reduced engine.  The check is applied to decoded i/o records
   (Properties.check_safety_io fits directly). *)
let run_vm ~engine ~depth ?batch ?rounds ?completion_steps ?metrics ?prof
    ?series ~inputs ~check p =
  let reduce, cache, jobs =
    match engine with
    | Naive -> (false, false, 1)
    | Dpor { cache; jobs } -> (true, cache, jobs)
  in
  Vmexplore.explore ~depth ~reduce ~cache ~jobs ?batch ?rounds ?completion_steps
    ?metrics ?prof ?series ~inputs ~check p
