(* The DPOR core: partial-order reduction, state caching and
   multi-domain exploration of the schedule tree, written once over a
   small [INSTANCE] signature.  [Spec.Dpor] instantiates it with
   interpreter configurations, [Spec.Vmexplore] with bytecode-vm arena
   slots; the naive enumeration of the vm is the same core with
   [reduce:false].

   The naive checker (Spec.Modelcheck.exhaustive) enumerates every
   schedule of length ≤ depth — n^depth nodes.  This core exploits the
   structure of the shared-memory model to explore one representative
   per equivalence class of schedules instead, without weakening the
   verdict for the bundled (record-order-insensitive) properties:

   - Independence / local-step priority.  Two steps of different
     processes commute when neither writes a register the other
     touches (Program.independent on footprints).  A step with an
     *empty* footprint (an invocation, an output) commutes with
     everything forever, so when some process is poised at one, it is
     a singleton persistent ("ample") set: exploring only that branch
     loses no behaviour — every execution is trace-equivalent to one
     that takes the local step first, and frontier completion performs
     any postponed local steps deterministically.

   - Sleep sets.  When several memory-touching steps are enabled, all
     are branched on, but a branch that merely re-orders independent
     steps already covered by an earlier sibling is pruned: after
     exploring pid p, p joins the "sleep set" of the later siblings'
     subtrees and stays there while the steps taken commute with p's.
     Sleep sets are int bitmasks, hence the n ≤ 62 limit.

   - State caching.  A canonical key of the reached state memoizes
     explored states, so different interleavings of independent steps
     that converge to the same state are explored once.  An entry may
     only short-circuit a new visit if it had at least as much
     remaining depth budget and was explored with a sleep set no
     larger than the current one — both guards are required for
     soundness (docs/EXPLORATION.md).  An instance writes its key as
     four ints, and the entries live in one flat int table per worker
     (Spec.Cache), not in boxed lists.

   - Parallel domains.  The schedule tree is sharded across OCaml 5
     domains with work-stealing deques: each domain pops batches of
     its freshest nodes and steals the oldest (largest-subtree) half
     of a victim's deque when empty.  Caches and counters are
     domain-local (no contention); counters merge at the end, and the
     first violation found wins via a compare-and-set flag.

     An instance state may be tied to the domain that built it (a
     journaled configuration reroots mutable journal cells on read; a
     vm state is a slot of a per-domain arena).  Stealing therefore
     replays instead of sharing when [replay] is set: each domain has
     its own instance context with its own root, every node records its
     owning domain and its schedule, and a domain that picks up a
     foreign node rebuilds the state by replaying the schedule from
     its own root — O(depth) once per stolen node, never touching the
     foreign state.  The victim gets the stolen states back as
     "orphans" and releases them itself at its next pop.

   Caveat, stated once and repeated in the docs: under a *finite*
   depth bound, reduction changes which length-≤-depth prefixes exist,
   so naive and reduced engines complete slightly different frontier
   sets.  Every class explored is genuine (violations are real and
   re-checkable); a violation reachable only at the very edge of the
   bound can require a slightly larger depth under reduction. *)

open Shm

type stats = {
  explored : int;
  leaves : int;
  max_depth : int;
  cache_hits : int;
  pruned : int;
  refined : int;
  steals : int;
  batches : int;
  domains : int;
}

type outcome =
  | Ok_bounded of stats
  | Counterexample of {
      schedule : int list;
      error : string;
      config : Config.t;
      stats : stats;
    }

let stats_of = function Ok_bounded s | Counterexample { stats = s; _ } -> s

let pp_outcome ppf = function
  | Ok_bounded { explored; leaves; _ } ->
    Fmt.pf ppf "no violation (%d nodes, %d completions checked)" explored leaves
  | Counterexample { schedule; error; _ } ->
    Fmt.pf ppf "counterexample schedule [%a]: %s"
      Fmt.(list ~sep:comma int)
      schedule error

let export_metrics m s =
  let bump name v = Obs.Metrics.Counter.incr ~by:v (Obs.Metrics.counter m name) in
  bump "explore.nodes" s.explored;
  bump "explore.leaves" s.leaves;
  bump "explore.cache_hits" s.cache_hits;
  bump "explore.sleep_pruned" s.pruned;
  bump "explore.refined" s.refined;
  bump "explore.steals" s.steals;
  bump "explore.batches" s.batches;
  Obs.Metrics.Gauge.set (Obs.Metrics.gauge m "explore.domains") (float_of_int s.domains)

(* closing arguments of the worker and explore spans *)
let summary explored leaves steals =
  Obs.Json.[ ("explored", Int explored); ("leaves", Int leaves); ("steals", Int steals) ]

let tick = function Some _ -> Obs.Prof.now_ns () | None -> 0

let tock prof phase t0 =
  match prof with Some p -> Obs.Prof.add p phase (Obs.Prof.now_ns () - t0) | None -> ()

module type INSTANCE = sig
  type ctx
  type state

  val replay : ctx -> int list -> state
  val runnable : ctx -> state -> int
  val local : ctx -> state -> int -> bool
  val commute : ctx -> state -> int -> int -> [ `Dep | `Indep | `Refined ]
  val step : ctx -> state -> int -> state
  val key : ctx -> state -> int array -> unit
  val release : ctx -> state -> unit
  val leaf : ctx -> state -> (unit, string) result
  val tracks : state -> (string * int) list
  val branch_phase : Obs.Prof.phase option
end

(* Sampling stride for the time series and counter tracks: cheap
   enough to leave on whenever a trace/series is requested, fine
   enough to resolve exploration shape. *)
let sample_stride = 64

(* sleep sets and runnable sets are int bitmasks *)
let max_n = Sys.int_size - 1

let rec popcount m = if m = 0 then 0 else (m land 1) + popcount (m lsr 1)

module Make (I : INSTANCE) = struct
  type node = {
    state : I.state;
    depth : int;
    sched : int list;  (* pids stepped so far, reversed; tails shared *)
    sleep : int;       (* pids whose branches are covered elsewhere *)
    owner : int;       (* worker whose context built [state] *)
  }

  type deque = {
    lock : Mutex.t;
    mutable items : node list;  (* head = freshest *)
    mutable orphans : I.state list;  (* owned states stolen by others *)
  }

  type shared = {
    n : int;
    bound : int;
    reduce : bool;
    batch : int;
    replay : bool;
    deques : deque array;
    pending : int Atomic.t;  (* nodes queued or in flight *)
    found : (int list * string) option Atomic.t;
    crashed : bool Atomic.t;  (* a worker raised: the others stop too *)
    trace : Obs.Trace.t option;  (* ambient collector, captured once *)
    troot : Obs.Trace.ctx option;  (* the run's root span *)
    (* worker id -> domain id, written once by each worker at startup;
       a thief reads its victim's slot to attribute the out-side of a
       steal flow (a stale read only misplaces one arrow) *)
    doms : int array;
    series : Obs.Prof.Series.t option;
  }

  type worker = {
    id : int;
    c : I.ctx;
    prof : Obs.Prof.t option;
    cache : Cache.t option;
    words : int array;  (* the key of the node being probed *)
    mutable until_sample : int;
    mutable explored : int;
    mutable leaves : int;
    mutable max_depth : int;
    mutable cache_hits : int;
    mutable pruned : int;
    mutable refined : int;
    mutable steals : int;
    mutable batches : int;
  }

  let branch_tick w = if I.branch_phase = None then 0 else tick w.prof

  let branch_tock w t0 =
    match I.branch_phase with Some ph -> tock w.prof ph t0 | None -> ()

  (* Pop up to [batch] of the freshest nodes under one lock acquisition
     (freshest first, preserving DFS order), releasing any orphans. *)
  let pop sh w =
    let dq = sh.deques.(w.id) in
    Mutex.lock dq.lock;
    let rec take k acc = function
      | n :: rest when k > 0 -> take (k - 1) (n :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let taken, rest = take sh.batch [] dq.items in
    dq.items <- rest;
    if dq.orphans <> [] then begin
      List.iter (I.release w.c) dq.orphans;
      dq.orphans <- []
    end;
    Mutex.unlock dq.lock;
    taken

  (* [nodes] is pushed head first: the last element ends on top. *)
  let push sh w nodes =
    let dq = sh.deques.(w.id) in
    Mutex.lock dq.lock;
    dq.items <- List.rev_append nodes dq.items;
    Mutex.unlock dq.lock

  (* A thief takes the *oldest* half — shallow nodes with the largest
     subtrees — leaving the owner its freshest (cache-warm) half. *)
  let steal sh victim =
    let dq = sh.deques.(victim) in
    Mutex.lock dq.lock;
    let keep = List.length dq.items / 2 in
    let rec split i = function
      | x :: rest when i > 0 ->
        let kept, taken = split (i - 1) rest in
        (x :: kept, taken)
      | rest -> ([], rest)
    in
    let kept, taken = split keep dq.items in
    dq.items <- kept;
    (* in replay mode a stolen node belongs to nobody: whoever processes
       it rebuilds it, even the victim if it steals the node back *)
    let taken =
      if not sh.replay then taken
      else
        List.map
          (fun n ->
            if n.owner = victim then dq.orphans <- n.state :: dq.orphans;
            { n with owner = -1 })
          taken
    in
    Mutex.unlock dq.lock;
    taken

  let sample sh w node =
    let frontier () =
      (* unlocked reads: [items] is a mutable field holding an immutable
         list, so a racy read sees some recent snapshot — fine at stride *)
      Array.fold_left (fun t dq -> t + List.length dq.items) 0 sh.deques
    in
    Option.iter
      (fun s ->
        Obs.Prof.Series.add s ~ts_ns:(Obs.Prof.now_ns ()) ~nodes:w.explored
          ~frontier:(frontier ()) ~cache_hits:w.cache_hits ~sleep_hits:w.pruned)
      sh.series;
    Option.iter
      (fun tr ->
        List.iter
          (fun (track, v) -> Obs.Trace.counter tr ~track (float_of_int v))
          (I.tracks node.state @ [ ("frontier", frontier ()) ]))
      sh.trace

  (* Skipping a revisit is sound only against an entry that (a) had at
     least as much remaining budget and (b) was explored with a sleep
     set no larger than ours — a smaller sleep set means *more*
     branches were explored there, covering ours (Spec.Cache). *)
  let covered sh w node =
    match w.cache with
    | None -> false
    | Some c ->
      I.key w.c node.state w.words;
      Cache.visit c w.words ~remaining:(sh.bound - node.depth) ~sleep:node.sleep

  let leaf sh w node =
    w.leaves <- w.leaves + 1;
    let t0 = tick w.prof in
    let verdict = I.leaf w.c node.state in
    tock w.prof Obs.Prof.Check t0;
    match verdict with
    | Ok () -> ()
    | Error error ->
      Option.iter
        (fun tr ->
          Obs.Trace.instant tr ~cat:"dpor"
            ~args:[ ("error", Obs.Json.String error) ]
            "violation")
        sh.trace;
      (* first violation wins; with several domains which one is first
         may vary between runs, whether one exists does not *)
      ignore (Atomic.compare_and_set sh.found None (Some (List.rev node.sched, error)))

  (* Rebuild a foreign node on this worker's own root. *)
  let rebuild sh w node =
    let t0 = tick w.prof in
    let span =
      Option.map
        (fun tr -> (tr, Obs.Trace.begin_span tr ?parent:sh.troot ~cat:"dpor" "replay"))
        sh.trace
    in
    let state = I.replay w.c (List.rev node.sched) in
    Option.iter
      (fun (tr, s) -> Obs.Trace.end_span tr ~args:[ ("depth", Obs.Json.Int node.depth) ] s)
      span;
    tock w.prof Obs.Prof.Replay t0;
    { node with state; owner = w.id }

  (* a local (empty-footprint) step is a singleton persistent set;
     otherwise every runnable pid is branched on *)
  let rec ample_set sh w st runnable pid =
    if pid >= sh.n then runnable
    else if runnable land (1 lsl pid) <> 0 && I.local w.c st pid then 1 lsl pid
    else ample_set sh w st runnable (pid + 1)

  (* the candidates in [cand] whose poised steps commute with [pid]'s *)
  let sleep_set sh w indep cand pid =
    let kept = ref 0 in
    for q = 0 to sh.n - 1 do
      if cand land (1 lsl q) <> 0 then
        match indep q pid with
        | `Dep -> ()
        | `Indep -> kept := !kept lor (1 lsl q)
        | `Refined ->
          kept := !kept lor (1 lsl q);
          w.refined <- w.refined + 1
    done;
    !kept

  (* Branch on [node]: ample set, sleep filter, one child per branch. *)
  let expand sh w node runnable =
    let st = node.state in
    let t0 = branch_tick w in
    let ample = if sh.reduce then ample_set sh w st runnable 0 else runnable in
    let branches = if sh.reduce then ample land lnot node.sleep else ample in
    w.pruned <- w.pruned + popcount (ample lxor branches);
    branch_tock w t0;
    (* the commutation test is prepared once, when some sibling or
       inherited sleeper can stay asleep at all *)
    let indep =
      if sh.reduce && (node.sleep <> 0 || branches land (branches - 1) <> 0) then
        I.commute w.c st
      else fun _ _ -> `Dep
    in
    let siblings = ref 0 and children = ref [] in
    for pid = 0 to sh.n - 1 do
      if branches land (1 lsl pid) <> 0 then begin
        (* siblings explored before [pid] go to sleep in its subtree, as
           long as their poised steps commute with [pid]'s *)
        let t0 = branch_tick w in
        let cand = if sh.reduce then node.sleep lor !siblings else 0 in
        let sleep = if cand = 0 then 0 else sleep_set sh w indep cand pid in
        branch_tock w t0;
        let state = I.step w.c st pid in
        children :=
          { state; depth = node.depth + 1; sched = pid :: node.sched; sleep; owner = w.id }
          :: !children;
        siblings := !siblings lor (1 lsl pid)
      end
    done;
    I.release w.c st;
    (* children is highest-pid-first; pushing it head first leaves the
       lowest pid on top of the deque, so DFS visits pids ascending *)
    if !children <> [] then begin
      ignore (Atomic.fetch_and_add sh.pending (List.length !children));
      push sh w !children
    end

  let process sh w node =
    w.explored <- w.explored + 1;
    if node.depth > w.max_depth then w.max_depth <- node.depth;
    let node = if sh.replay && node.owner <> w.id then rebuild sh w node else node in
    if sh.series <> None || sh.trace <> None then begin
      w.until_sample <- w.until_sample - 1;
      if w.until_sample <= 0 then begin
        w.until_sample <- sample_stride;
        sample sh w node
      end
    end;
    let t0 = tick w.prof in
    let hit = covered sh w node in
    tock w.prof Obs.Prof.Cache t0;
    if hit then begin
      w.cache_hits <- w.cache_hits + 1;
      I.release w.c node.state
    end
    else begin
      let t0 = branch_tick w in
      let runnable = I.runnable w.c node.state in
      branch_tock w t0;
      if runnable = 0 || node.depth >= sh.bound then begin
        leaf sh w node;
        I.release w.c node.state
      end
      else expand sh w node runnable
    end

  let try_steal sh w =
    let t0 = tick w.prof in
    let jobs = Array.length sh.deques in
    let rec go i =
      if i >= jobs then None
      else
        let victim = (w.id + i) mod jobs in
        match steal sh victim with
        | [] -> go (i + 1)
        | n :: rest ->
          (* stolen nodes are already counted in [pending] *)
          push sh w rest;
          w.steals <- w.steals + 1;
          Option.iter
            (fun tr ->
              (* the handoff arrow: out on the victim's row, in on ours *)
              let flow = Obs.Trace.fresh_flow tr in
              Obs.Trace.instant tr ~cat:"dpor" ~dom:sh.doms.(victim) ~flow:(flow, `Out)
                ~args:[ ("thief", Obs.Json.Int w.id) ]
                "steal.out";
              Obs.Trace.instant tr ~cat:"dpor" ~flow:(flow, `In)
                ~args:
                  [
                    ("victim", Obs.Json.Int victim);
                    ("nodes", Obs.Json.Int (1 + List.length rest));
                    ("depth", Obs.Json.Int n.depth);
                  ]
                "steal.in")
            sh.trace;
          Some n
    in
    let r = go 1 in
    tock w.prof Obs.Prof.Steal t0;
    r

  (* One worker's lifetime: batched pops from its own deque, steals
     when it runs dry, until the tree is done, a violation lands or a
     worker raises. *)
  let work sh w =
    sh.doms.(w.id) <- (Domain.self () :> int);
    let span =
      Option.map
        (fun tr ->
          ( tr,
            Obs.Trace.begin_span tr ?parent:sh.troot ~cat:"dpor"
              ~args:[ ("worker", Obs.Json.Int w.id) ]
              (Fmt.str "worker %d" w.id) ))
        sh.trace
    in
    let rec loop () =
      if Atomic.get sh.found = None && not (Atomic.get sh.crashed) then
        match pop sh w with
        | _ :: _ as nodes ->
          w.batches <- w.batches + 1;
          List.iter (process sh w) nodes;
          ignore (Atomic.fetch_and_add sh.pending (-List.length nodes));
          loop ()
        | [] ->
          if Atomic.get sh.pending > 0 then begin
            (match try_steal sh w with
            | Some node ->
              process sh w node;
              Atomic.decr sh.pending
            | None -> Domain.cpu_relax ());
            loop ()
          end
    in
    (try loop ()
     with e ->
       Atomic.set sh.crashed true;
       raise e);
    Option.iter
      (fun (tr, s) ->
        Obs.Trace.end_span tr ~args:(summary w.explored w.leaves w.steals) s)
      span

  let explore ~n ~depth ~reduce ~cache ~jobs ~batch ~replay ~make ~root ~inputs
      ~completion_steps ?metrics ?prof ?series () =
    if n > max_n then
      invalid_arg
        (Fmt.str "explore: %d processes, at most %d (sleep sets are int bitmasks)" n max_n);
    if depth < 0 then invalid_arg "explore: negative depth";
    let jobs = max 1 jobs in
    (* contexts are built here, sequentially, before any domain runs *)
    let workers =
      Array.init jobs (fun id ->
          let prof = Option.map (fun _ -> Obs.Prof.create ()) prof in
          {
            id;
            c = make prof;
            prof;
            cache = (if cache && reduce then Some (Cache.create 1024) else None);
            words = Array.make 4 0;
            until_sample = sample_stride;
            explored = 0;
            leaves = 0;
            max_depth = 0;
            cache_hits = 0;
            pruned = 0;
            refined = 0;
            steals = 0;
            batches = 0;
          })
    in
    let trace = Obs.Trace.attached () in
    let troot =
      Option.map
        (fun tr ->
          Obs.Trace.begin_span tr ~cat:"dpor"
            ~args:
              [
                ("depth", Obs.Json.Int depth);
                ("jobs", Obs.Json.Int jobs);
                ("cache", Obs.Json.Bool cache);
                ("replay", Obs.Json.Bool replay);
              ]
            "explore")
        trace
    in
    let sh =
      {
        n;
        bound = depth;
        reduce;
        batch = max 1 batch;
        replay;
        deques =
          Array.init jobs (fun _ -> { lock = Mutex.create (); items = []; orphans = [] });
        pending = Atomic.make 1;
        found = Atomic.make None;
        crashed = Atomic.make false;
        trace;
        troot;
        doms = Array.make jobs 0;
        series;
      }
    in
    sh.deques.(0).items <-
      [ { state = I.replay workers.(0).c []; depth = 0; sched = []; sleep = 0; owner = 0 } ];
    let others =
      Array.init (jobs - 1) (fun i -> Domain.spawn (fun () -> work sh workers.(i + 1)))
    in
    let mine = try Ok (work sh workers.(0)) with e -> Error e in
    let theirs = Array.map (fun d -> try Ok (Domain.join d) with e -> Error e) others in
    (* a worker's exception re-raises here, once every domain is done *)
    Array.iter (Result.iter_error raise) (Array.append [| mine |] theirs);
    let sum f = Array.fold_left (fun t w -> t + f w) 0 workers in
    let stats =
      {
        explored = sum (fun w -> w.explored);
        leaves = sum (fun w -> w.leaves);
        max_depth = Array.fold_left (fun t w -> max t w.max_depth) 0 workers;
        cache_hits = sum (fun w -> w.cache_hits);
        pruned = sum (fun w -> w.pruned);
        refined = sum (fun w -> w.refined);
        steals = sum (fun w -> w.steals);
        batches = sum (fun w -> w.batches);
        domains = jobs;
      }
    in
    Option.iter
      (fun into ->
        Array.iter (fun w -> Option.iter (Obs.Prof.merge_into ~into) w.prof) workers)
      prof;
    (match (trace, troot) with
    | Some tr, Some c ->
      Obs.Trace.end_span tr ~args:(summary stats.explored stats.leaves stats.steals) c
    | _ -> ());
    Option.iter (fun m -> export_metrics m stats) metrics;
    match Atomic.get sh.found with
    | None -> Ok_bounded stats
    | Some (schedule, error) ->
      (* replay through the interpreter: the reported artifact is
         engine-neutral and independently re-executes the claim *)
      let stepped = List.fold_left (Counterex.step_pid ~inputs) (root ()) schedule in
      let config = Counterex.complete ~inputs ~max_steps:completion_steps stepped in
      Counterexample { schedule; error; config; stats }
end
