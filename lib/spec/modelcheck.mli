(** Bounded model checking: one front door over two engines.

    Configurations are pure values and processes deterministic, so the
    only nondeterminism is the schedule; exploring all schedules up to
    a depth bound covers every reachable configuration prefix.  Each
    frontier configuration is driven to quiescence deterministically
    and the property evaluated there — a proof (up to the bound) rather
    than a sample, with minimal counterexample schedules.

    {!exhaustive} is the reference engine (literal enumeration);
    {!run} additionally dispatches to the DPOR core ({!Explore}:
    partial-order reduction + state caching + parallel domains) over
    interpreter configurations ({!Dpor}), and {!run_vm} over
    bytecode-vm states ({!Vmexplore}). *)

type stats = Explore.stats = {
  explored : int;    (** interior nodes visited *)
  leaves : int;      (** frontier configurations checked *)
  max_depth : int;
  cache_hits : int;  (** [Dpor] engine only; 0 for [Naive] *)
  pruned : int;      (** [Dpor] engine only; 0 for [Naive] *)
  refined : int;     (** interpreter [Dpor] with [?static_indep] only *)
  steals : int;      (** [Dpor] engine only; 0 for [Naive] *)
  batches : int;     (** frontier pops of the DPOR core; 0 for {!exhaustive} *)
  domains : int;
}

type outcome = Explore.outcome =
  | Ok_bounded of stats
  | Counterexample of {
      schedule : int list;  (** pids, in step order, up to the frontier *)
      error : string;
      config : Shm.Config.t;
      stats : stats;
    }

val pp_outcome : Format.formatter -> outcome -> unit

(** The counterexample (if any) as the stack's common currency, ready
    for {!Counterex.replay} and {!Shrink.minimize}. *)
val counterex_of : outcome -> Counterex.t option

(** [exhaustive ~depth ~inputs ~check config] explores every schedule
    of length ≤ depth, completes each frontier (budget
    [completion_steps], default 50k), and applies [check]; stops at the
    first violation. *)
val exhaustive :
  depth:int ->
  inputs:(pid:int -> instance:int -> Shm.Value.t option) ->
  ?completion_steps:int ->
  check:(Shm.Config.t -> (unit, string) result) ->
  Shm.Config.t ->
  outcome

(** {1 Engine dispatch} *)

type engine =
  | Naive  (** literal enumeration — the reference semantics *)
  | Dpor of { cache : bool; jobs : int }
      (** partial-order reduction, optional state caching, [jobs]
          domains (see {!Explore.Make}) *)

val engine_name : engine -> string

val stats_of : outcome -> stats

(** [run ~engine …] checks with the chosen engine; same contract and
    outcome type as {!exhaustive}.  When [metrics] is given, the final
    counters are exported into it under [explore.*] names (both
    engines, {!Explore.export_metrics}).  [key], [static_indep], [prof]
    and [series] thread through to {!Dpor.explore} and are ignored by
    [Naive], whose enumeration is the reference semantics: [key]
    selects the cache-key flavour (default [`Incremental]),
    [static_indep] the conditional-independence refinement.  The
    [Dpor] engine raises [Invalid_argument] for more than 62
    processes. *)
val run :
  engine:engine ->
  depth:int ->
  ?key:Dpor.key_mode ->
  inputs:(pid:int -> instance:int -> Shm.Value.t option) ->
  ?completion_steps:int ->
  ?static_indep:(mem:Shm.Memory.t -> Shm.Program.op -> Shm.Program.op -> bool) ->
  ?metrics:Obs.Metrics.t ->
  ?prof:Obs.Prof.t ->
  ?series:Obs.Prof.Series.t ->
  check:(Shm.Config.t -> (unit, string) result) ->
  Shm.Config.t ->
  outcome

(** [run_vm ~engine …] is {!run} over the bytecode engine
    ({!Shm.Vm} / {!Vmexplore}) for first-order protocols: [Naive]
    enumerates every schedule with the reduction off ([reduce:false],
    one domain), [Dpor] applies the reduction ([cache], [jobs] as for
    the interpreter engine; the worker domains steal from each other,
    so [stats.steals] counts migrations here too).  [key] and
    [static_indep] apply to the interpreter only.  [check] sees the
    decoded i/o records — {!Properties.check_safety_io} fits directly.
    [batch] is the frontier batch size (default 8), [rounds] the
    invocations per process (default 1).  Metric names match {!run}.
    Raises [Invalid_argument] for more than 62 processes. *)
val run_vm :
  engine:engine ->
  depth:int ->
  ?batch:int ->
  ?rounds:int ->
  ?completion_steps:int ->
  ?metrics:Obs.Metrics.t ->
  ?prof:Obs.Prof.t ->
  ?series:Obs.Prof.Series.t ->
  inputs:(pid:int -> instance:int -> Shm.Value.t option) ->
  check:
    (inputs:(int * int * Shm.Value.t) list ->
     outputs:(int * int * Shm.Value.t) list ->
     (unit, string) result) ->
  Shm.Vm.proto ->
  outcome
