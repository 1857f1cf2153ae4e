(** The DPOR core shared by every exploration engine: partial-order
    reduction, state caching and multi-domain exploration of the
    schedule tree, written once over a small {!INSTANCE} signature.

    - {b local-step priority}: a runnable process poised at a local
      (empty-footprint) step is a singleton ample set — the only branch
      explored at that node;
    - {b sleep sets} (int bitmasks, hence at most 62 processes): a
      branch that merely re-orders steps that commute with an earlier
      sibling's is pruned;
    - {b state caching}: a revisit is skipped when an earlier visit of
      the same key had at least the remaining depth budget and a sleep
      set no larger (the newest 8 entries per key); an instance hands
      over its key as four ints, and each worker keeps its entries in
      one flat int table ({!Cache}) that allocates nothing per visit;
    - {b parallel domains}: work-stealing deques, batched pops, and
      replay-based stealing — a thief rebuilds a stolen node by
      replaying its schedule from its own root.

    {!Dpor} instantiates the core with interpreter configurations,
    {!Vmexplore} with bytecode-vm arena slots.  Both front doors are in
    {!Modelcheck}. *)

type stats = {
  explored : int;  (** nodes visited (interior + frontier) *)
  leaves : int;  (** frontier configurations completed and checked *)
  max_depth : int;
  cache_hits : int;  (** nodes short-circuited by the state cache *)
  pruned : int;  (** branches pruned by sleep sets *)
  refined : int;
      (** sleep retentions owed to a conditional-independence
          refinement alone (the footprints collided) *)
  steals : int;  (** successful steals (work-migration events) *)
  batches : int;  (** frontier pops (≤ [batch] nodes each) *)
  domains : int;
}

type outcome =
  | Ok_bounded of stats
  | Counterexample of {
      schedule : int list;  (** pids, in step order, up to the frontier *)
      error : string;
      config : Shm.Config.t;  (** the completed configuration rejected *)
      stats : stats;
    }

val stats_of : outcome -> stats
val pp_outcome : Format.formatter -> outcome -> unit

(** Add the counters to a registry under [explore.*] names
    ([explore.nodes], [.leaves], [.cache_hits], [.sleep_pruned],
    [.refined], [.steals], [.batches]; gauge [explore.domains]). *)
val export_metrics : Obs.Metrics.t -> stats -> unit

(** The most processes the core explores (62 on 64-bit hosts): sleep
    sets are int bitmasks. *)
val max_n : int

(** Allocation-free phase timing for instances: [tock prof phase
    (tick prof)] attributes the elapsed time to [phase]; both are no-ops
    without a profile. *)
val tick : Obs.Prof.t option -> int

val tock : Obs.Prof.t option -> Obs.Prof.phase -> int -> unit

(** What an engine supplies.  A [ctx] belongs to one worker domain
    (its root copy, arena and scratch space); a [state] is only ever
    passed back to the context that built it. *)
module type INSTANCE = sig
  type ctx
  type state

  (** [replay ctx schedule] is the state reached from the root by
      stepping [schedule] (pids, in step order); [replay ctx []] is the
      root. *)
  val replay : ctx -> int list -> state

  (** Bitmask of the runnable pids. *)
  val runnable : ctx -> state -> int

  (** Is [pid]'s poised step local (commutes with every step)? *)
  val local : ctx -> state -> int -> bool

  (** [commute ctx st] is applied at most once per expanded node, before
      any child is stepped, then to pairs [q pid]: may [q] stay asleep
      after [pid] steps?  [`Refined] says yes on the strength of a
      conditional relation alone (counted in [stats.refined]). *)
  val commute : ctx -> state -> int -> int -> [ `Dep | `Indep | `Refined ]

  (** The child state after [pid] steps; the parent stays valid. *)
  val step : ctx -> state -> int -> state

  (** [key ctx st words] writes the four ints of [st]'s state-cache key
      into [words.(0..3)]; equal states must write equal words. *)
  val key : ctx -> state -> int array -> unit

  (** The core is done with this state. *)
  val release : ctx -> state -> unit

  (** Complete the frontier state deterministically and check it. *)
  val leaf : ctx -> state -> (unit, string) result

  (** Counter tracks sampled with the frontier when a trace is attached. *)
  val tracks : state -> (string * int) list

  (** Phase charged with computing runnable, ample and sleep sets
      ([None]: not timed). *)
  val branch_phase : Obs.Prof.phase option
end

module Make (I : INSTANCE) : sig
  (** [explore ~n ~depth … ()] explores the schedule tree of [n]
      processes up to [depth] steps and checks every frontier state.

      [reduce:false] turns the reduction off (every runnable pid is
      branched on, no cache): the literal enumeration.  [cache] enables
      the state cache; [jobs] worker domains pop [batch] nodes per lock
      acquisition.  With [replay] a stolen node is rebuilt on the
      thief's own root; without it, states are shared between domains.
      [make] builds one context per worker, sequentially on the calling
      domain, handing it the worker's profile when [prof] is given.  A
      violation is reported as its schedule replayed from [root ()]
      through the interpreter ({!Counterex.step_pid}) and completed
      ({!Counterex.complete}, [completion_steps]).  [metrics] receives
      {!export_metrics}; [series] strided samples; an attached
      {!Obs.Trace} collector gets the explore span, one worker span per
      domain, steal flows and replay spans.

      Raises [Invalid_argument] when [n > max_n] or [depth < 0]. *)
  val explore :
    n:int ->
    depth:int ->
    reduce:bool ->
    cache:bool ->
    jobs:int ->
    batch:int ->
    replay:bool ->
    make:(Obs.Prof.t option -> I.ctx) ->
    root:(unit -> Shm.Config.t) ->
    inputs:(pid:int -> instance:int -> Shm.Value.t option) ->
    completion_steps:int ->
    ?metrics:Obs.Metrics.t ->
    ?prof:Obs.Prof.t ->
    ?series:Obs.Prof.Series.t ->
    unit ->
    outcome
end
