(** The interpreter instance of the DPOR core ({!Explore}): states are
    free-monad configurations with their incremental {!Statehash}.

    Explores the same bounded schedule space as
    {!Modelcheck.exhaustive} but prunes redundant interleavings:
    independence is footprint disjointness ({!Shm.Program.independent}
    over {!Shm.Config.footprint}), steps with an empty footprint are
    singleton persistent sets, sleep sets prune re-orderings, and the
    state cache deduplicates configurations reached by different
    schedules.  Caveats of bounded-depth reduction are documented in
    [docs/EXPLORATION.md]. *)

(** State-cache key flavour: the incremental {!Statehash.key} (the
    fast default), or the original full MD5 digest of the canonical
    form ([`Full] — the audited reference path, also the perf
    benchmark's old-cost arm).  Both induce the same partition of
    states up to hash collision; the equivalence is pinned by the
    collision audit in the test suite.  The {!Cache} takes either as
    four ints: the digest's 16 bytes as four 32-bit words, losslessly. *)
type key_mode = [ `Incremental | `Full ]

(** [explore ~depth ~inputs ~check config] explores one representative
    schedule per equivalence class, up to [depth] steps, completing
    each frontier configuration deterministically (budget
    [completion_steps], default 50k) before applying [check].

    [cache] (default [true]) enables state caching; [key] (default
    [`Incremental]) selects the cache-key flavour; [jobs] (default 1)
    is the number of domains, each popping one node at a time.  With
    the journaled memory backend and [jobs > 1], stolen nodes are
    rebuilt by schedule replay on a per-domain root copy —
    configurations never cross domains.

    [static_indep], when given, refines the sleep-set computation with
    a {e conditional} independence relation: [refine ~mem a b] must
    return [true] only when executing poised ops [a] and [b] (of two
    different processes) in either order from a state with memory
    [mem] yields the {e identical} configuration.  Dynamic footprints
    remain the baseline and the soundness reference — the refinement
    is consulted only for footprint-colliding pairs, and never widens
    ample sets (conditional independence is not persistent).
    [Analyze.Indep.refinement] derives a sound relation from the
    dataflow engine; the QCheck commutation property in
    [test/test_analyze.ml] pins the contract.

    [metrics], [prof] and [series] and an attached {!Obs.Trace}
    collector are fed as described in {!Explore.Make}; the profile
    attributes [interp], [hash] and [footprint] here, and the trace
    gets register-coverage counter tracks.

    Raises [Invalid_argument] for more than 62 processes. *)
val explore :
  depth:int ->
  ?cache:bool ->
  ?jobs:int ->
  ?key:key_mode ->
  ?completion_steps:int ->
  ?static_indep:(mem:Shm.Memory.t -> Shm.Program.op -> Shm.Program.op -> bool) ->
  ?metrics:Obs.Metrics.t ->
  ?prof:Obs.Prof.t ->
  ?series:Obs.Prof.Series.t ->
  inputs:(pid:int -> instance:int -> Shm.Value.t option) ->
  check:(Shm.Config.t -> (unit, string) result) ->
  Shm.Config.t ->
  Explore.outcome
