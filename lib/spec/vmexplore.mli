(** The bytecode-vm instance of the DPOR core ({!Explore}): states are
    slots of a per-worker int arena holding {!Shm.Vm} machine states.

    A child is one [Array.blit] plus one in-place [Vm.step], and the
    cache key is read off the slot (maintained incrementally by the vm,
    hashing the machine state itself — see {!Shm.Vm.key_words}).  The core
    pops the frontier [batch] nodes at a time, so successor slots are
    bump-allocated consecutively.  With [jobs > 1] the worker domains
    steal from each other; a thief replays the stolen schedule into its
    own arena.

    With [reduce:false] the engine enumerates every schedule — the vm
    analogue of {!Modelcheck.exhaustive}, and the naive arm of the vm
    differential tests.  The vm executes compiled first-order protocols
    only; its semantic agreement with the free-monad interpreter is
    enforced by the fuzzer's [vm] oracle and the QCheck equivalence
    suite rather than assumed, and violations are replayed through the
    interpreter before being reported. *)

(** [explore ~depth ~inputs ~check p] compiles [p] and explores it up
    to [depth] steps, completing each frontier state deterministically
    (the [Counterex.complete] schedule, budget [completion_steps],
    default 50k) and applying [check] to the decoded i/o records
    ({!Properties.check_safety_io} fits directly).

    [reduce] (default [true]) enables the partial-order reduction;
    [cache] (default [true]) the state cache; [jobs] (default 1) is the
    number of domains; [batch] (default 8) the frontier batch size;
    [rounds] (default 1) bounds invocations per process.  [metrics],
    [prof] and [series] are fed as described in {!Explore.Make}; the
    profile attributes [vm.step] and [vm.batch] here.

    Raises [Invalid_argument] when [p] has more than 62 processes
    (sleep sets are int bitmasks) or fails to compile. *)
val explore :
  depth:int ->
  ?reduce:bool ->
  ?cache:bool ->
  ?jobs:int ->
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
  Explore.outcome
