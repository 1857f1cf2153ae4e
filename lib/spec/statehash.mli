(** Canonical hashing of configurations, for exploration-time state
    caching — maintained incrementally across steps.

    A process's local state is an OCaml closure, so it cannot be
    hashed structurally — but processes are deterministic, so the local
    state is a function of the initial program and the sequence of
    values the process has consumed.  A value of type {!t} threads one
    observation hash per process over exactly those observations and
    maintains the combined state {!key} (memory contents, observation
    hashes and instance counters, i/o record multisets) incrementally:
    O(1) per step, O(len) for scans — no full-configuration digest per
    explored node.

    The key never merges states that behave differently except by hash
    collision; it may fail to merge states that do behave the same (a
    missed cache hit, never a missed behaviour).  Bookkeeping (step
    counters, the written-register set) is excluded on purpose, and the
    i/o records are multiset-hashed, so schedules that differ only in
    the order of independent steps produce equal keys.  Collisions are
    audited against the original full MD5 digest, kept available behind
    [~audit:true] ({!repr}/{!full_key}).  Caveats are documented in
    [docs/EXPLORATION.md]. *)

type t

(** The flat incremental state key. *)
type key

val key_equal : key -> key -> bool
val key_hash : key -> int
val pp_key : Format.formatter -> key -> unit

(** Fresh hashes for a starting configuration (no observations yet;
    memory, instances, and i/o records are folded from the
    configuration itself).  With [~audit:true] the per-process MD5
    digests of the original implementation are maintained alongside,
    enabling {!repr} and {!full_key}. *)
val create : ?audit:bool -> Shm.Config.t -> t

(** [record t ~before after ev] folds the event into the stepping
    process's observation hash and updates the state key.  [before] and
    [after] are the configurations around the step ([before] supplies
    the overwritten register value, [after] the scan result vectors;
    scans do not change memory). *)
val record : t -> before:Shm.Config.t -> Shm.Config.t -> Shm.Event.t -> t

(** The incrementally maintained canonical key — O(1). *)
val key : t -> key

(** [key_words t words] writes the four ints of {!key} into
    [words.(0..3)] — the state-cache key ({!Cache}), allocation-free. *)
val key_words : t -> int array -> unit

(** The uncompressed canonical form behind {!full_key} — exposed so
    tests can certify the incremental keys partition an enumerated
    state space exactly as the full canonical forms do.  Requires
    [create ~audit:true]. *)
val repr : t -> Shm.Config.t -> string

(** MD5 of {!repr}: the original full-digest cache key (the perf
    benchmark's reference arm).  Requires [create ~audit:true]. *)
val full_key : t -> Shm.Config.t -> Digest.t
