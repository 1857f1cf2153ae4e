(** The state cache of the DPOR core ({!Explore}): one flat [int array]
    with open addressing and linear probing.

    A state key is four ints (the instance writes them into a scratch
    array: {!Statehash.key_words}, {!Shm.Vm.key_words}, or the packed
    MD5 of the audit path).  Each visit of a key records an entry
    [(remaining, sleep)]: the depth budget left at the visit and its
    sleep set.  An entry {e covers} a later visit of the same key when
    it had at least the visit's remaining budget and a sleep set no
    larger ([sleep ⊆] the visit's), and each key keeps its newest 8
    entries.

    A slot is six ints: [remaining + 1] (0 marks an empty slot), the
    sleep mask, then the four key words.  The capacity is a power of two
    and the load stays below 3/4; a key's entries sit on its probe run
    in insertion order, so the oldest is the first one the probe meets.
    A probe or an insert allocates nothing; only doubling the table
    does. *)

type t

(** [create slots] is an empty cache of at least [slots] slots (rounded
    up to a power of two, at least 4); it doubles as it fills. *)
val create : int -> t

(** [visit t key ~remaining ~sleep] is [true] when an entry of
    [key.(0..3)] covers the visit, leaving [t] unchanged; otherwise it
    records [(remaining, sleep)] as the key's newest entry, dropping
    its oldest when the key already had 8, and is [false].

    Raises [Invalid_argument] when [remaining < 0]. *)
val visit : t -> int array -> remaining:int -> sleep:int -> bool

(** Slots allocated (the table grows by doubling). *)
val capacity : t -> int

(** Entries dropped so far to keep a key at its newest 8. *)
val evictions : t -> int
