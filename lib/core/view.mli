(** Predicates on scan views shared by the algorithms of Figures 3–5.
    A "view" is the vector returned by a snapshot scan; the paper's
    decision and adoption rules are counting arguments on such vectors. *)

(** |{s\[j\] : 0 ≤ j < r}| — the number of distinct entries. *)
val distinct_count : Shm.Value.t array -> int

val contains_bot : Shm.Value.t array -> bool

(** [duplicated_later s j1]: ∃ j2 > j1 such that s\[j1\] = s\[j2\]. *)
val duplicated_later : Shm.Value.t array -> int -> bool

(** min\{j1 : ∃ j2 > j1 such that s\[j1\] = s\[j2\]\} — the index
    Figure 3 (lines 10 and 12) and Figure 4 (line 18) use to pick a
    duplicated entry deterministically.  Figure 4's adoption (line 23)
    takes the minimum over t-tuples only, with {!duplicated_later}. *)
val min_duplicate_index : Shm.Value.t array -> int option

(** Number of entries satisfying the predicate. *)
val count : (Shm.Value.t -> bool) -> Shm.Value.t array -> int

(** Entries satisfying the predicate, with multiplicity, index order. *)
val filter : (Shm.Value.t -> bool) -> Shm.Value.t array -> Shm.Value.t list

(** Most frequent projection of the entries; ties broken by first
    occurrence (Figure 5 line 24).  [None] on the empty view. *)
val most_frequent :
  project:(Shm.Value.t -> Shm.Value.t) -> Shm.Value.t array -> Shm.Value.t option
