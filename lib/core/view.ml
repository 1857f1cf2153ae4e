(* Predicates on scan views shared by the algorithms of Figures 3–5.

   A "view" is the vector returned by a snapshot scan.  The paper's
   decision and adoption rules are all phrased as counting arguments on
   such vectors; keeping them here, named after the pseudocode lines
   they implement, keeps the algorithm modules close to the paper. *)

open Shm

(* Number of distinct entries |{s[j] : 0 ≤ j < r}|: the entries with no
   equal entry before them.  Quadratic in r, but r is a handful of
   components; the loops allocate nothing (this runs on every scan). *)
let distinct_count view =
  let count = ref 0 in
  for j = 0 to Array.length view - 1 do
    let before = ref 0 in
    while !before < j && not (Value.equal view.(!before) view.(j)) do incr before done;
    if !before = j then incr count
  done;
  !count

let contains_bot view = Array.exists Value.is_bot view

(* ∃ j2 > j1 such that s[j1] = s[j2]. *)
let duplicated_later view j1 =
  let r = Array.length view and j2 = ref (j1 + 1) in
  while !j2 < r && not (Value.equal view.(j1) view.(!j2)) do incr j2 done;
  !j2 < r

(* min{j1 : ∃ j2 > j1 such that s[j1] = s[j2]} — the index the paper
   uses to pick a duplicated entry deterministically (Fig. 3 line 10,
   Fig. 4 line 18). *)
let min_duplicate_index view =
  let r = Array.length view in
  let rec outer j1 =
    if j1 >= r then None else if duplicated_later view j1 then Some j1 else outer (j1 + 1)
  in
  outer 0

(* Number of components whose entry satisfies [p]. *)
let count p view = Array.fold_left (fun acc v -> if p v then acc + 1 else acc) 0 view

(* Entries satisfying [p], with multiplicity, by index order. *)
let filter p view = List.filter p (Array.to_list view)

(* The most frequent entry among those satisfying [p]; ties broken by
   first occurrence (Fig. 5 line 24's "most common frequent value",
   applied to the projection chosen by the caller). *)
let most_frequent ~project view =
  let keys = Array.to_list (Array.map project view) in
  let rec tally acc = function
    | [] -> acc
    | key :: rest ->
      let acc =
        let rec bump = function
          | [] -> [ (key, 1) ]
          | (k0, c) :: tl when Value.equal k0 key -> (k0, c + 1) :: tl
          | kv :: tl -> kv :: bump tl
        in
        bump acc
      in
      tally acc rest
  in
  match tally [] keys with
  | [] -> None
  | (k0, c0) :: rest ->
    let best, _ =
      List.fold_left
        (fun (bk, bc) (k1, c1) -> if c1 > bc then (k1, c1) else (bk, bc))
        (k0, c0) rest
    in
    Some best
