(* Figure 4: repeated m-obstruction-free k-set agreement, same snapshot
   object (r = n + 2m − k components) as the one-shot algorithm.

   Stored entries are tuples (pref, id, t, history) where t is the
   instance the writer is working on and history its sequence of outputs
   for instances 1..t−1.  Persistent locals i, t, history survive across
   Propose invocations ("the first location of a Propose is the last
   location of the previous Propose").

   Shortcuts relative to Figure 3:
   - line 15: a tuple with t' > t in the scan lets the process adopt
     that writer's history and output its t-th entry immediately;
   - line 17: deciding requires every entry to be a tuple of instance
     exactly t (lower-instance tuples are treated like ⊥ and block the
     decision; higher ones were caught by line 15);
   - line 22: adoption compares raw register contents against ⊥ and the
     process's own tuple, and requires two *identical t-tuples*. *)

open Shm

type tuple = { pref : Value.t; id : int; t : int; history : Value.t list }

let encode { pref; id; t; history } =
  Value.list [ pref; Value.int id; Value.int t; Value.list history ]

let is_int v = match Value.view v with Value.Int _ -> true | _ -> false
let is_list v = match Value.view v with Value.List _ -> true | _ -> false
let junk v = invalid_arg (Fmt.str "Repeated.decode: %a" Value.pp v)

let decode v =
  match Value.view v with
  | Value.List [ pref; id; t; history ] when is_int id && is_int t && is_list history ->
    Some
      {
        pref;
        id = Value.to_int id;
        t = Value.to_int t;
        history = Value.to_list history;
      }
  | Value.Bot -> None
  | _ -> junk v

(* ---- one scan, decoded once ----

   Lines 15, 17 and 22 all read the same scan, and each needs the
   instance of every entry; only the entries they select are decoded in
   full.  [inst.(j)] is meaningless where [view.(j)] is ⊥, so every use
   is guarded by [tuple_at]. *)

type decoded = { view : Value.t array; inst : int array }

let instance v =
  match Value.view v with
  | Value.List [ _; id; t; history ] when is_int id && is_int t && is_list history ->
    Value.to_int t
  | Value.Bot -> 0
  | _ -> junk v

let decode_view view = { view; inst = Array.map instance view }

let tuple_at d j = not (Value.is_bot d.view.(j))

let pref_at d j =
  match Value.view d.view.(j) with
  | Value.List (pref :: _) -> pref
  | _ -> invalid_arg "Repeated: preference of a non-tuple entry"

(* Line 15: an entry by a process already past instance t, with maximal
   t' for determinism (any such entry would do; t' > t guarantees its
   history has at least t outputs).  Ties go to the lowest index. *)
let higher ~t d =
  let best = ref (-1) in
  for j = 0 to Array.length d.inst - 1 do
    let tj = d.inst.(j) in
    if tuple_at d j && tj > t && (!best < 0 || tj > d.inst.(!best)) then best := j
  done;
  if !best < 0 then None else decode d.view.(!best)

(* Line 17: every entry is a tuple of instance exactly t (neither ⊥ nor
   a lower instance; higher instances are handled by line 15 first) and
   at most m distinct entries. *)
let decides ~m ~t d =
  let r = Array.length d.view in
  let rec all_current j = j >= r || (tuple_at d j && d.inst.(j) >= t && all_current (j + 1)) in
  if all_current 0 && View.distinct_count d.view <= m then
    let j = match View.min_duplicate_index d.view with Some j -> j | None -> 0 in
    Some (pref_at d j)
  else None

(* Line 22: no component other than i holds ⊥ or the process's own
   tuple [own] (the encoding of its (pref, id, t, history)), and two
   components hold identical t-tuples (j1 is the minimum duplicated
   index among t-tuples, line 23).  As in Figure 3 (see
   Oneshot.adopt_check, "pseudocode errata") an adoption whose value
   already equals pref falls through to the i increment, the reading
   that makes the Lemma 5 argument reused in Appendix A sound. *)
let adopts ~own ~pref ~i ~t d =
  let r = Array.length d.view in
  let rec clear j =
    j >= r
    || (j = i || not (Value.is_bot d.view.(j) || Value.equal d.view.(j) own))
       && clear (j + 1)
  in
  let rec first_dup j1 =
    if j1 >= r then None
    else if tuple_at d j1 && d.inst.(j1) = t && View.duplicated_later d.view j1 then
      let w = pref_at d j1 in
      if Value.equal w pref then None else Some w
    else first_dup (j1 + 1)
  in
  if clear 0 then first_dup 0 else None

(* The public predicates: one view, decoded for the one question. *)
let find_higher ~t view = higher ~t (decode_view view)
let decide_check ~m ~t view = decides ~m ~t (decode_view view)

let adopt_check ~own ~i ~t view =
  adopts ~own:(encode own) ~pref:own.pref ~i ~t (decode_view view)

let nth_output history t =
  match List.nth_opt history (t - 1) with
  | Some w -> w
  | None -> invalid_arg "Repeated: adopted history shorter than instance"

(* The process program.  Persistent locals (api, i, t, history) are
   threaded through the recursion; each [Await] is the next Propose.
   [own] is the stored tuple (pref, pid, t, history), encoded once per
   preference and instance: the i loop writes the same value. *)
let program ~m ~pid ~api =
  let r = api.Snapshot.Snap_api.components in
  let rec next_propose (api : Snapshot.Snap_api.t) i t history =
    Program.await @@ fun v ->
    let t = t + 1 in
    if List.length history >= t then
      Program.yield (nth_output history t) (next_propose api i t history)
    else loop api v (encode { pref = v; id = pid; t; history }) i t history
  and loop (api : Snapshot.Snap_api.t) pref own i t history =
    api.update i own @@ fun api ->
    api.scan @@ fun api view ->
    let d = decode_view view in
    match higher ~t d with
    | Some tu ->
      Program.yield (nth_output tu.history t) (next_propose api i t tu.history)
    | None -> (
      match decides ~m ~t d with
      | Some w -> Program.yield w (next_propose api i t (history @ [ w ]))
      | None -> (
        match adopts ~own ~pref ~i ~t d with
        | Some w -> loop api w (encode { pref = w; id = pid; t; history }) i t history
        | None -> loop api pref own ((i + 1) mod r) t history))
  in
  next_propose api 0 0 []
