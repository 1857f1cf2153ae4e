(* The DPOR core's state cache as one flat int table.

   Slot layout, [width] ints per slot:
     0  remaining + 1 (0 = empty)
     1  sleep mask
     2-5  the four key words

   Open addressing with linear probing from the key's home slot.  No
   slot is ever deleted, so a probe run ends at the first empty slot and
   holds every entry of the key; a later entry of a key is inserted at
   the end of its run, so the run lists the key's entries oldest first.
   Dropping the oldest of 8 shifts the key's entries one place back
   along the run instead of deleting, and doubling copies the old table
   in probe-run order, so both keep that order.

   Why flat ints: a probe or an insert allocates nothing, so nothing
   reaches the minor heap to be promoted; the four ints hash with one
   mix, not the polymorphic hash; and doubling is one linear copy of
   an int array, not a rehash of boxed buckets. *)

let width = 6

(* entries kept per key; the newest are kept *)
let max_entries = 8

type t = {
  mutable tbl : int array;
  mutable mask : int;  (* capacity - 1; the capacity is a power of two *)
  mutable count : int;  (* occupied slots *)
  mutable evicted : int;
}

let create slots =
  let cap = ref 4 in
  while !cap < slots do
    cap := 2 * !cap
  done;
  { tbl = Array.make (!cap * width) 0; mask = !cap - 1; count = 0; evicted = 0 }

let capacity t = t.mask + 1
let evictions t = t.evicted
let poly = 0x2545F4914F6CDD1D
let home k0 k1 k2 k3 = Shm.Value.mix ((k0 * poly) + k1) ((k2 * poly) + k3)

let same tbl b k0 k1 k2 k3 =
  tbl.(b + 2) = k0 && tbl.(b + 3) = k1 && tbl.(b + 4) = k2 && tbl.(b + 5) = k3

(* Double the table.  The copy starts just past an empty slot, so no
   probe run is split across the wrap-around and every key's entries
   are re-inserted oldest first. *)
let grow t =
  let old = t.tbl and omask = t.mask in
  let mask = (2 * (omask + 1)) - 1 in
  let tbl = Array.make ((mask + 1) * width) 0 in
  let start = ref 0 in
  while old.(!start * width) <> 0 do
    incr start
  done;
  for j = 1 to omask + 1 do
    let b = ((!start + j) land omask) * width in
    if old.(b) <> 0 then begin
      let i = ref (home old.(b + 2) old.(b + 3) old.(b + 4) old.(b + 5) land mask) in
      while tbl.(!i * width) <> 0 do
        i := (!i + 1) land mask
      done;
      Array.blit old b tbl (!i * width) width
    end
  done;
  t.tbl <- tbl;
  t.mask <- mask

(* The key already has [max_entries] entries, the first at slot
   [oldest]: move each later entry's fields one entry back along the
   run and write the new entry over the last. *)
let evict t oldest r sleep k0 k1 k2 k3 =
  let tbl = t.tbl and mask = t.mask in
  let prev = ref oldest and i = ref ((oldest + 1) land mask) in
  while tbl.(!i * width) <> 0 do
    let b = !i * width in
    if same tbl b k0 k1 k2 k3 then begin
      let p = !prev * width in
      tbl.(p) <- tbl.(b);
      tbl.(p + 1) <- tbl.(b + 1);
      prev := !i
    end;
    i := (!i + 1) land mask
  done;
  let p = !prev * width in
  tbl.(p) <- r;
  tbl.(p + 1) <- sleep;
  t.evicted <- t.evicted + 1

let visit t key ~remaining ~sleep =
  if remaining < 0 then invalid_arg "Cache.visit: negative remaining budget";
  let k0 = key.(0) and k1 = key.(1) and k2 = key.(2) and k3 = key.(3) in
  let r = remaining + 1 in
  let tbl = t.tbl and mask = t.mask in
  let i = ref (home k0 k1 k2 k3 land mask) in
  let entries = ref 0 and oldest = ref 0 and hit = ref false in
  while (not !hit) && tbl.(!i * width) <> 0 do
    let b = !i * width in
    if same tbl b k0 k1 k2 k3 then
      if tbl.(b) >= r && tbl.(b + 1) land lnot sleep = 0 then hit := true
      else begin
        if !entries = 0 then oldest := !i;
        incr entries
      end;
    if not !hit then i := (!i + 1) land mask
  done;
  if !hit then true
  else begin
    if !entries >= max_entries then evict t !oldest r sleep k0 k1 k2 k3
    else begin
      let b = !i * width in
      tbl.(b) <- r;
      tbl.(b + 1) <- sleep;
      tbl.(b + 2) <- k0;
      tbl.(b + 3) <- k1;
      tbl.(b + 4) <- k2;
      tbl.(b + 5) <- k3;
      t.count <- t.count + 1;
      if 4 * t.count >= 3 * (mask + 1) then grow t
    end;
    false
  end
