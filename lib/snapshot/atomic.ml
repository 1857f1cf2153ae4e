(* Atomic snapshot: each component is one register, scans are one atomic
   simulator step.  This is the object the paper's algorithms are
   specified against; its register footprint is exactly the component
   count, which is what Figure 1's upper bounds report. *)

(* The object holds no local state, so every continuation receives the
   same API value, built once and tied to itself through a cell.  A
   [let rec] over the record of closures would compile to a dummy block
   patched afterwards, which made building a configuration about twice
   as slow. *)
let unset : Snap_api.t =
  { components = 0; update = (fun _ _ _ -> assert false); scan = (fun _ -> assert false) }

let make ~off ~len : Snap_api.t =
  let self = ref unset in
  let update i v k =
    if i < 0 || i >= len then invalid_arg "Atomic.update: component out of range";
    Shm.Program.write (off + i) v (fun () -> k !self)
  in
  let scan k = Shm.Program.scan ~off ~len (fun view -> k !self view) in
  self := { Snap_api.components = len; update; scan };
  !self

let footprint ~len =
  {
    Snap_api.registers = len;
    wait_free = true;
    description = "atomic snapshot (components = registers, scan atomic)";
  }
