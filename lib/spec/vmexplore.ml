(* The bytecode-vm instance of the DPOR core (Spec.Explore): states are
   slots of a per-worker int arena holding [Shm.Vm] machine states.

   - a child is one [Array.blit] plus one in-place [Vm.step] — no
     closure dispatch, no persistent-structure rebuild, no per-node
     Value allocation;
   - the state key is read off the slot ([Vm.key_words]: the key is
     maintained incrementally inside [Vm.step], hashing the machine
     state itself), so cache lookups cost four loads and a probe of the
     flat table (Spec.Cache);
   - the core pops the frontier in batches of [batch] nodes, so the
     children of a batch are bump-allocated consecutively and the next
     pass walks contiguous memory ([Obs.Prof.Vm_batch] attributes the
     copying, [Obs.Prof.Vm_step] the stepping);
   - arenas never cross domains: with [jobs > 1] a thief replays a
     stolen schedule into its own arena and the victim frees the slot.

   With [reduce:false] the core enumerates every schedule — the vm's
   analogue of [Modelcheck.exhaustive] and the naive arm of the
   vm-vs-interp differentials.  Violations are replayed through the
   free-monad interpreter by the core, so every counterexample that
   leaves this module has been re-executed by the reference engine. *)

open Shm

(* Slots of [words] ints, bump-allocated with a free list.  Doubling
   keeps slot ids stable (ids index slots, not bytes). *)
type arena = {
  words : int;
  mutable buf : int array;
  mutable cap : int;  (* capacity, in slots *)
  mutable top : int;  (* bump pointer, in slots *)
  mutable free : int list;
}

type ctx = {
  e : Vm.env;
  a : arena;
  n : int;
  scratch : int array;  (* one completion slice, reused per leaf *)
  completion_steps : int;
  check :
    inputs:(int * int * Value.t) list ->
    outputs:(int * int * Value.t) list ->
    (unit, string) result;
  prof : Obs.Prof.t option;
}

let alloc a =
  match a.free with
  | s :: tl ->
    a.free <- tl;
    s
  | [] ->
    if a.top >= a.cap then begin
      let cap = 2 * max 1 a.cap in
      let buf = Array.make (cap * a.words) 0 in
      Array.blit a.buf 0 buf 0 (a.top * a.words);
      a.buf <- buf;
      a.cap <- cap
    end;
    a.top <- a.top + 1;
    a.top - 1

(* Footprint triples from [Vm.poised_footprint]: (reads_off, reads_len,
   write_reg), -1 for none.  Independent iff neither writes a register
   the other touches — [Shm.Program.independent] on int triples. *)
let touches (ro, rl, w) r = (r >= ro && r < ro + rl) || r = w

let indep a b =
  let _, _, aw = a and _, _, bw = b in
  (aw = -1 || not (touches b aw)) && (bw = -1 || not (touches a bw))

module Instance = struct
  type nonrec ctx = ctx
  type state = int

  let base c s = s * c.a.words

  let replay c sched =
    let s = alloc c.a in
    Vm.init c.e c.a.buf (base c s);
    List.iter (fun pid -> Vm.step c.e c.a.buf (base c s) pid) sched;
    s

  let runnable c s =
    let m = ref 0 in
    for pid = c.n - 1 downto 0 do
      m := (!m lsl 1) lor Bool.to_int (Vm.runnable c.e c.a.buf (base c s) pid)
    done;
    !m

  let local c s pid = Vm.poised_local c.e c.a.buf (base c s) pid

  let commute c s =
    let fps = Array.init c.n (Vm.poised_footprint c.e c.a.buf (base c s)) in
    fun q pid -> if indep fps.(q) fps.(pid) then `Indep else `Dep

  let step c s pid =
    let t0 = Explore.tick c.prof in
    let child = alloc c.a in
    (* [alloc] may have replaced [c.a.buf]; address it afresh *)
    Array.blit c.a.buf (base c s) c.a.buf (base c child) c.a.words;
    Explore.tock c.prof Obs.Prof.Vm_batch t0;
    let t0 = Explore.tick c.prof in
    Vm.step c.e c.a.buf (base c child) pid;
    Explore.tock c.prof Obs.Prof.Vm_step t0;
    child

  let key c s words = Vm.key_words c.e c.a.buf (base c s) words
  let release c s = c.a.free <- s :: c.a.free

  let leaf c s =
    (* with no completion budget the frontier state is final as-is:
       skip the copy and the schedule and snapshot the slot in place *)
    let st, b =
      if c.completion_steps = 0 then (c.a.buf, base c s)
      else begin
        Array.blit c.a.buf (base c s) c.scratch 0 c.a.words;
        ignore
          (Vm.drive c.e c.scratch 0 ~sched:(Schedule.completion c.n)
             ~max_steps:c.completion_steps);
        (c.scratch, 0)
      end
    in
    c.check ~inputs:(Vm.inputs c.e st b) ~outputs:(Vm.outputs c.e st b)

  let tracks _ = []
  let branch_phase = None
end

module E = Explore.Make (Instance)

let explore ~depth ?(reduce = true) ?(cache = true) ?(jobs = 1) ?(batch = 8)
    ?(rounds = 1) ?(completion_steps = 50_000) ?metrics ?prof ?series ~inputs
    ~check (p : Vm.proto) =
  let e = Vm.env ~rounds (Vm.compile p) ~inputs in
  let words = Vm.state_words e in
  let make prof =
    let buf = Array.make (max 1 (256 * words)) 0 in
    let a = { words; buf; cap = 256; top = 0; free = [] } in
    { e; a; n = p.Vm.n; scratch = Array.make words 0; completion_steps; check; prof }
  in
  E.explore ~n:p.Vm.n ~depth ~reduce ~cache ~jobs ~batch ~replay:(jobs > 1) ~make
    ~root:(fun () -> Vm.config p)
    ~inputs ~completion_steps ?metrics ?prof ?series ()
