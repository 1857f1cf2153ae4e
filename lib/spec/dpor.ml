(* The interpreter instance of the DPOR core (Spec.Explore): states are
   free-monad configurations (Config.t) carrying their incremental
   state hash (Spec.Statehash).

   Footprints come from Config.footprint and commute by
   Program.independent.  An optional conditional-independence
   refinement ([static_indep]) is consulted only when footprints
   collide: it keeps a process asleep when the two poised ops commute
   to the identical state in the *current* memory — sound here because
   sleep sets only need commutation at this node, unlike the persistent
   ample-set choice, which the refinement never widens.

   With the journaled memory backend (Shm.Memory.Journaled) a
   configuration's register array is shared by its whole version
   family, and reading it reroots mutable journal cells — so a config
   may only ever be touched by the domain that built it.  With several
   domains each worker context therefore holds its own unshared root
   copy (built before any domain runs) and the core replays stolen
   nodes on it.  Persistent configurations are shared freely. *)

open Shm

type key_mode = [ `Incremental | `Full ]

type ctx = {
  root : Config.t;
  audit : bool;  (* `Full keys: keep the MD5 audit digests *)
  inputs : pid:int -> instance:int -> Value.t option;
  completion_steps : int;
  check : Config.t -> (unit, string) result;
  static_indep : (mem:Memory.t -> Program.op -> Program.op -> bool) option;
  prof : Obs.Prof.t option;
}

module Instance = struct
  type nonrec ctx = ctx
  type state = { config : Config.t; hash : Statehash.t }

  let move c config pid =
    match Config.proc config pid with
    | Program.Await _ ->
      let inst = Config.instance config pid + 1 in
      Config.invoke config pid (Option.get (c.inputs ~pid ~instance:inst))
    | Program.Stop -> assert false (* not runnable *)
    | Program.Op _ | Program.Yield _ -> Config.step config pid

  (* untimed: the core charges replays to [Obs.Prof.Replay] *)
  let replay c sched =
    List.fold_left
      (fun { config; hash } pid ->
        let config', ev = move c config pid in
        { config = config'; hash = Statehash.record hash ~before:config config' ev })
      { config = c.root; hash = Statehash.create ~audit:c.audit c.root }
      sched

  let runnable c { config; _ } =
    let has_input pid inst = Option.is_some (c.inputs ~pid ~instance:inst) in
    let m = ref 0 in
    for pid = Config.n config - 1 downto 0 do
      m := (!m lsl 1) lor Bool.to_int (Config.runnable config ~has_input pid)
    done;
    !m

  let local _ { config; _ } pid = Program.footprint_is_local (Config.footprint config pid)

  let commute c { config; _ } =
    let fp = Array.init (Config.n config) (Config.footprint config) in
    fun q pid ->
      if Program.independent fp.(q) fp.(pid) then `Indep
      else
        match c.static_indep with
        | None -> `Dep
        | Some refine -> (
          let op p = Program.poised_op (Config.proc config p) in
          match (op q, op pid) with
          | Some oq, Some op when refine ~mem:(Config.mem config) oq op -> `Refined
          | _ -> `Dep)

  let step c { config; hash } pid =
    let t0 = Explore.tick c.prof in
    let config', ev = move c config pid in
    Explore.tock c.prof Obs.Prof.Interp t0;
    let t0 = Explore.tick c.prof in
    let hash = Statehash.record hash ~before:config config' ev in
    Explore.tock c.prof Obs.Prof.Hash t0;
    { config = config'; hash }

  (* the incremental key (the fast default), or the original full MD5
     digest (the audited reference path) as four 32-bit words *)
  let key c { config; hash } words =
    if c.audit then begin
      let d = Statehash.full_key hash config in
      for i = 0 to 3 do
        words.(i) <- Int32.to_int (String.get_int32_le d (4 * i)) land 0xFFFF_FFFF
      done
    end
    else Statehash.key_words hash words

  let release _ _ = ()

  let leaf c { config; _ } =
    c.check (Counterex.complete ~inputs:c.inputs ~max_steps:c.completion_steps config)

  let tracks { config; _ } =
    [
      (Obs.Coverage.track_covered, Obs.Coverage.num_covered config);
      (Obs.Coverage.track_written, Obs.Coverage.num_written config);
    ]

  let branch_phase = Some Obs.Prof.Footprint
end

module E = Explore.Make (Instance)

let explore ~depth ?(cache = true) ?(jobs = 1) ?(key = `Incremental)
    ?(completion_steps = 50_000) ?static_indep ?metrics ?prof ?series ~inputs
    ~check config =
  let replay = jobs > 1 && Memory.backend (Config.mem config) = Memory.Journaled in
  let make prof =
    let root = if replay then Config.unshare config else config in
    { root; audit = key = `Full; inputs; completion_steps; check; static_indep; prof }
  in
  E.explore ~n:(Config.n config) ~depth ~reduce:true ~cache ~jobs ~batch:1 ~replay ~make
    ~root:(fun () -> config)
    ~inputs ~completion_steps ?metrics ?prof ?series ()
