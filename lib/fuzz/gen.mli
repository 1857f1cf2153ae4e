(** Sized random-protocol generation: well-formed, loop-free and
    bounded-loop {!Shm.Program.t} terms as first-order data.

    A fuzz input is a {!program} — a step list every process runs
    plus a register budget — and a pid {!schedule}.  Both are plain
    data, so the corpus can mutate them ({!Corpus}), the shrinker can
    drop pieces of them ({!Driver}), and a textual rendering replays
    them exactly.  Programs are well-formed {e by construction}:

    - every register index is in [0, registers) and every scan range
      fits ([off + len <= registers]), so the lint's out-of-bounds rule
      can never fire on generated terms;
    - iteration is bounded ([Loop] carries a constant count, bodies are
      decide-free), so every process halts within {!flat_length} shared
      steps of solo execution;
    - a [Decide] compiles to [Yield] followed by [Stop] — output is the
      last visible action, so the write-after-decide lint cannot fire
      either — and {!generate} guarantees a trailing [Decide]. *)

(** Where a written or decided value comes from: a small constant, the
    invocation input, or the last value this process read (⊥ before the
    first read; scans observe their first component).

    The step language {e is} the static analyzer's IR
    ({!Analyze.Ir}), re-exported: every generated protocol is directly
    a dataflow/optimizer subject. *)
type src = Analyze.Ir.src = Const of int | Input | Last

type step = Analyze.Ir.step =
  | Read of int
  | Write of int * src
  | Scan of int * int  (** offset, length *)
  | Loop of int * step list
      (** bounded iteration: the body runs exactly [count] times *)
  | Decide of src  (** yield the value and halt *)

type program = Analyze.Ir.prog = {
  registers : int;
  n : int;  (** processes; all run [steps], with distinct inputs *)
  steps : step list;
}

type schedule = int list
(** pids in intended step order; unrunnable entries are skipped *)

(** Bumped when generation, mutation or the textual form changes
    shape; corpus files carry it and CI keys its corpus cache on it. *)
val version : string

(** {1 Generation} *)

type sizes = {
  max_registers : int;  (** register budget drawn from [1 .. max] *)
  max_procs : int;  (** processes drawn from [2 .. max] *)
  max_steps : int;  (** top-level steps drawn from [1 .. max] *)
  max_loop : int;  (** loop count drawn from [2 .. max] *)
  max_sched : int;  (** schedule length drawn from [n .. max] *)
}

val default_sizes : sizes

(** [generate ?sizes rng] draws a fresh well-formed program.  All
    randomness comes from [rng], so generation is replayable. *)
val generate : ?sizes:sizes -> Shm.Rng.t -> program

(** [gen_schedule ?sizes rng ~n] draws a pid schedule over [0 .. n-1]. *)
val gen_schedule : ?sizes:sizes -> Shm.Rng.t -> n:int -> schedule

(** {1 Structure} *)

(** Shared-memory ops of one solo execution (loop bodies multiplied by
    their counts) — the solo-termination fuel bound. *)
val flat_length : program -> int

(** Registers out of bounds or scan ranges overflowing: always [[]] for
    generated programs (the well-formedness invariant, tested). *)
val oob_steps : program -> step list

(** {1 Compilation and execution} *)

(** Compile to the free-monad form; process [pid]'s copy.  The program
    awaits one invocation, runs the steps, and halts. *)
val compile : program -> pid:int -> Shm.Program.t

(** Initial configuration: [registers] registers, [n] compiled
    processes.  [backend] defaults to [Journaled]. *)
val config : ?backend:Shm.Memory.backend -> program -> Shm.Config.t

(** The input of every fuzzed invocation:
    {!Agreement.Runner.default_input} for instance 1, none after — the
    same input space the analyzer assumes. *)
val inputs : pid:int -> instance:int -> Shm.Value.t option

(** [run ?backend program schedule] replays the schedule from the
    initial configuration with the shared stepping rule
    ({!Spec.Counterex.step_pid}), skipping unrunnable pids, and records
    the trace.  Deterministic. *)
val run :
  ?backend:Shm.Memory.backend ->
  program ->
  schedule ->
  Shm.Exec.result

(** {1 Rendering} *)

val pp_step : Format.formatter -> step -> unit
val pp : Format.formatter -> program -> unit

(** One-line compact form, e.g.
    ["r3 n2 : R0; W1<-in; L2[R1; W0<-last]; D last"] — the replay
    currency printed with witnesses. *)
val to_string : program -> string

(** Inverse of {!to_string} ({!Analyze.Ir.parse}): corpus seeds and
    command-line protocols round-trip. *)
val parse : string -> (program, string) result

val schedule_to_string : schedule -> string

(** Inverse of {!schedule_to_string} (space-separated pids). *)
val schedule_of_string : string -> (schedule, string) result
