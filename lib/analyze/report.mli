(** Static-vs-paper-vs-dynamic reporting: the rows behind
    [sa_run analyze] and [BENCH_analyze.json] (EXPERIMENTS.md, E15).

    One row per (algorithm, parameter triple): the allocated register
    count, the paper bound from {!Bounds.Formulas}, the static write
    footprint from {!Absint}, the dynamically written registers from an
    {!Obs.Stats}-observed concrete run, and the lint diagnostics.  The
    row is [ok] iff static ≤ bound, dynamic ⊆ static, and no lint
    error fired — three containments that must hold of every honest
    algorithm and that the seeded mutants ({!Mutants}) violate. *)

type row = {
  algo : string;
  params : Agreement.Params.t;
  registers : int;  (** allocated *)
  bound : int;  (** the paper's register bound *)
  bound_label : string;
  static_writes : int;  (** |static write footprint| *)
  static_reads : int;
  dynamic_writes : int;  (** |dynamically written registers| *)
  static_within_bound : bool;  (** static_writes ≤ bound *)
  dynamic_within_static : bool;  (** dynamic set ⊆ static set *)
  lint_errors : int;
  diags : Lint.diag list;
  converged : bool;
  widened : bool;
  passes : int;
  steps : int;
  ok : bool;
}

(** Analyze one registry entry at one parameter triple: abstract
    interpretation + lints + dynamic measurement.  [dynamic:false]
    skips the concrete run (dynamic fields 0/true). *)
val row_for :
  ?budgets:Absint.budgets -> ?dynamic:bool -> Registry.entry ->
  Agreement.Params.t -> row

(** Every applicable (entry, params) pair of {!Registry.grid}
    [~max_n] (default 6) × [algos] (default all). *)
val sweep :
  ?budgets:Absint.budgets ->
  ?dynamic:bool ->
  ?max_n:int ->
  ?algos:string list ->
  unit ->
  row list

val violations : row list -> row list

(** The [BENCH_analyze.json] rows, as [bench table analyze] and
    [sa_run analyze --json] write them: one [kind: "sweep"] object per
    row (diagnostics included as structured objects), then, with
    [~mutants:p], one [kind: "mutant"] object per {!Mutants.all} entry
    ([algo], [n], [m], [k], [rejected]) judged at [p]. *)
val json_rows : ?mutants:Agreement.Params.t -> row list -> Obs.Json.t list

val pp_header : Format.formatter -> unit -> unit
val pp_row : Format.formatter -> row -> unit
