(** Fault-injection control runtime — the "user-provided library" of the
    paper's Figures 2 and 3 that the instrumented binary calls at run
    time.

    In [Profile] mode the library only counts dynamic targets and never
    triggers; in [Inject] mode it fires exactly once at the chosen dynamic
    instance.  The same binary serves both phases. *)

type mode =
  | Profile
  | Inject of { target : int; rng : Refine_support.Prng.t; model : Fault.model }
      (** [target] is the 1-based dynamic instance to fire at.  A native
          [int] so the per-call trigger test in the control library is a
          word compare — dynamic populations are bounded far below 2^62.
          [model] selects what state the fault strikes at that instance
          ({!Fault.model}); register models flip through the tool's own
          mechanism, Mem_cell/Instr_image mutate memory/code via
          {!Corrupt} with the hook as the trigger clock. *)

type ctrl = {
  mutable count : int;  (** dynamic instrumented-instruction counter *)
  mode : mode;
  mutable fired : bool;
  mutable record : Fault.record option;
}

val create : mode -> ctrl

val absorb : ctrl -> Refine_machine.Exec.t -> unit
(** Fold selector calls the decoded engine's fi-splice fast path retired
    without entering the library ([Exec.fi_sel_pending]) back into
    [ctrl.count].  Must run after the engine run completes and before
    [ctrl.count] is read (DESIGN.md §19); a no-op for engines that never
    took the fast path. *)

val refine_handlers : ctrl -> (string * int * (Refine_machine.Exec.t -> unit)) list
(** The REFINE control library: [fi_sel_instr] (the paper's selInstr) and
    [fi_setup_fi] (setupFI), as engine extern handlers with their modeled
    call cost. *)

val llfi_handlers : ctrl -> (string * int * (Refine_machine.Exec.t -> unit)) list
(** The LLFI-style injectFault callbacks: [llfi_inject_i64],
    [llfi_inject_f64] and [llfi_inject_i1] (comparison results flip within
    their 1-bit width, as LLVM i1 values do). *)
