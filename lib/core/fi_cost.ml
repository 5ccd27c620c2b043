(* Calibration constants of the speed model (DESIGN.md §6).

   The paper's Figure 5 compares *campaign times*, which are dominated by
   the structure of each tool's overhead:

   - LLFI pays a generic C++ instrumentation callback on every instrumented
     IR instruction for the whole run, plus the de-optimized code the
     injected calls force out of the backend;
   - REFINE pays a handful of inline instructions plus a call into a tiny,
     purpose-built leaf routine ([selInstr]) per instrumented machine
     instruction, also for the whole run;
   - PINFI pays a dynamic-binary-translation tax on every instruction only
     while attached, and detaches as soon as the single fault is injected
     (the optimization described in §5.2 of the paper).

   The unit is "one simulated machine instruction".  The constants below
   are calibration — the reproduced claim is the overhead *structure*, and
   the resulting ratios land in the paper's reported range (REFINE ~1.2x
   PINFI, LLFI ~3-9x). *)

(* tiny leaf call of the REFINE control library (selInstr / setupFI) *)
let refine_lib_call = 6

(* generic instrumentation callback of LLFI's injectFault *)
let llfi_lib_call = 40

(* extra cost per instruction while a Pin-style DBI tool is attached *)
let pin_attach_per_instr = 12

(* timeout factor for outcome classification (paper §4.3.2: 10x the
   execution time of the profiling step) *)
let timeout_factor = 10L
