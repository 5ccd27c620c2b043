(* Per-tool compile/profile/inject drivers — the experiment workflow of the
   paper's Figure 3 for each of the three compared injectors.

   [prepare] builds the tool's binary from MinC source and runs the
   profiling phase once (dynamic instruction count + golden output);
   [run_injection] performs one fault-injection experiment and classifies
   its outcome.  The profiling binary and the injection binary are the same
   artifact; only the control library's mode differs. *)

module E = Refine_machine.Exec
module P = Refine_support.Prng
module Pl = Refine_passes.Pipeline
module Selection = Refine_passes.Selection
module Artifact_cache = Refine_passes.Artifact_cache
module Obs = Refine_obs
module M = Refine_mir.Minstr

type kind = Refine | Llfi | Pinfi

let kind_name = function Refine -> "REFINE" | Llfi -> "LLFI" | Pinfi -> "PINFI"

(* ---- observability (DESIGN.md §12) ------------------------------------

   Executor profiling and FI-site accounting, flushed into the metrics
   registry after each run.  All handles are pre-created per (tool, class)
   so the per-run flush never pays the registry's creation lookup; with
   observability disabled the whole block is one boolean branch per run. *)

let kind_index = function Refine -> 0 | Llfi -> 1 | Pinfi -> 2
let kind_names = [| "REFINE"; "LLFI"; "PINFI" |]

let m_exec_steps =
  Array.init 3 (fun t ->
      Array.init M.num_iclasses (fun k ->
          Obs.Metrics.counter ~help:"simulated instructions by opcode class"
            ~labels:[ ("tool", kind_names.(t)); ("class", M.iclass_name M.iclasses.(k)) ]
            "refine_exec_steps_total"))

let m_ext_calls =
  Array.init 3 (fun t ->
      Obs.Metrics.counter ~help:"runtime-library/libc calls made by simulated code"
        ~labels:[ ("tool", kind_names.(t)) ]
        "refine_exec_ext_calls_total")

let m_ext_cost =
  Array.init 3 (fun t ->
      Obs.Metrics.counter ~help:"modeled cost charged by extern calls"
        ~labels:[ ("tool", kind_names.(t)) ]
        "refine_exec_ext_cost_units_total")

let m_fi_hits =
  Array.init 3 (fun t ->
      Obs.Metrics.counter
        ~help:"dynamic visits to FI-instrumented sites (control-library calls or DBI hook hits)"
        ~labels:[ ("tool", kind_names.(t)) ]
        "refine_fi_site_hits_total")

let m_run_cost =
  Array.init 3 (fun t ->
      Obs.Metrics.counter ~help:"modeled cost of completed simulator runs"
        ~labels:[ ("tool", kind_names.(t)) ]
        "refine_run_cost_units_total")

(* Attach an executor profile iff observability is on; [flush_obs] mirrors
   it (and the control library's dynamic site count) into the registry. *)
let maybe_profile (eng : E.t) = if Obs.Control.enabled () then ignore (E.enable_profiling eng)

let flush_obs kind (eng : E.t) ~fi_hits ~run_cost =
  if Obs.Control.enabled () then begin
    let t = kind_index kind in
    (match eng.E.prof with
    | Some p ->
      Array.iteri
        (fun k n -> if n <> 0 then Obs.Metrics.add64 m_exec_steps.(t).(k) (Int64.of_int n))
        p.E.class_steps;
      Obs.Metrics.add64 m_ext_calls.(t) (Int64.of_int p.E.ext_calls);
      Obs.Metrics.add64 m_ext_cost.(t) (Int64.of_int p.E.ext_cost)
    | None -> ());
    Obs.Metrics.add64 m_fi_hits.(t) (Int64.of_int fi_hits);
    Obs.Metrics.add64 m_run_cost.(t) run_cost;
    Obs.Span.add_cost run_cost
  end

(* ---- sandbox quotas (DESIGN.md §13) -----------------------------------

   Per-run resource envelopes forwarded to [Exec.run].  A tripped quota is
   an experimental outcome — the run ends [Trapped (Output_quota _)] etc.
   and classifies as Crash — never a harness exception, so the supervisor
   burns no retries on adversarial samples. *)

type quotas = {
  output_bytes : int option; (* absolute cap; overrides derivation *)
  heap_bytes : int option; (* heap growth above the image's heap base *)
  wall_clock_s : float option; (* real-time deadline per run *)
  livelock_window : int option; (* fingerprint cadence in steps *)
  derive_output : bool; (* derive the output cap from the golden run *)
}

let no_quotas =
  {
    output_bytes = None;
    heap_bytes = None;
    wall_clock_s = None;
    livelock_window = None;
    derive_output = false;
  }

let default_quotas = { no_quotas with derive_output = true }

(* 16x the golden output with a 4 KiB floor: generous enough that any
   legitimate corruption (SOC) fits, tight enough that a fault turning the
   program into an output firehose trips long before the 10x cost
   timeout's worth of bytes accumulate. *)
let derived_output_quota (profile : Fault.profile) =
  max 4096 (16 * String.length profile.Fault.golden_output)

let effective_output_quota q (profile : Fault.profile) =
  match q.output_bytes with
  | Some _ as c -> c
  | None -> if q.derive_output then Some (derived_output_quota profile) else None

let quota_kind_names = [| "output"; "heap"; "wall-clock"; "livelock" |]

let m_quota_trips =
  Array.map
    (fun k ->
      Obs.Metrics.counter ~help:"sandbox quota trips by kind" ~labels:[ ("kind", k) ]
        "refine_quota_trips_total")
    quota_kind_names

(* Injection tally by (tool, fault model).  Created lazily on first use per
   label pair — [Metrics.counter] is mutex-protected and idempotent, so the
   per-sample cost of a repeat call is one registry lookup, and model
   labels only exist for models actually campaigned. *)
let note_injection kind (model : Fault.model) =
  if Obs.Control.enabled () then
    Obs.Metrics.inc
      (Obs.Metrics.counter ~help:"fault injections performed by fault model"
         ~labels:[ ("tool", kind_name kind); ("model", Fault.string_of_model model) ]
         "refine_injections_total")

let note_quota_trip (r : E.result) =
  if Obs.Control.enabled () then
    match r.E.status with
    | E.Trapped (E.Output_quota _) -> Obs.Metrics.inc m_quota_trips.(0)
    | E.Trapped (E.Heap_quota _) -> Obs.Metrics.inc m_quota_trips.(1)
    | E.Trapped (E.Wall_clock _) -> Obs.Metrics.inc m_quota_trips.(2)
    | E.Trapped E.Livelock -> Obs.Metrics.inc m_quota_trips.(3)
    | _ -> ()

(* ---- engine fast path (DESIGN.md §14) ---------------------------------

   The initialized memory image (globals + sentinel stack) is computed once
   per prepared binary and every simulator run acquires a snapshot-backed
   engine from a per-domain cache: one [Bytes.blit] reset per sample
   instead of a [Mem.mem_size] allocation.  The cache is keyed by a unique
   per-prepared id, so a domain that moves to another cell (or a fresh
   supervisor worker domain) transparently clones a new arena.  Settable
   off to run the legacy allocate-per-sample path; results are
   bit-identical either way (asserted by the fast-path test suite). *)

let use_fast_path = ref true

let next_snap_id = Atomic.make 0

let engine_cache : (int * E.t) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* ---- pre-decoded engine (DESIGN.md §19) -------------------------------

   Each snapshot's image is decoded once — per-pc dispatch closures plus
   fused superinstructions — and stored in a content-addressed artifact
   tier keyed by the snapshot id, so engines handed out by [acquire] never
   re-decode: a cached engine keeps its decoded program across [reset]
   (the decode is a property of the image, not of a sample), and a fresh
   engine installs the per-snapshot decode from the cache.  Settable off
   (tests and the perfbench oracle) to force the legacy interpreter;
   outcome tables are bit-identical either way (asserted by the
   differential decode suite). *)

let use_decode = ref true

(* inert: kept only because perfbench/perfbench.ml still saves and
   restores it around its reference oracle *)
let use_detach = ref true

let m_decode_hits =
  Obs.Metrics.counter ~help:"decoded-program cache hits" "refine_decode_cache_hits_total"

let m_decode_misses =
  Obs.Metrics.counter ~help:"decoded-program cache misses (images decoded)"
    "refine_decode_cache_misses_total"

let m_superinstr =
  Array.map
    (fun idiom ->
      Obs.Metrics.counter ~help:"superinstructions fused at decode time by idiom"
        ~labels:[ ("idiom", idiom) ] "refine_decoded_superinstr_total")
    E.idioms

(* Fingerprint over the instruction array (pure data, no closures): a
   post-layout mutation of the shared code invalidates the decoded entry
   on serve instead of dispatching stale closures. *)
let decoded_cache : E.dprogram Artifact_cache.t =
  Artifact_cache.create ~name:"decoded"
    ~fingerprint:(fun dp ->
      Digest.string (Marshal.to_string (E.decoded_image dp).Refine_backend.Layout.code []))
    ()

let decoded_for ~snap_id ~image =
  if not !Artifact_cache.enabled then begin
    if Obs.Control.enabled () then Obs.Metrics.inc m_decode_misses;
    E.decode image
  end
  else begin
    let key = Artifact_cache.key [ "decoded"; string_of_int snap_id ] in
    match Artifact_cache.find decoded_cache key with
    | Some dp when E.decoded_image dp == image ->
      if Obs.Control.enabled () then Obs.Metrics.inc m_decode_hits;
      dp
    | _ ->
      let dp = E.decode image in
      Artifact_cache.add decoded_cache key dp;
      if Obs.Control.enabled () then begin
        Obs.Metrics.inc m_decode_misses;
        Array.iteri
          (fun i n -> if n > 0 then Obs.Metrics.add64 m_superinstr.(i) (Int64.of_int n))
          (E.superinstr_counts dp)
      end;
      dp
  end

let acquire ?(ext_extra = []) ~image ~snap ~snap_id () =
  let eng =
    if not !use_fast_path then E.create ~ext_extra image
    else begin
      let cell = Domain.DLS.get engine_cache in
      match !cell with
      | Some (id, eng) when id = snap_id ->
        E.reset ~ext_extra eng;
        eng
      | _ ->
        let eng = E.create_from_snapshot ~ext_extra snap in
        cell := Some (snap_id, eng);
        eng
    end
  in
  (* a cached engine keeps its dprog across reset, so the cache lookup
     only runs for fresh engines (or after a kill-switch flip) *)
  if !use_decode then begin
    if not (E.decoded eng) then E.install_decoded eng (Some (decoded_for ~snap_id ~image))
  end
  else if E.decoded eng then E.install_decoded eng None;
  eng

type prepared = {
  kind : kind;
  sel : Selection.t;
  image : Refine_backend.Layout.image;
  snap : E.snapshot; (* initialized memory, computed once per binary *)
  snap_id : int; (* unique id keying the per-domain engine cache *)
  profile : Fault.profile;
  static_instrumented : int; (* instrumented sites (REFINE/LLFI); 0 for PINFI *)
}

exception Prepare_error of string

exception Quarantine of string * string
(* (category, detail): the cell must not be sampled — "mir-verifier" when
   the instrumented machine code fails [Mverify.check_instrumented],
   "nondeterministic-golden" when two independent profiling runs disagree.
   Deterministic by construction, hence never retried. *)

(* Test-only failure injection for the hardening paths themselves:
   [break_mir] corrupts one spliced SetupFI block after instrumentation
   (so the verifier must catch it), [flaky_golden] perturbs the second
   profiling run's output (so the golden integrity check must catch it). *)
type chaos = { break_mir : bool; flaky_golden : bool }

let no_chaos = { break_mir = false; flaky_golden = false }

(* ---- pipelines & the artifact cache (DESIGN.md §15) -------------------

   The whole compile spine — IR opts, isel, regalloc/frame/peephole, FI
   instrumentation, layout — is one [Refine_passes.Pipeline] spec; each
   tool's FI pass plugs in at the position that defines its accuracy
   (paper Figure 1): REFINE as the last MIR pass before layout, LLFI as
   the last IR pass before isel, PINFI nowhere (it attaches at run time).

   Two content-addressed cache tiers sit on top:

   - the IR tier keys on (source, IR-prefix pipeline) and stores the
     optimized module *marshaled*, so every hit deserializes a fresh copy
     — the tool-independent part of the compile is shared across REFINE /
     LLFI / PINFI cells of the same program;
   - the prepared tier keys on (source, full pipeline string, tool
     configuration) and shares whole [prepared] values — image, snapshot
     and golden profile — across repeated cells of one configuration.
     Entries carry a fingerprint of the image's code array, re-checked on
     every serve, so post-layout code mutation (chaos hooks, the extern
     slot -1 fallback path of DESIGN.md §14) invalidates instead of
     serving a corrupted binary.  Chaos runs bypass both tiers entirely. *)

let default_pipeline = Pl.of_level Pl.O2

let is_fi_pass name =
  match Refine_passes.Pass.find name with Some p -> p.Refine_passes.Pass.fi | None -> false

(* the tool-independent IR prefix: everything before the first FI pass *)
let split_fi_prefix names =
  let rec go acc = function
    | n :: rest when not (is_fi_pass n) -> go (n :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go [] names

let pipeline_for ?(chaos = { break_mir = false; flaky_golden = false }) kind spec =
  let spec = Pl.ensure_layout spec in
  match kind with
  | Refine ->
    let spec = Pl.append_mir spec "refine-fi" in
    if chaos.break_mir then Pl.append_mir spec "chaos-break-mir" else spec
  | Llfi -> Pl.append_ir spec "llfi-fi"
  | Pinfi -> spec

let ir_cache : string Artifact_cache.t =
  Artifact_cache.create ~name:"ir" ~fingerprint:Digest.string ()

let compile_invocation_count = Atomic.make 0

let compile_invocations () = Atomic.get compile_invocation_count

let m_compile_invocations =
  Obs.Metrics.counter ~help:"front-end + IR-stage compile executions (artifact-cache misses)"
    "refine_compile_invocations_total"

let build_ir ?(pipeline = default_pipeline) ?(cache = true) ?(verify_each = false) ?phases src =
  let spec = { pipeline with Pl.isel = false; mir = []; layout = false } in
  let time name f = match phases with None -> f () | Some p -> Obs.Phase.time p name f in
  let rebuild () =
    Atomic.incr compile_invocation_count;
    if Obs.Control.enabled () then Obs.Metrics.inc m_compile_invocations;
    let m = time "compile" (fun () -> Refine_minic.Frontend.compile src) in
    ignore (Pl.run_ir ~verify_each ?phases spec m);
    m
  in
  (* FI passes in the IR stage make the result tool-specific: never share *)
  if (not (cache && !Artifact_cache.enabled)) || List.exists is_fi_pass spec.Pl.ir then rebuild ()
  else begin
    let key = Artifact_cache.key [ "ir"; src; Pl.print spec ] in
    match Artifact_cache.find ir_cache key with
    | Some bytes ->
      (* every hit deserializes a fresh copy: callers may mutate freely *)
      time "compile" (fun () -> (Marshal.from_string bytes 0 : Refine_ir.Ir.modul))
    | None ->
      let m = rebuild () in
      Artifact_cache.add ir_cache key (Marshal.to_string m []);
      m
  end

let finish_profile kind sel image snap snap_id static_instrumented (count : int) (r : E.result)
    =
  (match r.status with
  | E.Exited 0 -> ()
  | E.Exited c -> raise (Prepare_error (Printf.sprintf "profiling run exited with code %d" c))
  | E.Trapped tr -> raise (Prepare_error ("profiling run trapped: " ^ E.string_of_trap tr))
  | E.Timed_out | E.Running -> raise (Prepare_error "profiling run did not finish"));
  {
    kind;
    sel;
    image;
    snap;
    snap_id;
    static_instrumented;
    profile =
      {
        Fault.golden_output = r.output;
        golden_exit = 0;
        dyn_count = Int64.of_int count;
        profile_cost = r.cost;
      };
  }

(* fingerprint of the emitted code array: a prepared binary whose image
   was mutated after caching must never be served again *)
let image_fingerprint (p : prepared) =
  Digest.string (Marshal.to_string p.image.Refine_backend.Layout.code [])

let prepared_cache : prepared Artifact_cache.t =
  Artifact_cache.create ~name:"prepared" ~fingerprint:image_fingerprint ()

let reset_artifact_caches () =
  Artifact_cache.clear ir_cache;
  Artifact_cache.clear prepared_cache;
  Artifact_cache.clear decoded_cache;
  Atomic.set compile_invocation_count 0

let ir_cache_stats () = Artifact_cache.stats ir_cache

let prepared_cache_stats () = Artifact_cache.stats prepared_cache

let decoded_cache_stats () = Artifact_cache.stats decoded_cache

(* inert: kept only because perfbench/perfbench.ml still reports it *)
let detach_cache_stats () =
  { Artifact_cache.hits = 0; misses = 0; invalidations = 0; entries = 0 }

(* [phases] buckets wall-clock time into the overhead-breakdown columns
   (instrument / compile / execute); the profiling runs count as execute.
   Omitted (the common library-use case), only the modeled costs remain.

   Profiling runs TWICE with independent machine and control-library
   state: a program whose golden output, exit code or dynamic population
   varies between fault-free runs cannot classify faults (every
   comparison against "the" golden run would be noise), so the cell is
   [Quarantine]d instead of sampled.  [verify_mir] re-checks the
   instrumented machine code at the end of the MIR stage
   ([Mverify.check_instrumented] for the REFINE splices,
   [Mverify.check_funcs] for LLFI's recompiled functions); [verify_each]
   additionally interleaves the IR/MIR verifiers after every single pass.
   Either kind of violation quarantines the cell. *)
let prepare_uncached ?phases ~sel ~full ~max_steps ~verify_mir ~verify_each ~cache
    ~(chaos : chaos) (kind : kind) (src : string) : prepared =
  let time name f = match phases with None -> f () | Some p -> Obs.Phase.time p name f in
  let quarantine_invalid f =
    try f () with
    | Refine_mir.Mverify.Invalid msg -> raise (Quarantine ("mir-verifier", msg))
    | Refine_ir.Verify.Invalid msg -> raise (Quarantine ("ir-verifier", msg))
  in
  (* first run becomes the golden profile; the second must agree with it *)
  let finish_and_check static_n image snap snap_id profile_once =
    let count1, r1 = profile_once () in
    let p = finish_profile kind sel image snap snap_id static_n count1 r1 in
    let count2, r2 = profile_once () in
    let out2 = if chaos.flaky_golden then r2.E.output ^ "#chaos" else r2.E.output in
    let exit2 = match r2.E.status with E.Exited c -> c | _ -> min_int in
    if
      out2 <> p.profile.Fault.golden_output
      || exit2 <> p.profile.Fault.golden_exit
      || Int64.of_int count2 <> p.profile.Fault.dyn_count
    then
      raise
        (Quarantine
           ( "nondeterministic-golden",
             Printf.sprintf
               "independent profiling runs disagree: output %dB/%dB exit %d/%d dyn %Ld/%Ld"
               (String.length p.profile.Fault.golden_output)
               (String.length out2) p.profile.Fault.golden_exit exit2
               p.profile.Fault.dyn_count (Int64.of_int count2) ));
    p
  in
  let ctx = { Refine_passes.Pass.sel; save_flags = true } in
  (* tool-independent IR prefix (shared via the IR cache tier), then the
     rest of the pipeline: IR FI passes, isel, MIR passes, layout *)
  let prefix, ir_rest = split_fi_prefix full.Pl.ir in
  let m = build_ir ~pipeline:{ full with Pl.ir = prefix } ~cache ~verify_each ?phases src in
  let out =
    quarantine_invalid (fun () ->
        Pl.run ~ctx ~verify_each ~verify_fi:verify_mir ?phases { full with Pl.ir = ir_rest } m)
  in
  let image =
    match out.Pl.image with
    | Some image -> image
    | None -> raise (Prepare_error "pipeline spec does not end in layout")
  in
  let static_n = out.Pl.fi_sites in
  let snap = E.snapshot image and snap_id = Atomic.fetch_and_add next_snap_id 1 in
  let profile_once () =
    match kind with
    | Refine ->
      let ctrl = Runtime.create Runtime.Profile in
      let eng = acquire ~ext_extra:(Runtime.refine_handlers ctrl) ~image ~snap ~snap_id () in
      maybe_profile eng;
      let r = time "execute" (fun () -> E.run ~max_steps eng) in
      Runtime.absorb ctrl eng;
      flush_obs kind eng ~fi_hits:ctrl.Runtime.count ~run_cost:r.E.cost;
      (ctrl.Runtime.count, r)
    | Llfi ->
      let ctrl = Runtime.create Runtime.Profile in
      let eng = acquire ~ext_extra:(Runtime.llfi_handlers ctrl) ~image ~snap ~snap_id () in
      maybe_profile eng;
      let r = time "execute" (fun () -> E.run ~max_steps eng) in
      Runtime.absorb ctrl eng;
      flush_obs kind eng ~fi_hits:ctrl.Runtime.count ~run_cost:r.E.cost;
      (ctrl.Runtime.count, r)
    | Pinfi ->
      let ctrl = Pinfi.create ~sel Runtime.Profile in
      let eng = acquire ~image ~snap ~snap_id () in
      (* attaching the DBI hook is PINFI's (tiny) instrumentation phase *)
      time "instrument" (fun () -> Pinfi.attach ctrl eng);
      maybe_profile eng;
      let r = time "execute" (fun () -> E.run ~max_steps eng) in
      flush_obs kind eng ~fi_hits:ctrl.Pinfi.count ~run_cost:r.E.cost;
      (ctrl.Pinfi.count, r)
  in
  finish_and_check static_n image snap snap_id profile_once

let prepare ?phases ?(sel = Selection.default) ?(pipeline = default_pipeline)
    ?(max_steps = 2_000_000_000L) ?(verify_mir = true) ?(verify_each = false)
    ?(chaos = no_chaos) ?(cache = true) (kind : kind) (src : string) : prepared =
  let full = pipeline_for ~chaos kind pipeline in
  (* chaos mutates code after instrumentation: those runs must neither be
     served from cache nor poison it *)
  let use_cache =
    cache && !Artifact_cache.enabled && not (chaos.break_mir || chaos.flaky_golden)
  in
  let pkey =
    Artifact_cache.key
      [
        "prepared";
        src;
        Pl.print full;
        kind_name kind;
        Selection.to_string sel;
        string_of_bool verify_mir;
        Int64.to_string max_steps;
      ]
  in
  match if use_cache then Artifact_cache.find prepared_cache pkey else None with
  | Some p -> p
  | None ->
    let p =
      prepare_uncached ?phases ~sel ~full ~max_steps ~verify_mir ~verify_each ~cache ~chaos kind
        src
    in
    if use_cache then Artifact_cache.add prepared_cache pkey p;
    p

exception Sample_budget_exceeded of int64

(* One fault-injection experiment: pick a uniform dynamic target, run,
   classify against the golden output, with the 10x-profiling timeout.

   [cost_cap] is the harness watchdog: a modeled-cost budget below the
   paper's 10x timeout at which the sample is killed and reported as a
   harness failure ([Sample_budget_exceeded]) rather than classified as a
   Crash — exceeding the paper's own timeout is an experimental outcome,
   exceeding the operator's budget is not.  [poll] is forwarded to the
   simulator (called every 1024 instructions) so a cancellation token can
   abort in-flight samples.

   [quotas] (default [no_quotas]) is the adversarial-input sandbox
   (DESIGN.md §13): tripped quotas end the run [Trapped] and classify as
   Crash — an outcome, never an exception, so the supervisor burns no
   retries on them. *)
let run_injection ?cost_cap ?(quotas = no_quotas) ?(model = Fault.Reg_bit) ?poll
    (p : prepared) (rng : P.t) : Fault.experiment =
  if p.profile.Fault.dyn_count = 0L then
    { Fault.outcome = Fault.Benign; run_cost = 0L; fault = None }
  else begin
    let target = Int64.to_int (Int64.add 1L (P.int64 rng p.profile.Fault.dyn_count)) in
    let timeout = Int64.mul Fi_cost.timeout_factor p.profile.Fault.profile_cost in
    let max_cost, capped =
      match cost_cap with
      | Some c when Int64.compare c timeout < 0 -> (c, true)
      | _ -> (timeout, false)
    in
    let sandboxed_run eng =
      E.run ~max_cost
        ?output_quota:(effective_output_quota quotas p.profile)
        ?heap_quota:quotas.heap_bytes ?wall_clock:quotas.wall_clock_s ~clock:Obs.Control.now
        ?livelock:quotas.livelock_window ?poll eng
    in
    note_injection p.kind model;
    let mode = Runtime.Inject { target; rng; model } in
    let r, record =
      match p.kind with
      | Refine ->
        let ctrl = Runtime.create mode in
        let eng =
          acquire ~ext_extra:(Runtime.refine_handlers ctrl) ~image:p.image ~snap:p.snap
            ~snap_id:p.snap_id ()
        in
        maybe_profile eng;
        let r = sandboxed_run eng in
        Runtime.absorb ctrl eng;
        flush_obs p.kind eng ~fi_hits:ctrl.Runtime.count ~run_cost:r.E.cost;
        (r, ctrl.Runtime.record)
      | Llfi ->
        let ctrl = Runtime.create mode in
        let eng =
          acquire ~ext_extra:(Runtime.llfi_handlers ctrl) ~image:p.image ~snap:p.snap
            ~snap_id:p.snap_id ()
        in
        maybe_profile eng;
        let r = sandboxed_run eng in
        Runtime.absorb ctrl eng;
        flush_obs p.kind eng ~fi_hits:ctrl.Runtime.count ~run_cost:r.E.cost;
        (r, ctrl.Runtime.record)
      | Pinfi ->
        let ctrl = Pinfi.create ~sel:p.sel mode in
        let eng = acquire ~image:p.image ~snap:p.snap ~snap_id:p.snap_id () in
        Pinfi.attach ctrl eng;
        maybe_profile eng;
        let r = sandboxed_run eng in
        flush_obs p.kind eng ~fi_hits:ctrl.Pinfi.count ~run_cost:r.E.cost;
        (r, ctrl.Pinfi.record)
    in
    note_quota_trip r;
    if capped && r.E.status = E.Timed_out then raise (Sample_budget_exceeded r.E.cost);
    { Fault.outcome = Fault.classify p.profile r; run_cost = r.E.cost; fault = record }
  end

(* Fault-free run of the prepared binary (used by tests and examples). *)
let run_clean (p : prepared) : E.result =
  match p.kind with
  | Refine ->
    let ctrl = Runtime.create Runtime.Profile in
    let eng =
      acquire ~ext_extra:(Runtime.refine_handlers ctrl) ~image:p.image ~snap:p.snap
        ~snap_id:p.snap_id ()
    in
    E.run eng
  | Llfi ->
    let ctrl = Runtime.create Runtime.Profile in
    let eng =
      acquire ~ext_extra:(Runtime.llfi_handlers ctrl) ~image:p.image ~snap:p.snap
        ~snap_id:p.snap_id ()
    in
    E.run eng
  | Pinfi ->
    let eng = acquire ~image:p.image ~snap:p.snap ~snap_id:p.snap_id () in
    E.run eng
