(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (S5) against this repository's implementation, and
   runs Bechamel micro-benchmarks of the underlying per-experiment
   operations.

   Environment knobs:
     REFINE_SAMPLES   experiments per (program, tool) cell
                      (default 1068, the paper's Leveugle sizing for 3%
                      error at 95% confidence; set e.g. 200 for a quick
                      pass — the full default run takes ~20 minutes)
     REFINE_SEED      master PRNG seed (default 20170712)
     REFINE_PROGRAMS  comma-separated program filter (default: all 14)
     REFINE_BECHAMEL  set to 0 to skip the Bechamel micro-benchmarks
     REFINE_JOURNAL   checkpoint/resume journal path: every resolved sample
                      is recorded (atomic tmp-rename flushes) and an
                      interrupted run resumes from it bit-identically
     REFINE_RETRIES   extra attempts per failing sample before it degrades
                      to a ToolError tally entry (default 1)
     REFINE_SAMPLE_TIMEOUT
                      per-sample modeled-cost watchdog cap (default: none,
                      i.e. only the paper's 10x-profiling timeout)
     REFINE_OBS       set to 0 to disable the observability layer (metrics
                      registry + span accounting); when enabled (default)
                      the harness writes a BENCH_obs.json trajectory point
                      with per-tool overhead totals and key counters
     REFINE_QUOTAS    set to 0 to skip the sandbox-quota overhead probe;
                      when enabled (default) a small REFINE cell is run
                      once with quotas off and once with the default
                      sandbox (derived output cap + livelock detector) and
                      the wall-time ratio is written to BENCH_quotas.json
     REFINE_FASTPATH  set to 0 to force the legacy allocate-per-sample
                      engine path for the whole harness and skip the
                      fast-path probe; when enabled (default) the probe
                      measures samples/sec legacy vs fast, simulated
                      instr/sec and engines/sec, checks outcome-table
                      bit-identity, and writes BENCH_fastpath.json
     REFINE_BASELINE_SPS
                      pre-fast-path end-to-end campaign throughput
                      (samples/sec) to compare against in
                      BENCH_fastpath.json; the default is the recorded
                      pre-fast-path executor on the reference campaign
                      (DC+EP x 3 tools x 300 samples, interleaved runs
                      on the same host)
     REFINE_SHARD     set to 0 to skip the sharded-campaign probe: a small
                      DC+EP matrix run with 1, 2 and 4 worker processes
                      (throughput per configuration), plus one run where a
                      worker is SIGKILLed mid-campaign to measure the
                      recovery overhead; results (all bit-identical) are
                      written to BENCH_shard.json
     REFINE_LIVE      set to 0 to skip the live-status overhead probe: the
                      same 2-worker campaign (telemetry forwarding on in
                      both) with the /status server off vs on; the delta is
                      the "live" section of BENCH_obs.json *)

module T = Refine_core.Tool
module E = Refine_campaign.Experiment
module Rep = Refine_campaign.Report
module Reg = Refine_bench_progs.Registry
module Tbl = Refine_support.Table
module Obs = Refine_obs

let getenv_default name default =
  match Sys.getenv_opt name with Some v when v <> "" -> v | _ -> default

let samples = int_of_string (getenv_default "REFINE_SAMPLES" "1068")
let seed = int_of_string (getenv_default "REFINE_SEED" "20170712")

let programs =
  match Sys.getenv_opt "REFINE_PROGRAMS" with
  | Some s when s <> "" -> String.split_on_char ',' s |> List.map String.trim
  | _ -> Reg.names

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ---- Table 3: benchmark programs and their input ----------------------- *)

let print_table3 () =
  section "Table 3 - benchmark programs and their input";
  Tbl.print
    ~header:[ "Program"; "Input (this repro | paper)" ]
    (List.map (fun n -> let b = Reg.find n in [ b.Reg.name; b.Reg.input ]) programs)

(* ---- statistical setting (paper S5.3) ---------------------------------- *)

let print_setting () =
  section "Statistical setting (Leveugle et al. sample sizing)";
  let paper_n = Refine_stats.Samplesize.paper_sample_count in
  Printf.printf "paper sample count (e<=3%%, 95%%): n = %d (paper: 1,068)\n" paper_n;
  let margin = Refine_stats.Samplesize.margin_of ~samples ~confidence:0.95 () in
  Printf.printf "this run: n = %d per (program, tool) -> margin of error <= %.1f%% at 95%%\n"
    samples (100.0 *. margin);
  Printf.printf "total experiments: %d programs x 3 tools x %d = %d\n"
    (List.length programs) samples
    (List.length programs * 3 * samples)

(* ---- Listings 1 & 2: machine-only instructions and LLFI interference --- *)

let static_counts (m : Refine_ir.Ir.modul) =
  let funcs = Refine_passes.Pipeline.to_mir m in
  let module M = Refine_mir.Minstr in
  let count p = List.fold_left (fun acc mf ->
      List.fold_left (fun acc (b : Refine_mir.Mfunc.mblock) ->
          acc + List.length (List.filter p b.code)) acc mf.Refine_mir.Mfunc.blocks)
      0 funcs
  in
  let total = count (fun _ -> true) in
  let stack = count (fun i -> M.classify i = M.Cstack) in
  let spill_slots =
    List.fold_left (fun acc mf -> acc + (mf.Refine_mir.Mfunc.frame_bytes / 8)) 0 funcs
  in
  (total, stack, spill_slots)

let print_listings () =
  section "Listings 1 & 2 - machine-only instructions and codegen interference (HPCCG)";
  let src = (Reg.find "HPCCG-1.0").Reg.source in
  let clean = Refine_minic.Frontend.compile src in
  Refine_passes.Pipeline.optimize Refine_passes.Pipeline.O2 clean;
  let ir_instrs =
    List.fold_left (fun acc f -> acc + Refine_ir.Printer.count_instrs f) 0
      clean.Refine_ir.Ir.funcs
  in
  let t_clean, s_clean, fs_clean = static_counts clean in
  let llfi = Refine_minic.Frontend.compile src in
  Refine_passes.Pipeline.optimize Refine_passes.Pipeline.O2 llfi;
  ignore (Refine_passes.Pipeline.run_ir { Refine_passes.Pipeline.empty with ir = [ "llfi-fi" ] } llfi);
  let t_llfi, s_llfi, fs_llfi = static_counts llfi in
  Printf.printf
    "IR instructions (LLFI's entire view):            %4d\n" ir_instrs;
  Printf.printf
    "machine instructions, clean binary:              %4d (%d stack-class, invisible at IR level)\n"
    t_clean s_clean;
  Printf.printf
    "machine instructions after LLFI instrumentation: %4d (%d stack-class)\n" t_llfi s_llfi;
  Printf.printf
    "frame slots (allocas + spills): clean %d -> LLFI %d (spilling induced by injectFault calls, cf. Listing 2c)\n"
    fs_clean fs_llfi

(* ---- campaign ----------------------------------------------------------- *)

let run_campaign () =
  let progs = List.map (fun n -> (n, (Reg.find n).Reg.source)) programs in
  let journal, scratch =
    match Sys.getenv_opt "REFINE_JOURNAL" with
    | Some path when path <> "" ->
      let resume = Sys.file_exists path in
      let j = Refine_campaign.Journal.create ~resume path in
      if resume then
        Printf.printf "[journal: resuming from %s, %d samples already resolved]\n" path
          (Refine_campaign.Journal.length j);
      (Some j, None)
    | _ when Obs.Control.enabled () ->
      (* the trajectory point reports refine_journal_records_total; with no
         journal the campaign never appends and the counter is a trivial 0,
         not a measurement.  Journal to a scratch file and discard it. *)
      let path = Filename.temp_file "refine_bench" ".journal" in
      (Some (Refine_campaign.Journal.create path), Some path)
    | _ -> (None, None)
  in
  let retries = int_of_string (getenv_default "REFINE_RETRIES" "1") in
  let cost_cap =
    match Sys.getenv_opt "REFINE_SAMPLE_TIMEOUT" with
    | Some v when v <> "" -> Some (Int64.of_string v)
    | _ -> None
  in
  let t0 = Unix.gettimeofday () in
  let cells = E.run_matrix ?journal ~retries ?cost_cap ~samples ~seed progs Rep.tools in
  let wall = Unix.gettimeofday () -. t0 in
  (match scratch with
  | Some path ->
    Option.iter Refine_campaign.Journal.close journal;
    Sys.remove path
  | None -> ());
  Printf.printf "\n[campaign: %d experiments in %.1fs]\n"
    (List.length programs * 3 * samples)
    wall;
  List.iter print_endline (Rep.degradation cells);
  (cells, wall)

let print_figure4 cells =
  section "Figure 4 - fault-injection outcome distributions";
  List.iter
    (fun p ->
      print_string (Rep.figure4_program cells p);
      print_string (Rep.figure4_pmf cells p);
      print_newline ())
    programs

let print_table4 cells =
  if List.mem "AMG2013" programs then begin
    section "Table 4 - contingency table, LLFI vs PINFI (AMG2013)";
    let a = E.find_cell cells ~program:"AMG2013" ~tool:T.Llfi in
    let b = E.find_cell cells ~program:"AMG2013" ~tool:T.Pinfi in
    print_string (Rep.contingency_table a b)
  end

let print_table5 cells =
  section "Table 5 - chi-squared tests (alpha = 0.05)";
  let rows = Rep.chi2_rows cells programs in
  print_string (Rep.table5 rows);
  let llfi_sig =
    List.length (List.filter (fun r -> r.Rep.llfi_vs_pinfi.Refine_stats.Chi2.significant) rows)
  in
  let refine_sig =
    List.length (List.filter (fun r -> r.Rep.refine_vs_pinfi.Refine_stats.Chi2.significant) rows)
  in
  Printf.printf
    "LLFI significantly different from PINFI: %d/%d programs (paper: 14/14)\n" llfi_sig
    (List.length rows);
  Printf.printf
    "REFINE significantly different from PINFI: %d/%d programs (paper: 0/14)\n" refine_sig
    (List.length rows)

let print_table6 cells =
  section "Table 6 - complete outcome frequencies";
  print_string (Rep.table6 cells programs)

let print_figure5 cells =
  section "Figure 5 - experimentation time";
  print_string (Rep.figure5 cells programs)

(* ---- Figures 8/9: measured wall-clock overhead --------------------------
   Unlike Figure 5's modeled cost units, these are Unix.gettimeofday
   measurements bucketed by Experiment/Tool into the instrument / compile /
   execute / harness phases, with each tool's total normalized to PINFI's
   (the paper's time-overhead presentation). *)

let tool_timing cells tool =
  List.fold_left
    (fun acc program ->
      let t = (E.find_cell cells ~program ~tool).E.timing in
      {
        E.instrument_s = acc.E.instrument_s +. t.E.instrument_s;
        compile_s = acc.E.compile_s +. t.E.compile_s;
        execute_s = acc.E.execute_s +. t.E.execute_s;
        harness_s = acc.E.harness_s +. t.E.harness_s;
      })
    E.zero_timing programs

let print_overhead cells =
  section "Figures 8/9 - wall-clock overhead breakdown";
  print_string (Rep.overhead_table cells programs);
  let pinfi = Rep.timing_total (tool_timing cells T.Pinfi) in
  List.iter
    (fun tool ->
      let total = Rep.timing_total (tool_timing cells tool) in
      Printf.printf "%-7s total %8.3fs  = %.2fx PINFI\n" (T.kind_name tool) total
        (if pinfi > 0.0 then total /. pinfi else nan))
    Rep.tools

(* ---- BENCH_obs.json: one observability trajectory point ------------------ *)

let sum_counter name =
  List.fold_left
    (fun acc (n, _, v) ->
      match v with Obs.Metrics.Counter c when n = name -> Int64.add acc c | _ -> acc)
    0L (Obs.Metrics.snapshot ())

let obs_counter_names =
  [
    "refine_campaign_samples_total";
    "refine_campaign_cells_total";
    "refine_exec_steps_total";
    "refine_fi_site_hits_total";
    "refine_supervisor_tasks_total";
    "refine_supervisor_retries_total";
    "refine_journal_records_total";
  ]

(* captured right after the campaign so the later probe sections don't
   bleed into the trajectory point *)
let capture_obs_counters () = List.map (fun n -> (n, sum_counter n)) obs_counter_names

let write_obs_json ?live counters cells campaign_wall =
  let buf = Buffer.create 1024 in
  let pinfi = Rep.timing_total (tool_timing cells T.Pinfi) in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"samples_per_cell\": %d,\n" samples);
  Buffer.add_string buf (Printf.sprintf "  \"seed\": %d,\n" seed);
  Buffer.add_string buf (Printf.sprintf "  \"programs\": %d,\n" (List.length programs));
  Buffer.add_string buf (Printf.sprintf "  \"campaign_wall_s\": %.6f,\n" campaign_wall);
  Buffer.add_string buf "  \"tools\": {\n";
  List.iteri
    (fun i tool ->
      let t = tool_timing cells tool in
      let total = Rep.timing_total t in
      Buffer.add_string buf
        (Printf.sprintf
           "    \"%s\": { \"instrument_s\": %.6f, \"compile_s\": %.6f, \"execute_s\": %.6f, \
            \"harness_s\": %.6f, \"total_s\": %.6f, \"ratio_vs_pinfi\": %.4f }%s\n"
           (T.kind_name tool) t.E.instrument_s t.E.compile_s t.E.execute_s t.E.harness_s total
           (if pinfi > 0.0 then total /. pinfi else 0.0)
           (if i < List.length Rep.tools - 1 then "," else "")))
    Rep.tools;
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"counters\": {\n";
  List.iteri
    (fun i (name, v) ->
      Buffer.add_string buf
        (Printf.sprintf "    \"%s\": %Ld%s\n" name v
           (if i < List.length counters - 1 then "," else "")))
    counters;
  (match live with
  | None -> Buffer.add_string buf "  }\n}\n"
  | Some fragment ->
    Buffer.add_string buf "  },\n";
    Buffer.add_string buf (Printf.sprintf "  \"live\": %s\n}\n" fragment));
  let oc = open_out "BENCH_obs.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "[observability trajectory written to BENCH_obs.json]\n"

(* ---- BENCH_quotas.json: sandbox-quota overhead probe ---------------------
   The adversarial-input sandbox (DESIGN.md §13) adds a quota check every
   1024 simulated steps plus a fingerprint ring when the livelock detector
   is armed.  This probe measures what that costs: the same small REFINE
   cell (same seed, so the same faults) once with quotas off and once with
   the derived output cap + a livelock window, wall-clock compared. *)

let quotas_section () =
  section "Sandbox quota overhead (quota-off vs quota-on wall time)";
  let program = List.hd programs in
  let src = (Reg.find program).Reg.source in
  let probe_samples = min samples 120 in
  let run quotas =
    let t0 = Unix.gettimeofday () in
    let cell =
      E.run_cell ~quotas ~samples:probe_samples ~seed T.Refine ~program ~source:src ()
    in
    (Unix.gettimeofday () -. t0, cell)
  in
  let off_s, off_cell = run T.no_quotas in
  let on_s, on_cell =
    run { T.default_quotas with T.livelock_window = Some 65536 }
  in
  let overhead_pct = if off_s > 0.0 then 100.0 *. ((on_s /. off_s) -. 1.0) else 0.0 in
  Printf.printf "%s, %d samples: quotas off %.3fs, on %.3fs (%+.1f%%)\n" program probe_samples
    off_s on_s overhead_pct;
  if off_cell.E.counts <> on_cell.E.counts then
    Printf.printf "note: quota trips changed %d sample outcome(s) (runaways now crash early)\n"
      (abs (off_cell.E.counts.E.crash - on_cell.E.counts.E.crash));
  let oc = open_out "BENCH_quotas.json" in
  Printf.fprintf oc
    "{\n  \"program\": \"%s\",\n  \"samples\": %d,\n  \"seed\": %d,\n  \
     \"quota_off_wall_s\": %.6f,\n  \"quota_on_wall_s\": %.6f,\n  \
     \"overhead_pct\": %.2f\n}\n"
    program probe_samples seed off_s on_s overhead_pct;
  close_out oc;
  Printf.printf "[quota overhead written to BENCH_quotas.json]\n"

(* ---- BENCH_passes.json: pass-manager prepare cost & artifact cache -------
   DESIGN.md §15: the whole compile spine is one cross-layer pipeline, and
   prepared artifacts are content-addressed.  The probe measures cold vs
   cached prepare wall time on one cell, and counter-verifies the headline
   claim: a 2-tool campaign over the same programs performs at least 2x
   fewer front-end + IR-stage compile invocations with the cache on than
   off (the IR tier shares the tool-independent compile across tools). *)

let passes_section () =
  section "Pass manager & artifact cache (DESIGN.md par. 15)";
  let timed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (Unix.gettimeofday () -. t0, v)
  in
  let program = List.hd programs in
  let src = (Reg.find program).Reg.source in
  T.reset_artifact_caches ();
  let cold_s, _ = timed (fun () -> T.prepare T.Refine src) in
  let warm_s, _ = timed (fun () -> T.prepare T.Refine src) in
  let speedup = if warm_s > 0.0 then cold_s /. warm_s else 0.0 in
  Printf.printf "prepare(%s, REFINE): cold %.4fs, cached %.6fs (%.0fx)\n" program cold_s warm_s
    speedup;
  let rate (s : Refine_passes.Artifact_cache.stats) =
    let total = s.Refine_passes.Artifact_cache.hits + s.Refine_passes.Artifact_cache.misses in
    if total = 0 then 0.0
    else float_of_int s.Refine_passes.Artifact_cache.hits /. float_of_int total
  in
  (* sampled before the invocation probe resets the caches *)
  let prepared_rate = rate (T.prepared_cache_stats ()) in
  (* the reference 2-program x 2-tool grid, compile invocations counted *)
  let two_progs = match programs with a :: b :: _ -> [ a; b ] | _ -> programs in
  let invocations cache =
    T.reset_artifact_caches ();
    List.iter
      (fun p ->
        let s = (Reg.find p).Reg.source in
        ignore (T.prepare ~cache T.Refine s);
        ignore (T.prepare ~cache T.Llfi s))
      two_progs;
    T.compile_invocations ()
  in
  let uncached = invocations false in
  let cached = invocations true in
  let ratio = if cached > 0 then float_of_int uncached /. float_of_int cached else 0.0 in
  let ir = T.ir_cache_stats () in
  Printf.printf
    "2-tool grid (%s): compile invocations %d uncached -> %d cached (%.1fx %s)\n"
    (String.concat "+" two_progs) uncached cached ratio
    (if ratio >= 2.0 then "- claim holds" else "- BELOW the 2x claim");
  Printf.printf "cache hit rate: ir %.2f, prepared %.2f\n" (rate ir) prepared_rate;
  let oc = open_out "BENCH_passes.json" in
  Printf.fprintf oc
    "{\n  \"program\": \"%s\",\n  \"pipeline\": \"%s\",\n  \"prepare_cold_s\": %.6f,\n  \
     \"prepare_cached_s\": %.6f,\n  \"prepare_speedup\": %.1f,\n  \
     \"two_tool_compile_invocations_uncached\": %d,\n  \
     \"two_tool_compile_invocations_cached\": %d,\n  \"compile_invocation_ratio\": %.2f,\n  \
     \"ir_cache_hit_rate\": %.4f,\n  \"prepared_cache_hit_rate\": %.4f\n}\n"
    program
    (Refine_passes.Pipeline.print (T.pipeline_for T.Refine T.default_pipeline))
    cold_s warm_s speedup uncached cached ratio (rate ir) prepared_rate;
  close_out oc;
  Printf.printf "[pass-manager probe written to BENCH_passes.json]\n"

(* ---- BENCH_fastpath.json: executor fast-path throughput -------------------
   The fast path (DESIGN.md §14) replaces per-sample engine allocation with
   dirty-page snapshot reset, boxed int64 hot counters with unboxed ints, and
   string-hashed extern dispatch with a pre-resolved handler table.  The
   probe measures: end-to-end samples/sec on the same cell with the legacy
   path vs the fast path (outcome tables must be bit-identical), raw
   simulated instructions/sec on a spin loop, and engine acquisition rates
   (fresh create vs snapshot reset).  [campaign_sps] is the whole harness
   run's end-to-end throughput, compared against the recorded pre-PR
   baseline (REFINE_BASELINE_SPS). *)

let fastpath_section ~campaign_sps () =
  section "Executor fast path (DESIGN.md par. 14) - throughput probe";
  let program = List.hd programs in
  let src = (Reg.find program).Reg.source in
  let probe_samples = min samples 150 in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (Unix.gettimeofday () -. t0, v)
  in
  let cell_summary (c : E.cell) =
    Printf.sprintf "crash=%d soc=%d benign=%d err=%d cost=%Ld" c.E.counts.E.crash
      c.E.counts.E.soc c.E.counts.E.benign c.E.counts.E.tool_error c.E.injection_cost
  in
  let run_probe () =
    timed (fun () -> E.run_cell ~samples:probe_samples ~seed T.Refine ~program ~source:src ())
  in
  T.use_fast_path := false;
  let legacy_s, legacy_cell = run_probe () in
  T.use_fast_path := true;
  let fast_s, fast_cell = run_probe () in
  let identical = cell_summary legacy_cell = cell_summary fast_cell in
  let legacy_sps = float_of_int probe_samples /. legacy_s in
  let fast_sps = float_of_int probe_samples /. fast_s in
  Printf.printf "%s, %d REFINE samples: legacy %.1f samples/s, fast %.1f samples/s (%.2fx)\n"
    program probe_samples legacy_sps fast_sps (fast_sps /. legacy_sps);
  Printf.printf "outcome table: %s\n"
    (if identical then "bit-identical legacy vs fast" else "MISMATCH legacy vs fast");
  (* raw simulator speed: a spin loop of allocation-free instructions *)
  let module M = Refine_mir.Minstr in
  let module R = Refine_mir.Reg in
  let module MF = Refine_mir.Mfunc in
  let module Ex = Refine_machine.Exec in
  let spin_image =
    let mf = MF.create "main" in
    List.iteri
      (fun k i ->
        let b = MF.add_block mf k in
        b.MF.code <- [ i ])
      [
        M.Mmov (R.gpr 1, M.Imm 7L);
        M.Mcmp (R.gpr 1, M.Imm 0L);
        M.Mjcc (M.CEq, 4);
        M.Mjmp 1;
        M.Mhalt;
      ];
    Refine_backend.Layout.build ~globals:[] [ mf ]
  in
  let spin_steps = 20_000_000 in
  let sim_s, () =
    timed (fun () ->
        let eng = Ex.create spin_image in
        ignore (Ex.run ~max_steps:(Int64.of_int spin_steps) eng))
  in
  let sim_ips = float_of_int spin_steps /. sim_s in
  Printf.printf "simulated instructions/sec: %.2fM\n" (sim_ips /. 1e6);
  (* engine acquisition: fresh allocation vs snapshot reset *)
  let m = Refine_minic.Frontend.compile src in
  Refine_passes.Pipeline.optimize Refine_passes.Pipeline.O2 m;
  let image = Refine_passes.Pipeline.compile m in
  let n_eng = 300 in
  let create_s, () = timed (fun () -> for _ = 1 to n_eng do ignore (Ex.create image) done) in
  let snap = Ex.snapshot image in
  let reused = Ex.create_from_snapshot snap in
  let reset_s, () = timed (fun () -> for _ = 1 to n_eng do Ex.reset reused done) in
  let create_eps = float_of_int n_eng /. create_s in
  let reset_eps = float_of_int n_eng /. reset_s in
  Printf.printf "engines/sec: create %.0f, snapshot-reset %.0f (%.1fx)\n" create_eps reset_eps
    (reset_eps /. create_eps);
  let baseline_sps = float_of_string (getenv_default "REFINE_BASELINE_SPS" "59.0") in
  Printf.printf "end-to-end campaign: %.1f samples/s (pre-PR baseline %.1f, %.2fx)\n"
    campaign_sps baseline_sps (campaign_sps /. baseline_sps);
  let oc = open_out "BENCH_fastpath.json" in
  Printf.fprintf oc
    "{\n  \"program\": \"%s\",\n  \"samples\": %d,\n  \"seed\": %d,\n  \
     \"legacy_wall_s\": %.6f,\n  \"fast_wall_s\": %.6f,\n  \
     \"legacy_samples_per_s\": %.2f,\n  \"fast_samples_per_s\": %.2f,\n  \
     \"outcome_table_identical\": %b,\n  \"sim_instr_per_s\": %.0f,\n  \
     \"engines_create_per_s\": %.1f,\n  \"engines_reset_per_s\": %.1f,\n  \
     \"campaign_samples_per_s\": %.2f,\n  \"baseline_samples_per_s\": %.2f,\n  \
     \"campaign_speedup_vs_baseline\": %.2f\n}\n"
    program probe_samples seed legacy_s fast_s legacy_sps fast_sps identical sim_ips create_eps
    reset_eps campaign_sps baseline_sps
    (campaign_sps /. baseline_sps);
  close_out oc;
  Printf.printf "[fast-path throughput written to BENCH_fastpath.json]\n"

(* ---- BENCH_decode.json: pre-decoded executor throughput -------------------
   DESIGN.md §19: the pre-decoded engine replaces the per-opcode match
   interpreter with per-pc dispatch closures plus fused superinstructions.
   The probe measures raw simulated instructions/sec on the same spin loop
   as the fast-path section with the legacy engine vs the decoded engine
   (the ISSUE 9 target is >=5x), and re-runs the fixed-seed (DC+EP x 3
   tools) matrix under all five fault models with the decoded path off and
   on — the outcome tables must be bit-identical. *)

let decode_section () =
  section "Pre-decoded executor (DESIGN.md par. 19) - legacy vs decoded throughput";
  let module M = Refine_mir.Minstr in
  let module R = Refine_mir.Reg in
  let module MF = Refine_mir.Mfunc in
  let module Ex = Refine_machine.Exec in
  let module F = Refine_core.Fault in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (Unix.gettimeofday () -. t0, v)
  in
  let spin_image =
    let mf = MF.create "main" in
    List.iteri
      (fun k i ->
        let b = MF.add_block mf k in
        b.MF.code <- [ i ])
      [
        M.Mmov (R.gpr 1, M.Imm 7L);
        M.Mcmp (R.gpr 1, M.Imm 0L);
        M.Mjcc (M.CEq, 4);
        M.Mjmp 1;
        M.Mhalt;
      ];
    Refine_backend.Layout.build ~globals:[] [ mf ]
  in
  (* a counted work loop with an accumulator: the back edge does not
     close over the latch triple alone, so the decoded engine cannot
     bulk-retire iterations — this measures honest per-iteration fused
     dispatch (single op + fused latch triple) on real loop work *)
  let work_image =
    let mf = MF.create "main" in
    List.iteri
      (fun k i ->
        let b = MF.add_block mf k in
        b.MF.code <- [ i ])
      [
        M.Mmov (R.gpr 1, M.Imm 1_000_000_000L);
        M.Mmov (R.gpr 2, M.Imm 0L);
        M.Mbin (Refine_ir.Ir.Add, R.gpr 2, R.gpr 2, M.Reg (R.gpr 1));
        M.Mbin (Refine_ir.Ir.Sub, R.gpr 1, R.gpr 1, M.Imm 1L);
        M.Mcmp (R.gpr 1, M.Imm 0L);
        M.Mjcc (M.CNe, 2);
        M.Mhalt;
      ];
    Refine_backend.Layout.build ~globals:[] [ mf ]
  in
  let spin_steps = 20_000_000 in
  let probe image ~decoded =
    let eng = Ex.create image in
    if decoded then Ex.install_decoded eng (Some (Ex.decode image));
    let s, () = timed (fun () -> ignore (Ex.run ~max_steps:(Int64.of_int spin_steps) eng)) in
    float_of_int spin_steps /. s
  in
  ignore (probe spin_image ~decoded:false) (* warm-up: page in the code and the image *);
  let legacy_ips = probe spin_image ~decoded:false in
  let decoded_ips = probe spin_image ~decoded:true in
  let speedup = decoded_ips /. legacy_ips in
  Printf.printf "spin loop, simulated instructions/sec: legacy %.2fM, decoded %.2fM (%.2fx)\n"
    (legacy_ips /. 1e6) (decoded_ips /. 1e6) speedup;
  let work_legacy_ips = probe work_image ~decoded:false in
  let work_decoded_ips = probe work_image ~decoded:true in
  let work_speedup = work_decoded_ips /. work_legacy_ips in
  Printf.printf "work loop, simulated instructions/sec: legacy %.2fM, decoded %.2fM (%.2fx)\n"
    (work_legacy_ips /. 1e6) (work_decoded_ips /. 1e6) work_speedup;
  (* fixed-seed outcome tables under every fault model, decoded off vs on *)
  let progs = [ "DC"; "EP" ] in
  let srcs = List.map (fun n -> (n, (Reg.find n).Reg.source)) progs in
  let n = min samples 48 in
  let models = [ "reg"; "mem"; "instr"; "multi:3"; "burst:4" ] in
  let key (c : E.cell) = (c.E.program, T.kind_name c.E.tool, c.E.counts, c.E.injection_cost) in
  let matrix () =
    List.map
      (fun name ->
        T.reset_artifact_caches ();
        List.map key (E.run_matrix ~model:(F.model_of_string name) ~samples:n ~seed srcs Rep.tools))
      models
  in
  T.use_decode := false;
  let legacy_tables = matrix () in
  T.use_decode := true;
  let decoded_tables = matrix () in
  let identical = legacy_tables = decoded_tables in
  Printf.printf "outcome tables (%s x 3 tools x %d, models %s): %s\n"
    (String.concat "+" progs) n (String.concat "/" models)
    (if identical then "bit-identical decoded vs legacy" else "MISMATCH decoded vs legacy");
  let oc = open_out "BENCH_decode.json" in
  Printf.fprintf oc
    "{\n  \"spin_steps\": %d,\n  \"legacy_sim_instr_per_s\": %.0f,\n  \
     \"decoded_sim_instr_per_s\": %.0f,\n  \"speedup\": %.2f,\n  \
     \"work_legacy_sim_instr_per_s\": %.0f,\n  \"work_decoded_sim_instr_per_s\": %.0f,\n  \
     \"work_speedup\": %.2f,\n  \
     \"outcome_models\": %d,\n  \"outcome_tables_identical\": %b\n}\n"
    spin_steps legacy_ips decoded_ips speedup work_legacy_ips work_decoded_ips work_speedup
    (List.length models) identical;
  close_out oc;
  Printf.printf "[decode throughput written to BENCH_decode.json]\n";
  if not identical then begin
    Printf.printf "[decode probe: DETERMINISM VIOLATION]\n";
    exit 1
  end

(* ---- Bechamel micro-benchmarks ------------------------------------------ *)

let bechamel_section () =
  let open Bechamel in
  let open Toolkit in
  section "Bechamel micro-benchmarks (the unit operation each table/figure repeats)";
  let src = (Reg.find "DC").Reg.source in
  let p_llfi = T.prepare T.Llfi src in
  let p_refine = T.prepare T.Refine src in
  let p_pinfi = T.prepare T.Pinfi src in
  let rng = Refine_support.Prng.create 99 in
  let inject p () = ignore (T.run_injection p (Refine_support.Prng.split rng)) in
  let chi2_input = [| [| 395; 168; 505 |]; [| 269; 70; 729 |] |] in
  let tests =
    [
      Test.make ~name:"figure4 injection-llfi(DC)" (Staged.stage (inject p_llfi));
      Test.make ~name:"figure4 injection-refine(DC)" (Staged.stage (inject p_refine));
      Test.make ~name:"figure4 injection-pinfi(DC)" (Staged.stage (inject p_pinfi));
      Test.make ~name:"table4+5 chi-squared-test"
        (Staged.stage (fun () -> ignore (Refine_stats.Chi2.test chi2_input)));
      Test.make ~name:"table6 classify-output"
        (Staged.stage (fun () ->
             ignore
               (Refine_core.Fault.classify p_pinfi.T.profile
                  {
                    Refine_machine.Exec.status = Refine_machine.Exec.Exited 0;
                    output = p_pinfi.T.profile.Refine_core.Fault.golden_output;
                    steps = 0L;
                    cost = 0L;
                    truncated = false;
                  })));
      Test.make ~name:"figure5 compile-pipeline(DC)"
        (Staged.stage (fun () ->
             let m = Refine_minic.Frontend.compile src in
             Refine_passes.Pipeline.optimize Refine_passes.Pipeline.O2 m;
             ignore (Refine_passes.Pipeline.compile m)));
      Test.make ~name:"listing1+2 refine-backend-pass(DC)"
        (Staged.stage (fun () ->
             let m = Refine_minic.Frontend.compile src in
             Refine_passes.Pipeline.optimize Refine_passes.Pipeline.O2 m;
             ignore
               (Refine_passes.Pipeline.run
                  (Refine_passes.Pipeline.parse "isel,regalloc,frame,peephole,refine-fi") m)));
    ]
  in
  let test = Test.make_grouped ~name:"refine" ~fmt:"%s %s" tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 500) () in
  let raw_results = Benchmark.all cfg instances test in
  let results = List.map (fun instance -> Analyze.all ols instance raw_results) instances in
  let results = Analyze.merge ols instances results in
  let rows = ref [] in
  Hashtbl.iter
    (fun _ v ->
      Hashtbl.iter
        (fun name ols_result ->
          let cell =
            match Analyze.OLS.estimates ols_result with
            | Some (est :: _) -> Printf.sprintf "%.0f" est
            | _ -> "n/a"
          in
          rows := (name, cell) :: !rows)
        v)
    results;
  let rows = List.sort compare !rows in
  Tbl.print
    ~align:[ Tbl.Left; Tbl.Right ]
    ~header:[ "operation"; "ns/run" ]
    (List.map (fun (n, e) -> [ n; e ]) rows)

(* ---- extensions: §4.5 opcode corruption, cited multi-bit variants,
   and the PreFI state-saving ablation ------------------------------------ *)

let extensions_section () =
  section "Extensions - opcode corruption (paper par. 4.5), double-bit faults, PreFI ablation";
  let src = (Reg.find "EP").Reg.source in
  let n = min samples 200 in
  (* opcode corruption *)
  let m = Refine_minic.Frontend.compile src in
  Refine_passes.Pipeline.optimize Refine_passes.Pipeline.O2 m;
  let image = Refine_passes.Pipeline.compile m in
  let p = Refine_core.Opcode_fi.profile image in
  let rng = Refine_support.Prng.create seed in
  let tally = Array.make 3 0 in
  for _ = 1 to n do
    let e = Refine_core.Opcode_fi.run_injection image p (Refine_support.Prng.split rng) in
    (match e.Refine_core.Fault.outcome with
    | Refine_core.Fault.Crash -> tally.(0) <- tally.(0) + 1
    | Refine_core.Fault.Soc -> tally.(1) <- tally.(1) + 1
    | Refine_core.Fault.Benign -> tally.(2) <- tally.(2) + 1
    | Refine_core.Fault.Tool_error -> ())
  done;
  Printf.printf
    "opcode corruption on EP (%Ld corruptible dynamic instrs, n=%d):\n  crash %d  SOC %d  benign %d\n"
    p.Refine_core.Fault.dyn_count n tally.(0) tally.(1) tally.(2);
  (* double-bit vs single-bit PINFI *)
  let run_flips flips =
    let prepared = T.prepare T.Pinfi src in
    let rng = Refine_support.Prng.create (seed + flips) in
    let t = Array.make 3 0 in
    for _ = 1 to n do
      let r = Refine_support.Prng.split rng in
      let target =
        Int64.to_int
          (Int64.add 1L (Refine_support.Prng.int64 r prepared.T.profile.Refine_core.Fault.dyn_count))
      in
      let ctrl =
        Refine_core.Pinfi.create ~flips
          (Refine_core.Runtime.Inject { target; rng = r; model = Refine_core.Fault.Reg_bit })
      in
      let eng = Refine_machine.Exec.create prepared.T.image in
      Refine_core.Pinfi.attach ctrl eng;
      let res =
        Refine_machine.Exec.run
          ~max_cost:(Int64.mul 10L prepared.T.profile.Refine_core.Fault.profile_cost) eng
      in
      match Refine_core.Fault.classify prepared.T.profile res with
      | Refine_core.Fault.Crash -> t.(0) <- t.(0) + 1
      | Refine_core.Fault.Soc -> t.(1) <- t.(1) + 1
      | Refine_core.Fault.Benign -> t.(2) <- t.(2) + 1
      | Refine_core.Fault.Tool_error -> ()
    done;
    t
  in
  let one = run_flips 1 and two = run_flips 2 in
  Printf.printf
    "multi-bit model on EP (n=%d): 1-bit crash/SOC/benign %d/%d/%d ; 2-bit %d/%d/%d\n" n
    one.(0) one.(1) one.(2) two.(0) two.(1) two.(2);
  (* PreFI flags-saving ablation: without it, even profiling diverges *)
  let m2 = Refine_minic.Frontend.compile src in
  Refine_passes.Pipeline.optimize Refine_passes.Pipeline.O2 m2;
  let ctx = { Refine_passes.Pass.default_ctx with Refine_passes.Pass.save_flags = false } in
  let image2 =
    Option.get
      (Refine_passes.Pipeline.run ~ctx
         (Refine_passes.Pipeline.parse "isel,regalloc,frame,peephole,refine-fi,layout") m2)
        .Refine_passes.Pipeline.image
  in
  let ctrl = Refine_core.Runtime.create Refine_core.Runtime.Profile in
  let eng = Refine_machine.Exec.create ~ext_extra:(Refine_core.Runtime.refine_handlers ctrl) image2 in
  let r = Refine_machine.Exec.run ~max_cost:500_000_000L eng in
  let golden = (T.prepare T.Pinfi src).T.profile.Refine_core.Fault.golden_output in
  let diverged =
    match r.Refine_machine.Exec.status with
    | Refine_machine.Exec.Exited 0 -> r.Refine_machine.Exec.output <> golden
    | _ -> true
  in
  Printf.printf
    "PreFI ablation (no FLAGS save/restore): fault-free run %s - Figure 2's state saving is load-bearing\n"
    (if diverged then "DIVERGES from golden output" else "unexpectedly matches")

(* ---- BENCH_shard.json: sharded-campaign throughput + recovery probe ------
   A small fixed matrix (DC+EP x 3 tools) sharded over 1, 2 and 4 worker
   processes, plus one 2-worker run with a SIGKILL mid-campaign.  Every
   configuration must produce identical counts (the determinism guarantee);
   the probe reports throughput per worker count and the wall-clock cost of
   one kill-and-reassign cycle. *)

let shard_section () =
  let module C = Refine_campaign.Coordinator in
  section "Sharded campaign (worker processes, crash recovery)";
  let progs = [ "DC"; "EP" ] in
  let srcs = List.map (fun n -> (n, (Reg.find n).Reg.source)) progs in
  let n = min samples 48 in
  let experiments = List.length progs * 3 * n in
  let key (c : E.cell) = (c.E.program, T.kind_name c.E.tool, c.E.counts, c.E.injection_cost) in
  let run ?(chaos = C.no_chaos) workers =
    let options = { C.default_options with C.workers; chaos } in
    let t0 = Unix.gettimeofday () in
    let cells = C.run_matrix ~options ~samples:n ~seed srcs Rep.tools in
    (Unix.gettimeofday () -. t0, List.map key cells)
  in
  let counter name =
    match Obs.Metrics.find name [] with Some (Obs.Metrics.Counter v) -> v | _ -> 0L
  in
  let runs = List.map (fun w -> (w, run w)) [ 1; 2; 4 ] in
  let _, (_, reference) = List.hd runs in
  List.iter
    (fun (w, (wall, keys)) ->
      Printf.printf "  workers=%d  %6.2fs  %7.0f samples/s  %s\n" w wall
        (float_of_int experiments /. wall)
        (if keys = reference then "bit-identical" else "MISMATCH"))
    runs;
  let reassigned0 = counter "refine_shard_reassigned_cells_total" in
  let kill_wall, kill_keys =
    run ~chaos:{ C.no_chaos with C.kill_worker = Some (0, experiments / 4) } 2
  in
  let reassigned = Int64.sub (counter "refine_shard_reassigned_cells_total") reassigned0 in
  let base_wall = List.assoc 2 (List.map (fun (w, (wall, _)) -> (w, wall)) runs) in
  Printf.printf "  kill drill (workers=2, 1 SIGKILL): %6.2fs (+%.2fs vs clean), %Ld reassigned, %s\n"
    kill_wall (kill_wall -. base_wall) reassigned
    (if kill_keys = reference then "bit-identical" else "MISMATCH");
  let oc = open_out "BENCH_shard.json" in
  Printf.fprintf oc "{\n  \"experiments\": %d,\n  \"configs\": [\n%s\n  ],\n" experiments
    (String.concat ",\n"
       (List.map
          (fun (w, (wall, keys)) ->
            Printf.sprintf
              "    { \"workers\": %d, \"wall_s\": %.6f, \"samples_per_s\": %.1f, \"identical\": %b }"
              w wall
              (float_of_int experiments /. wall)
              (keys = reference))
          runs));
  Printf.fprintf oc
    "  \"kill_drill\": { \"workers\": 2, \"wall_s\": %.6f, \"overhead_s\": %.6f, \"reassigned_samples\": %Ld, \"identical\": %b }\n}\n"
    kill_wall (kill_wall -. base_wall) reassigned (kill_keys = reference);
  close_out oc;
  Printf.printf "[shard probe written to BENCH_shard.json]\n";
  if List.exists (fun (_, (_, keys)) -> keys <> reference) runs || kill_keys <> reference then begin
    Printf.printf "[shard probe: DETERMINISM VIOLATION]\n";
    exit 1
  end

(* ---- BENCH_faultmodels.json: cross-layer fault-model probe ----------------
   DESIGN.md §18: the same (DC+EP x 3 tools) matrix under every fault model
   — register bit (the paper's), memory cell, instruction image, 3-bit
   independent and 4-bit burst.  Reports per-model campaign wall time
   (overhead vs reg) and the outcome-distribution shift vs the reg-bit
   reference (total variation distance over crash/SOC/benign), and checks
   the new refine_injections_total{tool,model} series lint clean. *)

let faultmodels_section () =
  section "Cross-layer fault models (reg / mem / instr / multi:3 / burst:4)";
  let module F = Refine_core.Fault in
  let progs = [ "DC"; "EP" ] in
  let srcs = List.map (fun n -> (n, (Reg.find n).Reg.source)) progs in
  let n = min samples 48 in
  let models = [ "reg"; "mem"; "instr"; "multi:3"; "burst:4" ] in
  let dist (cells : E.cell list) =
    let tot = List.fold_left (fun acc (c : E.cell) -> acc + E.total c.E.counts) 0 cells in
    let sum f = List.fold_left (fun acc (c : E.cell) -> acc + f c.E.counts) 0 cells in
    let p x = float_of_int x /. float_of_int (max 1 tot) in
    (p (sum (fun c -> c.E.crash)), p (sum (fun c -> c.E.soc)), p (sum (fun c -> c.E.benign)))
  in
  let tv (c1, s1, b1) (c2, s2, b2) =
    0.5 *. (abs_float (c1 -. c2) +. abs_float (s1 -. s2) +. abs_float (b1 -. b2))
  in
  let runs =
    List.map
      (fun name ->
        let model = F.model_of_string name in
        let t0 = Unix.gettimeofday () in
        let cells = E.run_matrix ~model ~samples:n ~seed srcs Rep.tools in
        (name, Unix.gettimeofday () -. t0, dist cells))
      models
  in
  let _, reg_wall, reg_dist = List.hd runs in
  List.iter
    (fun (name, wall, d) ->
      let c, s, b = d in
      Printf.printf "  %-8s %6.2fs (%.2fx vs reg)  crash/SOC/benign %4.1f/%4.1f/%4.1f%%  shift vs reg %.3f\n"
        name wall
        (if reg_wall > 0.0 then wall /. reg_wall else 0.0)
        (100.0 *. c) (100.0 *. s) (100.0 *. b) (tv d reg_dist))
    runs;
  (* the per-model injection counters must lint clean *)
  (match Promlint.lint (Obs.Metrics.dump ()) with
  | [] -> Printf.printf "  promlint: injection counters clean\n"
  | errs ->
    Printf.printf "[fault-model probe: PROMLINT VIOLATION: %s]\n" (String.concat "; " errs);
    exit 1);
  let oc = open_out "BENCH_faultmodels.json" in
  Printf.fprintf oc "{\n  \"experiments_per_model\": %d,\n  \"models\": [\n%s\n  ]\n}\n"
    (List.length progs * 3 * n)
    (String.concat ",\n"
       (List.map
          (fun (name, wall, d) ->
            let c, s, b = d in
            Printf.sprintf
              "    { \"model\": \"%s\", \"wall_s\": %.6f, \"overhead_vs_reg\": %.3f, \
               \"crash\": %.4f, \"soc\": %.4f, \"benign\": %.4f, \"shift_vs_reg\": %.4f }"
              name wall
              (if reg_wall > 0.0 then wall /. reg_wall else 0.0)
              c s b (tv d reg_dist))
          runs));
  close_out oc;
  Printf.printf "[fault-model probe written to BENCH_faultmodels.json]\n"

(* ---- live status endpoint overhead probe ---------------------------------
   DESIGN.md §17: with observability on, workers forward telemetry from
   their heartbeat slot whether or not anyone is watching; the /status
   server adds an accept loop to the coordinator's select rotation.  This
   probe runs the same 2-worker campaign with the server off and on — the
   delta is the cost of serving live status, and it must stay at noise
   level.  Returns the JSON fragment embedded in BENCH_obs.json. *)

let live_section () =
  let module C = Refine_campaign.Coordinator in
  section "Live status endpoint (2-worker campaign, server off vs on)";
  let progs = [ "DC"; "EP" ] in
  let srcs = List.map (fun n -> (n, (Reg.find n).Reg.source)) progs in
  let n = min samples 48 in
  let experiments = List.length progs * 3 * n in
  let key (c : E.cell) = (c.E.program, T.kind_name c.E.tool, c.E.counts, c.E.injection_cost) in
  let run status =
    let options = { C.default_options with C.workers = 2; status } in
    let t0 = Unix.gettimeofday () in
    let cells = C.run_matrix ~options ~samples:n ~seed srcs Rep.tools in
    (Unix.gettimeofday () -. t0, List.map key cells)
  in
  (* unmeasured warmup: the first worker fleet pays cold-start costs
     (page cache, allocator growth) that would masquerade as overhead *)
  ignore (run None);
  let off_s, off_keys = run None in
  let srv = Obs.Serve.create () in
  let port = Obs.Serve.port srv in
  let on_s, on_keys = run (Some srv) in
  Obs.Serve.close srv;
  let overhead_pct = if off_s > 0.0 then 100.0 *. ((on_s /. off_s) -. 1.0) else 0.0 in
  let identical = off_keys = on_keys in
  Printf.printf "  server off %.2fs, on %.2fs (port %d): %+.1f%% overhead, %s\n" off_s on_s port
    overhead_pct
    (if identical then "bit-identical" else "MISMATCH");
  if not identical then begin
    Printf.printf "[live probe: DETERMINISM VIOLATION]\n";
    exit 1
  end;
  Printf.sprintf
    "{ \"workers\": 2, \"experiments\": %d, \"server_off_wall_s\": %.6f, \"server_on_wall_s\": \
     %.6f, \"overhead_pct\": %.2f, \"identical\": %b }"
    experiments off_s on_s overhead_pct identical

(* ---- main ---------------------------------------------------------------- *)

(* when a shard coordinator (the campaign above, or another process) spawns
   this binary as a worker, serve frames and exit before benchmarking *)
let () = Refine_campaign.Worker.maybe_exec ()

let () =
  (* the simulator allocates small boxed values at a high rate; a larger
     minor heap keeps the GC out of the hot loop *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  Printf.printf
    "REFINE reproduction - evaluation harness (paper: SC'17, 10.1145/3126908.3126972)\n";
  Printf.printf "programs: %s\n" (String.concat ", " programs);
  let obs = getenv_default "REFINE_OBS" "1" <> "0" in
  if obs then Obs.Control.enable ();
  let fastpath = getenv_default "REFINE_FASTPATH" "1" <> "0" in
  T.use_fast_path := fastpath;
  print_table3 ();
  print_setting ();
  print_listings ();
  let cells, campaign_wall = run_campaign () in
  print_figure4 cells;
  print_table4 cells;
  print_table5 cells;
  print_table6 cells;
  print_figure5 cells;
  print_overhead cells;
  let obs_counters = if obs then Some (capture_obs_counters ()) else None in
  if getenv_default "REFINE_QUOTAS" "1" <> "0" then quotas_section ();
  if getenv_default "REFINE_PASSES" "1" <> "0" then passes_section ();
  if fastpath then begin
    let experiments = List.length programs * 3 * samples in
    let campaign_sps =
      if campaign_wall > 0.0 then float_of_int experiments /. campaign_wall else 0.0
    in
    fastpath_section ~campaign_sps ()
  end;
  if getenv_default "REFINE_DECODE" "1" <> "0" then decode_section ();
  if getenv_default "REFINE_SHARD" "1" <> "0" then shard_section ();
  if getenv_default "REFINE_FAULTMODELS" "1" <> "0" then faultmodels_section ();
  let live =
    if obs && getenv_default "REFINE_LIVE" "1" <> "0" then Some (live_section ()) else None
  in
  (match obs_counters with
  | Some counters -> write_obs_json ?live counters cells campaign_wall
  | None -> ());
  if getenv_default "REFINE_EXTENSIONS" "1" <> "0" then extensions_section ();
  if getenv_default "REFINE_BECHAMEL" "1" <> "0" then bechamel_section ();
  print_newline ()
