(* perfbench — the repository's campaign benchmark.

   Each workload runs a fault-injection campaign the way a researcher runs
   one (Experiment.run_matrix in-process, or Coordinator.run_matrix over
   worker processes with a journal), with tracing off, and reports the
   end-to-end metrics.  With [--trace 1] it instead runs the same campaign
   untraced and traced, drives Tool.run_injection directly over the same
   per-sample PRNG splits, and reports per-layer metrics timed around the
   calls into each layer from this file.  Workloads, metrics and the
   layer -> end-to-end map are documented in README.md next to this file.

   Usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
   The last line of standard output is the JSON result. *)

let work_dir = Filename.concat ".bench_build" "perfbench"

(* peak resident set of this process, from the kernel's high-water mark *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> float kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

(* restart the high-water mark, so the peak covers only what follows *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

let worker_rss_file pid = Filename.concat work_dir (Printf.sprintf "worker.%d.rss" pid)

(* The sharded-short workload re-executes this binary as its shard
   workers, so serving worker frames comes first; a worker leaves its peak
   resident set behind for peak_rss_mb when it exits. *)
let () =
  (match Sys.getenv_opt Refine_campaign.Worker.env_var with
  | Some v when v <> "" && v <> "0" ->
    at_exit (fun () ->
        try
          let oc = open_out (worker_rss_file (Unix.getpid ())) in
          Printf.fprintf oc "%f\n" (peak_rss_mb ());
          close_out oc
        with Sys_error _ -> ())
  | _ -> ());
  Refine_campaign.Worker.maybe_exec ()

module T = Refine_core.Tool
module F = Refine_core.Fault
module P = Refine_support.Prng
module X = Refine_campaign.Experiment
module C = Refine_campaign.Coordinator
module J = Refine_campaign.Journal
module Rep = Refine_campaign.Report
module Reg = Refine_bench_progs.Registry
module Pl = Refine_passes.Pipeline
module E = Refine_machine.Exec
module Obs = Refine_obs

type workload = {
  name : string;
  programs : string list;
  model : F.model;
  samples : int;  (** per (program, tool) cell *)
  sharded : bool;  (** Coordinator with worker processes and a journal *)
}

(* Sample counts give paper-reg rounds of 6-10 s and sharded-short rounds
   of 4-6 s on a 2-core host, so a 45 s run holds several rounds.  hang-mem
   is not in BENCHMARK.json: its samples/s depends on how many of a seed's
   draws hang (README.md). *)
let workloads =
  [
    { name = "paper-reg"; programs = Reg.names; model = F.Reg_bit; samples = 20; sharded = false };
    {
      name = "hang-mem";
      programs = [ "DC"; "EP"; "CG" ];
      model = F.Mem_cell;
      samples = 44;
      sharded = false;
    };
    {
      name = "sharded-short";
      programs = Reg.names;
      model = F.Reg_bit;
      samples = 12;
      sharded = true;
    };
  ]

let tools = [ T.Pinfi; T.Refine; T.Llfi ]
let tool_name k = String.lowercase_ascii (T.kind_name k)

(* cold preparations per run whose median is setup_s *)
let setup_reps = 3

(* sample indices of every cell re-run on the reference oracle *)
let oracle_samples w = [ 0; w.samples - 1 ]

(* never more workers than cores: on a 2-core host more only oversubscribe *)
let workers = max 1 (min 2 (Domain.recommended_domain_count ()))

(* ---- small helpers ----------------------------------------------------- *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sum = List.fold_left ( +. ) 0.0

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest-rank percentile *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

let ratio a b = if b = 0.0 then 0.0 else a /. b

let problems = ref []

let check ok fmt =
  Printf.ksprintf (fun msg -> if not ok then problems := msg :: !problems) fmt

let sources w = List.map (fun p -> (p, (Reg.find p).Reg.source)) w.programs

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let git_sha () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let sha = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if sha = "" then "unknown" else sha
  with _ -> "unknown"

(* ---- host speed reference ---------------------------------------------- *)

(* On a shared host the speed of a core drifts by up to 1.7x over minutes,
   which no number of rounds inside one run averages out.  Next to every
   timed call the benchmark therefore times a fixed kernel that uses no
   repository code, on as many cores at once as the call keeps busy.
   samples_per_ref_s divides the sampling wall time by the median kernel
   time of the run, so it follows the program and not the host.  The
   kernel is random 64-bit loads and stores, one cache line apart, mixed
   with integer arithmetic, over a 4 MiB and a 16 MiB working set: of the
   kernels tried (1, 4 and 16 MiB random, a 64 MiB pointer chase, 8 MiB
   copies) this pair tracked both workloads' drift best. *)
let ref_sets =
  List.map
    (fun (mib, steps) -> (Bytes.make (mib lsl 20) '\000', steps))
    [ (4, 300_000); (16, 200_000) ]

let ref_kernel () =
  List.iter
    (fun (mem, steps) ->
      let mask = Bytes.length mem - 8 in
      let x = ref 12345 and acc = ref 0 in
      for _ = 1 to steps do
        x := ((!x * 1103515245) + 12345) land 0x3fffffff;
        let a = (!x * 64) land mask in
        match (!x lsr 26) land 3 with
        | 0 -> acc := !acc + Int64.to_int (Bytes.get_int64_le mem a)
        | 1 -> Bytes.set_int64_le mem a (Int64.of_int !acc)
        | 2 -> acc := !acc lxor !x
        | _ -> acc := (!acc * 3) + 1
      done;
      ignore (Sys.opaque_identity !acc))
    ref_sets

(* a reference second: this many kernel runs (about 1 s on a quiet
   2-vCPU Xeon host) *)
let ref_runs_per_s = 160.0

(* [n] kernel times on each of [cores] cores at once *)
let ref_times ~cores n =
  let run () = List.init n (fun _ -> snd (timed ref_kernel)) in
  let others = List.init (cores - 1) (fun _ -> Domain.spawn run) in
  let mine = run () in
  mine @ List.concat_map Domain.join others

(* cores a leg keeps busy: its shard workers, or the library's domains *)
let busy_cores w = if w.sharded then workers else Refine_support.Parallel.default_domains ()

(* ---- campaign legs ------------------------------------------------------ *)

type sample = { outcome : F.outcome; cost : int64 }

let record tbl (e : J.entry) =
  Hashtbl.replace tbl (e.J.program, e.J.sample) { outcome = e.J.outcome; cost = e.J.cost }

type leg = {
  tool : T.kind;
  calls : float list;  (** wall time of each timed run_matrix call *)
  refs : float list;  (** reference-kernel times taken next to the calls *)
  cells : X.cell list;
  resolved : (string * int, sample) Hashtbl.t;  (** (program, index) -> result *)
}

(* per-sample results of an in-process leg, collected through the same
   checkpoint interface a journal uses *)
let collecting_sink tbl =
  {
    J.resolved = (fun ~program:_ ~tool:_ ~model:_ -> Hashtbl.create 1);
    push = record tbl;
    push_quarantine = (fun ~program:_ ~tool:_ ~reason:_ -> ());
    find_quarantine = (fun ~program:_ ~tool:_ -> None);
  }

(* One tool leg.  Sharded: one Coordinator.run_matrix call over every
   program, timed as a whole, with reference-kernel times before and
   after.  In-process: one Experiment.run_matrix call per program, each
   timed on its own after one reference-kernel time, so the traced run can
   take the best of two rounds call by call. *)
let run_leg w ~seed tool =
  let resolved = Hashtbl.create 1024 in
  let srcs = sources w in
  let cores = busy_cores w in
  if w.sharded then begin
    let path = Filename.concat work_dir (w.name ^ "." ^ tool_name tool ^ ".journal") in
    let j = J.create path in
    let before = ref_times ~cores 4 in
    let cells, wall =
      timed (fun () ->
          C.run_matrix ~options:{ C.default_options with C.workers } ~journal:j ~model:w.model
            ~samples:w.samples ~seed srcs [ tool ])
    in
    J.close j;
    List.iter (record resolved) (J.entries j);
    Sys.remove path;
    let after = ref_times ~cores 4 in
    { tool; calls = [ wall ]; refs = before @ after; cells; resolved }
  end
  else
    let runs =
      List.map
        (fun src ->
          let refs = ref_times ~cores 1 in
          let r =
            timed (fun () ->
                X.run_matrix ~sink:(collecting_sink resolved) ~model:w.model ~samples:w.samples
                  ~seed [ src ] [ tool ])
          in
          (r, refs))
        srcs
    in
    {
      tool;
      calls = List.map (fun ((_, wall), _) -> wall) runs;
      refs = List.concat_map snd runs;
      cells = List.concat_map (fun ((cells, _), _) -> cells) runs;
      resolved;
    }

let run_round w ~seed = List.map (run_leg w ~seed) tools

let leg_samples l = List.fold_left (fun n c -> n + X.attempted c.X.counts) 0 l.cells

let leg_failed l =
  List.fold_left
    (fun n c ->
      n + c.X.counts.X.tool_error + if c.X.quarantined <> None then c.X.samples else 0)
    0 l.cells

(* For the traced run's per-layer rates: contention only ever adds time,
   so each timed call counts with its fastest round. *)
let best_wall rounds k =
  match List.map (fun legs -> (List.find (fun l -> l.tool = k) legs).calls) rounds with
  | first :: rest -> sum (List.fold_left (List.map2 Float.min) first rest)
  | [] -> nan

let tool_samples rounds k = leg_samples (List.find (fun l -> l.tool = k) (List.hd rounds))

(* resolved samples of the tools [ks] per second of their best call times *)
let rate rounds ks =
  float (List.fold_left (fun n k -> n + tool_samples rounds k) 0 ks)
  /. sum (List.map (best_wall rounds) ks)

(* legs of tool [k], or of every tool *)
let legs_of ?k rounds =
  List.concat_map (List.filter (fun l -> match k with None -> true | Some k -> l.tool = k)) rounds

(* resolved samples per second of summed sampling wall time *)
let wall_rate ?k rounds =
  let legs = legs_of ?k rounds in
  float (List.fold_left (fun n l -> n + leg_samples l) 0 legs)
  /. sum (List.concat_map (fun l -> l.calls) legs)

(* median reference-kernel time over every leg of the run *)
let ref_median rounds = median (List.concat_map (fun l -> l.refs) (legs_of rounds))

(* the same per reference second: wall time over the run's median kernel
   time, in units of ref_runs_per_s kernel runs *)
let ref_rate rounds = wall_rate rounds *. ref_median rounds *. ref_runs_per_s

(* what must be bit-identical between rounds, engines and the traced run *)
let cell_table legs =
  List.concat_map
    (fun l ->
      List.map
        (fun c ->
          (c.X.program, T.kind_name c.X.tool, c.X.counts, c.X.injection_cost, c.X.quarantined))
        l.cells)
    legs

(* peaks left behind by exited shard workers (and forget them) *)
let take_worker_peaks () =
  Array.fold_left
    (fun peak f ->
      if String.starts_with ~prefix:"worker." f && Filename.check_suffix f ".rss" then begin
        let path = Filename.concat work_dir f in
        let v =
          try
            In_channel.with_open_text path (fun ic ->
                float_of_string (String.trim (In_channel.input_all ic)))
          with Failure _ | Sys_error _ -> 0.0
        in
        Sys.remove path;
        Float.max peak v
      end
      else peak)
    0.0 (Sys.readdir work_dir)

(* Rounds of the same fixed sample set until the measured time is used up
   (at least two), and the peak resident set of any process that ran them. *)
let sample_phase w ~seed ~seconds =
  ignore (take_worker_peaks ());
  Gc.compact ();
  reset_peak_rss ();
  let t0 = now () in
  let rec go acc =
    let acc = run_round w ~seed :: acc in
    let elapsed = now () -. t0 in
    if List.length acc < 2 || elapsed +. (elapsed /. float (List.length acc)) <= seconds then go acc
    else List.rev acc
  in
  let rounds = go [] in
  (rounds, Float.max (peak_rss_mb ()) (take_worker_peaks ()))

(* ---- set-up ------------------------------------------------------------- *)

let prepare_all w =
  List.concat_map
    (fun (p, src) -> List.map (fun k -> ((p, k), T.prepare k src)) tools)
    (sources w)

(* cold Tool.prepare of every cell after dropping every artifact-cache
   tier; leaves the caches warm for sampling *)
let setup_phase w =
  median
    (List.init setup_reps (fun _ ->
         T.reset_artifact_caches ();
         Gc.compact ();
         snd (timed (fun () -> ignore (prepare_all w)))))

(* ---- correctness gate (outside every timed region) ---------------------- *)

let splits w ~seed ~program tool =
  let master = P.create (X.cell_seed ~model:w.model ~seed ~program tool) in
  Array.init w.samples (fun _ -> P.split master)

(* Every tool's golden output and exit code equal the IR interpreter on the
   unoptimised front-end IR, which shares no code with the backend. *)
let golden_gate w profiles =
  List.iter
    (fun (p, src) ->
      let r = Refine_ir.Interp.run (Refine_minic.Frontend.compile src) in
      List.iter
        (fun k ->
          let pr = List.assoc (p, k) profiles in
          check
            (pr.F.golden_output = r.Refine_ir.Interp.output
            && pr.F.golden_exit = r.Refine_ir.Interp.exit_code)
            "%s/%s: golden output or exit code differs from Interp.run" p (T.kind_name k))
        tools)
    (sources w)

(* The reference oracle: legacy interpreter, no detach, allocate-per-sample
   engines, every artifact cache off. *)
let with_oracle f =
  let decode = !T.use_decode and detach = !T.use_detach and fast = !T.use_fast_path in
  let cache = !Refine_passes.Artifact_cache.enabled in
  T.use_decode := false;
  T.use_detach := false;
  T.use_fast_path := false;
  Refine_passes.Artifact_cache.enabled := false;
  Fun.protect
    ~finally:(fun () ->
      T.use_decode := decode;
      T.use_detach := detach;
      T.use_fast_path := fast;
      Refine_passes.Artifact_cache.enabled := cache)
    f

let oracle_gate w ~seed profiles legs =
  with_oracle (fun () ->
      List.iter
        (fun l ->
          List.iter
            (fun (p, src) ->
              let o = T.prepare ~cache:false l.tool src in
              check
                (o.T.profile = List.assoc (p, l.tool) profiles)
                "%s/%s: oracle profile differs" p (T.kind_name l.tool);
              let bases = splits w ~seed ~program:p l.tool in
              List.iter
                (fun i ->
                  let e =
                    T.run_injection ~quotas:T.default_quotas ~model:w.model o (P.copy bases.(i))
                  in
                  match Hashtbl.find_opt l.resolved (p, i) with
                  | Some s ->
                    check
                      (s.outcome = e.F.outcome && s.cost = e.F.run_cost)
                      "%s/%s sample %d: campaign %s/%Ld vs oracle %s/%Ld" p (T.kind_name l.tool) i
                      (F.string_of_outcome s.outcome) s.cost (F.string_of_outcome e.F.outcome)
                      e.F.run_cost
                  | None -> check false "%s/%s sample %d: not resolved" p (T.kind_name l.tool) i)
                (oracle_samples w);
              (* each uncached preparation leaves megabytes of images behind *)
              Gc.full_major ())
            (sources w))
        legs)

(* per-sample results add up to each cell's counts and summed cost *)
let sum_gate legs =
  List.iter
    (fun l ->
      List.iter
        (fun c ->
          let counts = ref X.zero and cost = ref 0L in
          for i = 0 to c.X.samples - 1 do
            match Hashtbl.find_opt l.resolved (c.X.program, i) with
            | Some s ->
              counts := X.add_outcome !counts s.outcome;
              cost := Int64.add !cost s.cost
            | None -> ()
          done;
          check
            (!counts = c.X.counts && !cost = c.X.injection_cost)
            "%s/%s: per-sample results do not add up to the cell" c.X.program
            (T.kind_name c.X.tool))
        l.cells)
    legs

let profiles prepared = List.map (fun (cell, pr) -> (cell, pr.T.profile)) prepared

let gate w ~seed profiles rounds =
  golden_gate w profiles;
  let first = List.hd rounds in
  List.iteri
    (fun r legs -> check (cell_table legs = cell_table first) "round %d differs from round 0" r)
    rounds;
  sum_gate first;
  oracle_gate w ~seed profiles first

(* ---- output ------------------------------------------------------------- *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_line w (n, v, u) = Printf.printf "%-40s %16.6g %s\n" (w.name ^ " " ^ n) v u

let emit w ~seed ~attempted ~failed metrics =
  List.iter (print_line w) metrics;
  Printf.printf
    "{\"host\": {\"nproc\": %d, \"ocaml\": \"%s\", \"git_sha\": \"%s\", \"seed\": %d, \
     \"workload\": \"%s\", \"samples_per_cell\": %d, \"workers\": %d}}\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version (git_sha ()) seed w.name w.samples
    (if w.sharded then workers else 0);
  let correct = !problems = [] in
  List.iter (fun p -> prerr_endline ("perfbench: check failed: " ^ p)) (List.rev !problems);
  let field (n, v, u) =
    Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_num v) u
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map field metrics));
  if not correct then exit 1

(* ---- end-to-end run (--trace 0) ----------------------------------------- *)

let end_to_end w ~seed ~seconds =
  (* shard workers always start cold: sharded-short samples first, so the
     coordinator's peak does not carry the in-process set-up *)
  let sharded = if w.sharded then Some (sample_phase w ~seed ~seconds) else None in
  let setup_s = setup_phase w in
  let golden = profiles (prepare_all w) in
  let rounds, peak_rss =
    match sharded with Some r -> r | None -> sample_phase w ~seed ~seconds
  in
  gate w ~seed golden rounds;
  let all = List.concat rounds in
  let attempted = List.fold_left (fun n l -> n + leg_samples l) 0 all in
  let failed = List.fold_left (fun n l -> n + leg_failed l) 0 all in
  Printf.printf "%s: %d round(s) of %d samples, failed_share %g\n" w.name (List.length rounds)
    (attempted / List.length rounds) (ratio (float failed) (float attempted));
  (* wall-clock rates for reading only: they follow the host's speed
     (README.md) *)
  print_line w ("samples_per_s", wall_rate rounds, "1/s");
  List.iter
    (fun k -> print_line w ("samples_per_s." ^ tool_name k, wall_rate ~k rounds, "1/s"))
    tools;
  print_line w ("ref_kernel_ms", ref_median rounds *. 1000.0, "ms");
  emit w ~seed ~attempted ~failed
    [
      ("samples_per_ref_s", ref_rate rounds, "1/ref_s");
      ("setup_s", setup_s, "s");
      ("peak_rss_mb", peak_rss, "MB");
    ]

(* ---- traced run (--trace 1) --------------------------------------------- *)

(* time a call into a layer from this file; while the observability layer
   is on, the call is also recorded as a span *)
let traced ?(attrs = []) name f = Obs.Span.with_ ~attrs name (fun () -> timed f)

(* merged registry value of every series of [name] whose labels pass [where] *)
let metric ?(where = fun _ -> true) name =
  List.fold_left
    (fun acc (n, labels, v) ->
      if n <> name || not (where labels) then acc
      else
        acc
        +.
        match v with
        | Obs.Metrics.Counter c -> Int64.to_float c
        | Obs.Metrics.Gauge g -> g
        | Obs.Metrics.Histogram h -> h.Obs.Metrics.sum)
    0.0 (Obs.Metrics.snapshot ())

let for_tool k labels = List.assoc_opt "tool" labels = Some (T.kind_name k)

(* front end, IR optimisation and backend, timed stage by stage *)
let stage_metrics w =
  let fe = ref 0.0 and opt = ref 0.0 and cg = ref 0.0 and spills = ref 0 in
  List.iter
    (fun (_, src) ->
      let m, t = traced "minic.compile" (fun () -> Refine_minic.Frontend.compile src) in
      fe := !fe +. t;
      let (), t = traced "passes.ir_opt" (fun () -> ignore (Pl.run_ir T.default_pipeline m)) in
      opt := !opt +. t;
      let funcs, t =
        traced "backend.codegen" (fun () ->
            let funcs = Pl.to_mir m in
            ignore (Pl.emit m funcs);
            funcs)
      in
      cg := !cg +. t;
      spills :=
        List.fold_left (fun acc mf -> acc + (mf.Refine_mir.Mfunc.frame_bytes / 8)) !spills funcs)
    (sources w);
  [
    ("minic.compile_s", !fe, "s");
    ("passes.ir_opt_s", !opt, "s");
    ("backend.codegen_s", !cg, "s");
    ("backend.spill_slots", float !spills, "count");
  ]

(* each tool prepared from cold caches, then again warm *)
let prepare_metrics w =
  List.concat_map
    (fun k ->
      T.reset_artifact_caches ();
      let pass () =
        sum
          (List.map
             (fun (_, src) -> snd (traced "tool.prepare" (fun () -> T.prepare k src)))
             (sources w))
      in
      let cold = pass () in
      let warm = pass () in
      [
        ("tool.prepare_cold_s." ^ tool_name k, cold, "s");
        ("tool.prepare_warm_s." ^ tool_name k, warm, "s");
      ])
    tools

let hit_rate (s : Refine_passes.Artifact_cache.stats) =
  ratio (float s.Refine_passes.Artifact_cache.hits)
    (float (s.Refine_passes.Artifact_cache.hits + s.Refine_passes.Artifact_cache.misses))

type direct = {
  d_tool : T.kind;
  d_ms : float list;  (** per-sample wall time *)
  d_cost : int64;
  d_timeouts : int;
  d_table : (string * string * X.counts * int64 * string option) list;
}

(* Tool.run_injection driven directly over the run_cell splits: the same
   samples as the campaign, each timed on its own *)
let direct_leg w ~seed k =
  let ms = ref [] and cost = ref 0L and timeouts = ref 0 and table = ref [] in
  List.iter
    (fun (p, src) ->
      let attrs = [ ("program", p); ("tool", T.kind_name k) ] in
      let pr, _ = traced ~attrs "tool.prepare" (fun () -> T.prepare k src) in
      let timeout = Int64.mul Refine_core.Fi_cost.timeout_factor pr.T.profile.F.profile_cost in
      let counts = ref X.zero and cell_cost = ref 0L in
      Array.iter
        (fun base ->
          let e, dt =
            traced ~attrs "tool.run_injection" (fun () ->
                T.run_injection ~quotas:T.default_quotas ~model:w.model pr (P.copy base))
          in
          ms := (dt *. 1000.0) :: !ms;
          if Int64.compare e.F.run_cost timeout >= 0 then incr timeouts;
          counts := X.add_outcome !counts e.F.outcome;
          cell_cost := Int64.add !cell_cost e.F.run_cost)
        (splits w ~seed ~program:p k);
      cost := Int64.add !cost !cell_cost;
      table := (p, T.kind_name k, !counts, !cell_cost, None) :: !table)
    (sources w);
  { d_tool = k; d_ms = !ms; d_cost = !cost; d_timeouts = !timeouts; d_table = List.rev !table }

(* golden (fault-free) simulation speed, its classification, and static
   fusion sites *)
let engine_metrics w prepared =
  let per_tool =
    List.concat_map
      (fun k ->
        let steps, wall =
          List.fold_left
            (fun (steps, wall) (p, _) ->
              let pr = List.assoc (p, k) prepared in
              let r, dt = traced "tool.run_clean" (fun () -> T.run_clean pr) in
              let outcome, _ = traced "fault.classify" (fun () -> F.classify pr.T.profile r) in
              check (outcome = F.Benign) "%s/%s: fault-free run does not classify benign" p
                (T.kind_name k);
              (Int64.add steps r.E.steps, wall +. dt))
            (0L, 0.0) (sources w)
        in
        [ ("exec.golden_sim_instr_per_s." ^ tool_name k, Int64.to_float steps /. wall, "1/s") ])
      tools
  in
  let fused = Array.make (Array.length E.idioms) 0 in
  List.iter
    (fun (_, (pr : T.prepared)) ->
      let dprog, _ = traced "exec.decode" (fun () -> E.decode pr.T.image) in
      Array.iteri (fun i n -> fused.(i) <- fused.(i) + n) (E.superinstr_counts dprog))
    prepared;
  per_tool
  @ Array.to_list
      (Array.mapi (fun i idiom -> ("exec.superinstr." ^ idiom, float fused.(i), "count")) E.idioms)

let traced_run w ~seed =
  let stages = stage_metrics w in
  let prepares = prepare_metrics w in
  (* a campaign from cold caches: set-up, then one untraced round *)
  T.reset_artifact_caches ();
  let prepared = prepare_all w in
  Gc.compact ();
  let untraced = run_round w ~seed in
  let caches =
    [
      ("artifact_cache.hit_rate.ir", hit_rate (T.ir_cache_stats ()), "ratio");
      ("artifact_cache.hit_rate.prepared", hit_rate (T.prepared_cache_stats ()), "ratio");
      ("artifact_cache.hit_rate.decoded", hit_rate (T.decoded_cache_stats ()), "ratio");
      ("artifact_cache.hit_rate.detach", hit_rate (T.detach_cache_stats ()), "ratio");
    ]
  in
  gate w ~seed (profiles prepared) [ untraced ];
  (* the same campaign with the observability layer on, alternating with
     untraced rounds; the counters below come from the last traced round *)
  Obs.Span.set_memory_sink ();
  let round ~obs =
    if obs then Obs.Control.enable ();
    Obs.Metrics.reset ();
    Gc.compact ();
    let r = run_round w ~seed in
    Obs.Control.disable ();
    r
  in
  let traced1 = round ~obs:true in
  let untraced2 = round ~obs:false in
  let traced2 = round ~obs:true in
  List.iter
    (fun r -> check (cell_table r = cell_table untraced) "traced campaign differs from untraced")
    [ traced1; untraced2; traced2 ];
  let overhead = (rate [ untraced; untraced2 ] tools /. rate [ traced1; traced2 ] tools) -. 1.0 in
  let campaign =
    List.map
      (fun k ->
        ("campaign.samples_per_s." ^ tool_name k, rate [ untraced; untraced2 ] [ k ], "1/s"))
      tools
    @ [
        ("experiment.harness_s",
          sum
            (List.concat_map
               (fun l -> List.map (fun c -> c.X.timing.X.harness_s) l.cells)
               untraced),
          "s");
        ("shard.frames", metric "refine_shard_frames_total", "count");
        ("shard.steals", metric "refine_shard_steals_total", "count");
        ("shard.reassigned_cells", metric "refine_shard_reassigned_cells_total", "count");
        ("journal.records", metric "refine_journal_records_total", "count");
        ("journal.flush_s", metric "refine_journal_flush_seconds", "s");
        ("supervisor.retries", metric "refine_supervisor_retries_total", "count");
      ]
  in
  (* per-sample layer numbers: Tool.run_injection driven from here *)
  Obs.Control.enable ();
  Obs.Metrics.reset ();
  Gc.compact ();
  let direct = List.map (direct_leg w ~seed) tools in
  check
    (List.concat_map (fun d -> d.d_table) direct = cell_table untraced)
    "direct run_injection results differ from the campaign";
  let inject =
    List.concat_map
      (fun d ->
        let t = tool_name d.d_tool and n = float (List.length d.d_ms) in
        [
          ("inject.modeled_cost_per_s." ^ t,
            Int64.to_float d.d_cost /. (sum d.d_ms /. 1000.0), "1/s");
          ("inject.sample_ms_p50." ^ t, percentile 0.50 d.d_ms, "ms");
          ("inject.sample_ms_p99." ^ t, percentile 0.99 d.d_ms, "ms");
          ("inject.samples." ^ t, n, "count");
          ("inject.timeout_share." ^ t, ratio (float d.d_timeouts) n, "ratio");
        ])
      direct
    @ List.concat_map
        (fun k ->
          let count name = metric ~where:(for_tool k) name in
          [
            ("inject.detach_handoffs." ^ tool_name k, count "refine_detach_total", "count");
            ("inject.detach_declines." ^ tool_name k,
              count "refine_detach_declined_total", "count");
          ])
        [ T.Refine; T.Llfi ]
  in
  let engine = engine_metrics w prepared in
  let events = Obs.Span.drain () in
  Obs.Control.disable ();
  let oc = open_out (Filename.concat work_dir (w.name ^ ".trace.jsonl")) in
  List.iter (fun e -> output_string oc (Obs.Span.to_json e ^ "\n")) events;
  close_out oc;
  (* fidelity: outcome shares and the paper's two speed ratios *)
  let cells = List.concat_map (fun l -> l.cells) untraced in
  let total f = float (List.fold_left (fun n c -> n + f c.X.counts) 0 cells) in
  let n = total X.total in
  let leg k = List.find (fun l -> l.tool = k) untraced in
  let leg_cost l = List.fold_left (fun a c -> Int64.add a c.X.injection_cost) 0L l.cells in
  let per_sample k = best_wall [ untraced; untraced2 ] k /. float (leg_samples (leg k)) in
  let vs_pinfi k =
    let l = leg k and p = leg T.Pinfi in
    [
      ("report." ^ tool_name k ^ "_vs_pinfi_wall",
        ratio (per_sample k) (per_sample T.Pinfi), "ratio");
      ("report." ^ tool_name k ^ "_vs_pinfi_modeled",
        ratio (Int64.to_float (leg_cost l)) (Int64.to_float (leg_cost p)), "ratio");
    ]
  in
  let rows, chi2_s = traced "stats.chi2" (fun () -> Rep.chi2_rows cells w.programs) in
  let (), render_s =
    traced "report.render" (fun () ->
        ignore (Rep.table5 rows);
        ignore (Rep.table6 cells w.programs);
        ignore (Rep.figure5 cells w.programs);
        ignore (Rep.overhead_table cells w.programs))
  in
  let fi_sites k =
    List.fold_left
      (fun a ((_, k'), pr) -> if k' = k then a + pr.T.static_instrumented else a)
      0 prepared
  in
  let attempted = List.fold_left (fun n l -> n + leg_samples l) 0 untraced in
  let failed = List.fold_left (fun n l -> n + leg_failed l) 0 untraced in
  emit w ~seed ~attempted ~failed
    (stages
    @ [
        ("passes.fi_sites.refine", float (fi_sites T.Refine), "count");
        ("passes.fi_sites.llfi", float (fi_sites T.Llfi), "count");
      ]
    @ prepares @ caches @ engine @ inject @ campaign
    @ [
        ("fault.crash_share", ratio (total (fun c -> c.X.crash)) n, "ratio");
        ("fault.soc_share", ratio (total (fun c -> c.X.soc)) n, "ratio");
        ("fault.benign_share", ratio (total (fun c -> c.X.benign)) n, "ratio");
      ]
    @ vs_pinfi T.Refine @ vs_pinfi T.Llfi
    @ [
        ("stats.chi2_s", chi2_s, "s");
        ("report.render_s", render_s, "s");
        ("obs.tracing_overhead", overhead, "ratio");
      ])

(* ---- command line -------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 20170712 and seconds = ref 45.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME paper-reg | hang-mem | sharded-short");
      ("--seed", Arg.Set_int seed, "N campaign seed (every fault draw derives from it)");
      ("--seconds", Arg.Set_float seconds, "S sampling time budget");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or the traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  | Some w ->
    mkdir_p work_dir;
    if !trace = 0 then end_to_end w ~seed:!seed ~seconds:!seconds else traced_run w ~seed:!seed
