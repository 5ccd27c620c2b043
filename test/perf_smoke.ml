(* Fast-path smoke: exercised on every `dune runtest` via the @perf-smoke
   alias so the snapshot/reset engine path and its bit-identity guarantee
   are covered by CI, not just by the (slower) property suite.

   Runs the same small REFINE cell with the legacy allocate-per-sample
   path and the snapshot-reset fast path, requires the outcome tables to
   match exactly, and prints the measured throughputs.  The fast path must
   have resumed samples from golden checkpoints (DESIGN.md §21), and a
   cell with the livelock detector armed must decline that and still match
   the legacy path.  No timing assertions — speed numbers are
   informational; only equality and the fast-forward counters fail the
   run. *)

module T = Refine_core.Tool
module E = Refine_campaign.Experiment
module Ex = Refine_machine.Exec
module Obs = Refine_obs

let src =
  "global float acc[4]; int main() { int i; float x = 1.5; int s = 0; for (i = 0; i < 400; i = \
   i + 1) { x = x * 1.01 + 0.1; s = s + i; acc[i % 4] = x; } print_int(s); print_float(x); \
   return 0; }"

let summary (c : E.cell) =
  Printf.sprintf "crash=%d soc=%d benign=%d err=%d cost=%Ld" c.E.counts.E.crash c.E.counts.E.soc
    c.E.counts.E.benign c.E.counts.E.tool_error c.E.injection_cost

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (Unix.gettimeofday () -. t0, v)

let counter name labels =
  match Obs.Metrics.find name labels with Some (Obs.Metrics.Counter n) -> n | _ -> 0L

let fail fmt = Printf.ksprintf (fun s -> print_endline ("perf-smoke FAILED: " ^ s); exit 1) fmt

let () =
  let samples = 80 in
  let run ?quotas () =
    E.run_cell ~domains:2 ?quotas ~samples ~seed:20170712 T.Refine ~program:"smoke" ~source:src ()
  in
  Obs.Control.enable ();
  T.use_fast_path := false;
  let legacy_s, legacy = timed (fun () -> run ()) in
  T.use_fast_path := true;
  let fast_s, fast = timed (fun () -> run ()) in
  let restores = counter "refine_fastforward_restores_total" [ ("tool", "REFINE") ] in
  if restores <= 0L then fail "no sample resumed from a golden checkpoint";
  Printf.printf "perf-smoke: %Ld of %d samples resumed from a golden checkpoint\n" restores samples;
  (* the livelock detector must see the whole run: every sample declines *)
  let livelock = { T.default_quotas with T.livelock_window = Some 4096 } in
  T.use_fast_path := false;
  let ll_legacy = run ~quotas:livelock () in
  T.use_fast_path := true;
  let ll_fast = run ~quotas:livelock () in
  let declines =
    counter "refine_fastforward_declines_total" [ ("tool", "REFINE"); ("reason", "livelock") ]
  in
  if declines <= 0L then fail "a livelock-window cell recorded no decline";
  if summary ll_legacy <> summary ll_fast then
    fail "livelock-window outcome tables differ\n  legacy: %s\n  fast:   %s" (summary ll_legacy)
      (summary ll_fast);
  let legacy_sum = summary legacy and fast_sum = summary fast in
  Printf.printf "perf-smoke: legacy %.1f samples/s, fast %.1f samples/s\n"
    (float_of_int samples /. legacy_s)
    (float_of_int samples /. fast_s);
  if legacy_sum <> fast_sum then begin
    Printf.printf "perf-smoke FAILED: outcome tables differ\n  legacy: %s\n  fast:   %s\n"
      legacy_sum fast_sum;
    exit 1
  end;
  (* engine-level identity on the prepared binary, clean run: the REFINE
     image calls the control library, so each engine gets fresh handlers *)
  let p = T.prepare T.Refine src in
  let handlers () =
    Refine_core.Runtime.refine_handlers (Refine_core.Runtime.create Refine_core.Runtime.Profile)
  in
  let fresh = Ex.run (Ex.create ~ext_extra:(handlers ()) p.T.image) in
  let eng = Ex.create_from_snapshot ~ext_extra:(handlers ()) p.T.snap in
  ignore (Ex.run eng);
  Ex.reset ~ext_extra:(handlers ()) eng;
  let reset = Ex.run eng in
  if fresh <> reset then begin
    Printf.printf "perf-smoke FAILED: reset engine diverges from fresh create\n";
    exit 1
  end;
  Printf.printf "perf-smoke OK: outcome table bit-identical (%s)\n" fast_sum
