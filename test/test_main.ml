(* Test-suite entry point: one alcotest run over every module's cases. *)

(* must run before alcotest touches argv: when the shard coordinator
   re-execs this binary as a worker, serve frames and exit instead *)
let () = Refine_campaign.Worker.maybe_exec ()

let () =
  Alcotest.run "refine"
    [
      ("support", Test_support.tests);
      ("obs", Test_obs.tests);
      ("stats", Test_stats.tests);
      ("frontend", Test_frontend.tests);
      ("ir", Test_ir.tests);
      ("passes", Test_passes.tests);
      ("pipeline", Test_pipeline.tests);
      ("backend", Test_backend.tests);
      ("machine", Test_machine.tests);
      ("fastpath", Test_fastpath.tests);
      ("decode", Test_decode.tests);
      ("pinned", Test_pinned.tests);
      ("fi", Test_fi.tests);
      ("semantics", Test_semantics.tests);
      ("benchmarks", Test_benchmarks.tests);
      ("campaign", Test_campaign.tests);
      ("shard", Test_shard.tests);
      ("robustness", Test_robustness.tests);
      ("hardening", Test_hardening.tests);
      ("extensions", Test_extensions.tests);
      ("faultmodels", Test_faultmodels.tests);
      ("paper", Test_paper_reproduction.tests);
      ("integration", Test_integration.tests);
      ("misc", Test_misc.tests);
    ]
