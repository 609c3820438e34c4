(* Aggregates every suite into one alcotest runner: `dune runtest`. *)

let () =
  Alcotest.run "diehard"
    [
      ("rng", Test_rng.suite);
      ("parallel", Test_parallel.suite);
      ("obs", Test_obs.suite);
      ("slo-obs", Test_slo_obs.suite);
      ("audit", Test_audit.suite);
      ("simmem", Test_mem.suite);
      ("mem-model", Test_mem_model.suite);
      ("bulk", Test_bulk.suite);
      ("alloc-base", Test_alloc_base.suite);
      ("freelist", Test_freelist.suite);
      ("gc", Test_gc.suite);
      ("policy", Test_policy.suite);
      ("heap", Test_heap.suite);
      ("replication", Test_replication.suite);
      ("theorems", Test_theorems.suite);
      ("lang", Test_lang.suite);
      ("fault", Test_fault.suite);
      ("rescue", Test_rescue.suite);
      ("null", Test_null.suite);
      ("canary", Test_canary.suite);
      ("supervisor", Test_supervisor.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("mesh", Test_mesh.suite);
      ("workload", Test_workload.suite);
      ("extensions", Test_extensions.suite);
      ("adaptive", Test_adaptive.suite);
      ("tools", Test_tools.suite);
      ("hybrid", Test_hybrid.suite);
      ("apps-extra", Test_apps_extra.suite);
      ("properties", Test_properties.suite);
      ("corpus", Test_corpus.suite);
      ("gates", Test_gates.suite);
    ]
