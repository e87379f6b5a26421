let () =
  Alcotest.run "dprle"
    (Test_charset.suite @ Test_nfa.suite @ Test_regex.suite @ Test_dprle.suite
   @ Test_crosscheck.suite @ Test_kernels.suite @ Test_store.suite @ Test_sysparse.suite @ Test_telemetry.suite @ Test_webapp.suite @ Test_analysis.suite @ Test_corpus.suite @ Test_extensions.suite @ Test_bounded.suite @ Test_sql.suite @ Test_smtlib.suite @ Test_engine.suite @ Test_analyze.suite
   @ Test_api.suite @ Test_serve.suite @ Test_benchdiff.suite)
