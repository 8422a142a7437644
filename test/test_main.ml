let () =
  Alcotest.run "treejoin"
    [
      ("util", Suite_util.suite);
      ("tree", Suite_tree.suite);
      ("ted", Suite_ted.suite);
      ("partition", Suite_partition.suite);
      ("join", Suite_join.suite);
      ("xml", Suite_xml.suite);
      ("datagen", Suite_datagen.suite);
      ("harness", Suite_harness.suite);
      ("extensions", Suite_extensions.suite);
      ("measures", Suite_measures.suite);
      ("streaming", Suite_streaming.suite);
      ("cascade", Suite_cascade.suite);
      ("parallel", Suite_parallel.suite);
      ("faults", Suite_faults.suite);
      ("formats", Suite_formats.suite);
      ("cli", Suite_cli.suite);
      ("server", Suite_server.suite);
      ("router", Suite_router.suite);
    ]
