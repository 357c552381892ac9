let () =
  Alcotest.run "losac"
    [
      Suite_phys.suite;
      Suite_linalg.suite;
      Suite_technology.suite;
      Suite_device.suite;
      Suite_netlist.suite;
      Suite_parser.suite;
      Suite_sim.suite;
      Suite_layout.suite;
      Suite_sizing.suite;
      Suite_core.suite;
      Suite_obs.suite;
      Suite_hist.suite;
      Suite_par.suite;
      Suite_cache.suite;
      Suite_statistics.suite;
      Suite_serve.suite;
      Suite_opt.suite;
      Suite_cli.suite;
    ]
