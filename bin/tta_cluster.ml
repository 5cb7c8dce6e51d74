let () = exit (Cmdliner.Cmd.eval' Cmd_cluster.cmd)
