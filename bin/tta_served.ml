let () = exit (Cmdliner.Cmd.eval' Cmd_serve.cmd)
