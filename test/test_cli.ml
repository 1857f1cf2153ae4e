(* Bad input stops at the CLI boundary: each case runs a built
   executable and must exit 2 (usage error) with a message, never 124
   (cmdliner's own parse-error code) and never 125 with an uncaught
   exception. *)

(* the test runner and the executables sit side by side under the
   build root *)
let exe name =
  Filename.concat (Filename.dirname Sys.executable_name) ("../bin/" ^ name ^ ".exe")

let usage_errors =
  [
    ("sa_run", [ "-n"; "0" ]);
    ("sa_run", [ "-n"; "3"; "-m"; "0" ]);
    ("sa_run", [ "-n"; "3"; "-k"; "5" ]);
    ("sa_run", [ "serve"; "--shards"; "0" ]);
    ("sa_run", [ "-n"; "63"; "-k"; "1"; "--explore"; "dpor:1" ]);
    ("sa_run", [ "-n"; "63"; "-k"; "1"; "--explore"; "naive:1" ]);
    ("sa_run", [ "trace"; "-n"; "63"; "-k"; "1"; "--explore"; "dpor:1" ]);
    ("sa_run", [ "-n"; "3"; "-k"; "1"; "--registers"; "0" ]);
    ("sa_run", [ "--sched"; "quantum:0" ]);
    ("sa_run", [ "-n"; "3"; "--sched"; "solo:9" ]);
    ("sa_run", [ "conform"; "--object"; "agreement"; "-m"; "0" ]);
    ("sa_run", [ "conform"; "--components"; "0" ]);
    ("sa_run", [ "analyze"; "--json"; "/nonexistent/x.json" ]);
    ("sa_run", [ "fuzz"; "--corpus-in"; "/nonexistent" ]);
    ("sa_run", [ "--jobs"; "0" ]);
    ("sa_run", [ "conform"; "--domains"; "0" ]);
    ("sa_run", [ "-n"; "abc" ]);
    ("sa_attack", [ "theorem2"; "-n"; "0" ]);
    ("sa_attack", [ "clones"; "-k"; "1"; "--registers"; "0" ]);
    ("sa_table", [ "-n"; "-1" ]);
    ("sa_run", [ "fuzz"; "--budget"; "0" ]);
  ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rejects tool args () =
  let err = Filename.temp_file tool ".err" in
  let code =
    Sys.command (Filename.quote_command (exe tool) args ~stdout:Filename.null ~stderr:err)
  in
  let stderr = read_file err in
  Sys.remove err;
  let line = String.concat " " (tool :: args) in
  Alcotest.(check int) (Fmt.str "exit code of %s" line) 2 code;
  Alcotest.(check bool) (Fmt.str "a message on stderr for %s" line) true (stderr <> "");
  Alcotest.(check bool)
    (Fmt.str "no uncaught exception for %s" line)
    false
    (Helpers.contains_substring stderr "internal error")

let suite =
  List.map
    (fun (tool, args) ->
      Helpers.test
        (Fmt.str "usage error: %s %s" tool (String.concat " " args))
        (rejects tool args))
    usage_errors
