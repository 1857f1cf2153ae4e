(* Bad input stops at the CLI boundary: each case runs the built
   sa_run executable and must exit 2 (usage error) with a message,
   never 125 with an uncaught exception. *)

(* the test runner and sa_run sit side by side under the build root *)
let sa_run =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/sa_run.exe"

let usage_errors =
  [
    [ "-n"; "0" ];
    [ "-n"; "3"; "-m"; "0" ];
    [ "-n"; "3"; "-k"; "5" ];
    [ "serve"; "--shards"; "0" ];
    [ "-n"; "63"; "-k"; "1"; "--explore"; "dpor:1" ];
    [ "-n"; "63"; "-k"; "1"; "--explore"; "naive:1" ];
    [ "trace"; "-n"; "63"; "-k"; "1"; "--explore"; "dpor:1" ];
  ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rejects args () =
  let err = Filename.temp_file "sa_run" ".err" in
  let code =
    Sys.command (Filename.quote_command sa_run args ~stdout:Filename.null ~stderr:err)
  in
  let stderr = read_file err in
  Sys.remove err;
  let line = String.concat " " args in
  Alcotest.(check int) (Fmt.str "exit code of sa_run %s" line) 2 code;
  Alcotest.(check bool) (Fmt.str "a message on stderr for %s" line) true (stderr <> "");
  Alcotest.(check bool)
    (Fmt.str "no uncaught exception for %s" line)
    false
    (Helpers.contains_substring stderr "internal error")

let suite =
  List.map
    (fun args ->
      Helpers.test ("usage error: sa_run " ^ String.concat " " args) (rejects args))
    usage_errors
