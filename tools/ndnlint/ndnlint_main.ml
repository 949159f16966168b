(* CLI wrapper around the Ndnlint library: `dune build @lint` runs this
   over lib/ bin/ bench/ test/ tools/ and fails the build on any
   unallowed finding.  Findings go to stdout (text or JSONL); the
   summary and errors go to stderr.  Exit codes: 0 clean, 1 findings,
   2 usage.

   S3 (stale suppressions) is computed here over the syntactic rules
   only: a pragma or allowlist entry naming a typed rule (R1/A1/A2/G1/U1)
   is left for ndntype_main, which sees the merged finding set. *)

let usage =
  "ndnlint [--root DIR] [--format text|jsonl] [--allowlist FILE]\n\
  \        [--trace-registry FILE] [--exclude DIR]... [PATH]...\n\n\
   Static determinism & invariant checks for the simulator tree.\n\
   PATHs default to: lib bin bench test tools (relative to --root)."

let () =
  let root = ref "." in
  let format = ref Ndnlint.Text in
  let allowlist = ref None in
  let registry = ref None in
  let no_default_suppressions = ref false in
  let excludes = ref [] in
  let paths = ref [] in
  let list_rules = ref false in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR repository root (default: .)");
      ( "--format",
        Arg.String
          (fun s ->
            match Ndnlint.format_of_string s with
            | Some f -> format := f
            | None ->
              prerr_endline ("ndnlint: unknown format " ^ s);
              exit 2),
        "FMT output format: text (default) or jsonl" );
      ( "--allowlist",
        Arg.String (fun s -> allowlist := Some s),
        "FILE allowlist (default: tools/ndnlint/allowlist.txt if present)" );
      ( "--trace-registry",
        Arg.String (fun s -> registry := Some s),
        "FILE trace-kind registry (default: lib/sim/trace_kinds.txt if \
         present)" );
      ( "--no-default-suppressions",
        Arg.Set no_default_suppressions,
        " ignore the default allowlist and registry lookup" );
      ( "--exclude",
        Arg.String (fun s -> excludes := s :: !excludes),
        "DIR skip this directory (repeatable; test/lint_fixtures and \
         test/typedlint_fixtures are always skipped)" );
      ("--rules", Arg.Set list_rules, " print the rule table and exit");
    ]
  in
  Arg.parse spec (fun p -> paths := p :: !paths) usage;
  if !list_rules then begin
    List.iter
      (fun r ->
        Printf.printf "%-3s %-7s %-9s %s\n" r.Ndnlint.id
          (match r.Ndnlint.severity with
          | Ndnlint.Error -> "error"
          | Ndnlint.Warning -> "warning")
          (if r.Ndnlint.typed then "typed" else "syntactic")
          r.Ndnlint.synopsis)
      Ndnlint.all_rules;
    exit 0
  end;
  let default rel current =
    match current with
    | Some _ -> current
    | None ->
      if
        (not !no_default_suppressions)
        && Sys.file_exists (Filename.concat !root rel)
      then Some rel
      else None
  in
  let cfg =
    Ndnlint.config
      ?paths:(match List.rev !paths with [] -> None | ps -> Some ps)
      ?allowlist_file:(default "tools/ndnlint/allowlist.txt" !allowlist)
      ?registry_file:(default "lib/sim/trace_kinds.txt" !registry)
      ~excludes:
        ("test/lint_fixtures" :: "test/typedlint_fixtures"
        :: List.rev !excludes)
      ~root:!root ()
  in
  match Ndnlint.lint_full cfg with
  | Error msg ->
    Printf.eprintf "ndnlint: %s\n" msg;
    exit 2
  | Ok (findings, inventory) ->
    let syntactic_rules =
      List.filter_map
        (fun r -> if r.Ndnlint.typed then None else Some r.Ndnlint.id)
        Ndnlint.all_rules
    in
    let stale =
      Ndnlint.stale_findings ~checked_rules:syntactic_rules inventory findings
    in
    let findings = Ndnlint.sort_findings (stale @ findings) in
    print_string (Ndnlint.render !format findings);
    let act = List.length (Ndnlint.active findings) in
    Printf.eprintf "ndnlint: %d finding(s), %d active\n"
      (List.length findings) act;
    exit (Ndnlint.exit_code findings)
