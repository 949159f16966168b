(* BENCH_core.json, the bench ledger: one section per writer ("core",
   "bench_scale", "overload").  [write] merges the caller's section
   through [Sim.Bench.merge_section], so every other section stays byte
   for byte, and stamps it with the commit, the host's domain count and
   the arguments of this run. *)

let path = "BENCH_core.json"

let read_git file =
  match In_channel.with_open_bin (Filename.concat ".git" file) In_channel.input_all with
  | text -> Some text
  | exception Sys_error _ -> None

let write name fields =
  let git_rev = Option.value (Sim.Bench.git_rev ~read:read_git) ~default:"unknown" in
  (* Only a missing file starts a fresh ledger; an unreadable one raises. *)
  let ledger =
    if Sys.file_exists path then Some (In_channel.with_open_bin path In_channel.input_all)
    else None
  in
  let section =
    Sim.Bench.section ~git_rev ~host_domains:(Sim.Parallel.default_jobs ())
      ~argv:(List.tl (Array.to_list Sys.argv)) fields
  in
  match Sim.Bench.merge_section ledger ~name section with
  | Ok text ->
    let tmp = path ^ ".tmp" in
    Out_channel.with_open_bin tmp (fun oc -> output_string oc text);
    Sys.rename tmp path;
    Format.printf "wrote %s into %s (git %s)@." name path git_rev
  | Error msg ->
    Format.eprintf "FAIL: %s: %s; the file is left untouched@." path msg;
    exit 1
