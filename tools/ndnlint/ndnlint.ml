(* Static determinism & invariant linter for the simulator tree.

   Purely syntactic: files are parsed with the compiler's own parser
   and walked with Ast_iterator; no typing environment is built, so
   the linter runs on a single file in isolation (fixtures need not
   compile) and never depends on build order.  See ndnlint.mli and
   DESIGN.md §11 for the rule table and the documented heuristics. *)

type severity = Error | Warning

type status = Active | Allowlisted of string | Pragma_suppressed

type finding = {
  rule : string;
  severity : severity;
  file : string;
  line : int;
  col : int;
  message : string;
  status : status;
}

type rule_info = { id : string; severity : severity; synopsis : string; typed : bool }

let all_rules =
  [
    { id = "E0"; severity = Error; typed = false;
      synopsis = "source file does not parse" };
    {
      id = "D1";
      severity = Error;
      typed = false;
      synopsis = "nondeterministic RNG seeding (Random.self_init)";
    };
    {
      id = "D2";
      severity = Error;
      typed = false;
      synopsis = "global Random state used outside Sim.Rng";
    };
    {
      id = "D3";
      severity = Error;
      typed = false;
      synopsis = "wall-clock read outside bin/";
    };
    {
      id = "D4";
      severity = Error;
      typed = false;
      synopsis = "environment read inside lib/";
    };
    {
      id = "D5";
      severity = Error;
      typed = false;
      synopsis = "polymorphic compare/hash in key-bearing libraries";
    };
    {
      id = "D6";
      severity = Error;
      typed = false;
      synopsis = "structural (in)equality on an abstract key value";
    };
    {
      id = "D7";
      severity = Warning;
      typed = false;
      synopsis = "unordered Hashtbl.iter/fold in lib/ with no visible sort";
    };
    {
      id = "D8";
      severity = Error;
      typed = false;
      synopsis =
        "raw concurrency primitive (Domain/Mutex/Condition/Atomic) outside \
         Sim.Parallel / Sim.Shard";
    };
    {
      id = "T1";
      severity = Error;
      typed = false;
      synopsis = "trace kind emitted but missing from the registry";
    };
    {
      id = "T2";
      severity = Error;
      typed = false;
      synopsis = "registry lists a trace kind no longer emitted";
    };
    {
      id = "T3";
      severity = Error;
      typed = false;
      synopsis = "NACK reason constructor lacks a registered nack.* trace kind";
    };
    {
      id = "T4";
      severity = Error;
      typed = false;
      synopsis =
        "binary kind-id table out of sync with the trace-kind registry \
         (missing or misnumbered kind_id case)";
    };
    { id = "S1"; severity = Error; typed = false;
      synopsis = "lib module lacks an .mli" };
    { id = "S2"; severity = Error; typed = false;
      synopsis = "stdout output from lib/" };
    {
      id = "S3";
      severity = Warning;
      typed = false;
      synopsis =
        "stale suppression: pragma or allowlist entry matches no finding \
         (computed by stale_findings over a finished run, not by the scanner)";
    };
    {
      id = "R1";
      severity = Error;
      typed = true;
      synopsis =
        "module-level mutable state reachable from multi-domain execution \
         (typed; ndntype pass)";
    };
    {
      id = "A1";
      severity = Error;
      typed = true;
      synopsis =
        "allocation site (closure/tuple/record/boxed float/partial \
         application) in an (* ndnlint: hot *) function (typed; ndntype pass)";
    };
    {
      id = "A2";
      severity = Error;
      typed = true;
      synopsis =
        "polymorphism hazard (generic compare, float-array dispatch) in a \
         hot function (typed; ndntype pass)";
    };
    {
      id = "G1";
      severity = Error;
      typed = true;
      synopsis =
        "Sim.Rng handle drawn from / handed off after being split (typed; \
         ndntype pass)";
    };
    {
      id = "U1";
      severity = Error;
      typed = true;
      synopsis =
        "lib/ interface value no other unit references (typed; ndntype \
         pass)";
    };
  ]

let severity_of_rule id =
  match List.find_opt (fun r -> r.id = id) all_rules with
  | Some r -> r.severity
  | None -> Error

let rule_ids = List.map (fun r -> r.id) all_rules

(* Path-scoped severity overrides: a rule can be switched off (Skip) or
   demoted to Warning (Demote) under a path prefix.  The default table
   allows wall-clock reads in bench/ and tools/ — benchmark harnesses
   and developer tooling legitimately measure real time, while lib/
   must only ever see virtual time. *)
type scoped_action = Skip | Demote

type scoped_severity = {
  s_rule : string;
  s_path : string;
  s_action : scoped_action;
}

let default_scoped =
  [
    { s_rule = "D3"; s_path = "bench/"; s_action = Skip };
    { s_rule = "D3"; s_path = "tools/"; s_action = Skip };
  ]

type config = {
  root : string;
  paths : string list;
  allowlist_file : string option;
  registry_file : string option;
  excludes : string list;
  key_modules : string list;
  scoped : scoped_severity list;
}

let default_excludes = [ "test/lint_fixtures"; "test/typedlint_fixtures" ]

let config ?(paths = [ "lib"; "bin"; "bench"; "test"; "tools" ]) ?allowlist_file
    ?registry_file ?(excludes = default_excludes)
    ?(key_modules = [ "Name"; "Interest"; "Data"; "Packet" ])
    ?(scoped = default_scoped) ~root () =
  { root; paths; allowlist_file; registry_file; excludes; key_modules; scoped }

(* --- small string helpers --- *)

let read_file path =
  In_channel.with_open_bin path (fun ic -> In_channel.input_all ic)

let contains_from line pos sub =
  let n = String.length sub and m = String.length line in
  let rec go i =
    if i + n > m then None
    else if String.sub line i n = sub then Some i
    else go (i + 1)
  in
  go pos

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

let is_rule_token t = t = "all" || List.mem t rule_ids

(* --- pragmas: (* ndnlint: allow RULE[, RULE...] [-- why] *) ---

   A pragma suppresses the listed rules (or every rule, for "all") on
   its own line; when the pragma is the only thing on its line, it also
   covers the next line, so it can sit above the offending code.  Rule
   IDs are separated by whitespace or commas, so one comment can
   suppress several rules; a line may also carry several independent
   [ndnlint:] pragmas. *)

type pragma_site = {
  ps_line : int;  (* line the pragma comment sits on *)
  ps_rules : string list;  (* rule tokens, "all" included *)
  ps_covers : int list;  (* lines the pragma suppresses on *)
}

type pragmas = {
  cover : (int, string list) Hashtbl.t;
  sites : pragma_site list;
}

let pragmas_of_source src =
  let tbl : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let sites = ref [] in
  let add lineno rules =
    let prev = Option.value (Hashtbl.find_opt tbl lineno) ~default:[] in
    Hashtbl.replace tbl lineno (prev @ rules)
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let rec scan_from pos =
        match contains_from line pos "ndnlint:" with
        | None -> ()
        | Some idx ->
          let rest =
            String.sub line (idx + 8) (String.length line - idx - 8)
            |> String.trim
          in
          (if String.length rest >= 5 && String.sub rest 0 5 = "allow" then begin
             let rest = String.sub rest 5 (String.length rest - 5) in
             (* Rule IDs end at the justification ("--") or comment
                close; commas count as separators. *)
             let stop =
               min
                 (Option.value (contains_from rest 0 "--")
                    ~default:(String.length rest))
                 (Option.value (contains_from rest 0 "*)")
                    ~default:(String.length rest))
             in
             let rules =
               String.sub rest 0 stop
               |> String.map (fun c -> if c = ',' then ' ' else c)
               |> split_ws
               |> List.filter is_rule_token
             in
             if rules <> [] then begin
               add lineno rules;
               let comment_only =
                 match contains_from line 0 "(*" with
                 | Some copen -> String.trim (String.sub line 0 copen) = ""
                 | None -> false
               in
               if comment_only then add (lineno + 1) rules;
               let covers =
                 if comment_only then [ lineno; lineno + 1 ] else [ lineno ]
               in
               sites :=
                 { ps_line = lineno; ps_rules = rules; ps_covers = covers }
                 :: !sites
             end
           end);
          scan_from (idx + 8)
      in
      scan_from 0)
    (String.split_on_char '\n' src);
  { cover = tbl; sites = List.rev !sites }

let pragma_suppresses pragmas ~line ~rule =
  match Hashtbl.find_opt pragmas.cover line with
  | None -> false
  | Some rules -> List.mem "all" rules || List.mem rule rules

let pragma_sites pragmas = pragmas.sites

(* --- allowlist: RULE PATH -- justification --- *)

type allow_entry = {
  a_rule : string;
  a_path : string;
  a_just : string;
  a_line : int;
}

let parse_allowlist ~file content =
  let entries = ref [] in
  let err = ref None in
  List.iteri
    (fun i line ->
      if !err = None then
        let lineno = i + 1 in
        let line = String.trim line in
        if line <> "" && line.[0] <> '#' then
          match contains_from line 0 "--" with
          | None ->
            err :=
              Some
                (Printf.sprintf
                   "%s:%d: allowlist entry lacks a ' -- justification'" file
                   lineno)
          | Some sep -> (
            let just =
              String.trim
                (String.sub line (sep + 2) (String.length line - sep - 2))
            in
            let head = String.trim (String.sub line 0 sep) in
            match (split_ws head, just) with
            | _, "" ->
              err :=
                Some
                  (Printf.sprintf "%s:%d: empty allowlist justification" file
                     lineno)
            | [ rule; path ], _ when is_rule_token rule ->
              entries :=
                { a_rule = rule; a_path = path; a_just = just; a_line = lineno }
                :: !entries
            | [ rule; _ ], _ ->
              err :=
                Some
                  (Printf.sprintf "%s:%d: unknown rule ID %S" file lineno rule)
            | _ ->
              err :=
                Some
                  (Printf.sprintf
                     "%s:%d: expected 'RULE PATH -- justification'" file
                     lineno)))
    (String.split_on_char '\n' content);
  match !err with Some e -> Result.Error e | None -> Ok (List.rev !entries)

let path_in_scope scope file =
  scope = file
  ||
  let scope =
    if String.length scope > 0 && scope.[String.length scope - 1] = '/' then
      scope
    else scope ^ "/"
  in
  String.starts_with ~prefix:scope file

let allowlist_lookup entries ~rule ~file =
  List.find_opt
    (fun e ->
      (e.a_rule = "all" || e.a_rule = rule) && path_in_scope e.a_path file)
    entries

(* --- trace-kind registry: one wire name per line --- *)

let parse_registry content =
  let kinds = ref [] in
  List.iteri
    (fun i line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then kinds := (line, i + 1) :: !kinds)
    (String.split_on_char '\n' content);
  List.rev !kinds

(* --- file discovery --- *)

let skip_dir_names = [ "_build"; ".git"; ".objs"; "node_modules" ]

let collect_files cfg =
  let files = ref [] in
  let excluded rel =
    List.exists (fun e -> e = rel || path_in_scope e rel) cfg.excludes
  in
  let rec walk rel =
    let abs = Filename.concat cfg.root rel in
    Sys.readdir abs |> Array.to_list |> List.sort String.compare
    |> List.iter (fun entry ->
           let rel' = if rel = "" then entry else rel ^ "/" ^ entry in
           let abs' = Filename.concat cfg.root rel' in
           if Sys.is_directory abs' then begin
             if not (List.mem entry skip_dir_names || excluded rel') then
               walk rel'
           end
           else if
             (Filename.check_suffix entry ".ml"
             || Filename.check_suffix entry ".mli")
             && not (excluded rel')
           then files := rel' :: !files)
  in
  List.iter
    (fun p ->
      let abs = Filename.concat cfg.root p in
      if not (Sys.file_exists abs) then
        invalid_arg (Printf.sprintf "ndnlint: no such path %S under %S" p cfg.root)
      else if Sys.is_directory abs then walk p
      else files := p :: !files)
    cfg.paths;
  List.sort_uniq String.compare !files

(* --- per-file scan --- *)

open Parsetree

type file_ctx = {
  in_lib : bool;
  in_bin : bool;
  in_keyspace : bool;  (* lib/sim or lib/ndn: abstract keys live here *)
  is_rng_impl : bool;
  is_nack_impl : bool;
      (* Any nack.ml: its [type reason] constructors must each have a
         registered [nack.<constructor>] trace kind (T3), so a reason
         can never be added without a corresponding observable event. *)
  is_domain_impl : bool;
      (* lib/sim/parallel.ml and lib/sim/shard.ml: the only modules
         allowed to touch Domain/Mutex/Condition/Atomic directly (D8). *)
  defines_compare : bool;
      (* The file binds a value named [compare] somewhere; unqualified
         [compare] then plausibly refers to it, so D5 stays quiet. *)
}

let norm_path lid =
  match Longident.flatten lid with
  | "Stdlib" :: rest -> rest
  | l -> l

let pos_of_loc (loc : Location.t) =
  let p = loc.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

(* Does this subtree mention a sort?  Used to quiet D7 when the
   Hashtbl fold feeds an explicit reordering in the same top-level
   binding. *)
let subtree_sorts si =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
            match List.rev (norm_path txt) with
            | ("sort" | "stable_sort" | "fast_sort" | "sort_uniq") :: _ ->
              found := true
            | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure_item it si;
  !found

let structure_defines_compare str =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var { txt = "compare"; _ } -> found := true
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
    }
  in
  List.iter (it.structure_item it) str;
  !found

let print_fns =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_bytes"; "print_int"; "print_float";
  ]

let key_ctor_names =
  [ "of_string"; "make"; "create"; "append"; "prefix"; "namespace"; "root";
    "empty"; "v" ]

(* Syntactic head of an expression, for D6: [Name.of_string s] and
   [Name.root] both resolve to the path [Name.…]. *)
let rec head_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (norm_path txt)
  | Pexp_construct ({ txt; _ }, _) -> Some (norm_path txt)
  | Pexp_apply (f, _) -> head_path f
  | Pexp_open (_, e) | Pexp_constraint (e, _) -> head_path e
  | _ -> None

let is_abstract_key ~key_modules e =
  match head_path e with
  | Some path when List.length path >= 2 ->
    let last = List.nth path (List.length path - 1) in
    List.exists (fun m -> List.mem m key_modules) path
    && List.mem last key_ctor_names
  | _ -> false

let scan_structure ctx ~key_modules ~registry ~emit ~record_kind str =
  let defines_compare = ctx.defines_compare in
  let sort_in_item = ref false in
  let check_ident loc path =
    let line, col = pos_of_loc loc in
    let f rule msg = emit ~rule ~line ~col ~msg in
    let stdout_write name =
      f "S2"
        (Printf.sprintf
           "%s writes to stdout from lib/; stdout belongs to results and \
            trace exports — route diagnostics to stderr or a formatter \
            argument" name)
    in
    match path with
    | [ "Random"; "self_init" ] | [ "Random"; "State"; "make_self_init" ] ->
      f "D1"
        "nondeterministic RNG seeding; every stream must derive from an \
         explicit seed via Sim.Rng"
    | [ "Random"; sub ] when sub <> "State" && not ctx.is_rng_impl ->
      f "D2"
        (Printf.sprintf
           "Random.%s uses the global Random state; draw from a Sim.Rng \
            generator instead" sub)
    | [ "Unix"; ("gettimeofday" | "time" | "times") ] | [ "Sys"; "time" ]
      when not ctx.in_bin ->
      f "D3"
        (Printf.sprintf
           "wall-clock read (%s) outside bin/; simulated components must \
            only see virtual time" (String.concat "." path))
    | [ "Sys"; ("getenv" | "getenv_opt") ] | [ "Unix"; ("getenv" | "environment") ]
      when ctx.in_lib ->
      f "D4"
        (Printf.sprintf
           "%s in lib/: environment must not influence simulation results; \
            plumb configuration through function arguments"
           (String.concat "." path))
    | [ "compare" ] when ctx.in_keyspace && not defines_compare ->
      f "D5"
        "polymorphic compare in a key-bearing library; use the key \
         module's dedicated compare (Name.compare, String.compare, \
         Float.compare, ...)"
    | [ "Hashtbl"; ("hash" | "seeded_hash") ] when ctx.in_keyspace ->
      f "D5"
        "polymorphic Hashtbl.hash in a key-bearing library; hash a \
         canonical scalar (e.g. the key string) or use the key module's \
         hash"
    | (("Domain" | "Mutex" | "Condition" | "Semaphore" | "Atomic") as m) :: _
      when ctx.in_lib && not ctx.is_domain_impl ->
      f "D8"
        (Printf.sprintf
           "raw %s use in lib/; all concurrency must flow through \
            Sim.Parallel (trial fan-out) or Sim.Shard (intra-trial \
            sharding), which centralize the determinism argument — \
            ad-hoc domains, locks or atomics can reorder events with \
            the scheduler" m)
    | [ "Hashtbl"; (("iter" | "fold") as fn) ]
      when ctx.in_lib && not !sort_in_item ->
      f "D7"
        (Printf.sprintf
           "Hashtbl.%s iterates in hash order; sort before anything \
            order-sensitive (or suppress with a pragma/allowlist entry \
            explaining why the order cannot leak)" fn)
    | [ "Printf"; "printf" ] | [ "Format"; "printf" ]
    | [ "Format"; "std_formatter" ] | [ "stdout" ]
      when ctx.in_lib ->
      stdout_write (String.concat "." path)
    | [ fn ] when ctx.in_lib && List.mem fn print_fns -> stdout_write fn
    | _ -> ()
  in
  (* T4 state: the constructor -> wire-name cases of [kind_to_string]
     and the constructor -> integer cases of [kind_id], joined against
     the registry after the whole structure has been scanned (the two
     bindings are separate structure items). *)
  let kts_cases = ref [] in
  let kid_cases = ref [] in
  let kid_defined = ref false in
  let rec match_cases e =
    match e.pexp_desc with
    | Pexp_function cases -> cases
    | Pexp_fun (_, _, _, body) -> match_cases body
    | Pexp_match (_, cases) -> cases
    | _ -> []
  in
  let ctor_of_pat p =
    match p.ppat_desc with
    | Ppat_construct ({ txt = Longident.Lident c; _ }, _) -> Some c
    | _ -> None
  in
  let collect_kind_to_string_cases e =
    List.iter
      (fun case ->
        match (ctor_of_pat case.pc_lhs, case.pc_rhs.pexp_desc) with
        | Some c, Pexp_constant (Pconst_string (s, sloc, _)) ->
          kts_cases := (c, (s, pos_of_loc sloc)) :: !kts_cases
        | _ -> ())
      (match_cases e)
  in
  let collect_kind_id_cases e =
    kid_defined := true;
    List.iter
      (fun case ->
        match (ctor_of_pat case.pc_lhs, case.pc_rhs.pexp_desc) with
        | Some c, Pexp_constant (Pconst_integer (n, None)) -> (
          match int_of_string_opt n with
          | Some id ->
            kid_cases := (c, (id, pos_of_loc case.pc_rhs.pexp_loc)) :: !kid_cases
          | None -> ())
        | _ -> ())
      (match_cases e)
  in
  (* T4: in a file defining both tables, every registered kind must
     carry a binary id equal to its registry position — the binary
     trace header snapshots the registry in order, so a missing or
     misnumbered id makes readers decode the wrong kind. *)
  let check_kind_ids () =
    match registry with
    | Some reg when !kid_defined && !kts_cases <> [] ->
      List.iteri
        (fun idx (wire, _regline) ->
          match
            List.find_opt (fun (_, (s, _)) -> s = wire) !kts_cases
          with
          | None -> () (* stale registry entry: T2's finding *)
          | Some (ctor, (_, (sline, scol))) -> (
            match List.assoc_opt ctor !kid_cases with
            | None ->
              emit ~rule:"T4" ~line:sline ~col:scol
                ~msg:
                  (Printf.sprintf
                     "registered trace kind %S has no stable binary id: add \
                      a kind_id case mapping %s to its registry position %d, \
                      or binary traces cannot encode it" wire ctor idx)
            | Some (id, (iline, icol)) ->
              if id <> idx then
                emit ~rule:"T4" ~line:iline ~col:icol
                  ~msg:
                    (Printf.sprintf
                       "binary id %d for trace kind %S disagrees with its \
                        registry position %d; the binary header snapshots \
                        the registry in order, so readers would decode the \
                        wrong kind" id wire idx)))
        reg
    | _ -> ()
  in
  let collect_kinds e =
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun it e ->
            (match e.pexp_desc with
            | Pexp_constant (Pconst_string (s, sloc, _)) ->
              record_kind s;
              (match registry with
              | Some reg when not (List.mem_assoc s reg) ->
                let line, col = pos_of_loc sloc in
                emit ~rule:"T1" ~line ~col
                  ~msg:
                    (Printf.sprintf
                       "trace kind %S is emitted here but absent from the \
                        registry; add it (and document it) before shipping \
                        the event" s)
              | _ -> ())
            | _ -> ());
            Ast_iterator.default_iterator.expr it e);
      }
    in
    it.expr it e
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; loc } -> check_ident loc (norm_path txt)
          | Pexp_apply
              ( { pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }; _ },
                args )
            when ctx.in_keyspace
                 && (op = "=" || op = "<>" || op = "==" || op = "!=") ->
            if
              List.exists
                (fun (_, arg) -> is_abstract_key ~key_modules arg)
                args
            then begin
              let line, col = pos_of_loc e.pexp_loc in
              emit ~rule:"D6" ~line ~col
                ~msg:
                  (Printf.sprintf
                     "structural (%s) on an abstract key value; use the key \
                      module's equal/compare so representation changes \
                      cannot silently alter results" op)
            end
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
      structure_item =
        (fun it si ->
          match si.pstr_desc with
          | Pstr_value (_, vbs) ->
            let saved = !sort_in_item in
            sort_in_item := saved || subtree_sorts si;
            List.iter
              (fun vb ->
                match vb.pvb_pat.ppat_desc with
                | Ppat_var { txt = "kind_to_string"; _ } ->
                  collect_kinds vb.pvb_expr;
                  collect_kind_to_string_cases vb.pvb_expr
                | Ppat_var { txt = "kind_id"; _ } ->
                  collect_kind_id_cases vb.pvb_expr
                | _ -> ())
              vbs;
            Ast_iterator.default_iterator.structure_item it si;
            sort_in_item := saved
          | Pstr_type (_, decls) when ctx.is_nack_impl ->
            (* T3: every [type reason] constructor in a nack.ml must
               have a registered [nack.<lowercased constructor>] trace
               kind — a refusal the plane can produce but never report
               is invisible to every overload experiment. *)
            (match registry with
            | None -> ()
            | Some reg ->
              List.iter
                (fun decl ->
                  if decl.ptype_name.txt = "reason" then
                    match decl.ptype_kind with
                    | Ptype_variant ctors ->
                      List.iter
                        (fun ctor ->
                          let expected =
                            "nack." ^ String.lowercase_ascii ctor.pcd_name.txt
                          in
                          if not (List.mem_assoc expected reg) then begin
                            let line, col = pos_of_loc ctor.pcd_loc in
                            emit ~rule:"T3" ~line ~col
                              ~msg:
                                (Printf.sprintf
                                   "NACK reason constructor %s has no \
                                    registered trace kind %S; register (and \
                                    emit) it so this refusal stays observable"
                                   ctor.pcd_name.txt expected)
                          end)
                        ctors
                    | _ -> ())
                decls);
            Ast_iterator.default_iterator.structure_item it si
          | _ -> Ast_iterator.default_iterator.structure_item it si);
    }
  in
  List.iter (it.structure_item it) str;
  check_kind_ids ()

(* --- parsing --- *)

let parse_error_finding exn =
  let loc, msg =
    match exn with
    | Syntaxerr.Error err -> (Syntaxerr.location_of_error err, "syntax error")
    | Lexer.Error (_, loc) -> (loc, "lexical error")
    | _ -> (Location.none, Printexc.to_string exn)
  in
  let line, col = if loc = Location.none then (1, 0) else pos_of_loc loc in
  (line, col, Printf.sprintf "%s; file cannot be checked" msg)

(* --- the driver --- *)

type inventory = {
  inv_pragmas : (string * pragma_site) list;  (* source file, pragma site *)
  inv_allows : allow_entry list;
  inv_allow_file : string option;
}

let empty_inventory =
  { inv_pragmas = []; inv_allows = []; inv_allow_file = None }

let finding_order a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Int.compare a.line b.line with
    | 0 -> (
      match Int.compare a.col b.col with
      | 0 -> String.compare a.rule b.rule
      | c -> c)
    | c -> c)
  | c -> c

let sort_findings fs = List.sort finding_order fs

let lint_full cfg =
  let ( let* ) = Result.bind in
  let read_rel rel =
    try Ok (read_file (Filename.concat cfg.root rel))
    with Sys_error e -> Result.Error e
  in
  let* allowlist =
    match cfg.allowlist_file with
    | None -> Ok []
    | Some f ->
      let* content = read_rel f in
      parse_allowlist ~file:f content
  in
  let* registry =
    match cfg.registry_file with
    | None -> Ok None
    | Some f ->
      let* content = read_rel f in
      Ok (Some (parse_registry content))
  in
  let* files =
    try Ok (collect_files cfg)
    with Invalid_argument m | Sys_error m -> Result.Error m
  in
  let findings = ref [] in
  let all_sites = ref [] in
  let seen_kinds : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  (* Path-scoped severity overrides: first matching entry wins.  [Skip]
     drops the finding entirely; [Demote] downgrades it to a warning. *)
  let scoped_action ~rule ~file =
    List.find_map
      (fun s ->
        if s.s_rule = rule && String.starts_with ~prefix:s.s_path file then
          Some s.s_action
        else None)
      cfg.scoped
  in
  let scan_file rel =
    let src = read_file (Filename.concat cfg.root rel) in
    let pragmas = pragmas_of_source src in
    List.iter
      (fun site -> all_sites := (rel, site) :: !all_sites)
      (pragma_sites pragmas);
    let emit ~rule ~line ~col ~msg =
      match scoped_action ~rule ~file:rel with
      | Some Skip -> ()
      | (Some Demote | None) as sc ->
        let status =
          if pragma_suppresses pragmas ~line ~rule then Pragma_suppressed
          else
            match allowlist_lookup allowlist ~rule ~file:rel with
            | Some e -> Allowlisted e.a_just
            | None -> Active
        in
        let severity =
          if sc = Some Demote then Warning else severity_of_rule rule
        in
        findings :=
          { rule; severity; file = rel; line; col; message = msg; status }
          :: !findings
    in
    let in_lib = String.starts_with ~prefix:"lib/" rel in
    let ctx =
      {
        in_lib;
        in_bin = String.starts_with ~prefix:"bin/" rel;
        in_keyspace =
          String.starts_with ~prefix:"lib/sim/" rel
          || String.starts_with ~prefix:"lib/ndn/" rel;
        is_rng_impl = rel = "lib/sim/rng.ml";
        is_nack_impl = Filename.basename rel = "nack.ml";
        is_domain_impl =
          rel = "lib/sim/parallel.ml" || rel = "lib/sim/shard.ml";
        defines_compare = false;
      }
    in
    if Filename.check_suffix rel ".ml" then begin
      (* S1: every lib module must publish an interface. *)
      if in_lib && not (Sys.file_exists (Filename.concat cfg.root (rel ^ "i")))
      then
        emit ~rule:"S1" ~line:1 ~col:0
          ~msg:
            "module under lib/ has no .mli; every library module must \
             declare its interface";
      let lexbuf = Lexing.from_string src in
      Location.init lexbuf rel;
      match Parse.implementation lexbuf with
      | str ->
        let ctx = { ctx with defines_compare = structure_defines_compare str } in
        scan_structure ctx ~key_modules:cfg.key_modules ~registry ~emit
          ~record_kind:(fun s -> Hashtbl.replace seen_kinds s ())
          str
      | exception exn ->
        let line, col, msg = parse_error_finding exn in
        emit ~rule:"E0" ~line ~col ~msg
    end
    else begin
      let lexbuf = Lexing.from_string src in
      Location.init lexbuf rel;
      match Parse.interface lexbuf with
      | _sg -> ()
      | exception exn ->
        let line, col, msg = parse_error_finding exn in
        emit ~rule:"E0" ~line ~col ~msg
    end
  in
  List.iter scan_file files;
  (* T2: the registry must not outlive the code it documents. *)
  (match (registry, cfg.registry_file) with
  | Some reg, Some reg_file ->
    List.iter
      (fun (kind, lineno) ->
        if not (Hashtbl.mem seen_kinds kind) then begin
          let status =
            match allowlist_lookup allowlist ~rule:"T2" ~file:reg_file with
            | Some e -> Allowlisted e.a_just
            | None -> Active
          in
          findings :=
            {
              rule = "T2";
              severity = severity_of_rule "T2";
              file = reg_file;
              line = lineno;
              col = 0;
              message =
                Printf.sprintf
                  "registry lists trace kind %S but no kind_to_string \
                   emits it; remove the stale entry" kind;
              status;
            }
            :: !findings
        end)
      reg
  | _ -> ());
  let inventory =
    {
      inv_pragmas = List.rev !all_sites;
      inv_allows = allowlist;
      inv_allow_file = cfg.allowlist_file;
    }
  in
  Ok (sort_findings !findings, inventory)

let lint cfg = Result.map fst (lint_full cfg)

(* --- S3: stale suppressions ---

   A pragma site is *used* when some finding on a line it covers names
   one of its rules and was pragma-suppressed; an allowlist entry is
   used when it is the entry [allowlist_lookup] resolved for some
   allowlisted finding.  Everything else is a dead suppression — but
   only for rules in [checked_rules]: the syntactic pass must not
   declare a typed-rule pragma stale just because it cannot see typed
   findings (and vice versa).  Pragmas naming S3 itself are exempt, so
   a stale-suppression finding can itself be suppressed. *)
let stale_findings ~checked_rules inventory findings =
  let checked r = List.mem r checked_rules in
  (* An "all" token can only be judged stale when this run checked the
     whole rule universe — a syntactic-only pass must not condemn a
     pragma that is in fact suppressing a typed finding. *)
  let universe_checked =
    List.for_all
      (fun r -> r.id = "S3" || List.mem r.id checked_rules)
      all_rules
  in
  let stale = ref [] in
  List.iter
    (fun (file, site) ->
      if not (List.mem "S3" site.ps_rules) then
        List.iter
          (fun rule ->
            let judged = if rule = "all" then universe_checked else checked rule in
            if judged then begin
              let used =
                List.exists
                  (fun f ->
                    f.file = file
                    && f.status = Pragma_suppressed
                    && (rule = "all" || f.rule = rule)
                    && List.mem f.line site.ps_covers)
                  findings
              in
              if not used then
                stale :=
                  {
                    rule = "S3";
                    severity = severity_of_rule "S3";
                    file;
                    line = site.ps_line;
                    col = 0;
                    message =
                      Printf.sprintf
                        "stale pragma: no %s finding on the line it covers; \
                         delete it"
                        (if rule = "all" then "suppressable" else rule);
                    status = Active;
                  }
                  :: !stale
            end)
          site.ps_rules)
    inventory.inv_pragmas;
  (match inventory.inv_allow_file with
  | None -> ()
  | Some allow_file ->
    List.iter
      (fun e ->
        let judged =
          if e.a_rule = "all" then universe_checked else checked e.a_rule
        in
        if judged then begin
          (* Replicate first-match resolution: the entry is live only if
             it is the one [allowlist_lookup] returns for some
             allowlisted finding. *)
          let used =
            List.exists
              (fun f ->
                (match f.status with Allowlisted _ -> true | _ -> false)
                && allowlist_lookup inventory.inv_allows ~rule:f.rule
                     ~file:f.file
                   = Some e)
              findings
          in
          if not used then
            stale :=
              {
                rule = "S3";
                severity = severity_of_rule "S3";
                file = allow_file;
                line = e.a_line;
                col = 0;
                message =
                  Printf.sprintf
                    "stale allowlist entry: %s %s matches no finding; delete \
                     it"
                    e.a_rule e.a_path;
                status = Active;
              }
              :: !stale
        end)
      inventory.inv_allows);
  sort_findings !stale

let active fs = List.filter (fun f -> f.status = Active) fs

let exit_code fs = if active fs = [] then 0 else 1

(* --- rendering --- *)

type format = Text | Jsonl

let format_of_string s =
  match String.lowercase_ascii s with
  | "text" -> Some Text
  | "jsonl" | "json" -> Some Jsonl
  | _ -> None

let severity_to_string = function Error -> "error" | Warning -> "warning"

let finding_to_text f =
  let suffix =
    match f.status with
    | Active -> ""
    | Allowlisted j -> Printf.sprintf " (allowlisted: %s)" j
    | Pragma_suppressed -> " (pragma-suppressed)"
  in
  Printf.sprintf "%s:%d:%d: %s [%s] %s%s" f.file f.line f.col
    (severity_to_string f.severity)
    f.rule f.message suffix

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let finding_to_jsonl f =
  let status, just =
    match f.status with
    | Active -> ("active", None)
    | Allowlisted j -> ("allowlisted", Some j)
    | Pragma_suppressed -> ("pragma", None)
  in
  Printf.sprintf
    "{\"rule\":\"%s\",\"severity\":\"%s\",\"file\":\"%s\",\"line\":%d,\"col\":%d,\"message\":\"%s\",\"status\":\"%s\"%s}"
    (json_escape f.rule)
    (severity_to_string f.severity)
    (json_escape f.file) f.line f.col (json_escape f.message) status
    (match just with
    | None -> ""
    | Some j -> Printf.sprintf ",\"justification\":\"%s\"" (json_escape j))

let render fmt fs =
  let line = match fmt with Text -> finding_to_text | Jsonl -> finding_to_jsonl in
  String.concat "" (List.map (fun f -> line f ^ "\n") fs)
