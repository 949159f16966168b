(* Typed analysis pass over the .cmt files the normal dune build
   already produces (bin_annot is on everywhere).  Where Ndnlint parses
   single files syntactically, this stage loads Typedtree structures
   with resolved [Path.t]s and inferred types, so aliases, functor
   instantiations and re-exports cannot hide a violation.  Rules:

   R1  module-level mutable state in a domain-shared unit
   A1  allocation site inside an [(* ndnlint: hot *)] function
   A2  polymorphism hazard inside a hot function
   G1  Sim.Rng handle used again after being split
   U1  lib/ interface value that no other unit references

   The pass shares Ndnlint's finding type, pragma and allowlist
   machinery, so suppressions resolve identically in both stages.  It
   must run where sources and .cmt files share one root: dune executes
   the @typedlint rule in _build/default (with (sandbox none) so the
   .objs directories are visible), and the test suite runs in
   _build/default/test with root "..".  See DESIGN.md §15 for the rule
   table, the R1 reachability approximation, and the documented
   false-negative envelope.

   U1 reads the .cmti files as well: each lib/ interface declares the
   values, and every .cmt under the root (lib, bin, bench, test, tools,
   perfbench, examples) supplies the references. *)

open Typedtree

type hot_fn = { hf_file : string; hf_name : string; hf_line : int }

type report = {
  findings : Ndnlint.finding list;
  scanned : string list;
  shared_units : string list;
  hot_functions : hot_fn list;
}

type config = {
  root : string;
  paths : string list;
  excludes : string list;
  allowlist_file : string option;
  lib_prefixes : string list;
  spawn_units : string list;
}

let default_spawn_units = [ "Sim__Engine"; "Sim__Shard"; "Sim__Parallel" ]

let config ?(paths = [ "lib"; "bin"; "bench"; "test"; "tools" ])
    ?(excludes = [ "test/lint_fixtures"; "test/typedlint_fixtures" ])
    ?allowlist_file ?(lib_prefixes = [ "lib/" ])
    ?(spawn_units = default_spawn_units) ~root () =
  { root; paths; excludes; allowlist_file; lib_prefixes; spawn_units }

(* --- small helpers --- *)

let read_file path =
  In_channel.with_open_bin path (fun ic -> In_channel.input_all ic)

let under prefix file =
  prefix = file
  ||
  let prefix =
    if String.length prefix > 0 && prefix.[String.length prefix - 1] = '/' then
      prefix
    else prefix ^ "/"
  in
  String.starts_with ~prefix file

let pos_of_loc (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

let path_components p = String.split_on_char '.' (Path.name p)

let contains_from line pos sub =
  let n = String.length sub and m = String.length line in
  let rec go i =
    if i + n > m then None
    else if String.sub line i n = sub then Some i
    else go (i + 1)
  in
  go pos

(* Lines carrying an [(* ndnlint: hot *)] marker.  The marker goes on
   its own line directly above the [let] (or at the end of the [let]
   line itself). *)
let hot_lines src =
  let out = ref [] in
  List.iteri
    (fun i line ->
      match contains_from line 0 "ndnlint:" with
      | Some idx ->
        let rest =
          String.sub line (idx + 8) (String.length line - idx - 8)
          |> String.trim
        in
        if String.length rest >= 3 && String.sub rest 0 3 = "hot" then
          out := (i + 1) :: !out
      | None -> ())
    (String.split_on_char '\n' src);
  !out

(* --- cmt discovery --- *)

(* The build places library cmts in <dir>/.<lib>.objs/byte/ and
   executable cmts in <dir>/.<exe>.eobjs/byte/, alongside the copied
   sources; a plain recursive walk finds both.  [cmt_sourcefile] is
   build-root-relative ("lib/sim/engine.ml"), which is exactly the
   path space Ndnlint findings live in. *)
let find_cmt_files root =
  let out = ref [] in
  let rec walk rel =
    let abs = if rel = "" then root else Filename.concat root rel in
    match Sys.readdir abs with
    | exception Sys_error _ -> ()
    | entries ->
      Array.to_list entries |> List.sort String.compare
      |> List.iter (fun entry ->
             let rel' = if rel = "" then entry else rel ^ "/" ^ entry in
             let abs' = Filename.concat root rel' in
             if try Sys.is_directory abs' with Sys_error _ -> false then begin
               if not (List.mem entry [ "_build"; ".git"; "node_modules" ])
               then walk rel'
             end
             else if
               Filename.check_suffix entry ".cmt"
               || Filename.check_suffix entry ".cmti"
             then out := rel' :: !out)
  in
  walk "";
  List.rev !out

type unit_info = {
  u_name : string;
  u_imports : string list;
  u_source : string option;
  u_annots : Cmt_format.binary_annots;
}

let load_units cfg =
  find_cmt_files cfg.root
  |> List.filter_map (fun rel ->
         match Cmt_format.read_cmt (Filename.concat cfg.root rel) with
         | cmt ->
           Some
             {
               u_name = cmt.Cmt_format.cmt_modname;
               u_imports = List.map fst cmt.Cmt_format.cmt_imports;
               u_source = cmt.Cmt_format.cmt_sourcefile;
               u_annots = cmt.Cmt_format.cmt_annots;
             }
         | exception _ -> None)

(* --- R1 reachability: which units run on shard domains? ---

   Approximation: a unit is domain-shared when it is a spawn unit
   (Engine/Shard/Parallel), directly imports one (such code can build
   closures the engine later fires on a shard domain), or is imported —
   transitively — by any such unit (its functions are callable from
   that code).  Deliberately coarse: almost all of lib/ is shared,
   which matches reality — any lib function can end up inside a
   scheduled event callback.  False negatives are the interesting
   direction and are documented in DESIGN.md §15. *)
let shared_closure cfg units =
  let imports_of = Hashtbl.create 64 in
  List.iter
    (fun u ->
      if not (Hashtbl.mem imports_of u.u_name) then
        Hashtbl.add imports_of u.u_name u.u_imports)
    units;
  let shared = Hashtbl.create 64 in
  let rec mark name =
    if Hashtbl.mem imports_of name && not (Hashtbl.mem shared name) then begin
      Hashtbl.add shared name ();
      List.iter mark
        (match Hashtbl.find_opt imports_of name with
        | Some l -> l
        | None -> [])
    end
  in
  List.iter
    (fun u ->
      if
        List.mem u.u_name cfg.spawn_units
        || List.exists (fun i -> List.mem i cfg.spawn_units) u.u_imports
      then mark u.u_name)
    units;
  shared

(* --- R1: module-level mutable state --- *)

let mutable_type_names =
  [
    "ref"; "Stdlib.ref"; "array"; "bytes";
    "Hashtbl.t"; "Stdlib.Hashtbl.t";
    "Buffer.t"; "Stdlib.Buffer.t";
    "Queue.t"; "Stdlib.Queue.t";
    "Stack.t"; "Stdlib.Stack.t";
    "Atomic.t"; "Stdlib.Atomic.t";
    "Weak.t"; "Stdlib.Weak.t";
  ]

(* What makes this binding mutable, if anything: a record expression
   with mutable labels (catches local record types whose declarations
   we cannot cheaply resolve), or a value whose inferred type is one of
   the standard mutable containers.  Functions are never flagged — only
   values materialized at module init.  [Domain.DLS.new_key] results
   are ['a Domain.DLS.key] and fall through both tests, which is the
   intended escape: DLS-confined state is per-domain by construction. *)
let rec mutable_witness e =
  match e.exp_desc with
  | Texp_function _ -> None
  | Texp_record { fields; _ }
    when Array.exists
           (fun (ld, _) -> ld.Types.lbl_mut = Asttypes.Mutable)
           fields -> Some "record with mutable fields"
  | Texp_array _ -> Some "array literal"
  | Texp_let (_, _, body) -> mutable_witness body
  | Texp_sequence (_, body) -> mutable_witness body
  | _ -> (
    match Types.get_desc e.exp_type with
    | Types.Tconstr (p, _, _) when List.mem (Path.name p) mutable_type_names ->
      Some (Path.name p)
    | _ -> None)

(* An annotated binding [let x : t = e] elaborates to
   [Tpat_alias (Tpat_any, x, _)], so look through aliases too. *)
let binding_name pat =
  match pat.pat_desc with
  | Tpat_var (id, _) | Tpat_alias (_, id, _) -> Ident.name id
  | _ -> "(pattern)"

let rec r1_structure ~emit str =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match mutable_witness vb.vb_expr with
            | Some what ->
              let line, col = pos_of_loc vb.vb_loc in
              emit ~rule:"R1" ~line ~col
                ~msg:
                  (Printf.sprintf
                     "module-level mutable state `%s` (%s) in a \
                      domain-shared unit; shard domains can reach it \
                      concurrently — confine it with Domain.DLS, thread it \
                      through explicit state, or allowlist with an \
                      ownership justification"
                     (binding_name vb.vb_pat) what)
            | None -> ())
          vbs
      | Tstr_module mb -> r1_module ~emit mb.mb_expr
      | Tstr_recmodule mbs ->
        List.iter (fun mb -> r1_module ~emit mb.mb_expr) mbs
      | _ -> ())
    str.str_items

and r1_module ~emit me =
  match me.mod_desc with
  | Tmod_structure str -> r1_structure ~emit str
  | Tmod_constraint (me, _, _, _) -> r1_module ~emit me
  | _ -> ()

(* --- A1/A2: the zero-alloc hot path --- *)

(* Peel the parameter spine so the hot function's own [fun]/[function]
   layers are not reported as closures; everything underneath is body. *)
let rec function_bodies e =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
    List.concat_map (fun c -> function_bodies c.c_rhs) cases
  | _ -> [ e ]

(* Trace emission is compiled behind [if Trace.enabled ... then]; the
   then-branch is off on the hot path by construction, so its
   allocations do not count against A1/A2. *)
let rec cond_checks_trace_enabled e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
    match List.rev (path_components p) with
    | "enabled" :: _ -> true
    | _ -> false)
  | Texp_apply (f, args) ->
    cond_checks_trace_enabled f
    || List.exists
         (fun (_, a) ->
           match a with Some a -> cond_checks_trace_enabled a | None -> false)
         args
  | _ -> false

let specializable_compares = [ "="; "<>"; "<"; ">"; "<="; ">="; "compare" ]

let immediate_scalar ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) ->
    List.mem (Path.name p) [ "int"; "float"; "string"; "bool"; "char" ]
  | _ -> false

let type_label ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Path.name p
  | Types.Tvar _ -> "a type variable"
  | _ -> "a structured type"

let scan_hot_body ~emit name body =
  let a1 loc msg =
    let line, col = pos_of_loc loc in
    emit ~rule:"A1" ~line ~col
      ~msg:(Printf.sprintf "%s in hot function `%s`" msg name)
  in
  let a2 loc msg =
    let line, col = pos_of_loc loc in
    emit ~rule:"A2" ~line ~col
      ~msg:(Printf.sprintf "%s in hot function `%s`" msg name)
  in
  let check_apply e head args =
    (* A partially applied call materializes a closure: either a
       labelled argument is omitted (the [None] slots) or the whole
       application still has an arrow type. *)
    if List.exists (fun (_, a) -> a = None) args then
      a1 e.exp_loc "partial application (omitted labelled argument)"
    else (
      match Types.get_desc e.exp_type with
      | Types.Tarrow _ -> a1 e.exp_loc "partial application"
      | _ -> ());
    match head.exp_desc with
    | Texp_ident (p, _, _) -> (
      match path_components p with
      | [ "Stdlib"; ("@@" | "|>") ] ->
        a1 e.exp_loc "@@/|> application; call the function directly"
      | [ "Stdlib"; op ] when List.mem op specializable_compares -> (
        match
          List.find_map (fun (_, a) -> a) args
        with
        | Some arg when not (immediate_scalar arg.exp_type) ->
          a2 e.exp_loc
            (Printf.sprintf
               "generic structural (%s) at %s; the compiler specializes \
                comparisons only at immediate scalar types — use a \
                monomorphic compare"
               op (type_label arg.exp_type))
        | _ -> ())
      | [ "Stdlib"; (("min" | "max") as op) ] ->
        a2 e.exp_loc
          (Printf.sprintf
             "Stdlib.%s is never specialized (generic caml_compare); \
              write the comparison out" op)
      | [ "Stdlib"; "Hashtbl"; (("hash" | "seeded_hash") as op) ]
      | [ "Hashtbl"; (("hash" | "seeded_hash") as op) ] ->
        a2 e.exp_loc
          (Printf.sprintf
             "polymorphic Hashtbl.%s walks the value generically; hash a \
              canonical scalar instead" op)
      | _ -> ())
    | _ -> ()
  in
  let rec walk e =
    match e.exp_desc with
    | Texp_ifthenelse (cond, then_, else_)
      when cond_checks_trace_enabled cond ->
      walk cond;
      ignore then_;
      Option.iter walk else_
    | _ ->
      (match e.exp_desc with
      | Texp_function _ -> a1 e.exp_loc "closure allocation"
      | Texp_tuple _ -> a1 e.exp_loc "tuple allocation"
      | Texp_record _ -> a1 e.exp_loc "record allocation"
      | Texp_array _ -> a1 e.exp_loc "array allocation"
      | Texp_lazy _ -> a1 e.exp_loc "lazy-block allocation"
      | Texp_apply (head, args) -> check_apply e head args
      | _ -> ());
      descend e
  and descend e =
    let it =
      {
        Tast_iterator.default_iterator with
        expr = (fun _ child -> if child != e then walk child);
      }
    in
    Tast_iterator.default_iterator.expr it e
  in
  walk body

(* Hot bindings live at module level (possibly inside nested modules):
   an [(* ndnlint: hot *)] marker on the line of — or the line above —
   a [let] puts that binding in the checked set. *)
let rec hot_structure ~hot_lines ~on_hot str =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            let line, _ = pos_of_loc vb.vb_loc in
            if List.mem line hot_lines || List.mem (line - 1) hot_lines then
              on_hot vb line)
          vbs
      | Tstr_module mb -> hot_module ~hot_lines ~on_hot mb.mb_expr
      | Tstr_recmodule mbs ->
        List.iter (fun mb -> hot_module ~hot_lines ~on_hot mb.mb_expr) mbs
      | _ -> ())
    str.str_items

and hot_module ~hot_lines ~on_hot me =
  match me.mod_desc with
  | Tmod_structure str -> hot_structure ~hot_lines ~on_hot str
  | Tmod_constraint (me, _, _, _) -> hot_structure_of ~hot_lines ~on_hot me
  | _ -> ()

and hot_structure_of ~hot_lines ~on_hot me = hot_module ~hot_lines ~on_hot me

(* --- G1: use-after-split on Sim.Rng handles --- *)

let is_rng_path suffix p =
  match List.rev (path_components p) with
  | last :: penult :: _ ->
    last = suffix && String.ends_with ~suffix:"Rng" penult
  | _ -> false

let is_rng_handle_type ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> String.ends_with ~suffix:"Rng.t" (Path.name p)
  | _ -> false

let scan_g1 ~emit str =
  let splits : (Ident.t * (int * int)) list ref = ref [] in
  let uses : (Ident.t * (int * int)) list ref = ref [] in
  let exempt : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
            when is_rng_path "split" p || is_rng_path "copy" p ->
            List.iter
              (fun (_, a) ->
                match a with
                | Some
                    ({ exp_desc = Texp_ident (Path.Pident id, _, _); _ } as
                     arg) ->
                  let at = pos_of_loc arg.exp_loc in
                  (* The handle's appearance inside split/copy itself is
                     not a "use": splitting the same parent repeatedly
                     is the pre-split discipline G1 protects. *)
                  Hashtbl.replace exempt at ();
                  if is_rng_path "split" p then splits := (id, at) :: !splits
                | _ -> ())
              args
          | Texp_ident (Path.Pident id, _, _)
            when is_rng_handle_type e.exp_type ->
            uses := (id, pos_of_loc e.exp_loc) :: !uses
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.structure it str;
  List.iter
    (fun (id, ((line, col) as at)) ->
      if not (Hashtbl.mem exempt at) then
        match
          List.find_opt
            (fun (sid, sat) -> Ident.same sid id && sat < at)
            !splits
        with
        | Some (_, (sline, _)) ->
          emit ~rule:"G1" ~line ~col
            ~msg:
              (Printf.sprintf
                 "RNG handle `%s` was split at line %d and is used again \
                  here; after a split, draw only from the children (or \
                  suppress with a stream-layout justification)"
                 (Ident.name id) sline)
        | None -> ())
    (List.rev !uses)

(* --- U1: exported values no other unit references ---

   A value path is unit-rooted: ["Ndn__Pit"; "size"], or
   ["Privacy__Theorems"; "Uniform"; "epsilon"] for a value of a nested
   [module Uniform : sig ... end].  Declarations come from the [.cmti]
   of each checked interface; references are the [Texp_ident]s and
   binding operators ([let*]) of every other unit's [.cmt], resolved to
   that form. *)

let rec declared_values prefix sg =
  List.concat_map
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd -> [ (prefix @ [ vd.val_name.txt ], vd.val_loc) ]
      | Tsig_module { md_name = { txt = Some m; _ }; md_type; _ } ->
        module_type_values (prefix @ [ m ]) md_type
      | Tsig_recmodule mds ->
        List.concat_map
          (fun md ->
            match md.md_name.txt with
            | Some m -> module_type_values (prefix @ [ m ]) md.md_type
            | None -> [])
          mds
      | _ -> [])
    sg.sig_items

(* Only literal [sig ... end]s are enumerated: a functor-generated
   signature such as [Name.Tbl : Hashtbl.S] is not. *)
and module_type_values prefix mty =
  match mty.mty_desc with
  | Tmty_signature sg -> declared_values prefix sg
  | _ -> []

let rec strip_constraints me =
  match me.mod_desc with
  | Tmod_constraint (me, _, _, _) -> strip_constraints me
  | _ -> me

(* Every value path one implementation references, plus the module
   paths it uses whole ([include M], [(module M)], or [F (M)] where the
   parameter's signature is not known), which count as a reference to
   each value under them.  [F (M)] with a parameter typed by a literal
   signature, or by a module type defined in the same unit, references
   only the values that signature names.  Local aliases
   ([module TS = Ndn.Topology_spec], [let module ... in]) are followed;
   [open] needs nothing, because the typer already roots a name found
   through an open at the opened module.  [Lib.Mod] becomes the dune
   unit [Lib__Mod] whenever such a unit exists. *)
let references ~units str =
  let aliases = Hashtbl.create 8 in
  let rec comps p =
    match p with
    | Path.Pident id -> (
      match Hashtbl.find_opt aliases (Ident.unique_name id) with
      | Some p -> comps p
      | None -> if Ident.global id then Some [ Ident.name id ] else None)
    | Path.Pdot (p, s) -> Option.map (fun c -> c @ [ s ]) (comps p)
    | _ -> None
  in
  let rec unit_rooted = function
    | u :: m :: rest when Hashtbl.mem units (u ^ "__" ^ m) ->
      unit_rooted ((u ^ "__" ^ m) :: rest)
    | c -> c
  in
  let values = ref [] and wholes = ref [] in
  let record acc p =
    Option.iter (fun c -> acc := unit_rooted c :: !acc) (comps p)
  in
  let module_types = Hashtbl.create 8 in
  let rec sig_values = function
    | Types.Mty_signature sg ->
      Some
        (List.filter_map
           (function
             | Types.Sig_value (id, _, _) -> Some (Ident.name id) | _ -> None)
           sg)
    | Types.Mty_ident (Path.Pident id) ->
      Hashtbl.find_opt module_types (Ident.unique_name id)
    | _ -> None
  and param_values = function
    | Types.Mty_functor (Types.Named (_, param), _) -> sig_values param
    | _ -> None
  in
  let alias id me =
    match (id, (strip_constraints me).mod_desc) with
    | Some id, Tmod_ident (p, _) ->
      Hashtbl.replace aliases (Ident.unique_name id) p;
      true
    | _ -> false
  in
  let it =
    {
      Tast_iterator.default_iterator with
      module_binding =
        (fun sub mb ->
          if not (alias mb.mb_id mb.mb_expr) then
            Tast_iterator.default_iterator.module_binding sub mb);
      module_type_declaration =
        (fun sub mtd ->
          Option.iter
            (fun mty ->
              Option.iter
                (Hashtbl.replace module_types (Ident.unique_name mtd.mtd_id))
                (sig_values mty.mty_type))
            mtd.mtd_type;
          Tast_iterator.default_iterator.module_type_declaration sub mtd);
      module_expr =
        (fun sub me ->
          match me.mod_desc with
          | Tmod_apply (f, arg, _) -> (
            sub.module_expr sub f;
            match
              ((strip_constraints arg).mod_desc, param_values f.mod_type)
            with
            | Tmod_ident (p, _), Some names ->
              List.iter (fun v -> record values (Path.Pdot (p, v))) names
            | _ -> sub.module_expr sub arg)
          | Tmod_ident (p, _) -> record wholes p
          | _ -> Tast_iterator.default_iterator.module_expr sub me);
      expr =
        (fun sub e ->
          match e.exp_desc with
          | Texp_ident (p, _, _) -> record values p
          | Texp_letop { let_; ands; _ } ->
            (* [let* x = e in b] names its operator only here. *)
            List.iter (fun bop -> record values bop.bop_op_path) (let_ :: ands);
            Tast_iterator.default_iterator.expr sub e
          | Texp_letmodule (id, _, _, me, body) when alias id me ->
            sub.expr sub body
          | _ -> Tast_iterator.default_iterator.expr sub e);
      (* [open M] is no use of M's values; what it brings into scope
         reaches [expr] above already rooted at M. *)
      open_declaration =
        (fun sub od ->
          match od.open_expr.mod_desc with
          | Tmod_ident _ -> ()
          | _ -> Tast_iterator.default_iterator.open_declaration sub od);
    }
  in
  it.structure it str;
  (!values, !wholes)

(* ["Ndn__Pit"; "size"] reads as "Ndn.Pit.size". *)
let display_path = function
  | [] -> ""
  | u :: rest ->
    let n = String.length u in
    let rec split start i acc =
      if i + 1 >= n then List.rev (String.sub u start (n - start) :: acc)
      else if u.[i] = '_' && u.[i + 1] = '_' then
        split (i + 2) (i + 2) (String.sub u start (i - start) :: acc)
      else split start (i + 1) acc
    in
    String.concat "." (split 0 0 [] @ rest)

(* A unit never names itself, so every rooted reference comes from
   another unit.  Units under [cfg.excludes] (the planted fixtures) do
   not count as callers. *)
let u1 cfg ~emitter units =
  let unit_names = Hashtbl.create 256 in
  List.iter (fun u -> Hashtbl.replace unit_names u.u_name ()) units;
  let used = Hashtbl.create 4096 and whole = Hashtbl.create 256 in
  List.iter
    (fun u ->
      let excluded =
        match u.u_source with
        | Some rel -> List.exists (fun e -> under e rel) cfg.excludes
        | None -> false
      in
      match u.u_annots with
      | Cmt_format.Implementation str when not excluded ->
        let values, wholes = references ~units:unit_names str in
        List.iter (fun c -> Hashtbl.replace used c ()) values;
        List.iter (fun c -> Hashtbl.replace whole c ()) wholes
      | _ -> ())
    units;
  let rec used_whole rev_prefix = function
    | [] | [ _ ] -> false
    | c :: rest ->
      let prefix = List.rev (c :: rev_prefix) in
      Hashtbl.mem whole prefix || used_whole (c :: rev_prefix) rest
  in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun u ->
      match (u.u_annots, u.u_source) with
      | Cmt_format.Interface sg, Some rel
        when Filename.check_suffix rel ".mli"
             && List.exists (fun p -> under p rel) cfg.lib_prefixes
             && List.exists (fun p -> under p rel) cfg.paths
             && (not (List.exists (fun e -> under e rel) cfg.excludes))
             && Sys.file_exists (Filename.concat cfg.root rel)
             && not (Hashtbl.mem seen rel) ->
        Hashtbl.add seen rel ();
        let emit = emitter rel (read_file (Filename.concat cfg.root rel)) in
        List.iter
          (fun (path, loc) ->
            let comps = u.u_name :: path in
            if not (Hashtbl.mem used comps || used_whole [] comps) then
              let line, col = pos_of_loc loc in
              emit ~rule:"U1" ~line ~col
                ~msg:
                  (Printf.sprintf
                     "`%s` is exported but no other unit references it; \
                      delete it, or drop it from the interface if its own \
                      unit still uses it"
                     (display_path comps)))
          (declared_values [] sg)
      | _ -> ())
    units

(* --- the driver --- *)

let run cfg =
  let allowlist =
    match cfg.allowlist_file with
    | None -> Ok []
    | Some f -> (
      match read_file (Filename.concat cfg.root f) with
      | content -> Ndnlint.parse_allowlist ~file:f content
      | exception Sys_error e -> Error e)
  in
  match allowlist with
  | Error e -> Error e
  | Ok allowlist -> (
    let units = load_units cfg in
    if units = [] then
      Error
        (Printf.sprintf
           "no .cmt files under %S; run `dune build @check` first and point \
            --root at the build tree (the @typedlint alias does both)"
           cfg.root)
    else begin
      (* R1's closure follows implementation imports only. *)
      let shared =
        shared_closure cfg
          (List.filter
             (fun u ->
               match u.u_annots with
               | Cmt_format.Implementation _ -> true
               | _ -> false)
             units)
      in
      let in_scope rel =
        Filename.check_suffix rel ".ml"
        && List.exists (fun p -> under p rel) cfg.paths
        && not (List.exists (fun e -> under e rel) cfg.excludes)
      in
      (* One analysis per source file: the same module can surface via
         several cmts (a library and a test executable); first wins. *)
      let seen = Hashtbl.create 64 in
      let analyzable =
        List.filter
          (fun u ->
            match u.u_source with
            | Some rel
              when in_scope rel
                   && Sys.file_exists (Filename.concat cfg.root rel)
                   && not (Hashtbl.mem seen rel) ->
              Hashtbl.add seen rel ();
              true
            | _ -> false)
          units
      in
      let findings = ref [] in
      let hot_fns = ref [] in
      let emitter rel src =
        let pragmas = Ndnlint.pragmas_of_source src in
        fun ~rule ~line ~col ~msg ->
          let status =
            if Ndnlint.pragma_suppresses pragmas ~line ~rule then
              Ndnlint.Pragma_suppressed
            else
              match Ndnlint.allowlist_lookup allowlist ~rule ~file:rel with
              | Some e -> Ndnlint.Allowlisted e.Ndnlint.a_just
              | None -> Ndnlint.Active
          in
          findings :=
            {
              Ndnlint.rule;
              severity = Ndnlint.severity_of_rule rule;
              file = rel;
              line;
              col;
              message = msg;
              status;
            }
            :: !findings
      in
      List.iter
        (fun u ->
          let rel = Option.get u.u_source in
          match u.u_annots with
          | Cmt_format.Implementation str ->
            let src = read_file (Filename.concat cfg.root rel) in
            let emit = emitter rel src in
            if
              List.exists (fun p -> under p rel) cfg.lib_prefixes
              && Hashtbl.mem shared u.u_name
            then r1_structure ~emit str;
            let hots = hot_lines src in
            if hots <> [] then
              hot_structure ~hot_lines:hots
                ~on_hot:(fun vb line ->
                  let name = binding_name vb.vb_pat in
                  hot_fns :=
                    { hf_file = rel; hf_name = name; hf_line = line }
                    :: !hot_fns;
                  List.iter (scan_hot_body ~emit name)
                    (function_bodies vb.vb_expr))
                str;
            scan_g1 ~emit str
          | _ -> ())
        analyzable;
      u1 cfg ~emitter units;
      let shared_units =
        Hashtbl.fold (fun k () acc -> k :: acc) shared []
        |> List.sort String.compare
      in
      Ok
        {
          findings = Ndnlint.sort_findings !findings;
          scanned =
            List.filter_map (fun u -> u.u_source) analyzable
            |> List.sort String.compare;
          shared_units;
          hot_functions =
            List.sort
              (fun a b ->
                match String.compare a.hf_file b.hf_file with
                | 0 -> Int.compare a.hf_line b.hf_line
                | c -> c)
              !hot_fns;
        }
    end)
