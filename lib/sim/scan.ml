(* One scanner for every parser: the positioned error, the directive
   reader of the line-oriented formats and the JSON lexer of the ledger
   and the JSONL trace reader (DESIGN §17). *)

type position = Byte of int | Line of int | Column of int * int

type error = { position : position; reason : string }

exception Fail of error

let fail position reason = raise (Fail { position; reason })

let failf position fmt = Printf.ksprintf (fail position) fmt

let protect f = match f () with v -> Ok v | exception Fail e -> Error e

let error_to_string e =
  match e.position with
  | Byte n -> Printf.sprintf "byte %d: %s" n e.reason
  | Line n -> Printf.sprintf "line %d: %s" n e.reason
  | Column (l, c) -> Printf.sprintf "line %d, column %d: %s" l c e.reason

(* --- directive text --- *)

let ( let* ) = Result.bind

let is_blank = function ' ' | '\t' | '\r' -> true | _ -> false

let tokens line =
  (* Right to left, so the list comes out in order. *)
  let rec go stop acc =
    if stop = 0 then acc
    else if is_blank line.[stop - 1] then go (stop - 1) acc
    else begin
      let start = ref (stop - 1) in
      while !start > 0 && not (is_blank line.[!start - 1]) do
        decr start
      done;
      go !start (String.sub line !start (stop - !start) :: acc)
    end
  in
  go (String.length line) []

(* Blank or a comment: no token, or a first token starting with '#'. *)
let skipped line =
  let rec go i =
    i = String.length line || (is_blank line.[i] && go (i + 1)) || line.[i] = '#'
  in
  go 0

let fold_lines text ~init ~f =
  let rec go line acc = function
    | [] -> Ok acc
    | l :: rest when skipped l -> go (line + 1) acc rest
    | l :: rest -> (
      match f acc ~line (tokens l) with
      | Ok acc -> go (line + 1) acc rest
      | Error reason -> Error (error_to_string { position = Line line; reason }))
  in
  go 1 init (String.split_on_char '\n' text)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Ok text
  | exception Sys_error msg ->
    (* A failed open names the file; a failed read (a directory) does
       not. *)
    let prefix = path ^ ": " in
    Error (if String.starts_with ~prefix msg then msg else prefix ^ msg)

let float_field name s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%s: expected a number, got %S" name s)

let int_field name s =
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "%s: expected an integer, got %S" name s)

let bool_field name s =
  match String.lowercase_ascii s with
  | "true" | "yes" | "1" -> Ok true
  | "false" | "no" | "0" -> Ok false
  | _ -> Error (Printf.sprintf "%s: expected a boolean, got %S" name s)

let checked_field name f s =
  match f s with
  | v -> Ok v
  | exception Invalid_argument m -> Error (Printf.sprintf "%s: %s" name m)

let parse_attrs ~directive ~allowed tokens =
  List.fold_left
    (fun acc token ->
      let* acc = acc in
      match String.index_opt token '=' with
      | Some i ->
        let key = String.sub token 0 i in
        let value = String.sub token (i + 1) (String.length token - i - 1) in
        if List.mem key allowed then Ok ((key, value) :: acc)
        else
          Error
            (Printf.sprintf "%s: unknown attribute %S (allowed: %s)" directive
               key
               (String.concat ", " allowed))
      | None ->
        Error (Printf.sprintf "%s: expected key=value, got %S" directive token))
    (Ok []) tokens

let attr attrs key = List.assoc_opt key attrs

let attr_field attrs key ~default field =
  match attr attrs key with Some v -> field key v | None -> Ok default

let is_attr token = String.contains token '='

let float_str f =
  let s = Printf.sprintf "%.12g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* --- JSON --- *)

module Json = struct
  let escape_into b s =
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
      s

  type lexer = {
    text : string;
    mutable pos : int;
    ws : bool;
    where : int -> position;
    buf : Buffer.t;
  }

  let lexer ~ws ~where text = { text; pos = 0; ws; where; buf = Buffer.create 16 }

  let pos lx = lx.pos

  let at lx i = lx.where i

  let errf lx fmt = failf (lx.where lx.pos) fmt

  let skip_ws lx =
    if lx.ws then
      while
        lx.pos < String.length lx.text
        && match lx.text.[lx.pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false
      do
        lx.pos <- lx.pos + 1
      done

  let peek lx =
    skip_ws lx;
    if lx.pos < String.length lx.text then Some lx.text.[lx.pos] else None

  let expect lx c =
    if peek lx = Some c then lx.pos <- lx.pos + 1 else errf lx "expected '%c'" c

  (* The escape after a backslash, [lx.pos] on its letter. *)
  let decode_escape lx =
    let t = lx.text in
    let add c = Buffer.add_char lx.buf c in
    match t.[lx.pos] with
    | ('"' | '\\' | '/') as c -> add c
    | 'n' -> add '\n'
    | 'r' -> add '\r'
    | 't' -> add '\t'
    | 'b' -> add '\b'
    | 'u' ->
      if lx.pos + 5 > String.length t then errf lx "truncated \\u escape";
      let hex = String.sub t (lx.pos + 1) 4 in
      (match int_of_string_opt ("0x" ^ hex) with
      | None -> errf lx "bad \\u escape %S" hex
      | Some code when code > 0xff ->
        errf lx "\\u escape %S outside the exporter's byte range" hex
      | Some code -> add (Char.chr code));
      lx.pos <- lx.pos + 4
    | c -> errf lx "unsupported escape '\\%c'" c

  let string lx ~raw =
    expect lx '"';
    let t = lx.text and start = lx.pos in
    Buffer.clear lx.buf;
    let rec go () =
      if lx.pos >= String.length t then errf lx "unterminated string"
      else
        match t.[lx.pos] with
        | '"' ->
          lx.pos <- lx.pos + 1;
          if raw then String.sub t start (lx.pos - 1 - start) else Buffer.contents lx.buf
        | '\\' ->
          lx.pos <- lx.pos + 1;
          if lx.pos >= String.length t then errf lx "unterminated string";
          if not raw then decode_escape lx;
          lx.pos <- lx.pos + 1;
          go ()
        | c ->
          if not raw then Buffer.add_char lx.buf c;
          lx.pos <- lx.pos + 1;
          go ()
    in
    go ()

  let span lx ok =
    skip_ws lx;
    let start = lx.pos in
    while lx.pos < String.length lx.text && ok lx.text.[lx.pos] do
      lx.pos <- lx.pos + 1
    done;
    String.sub lx.text start (lx.pos - start)

  let sequence lx ~close item =
    if peek lx = Some close then lx.pos <- lx.pos + 1
    else begin
      let rec go () =
        item ();
        if peek lx = Some ',' then begin
          lx.pos <- lx.pos + 1;
          go ()
        end
        else expect lx close
      in
      go ()
    end
end
