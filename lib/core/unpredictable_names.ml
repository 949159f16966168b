type session = { secret : string; prefix : Ndn.Name.t }

(* 20 hex chars = 80 bits: far beyond any feasible probing campaign,
   short enough to keep names readable in traces. *)
let rand_hex_len = 20

let guess_space_bits = rand_hex_len * 4

let create ~secret ~prefix = { secret; prefix }

let rand_component t ~seq =
  if seq < 0 then invalid_arg "Unpredictable_names: negative seq";
  let msg = Ndn.Name.to_string t.prefix ^ "|" ^ string_of_int seq in
  String.sub (Ndn_crypto.Hmac.hex_mac ~key:t.secret msg) 0 rand_hex_len

let name_of_seq t ~seq =
  Ndn.Name.append (Ndn.Name.append t.prefix (string_of_int seq)) (rand_component t ~seq)

let verify_name t name =
  if not (Ndn.Name.is_strict_prefix ~prefix:t.prefix name) then None
  else
    let rest =
      (* Components after the session prefix. *)
      let rec drop n xs = if n = 0 then xs else match xs with [] -> [] | _ :: r -> drop (n - 1) r in
      drop (Ndn.Name.length t.prefix) (Ndn.Name.components name)
    in
    match rest with
    | [ seq_str; rand ] -> (
      match int_of_string_opt seq_str with
      | Some seq when seq >= 0 ->
        if String.equal rand (rand_component t ~seq) then Some seq else None
      | Some _ | None -> None)
    | _ -> None

let make_data t ~producer ~key ?(freshness_ms = 250.) ~payload ~seq () =
  Ndn.Data.create ~strict_match:true ~freshness_ms ~producer ~key ~payload
    (name_of_seq t ~seq)
