type t = {
  name : Name.t;
  payload : string;
  producer : string;
  signature : string;
  producer_private : bool;
  strict_match : bool;
  content_id : string option;
  freshness_ms : float option;
}

let signed_bytes ~name ~payload ~producer ~producer_private ~strict_match
    ~content_id =
  String.concat "\x00"
    [
      Name.to_string name;
      payload;
      producer;
      (if producer_private then "1" else "0");
      (if strict_match then "1" else "0");
      Option.value content_id ~default:"";
    ]

let create ?(producer_private = false) ?(strict_match = false) ?content_id
    ?freshness_ms ~producer ~key ~payload name =
  let signature =
    Ndn_crypto.Hmac.mac ~key
      (signed_bytes ~name ~payload ~producer ~producer_private ~strict_match
         ~content_id)
  in
  {
    name;
    payload;
    producer;
    signature;
    producer_private;
    strict_match;
    content_id;
    freshness_ms;
  }

let of_wire ~name ~payload ~producer ~signature ~producer_private ~strict_match
    ~content_id ~freshness_ms =
  {
    name;
    payload;
    producer;
    signature;
    producer_private;
    strict_match;
    content_id;
    freshness_ms;
  }

let verify t ~key =
  Ndn_crypto.Hmac.verify ~key
    ~msg:
      (signed_bytes ~name:t.name ~payload:t.payload ~producer:t.producer
         ~producer_private:t.producer_private ~strict_match:t.strict_match
         ~content_id:t.content_id)
    ~tag:t.signature

let size_bytes t =
  (* 64 bytes of fixed header + signature is a reasonable wire estimate. *)
  String.length (Name.to_string t.name) + String.length t.payload + 64

let is_fresh t ~age_ms =
  match t.freshness_ms with None -> true | Some f -> age_ms <= f

let import t = { t with name = Name.import t.name }
