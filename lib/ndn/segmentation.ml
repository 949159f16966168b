let segment_name ~base i =
  if i < 0 then invalid_arg "Segmentation.segment_name: negative index";
  Name.append base (string_of_int i)

let split ~payload ~segment_size =
  if segment_size <= 0 then invalid_arg "Segmentation.split: segment_size must be positive";
  let n = String.length payload in
  if n = 0 then [ "" ]
  else begin
    let rec go off acc =
      if off >= n then List.rev acc
      else
        let len = min segment_size (n - off) in
        go (off + len) (String.sub payload off len :: acc)
    in
    go 0 []
  end

let segment_count ~payload ~segment_size =
  List.length (split ~payload ~segment_size)

let encode_segment ~total chunk = string_of_int total ^ "\n" ^ chunk

let parse_segment (data : Data.t) =
  match String.index_opt data.Data.payload '\n' with
  | None -> None
  | Some i -> (
    match int_of_string_opt (String.sub data.Data.payload 0 i) with
    | Some total when total > 0 ->
      Some
        ( total,
          String.sub data.Data.payload (i + 1)
            (String.length data.Data.payload - i - 1) )
    | Some _ | None -> None)

let producer_handler ~base ~producer ~key ?(producer_private = false) ?content_id
    ~payload ~segment_size () =
  let chunks = Array.of_list (split ~payload ~segment_size) in
  let total = Array.length chunks in
  fun (interest : Interest.t) ->
    let name = interest.Interest.name in
    if not (Name.is_strict_prefix ~prefix:base name) then None
    else
      match Name.last name with
      | Some seg when Name.length name = Name.length base + 1 -> (
        match int_of_string_opt seg with
        | Some i when i >= 0 && i < total ->
          Some
            (Data.create ~producer_private ?content_id ~producer
               ~key
               ~payload:(encode_segment ~total chunks.(i))
               name)
        | Some _ | None -> None)
      | Some _ | None -> None

let fetch_all node ~base ?timeout_ms ~on_complete () =
  (* State machine over the segment set: fetch segment 0, learn the
     total, keep [pipeline] interests in flight, reassemble. *)
  let pipeline = 4 in
  let chunks : (int, string) Hashtbl.t = Hashtbl.create 16 in
  let total = ref None in
  let next_to_issue = ref 1 in
  let in_flight = ref 0 in
  let failed = ref false in
  let finished = ref false in
  let finish result =
    if not !finished then begin
      finished := true;
      on_complete result
    end
  in
  let assemble () =
    match !total with
    | Some t when Hashtbl.length chunks = t ->
      let buf = Buffer.create 256 in
      let ok = ref true in
      for i = 0 to t - 1 do
        match Hashtbl.find_opt chunks i with
        | Some c -> Buffer.add_string buf c
        | None -> ok := false
      done;
      if !ok then finish (Some (Buffer.contents buf)) else finish None
    | _ -> ()
  in
  let rec issue i =
    incr in_flight;
    Node.express_interest node ?timeout_ms
      ~on_data:(fun ~rtt_ms:_ data -> on_segment i data)
      ~on_timeout:(fun () ->
        decr in_flight;
        failed := true;
        finish None)
      (segment_name ~base i)
  and pump () =
    match !total with
    | None -> ()
    | Some t ->
      while (not !failed) && !next_to_issue < t && !in_flight < pipeline do
        let i = !next_to_issue in
        incr next_to_issue;
        issue i
      done
  and on_segment i data =
    decr in_flight;
    if not !failed then begin
      match parse_segment data with
      | None ->
        failed := true;
        finish None
      | Some (t, chunk) ->
        (match !total with
        | None -> total := Some t
        | Some t' -> if t <> t' then failed := true);
        if !failed then finish None
        else begin
          Hashtbl.replace chunks i chunk;
          pump ();
          assemble ()
        end
    end
  in
  issue 0
