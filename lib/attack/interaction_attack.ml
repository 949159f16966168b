type verdict = Talking | Not_talking

type result = {
  trials : int;
  accuracy : float;
  false_positives : int;
  false_negatives : int;
}

let scope_probe_hit (setup : Ndn.Network.conversation_setup) name =
  match
    Ndn.Network.fetch_rtt setup.Ndn.Network.cnet
      ~from:setup.Ndn.Network.eavesdropper ~scope:2 ~timeout_ms:200. name
  with
  | Some _ -> true
  | None -> false

let probe_conversation (setup : Ndn.Network.conversation_setup) () =
  (* Predictable frame names: prefix/<seq>. The adversary sweeps recent
     sequence numbers on both sides. *)
  let side_active prefix =
    let rec go seq =
      if seq >= 32 then false
      else if scope_probe_hit setup (Ndn.Name.append prefix (string_of_int seq))
      then true
      else go (seq + 1)
    in
    go 0
  in
  if
    side_active setup.Ndn.Network.alice_prefix
    && side_active setup.Ndn.Network.bob_prefix
  then Talking
  else Not_talking

let run ~naming ?(trials = 20) ?(frames = 16) ?(seed = 31) () =
  let correct = ref 0 and fp = ref 0 and fn = ref 0 in
  for trial = 0 to trials - 1 do
    let setup = Ndn.Network.conversation ~seed:(seed + trial) () in
    let talking = trial mod 2 = 0 in
    if talking then begin
      let session = Core.Interactive_session.start setup ~naming ~frames () in
      Ndn.Network.run setup.Ndn.Network.cnet;
      (* The call must actually have happened for the ground truth to
         mean anything. *)
      assert (Core.Interactive_session.complete session)
    end;
    let verdict = probe_conversation setup () in
    (match (verdict, talking) with
    | Talking, true | Not_talking, false -> incr correct
    | Talking, false -> incr fp
    | Not_talking, true -> incr fn);
    ()
  done;
  {
    trials;
    accuracy = float_of_int !correct /. float_of_int trials;
    false_positives = !fp;
    false_negatives = !fn;
  }
