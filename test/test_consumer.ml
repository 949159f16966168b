(* Tests for Ndn.Consumer: the retransmitting fetch loop, the RTT
   estimator it drives, Karn's algorithm (retransmitted samples must
   not feed the estimator) and the estimator-threading fetch_sequence.

   The loop runs over a real two-node topology so timeouts, losses and
   link repairs happen through the engine, not through mocks. *)

let prefix = Ndn.Name.of_string "/s"

(* consumer --[latency, loss]-- producer; the consumer does not cache,
   so every attempt traverses the link. *)
let make_pair ?(loss = 0.) ?(latency = Sim.Latency.Constant 5.) () =
  let net = Ndn.Network.create ~seed:3 () in
  let c = Ndn.Network.add_node net ~caching:false "C" in
  let p = Ndn.Network.add_node net "P" in
  let cf, _ = Ndn.Network.connect net ~loss ~latency c p in
  Ndn.Network.route net c ~prefix ~via:cf;
  Ndn.Node.add_producer p ~prefix (fun i ->
      Some
        (Ndn.Data.create ~producer:"P" ~key:"k" ~payload:"v"
           i.Ndn.Interest.name));
  (net, c)

let fetch_sync ?max_retries ?estimator net c name =
  let result = ref None in
  Ndn.Consumer.fetch c ?max_retries ?estimator
    ~on_done:(fun o ->
      (match !result with
      | Some _ -> Alcotest.fail "on_done fired more than once"
      | None -> ());
      result := Some o)
    name;
  Ndn.Network.run net;
  match !result with
  | Some o -> o
  | None -> Alcotest.fail "on_done never fired"

(* --- total loss: retries, backoff, exactly one on_done --- *)

let test_lossy_exhausts_retries () =
  let net, c = make_pair ~loss:1.0 () in
  let estimator = Ndn.Consumer.Rtt_estimator.create ~initial_rto_ms:50. () in
  let o = fetch_sync ~max_retries:3 ~estimator net c (Ndn.Name.of_string "/s/x") in
  Alcotest.(check bool) "no data" true (o.Ndn.Consumer.data = None);
  Alcotest.(check int) "initial attempt + 3 retries" 4 o.Ndn.Consumer.attempts;
  (* Timeouts back off exponentially from the initial RTO: the four
     attempts wait 50 + 100 + 200 + 400 virtual ms. *)
  Alcotest.(check (float 1e-9)) "elapsed = sum of backed-off RTOs" 750.
    o.Ndn.Consumer.elapsed_ms;
  (* Backoff fires when scheduling a retry, not after the final
     failure, so three backoffs total. *)
  Alcotest.(check (float 1e-9)) "RTO left at the last backoff" 400.
    (Ndn.Consumer.Rtt_estimator.rto estimator);
  Alcotest.(check int) "lost attempts feed no samples" 0
    (Ndn.Consumer.Rtt_estimator.samples estimator)

let test_backoff_monotone () =
  let e = Ndn.Consumer.Rtt_estimator.create ~initial_rto_ms:50. () in
  let rtos =
    List.init 6 (fun _ ->
        let r = Ndn.Consumer.Rtt_estimator.rto e in
        Ndn.Consumer.Rtt_estimator.backoff e;
        r)
  in
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Printf.sprintf "rto %g < %g" a b)
        true (a < b))
    (List.filteri (fun i _ -> i < 5) rtos)
    (List.tl rtos);
  (* ... up to the clamp. *)
  let e = Ndn.Consumer.Rtt_estimator.create ~initial_rto_ms:50_000. () in
  Ndn.Consumer.Rtt_estimator.backoff e;
  Ndn.Consumer.Rtt_estimator.backoff e;
  Alcotest.(check (float 1e-9)) "clamped at 60 s" 60_000.
    (Ndn.Consumer.Rtt_estimator.rto e)

(* --- clean link: one attempt, one sample --- *)

let test_clean_fetch_observes () =
  let net, c = make_pair () in
  let estimator = Ndn.Consumer.Rtt_estimator.create () in
  let o = fetch_sync ~estimator net c (Ndn.Name.of_string "/s/y") in
  Alcotest.(check bool) "data arrived" true (o.Ndn.Consumer.data <> None);
  Alcotest.(check int) "single attempt" 1 o.Ndn.Consumer.attempts;
  Alcotest.(check int) "one RTT sample" 1
    (Ndn.Consumer.Rtt_estimator.samples estimator);
  match Ndn.Consumer.Rtt_estimator.srtt estimator with
  | None -> Alcotest.fail "srtt unset after a first-attempt success"
  | Some srtt ->
    Alcotest.(check bool) "srtt is the measured RTT" true (srtt > 0.)

(* --- Karn's algorithm: a post-retransmission sample is discarded --- *)

let test_karn_skips_retransmitted_sample () =
  let net, c = make_pair () in
  let down up =
    match Ndn.Network.set_link_state net ~a:"C" ~b:"P" ~up () with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  in
  down false;
  (* Repair the link while the first attempt's timeout is pending: the
     retry (attempt 2) then succeeds. *)
  Ndn.Node.schedule_app_at c ~time:50. (fun () -> down true);
  let estimator = Ndn.Consumer.Rtt_estimator.create ~initial_rto_ms:100. () in
  let o = fetch_sync ~estimator net c (Ndn.Name.of_string "/s/z") in
  Alcotest.(check bool) "data arrived on the retry" true
    (o.Ndn.Consumer.data <> None);
  Alcotest.(check int) "two attempts" 2 o.Ndn.Consumer.attempts;
  Alcotest.(check int) "ambiguous sample discarded" 0
    (Ndn.Consumer.Rtt_estimator.samples estimator);
  Alcotest.(check bool) "srtt still unset" true
    (Ndn.Consumer.Rtt_estimator.srtt estimator = None);
  Alcotest.(check (float 1e-9)) "backed-off RTO retained" 200.
    (Ndn.Consumer.Rtt_estimator.rto estimator)

(* --- fetch_sequence threads one estimator through the stream --- *)

let test_fetch_sequence () =
  let net, c = make_pair () in
  let names =
    List.init 4 (fun i -> Ndn.Name.of_string (Printf.sprintf "/s/seq/%d" i))
  in
  let result = ref None in
  Ndn.Consumer.fetch_sequence c ~names
    ~on_done:(fun outcomes -> result := Some outcomes)
    ();
  Ndn.Network.run net;
  match !result with
  | None -> Alcotest.fail "sequence never completed"
  | Some outcomes ->
    Alcotest.(check int) "one outcome per name" 4 (List.length outcomes);
    List.iter2
      (fun name o ->
        match o.Ndn.Consumer.data with
        | None -> Alcotest.fail "sequence fetch failed"
        | Some d ->
          Alcotest.(check string) "outcomes in request order"
            (Ndn.Name.to_string name)
            (Ndn.Name.to_string d.Ndn.Data.name))
      names outcomes;
    (* The shared estimator converges: later fetches run with an RTO
       derived from measured RTTs, far below the 1 s initial default —
       observable as total elapsed time, which would otherwise admit
       no successful retry. *)
    List.iteri
      (fun i o ->
        Alcotest.(check int)
          (Printf.sprintf "fetch %d needs no retry" i)
          1 o.Ndn.Consumer.attempts)
      outcomes

let () =
  Alcotest.run "consumer"
    [
      ( "fetch",
        [
          Alcotest.test_case "lossy link exhausts retries" `Quick
            test_lossy_exhausts_retries;
          Alcotest.test_case "backoff monotone until clamp" `Quick
            test_backoff_monotone;
          Alcotest.test_case "clean fetch feeds estimator" `Quick
            test_clean_fetch_observes;
          Alcotest.test_case "karn: retransmitted sample discarded" `Quick
            test_karn_skips_retransmitted_sample;
          Alcotest.test_case "fetch_sequence threads estimator" `Quick
            test_fetch_sequence;
        ] );
    ]
