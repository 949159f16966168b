type verdict = Private | Public

type t = { triggered : unit Ndn.Name.Tbl.t }

let create () = { triggered = Ndn.Name.Tbl.create 64 }

let reserved_component = "private"

let name_marked_private name =
  match Ndn.Name.last name with
  | Some c -> String.equal c reserved_component
  | None -> false

let classify t ~name ~producer_private ~consumer_private =
  let producer_private = producer_private || name_marked_private name in
  if producer_private then Private
  else if Ndn.Name.Tbl.mem t.triggered name then Public
  else if consumer_private then Private
  else begin
    (* First non-private interest: trigger — the object is non-private
       for the rest of its cache residency. *)
    Ndn.Name.Tbl.replace t.triggered name ();
    Public
  end

let is_triggered t name = Ndn.Name.Tbl.mem t.triggered name

let on_evicted t name = Ndn.Name.Tbl.remove t.triggered name
