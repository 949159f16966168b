type t =
  | Interest of Interest.t
  | Data of Data.t
  | Nack of Nack.t

let name = function
  | Interest i -> i.Interest.name
  | Data d -> d.Data.name
  | Nack n -> n.Nack.name

let size_bytes = function
  | Interest i -> String.length (Name.to_string i.Interest.name) + 24
  | Data d -> Data.size_bytes d
  | Nack n -> String.length (Name.to_string n.Nack.name) + 16
