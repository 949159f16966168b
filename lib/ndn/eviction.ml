type t = Lru | Fifo | Lfu | Random_replacement

let to_string = function
  | Lru -> "lru"
  | Fifo -> "fifo"
  | Lfu -> "lfu"
  | Random_replacement -> "random"

let of_string s =
  match String.lowercase_ascii s with
  | "lru" -> Some Lru
  | "fifo" -> Some Fifo
  | "lfu" -> Some Lfu
  | "random" -> Some Random_replacement
  | _ -> None

let all = [ Lru; Fifo; Lfu; Random_replacement ]
