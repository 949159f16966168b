type t =
  | Constant of float
  | Content_specific
  | Dynamic of { floor : float; half_life_requests : float }

let hit_delay t ~fetch_delay ~hits_so_far =
  match t with
  | Constant gamma -> gamma
  | Content_specific -> fetch_delay
  | Dynamic { floor; half_life_requests } ->
    let decay = 0.5 ** (float_of_int hits_so_far /. half_life_requests) in
    Float.max floor (fetch_delay *. decay)

let miss_padding t ~actual_delay =
  match t with
  | Constant gamma -> Float.max 0. (gamma -. actual_delay)
  | Content_specific | Dynamic _ -> 0.
