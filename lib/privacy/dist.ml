(* Backed by an association list sorted only on demand; supports are
   small (output spaces of probing sequences), so a Hashtbl merge at
   construction is all the cleverness needed. *)

type 'a t = ('a, float) Hashtbl.t

let of_list pairs =
  let tbl = Hashtbl.create (max 8 (List.length pairs)) in
  let total =
    List.fold_left
      (fun acc (_, w) ->
        if w < 0. then invalid_arg "Dist.of_list: negative weight";
        acc +. w)
      0. pairs
  in
  if total <= 0. then invalid_arg "Dist.of_list: total weight must be positive";
  List.iter
    (fun (x, w) ->
      if w > 0. then
        let prev = Option.value (Hashtbl.find_opt tbl x) ~default:0. in
        Hashtbl.replace tbl x (prev +. (w /. total)))
    pairs;
  tbl

let of_fun ~n pmf = of_list (List.init n (fun i -> (i, pmf i)))

let constant x = of_list [ (x, 1.) ]

let uniform_int n =
  if n <= 0 then invalid_arg "Dist.uniform_int: n must be positive";
  of_fun ~n (fun _ -> 1.)

let geometric_truncated ~alpha ~domain =
  if alpha <= 0. || alpha > 1. then
    invalid_arg "Dist.geometric_truncated: alpha must be in (0, 1]";
  if domain <= 0 then invalid_arg "Dist.geometric_truncated: empty domain";
  (* of_list renormalizes, so the raw geometric weights suffice; this
     also gives the alpha = 1 uniform limit for free. *)
  of_fun ~n:domain (fun r -> alpha ** float_of_int r)

let support t = Hashtbl.fold (fun x _ acc -> x :: acc) t []

let prob t x = Option.value (Hashtbl.find_opt t x) ~default:0.

let size t = Hashtbl.length t

let map f t =
  of_list (Hashtbl.fold (fun x p acc -> (f x, p) :: acc) t [])

let expect t ~f = Hashtbl.fold (fun x p acc -> acc +. (p *. f x)) t 0.

let mean t = expect t ~f:float_of_int

let fold t ~init ~f = Hashtbl.fold (fun x p acc -> f acc x p) t init

let product a b =
  of_list
    (Hashtbl.fold
       (fun x px acc ->
         Hashtbl.fold (fun y py acc -> (((x, y), px *. py)) :: acc) b acc)
       a [])

let self_product t ~n =
  if n <= 0 then invalid_arg "Dist.self_product: n must be positive";
  let rec go n =
    if n = 1 then map (fun x -> [ x ]) t
    else
      let rest = go (n - 1) in
      map (fun (x, xs) -> x :: xs) (product t rest)
  in
  go n

let total_variation a b =
  let outcomes = Hashtbl.create 16 in
  Hashtbl.iter (fun x _ -> Hashtbl.replace outcomes x ()) a;
  Hashtbl.iter (fun x _ -> Hashtbl.replace outcomes x ()) b;
  Hashtbl.fold
    (fun x () acc -> acc +. Float.abs (prob a x -. prob b x))
    outcomes 0.
  /. 2.

let check_normalized t =
  let total = Hashtbl.fold (fun _ p acc -> acc +. p) t 0. in
  Float.abs (total -. 1.) < 1e-9
