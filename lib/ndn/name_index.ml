(* Linear probing over two parallel arrays: the names, and one int per
   cell packing the slot above the name's memoised hash.  A cell is
   empty when its int is [-1].  [Name.hash] is a [Hashtbl.hash], below
   2^30, so an occupied cell's int is never negative, and a probe
   compares the hash bits before it looks at the name; the probe that
   finds a name has read its slot in the same load.  Empty cells hold
   [Name.root], so the table keeps no removed name alive.

   The load stays at most one half, so every probe run ends at an empty
   cell.  [remove] keeps that true without tombstones: it walks the run
   after the hole and moves back each entry whose home cell does not
   lie strictly between the hole and the entry, so every entry stays
   reachable from its home by an unbroken run.

   [census.(n)] counts the bound names of length [n], kept where a
   binding is made or dropped, so a store can tell which lengths are
   worth a probe without looking at the names. *)

type t = {
  mutable names : Name.t array;
  mutable cells : int array; (* -1: empty; else slot lsl hash_bits lor hash *)
  mutable size : int;
  mutable census : int array;
}

let hash_bits = 30
let hash_mask = (1 lsl hash_bits) - 1

(* A store starts with room for four names in eight cells. *)
let create () =
  { names = Array.make 8 Name.root; cells = Array.make 8 (-1); size = 0; census = [||] }

let length t = t.size

let hash name = Name.hash name land hash_mask

(* The cell holding [name], or the empty cell that ends its run. *)
(* ndnlint: hot *)
let rec probe names cells mask h name i =
  let c = Array.unsafe_get cells i in
  if c < 0 || (c land hash_mask = h && Name.equal (Array.unsafe_get names i) name) then i
  else probe names cells mask h name ((i + 1) land mask)

let cell t name =
  let h = hash name in
  let mask = Array.length t.cells - 1 in
  probe t.names t.cells mask h name (h land mask)

(* ndnlint: hot *)
let find t name =
  let c = Array.unsafe_get t.cells (cell t name) in
  if c < 0 then -1 else c lsr hash_bits

let mem t name = find t name >= 0

(* --- length census --- *)

let count t name =
  let len = Name.length name in
  if len >= Array.length t.census then begin
    let census = Array.make (Int.max 8 (2 * len)) 0 in
    Array.blit t.census 0 census 0 (Array.length t.census);
    t.census <- census
  end;
  t.census.(len) <- t.census.(len) + 1

let uncount t name =
  let len = Name.length name in
  t.census.(len) <- t.census.(len) - 1

let has_length t n = n < Array.length t.census && t.census.(n) > 0

let rec any_from census n =
  n < Array.length census && (census.(n) > 0 || any_from census (n + 1))

(* ndnlint: hot *)
let has_longer t name = any_from t.census (Name.length name + 1)

let grow t =
  let names = t.names and cells = t.cells in
  let cap = 2 * Array.length cells in
  t.names <- Array.make cap Name.root;
  t.cells <- Array.make cap (-1);
  let mask = cap - 1 in
  Array.iteri
    (fun i c ->
      if c >= 0 then begin
        let j = probe t.names t.cells mask (c land hash_mask) names.(i) (c land mask) in
        t.names.(j) <- names.(i);
        t.cells.(j) <- c
      end)
    cells

let replace t name slot =
  if slot < 0 then invalid_arg "Name_index.replace: negative slot";
  let i = cell t name in
  let c = (slot lsl hash_bits) lor hash name in
  if t.cells.(i) >= 0 then t.cells.(i) <- c
  else begin
    let i =
      if 2 * (t.size + 1) <= Array.length t.cells then i
      else begin
        grow t;
        cell t name
      end
    in
    t.names.(i) <- name;
    t.cells.(i) <- c;
    t.size <- t.size + 1;
    count t name
  end

(* Fill [hole] from the run after it: the entry at [j] moves back when
   its home is no further from [j] than the hole is, i.e. when the hole
   lies on its probe path; the cell it leaves is the next hole. *)
let rec shift_back t mask hole j =
  let c = t.cells.(j) in
  if c < 0 then begin
    t.names.(hole) <- Name.root;
    t.cells.(hole) <- -1
  end
  else if (j - (c land mask)) land mask >= (j - hole) land mask then begin
    t.names.(hole) <- t.names.(j);
    t.cells.(hole) <- c;
    shift_back t mask j ((j + 1) land mask)
  end
  else shift_back t mask hole ((j + 1) land mask)

let remove t name =
  let i = cell t name in
  if t.cells.(i) >= 0 then begin
    let mask = Array.length t.cells - 1 in
    shift_back t mask i ((i + 1) land mask);
    t.size <- t.size - 1;
    uncount t name
  end

let clear t =
  Array.fill t.names 0 (Array.length t.names) Name.root;
  Array.fill t.cells 0 (Array.length t.cells) (-1);
  Array.fill t.census 0 (Array.length t.census) 0;
  t.size <- 0
