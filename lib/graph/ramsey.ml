(* Known exact small Ramsey numbers, keyed by the sorted argument list with
   the trivial entries (1 and 2) already removed. *)
let exact_values =
  [
    ([ 3; 3 ], 6);
    ([ 3; 4 ], 9);
    ([ 3; 5 ], 14);
    ([ 3; 6 ], 18);
    ([ 3; 7 ], 23);
    ([ 3; 8 ], 28);
    ([ 3; 9 ], 36);
    ([ 4; 4 ], 18);
    ([ 4; 5 ], 25);
    ([ 3; 3; 3 ], 17);
  ]

(* Arguments above 2 as a multiset: (value, multiplicity) pairs in
   ascending value order. The Greenwood–Gleason sum has one identical
   term per copy of a value, so a key of k arguments costs one recursive
   call per distinct value, and the fours-only keys of [four_clique_bound]
   reduce to (number of 3s, number of 4s). [bump v d m] adds [d] copies
   of [v] (or removes one, [d = -1]); a 2 is neutral — a 2-tournament
   only needs one edge, so that color can be dropped. *)
let rec bump v d = function
  | (w, n) :: rest when w = v -> if n + d > 0 then (w, n + d) :: rest else rest
  | ((w, _) as x) :: rest when w < v -> x :: bump v d rest
  | m -> if v > 2 then (v, d) :: m else m

let multiset args = List.fold_left (fun m s -> bump s 1 m) [] args
let exact_table = List.map (fun (args, v) -> (multiset args, v)) exact_values

(* Bounds past [max_int] saturate there. *)
let mul_sat n v = if v > max_int / n then max_int else n * v
let add_sat a b = if a > max_int - b then max_int else a + b

let memo : ((int * int) list, int) Hashtbl.t = Hashtbl.create 64

let rec bound = function
  | [] -> 2
  | [ (s, 1) ] -> s
  | key -> (
      match Hashtbl.find_opt memo key with
      | Some v -> v
      | None ->
          let v =
            match List.assoc_opt key exact_table with
            | Some v -> v
            | None ->
                (* Greenwood–Gleason recursion. The bound is monotone in
                   the key, so once a term of the sum saturates the key's
                   bound does too, and the remaining terms are never
                   computed. *)
                let rec sum acc = function
                  | [] -> acc
                  | (s, n) :: rest ->
                      let part = bound (bump (s - 1) 1 (bump s (-1) key)) in
                      let acc =
                        if part = max_int then max_int
                        else add_sat acc (mul_sat n part)
                      in
                      if acc = max_int then max_int else sum acc rest
                in
                let total = sum 0 key in
                if total = max_int then max_int
                else 2 - List.fold_left (fun n (_, c) -> n + c) 0 key + total
          in
          Hashtbl.add memo key v;
          v)

let validate args =
  List.iter
    (fun s -> if s < 1 then invalid_arg "Ramsey: arguments must be >= 1")
    args;
  if args = [] then invalid_arg "Ramsey: empty argument list"

(* 1 forces the answer 1 *)
let upper_bound args =
  validate args;
  if List.mem 1 args then 1 else bound (multiset args)

let four_clique_bound ~colors =
  if colors < 1 then invalid_arg "Ramsey.four_clique_bound: colors < 1";
  upper_bound (List.init colors (fun _ -> 4))

let is_exact args =
  validate args;
  List.mem 1 args
  ||
  match multiset args with
  | [] | [ (_, 1) ] -> true
  | key -> List.mem_assoc key exact_table
