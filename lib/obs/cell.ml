(* The calling domain's local-storage root, read with the primitive
   under [Domain.DLS]: one load from the domain's state, where
   [Domain.self] is a C call.  Every domain has its own root array and a
   cached slot keeps the one it holds alive, so [==] on it is an owner
   check.  A domain's root is replaced only when its local storage
   grows, which costs that domain one re-resolve. *)
external domain_root : unit -> Obj.t array = "%dls_get"

type 'a slot = Unresolved | Owned of { root : Obj.t array; value : 'a }

(* [values] is only ever extended, by consing under [lock], and is read
   without it: a reader sees either the old list or the new one, both
   immutable.  Only domain [d] adds the entry keyed [d], so a miss in
   the unlocked scan cannot race with another insertion of that key. *)
type 'a t = { set : 'a set; mutable mine : 'a slot }

and 'a set = { make : unit -> 'a; lock : Mutex.t; mutable values : (int * 'a) list }

let create make =
  { set = { make; lock = Mutex.create (); values = [] }; mine = Unresolved }

let share t = { set = t.set; mine = Unresolved }

let refresh t =
  let me = (Domain.self () :> int) in
  let value =
    match List.assoc_opt me t.set.values with
    | Some v -> v
    | None ->
      let v = t.set.make () in
      Mutex.protect t.set.lock (fun () -> t.set.values <- (me, v) :: t.set.values);
      v
  in
  (* One immutable block: a racing writer on another domain replaces the
     whole slot, never pairs this owner with its value. *)
  t.mine <- Owned { root = domain_root (); value };
  value

let get t =
  match t.mine with
  | Owned { root; value } when root == domain_root () -> value
  | Owned _ | Unresolved -> refresh t

let fold f acc t = List.fold_left (fun acc (_, v) -> f acc v) acc t.set.values
