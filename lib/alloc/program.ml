module Process = Dh_mem.Process

type context = {
  alloc : Allocator.t;
  policy : Policy.t;
  input : string;
  out : Process.Out.t;
  fuel : Process.Fuel.t;
}

type handler = { handle : int -> unit; finish : unit -> unit }
type service = { requests : int; init : context -> handler }

type t = { name : string; main : context -> unit; service : service option }

let make ~name main = { name; main; service = None }

(* A service's plain-run shape: initialize, handle every request in
   order, finish.  Deriving [main] from the service keeps the
   checkpointed and sequential executions the same program by
   construction — the determinism-fingerprint equivalence the rewind
   tests assert starts here. *)
let of_service ~name service =
  {
    name;
    main =
      (fun ctx ->
        let h = service.init ctx in
        for k = 0 to service.requests - 1 do
          h.handle k
        done;
        h.finish ());
    service = Some service;
  }

let context ?(policy_kind = Policy.Raw) ?(input = "") ~fuel alloc out =
  let policy = Policy.make ~kind:policy_kind alloc in
  { alloc = Policy.allocator policy; policy; input; out; fuel }

let run ?policy_kind ?input ?(fuel = 100_000_000) program alloc =
  let fuel = Process.Fuel.create ~budget:fuel in
  Process.run (fun out -> program.main (context ?policy_kind ?input ~fuel alloc out))
