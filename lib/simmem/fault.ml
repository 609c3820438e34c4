type access = Read | Write
type arith = Division | Modulo

type t =
  | Unmapped of { addr : int; access : access }
  | Protection of { addr : int; access : access }
  | Unmap_unmapped of { addr : int }
  | Protect_unmapped of { addr : int; len : int; fault_addr : int }
  | Arith_trap of arith

exception Error of t

let raise_fault t = raise (Error t)

let addr = function
  | Unmapped { addr; _ } | Protection { addr; _ } | Unmap_unmapped { addr } -> addr
  | Protect_unmapped { fault_addr; _ } -> fault_addr
  | Arith_trap _ -> 0

let is_memory = function Arith_trap _ -> false | _ -> true

let pp_access ppf = function
  | Read -> Format.pp_print_string ppf "read"
  | Write -> Format.pp_print_string ppf "write"

let pp ppf = function
  | Unmapped { addr; access } ->
    Format.fprintf ppf "segfault: %a of unmapped address 0x%x" pp_access access addr
  | Protection { addr; access } ->
    Format.fprintf ppf "segfault: %a violates page protection at 0x%x" pp_access
      access addr
  | Unmap_unmapped { addr } ->
    Format.fprintf ppf "munmap of unmapped address 0x%x" addr
  | Protect_unmapped { addr; len; fault_addr } ->
    Format.fprintf ppf "mprotect of range 0x%x+%d: address 0x%x is not mapped" addr
      len fault_addr
  | Arith_trap Division -> Format.pp_print_string ppf "arithmetic trap: division by zero"
  | Arith_trap Modulo -> Format.pp_print_string ppf "arithmetic trap: modulo by zero"

let to_string t = Format.asprintf "%a" pp t
