open Pmtest_util
module Model = Pmtest_model.Model

type checker =
  | Is_persist of { addr : int; size : int }
  | Is_ordered_before of { a_addr : int; a_size : int; b_addr : int; b_size : int }

type tx_event =
  | Tx_begin
  | Tx_add of { addr : int; size : int }
  | Tx_commit
  | Tx_abort
  | Tx_checker_start
  | Tx_checker_end

type control =
  | Exclude of { addr : int; size : int }
  | Include of { addr : int; size : int }
  | Lint_off of { rule : string }
  | Lint_on of { rule : string }

type kind =
  | Op of Model.op
  | Checker of checker
  | Tx of tx_event
  | Control of control

type t = { kind : kind; loc : Loc.t; thread : int }

let valid_range ~addr ~size = size > 0 && addr >= 0 && addr <= max_int - size

let make ?(thread = 0) ?(loc = Loc.none) kind = { kind; loc; thread }

let pp_kind ppf = function
  | Op op -> Model.pp_op ppf op
  | Checker (Is_persist { addr; size }) -> Format.fprintf ppf "isPersist(0x%x,%d)" addr size
  | Checker (Is_ordered_before { a_addr; a_size; b_addr; b_size }) ->
    Format.fprintf ppf "isOrderedBefore(0x%x,%d,0x%x,%d)" a_addr a_size b_addr b_size
  | Tx Tx_begin -> Format.pp_print_string ppf "TX_BEGIN"
  | Tx (Tx_add { addr; size }) -> Format.fprintf ppf "TX_ADD(0x%x,%d)" addr size
  | Tx Tx_commit -> Format.pp_print_string ppf "TX_END"
  | Tx Tx_abort -> Format.pp_print_string ppf "TX_ABORT"
  | Tx Tx_checker_start -> Format.pp_print_string ppf "TX_CHECKER_START"
  | Tx Tx_checker_end -> Format.pp_print_string ppf "TX_CHECKER_END"
  | Control (Exclude { addr; size }) -> Format.fprintf ppf "EXCLUDE(0x%x,%d)" addr size
  | Control (Include { addr; size }) -> Format.fprintf ppf "INCLUDE(0x%x,%d)" addr size
  | Control (Lint_off { rule }) -> Format.fprintf ppf "LINT_OFF(%s)" rule
  | Control (Lint_on { rule }) -> Format.fprintf ppf "LINT_ON(%s)" rule

let pp ppf t = Format.fprintf ppf "@[<h>[t%d] %a @@ %a@]" t.thread pp_kind t.kind Loc.pp t.loc

let op_count entries =
  Array.fold_left (fun n e -> match e.kind with Op _ -> n + 1 | _ -> n) 0 entries
