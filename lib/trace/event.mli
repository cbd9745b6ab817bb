(** Trace entries (paper §4.3).

    A trace interleaves the PM operations executed by the program under
    test with the checkers and control annotations the programmer placed.
    Every entry carries the source location of the statement that produced
    it so diagnostics read [FAIL @ file:line]. *)

open Pmtest_util

type checker =
  | Is_persist of { addr : int; size : int }
      (** Assert the range has persisted since its last update. *)
  | Is_ordered_before of { a_addr : int; a_size : int; b_addr : int; b_size : int }
      (** Assert every write to the A range persists before any write to
          the B range. *)

type tx_event =
  | Tx_begin  (** Transaction body starts (PMDK [TX_BEGIN]). *)
  | Tx_add of { addr : int; size : int }
      (** The range was backed up in the undo log (PMDK [TX_ADD]). *)
  | Tx_commit  (** Transaction body ended normally (PMDK [TX_END]). *)
  | Tx_abort  (** Transaction terminated without committing. *)
  | Tx_checker_start  (** [TX_CHECKER_START] annotation. *)
  | Tx_checker_end  (** [TX_CHECKER_END] annotation. *)

type control =
  | Exclude of { addr : int; size : int }
      (** Remove the range from testing scope ([PMTest_EXCLUDE]). *)
  | Include of { addr : int; size : int }
      (** Put the range back in scope ([PMTest_INCLUDE]). *)
  | Lint_off of { rule : string }
      (** Suppress the named static lint rule (["*"] for all rules) from
          this point of the trace on. Ignored by the dynamic engine. *)
  | Lint_on of { rule : string }
      (** Undo one matching {!Lint_off}. Ignored by the dynamic engine. *)

type kind =
  | Op of Pmtest_model.Model.op
  | Checker of checker
  | Tx of tx_event
  | Control of control

type t = { kind : kind; loc : Loc.t; thread : int }

val valid_range : addr:int -> size:int -> bool
(** [size > 0], [addr >= 0] and [addr + size] does not overflow.  The
    engine's shadow memory needs a non-empty range, so every range that
    enters from outside the program (a wire frame, a [.pmt] line, a
    checker or scope call) is checked against this first. *)

val make : ?thread:int -> ?loc:Loc.t -> kind -> t
val pp : Format.formatter -> t -> unit
val pp_kind : Format.formatter -> kind -> unit

val op_count : t array -> int
(** Number of PM operations (entries whose kind is [Op _]) in a trace. *)
