(** Per-thread trace accumulation (paper §4.3, §4.5).

    Each program thread owns a builder; entries are appended in program
    order. [PMTest_SEND_TRACE] corresponds to {!take}: the accumulated
    section is handed off (to a worker thread) and a fresh section starts.
    Tracking can be toggled ([PMTest_START] / [PMTest_END]) — while
    disabled, entries are dropped at the door.

    A builder holds boxed [Event.t] entries, the in-process session's one
    trace representation. Code that ships sections across a process
    boundary (the [pmtestd] client) encodes into {!Packed} arenas
    instead. *)

open Pmtest_util

type t

val create : ?thread:int -> unit -> t

val thread : t -> int

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val emit : t -> Event.kind -> Loc.t -> unit
(** Appends unless tracking is disabled. *)

val length : t -> int
(** Entries accumulated in the current section. *)

val take : t -> Event.t array
(** Current section as an array; the builder restarts empty. *)

val sink : t -> Sink.t
(** The builder viewed as an instrumentation sink. *)
