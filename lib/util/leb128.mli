(** Unsigned LEB128 varints: seven value bits per byte, low group first,
    the high bit set on every byte but the last.  The one codec behind
    the lengths and counts of the wire payloads and of a packed arena's
    self-contained byte form.  (A packed arena's per-event operands are
    zigzag-encoded and keep their own hot-path codec.) *)

exception Malformed of string
(** A decode error; callers map it to their own error type. *)

val put : Buffer.t -> int -> unit
(** Append one varint.  Raises [Invalid_argument] on a negative value:
    signed quantities must be validated before they are encoded. *)

val get : string -> int -> int * int
(** [get s pos] decodes the varint at [pos] and returns it with the
    position just past it.  Raises {!Malformed} if it is truncated or
    does not fit a non-negative OCaml int. *)
