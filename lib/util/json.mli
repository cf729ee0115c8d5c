(** The repository's one JSON codec: the value type, a canonical emitter
    and a parser.  Trace and metrics exports, the BENCH files, benchdiff
    reports and glassdb-lint's [--json] output all go through it.

    The emitter is canonical, so identical values serialize
    byte-identically: fields keep their list order, integral numbers below
    1e15 print with no fraction, other finite numbers print as [%.6g],
    non-finite numbers print as [null], and strings escape only the double
    quote, the backslash, newline (as [\n]) and the other control
    characters (as [\u00XX]); bytes from 0x80 up pass through raw.
    Re-emitting parsed emitter output gives the same bytes, except for a
    fractional number that [%.6g] rounds into exponent form (magnitude
    near 1e6 and up): it parses back as an integer, which prints in
    full. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string

exception Bad of string

val parse : string -> t
(** Parse one JSON value, surrounded by optional whitespace.  Raises
    {!Bad} on malformed input, including trailing bytes.  A [\u] escape
    above 0x7f decodes to ['?']. *)

val field : string -> t -> t option
(** [field name (Obj fields)] is the first value bound to [name];
    [None] when absent or when the value is not an object. *)
