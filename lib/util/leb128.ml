exception Malformed of string

let put b v =
  if v < 0 then invalid_arg (Printf.sprintf "Leb128.put: negative value %d" v);
  let rec go v =
    if v < 0x80 then Buffer.add_char b (Char.unsafe_chr v)
    else begin
      Buffer.add_char b (Char.unsafe_chr (v land 0x7f lor 0x80));
      go (v lsr 7)
    end
  in
  go v

(* An OCaml int holds 63 bits, nine groups (shifts 0..56): a tenth byte,
   or a ninth group reaching the sign bit, cannot be a value [put] wrote. *)
let get s pos =
  let len = String.length s in
  let rec go p shift acc =
    if p >= len then raise (Malformed "truncated varint")
    else if shift > 56 then raise (Malformed "varint too long")
    else begin
      let b = Char.code (String.unsafe_get s p) in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 <> 0 then go (p + 1) (shift + 7) acc
      else if acc < 0 then raise (Malformed "varint overflows an int")
      else (acc, p + 1)
    end
  in
  go pos 0 0
