(* The JSON writer as it stood before the one-buffer rewrite — kept
   verbatim as the reference the writer is compared with byte for
   byte (test_obs.ml). *)

open Jsonout

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6f" f

let rec compact buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_str f)
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          compact buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          compact buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  compact buf v;
  Buffer.contents buf

let is_scalar = function
  | Null | Bool _ | Int _ | Float _ | Str _ -> true
  | List _ | Obj _ -> false

let rec pretty buf indent v =
  match v with
  | Null | Bool _ | Int _ | Float _ | Str _ -> compact buf v
  | List xs when List.for_all is_scalar xs -> compact buf v
  | List [] -> Buffer.add_string buf "[]"
  | List xs ->
      Buffer.add_string buf "[\n";
      let pad = String.make (indent + 2) ' ' in
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          pretty buf (indent + 2) x)
        xs;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ');
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_string buf "{\n";
      let pad = String.make (indent + 2) ' ' in
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          pretty buf (indent + 2) v)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ');
      Buffer.add_char buf '}'

let to_string_pretty v =
  let buf = Buffer.create 512 in
  pretty buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf
