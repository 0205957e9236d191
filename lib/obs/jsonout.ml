type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* One writer: every document is rendered straight into one buffer per
   domain, reused from call to call, so a response costs its bytes and
   one copy out.  Ints go through a digit loop and strings are escaped
   in place, clean runs copied whole. *)

let add_int buf i =
  (* Digits come off the non-positive image of [i], so [min_int] needs
     no case of its own. *)
  let rec digits x =
    if x <> 0 then begin
      digits (x / 10);
      Buffer.add_char buf (Char.unsafe_chr (48 - (x mod 10)))
    end
  in
  if i = 0 then Buffer.add_char buf '0'
  else if i < 0 then begin
    Buffer.add_char buf '-';
    digits i
  end
  else digits (-i)

let hex_digits = "0123456789abcdef"

let add_escaped buf s =
  let n = String.length s in
  let clean = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !clean (i - !clean);
      clean := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf hex_digits.[Char.code c lsr 4];
          Buffer.add_char buf hex_digits.[Char.code c land 15]
    end
  done;
  if !clean = 0 then Buffer.add_string buf s
  else Buffer.add_substring buf s !clean (n - !clean)

let add_quoted buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6f" f

let rec compact buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> Buffer.add_string buf (float_str f)
  | Str s -> add_quoted buf s
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
          add_quoted buf k;
          Buffer.add_char buf ':';
          compact buf v)
        fields;
      Buffer.add_char buf '}'

(* Pretty printing keeps scalar lists on one line (schedules, walls) and
   indents objects/nested lists — compact enough for a terminal, stable
   enough for a cram lock. *)
let is_scalar = function
  | Null | Bool _ | Int _ | Float _ | Str _ -> true
  | List _ | Obj _ -> false

let pad buf indent =
  for _ = 1 to indent do
    Buffer.add_char buf ' '
  done

let rec pretty buf indent v =
  let block opening closing items item =
    Buffer.add_char buf opening;
    Buffer.add_char buf '\n';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf ",\n";
        pad buf (indent + 2);
        item x)
      items;
    Buffer.add_char buf '\n';
    pad buf indent;
    Buffer.add_char buf closing
  in
  match v with
  | Null | Bool _ | Int _ | Float _ | Str _ -> compact buf v
  | List xs when List.for_all is_scalar xs -> compact buf v
  | List xs -> block '[' ']' xs (pretty buf (indent + 2))
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      block '{' '}' fields (fun (k, v) ->
          add_quoted buf k;
          Buffer.add_string buf ": ";
          pretty buf (indent + 2) v)

(* The domain's render buffer.  A document past [keep] bytes (a huge
   stats dump) gives its storage back rather than pinning it. *)
let keep = 1 lsl 20
let buffers = Domain.DLS.new_key (fun () -> Buffer.create 4096)

let render f v =
  let buf = Domain.DLS.get buffers in
  Buffer.clear buf;
  f buf v;
  let s = Buffer.contents buf in
  if Buffer.length buf > keep then Buffer.reset buf;
  s

let to_string v = render compact v

let to_line v =
  render
    (fun buf v ->
      compact buf v;
      Buffer.add_char buf '\n')
    v

let to_string_pretty v =
  render
    (fun buf v ->
      pretty buf 0 v;
      Buffer.add_char buf '\n')
    v
