(* Minimal JSON tree with a deterministic compact emitter and a
   recursive-descent parser.  See json.mli for the contract. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Emission *)

let escape_to (b : Buffer.t) (s : string) : unit =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* shortest decimal representation that still round-trips; JSON has no
   inf/nan, those become null at the call site *)
let float_repr (x : float) : string =
  let s = Printf.sprintf "%.12g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let rec to_buffer (b : Buffer.t) (j : t) : unit =
  match j with
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float x ->
      if Float.is_finite x then Buffer.add_string b (float_repr x)
      else Buffer.add_string b "null"
  | Str s -> escape_to b s
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          to_buffer b x)
        xs;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape_to b k;
          Buffer.add_char b ':';
          to_buffer b v)
        fields;
      Buffer.add_char b '}'

let to_string (j : t) : string =
  let b = Buffer.create 256 in
  to_buffer b j;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing *)

exception Bad of string

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail fmt =
    Printf.ksprintf (fun m -> raise (Bad (Printf.sprintf "%s at %d" m !pos))) fmt
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail "expected %c" c
  in
  let literal (word : string) (v : t) : t =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  (* UTF-8 encode one code point *)
  let add_utf8 (b : Buffer.t) (cp : int) : unit =
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let hex4 () : int =
    if !pos + 4 > n then fail "truncated \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail "non-hex digit in \\u escape"
    in
    let v = ref 0 in
    for k = 0 to 3 do
      v := (!v lsl 4) lor digit s.[!pos + k]
    done;
    pos := !pos + 4;
    !v
  in
  let parse_string () : string =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents b
      | '\\' -> (
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              let cp = hex4 () in
              (* surrogate pair *)
              if cp >= 0xD800 && cp <= 0xDBFF
                 && !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
              then begin
                pos := !pos + 2;
                let lo = hex4 () in
                add_utf8 b (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
              end
              else add_utf8 b cp
          | _ -> fail "bad escape \\%c" e);
          loop ())
      | c -> Buffer.add_char b c; loop ()
    in
    loop ()
  in
  let parse_number () : t =
    let start = !pos in
    let is_float = ref false in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' -> true
      | '.' | 'e' | 'E' ->
          is_float := true;
          true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some x -> Float x
      | None -> fail "bad number %S" text
    else
      match int_of_string_opt text with
      | Some k -> Int k
      | None -> fail "bad number %S" text
  in
  let rec parse_value () : t =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec elems () =
            items := parse_value () :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elems ()
            | Some ']' -> advance ()
            | _ -> fail "expected , or ]"
          in
          elems ();
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ()
            | Some '}' -> advance ()
            | _ -> fail "expected , or }"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail "unexpected character %C" c
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

let member (k : string) (j : t) : t option =
  match j with Obj fields -> List.assoc_opt k fields | _ -> None

(* another emitter may write an integral number as a float *)
let get what conv j k =
  match Option.bind (member k j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing %s field %S" what k)

let get_str = get "string" (function Str s -> Some s | _ -> None)
let get_bool = get "bool" (function Bool b -> Some b | _ -> None)

let get_int =
  get "int" (function
    | Int i -> Some i
    | Float f when Float.is_integer f -> Some (int_of_float f)
    | _ -> None)

let get_float =
  get "number" (function
    | Float f -> Some f
    | Int i -> Some (float_of_int i)
    | _ -> None)

let get_opt get j k =
  match member k j with
  | None -> Ok None
  | Some _ -> Result.map Option.some (get j k)

let get_str_opt j k =
  match member k j with
  | None | Some (Str _) -> get_opt get_str j k
  | Some _ -> Error (Printf.sprintf "field %S is not a string" k)

let get_list elt j k =
  Result.bind (get "list" (function List l -> Some l | _ -> None) j k)
  @@ fun l ->
  List.fold_left
    (fun acc x ->
      Result.bind acc (fun xs -> Result.map (fun v -> v :: xs) (elt x)))
    (Ok []) l
  |> Result.map List.rev

let parse_lines ~name decode text =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest when String.trim line = "" -> go (i + 1) acc rest
    | line :: rest -> (
        let invalid e = "invalid JSON: " ^ e in
        match Result.bind (Result.map_error invalid (parse line)) decode with
        | Error e -> Error (Printf.sprintf "%s:%d: %s" name i e)
        | Ok v -> go (i + 1) (v :: acc) rest)
  in
  go 1 [] (String.split_on_char '\n' text)
