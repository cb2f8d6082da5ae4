(** Parser for the textual IR format emitted by {!Printer} — a
    hand-written lexer and recursive-descent parser, so kernels can be
    stored in `.cir` files, inspected, edited and fed back through the
    pipeline (and so tests can round-trip printer output).

    Grammar (informal):
    {v
    module  := kernel*
    kernel  := "kernel" "@" NAME "(" param-list ")" "{" block+ "}"
    param   := "%" NAME ":" ty
    ty      := "i1" | "i32" | "f32" | "void" | "ptr" "(" space ")"
    block   := NAME ":" instr*
    instr   := ("%" NAME "=")? rhs
    value   := INT | FLOAT | "true" | "false" | "undef" ":" ty | "%" NAME
    v}

    Forward references are legal only where SSA allows them (phi
    operands); everything else must be defined textually before use,
    which the verifier re-checks afterwards. *)

open Ssa

type token =
  | T_ident of string   (* identifiers, opcodes, labels *)
  | T_local of string   (* %name *)
  | T_global of string  (* @name *)
  | T_int of int
  | T_float of float
  | T_lparen | T_rparen | T_lbrace | T_rbrace
  | T_lbracket | T_rbracket
  | T_colon | T_comma | T_equals
  | T_eof

exception Parse_error of string

let errf fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Lexer *)

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '.' || c = '_' || c = '-'

let tokenize (src : string) : (token * int) list =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let push t = toks := (t, !line) :: !toks in
  let i = ref 0 in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = ';' then begin
      (* comment to end of line *)
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '%' || c = '@' then begin
      let start = !i + 1 in
      let j = ref start in
      while !j < n && is_ident_char src.[!j] do
        incr j
      done;
      if !j = start then errf "line %d: empty name after '%c'" !line c;
      let name = String.sub src start (!j - start) in
      push (if c = '%' then T_local name else T_global name);
      i := !j
    end
    else if
      c = '-' || (c >= '0' && c <= '9')
    then begin
      (* integer, or a hex float in OCaml %h form: [-]0x1.8p+3, or nan/inf
         handled under identifiers *)
      let start = !i in
      let j = ref !i in
      if src.[!j] = '-' then incr j;
      while
        !j < n
        && (is_ident_char src.[!j] || src.[!j] = '+'
           || (src.[!j] = '-' && !j > start && (src.[!j - 1] = 'p' || src.[!j - 1] = 'P')))
      do
        incr j
      done;
      let text = String.sub src start (!j - start) in
      (match int_of_string_opt text with
      | Some v -> push (T_int v)
      | None -> (
          match float_of_string_opt text with
          | Some f -> push (T_float f)
          | None -> errf "line %d: bad numeric literal %S" !line text));
      i := !j
    end
    else if is_ident_char c then begin
      let start = !i in
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do
        incr j
      done;
      let text = String.sub src start (!j - start) in
      (* identifiers that are float literals: nan, inf, infinity *)
      (match text with
      | "nan" -> push (T_float Float.nan)
      | "inf" | "infinity" -> push (T_float Float.infinity)
      | _ -> push (T_ident text));
      i := !j
    end
    else begin
      (match c with
      | '(' -> push T_lparen
      | ')' -> push T_rparen
      | '{' -> push T_lbrace
      | '}' -> push T_rbrace
      | '[' -> push T_lbracket
      | ']' -> push T_rbracket
      | ':' -> push T_colon
      | ',' -> push T_comma
      | '=' -> push T_equals
      | _ -> errf "line %d: unexpected character %C" !line c);
      incr i
    end;
    ignore (peek 0)
  done;
  List.rev ((T_eof, !line) :: !toks)

(* ------------------------------------------------------------------ *)
(* Parser state *)

type stream = { mutable toks : (token * int) list }

let peek (s : stream) : token =
  match s.toks with (t, _) :: _ -> t | [] -> T_eof

let line_of (s : stream) : int =
  match s.toks with (_, l) :: _ -> l | [] -> 0

let advance (s : stream) : token =
  match s.toks with
  | (t, _) :: rest ->
      s.toks <- rest;
      t
  | [] -> T_eof

let expect (s : stream) (t : token) (what : string) : unit =
  let got = advance s in
  if got <> t then errf "line %d: expected %s" (line_of s) what

let expect_ident (s : stream) (what : string) : string =
  match advance s with
  | T_ident x -> x
  | _ -> errf "line %d: expected %s" (line_of s) what

(* symbolic operands, resolved once the defining instruction exists *)
type sym =
  | S_int of int
  | S_float of float
  | S_bool of bool
  | S_undef of Types.ty
  | S_ref of string

let parse_ty (s : stream) : Types.ty =
  match advance s with
  | T_ident "i1" -> Types.I1
  | T_ident "i32" -> Types.I32
  | T_ident "f32" -> Types.F32
  | T_ident "void" -> Types.Void
  | T_ident "ptr" ->
      expect s T_lparen "'(' after ptr";
      let space =
        match expect_ident s "address space" with
        | "global" -> Types.Global
        | "shared" -> Types.Shared
        | "flat" -> Types.Flat
        | other -> errf "line %d: bad address space %s" (line_of s) other
      in
      expect s T_rparen "')' after address space";
      Types.Ptr space
  | _ -> errf "line %d: expected a type" (line_of s)

let parse_value (s : stream) : sym =
  match advance s with
  | T_int v -> S_int v
  | T_float f -> S_float f
  | T_ident "true" -> S_bool true
  | T_ident "false" -> S_bool false
  | T_ident "undef" ->
      expect s T_colon "':' after undef";
      S_undef (parse_ty s)
  | T_local name -> S_ref name
  | _ -> errf "line %d: expected a value" (line_of s)

(* parsed instruction awaiting operand/type resolution *)
type proto = {
  p_result : string option;
  p_op : Op.t;
  p_syms : sym list;
  p_labels : string list;  (* branch targets / phi incoming blocks *)
  p_ty : Types.ty option;  (* explicit type (phi, load) *)
  p_line : int;
}

let binop_of_name = function
  | "add" -> Some (Op.Ibin Op.Add)
  | "sub" -> Some (Op.Ibin Op.Sub)
  | "mul" -> Some (Op.Ibin Op.Mul)
  | "sdiv" -> Some (Op.Ibin Op.Sdiv)
  | "srem" -> Some (Op.Ibin Op.Srem)
  | "and" -> Some (Op.Ibin Op.And)
  | "or" -> Some (Op.Ibin Op.Or)
  | "xor" -> Some (Op.Ibin Op.Xor)
  | "shl" -> Some (Op.Ibin Op.Shl)
  | "lshr" -> Some (Op.Ibin Op.Lshr)
  | "ashr" -> Some (Op.Ibin Op.Ashr)
  | "smin" -> Some (Op.Ibin Op.Smin)
  | "smax" -> Some (Op.Ibin Op.Smax)
  | "fadd" -> Some (Op.Fbin Op.Fadd)
  | "fsub" -> Some (Op.Fbin Op.Fsub)
  | "fmul" -> Some (Op.Fbin Op.Fmul)
  | "fdiv" -> Some (Op.Fbin Op.Fdiv)
  | "fmin" -> Some (Op.Fbin Op.Fmin)
  | "fmax" -> Some (Op.Fbin Op.Fmax)
  | _ -> None

let icmp_pred_of_name = function
  | "eq" -> Op.Ieq
  | "ne" -> Op.Ine
  | "slt" -> Op.Islt
  | "sle" -> Op.Isle
  | "sgt" -> Op.Isgt
  | "sge" -> Op.Isge
  | p -> errf "unknown icmp predicate %s" p

let fcmp_pred_of_name = function
  | "oeq" -> Op.Foeq
  | "one" -> Op.Fone
  | "olt" -> Op.Folt
  | "ole" -> Op.Fole
  | "ogt" -> Op.Fogt
  | "oge" -> Op.Foge
  | p -> errf "unknown fcmp predicate %s" p

(* comma-separated values until end of operand list *)
let rec parse_value_list (s : stream) (acc : sym list) : sym list =
  let v = parse_value s in
  if peek s = T_comma then begin
    ignore (advance s);
    parse_value_list s (v :: acc)
  end
  else List.rev (v :: acc)

let parse_rhs (s : stream) (p_result : string option) : proto =
  let p_line = line_of s in
  let mk ?ty ?(syms = []) ?(labels = []) op =
    { p_result; p_op = op; p_syms = syms; p_labels = labels; p_ty = ty; p_line }
  in
  let opname = expect_ident s "an opcode" in
  match opname with
  | "phi" ->
      let ty = parse_ty s in
      let rec pairs acc_v acc_b =
        expect s T_lbracket "'[' in phi";
        let v = parse_value s in
        expect s T_comma "',' in phi pair";
        let b = expect_ident s "phi incoming label" in
        expect s T_rbracket "']' in phi";
        if peek s = T_comma then begin
          ignore (advance s);
          pairs (v :: acc_v) (b :: acc_b)
        end
        else (List.rev (v :: acc_v), List.rev (b :: acc_b))
      in
      let syms, labels = pairs [] [] in
      mk ~ty ~syms ~labels Op.Phi
  | "br" ->
      let l = expect_ident s "branch target" in
      mk ~labels:[ l ] Op.Br
  | "condbr" ->
      let c = parse_value s in
      expect s T_comma "',' after condbr condition";
      let lt = expect_ident s "true target" in
      expect s T_comma "',' between condbr targets";
      let lf = expect_ident s "false target" in
      mk ~syms:[ c ] ~labels:[ lt; lf ] Op.Condbr
  | "ret" -> mk Op.Ret
  | "store" ->
      let v = parse_value s in
      expect s T_comma "',' in store";
      let p = parse_value s in
      mk ~syms:[ v; p ] Op.Store
  | "load" ->
      let ty = parse_ty s in
      expect s T_comma "',' in load";
      let p = parse_value s in
      mk ~ty ~syms:[ p ] Op.Load
  | "icmp" ->
      let pred = icmp_pred_of_name (expect_ident s "icmp predicate") in
      mk ~syms:(parse_value_list s []) (Op.Icmp pred)
  | "fcmp" ->
      let pred = fcmp_pred_of_name (expect_ident s "fcmp predicate") in
      mk ~syms:(parse_value_list s []) (Op.Fcmp pred)
  | "not" -> mk ~syms:(parse_value_list s []) Op.Not
  | "select" -> mk ~syms:(parse_value_list s []) Op.Select
  | "gep" -> mk ~syms:(parse_value_list s []) Op.Gep
  | "thread.idx" -> mk Op.Thread_idx
  | "block.idx" -> mk Op.Block_idx
  | "block.dim" -> mk Op.Block_dim
  | "grid.dim" -> mk Op.Grid_dim
  | "syncthreads" -> mk Op.Syncthreads
  | "alloc.shared" -> (
      match advance s with
      | T_int sz -> mk (Op.Alloc_shared sz)
      | _ -> errf "line %d: alloc.shared needs a size" p_line)
  | "sitofp" -> mk ~syms:(parse_value_list s []) Op.Sitofp
  | "fptosi" -> mk ~syms:(parse_value_list s []) Op.Fptosi
  | "addrspace.cast" -> mk ~syms:(parse_value_list s []) Op.Addrspace_cast
  | other -> (
      match binop_of_name other with
      | Some op -> mk ~syms:(parse_value_list s []) op
      | None -> errf "line %d: unknown opcode %s" p_line other)

(* ------------------------------------------------------------------ *)
(* Function assembly *)

(* is the upcoming token sequence `IDENT :` (i.e. a new block label)? *)
let at_label (s : stream) : bool =
  match s.toks with
  | (T_ident _, _) :: (T_colon, _) :: _ -> true
  | _ -> false

let parse_kernel (s : stream) : func =
  expect s (T_ident "kernel") "'kernel'";
  let fname =
    match advance s with
    | T_global n -> n
    | _ -> errf "line %d: expected @name after 'kernel'" (line_of s)
  in
  expect s T_lparen "'(' opening the parameter list";
  let rec parse_params acc idx =
    match peek s with
    | T_rparen ->
        ignore (advance s);
        List.rev acc
    | T_local pname ->
        ignore (advance s);
        expect s T_colon "':' after parameter name";
        let pty = parse_ty s in
        let p = { pname; pty; pindex = idx } in
        if peek s = T_comma then ignore (advance s);
        parse_params (p :: acc) (idx + 1)
    | _ -> errf "line %d: expected a parameter or ')'" (line_of s)
  in
  let params = parse_params [] 0 in
  expect s T_lbrace "'{' opening the function body";
  (* parse blocks into protos *)
  let block_tbl : (string, block) Hashtbl.t = Hashtbl.create 16 in
  let block_order : block list ref = ref [] in
  let block_of name =
    match Hashtbl.find_opt block_tbl name with
    | Some b -> b
    | None ->
        let b = mk_block name in
        Hashtbl.replace block_tbl name b;
        b
  in
  let parsed : (block * proto list) list ref = ref [] in
  let rec parse_blocks () =
    match peek s with
    | T_rbrace -> ignore (advance s)
    | T_ident label when at_label s ->
        ignore (advance s);
        ignore (advance s) (* ':' *);
        let b = block_of label in
        block_order := b :: !block_order;
        let rec instrs acc =
          match peek s with
          | T_rbrace | T_eof -> List.rev acc
          | T_ident _ when at_label s -> List.rev acc
          | T_local name ->
              ignore (advance s);
              expect s T_equals "'=' after result name";
              instrs (parse_rhs s (Some name) :: acc)
          | T_ident _ -> instrs (parse_rhs s None :: acc)
          | _ ->
              errf "line %d: expected an instruction or block label"
                (line_of s)
        in
        parsed := (b, instrs []) :: !parsed;
        parse_blocks ()
    | T_eof -> errf "unexpected end of file inside @%s" fname
    | _ -> errf "line %d: expected a block label or '}'" (line_of s)
  in
  parse_blocks ();
  let parsed = List.rev !parsed in
  (* resolution environment: %name -> value, seeded with the params *)
  let env : (string, value) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace env p.pname (Param p)) params;
  let resolve_now (sym : sym) (line : int) : value =
    match sym with
    | S_int v -> Int v
    | S_float f -> Float f
    | S_bool b -> Bool b
    | S_undef t -> Undef t
    | S_ref name -> (
        match Hashtbl.find_opt env name with
        | Some v -> v
        | None -> errf "line %d: %%%s used before definition" line name)
  in
  (* every name is defined once (parameters included); phi results are
     pre-registered so any instruction may reference them *)
  let defined = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace defined p.pname ()) params;
  List.iter
    (fun (_, protos) ->
      List.iter
        (fun p ->
          (match p.p_result with
          | Some name when Hashtbl.mem defined name ->
              errf "line %d: %%%s is defined twice" p.p_line name
          | Some name -> Hashtbl.replace defined name ()
          | None -> ());
          if p.p_op = Op.Phi then
            match p.p_result, p.p_ty with
            | Some name, Some ty ->
                Hashtbl.replace env name (Instr (mk_instr Op.Phi [||] [||] ty))
            | _ -> errf "line %d: phi needs a result and a type" p.p_line)
        protos)
    parsed;
  (* create instructions in order *)
  let pending_phis : (instr * proto) list ref = ref [] in
  let f = mk_func fname params in
  List.iter
    (fun (b, protos) ->
      append_block f b;
      List.iter
        (fun p ->
          let i =
            if p.p_op = Op.Phi then begin
              let i =
                match p.p_result with
                | Some name -> (
                    match Hashtbl.find env name with
                    | Instr i -> i
                    | _ -> assert false)
                | None -> errf "line %d: phi without result" p.p_line
              in
              pending_phis := (i, p) :: !pending_phis;
              i
            end
            else begin
              let operands =
                Array.of_list
                  (List.map (fun sym -> resolve_now sym p.p_line) p.p_syms)
              in
              let targets = Array.of_list (List.map block_of p.p_labels) in
              (match (p.p_op, Array.length operands) with
              | Op.Select, k when k <> 3 ->
                  errf "line %d: select takes 3 operands, got %d" p.p_line k
              | _ -> ());
              (* a load states its type; the rule derives the rest *)
              let ty =
                match p.p_ty, result_ty p.p_op operands with
                | Some t, _ | None, Some t -> t
                | None, None -> errf "gep base is not a pointer"
              in
              let i = mk_instr p.p_op operands targets ty in
              (match p.p_result with
              | Some name -> Hashtbl.replace env name (Instr i)
              | None -> ());
              i
            end
          in
          append_instr b i)
        protos)
    parsed;
  (* second pass: phi incoming lists *)
  List.iter
    (fun (i, p) ->
      let values = List.map (fun sym -> resolve_now sym p.p_line) p.p_syms in
      let blocks = List.map block_of p.p_labels in
      set_phi_incoming i (List.combine values blocks))
    !pending_phis;
  f

(* ------------------------------------------------------------------ *)
(* Entry points *)

(** Parse a module (a sequence of kernels) from a string. *)
let parse_module ~(name : string) (src : string) : (modul, string) result =
  match
    let s = { toks = tokenize src } in
    let m = mk_module name in
    let rec kernels () =
      match peek s with
      | T_eof -> ()
      | T_ident "kernel" ->
          m.funcs <- m.funcs @ [ parse_kernel s ];
          kernels ()
      | _ -> errf "line %d: expected 'kernel' or end of file" (line_of s)
    in
    kernels ();
    m
  with
  | m -> Ok m
  | exception Parse_error msg -> Error msg

(** Parse a single function from a string. *)
let parse_func (src : string) : (func, string) result =
  match parse_module ~name:"<string>" src with
  | Ok { funcs = [ f ]; _ } -> Ok f
  | Ok _ -> Error "expected exactly one kernel"
  | Error e -> Error e
