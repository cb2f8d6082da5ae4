(** Lowering Mini-HIP ASTs to SSA through the {!Darm_ir.Dsl} builder
    (which performs the on-the-fly SSA construction).

    A small bidirectional-free type checker runs along the way: every
    expression is elaborated together with its surface type, and
    mismatches (float + int, branching on an int, indexing a scalar)
    are reported with source-level names. *)

open Ast
open Darm_ir
module D = Dsl

exception Error of string

let errf fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let sty_name = function S_int -> "int" | S_float -> "float" | S_bool -> "bool"

let ty_of_sty = function
  | S_int -> Types.I32
  | S_float -> Types.F32
  | S_bool -> Types.I1

type binding =
  | B_var of D.var * sty         (** mutable local *)
  | B_val of Ssa.value * sty     (** immutable scalar parameter *)
  | B_array of Ssa.value * sty   (** pointer: parameter or shared array *)

type env = (string * binding) list

let lookup (env : env) (name : string) : binding =
  match List.assoc_opt name env with
  | Some b -> b
  | None -> errf "unknown identifier %s" name

(* ------------------------------------------------------------------ *)
(* Expressions *)

let rec lower_expr (ctx : D.ctx) (env : env) (e : expr) : Ssa.value * sty =
  match e with
  | Int_lit v -> (D.i32 v, S_int)
  | Float_lit f -> (D.f32 f, S_float)
  | Bool_lit b -> (D.i1 b, S_bool)
  | Var name -> (
      match lookup env name with
      | B_var (v, sty) -> (D.get ctx v, sty)
      | B_val (v, sty) -> (v, sty)
      | B_array _ -> errf "%s is an array; index it" name)
  | Index (name, idx) -> (
      match lookup env name with
      | B_array (ptr, sty) ->
          let iv = lower_expr_expect ctx env idx S_int "array index" in
          let cell = D.gep ctx ptr iv in
          let v =
            match sty with
            | S_float -> D.load_f ctx cell
            | S_int | S_bool -> D.load ctx cell
          in
          (v, sty)
      | _ -> errf "%s is not an array" name)
  | Unary (Neg, e) -> (
      match lower_expr ctx env e with
      | v, S_int -> (D.sub ctx (D.i32 0) v, S_int)
      | v, S_float -> (D.fsub ctx (D.f32 0.) v, S_float)
      | _, S_bool -> errf "cannot negate a bool")
  | Unary (Not, e) ->
      let v = lower_expr_expect ctx env e S_bool "operand of !" in
      (D.not_ ctx v, S_bool)
  | Binary (Land, a, b) ->
      (* proper short circuit: b evaluates only when a holds *)
      let r = D.local ctx ~name:"and" Types.I1 in
      let av = lower_expr_expect ctx env a S_bool "operand of &&" in
      D.set ctx r (D.i1 false);
      D.if_then ctx av (fun () ->
          D.set ctx r (lower_expr_expect ctx env b S_bool "operand of &&"));
      (D.get ctx r, S_bool)
  | Binary (Lor, a, b) ->
      let r = D.local ctx ~name:"or" Types.I1 in
      let av = lower_expr_expect ctx env a S_bool "operand of ||" in
      D.set ctx r (D.i1 true);
      D.if_ ctx av
        (fun () -> ())
        (fun () ->
          D.set ctx r (lower_expr_expect ctx env b S_bool "operand of ||"));
      (D.get ctx r, S_bool)
  | Binary (op, a, b) -> lower_binary ctx env op a b
  | Ternary (c, t, f) ->
      let cv = lower_expr_expect ctx env c S_bool "ternary condition" in
      (* C evaluates exactly one arm, and arms may load memory: lower
         through a variable and a branch *)
      let tmp = ref None in
      D.if_ ctx cv
        (fun () ->
          let v, sty = lower_expr ctx env t in
          let var = D.local ctx ~name:"sel" (ty_of_sty sty) in
          D.set ctx var v;
          tmp := Some (var, sty))
        (fun () ->
          match !tmp with
          | Some (var, sty) ->
              let v = lower_expr_expect ctx env f sty "ternary arm" in
              D.set ctx var v
          | None -> errf "internal: ternary arm ordering");
      let var, sty = Option.get !tmp in
      (D.get ctx var, sty)
  | Call (name, args) -> lower_call ctx env name args

and lower_expr_expect ctx env e (want : sty) (what : string) : Ssa.value =
  let v, got = lower_expr ctx env e in
  if got <> want then
    errf "%s has type %s, expected %s" what (sty_name got) (sty_name want);
  v

and lower_binary ctx env op a b : Ssa.value * sty =
  let av, aty = lower_expr ctx env a in
  let bv, bty = lower_expr ctx env b in
  if aty <> bty then
    errf "operands of a binary operator differ: %s vs %s" (sty_name aty)
      (sty_name bty);
  let int_only mk = if aty = S_int then (mk ctx av bv, S_int)
    else errf "operator needs int operands, got %s" (sty_name aty)
  in
  let arith mki mkf =
    match aty with
    | S_int -> (mki ctx av bv, S_int)
    | S_float -> (mkf ctx av bv, S_float)
    | S_bool -> errf "arithmetic on bool"
  in
  let compare ip fp =
    match aty with
    | S_int -> (D.icmp ctx ip av bv, S_bool)
    | S_float -> (D.fcmp ctx fp av bv, S_bool)
    | S_bool -> errf "ordered comparison on bool"
  in
  match op with
  | Add -> arith D.add D.fadd
  | Sub -> arith D.sub D.fsub
  | Mul -> arith D.mul D.fmul
  | Div -> arith D.sdiv D.fdiv
  | Rem -> int_only D.srem
  | Shl -> int_only D.shl
  | Shr -> int_only D.lshr
  | Band -> int_only D.and_
  | Bor -> int_only D.or_
  | Bxor -> int_only D.xor
  | Lt -> compare Op.Islt Op.Folt
  | Le -> compare Op.Isle Op.Fole
  | Gt -> compare Op.Isgt Op.Fogt
  | Ge -> compare Op.Isge Op.Foge
  | Eq -> (
      match aty with
      | S_int -> (D.eq ctx av bv, S_bool)
      | S_float -> (D.fcmp ctx Op.Foeq av bv, S_bool)
      | S_bool -> (D.eq ctx (D.select ctx av (D.i32 1) (D.i32 0))
                     (D.select ctx bv (D.i32 1) (D.i32 0)), S_bool))
  | Ne -> (
      match aty with
      | S_int -> (D.ne ctx av bv, S_bool)
      | S_float -> (D.fcmp ctx Op.Fone av bv, S_bool)
      | S_bool -> (D.ne ctx (D.select ctx av (D.i32 1) (D.i32 0))
                     (D.select ctx bv (D.i32 1) (D.i32 0)), S_bool))
  | Land | Lor -> assert false (* handled in lower_expr *)

and lower_call ctx env name args : Ssa.value * sty =
  let nullary mk sty =
    match args with
    | [] -> (mk ctx, sty)
    | _ -> errf "%s takes no arguments" name
  in
  let binary_minmax imk fmk =
    match args with
    | [ a; b ] -> (
        let av, aty = lower_expr ctx env a in
        let bv, bty = lower_expr ctx env b in
        if aty <> bty then errf "%s: operand types differ" name;
        match aty with
        | S_int -> (imk ctx av bv, S_int)
        | S_float -> (fmk ctx av bv, S_float)
        | S_bool -> errf "%s on bool" name)
    | _ -> errf "%s takes two arguments" name
  in
  match name with
  | "threadIdx" -> nullary D.tid S_int
  | "blockIdx" -> nullary D.bid S_int
  | "blockDim" -> nullary D.bdim S_int
  | "gridDim" -> nullary D.gdim S_int
  | "min" -> binary_minmax D.smin D.fmin
  | "max" -> binary_minmax D.smax D.fmax
  | "float" -> (
      match args with
      | [ a ] -> (D.sitofp ctx (lower_expr_expect ctx env a S_int "float()"), S_float)
      | _ -> errf "float() takes one argument")
  | "int" -> (
      match args with
      | [ a ] -> (D.fptosi ctx (lower_expr_expect ctx env a S_float "int()"), S_int)
      | _ -> errf "int() takes one argument")
  | other -> errf "unknown builtin %s" other

(* ------------------------------------------------------------------ *)
(* Statements *)

let lower_assign ctx env (lv : lvalue) (v : Ssa.value) (sty : sty) : unit =
  match lv with
  | L_var name -> (
      match lookup env name with
      | B_var (var, want) ->
          if want <> sty then
            errf "assigning %s to %s variable %s" (sty_name sty)
              (sty_name want) name;
          D.set ctx var v
      | B_val _ -> errf "%s is a parameter; parameters are immutable" name
      | B_array _ -> errf "%s is an array; assign to an element" name)
  | L_index (name, idx) -> (
      match lookup env name with
      | B_array (ptr, want) ->
          if want <> sty then
            errf "storing %s into %s array %s" (sty_name sty)
              (sty_name want) name;
          let iv = lower_expr_expect ctx env idx S_int "array index" in
          D.store ctx v (D.gep ctx ptr iv)
      | _ -> errf "%s is not an array" name)

let lvalue_read ctx env (lv : lvalue) : Ssa.value * sty =
  match lv with
  | L_var name -> lower_expr ctx env (Var name)
  | L_index (name, idx) -> lower_expr ctx env (Index (name, idx))

let rec lower_stmt (ctx : D.ctx) (env : env) (st : stmt) : env =
  match st with
  | Decl (sty, name, init) ->
      let var = D.local ctx ~name (ty_of_sty sty) in
      (match init with
      | Some e ->
          let v = lower_expr_expect ctx env e sty ("initializer of " ^ name) in
          D.set ctx var v
      | None -> ());
      (name, B_var (var, sty)) :: env
  | Shared_decl (sty, name, size) ->
      let ptr = D.shared_array ctx size in
      (name, B_array (ptr, sty)) :: env
  | Assign (lv, e) ->
      let v, sty = lower_expr ctx env e in
      lower_assign ctx env lv v sty;
      env
  | Op_assign (lv, op, e) ->
      let cur, _ = lvalue_read ctx env lv in
      ignore cur;
      (* rebuild as lv = lv <op> e, reusing the binary typing rules *)
      let combined =
        Binary
          ( op,
            (match lv with
            | L_var n -> Var n
            | L_index (n, i) -> Index (n, i)),
            e )
      in
      let v, sty = lower_expr ctx env combined in
      lower_assign ctx env lv v sty;
      env
  | If (c, then_b, else_b) ->
      let cv = lower_expr_expect ctx env c S_bool "if condition" in
      (match else_b with
      | Some else_b ->
          D.if_ ctx cv
            (fun () -> lower_block ctx env then_b)
            (fun () -> lower_block ctx env else_b)
      | None -> D.if_then ctx cv (fun () -> lower_block ctx env then_b));
      env
  | While (c, body) ->
      D.while_ ctx
        (fun () -> lower_expr_expect ctx env c S_bool "while condition")
        (fun () -> lower_block ctx env body);
      env
  | For (init, cond, step, body) ->
      let env' =
        match init with Some st -> lower_stmt ctx env st | None -> env
      in
      D.while_ ctx
        (fun () ->
          match cond with
          | Some c -> lower_expr_expect ctx env' c S_bool "for condition"
          | None -> D.i1 true)
        (fun () ->
          lower_block ctx env' body;
          match step with
          | Some st -> ignore (lower_stmt ctx env' st)
          | None -> ());
      env
  | Sync ->
      D.sync ctx;
      env
  | Expr_stmt (Call ("__syncthreads", [])) ->
      D.sync ctx;
      env
  | Expr_stmt e ->
      ignore (lower_expr ctx env e);
      env
  | Block b ->
      lower_block ctx env b;
      env

and lower_block ctx env (b : block) : unit =
  ignore (List.fold_left (fun env st -> lower_stmt ctx env st) env b)

(* ------------------------------------------------------------------ *)
(* Kernels *)

let lower_kernel (k : kernel) : Ssa.func =
  let params =
    List.map
      (fun p ->
        ( p.p_name,
          if p.p_pointer then Types.Ptr Types.Global else ty_of_sty p.p_sty ))
      k.k_params
  in
  D.build_kernel ~name:k.k_name ~params (fun ctx values ->
      let env =
        List.map2
          (fun p v ->
            ( p.p_name,
              if p.p_pointer then B_array (v, p.p_sty)
              else B_val (v, p.p_sty) ))
          k.k_params values
      in
      lower_block ctx env k.k_body)

(** Compile a Mini-HIP source string into an IR module. *)
let compile ~(name : string) (src : string) : (Ssa.modul, string) result =
  match Parse.parse_program src with
  | Error e -> Error e
  | Ok kernels -> (
      match
        let m = Ssa.mk_module name in
        m.Ssa.funcs <- List.map lower_kernel kernels;
        m
      with
      | m -> Ok m
      | exception Error e -> Error e
      | exception Invalid_argument e -> Error e)
