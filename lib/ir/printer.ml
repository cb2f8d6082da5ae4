(** Textual form of the IR, in an LLVM-like syntax that {!Parser} can read
    back.

    Example output:
    {v
    kernel @saxpy(%x: ptr(global), %n: i32) {
    entry:
      %0 = thread.idx
      %1 = icmp slt %0, %n
      condbr %1, body, exit
    body:
      ...
    }
    v} *)

open Ssa

type names = (int, string) Hashtbl.t  (** instr id -> printable name *)

(** Number instruction results in block order. *)
let assign_names (f : func) : names =
  let names = Hashtbl.create 64 in
  let counter = ref 0 in
  iter_instrs f (fun i ->
      if not (Types.equal i.ty Types.Void) then begin
        Hashtbl.replace names i.id (string_of_int !counter);
        incr counter
      end);
  names

(* Everything below appends to one buffer; the [*_str] functions are
   thin wrappers for callers that want a single piece. *)

let add_instr_name buf (n : names) (i : instr) =
  match Hashtbl.find_opt n i.id with
  | Some s -> Buffer.add_string buf s
  | None ->
      Buffer.add_char buf '?';
      Buffer.add_string buf (string_of_int i.id)

let add_value buf (n : names) (v : value) =
  match v with
  | Int k -> Buffer.add_string buf (string_of_int k)
  | Bool true -> Buffer.add_string buf "true"
  | Bool false -> Buffer.add_string buf "false"
  | Float x -> Buffer.add_string buf (Printf.sprintf "%h" x)
  | Undef t ->
      Buffer.add_string buf "undef:";
      Buffer.add_string buf (Types.to_string t)
  | Param p ->
      Buffer.add_char buf '%';
      Buffer.add_string buf p.pname
  | Instr i ->
      Buffer.add_char buf '%';
      add_instr_name buf n i

let add_instr buf (n : names) (i : instr) =
  let v k = add_value buf n i.operands.(k) in
  let s = Buffer.add_string buf in
  if not (Types.equal i.ty Types.Void) then begin
    Buffer.add_char buf '%';
    add_instr_name buf n i;
    s " = "
  end;
  match i.op with
  | Op.Phi ->
      if Array.length i.operands <> Array.length i.blocks then
        invalid_arg "Printer: phi with unpaired incoming values";
      s "phi ";
      s (Types.to_string i.ty);
      Buffer.add_char buf ' ';
      Array.iteri
        (fun k blk ->
          s (if k = 0 then "[" else ", [");
          v k;
          s ", ";
          s blk.bname;
          Buffer.add_char buf ']')
        i.blocks
  | Op.Br ->
      s "br ";
      s i.blocks.(0).bname
  | Op.Condbr ->
      s "condbr ";
      v 0;
      s ", ";
      s i.blocks.(0).bname;
      s ", ";
      s i.blocks.(1).bname
  | Op.Ret -> s "ret"
  | Op.Store ->
      s "store ";
      v 0;
      s ", ";
      v 1
  | Op.Syncthreads -> s "syncthreads"
  | Op.Load ->
      s "load ";
      s (Types.to_string i.ty);
      s ", ";
      v 0
  | _ ->
      s (Op.to_string i.op);
      Array.iteri
        (fun k _ ->
          s (if k = 0 then " " else ", ");
          v k)
        i.operands

let to_string (add : Buffer.t -> 'a -> unit) (x : 'a) : string =
  let buf = Buffer.create 32 in
  add buf x;
  Buffer.contents buf

let value_str (n : names) (v : value) : string =
  to_string (fun buf -> add_value buf n) v

let instr_str (n : names) (i : instr) : string =
  to_string (fun buf -> add_instr buf n) i

let func_to_string (f : func) : string =
  let n = assign_names f in
  let buf = Buffer.create 4096 in
  let s = Buffer.add_string buf in
  s "kernel @";
  s f.fname;
  Buffer.add_char buf '(';
  List.iteri
    (fun k p ->
      if k > 0 then s ", ";
      Buffer.add_char buf '%';
      s p.pname;
      s ": ";
      s (Types.to_string p.pty))
    f.params;
  s ") {\n";
  List.iter
    (fun b ->
      s b.bname;
      s ":\n";
      List.iter
        (fun i ->
          s "  ";
          add_instr buf n i;
          Buffer.add_char buf '\n')
        b.instrs)
    f.blocks_list;
  s "}\n";
  Buffer.contents buf

let module_to_string (m : modul) : string =
  String.concat "\n" (List.map func_to_string m.funcs)

(** Compact structural summary of the CFG: one line per block listing its
    successors, handy in debug logs and tests. *)
let cfg_summary (f : func) : string =
  String.concat "\n"
    (List.map
       (fun b ->
         Printf.sprintf "%s -> [%s]" b.bname
           (String.concat ", " (List.map (fun s -> s.bname) (successors b))))
       f.blocks_list)
