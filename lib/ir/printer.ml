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

type names = {
  val_names : (int, string) Hashtbl.t;  (** instr id -> printable name *)
  blk_names : (int, string) Hashtbl.t;  (** block id -> printable name *)
}

(** Assign stable, human-readable names: blocks keep their [bname]
    (uniquified on collision), instruction results are numbered in block
    order. *)
let assign_names (f : func) : names =
  let val_names = Hashtbl.create 64 in
  let blk_names = Hashtbl.create 16 in
  let used = Hashtbl.create 16 in
  List.iter
    (fun b ->
      let base = if b.bname = "" then "bb" else b.bname in
      let name =
        if Hashtbl.mem used base then begin
          let rec pick k =
            let cand = Printf.sprintf "%s.%d" base k in
            if Hashtbl.mem used cand then pick (k + 1) else cand
          in
          pick 1
        end
        else base
      in
      Hashtbl.replace used name ();
      Hashtbl.replace blk_names b.bid name)
    f.blocks_list;
  let counter = ref 0 in
  iter_instrs f (fun i ->
      if not (Types.equal i.ty Types.Void) then begin
        Hashtbl.replace val_names i.id (string_of_int !counter);
        incr counter
      end);
  { val_names; blk_names }

(* Everything below appends to one buffer; the [*_str] functions are
   thin wrappers for callers that want a single piece. *)

let add_instr_name buf (n : names) (i : instr) =
  match Hashtbl.find_opt n.val_names i.id with
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

let add_block_name buf (n : names) (b : block) =
  match Hashtbl.find_opt n.blk_names b.bid with
  | Some s -> Buffer.add_string buf s
  | None ->
      Buffer.add_string buf "?blk";
      Buffer.add_string buf (string_of_int b.bid)

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
          add_block_name buf n blk;
          Buffer.add_char buf ']')
        i.blocks
  | Op.Br ->
      s "br ";
      add_block_name buf n i.blocks.(0)
  | Op.Condbr ->
      s "condbr ";
      v 0;
      s ", ";
      add_block_name buf n i.blocks.(0);
      s ", ";
      add_block_name buf n i.blocks.(1)
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

let block_str (n : names) (b : block) : string =
  to_string (fun buf -> add_block_name buf n) b

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
      add_block_name buf n b;
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

let pp_func fmt f = Format.pp_print_string fmt (func_to_string f)

let pp_module fmt m = Format.pp_print_string fmt (module_to_string m)

(** Compact structural summary of the CFG: one line per block listing its
    successors, handy in debug logs and tests. *)
let cfg_summary (f : func) : string =
  let n = assign_names f in
  String.concat "\n"
    (List.map
       (fun b ->
         Printf.sprintf "%s -> [%s]" (block_str n b)
           (String.concat ", " (List.map (block_str n) (successors b))))
       f.blocks_list)
