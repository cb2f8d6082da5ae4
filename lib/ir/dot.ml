(** Graphviz export of control-flow graphs.

    Each basic block becomes a record node listing its instructions;
    conditional-branch edges are labelled [T]/[F].  With
    [~highlight_divergent] the caller can mark blocks (e.g. those ending
    in divergent branches) to be filled — the rendering the paper's
    Figure 5 uses to walk through the melding stages. *)

open Ssa

let escape (s : string) : string =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '<' | '>' | '{' | '}' | '|' ->
          Buffer.add_char buf '\\';
          Buffer.add_char buf c
      | '\n' -> Buffer.add_string buf "\\l"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(** [func_to_dot ?highlight f] renders the CFG as a dot digraph.
    [highlight] selects blocks drawn with a filled background. *)
let func_to_dot ?(highlight = fun (_ : block) -> false) (f : func) : string =
  let names = Printer.assign_names f in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n" f.fname);
  Buffer.add_string buf "  node [shape=record, fontname=\"monospace\"];\n";
  List.iter
    (fun b ->
      let label =
        b.bname ^ ":\n"
        ^ String.concat "\n"
            (List.map (fun i -> "  " ^ Printer.instr_str names i) b.instrs)
        ^ "\n"
      in
      let style =
        if highlight b then ", style=filled, fillcolor=lightsalmon" else ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  b%d [label=\"%s\"%s];\n" b.bid (escape label)
           style))
    f.blocks_list;
  List.iter
    (fun b ->
      if has_terminator b then begin
        let t = terminator b in
        match t.op, Array.to_list t.blocks with
        | Op.Condbr, [ td; fd ] ->
            Buffer.add_string buf
              (Printf.sprintf "  b%d -> b%d [label=\"T\"];\n" b.bid td.bid);
            Buffer.add_string buf
              (Printf.sprintf "  b%d -> b%d [label=\"F\"];\n" b.bid fd.bid)
        | _, dests ->
            List.iter
              (fun d ->
                Buffer.add_string buf
                  (Printf.sprintf "  b%d -> b%d;\n" b.bid d.bid))
              dests
      end)
    f.blocks_list;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
