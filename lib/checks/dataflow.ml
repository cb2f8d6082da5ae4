(** Reusable forward-dataflow framework over {!Darm_analysis.Cfg}.

    Worklist solver: blocks are processed in reverse postorder and
    re-queued whenever a predecessor's exit fact changes.  Termination
    needs a finite-height domain and a monotone transfer — true of both
    set-union users in this library. *)

open Darm_ir.Ssa
module Cfg = Darm_analysis.Cfg

module type DOMAIN = sig
  type t

  val equal : t -> t -> bool
  val join : t -> t -> t
end

module Forward (D : DOMAIN) = struct
  type result = {
    in_facts : (int, D.t) Hashtbl.t;  (** block id -> entry fact *)
    init : D.t;
  }

  let solve ~(entry : D.t) ~(init : D.t)
      ~(transfer : block -> D.t -> D.t) (f : func) : result =
    let rpo = Cfg.reverse_postorder f in
    let order = Hashtbl.create 32 in
    List.iteri (fun k b -> Hashtbl.replace order b.bid k) rpo;
    let in_facts = Hashtbl.create 32 in
    let out_facts = Hashtbl.create 32 in
    let entry_bid = (entry_block f).bid in
    Hashtbl.replace in_facts entry_bid entry;
    (* worklist keyed by RPO position, deterministic pop order *)
    let module IS = Set.Make (Int) in
    let work = ref IS.empty in
    let by_pos = Hashtbl.create 32 in
    List.iteri (fun k b -> Hashtbl.replace by_pos k b) rpo;
    List.iteri (fun k _ -> work := IS.add k !work) rpo;
    while not (IS.is_empty !work) do
      let pos = IS.min_elt !work in
      work := IS.remove pos !work;
      let b = Hashtbl.find by_pos pos in
      let in_fact =
        match Hashtbl.find_opt in_facts b.bid with
        | Some x -> x
        | None -> init
      in
      let out_fact = transfer b in_fact in
      let changed =
        match Hashtbl.find_opt out_facts b.bid with
        | Some old -> not (D.equal old out_fact)
        | None -> true
      in
      if changed then begin
        Hashtbl.replace out_facts b.bid out_fact;
        List.iter
          (fun s ->
            match Hashtbl.find_opt order s.bid with
            | None -> ()  (* successor unreachable in RPO: impossible *)
            | Some spos ->
                let cur =
                  match Hashtbl.find_opt in_facts s.bid with
                  | Some x -> x
                  | None -> init
                in
                let joined = D.join cur out_fact in
                if not (D.equal cur joined) then begin
                  Hashtbl.replace in_facts s.bid joined;
                  work := IS.add spos !work
                end)
          (successors b)
      end
    done;
    { in_facts; init }

  let block_in (r : result) (b : block) : D.t =
    match Hashtbl.find_opt r.in_facts b.bid with
    | Some x -> x
    | None -> r.init
end
