(** Per-function analysis manager.  See the interface for the cache
    rule. *)

open Darm_ir.Ssa

type stats = {
  mutable computes : int;  (** from-scratch analysis runs *)
  mutable reuses : int;  (** queries served from cache *)
}

type t = {
  func : func;
  mutable at : int;  (** the function's edit count the slots hold for *)
  mutable cfg : block list option;  (** reachable blocks, DFS preorder *)
  mutable dt : Domtree.t option;
  mutable pdt : Domtree.t option;
  mutable dvg : Divergence.t option;
  stats : stats;
}

let create (f : func) : t =
  {
    func = f;
    at = f.edit_count;
    cfg = None;
    dt = None;
    pdt = None;
    dvg = None;
    stats = { computes = 0; reuses = 0 };
  }

let func (m : t) : func = m.func
let stats (m : t) : stats = m.stats
let recomputes_avoided (m : t) : int = m.stats.reuses

(* Every slot was computed at edit count [m.at]; an edit since then
   drops them all. *)
let sync (m : t) : unit =
  if m.func.edit_count <> m.at then begin
    m.at <- m.func.edit_count;
    m.cfg <- None;
    m.dt <- None;
    m.pdt <- None;
    m.dvg <- None
  end

(* One query worker: [cached]/[store] the slot, [compute] from
   scratch. *)
let query (m : t) ~(cached : unit -> 'a option) ~(store : 'a -> unit)
    ~(compute : unit -> 'a) : 'a =
  sync m;
  match cached () with
  | Some v ->
      m.stats.reuses <- m.stats.reuses + 1;
      v
  | None ->
      let v = compute () in
      m.stats.computes <- m.stats.computes + 1;
      store v;
      v

let reachable (m : t) : block list =
  query m
    ~cached:(fun () -> m.cfg)
    ~store:(fun v -> m.cfg <- Some v)
    ~compute:(fun () -> Cfg.reachable_blocks m.func)

let domtree (m : t) : Domtree.t =
  query m
    ~cached:(fun () -> m.dt)
    ~store:(fun v -> m.dt <- Some v)
    ~compute:(fun () -> Domtree.compute m.func)

let postdomtree (m : t) : Domtree.t =
  sync m;
  (* a current divergence result carries the current post-dominator
     tree *)
  (match m.pdt, m.dvg with
  | None, Some d -> m.pdt <- Some (Divergence.pdt d)
  | _ -> ());
  query m
    ~cached:(fun () -> m.pdt)
    ~store:(fun v -> m.pdt <- Some v)
    ~compute:(fun () -> Domtree.compute_post m.func)

let divergence (m : t) : Divergence.t =
  query m
    ~cached:(fun () -> m.dvg)
    ~store:(fun v ->
      m.dvg <- Some v;
      if m.pdt = None then m.pdt <- Some (Divergence.pdt v))
    ~compute:(fun () ->
      (* seed with the cached post-dominator tree when one is current *)
      match m.pdt with
      | Some pdt -> Divergence.compute ~pdt m.func
      | None -> Divergence.compute m.func)
