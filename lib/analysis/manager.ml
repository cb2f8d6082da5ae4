(** Per-function analysis manager.  See the interface for the
    invalidation table. *)

open Darm_ir.Ssa

(** Raised in debug mode when a cache-served analysis differs from a
    from-scratch recompute: some transform under-reported an edit. *)
exception Stale_analysis of string

type stats = {
  mutable computes : int;  (** from-scratch analysis runs *)
  mutable reuses : int;
      (** queries served from cache — each one is a recompute a
          manager-less driver would have performed *)
  mutable invalidations : int;  (** cached results dropped by edits *)
  mutable cross_checks : int;  (** debug-mode recompute comparisons *)
}

type t = {
  func : func;
  debug : bool;
  mutable cfg : block list option;  (** reachable blocks, DFS preorder *)
  mutable dt : Domtree.t option;
  mutable pdt : Domtree.t option;
  mutable dvg : Divergence.t option;
  stats : stats;
}

let debug_env () =
  match Sys.getenv_opt "DARM_ANALYSIS_DEBUG" with
  | Some ("" | "0") | None -> false
  | Some _ -> true

let create ?debug (f : func) : t =
  {
    func = f;
    debug = (match debug with Some d -> d | None -> debug_env ());
    cfg = None;
    dt = None;
    pdt = None;
    dvg = None;
    stats = { computes = 0; reuses = 0; invalidations = 0; cross_checks = 0 };
  }

let func (m : t) : func = m.func
let stats (m : t) : stats = m.stats
let recomputes_avoided (m : t) : int = m.stats.reuses

let stale name =
  raise
    (Stale_analysis
       (Printf.sprintf
          "Manager: cached %s differs from a from-scratch recompute — a \
           transform under-reported its edit set"
          name))

(* ---------------- cached queries ---------------- *)

(* One query worker: [cached]/[store] the slot, [compute] from scratch,
   [check] compares cached against fresh in debug mode. *)
let query (m : t) ~(name : string) ~(cached : unit -> 'a option)
    ~(store : 'a -> unit) ~(compute : unit -> 'a)
    ~(check : 'a -> 'a -> bool) : 'a =
  match cached () with
  | Some v ->
      m.stats.reuses <- m.stats.reuses + 1;
      if m.debug then begin
        m.stats.cross_checks <- m.stats.cross_checks + 1;
        if not (check v (compute ())) then stale name
      end;
      v
  | None ->
      let v = compute () in
      m.stats.computes <- m.stats.computes + 1;
      store v;
      v

let bids (bs : block list) : int list = List.map (fun b -> b.bid) bs

let reachable (m : t) : block list =
  query m ~name:"cfg"
    ~cached:(fun () -> m.cfg)
    ~store:(fun v -> m.cfg <- Some v)
    ~compute:(fun () -> Cfg.reachable_blocks m.func)
    ~check:(fun a b -> bids a = bids b)

let domtree (m : t) : Domtree.t =
  query m ~name:"domtree"
    ~cached:(fun () -> m.dt)
    ~store:(fun v -> m.dt <- Some v)
    ~compute:(fun () -> Domtree.compute m.func)
    ~check:Domtree.equal

let postdomtree (m : t) : Domtree.t =
  (* a valid divergence result carries the current post-dominator tree *)
  (match m.pdt, m.dvg with
  | None, Some d -> m.pdt <- Some (Divergence.pdt d)
  | _ -> ());
  query m ~name:"postdomtree"
    ~cached:(fun () -> m.pdt)
    ~store:(fun v -> m.pdt <- Some v)
    ~compute:(fun () -> Domtree.compute_post m.func)
    ~check:Domtree.equal

let divergence (m : t) : Divergence.t =
  query m ~name:"divergence"
    ~cached:(fun () -> m.dvg)
    ~store:(fun v ->
      m.dvg <- Some v;
      if m.pdt = None then m.pdt <- Some (Divergence.pdt v))
    ~compute:(fun () ->
      (* seed with the cached post-dominator tree when one is valid *)
      match m.pdt with
      | Some pdt -> Divergence.compute ~pdt m.func
      | None -> Divergence.compute m.func)
    ~check:Divergence.equal

(* ---------------- invalidation ---------------- *)

let drop_slot (m : t) (present : bool) (clear : unit -> unit) : unit =
  if present then begin
    clear ();
    m.stats.invalidations <- m.stats.invalidations + 1
  end

let drop_cfgish (m : t) : unit =
  drop_slot m (m.cfg <> None) (fun () -> m.cfg <- None);
  drop_slot m (m.dt <> None) (fun () -> m.dt <- None);
  drop_slot m (m.pdt <> None) (fun () -> m.pdt <- None);
  drop_slot m (m.dvg <> None) (fun () -> m.dvg <- None)

let note (m : t) (e : Edit.t) : unit =
  match e with
  | Edit.Dce _ -> drop_slot m (m.dvg <> None) (fun () -> m.dvg <- None)
  | Edit.Cfg_local _ | Edit.Whole -> drop_cfgish m

let note_all (m : t) (es : Edit.t list) : unit = List.iter (note m) es

let invalidate_all (m : t) : unit = note m Edit.Whole
