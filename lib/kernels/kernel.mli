(** Common benchmark-kernel interface.

    A kernel bundles the IR builder with a deterministic workload: given
    a block size, an element count and a seed it produces a fresh
    {!instance} — IR function, populated global memory, launch geometry,
    and accessors for the observable output plus a host-side reference.
    Fresh instances are required because transformations mutate the IR
    in place; the baseline and the transformed run each get their own. *)

open Darm_ir
module Memory = Darm_sim.Memory
module Simulator = Darm_sim.Simulator

type instance = {
  func : Ssa.func;
  global : Memory.t;
  args : Memory.rv array;
  launch : Simulator.launch;
  read_result : unit -> Memory.rv array;
      (** observable output after execution *)
  reference : unit -> Memory.rv array;
      (** host-side expected output for the same input *)
}

type t = {
  name : string;
  tag : string;  (** short label used in figures: SB1, BIT, LUD, ... *)
  description : string;
  default_n : int;
  block_sizes : int list;  (** the block-size sweep of the evaluation *)
  make : seed:int -> block_size:int -> n:int -> instance;
}

(** Deterministic pseudo-random generator, so baseline and transformed
    instances see identical inputs for a given seed. *)
val rng : int -> unit -> int

val random_int_array : seed:int -> n:int -> bound:int -> int array

val rv_array_equal : Memory.rv array -> Memory.rv array -> bool
val rv_to_string : Memory.rv -> string

(** First index (if any) where two outputs disagree — for error
    reporting. *)
val first_mismatch : Memory.rv array -> Memory.rv array -> int option

val ints : int array -> Memory.rv array
