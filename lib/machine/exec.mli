(** Architectural simulator for SX64 images — the substitute for the
    paper's physical Xeon nodes.

    Executes machine code against an architectural state (register file,
    FLAGS, byte-addressable memory, downward stack) and reports the
    observable outcome: output, exit code, or a trap.  Injected faults land
    in this state and propagate, mask, or crash exactly as the paper's
    fault model intends.

    Cost model (DESIGN.md §6): 1 unit per instruction, per-extern call
    costs, plus {!field:hook_cost} per instruction while a DBI-style hook
    is attached.

    Fast path (DESIGN.md §14): the register file is one [Bytes.t] of raw
    64-bit words (register moves are unboxed, with no write barrier),
    step/cost counters are plain unboxed [int] fields, extern calls
    dispatch through a per-engine handler array resolved once from the
    image's [ext_slot_of_pc] table, and engines created from a {!snapshot}
    are {!reset} between samples by copying back only the 4 KiB pages
    written since the last reset.  The per-instruction execute path
    allocates nothing when profiling is off. *)

val ext_call_cost : int
(** Default modeled cost of a libc/libm extern call (25 units). *)

type trap =
  | Mem_fault of int
  | Div_by_zero
  | Bad_pc of int
  | Stack_overflow
  | Out_of_memory
  | Extern_fault of string
  | Output_quota of int  (** sandbox: output exceeded the byte quota *)
  | Heap_quota of int  (** sandbox: heap grew past the byte quota *)
  | Wall_clock of float  (** sandbox: real-time deadline (seconds) expired *)
  | Livelock  (** sandbox: architectural state fingerprint repeated *)
  | Illegal_instr of int
      (** the Instr_image fault model corrupted the code slot at this pc
          into an encoding that no longer decodes; fetching it traps *)

val string_of_trap : trap -> string

type status = Running | Exited of int | Trapped of trap | Timed_out

type profile = {
  class_steps : int array;
      (** executed instructions per opcode class, indexed by
          {!Refine_mir.Minstr.iclass_index} *)
  mutable ext_calls : int;  (** extern (runtime-library/libc) calls made *)
  mutable ext_cost : int;  (** modeled cost charged by those calls *)
}
(** Executor profile, attached by {!enable_profiling}.  Plain machine-local
    unboxed cells: the per-instruction overhead is one [option] match when
    off and two int array ops when on; the owner flushes the totals into
    the observability registry after the run (DESIGN.md §12). *)

type dprogram
(** A pre-decoded program (DESIGN.md §19): one closure per code slot with
    operands, flag-word ops, branch targets and extern slots resolved at
    decode time, plus a parallel table where the hot MinC idioms
    (compare-branch, load-op-store, loop-back-edge) are fused into
    superinstructions.  Immutable and engine-free: one [dprogram] is
    decoded per snapshot (content-addressed by the campaign layer) and
    shared read-only by every engine and domain executing that image.
    Superinstructions retire their constituents' step/cost/profile counts
    individually and re-test the run loop's budget condition between
    constituents, so decoded execution is bit-identical to the legacy
    interpreter — the invariant the differential qcheck suite asserts. *)

type t = {
  image : Refine_backend.Layout.image;
  regs : Bytes.t;
      (** [Reg.num_regs] raw 64-bit images (GPRs, FPRs, FLAGS), 8 bytes
          each; read and write them with {!get_reg} / {!set_reg}. *)
  mem : Bytes.t;
      (** data memory.  Write it only through this module ({!flip_mem_bit}
          or executed instructions): every such write marks its page in
          [dirty], and {!reset} restores only marked pages, so a byte
          written behind [Exec]'s back would survive into the next sample. *)
  dirty : Bytes.t;
      (** one byte per 4 KiB page of [mem] (nonzero = written since the
          last {!reset}), plus one guard byte.  Internal. *)
  mutable pc : int;
  mutable steps : int;  (** unboxed; 63 bits is ample for any modeled budget *)
  mutable cost : int;
  mutable status : status;
  mutable heap : int;
  env : Refine_ir.Externs.env;
  ext_extra : (string, int * (t -> unit)) Hashtbl.t;
      (** FI runtime library: name -> (modeled cost, handler) *)
  mutable post_hook : (t -> int -> Refine_mir.Minstr.t -> unit) option;
      (** PINFI-style DBI: called after every executed instruction with the
          pre-execution pc and the instruction *)
  mutable hook_cost : int;  (** extra cost per instruction while attached *)
  mutable prof : profile option;  (** executor profiling; [None] = zero-cost path *)
  mutable heap_quota : int;
      (** sandbox heap quota in bytes above the image's heap base;
          [max_int] = unlimited.  Set by {!run}'s [heap_quota] argument. *)
  mutable handlers : (t -> unit) array;
      (** pre-resolved extern dispatch, indexed by the image's
          [ext_slot_of_pc] slots; rebuilt by {!reset}.  Internal. *)
  mutable builtins : (t -> unit) option array;
      (** memoized libc/libm handlers per extern slot, reused across
          {!reset}s so signatures are parsed once per engine.  Internal. *)
  mutable fi_mask : int64;
      (** pending multi-bit FI mask: when nonzero, the next [Mxorbit] /
          [Mxorbitmem] applies this XOR mask instead of its single-bit
          flip, then clears it.  Set by the REFINE control library for the
          Multi_bit fault model (DESIGN.md §18); cleared by {!reset}. *)
  mutable overlay_pc : int;
      (** Instr_image corruption overlay: engine-local view of one mutated
          code slot ([-1] = none).  The shared [image.code] array is never
          written, so snapshots and sibling engines stay pristine. *)
  mutable overlay_instr : Refine_mir.Minstr.t option;
      (** the mutated instruction at [overlay_pc]; [None] = the corrupted
          encoding no longer decodes, so fetching it traps
          [Illegal_instr]. *)
  mutable dprog : dprogram option;
      (** installed decoded program; [None] = legacy dispatch.  Set via
          {!install_decoded}; survives {!reset} (the decode is a property
          of the image, not of a sample). *)
  mutable d_active : (t -> unit) array;
      (** live dispatch table: the fused table normally, the fusion-free
          single-instruction table while an Instr_image overlay is armed
          (a superinstruction spanning the overlaid pc would execute the
          pristine encoding).  Internal. *)
  mutable d_overlay : (t -> unit) option;
      (** decoded form of the overlay instruction at [overlay_pc], built
          by {!set_overlay} and cleared by {!reset}.  Internal. *)
  mutable d_check : unit -> unit;
      (** the active run's poll-slot check, installed for the duration of
          a decoded {!run} so superinstruction constituents can self-check
          at 1024-step boundaries.  Internal. *)
  mutable d_max_steps : int;  (** active decoded-run step budget.  Internal. *)
  mutable d_max_cost : int;  (** active decoded-run cost budget.  Internal. *)
  mutable handler_cost : int array;
      (** declared modeled cost per extern slot, parallel to [handlers]
          and rebuilt with them — the fi-splice fast path charges a
          skipped selector call exactly.  Internal. *)
  mutable fi_sel_skip : int;
      (** FI-selector fast-path window (DESIGN.md §19): number of
          upcoming [fi_sel_instr] calls that are provably non-firing.
          Published by the REFINE control library after each real
          selector call; consumed one per splice by the fused fi-splice
          superinstruction, which retires the whole splice without
          entering the library.  [0] (default) = every call dispatches
          to the handler.  Cleared by {!reset}. *)
  mutable fi_sel_pending : int;
      (** selector calls the fast path retired since the library last
          ran; folded back into the control counter on the next real
          call or by [Runtime.absorb] after the run.  Cleared by
          {!reset}. *)
  snap : Bytes.t option;
      (** pristine memory {!reset} copies dirty pages back from; [None]
          for engines made with {!create} *)
}

type result = {
  status : status;
  output : string;
  steps : int64;
  cost : int64;
  truncated : bool;
      (** the output was cut at the output quota — classification must
          never report it as a golden match *)
}

val get_reg : t -> int -> int64
(** [get_reg t r] is register [r]'s raw 64-bit image (FPRs hold IEEE bits).
    [Invalid_argument] if [r] is outside [[0, Reg.num_regs)]. *)

val set_reg : t -> int -> int64 -> unit
(** [set_reg t r v] writes register [r]; bounds-checked like {!get_reg}. *)

val move_reg : t -> dst:int -> src:int -> unit
(** [move_reg t ~dst ~src] copies register [src] into [dst] (bounds-checked
    like {!get_reg}).  The value never leaves [Exec], so the copy
    allocates nothing even where {!get_reg} is not inlined. *)

val create : ?ext_extra:(string * int * (t -> unit)) list -> Refine_backend.Layout.image -> t
(** Fresh machine state: globals initialized, stack holding the sentinel
    return address, pc at the image entry. *)

type snapshot
(** Initialized memory image (globals + sentinel stack) computed once per
    prepared program, shared read-only by every engine cloned from it. *)

val snapshot : Refine_backend.Layout.image -> snapshot
(** Compute the initialized memory image once; the [Bytes.make] +
    global-blit cost is paid here instead of per sample. *)

val create_from_snapshot :
  ?ext_extra:(string * int * (t -> unit)) list -> snapshot -> t
(** Like {!create}, but clones the snapshot's pristine memory and keeps a
    reference to it so the engine supports {!reset}. *)

val reset : ?ext_extra:(string * int * (t -> unit)) list -> t -> unit
(** Restore a snapshot-backed engine to the pristine post-loader state:
    the memory pages written since the last reset are copied back from the
    snapshot (untouched pages are not), registers zeroed, sp/pc/heap
    re-seated, output buffer cleared, hooks/profiling/quotas dropped, and
    extern handlers rebound against [ext_extra].  A reset engine is
    bit-identical to a fresh {!create_from_snapshot}, memory arena and
    register file included (asserted by the differential property tests).
    Raises [Invalid_argument] on engines made with {!create}. *)

(** {1 Golden-prefix checkpoints (DESIGN.md §21)} *)

type checkpoint
(** The architectural state of a running engine relative to its loader
    image: the memory written since the last {!reset} that differs from
    the snapshot (in 256-byte blocks; whole written pages for engines made
    with {!create}), the register file, [pc], [steps], [cost], [heap],
    [hook_cost] and the output so far.  Immutable once captured; one
    checkpoint may be restored by any number of engines, on any domain. *)

val capture : t -> checkpoint
(** Capture the engine's current state.  Exact when called between
    instructions — from a {!run} [poll] callback, every 1024-step poll
    slot of either engine (fused superinstructions included) leaves the
    machine in the legacy interpreter's architectural state. *)

val restore : t -> checkpoint -> unit
(** Put a freshly {!reset} (or freshly {!create_from_snapshot}ed)
    snapshot engine of the checkpoint's image into the captured state.
    The pages it writes are marked dirty, so the next {!reset} undoes them.
    Hooks, handlers, profiling and the decoded program are left as they
    are.  [Invalid_argument] if the engine is not snapshot-backed, has a
    different image, or has executed or written anything since its reset. *)

val checkpoint_steps : checkpoint -> int
(** Instructions executed before the checkpoint was captured. *)

val reaches :
  checkpoint -> max_cost:int64 -> output_quota:int option -> heap_quota:int option -> bool
(** Whether a run started from the loader state under these {!run} budgets
    gets past the checkpoint without stopping: its cost is below
    [max_cost], its output fits the output quota and its heap fits the heap
    quota.  All three only grow along a run, so when this holds, resuming
    from the checkpoint under the same budgets is exact. *)

val step : t -> unit
(** Execute one instruction (or set a trap status). *)

val flip_mem_bit : t -> addr:int -> bit:int -> unit
(** XOR one bit of one data-memory byte — the Mem_cell fault model's
    mutation.  [Invalid_argument] if [addr] is outside
    [[Memlayout.null_guard, Memlayout.mem_size)] or [bit] outside [0, 7]:
    callers draw the cell from the initialized image, so an out-of-range
    address is a harness defect, not a machine trap. *)

val set_overlay : t -> pc:int -> Refine_mir.Minstr.t option -> unit
(** Install the Instr_image corruption overlay at [pc] ([None] = the
    mutated encoding is illegal; executing that slot traps
    [Illegal_instr]).  The shared image code is never written; {!reset}
    clears the overlay.  [Invalid_argument] if [pc] is outside the code
    image. *)

val enable_profiling : t -> profile
(** Attach (or return the already-attached) executor profile.  The record
    is updated in place as the machine runs. *)

(** {1 Pre-decoded engine (DESIGN.md §19)} *)

val decode : Refine_backend.Layout.image -> dprogram
(** Decode every instruction of [image] into a dispatch closure and fuse
    superinstructions over the hot idioms.  Pure per image: the campaign
    layer caches the result per snapshot in the content-addressed artifact
    cache so engines handed out by [Tool.acquire] never re-decode. *)

val install_decoded : t -> dprogram option -> unit
(** Install ([Some dp]) or remove ([None]) a decoded program.  [dp] must
    have been built from the engine's own image ([Invalid_argument]
    otherwise — decoded closures bake that image's class and extern-slot
    tables).  With a program installed, {!run} dispatches through
    {!Decoded_engine}; removing it falls back to the legacy interpreter. *)

val decoded : t -> bool
(** Whether a decoded program is installed. *)

val engine_name : t -> string
(** ["decoded"] or ["legacy"] — the engine {!run} would select now. *)

val idioms : string array
(** Superinstruction idiom names, in {!superinstr_counts} index order:
    [[|"cmp-branch"; "load-op-store"; "loop-back"; "fi-splice"|]].
    ["fi-splice"] is the REFINE instrumentation splice fused into one
    closure, so an instrumented run pays roughly one dispatch per
    candidate instead of seven (DESIGN.md §19). *)

val superinstr_counts : dprogram -> int array
(** Static fusion sites per idiom (indexed like {!idioms}) — the feed for
    the [refine_decoded_superinstr_total] metric. *)

val decoded_image : dprogram -> Refine_backend.Layout.image
(** The image this program was decoded from (physical identity is the
    {!install_decoded} compatibility check). *)

(** An execution substrate: drives the machine until the status leaves
    [Running] or a budget trips, calling [check] at every 1024-step poll
    slot.  {!run} selects the engine per call from [t.dprog]; the legacy
    interpreter stays alive behind this interface for differential
    testing and for hooked (PINFI/trace) execution. *)
module type ENGINE = sig
  val name : string
  val loop : t -> max_steps:int -> max_cost:int -> check:(unit -> unit) -> unit
end

module Legacy_engine : ENGINE
(** The per-opcode match interpreter ({!step} in a while loop). *)

module Decoded_engine : ENGINE
(** Threaded dispatch over the decoded closure table; falls back to
    {!step} per instruction while a [post_hook] is attached and routes the
    Instr_image overlay pc through the overlay decode. *)

val run :
  ?max_steps:int64 ->
  ?max_cost:int64 ->
  ?output_quota:int ->
  ?heap_quota:int ->
  ?wall_clock:float ->
  ?clock:(unit -> float) ->
  ?livelock:int ->
  ?poll:(unit -> unit) ->
  t ->
  result
(** Run to completion, trap, or budget exhaustion ([Timed_out]).
    [max_cost] is the paper's 10x-profiling timeout measure; a run that
    times out on it reports [cost = max_cost], not the overshoot of the
    instruction that crossed the edge.  [poll] is called every 1024
    executed instructions; an exception it raises (e.g.
    {!Refine_support.Supervisor.Cancelled} from a cancellation token)
    propagates to the caller, aborting the run — the cooperative kill
    mechanism used by campaign watchdogs.

    Sandbox quotas (DESIGN.md §13), all unlimited by default:
    [output_quota] caps output bytes (the returned output is truncated to
    the quota and [truncated] set, and the run ends [Trapped (Output_quota
    _)]); [heap_quota] caps heap growth above the image's heap base
    ([Trapped (Heap_quota _)]); [wall_clock] is a real-time deadline in
    seconds measured with [clock] (default [Sys.time]) from the start of
    the call ([Trapped (Wall_clock _)]); [livelock] fingerprints the
    architectural state every that many steps (rounded up to a multiple of
    1024) and traps [Livelock] on an exact repeat within the last 256
    fingerprints — the fingerprint ring is only allocated when the
    detector is armed. *)
