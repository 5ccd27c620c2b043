(* Fast-path equivalence tests (DESIGN.md §14).

   The executor fast path — snapshot-reset engine reuse, unboxed int
   counters, pre-resolved extern dispatch — must be invisible in results:
   a reset engine is bit-identical to a fresh one, a fixed-seed campaign
   produces the same outcome table with the fast path on or off, and the
   per-instruction execute path allocates nothing when profiling is off. *)

module M = Refine_mir.Minstr
module R = Refine_mir.Reg
module MF = Refine_mir.Mfunc
module E = Refine_machine.Exec
module L = Refine_backend.Layout
module P = Refine_support.Prng
module T = Refine_core.Tool
module Ex = Refine_campaign.Experiment

let image_of ?(globals = []) instrs =
  let mf = MF.create "main" in
  List.iteri
    (fun k i ->
      let b = MF.add_block mf k in
      b.MF.code <- [ i ])
    instrs;
  L.build ~globals [ mf ]

let pp_result fmt (r : E.result) =
  Format.fprintf fmt "status=%s out=%S steps=%Ld cost=%Ld trunc=%b"
    (match r.E.status with
    | E.Running -> "running"
    | E.Exited c -> Printf.sprintf "exit %d" c
    | E.Trapped tr -> "trap: " ^ E.string_of_trap tr
    | E.Timed_out -> "timeout")
    r.E.output r.E.steps r.E.cost r.E.truncated

let result_t = Alcotest.testable pp_result ( = )

(* --- engine-level differential: fresh vs snapshot vs reset ------------- *)

let compile_image seed =
  let m = Refine_minic.Frontend.compile (Test_semantics.gen_program seed) in
  Refine_passes.Pipeline.optimize Refine_passes.Pipeline.O2 m;
  Refine_passes.Pipeline.compile m

(* Deterministic single-bit register fault at a dynamic instruction
   instance, via the DBI hook — the same fault armed on every engine
   under comparison, so any state leaking through [reset] diverges. *)
let arm_fault eng ~target ~reg ~bit =
  let count = ref 0 in
  eng.E.post_hook <-
    Some
      (fun (e : E.t) _ _ ->
        incr count;
        if !count = target then begin
          E.set_reg e reg (Refine_support.Bitops.flip_bit (E.get_reg e reg) bit);
          e.E.post_hook <- None;
          e.E.hook_cost <- 0
        end);
  eng.E.hook_cost <- 3

let run_one ?fault eng =
  (match fault with Some (target, reg, bit) -> arm_fault eng ~target ~reg ~bit | None -> ());
  E.run ~max_cost:20_000_000L eng

(* First byte offset where two arenas differ, for failure messages. *)
let first_diff a b =
  let n = min (Bytes.length a) (Bytes.length b) in
  let rec go i = if i >= n then n else if Bytes.get a i <> Bytes.get b i then i else go (i + 1) in
  go 0

(* The engine's whole memory arena and register file equal [fresh]'s: the
   dirty-page reset must restore every byte a run wrote, not only those
   that happen to change a later run's output. *)
let check_state_equal what (eng : E.t) (fresh : E.t) =
  if not (Bytes.equal eng.E.mem fresh.E.mem) then
    Alcotest.failf "%s: memory differs at 0x%x" what (first_diff eng.E.mem fresh.E.mem);
  for r = 0 to R.num_regs - 1 do
    Alcotest.(check int64) (Printf.sprintf "%s: register %d" what r) (E.get_reg fresh r)
      (E.get_reg eng r)
  done

let prop_snapshot_reset_identical =
  QCheck.Test.make ~name:"snapshot/reset engines bit-identical to fresh create" ~count:12
    QCheck.(int_range 1 5000)
    (fun seed ->
      let image = compile_image seed in
      let rng = P.create (seed * 7 + 1) in
      let fault = (1 + P.int rng 4000, R.gpr (P.int rng 6), P.int rng 64) in
      let snap = E.snapshot image in
      let reused = E.create_from_snapshot snap in
      let check ?fault what =
        let r_fresh = run_one ?fault (E.create image) in
        let clone = E.create_from_snapshot snap in
        E.reset reused;
        check_state_equal (what ^ ": reset = fresh clone, before the run") reused clone;
        let r_clone = run_one ?fault clone in
        let r_reset = run_one ?fault reused in
        Alcotest.check result_t (what ^ ": fresh = snapshot clone") r_fresh r_clone;
        Alcotest.check result_t (what ^ ": fresh = reset reuse") r_fresh r_reset;
        check_state_equal (what ^ ": reset = fresh clone, after the run") reused clone
      in
      check "clean";
      check ~fault "faulted";
      (* a second faulted pass over the same reused engine: reset must also
         erase the fault's damage, not just clean-run state *)
      check ~fault "faulted again";
      true)

(* A counted loop whose first 1024-step poll slot falls inside the fused
   loop-back superinstruction: 6 setup instructions (a store and a push,
   so a checkpoint carries written pages), then 5 per iteration, so slot
   1024 comes after the compare of iteration 204 with the conditional
   exit at pc 9, the interior of the cmp/jcc/jmp triple headed at pc 8,
   still to retire. *)
let slot_loop_pc = 9

let slot_loop_image () =
  let g = R.gpr in
  image_of
    [
      M.Mmov (g 3, M.Imm (Int64.of_int (3 * 1024 * 1024)));
      M.Mmov (g 4, M.Imm 0x0102030405060708L);
      M.Mstore (g 4, g 3, 0);
      M.Mpush (g 4);
      M.Mmov (g 1, M.Imm 0L);
      M.Mmov (g 5, M.Imm 7L);
      M.Mbin (Add, g 1, g 1, M.Imm 1L) (* pc 6: loop head *);
      M.Mmov (g 6, M.Reg (g 1));
      M.Mcmp (g 1, M.Imm 1000L) (* pc 8: loop-back superinstruction head *);
      M.Mjcc (M.CGe, 11);
      M.Mjmp 6;
      M.Mmov (R.ret_gpr, M.Imm 0L);
      M.Mhalt;
    ]

(* --- dirty-page reset covers every write path --------------------------- *)

(* Run [instrs] on a snapshot engine (legacy or decoded), check the run
   wrote memory, reset, and check the arena is byte-equal to the snapshot
   again.  Each case writes pages no other instruction of its image
   touches, so a write path that skipped the dirty map leaves a stale
   page behind. *)
let check_write_path_restored ?(ext_extra = []) ?(prepare = ignore) ?(after = ignore) what
    instrs =
  let image = image_of instrs in
  let snap = E.snapshot image in
  let pristine = (E.create_from_snapshot snap).E.mem in
  List.iter
    (fun decoded ->
      let what = Printf.sprintf "%s (%s)" what (if decoded then "decoded" else "legacy") in
      let eng = E.create_from_snapshot ~ext_extra snap in
      if decoded then E.install_decoded eng (Some (E.decode image));
      prepare eng;
      let r = E.run ~max_steps:1000L eng in
      (match r.E.status with
      | E.Exited 0 -> ()
      | _ -> Alcotest.failf "%s: %a" what pp_result r);
      after eng;
      Alcotest.(check bool)
        (what ^ ": the run wrote memory") false (Bytes.equal eng.E.mem pristine);
      E.reset eng;
      if not (Bytes.equal eng.E.mem pristine) then
        Alcotest.failf "%s: memory differs from the snapshot at 0x%x after reset" what
          (first_diff eng.E.mem pristine))
    [ false; true ]

let test_reset_restores_every_write_path () =
  let g = R.gpr and mem_size = Refine_ir.Memlayout.mem_size in
  let imm v = M.Imm (Int64.of_int v) in
  let exit0 = [ M.Mmov (R.ret_gpr, M.Imm 0L); M.Mhalt ] in
  let store_at addr =
    [ M.Mmov (g 1, M.Imm 0x0102030405060708L); M.Mmov (g 3, imm addr); M.Mstore (g 1, g 3, 0) ]
    @ exit0
  in
  check_write_path_restored "store" (store_at (3 * 1024 * 1024));
  check_write_path_restored "unaligned store straddling a page boundary"
    (store_at ((5 * 4096) - 3));
  check_write_path_restored "store over the top-of-stack sentinel" (store_at (mem_size - 8));
  check_write_path_restored "push" ([ M.Mmov (g 1, M.Imm 42L); M.Mpush (g 1) ] @ exit0);
  check_write_path_restored "xorbitmem"
    ([ M.Mmov (g 3, imm (2 * 1024 * 1024)); M.Mmov (g 4, M.Imm 5L); M.Mxorbitmem (g 3, 0, g 4) ]
    @ exit0);
  (* the REFINE FI splice with the selector proven non-firing: the fused
     closure stores the two saves itself, without entering the handler *)
  let sel_calls = ref 0 in
  check_write_path_restored "fi-splice fast-path saves"
    ~ext_extra:
      [
        ( "fi_sel_instr",
          1,
          fun e ->
            incr sel_calls;
            E.set_reg e R.ret_gpr 0L );
      ]
    ~prepare:(fun eng -> eng.E.fi_sel_skip <- max_int)
    ~after:(fun eng ->
      if E.decoded eng then
        Alcotest.(check int) "fast path retired the selector call" 1 eng.E.fi_sel_pending)
    [
      M.Mmov (g 0, M.Imm 77L);
      M.Mpush (g 0) (* pc 1: splice head *);
      M.Mpushf;
      M.Mcallext "fi_sel_instr";
      M.Mcmp (R.ret_gpr, M.Imm 0L);
      M.Mjcc (M.CEq, 8);
      M.Mjmp 7;
      M.Mhalt (* setup block stand-in *);
      M.Mpopf (* pc 8: post *);
      M.Mpop (g 0);
      M.Mmov (R.ret_gpr, M.Imm 0L);
      M.Mhalt;
    ];
  Alcotest.(check int) "only the legacy run entered the selector" 1 !sel_calls;
  (* the Mem_cell fault model's mutation, at the last byte of memory *)
  let snap = E.snapshot (image_of exit0) in
  let pristine = (E.create_from_snapshot snap).E.mem in
  let eng = E.create_from_snapshot snap in
  E.flip_mem_bit eng ~addr:(mem_size - 1) ~bit:7;
  Alcotest.(check bool) "flip_mem_bit wrote memory" false (Bytes.equal eng.E.mem pristine);
  E.reset eng;
  Alcotest.(check bool) "flip_mem_bit at mem_size - 1 restored" true
    (Bytes.equal eng.E.mem pristine);
  (* a golden-checkpoint restore (DESIGN.md §21) writes the captured pages
     into the arena: capture -> restore -> run -> reset must end
     byte-equal to the snapshot too *)
  let image = slot_loop_image () in
  let snap = E.snapshot image in
  let pristine = (E.create_from_snapshot snap).E.mem in
  List.iter
    (fun decoded ->
      let what = if decoded then "restore (decoded)" else "restore (legacy)" in
      let fresh () =
        let e = E.create_from_snapshot snap in
        if decoded then E.install_decoded e (Some (E.decode image));
        e
      in
      let src = fresh () and cp = ref None in
      ignore (E.run ~poll:(fun () -> if !cp = None then cp := Some (E.capture src)) src);
      let eng = fresh () in
      E.restore eng (Option.get !cp);
      Alcotest.(check bool) (what ^ ": the restore wrote memory") false
        (Bytes.equal eng.E.mem pristine);
      (match (E.run eng).E.status with
      | E.Exited 0 -> ()
      | _ -> Alcotest.failf "%s: resumed run did not exit 0" what);
      E.reset eng;
      if not (Bytes.equal eng.E.mem pristine) then
        Alcotest.failf "%s: memory differs from the snapshot at 0x%x after reset" what
          (first_diff eng.E.mem pristine))
    [ false; true ]

(* --- snapshot restores globals, heap, output --------------------------- *)

let test_reset_restores_state () =
  let m =
    Refine_minic.Frontend.compile
      "global int a = 3; int main() { a = a + 39; print_int(a); return 0; }"
  in
  Refine_passes.Pipeline.optimize Refine_passes.Pipeline.O2 m;
  let image = Refine_passes.Pipeline.compile m in
  let snap = E.snapshot image in
  let eng = E.create_from_snapshot snap in
  let r1 = E.run eng in
  E.reset eng;
  let r2 = E.run eng in
  Alcotest.(check string) "first run" "42\n" r1.E.output;
  Alcotest.check result_t "global mutation erased by reset" r1 r2

let test_reset_requires_snapshot () =
  let eng = E.create (image_of [ M.Mhalt ]) in
  Alcotest.check_raises "reset on create-engine"
    (Invalid_argument "Exec.reset: engine was not created from a snapshot") (fun () ->
      E.reset eng)

(* --- pre-resolved extern dispatch -------------------------------------- *)

let test_unknown_extern_dead_path () =
  (* an unresolvable extern on a never-executed path must not trap: slots
     are resolved to trap-on-invoke handlers, not resolution-time errors *)
  let r =
    E.run
      (E.create
         (image_of
            [ M.Mjmp 2; M.Mcallext "mystery_fn"; M.Mmov (R.ret_gpr, M.Imm 0L); M.Mhalt ]))
  in
  (match r.E.status with
  | E.Exited 0 -> ()
  | _ -> Alcotest.fail (Format.asprintf "expected clean exit, got %a" pp_result r));
  let r2 = E.run (E.create (image_of [ M.Mcallext "mystery_fn"; M.Mhalt ])) in
  match r2.E.status with
  | E.Trapped (E.Extern_fault msg) ->
    Alcotest.(check bool) "names the extern" true
      (String.length msg >= 10 && String.sub msg (String.length msg - 10) 10 = "mystery_fn")
  | _ -> Alcotest.fail "expected Extern_fault on the live path"

let test_reset_rebinds_handlers () =
  let image =
    image_of
      [
        M.Mmov (R.gpr 1, M.Imm 5L);
        M.Mcallext "print_int";
        M.Mmov (R.ret_gpr, M.Imm 0L);
        M.Mhalt;
      ]
  in
  let snap = E.snapshot image in
  let hits = ref 0 in
  let eng = E.create_from_snapshot ~ext_extra:[ ("print_int", 2, fun _ -> incr hits) ] snap in
  let r1 = E.run eng in
  Alcotest.(check int) "custom handler hit" 1 !hits;
  Alcotest.(check string) "custom handler suppressed output" "" r1.E.output;
  (* 4 instructions + custom cost 2 *)
  Alcotest.(check int64) "custom cost charged" 6L r1.E.cost;
  E.reset eng;
  (* no ext_extra: the builtin print_int must be rebound *)
  let r2 = E.run eng in
  Alcotest.(check string) "builtin rebound after reset" "5\n" r2.E.output;
  Alcotest.(check int64) "builtin cost charged"
    (Int64.of_int (4 + E.ext_call_cost))
    r2.E.cost

(* --- fixed-seed campaign equality: fast path vs legacy path ------------ *)

let src_int =
  "int main() { int i; int s = 0; for (i = 0; i < 40; i = i + 1) { s = s + i * 3; } \
   print_int(s); return 0; }"

let src_float =
  "global float acc[4]; int main() { int i; float x = 1.5; for (i = 0; i < 30; i = i + 1) { x \
   = x * 1.01 + 0.1; acc[i % 4] = x; } print_float(x); return 0; }"

let matrix_summary cells =
  String.concat "; "
    (List.map
       (fun (c : Ex.cell) ->
         Printf.sprintf "%s/%s crash=%d soc=%d benign=%d err=%d cost=%Ld" c.Ex.program
           (T.kind_name c.Ex.tool) c.Ex.counts.Ex.crash c.Ex.counts.Ex.soc c.Ex.counts.Ex.benign
           c.Ex.counts.Ex.tool_error c.Ex.injection_cost)
       cells)

let test_campaign_equality () =
  let programs = [ ("ints", src_int); ("floats", src_float) ] in
  let tools = [ T.Refine; T.Pinfi ] in
  let run_matrix () =
    matrix_summary (Ex.run_matrix ~domains:2 ~samples:30 ~seed:7 programs tools)
  in
  Fun.protect
    ~finally:(fun () -> T.use_fast_path := true)
    (fun () ->
      T.use_fast_path := false;
      let legacy = run_matrix () in
      T.use_fast_path := true;
      let fast = run_matrix () in
      Alcotest.(check string) "outcome table bit-identical" legacy fast)

(* --- per-instruction path is allocation-free with profiling off --------- *)

(* Loop bodies grouped by the instructions that carry an [int64] through a
   helper (loads, integer/float ops, push/pop, conversions): each group
   runs forever behind a fixed prologue, and any per-instruction boxing
   makes the minor-word delta scale with the step count.  r3 = 8192 is a
   data address, r5 = 2 an index, f0/f1 are FPRs. *)
let zero_alloc_groups =
  let g = R.gpr and f = R.fpr in
  [
    ( "mov/cmp/jcc/store/setcc/jmp",
      [
        M.Mcmp (g 1, M.Imm 0L);
        M.Mjcc (M.CEq, 0) (* never taken *);
        M.Mstore (g 1, g 3, 0);
        M.Msetcc (M.CNe, g 2);
        M.Mmov (g 4, M.Reg (g 2));
        M.Mmov (g 6, M.Imm 11L);
      ] );
    ( "load/loadidx/storeidx/lea/xorbitmem",
      [
        M.Mload (g 6, g 3, 8);
        M.Mloadidx (g 7, g 3, g 5, 16);
        M.Mstoreidx (g 7, g 3, g 5, 24);
        M.Mlea (g 8, g 3, Some (g 5), 4);
        M.Mlea (g 9, g 3, None, -4);
        M.Mxorbitmem (g 3, 32, g 5);
      ] );
    ( "bin imm (incl. shifts, div/rem)",
      [
        M.Mbin (Add, g 6, g 6, M.Imm 3L);
        M.Mbin (Sub, g 7, g 6, M.Imm 1L);
        M.Mbin (Mul, g 7, g 7, M.Imm 5L);
        M.Mbin (And, g 8, g 7, M.Imm 0xffL);
        M.Mbin (Or, g 8, g 8, M.Imm 1L);
        M.Mbin (Xor, g 8, g 8, M.Imm 6L);
        M.Mbin (Shl, g 9, g 8, M.Imm 3L);
        M.Mbin (Lshr, g 9, g 9, M.Imm 1L);
        M.Mbin (Ashr, g 9, g 9, M.Imm 1L);
        M.Mbin (Div, g 10, g 9, M.Imm 3L);
        M.Mbin (Rem, g 10, g 9, M.Imm 7L);
      ] );
    ( "bin reg (incl. shifts, div/rem)",
      [
        M.Mbin (Add, g 6, g 6, M.Reg (g 1));
        M.Mbin (Sub, g 7, g 6, M.Reg (g 5));
        M.Mbin (Mul, g 7, g 7, M.Reg (g 5));
        M.Mbin (And, g 8, g 7, M.Reg (g 6));
        M.Mbin (Or, g 8, g 8, M.Reg (g 5));
        M.Mbin (Xor, g 8, g 8, M.Reg (g 1));
        M.Mbin (Shl, g 9, g 8, M.Reg (g 5));
        M.Mbin (Lshr, g 9, g 9, M.Reg (g 5));
        M.Mbin (Ashr, g 9, g 9, M.Reg (g 5));
        M.Mbin (Div, g 10, g 9, M.Reg (g 1));
        M.Mbin (Rem, g 10, g 9, M.Reg (g 1));
      ] );
    ( "latch with register operands",
      [
        M.Mmov (g 7, M.Imm 0L);
        M.Mbin (Add, g 6, g 6, M.Reg (g 5)) (* pc 5: g6 stays odd, never 0 *);
        M.Mcmp (g 6, M.Reg (g 7));
        M.Mjcc (M.CNe, 5);
      ] );
    ( "loop back edge (cmp/jcc/jmp)",
      [
        M.Mbin (Add, g 6, g 6, M.Reg (g 5));
        M.Mcmp (g 6, M.Imm 0L) (* g6 stays odd: the exit is never taken *);
        M.Mjcc (M.CEq, 0);
      ] );
    ( "load-op-store",
      [ M.Mload (g 6, g 3, 0); M.Mbin (Add, g 6, g 6, M.Imm 1L); M.Mstore (g 6, g 3, 0) ] );
    ( "push/pop/pushf/popf",
      [ M.Mpush (g 1); M.Mpushf; M.Mpush (f 0); M.Mpop (g 6); M.Mpopf; M.Mpop (g 7) ] );
    ( "fbin/fun/fcmp/cvt",
      [
        M.Mcvt (Sitofp, f 0, g 1);
        M.Mcvt (Sitofp, f 1, g 5);
        M.Mfbin (Fadd, f 2, f 0, f 1);
        M.Mfbin (Fsub, f 2, f 2, f 1);
        M.Mfbin (Fmul, f 2, f 2, f 0);
        M.Mfbin (Fdiv, f 2, f 2, f 1);
        M.Mfun (Fneg, f 3, f 2);
        M.Mfun (Fabs, f 3, f 3);
        M.Mfun (Fsqrt, f 3, f 3);
        M.Mfcmp (f 2, f 3);
        M.Msetcc (M.CFlt, g 6);
        M.Mcvt (Fptosi, g 7, f 3);
      ] );
  ]

(* prologue (pcs 0..3), the group's body from pc 4, a back edge to 4 *)
let zero_alloc_image body =
  let prologue =
    [
      M.Mmov (R.gpr 1, M.Imm 7L);
      M.Mmov (R.gpr 3, M.Imm 8192L);
      M.Mmov (R.gpr 5, M.Imm 2L);
      M.Mmov (R.gpr 6, M.Imm 1L);
    ]
  in
  image_of (prologue @ body @ [ M.Mjmp 4 ])

(* Minor words allocated by [go n] must not depend on [n]: per-call
   constants (the measurement itself, a [run]'s result record) cancel. *)
let check_no_scaling what go =
  go 10_000 (* warm-up *);
  let measure n =
    let w0 = Gc.minor_words () in
    go n;
    Gc.minor_words () -. w0
  in
  let d_small = measure 50_000 in
  let d_large = measure 200_000 in
  Alcotest.(check (float 0.0)) (what ^ ": minor words do not scale with steps") d_small d_large

let test_zero_alloc_hot_path () =
  List.iter
    (fun (name, body) ->
      let image = zero_alloc_image body in
      let legacy = E.create image in
      check_no_scaling ("legacy " ^ name) (fun n ->
          for _ = 1 to n do
            E.step legacy
          done);
      Alcotest.(check bool) (name ^ ": legacy still running") true (legacy.E.status = E.Running);
      let decoded = E.create image in
      E.install_decoded decoded (Some (E.decode image));
      check_no_scaling ("decoded " ^ name) (fun n ->
          decoded.E.status <- E.Running;
          let r = E.run ~max_steps:(Int64.of_int (decoded.E.steps + n)) decoded in
          if r.E.status <> E.Timed_out then Alcotest.fail (name ^ ": decoded loop left the loop")))
    zero_alloc_groups

(* A whole fault-free decoded run allocates a bounded number of minor
   words: DC retires 10^5..10^6 instructions per tool, so anything paid per
   instruction or per FI library call would exceed the bound many times
   over.  What remains is per run: the engine reset, the handler rebind,
   the output string and the result record. *)
let test_zero_alloc_full_run () =
  let src = (Refine_bench_progs.Registry.find "DC").Refine_bench_progs.Registry.source in
  List.iter
    (fun kind ->
      let p = T.prepare kind src in
      ignore (T.run_clean p) (* the domain's cached engine now exists *);
      let w0 = Gc.minor_words () in
      let r = T.run_clean p in
      let words = Gc.minor_words () -. w0 in
      let name = T.kind_name kind in
      Alcotest.(check bool) (name ^ ": run exits") true (r.E.status = E.Exited 0);
      if words >= 4096. then
        Alcotest.failf "%s: %.0f minor words for a %Ld-step run" name words r.E.steps)
    [ T.Pinfi; T.Refine; T.Llfi ]

let qcheck = QCheck_alcotest.to_alcotest

let tests =
  [
    qcheck prop_snapshot_reset_identical;
    Alcotest.test_case "reset restores globals/heap/output" `Quick test_reset_restores_state;
    Alcotest.test_case "reset requires a snapshot engine" `Quick test_reset_requires_snapshot;
    Alcotest.test_case "reset restores every memory write path" `Quick
      test_reset_restores_every_write_path;
    Alcotest.test_case "unknown extern traps at call, not resolution" `Quick
      test_unknown_extern_dead_path;
    Alcotest.test_case "reset rebinds extern handlers" `Quick test_reset_rebinds_handlers;
    Alcotest.test_case "fixed-seed campaign: fast path = legacy path" `Slow
      test_campaign_equality;
    Alcotest.test_case "hot path allocation-free with profiling off" `Quick
      test_zero_alloc_hot_path;
    Alcotest.test_case "fault-free decoded DC run: bounded minor words" `Quick
      test_zero_alloc_full_run;
  ]
