(* Golden-prefix fast-forward (DESIGN.md §21).

   An injection sample that resumes from a golden-run checkpoint must be
   indistinguishable from one that simulates the whole run from the
   loader state: same outcome, same modeled cost, same fault record.  The
   checkpoint mechanism itself must be exact: a restored engine equals,
   register for register and byte for byte, an engine run from scratch to
   the same step, also when the capture landed inside a fused
   superinstruction's slow path. *)

module T = Refine_core.Tool
module F = Refine_core.Fault
module E = Refine_machine.Exec
module R = Refine_mir.Reg
module P = Refine_support.Prng
module Reg = Refine_bench_progs.Registry
module Runtime = Refine_core.Runtime

(* Reads the zero-initialized global [runs] before writing it, once, at
   the start: a resumed sample never writes that page again, so the page
   restore brought in must be marked dirty, or the next reset leaves
   [runs] = 1 behind for a sample that starts from the loader.  It also
   allocates and prints before its first checkpoint, so tight heap and
   output quotas stop it inside the golden prefix. *)
let read_first =
  "global int runs; int main() { int i; int s = 0; int[] h = alloc_int(4); h[0] = 5; runs = \
   runs + 1; print_int(runs); for (i = 0; i < 4000; i = i + 1) { s = s + (i * 7) % 13; } \
   print_int(s + h[0]); return 0; }"

let programs =
  List.map (fun n -> (n, (Reg.find n).Reg.source)) [ "DC"; "EP"; "CG"; "XSBench" ]
  @ [ ("read-first", read_first) ]

let tools = [ T.Pinfi; T.Refine; T.Llfi ]
let models = List.map F.model_of_string [ "reg"; "mem"; "instr"; "multi:2"; "burst:2" ]

let with_flags ~fast ~decode f =
  let fast0 = !T.use_fast_path and decode0 = !T.use_decode in
  T.use_fast_path := fast;
  T.use_decode := decode;
  Fun.protect
    ~finally:(fun () ->
      T.use_fast_path := fast0;
      T.use_decode := decode0)
    f

(* --- Tool.run_injection: fast-forward = the reference oracle ------------ *)

(* Each (program, tool) is prepared uncached on both engines, so the
   checkpoints of either engine's profiling run are the ones resumed. *)
let prepared =
  lazy
    (List.concat_map
       (fun (name, src) ->
         List.map
           (fun kind ->
             let on decode =
               with_flags ~fast:true ~decode (fun () -> T.prepare ~cache:false kind src)
             in
             (name, kind, on true, on false))
           tools)
       programs)

let dyn_count (p : T.prepared) = Int64.to_int p.T.profile.F.dyn_count

(* Targets at both ends of the run and on both sides of every checkpoint,
   in descending order: a later sample restores an earlier checkpoint (or
   none) on the engine the previous one left behind, so a restored page
   that the next reset failed to undo shows up as a changed result. *)
let pinned_targets p =
  let n = dyn_count p in
  let cps = T.checkpoint_counts p in
  List.filter (fun t -> t >= 1 && t <= n) ((1 :: n :: cps) @ List.map succ cps)
  |> List.sort_uniq (fun a b -> compare b a)

let inject ?cost_cap ?(quotas = T.default_quotas) ~model p target =
  let rng = P.create ((target * 31) + 7) in
  let e = T.run_injection_at ?cost_cap ~quotas ~model p ~target rng in
  (e.F.outcome, e.F.run_cost, e.F.fault)

let show (o, cost, fault) =
  Printf.sprintf "%s cost=%Ld fault=%s" (F.string_of_outcome o) cost
    (match fault with
    | None -> "none"
    | Some r ->
      Printf.sprintf "dyn=%Ld op=%d %s bit=%d" r.F.dyn_index r.F.op_index r.F.reg_name r.F.bit)

let check_same what oracle got =
  if oracle <> got then
    Alcotest.failf "%s: oracle %s, fast-forward %s" what (show oracle) (show got)

let test_checkpoints_engine_independent () =
  List.iter
    (fun (name, kind, pd, pl) ->
      let what = Printf.sprintf "%s/%s" name (T.kind_name kind) in
      Alcotest.(check (list int)) (what ^ ": checkpoint counts") (T.checkpoint_counts pl)
        (T.checkpoint_counts pd);
      Alcotest.(check bool) (what ^ ": has checkpoints") true (T.checkpoint_counts pd <> []))
    (Lazy.force prepared)

(* Three legs over every (program, tool, model) cell, each spread over two
   domains with the engine switches fixed for the whole leg: the oracle
   (no fast path, legacy interpreter), then fast-forward on the decoded
   and on the legacy engine.  One cell's targets run in order on one
   domain, so they share that domain's cached engine. *)
let test_pinned_targets () =
  let cells =
    Array.of_list
      (List.concat_map
         (fun (name, kind, pd, pl) -> List.map (fun model -> (name, kind, pd, pl, model)) models)
         (Lazy.force prepared))
  in
  let leg ~fast ~decode =
    with_flags ~fast ~decode (fun () ->
        Refine_support.Parallel.map_array ~domains:2
          (fun (_, _, pd, pl, model) ->
            let p = if fast && not decode then pl else pd in
            List.map (fun target -> (target, inject ~model p target)) (pinned_targets pd))
          cells)
  in
  let oracle = leg ~fast:false ~decode:false in
  List.iter
    (fun (engine, decode) ->
      Array.iteri
        (fun i got ->
          let name, kind, _, _, model = cells.(i) in
          List.iter2
            (fun (target, o) (_, g) ->
              check_same
                (Printf.sprintf "%s/%s/%s/%s target %d" name (T.kind_name kind)
                   (F.string_of_model model) engine target)
                o g)
            oracle.(i) got)
        (leg ~fast:true ~decode))
    [ ("decoded", true); ("legacy", false) ]

let prop_drawn_target =
  QCheck.Test.make ~name:"fast-forward = oracle at a drawn target, every model and engine"
    ~count:40
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (cell, frac) ->
      let cells = Array.of_list (Lazy.force prepared) in
      let name, kind, pd, pl = cells.(cell mod Array.length cells) in
      let model = List.nth models (cell / Array.length cells mod List.length models) in
      let target = 1 + (frac mod dyn_count pd) in
      let oracle = with_flags ~fast:false ~decode:false (fun () -> inject ~model pd target) in
      List.iter
        (fun (decode, p) ->
          check_same
            (Printf.sprintf "%s/%s/%s target %d" name (T.kind_name kind) (F.string_of_model model)
               target)
            oracle
            (with_flags ~fast:true ~decode (fun () -> inject ~model p target)))
        [ (true, pd); (false, pl) ];
      true)

(* A cost cap or quota that stops the run inside the golden prefix must
   stop it at the same point after fast-forward: no checkpoint past the
   stopping point may be resumed. *)
let test_budget_inside_prefix () =
  let capped p = Int64.div p.T.profile.F.profile_cost 2L in
  List.iter
    (fun (name, kind, pd, _) ->
      if name = "read-first" then
        List.iter
          (fun (what, quotas, cost_cap) ->
            let target = dyn_count pd in
            let run ~fast =
              with_flags ~fast ~decode:true (fun () ->
                  match inject ?cost_cap:(cost_cap pd) ~quotas ~model:F.Reg_bit pd target with
                  | r -> show r
                  | exception T.Sample_budget_exceeded c -> Printf.sprintf "budget exceeded %Ld" c)
            in
            Alcotest.(check string)
              (Printf.sprintf "%s/%s %s" name (T.kind_name kind) what)
              (run ~fast:false) (run ~fast:true))
          [
            ("output quota 0", { T.no_quotas with T.output_bytes = Some 0 }, fun _ -> None);
            ("heap quota 0", { T.no_quotas with T.heap_bytes = Some 0 }, fun _ -> None);
            ("cost cap half the golden cost", T.default_quotas, fun p -> Some (capped p));
          ])
    (Lazy.force prepared)

(* refine_exec_steps_total counts simulated instructions only: with the
   skipped golden prefix it adds up to the run from the loader. *)
let test_step_accounting () =
  let module Mx = Refine_obs.Metrics in
  let total name =
    List.fold_left
      (fun acc (n, labels, v) ->
        match v with
        | Mx.Counter c when n = name && List.mem ("tool", "REFINE") labels -> Int64.add acc c
        | _ -> acc)
      0L (Mx.snapshot ())
  in
  let _, _, pd, _ =
    List.find (fun (n, k, _, _) -> n = "DC" && k = T.Refine) (Lazy.force prepared)
  in
  let target = List.nth (T.checkpoint_counts pd) 3 + 1 in
  let measure ~fast =
    Mx.reset ();
    ignore (with_flags ~fast ~decode:true (fun () -> inject ~model:F.Reg_bit pd target));
    ( total "refine_exec_steps_total",
      total "refine_fastforward_skipped_steps_total",
      total "refine_fastforward_restores_total" )
  in
  Refine_obs.Control.enable ();
  Fun.protect
    ~finally:(fun () ->
      Mx.reset ();
      Refine_obs.Control.disable ())
    (fun () ->
      let full, skipped0, _ = measure ~fast:false in
      let simulated, skipped, restores = measure ~fast:true in
      Alcotest.(check int64) "no skip from the loader" 0L skipped0;
      Alcotest.(check int64) "one restore" 1L restores;
      Alcotest.(check bool) "prefix skipped" true (skipped > 0L);
      Alcotest.(check int64) "simulated + skipped = full run" full (Int64.add simulated skipped))

(* --- Exec.capture / restore exactness ---------------------------------- *)

let check_state what (a : E.t) (b : E.t) =
  for r = 0 to R.num_regs - 1 do
    Alcotest.(check int64) (Printf.sprintf "%s: register %d" what r) (E.get_reg b r) (E.get_reg a r)
  done;
  if not (Bytes.equal a.E.mem b.E.mem) then
    Alcotest.failf "%s: memory differs at 0x%x" what (Test_fastpath.first_diff a.E.mem b.E.mem);
  Alcotest.(check int) (what ^ ": pc") b.E.pc a.E.pc;
  Alcotest.(check int) (what ^ ": steps") b.E.steps a.E.steps;
  Alcotest.(check int) (what ^ ": cost") b.E.cost a.E.cost;
  Alcotest.(check int) (what ^ ": heap") b.E.heap a.E.heap;
  Alcotest.(check string) (what ^ ": output") (Buffer.contents b.E.env.Refine_ir.Externs.out)
    (Buffer.contents a.E.env.Refine_ir.Externs.out)

(* Capture at every [every]-th poll slot of a full run, then compare each
   checkpoint restored onto a reset engine against an engine run from the
   loader to the same step. *)
let check_restores ?(every = 1) what ~(fresh : unit -> E.t) ~rebind =
  let src = fresh () in
  let cps = ref [] and slot = ref 0 in
  let poll () =
    incr slot;
    if !slot mod every = 0 && src.E.status = E.Running then cps := E.capture src :: !cps
  in
  ignore (E.run ~poll src);
  Alcotest.(check bool) (what ^ ": captured") true (!cps <> []);
  let restored = fresh () and reference = fresh () in
  List.iter
    (fun c ->
      let s = E.checkpoint_steps c in
      rebind restored;
      E.restore restored c;
      rebind reference;
      ignore (E.run ~max_steps:(Int64.of_int s) reference);
      check_state (Printf.sprintf "%s at step %d" what s) restored reference)
    !cps;
  List.rev !cps

let engines = [ ("legacy", false); ("decoded", true) ]

let test_restore_exact_benchmarks () =
  List.iter
    (fun (name, kind) ->
      let p = T.prepare kind (Reg.find name).Reg.source in
      let handlers () =
        match kind with
        | T.Refine -> Runtime.refine_handlers (Runtime.create Runtime.Profile)
        | T.Llfi -> Runtime.llfi_handlers (Runtime.create Runtime.Profile)
        | T.Pinfi -> []
      in
      let dp = E.decode p.T.image in
      List.iter
        (fun (engine, decoded) ->
          let fresh () =
            let e = E.create_from_snapshot ~ext_extra:(handlers ()) p.T.snap in
            if decoded then E.install_decoded e (Some dp);
            e
          in
          ignore
            (check_restores ~every:4
               (Printf.sprintf "%s/%s (%s)" name (T.kind_name kind) engine)
               ~fresh
               ~rebind:(fun e -> E.reset ~ext_extra:(handlers ()) e)))
        engines)
    [ ("DC", T.Refine); ("XSBench", T.Llfi) ]

(* The first poll slot of [slot_loop_image] lands inside the fused
   loop-back superinstruction, whose constituent-exact slow path calls the
   poll between its compare and its conditional exit. *)
let test_restore_inside_superinstruction () =
  let image = Test_fastpath.slot_loop_image () in
  Alcotest.(check bool) "loop-back fused" true ((E.superinstr_counts (E.decode image)).(2) > 0);
  let snap = E.snapshot image and dp = E.decode image in
  List.iter
    (fun (engine, decoded) ->
      let fresh () =
        let e = E.create_from_snapshot snap in
        if decoded then E.install_decoded e (Some dp);
        e
      in
      let what = "slot loop (" ^ engine ^ ")" in
      match check_restores what ~fresh ~rebind:(fun e -> E.reset e) with
      | first :: _ ->
        let e = fresh () in
        E.restore e first;
        Alcotest.(check int) (what ^ ": capture inside the fused triple") Test_fastpath.slot_loop_pc
          e.E.pc;
        let resumed = E.run e and full = E.run (fresh ()) in
        Alcotest.(check bool) (what ^ ": resumed run = full run") true (resumed = full)
      | [] -> Alcotest.fail "no checkpoint")
    engines

let test_restore_rejects () =
  let image = Test_fastpath.slot_loop_image () in
  let snap = E.snapshot image in
  let src = E.create_from_snapshot snap and cp = ref None in
  ignore (E.run ~poll:(fun () -> if !cp = None then cp := Some (E.capture src)) src);
  let cp = Option.get !cp in
  let rejects what e =
    match E.restore e cp with
    | () -> Alcotest.failf "%s: restore accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "engine without a snapshot" (E.create image);
  rejects "engine that already ran" src;
  let written = E.create_from_snapshot snap in
  E.flip_mem_bit written ~addr:(3 * 1024 * 1024) ~bit:0;
  rejects "engine written since its reset" written;
  rejects "engine of another image"
    (E.create_from_snapshot (E.snapshot (Test_fastpath.image_of [ Refine_mir.Minstr.Mhalt ])))

let tests =
  [
    Alcotest.test_case "checkpoint counts equal on both engines" `Quick
      test_checkpoints_engine_independent;
    Alcotest.test_case "fast-forward = oracle at pinned targets (5 programs, 3 tools, 5 models)"
      `Slow test_pinned_targets;
    QCheck_alcotest.to_alcotest prop_drawn_target;
    Alcotest.test_case "quotas and cost caps inside the golden prefix" `Quick
      test_budget_inside_prefix;
    Alcotest.test_case "simulated + skipped steps = the full run" `Quick test_step_accounting;
    Alcotest.test_case "restore = run from scratch (DC, XSBench; both engines)" `Quick
      test_restore_exact_benchmarks;
    Alcotest.test_case "restore exact inside a superinstruction slow path" `Quick
      test_restore_inside_superinstruction;
    Alcotest.test_case "restore rejects unsuitable engines" `Quick test_restore_rejects;
  ]
