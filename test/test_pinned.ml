(* Results pinned across commits.

   A fixed-seed campaign matrix — four benchmark programs (DC, EP, CG and
   the call-heavy XSBench) x PINFI/REFINE/LLFI x all five fault models, on
   the decoded engine and on the legacy interpreter — must reproduce the
   per-cell outcome counts and summed modeled injection cost recorded in
   [fixtures/pinned_outcomes.txt].  The fixture was written by the
   simulator version that still had the post-injection handoff (DESIGN.md
   §20), with the handoff switched off so every sample ran attached to
   completion, as all samples do now.  Any refactor that changes what a
   sample computes or charges (including the cost reported for timed-out
   runs) shows up here as a diff. *)

module T = Refine_core.Tool
module F = Refine_core.Fault
module Ex = Refine_campaign.Experiment
module Reg = Refine_bench_progs.Registry

let fixture = "fixtures/pinned_outcomes.txt"
let programs = [ "DC"; "EP"; "CG"; "XSBench" ]
let tools = [ T.Pinfi; T.Refine; T.Llfi ]
let models = List.map F.model_of_string [ "reg"; "mem"; "instr"; "multi:2"; "burst:2" ]

(* one line per (engine, model, program, tool) cell *)
let rows ~decode =
  let engine = if decode then "decoded" else "legacy" in
  let sources = List.map (fun n -> (n, (Reg.find n).Reg.source)) programs in
  Fun.protect
    ~finally:(fun () -> T.use_decode := true)
    (fun () ->
      T.use_decode := decode;
      List.concat_map
        (fun model ->
          List.map
            (fun (c : Ex.cell) ->
              Printf.sprintf "%s %s %s %s crash=%d soc=%d benign=%d err=%d cost=%Ld" engine
                (F.string_of_model model) c.Ex.program (T.kind_name c.Ex.tool)
                c.Ex.counts.Ex.crash c.Ex.counts.Ex.soc c.Ex.counts.Ex.benign
                c.Ex.counts.Ex.tool_error c.Ex.injection_cost)
            (Ex.run_matrix ~model ~domains:2 ~samples:8 ~seed:2017 sources tools))
        models)

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_matches_fixture () =
  let expected = read_lines fixture and actual = rows ~decode:true @ rows ~decode:false in
  Alcotest.(check int) "row count" (List.length expected) (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) "pinned cell" e a) expected actual

let tests =
  [
    Alcotest.test_case "fixed-seed outcomes + modeled cost = pinned fixture (5 models, 2 engines)"
      `Slow test_matches_fixture;
  ]
