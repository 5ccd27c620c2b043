(* End-to-end smoke test for the observability layer.

   A tiny 2-program x 2-tool campaign runs with metrics and span tracing
   enabled; afterwards the JSONL trace must parse line by line, the
   Prometheus dump must contain well-formed series, and the counters the
   campaign is guaranteed to touch must be nonzero.

   Run via:  dune build @obs-smoke *)

module E = Refine_campaign.Experiment
module T = Refine_core.Tool
module Reg = Refine_bench_progs.Registry
module Obs = Refine_obs
module M = Obs.Metrics

let fail fmt = Printf.ksprintf (fun s -> print_endline ("[obs-smoke] FAIL: " ^ s); exit 1) fmt

(* ---- minimal JSON validator (objects, arrays, strings, numbers, atoms);
   enough to reject any malformed trace line without a json dependency ---- *)

let json_valid (s : string) =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance () else raise Exit
  in
  let literal l =
    let ln = String.length l in
    if !pos + ln <= n && String.sub s !pos ln = l then pos := !pos + ln else raise Exit
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> raise Exit
  and string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> raise Exit
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> raise Exit
          done
        | _ -> raise Exit);
        go ()
      | Some _ -> advance (); go ()
    in
    go ()
  and number () =
    let digits () =
      let saw = ref false in
      while (match peek () with Some '0' .. '9' -> true | _ -> false) do
        saw := true;
        advance ()
      done;
      if not !saw then raise Exit
    in
    if peek () = Some '-' then advance ();
    digits ();
    if peek () = Some '.' then begin advance (); digits () end;
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ())
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); members ()
        | Some '}' -> advance ()
        | _ -> raise Exit
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else
      let rec elems () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); elems ()
        | Some ']' -> advance ()
        | _ -> raise Exit
      in
      elems ()
  in
  try
    value ();
    skip_ws ();
    !pos = n
  with Exit -> false

let read_lines path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")

let counter_total name =
  List.fold_left
    (fun acc (n, _, v) ->
      match v with M.Counter c when n = name -> Int64.add acc c | _ -> acc)
    0L (M.snapshot ())

let () =
  let programs = [ "DC"; "EP" ] in
  let tools = [ T.Refine; T.Pinfi ] in
  let samples = 12 and seed = 5 in
  let srcs = List.map (fun n -> (n, (Reg.find n).Reg.source)) programs in
  let trace = Filename.temp_file "refine_obs" ".trace.jsonl" in
  let prom = Filename.temp_file "refine_obs" ".prom" in

  Obs.Control.enable ();
  Obs.Span.set_file_sink trace;
  let cells = E.run_matrix ~samples ~seed srcs tools in
  Obs.Span.close_sink ();
  M.save prom;

  (* the campaign itself must have been healthy *)
  List.iter
    (fun (c : E.cell) ->
      if E.total c.E.counts <> samples then
        fail "%s/%s resolved %d of %d samples" c.E.program (T.kind_name c.E.tool)
          (E.total c.E.counts) samples)
    cells;

  (* every trace line is valid JSON and the expected span names appear *)
  let lines = read_lines trace in
  if lines = [] then fail "trace %s is empty" trace;
  List.iteri
    (fun i l -> if not (json_valid l) then fail "trace line %d is not valid JSON: %s" (i + 1) l)
    lines;
  let has_span name =
    List.exists
      (fun l ->
        let needle = Printf.sprintf "\"name\":\"%s\"" name in
        let ln = String.length l and nn = String.length needle in
        let rec go i = i + nn <= ln && (String.sub l i nn = needle || go (i + 1)) in
        go 0)
      lines
  in
  List.iter
    (fun s -> if not (has_span s) then fail "no '%s' span in trace" s)
    [ "prepare"; "inject"; "sample"; "execute" ];
  Printf.printf "[obs-smoke] trace: %d valid JSONL events\n%!" (List.length lines);

  (* key counters are nonzero *)
  let expect_nonzero name =
    let v = counter_total name in
    if v <= 0L then fail "counter %s is %Ld" name v;
    Printf.printf "[obs-smoke] %s = %Ld\n%!" name v
  in
  List.iter expect_nonzero
    [
      "refine_campaign_samples_total";
      "refine_campaign_cells_total";
      "refine_exec_steps_total";
      "refine_fi_site_hits_total";
      "refine_run_cost_units_total";
      "refine_supervisor_tasks_total";
      "refine_fastforward_restores_total";
      "refine_fastforward_skipped_steps_total";
    ];

  (* the Prometheus dump exists and carries the histogram plumbing *)
  let dump = String.concat "\n" (read_lines prom) in
  let contains needle =
    let lh = String.length dump and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub dump i ln = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun n -> if not (contains n) then fail "prometheus dump lacks %s" n)
    [ "# TYPE refine_campaign_samples_total counter"; "refine_span_duration_seconds_bucket"; "le=\"+Inf\"" ];

  (* the raw dump must survive a strict exposition-format parser *)
  let raw =
    let ic = open_in prom in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  (match Promlint.lint raw with
  | [] -> print_endline "[obs-smoke] promlint: dump is clean"
  | errs -> fail "promlint: %s" (String.concat "; " errs));

  (* overhead attribution reached the cells *)
  List.iter
    (fun (c : E.cell) ->
      if c.E.timing.E.execute_s <= 0.0 then
        fail "%s/%s has no execute time attributed" c.E.program (T.kind_name c.E.tool))
    cells;

  Sys.remove trace;
  Sys.remove prom;
  print_endline "[obs-smoke] PASS: metrics + trace + overhead attribution all live"
