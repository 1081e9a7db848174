(* Tests of the benchmark's own machinery: percentile selection, span
   self time, the metric name grammar, and agreement between
   BENCHMARK.json, the declared schema and the printed result line. *)

open Perfbench
module Jsonx = Gpu_report.Jsonx

let floats n = List.init n (fun i -> float_of_int (i + 1))

(* --- percentiles ----------------------------------------------------------- *)

let test_rank () =
  Alcotest.(check int) "p95 of 200" 190 (Stats.rank ~n:200 950);
  Alcotest.(check int) "p95 of 199" 190 (Stats.rank ~n:199 950);
  Alcotest.(check int) "p50 of 1" 1 (Stats.rank ~n:1 500);
  Alcotest.(check int) "p99.9 of 10000" 9990 (Stats.rank ~n:10000 999)

let test_supported () =
  Alcotest.(check bool) "200 samples support p95" true
    (Stats.supported ~n:200 950);
  Alcotest.(check bool) "199 samples do not" false
    (Stats.supported ~n:199 950);
  Alcotest.(check bool) "no samples support nothing" false
    (Stats.supported ~n:0 500)

let test_percentile () =
  Alcotest.(check (float 0.0)) "p95 of 1..200" 190.0
    (Stats.percentile (List.rev (floats 200)) 950);
  Alcotest.(check (float 0.0)) "median, odd" 3.0
    (Stats.median [ 5.0; 1.0; 3.0; 2.0; 4.0 ]);
  Alcotest.(check (float 0.0)) "median, even" 2.5
    (Stats.median [ 4.0; 1.0; 3.0; 2.0 ])

let test_tail () =
  let tail n = Stats.tail_per_mille ~n in
  Alcotest.(check (option int)) "19 samples: none" None (tail 19);
  Alcotest.(check (option int)) "20 samples: p50" (Some 500) (tail 20);
  Alcotest.(check (option int)) "100 samples: p90" (Some 900) (tail 100);
  Alcotest.(check (option int)) "262 samples: p95" (Some 950) (tail 262);
  Alcotest.(check (option int)) "1000 samples: p99" (Some 990) (tail 1000);
  Alcotest.(check string) "name" "p99.9" (Stats.per_mille_name 999)

(* --- spans ----------------------------------------------------------------- *)

let span id ?parent name start stop =
  { Spans.id; name; parent; op = 0; start; stop; minor_words = 0.0;
    major_words = 0.0 }

let self_of spans id =
  snd (List.find (fun (s, _) -> s.Spans.id = id) (Spans.self_times spans))

let test_self_nested () =
  let spans =
    [
      span 0 "bench.op" 0.0 10.0;
      span 1 ~parent:0 "kernel" 1.0 4.0;
      span 2 ~parent:0 "timing" 5.0 9.0;
      span 3 ~parent:2 "microbench" 6.0 8.0;
    ]
  in
  let eq = Alcotest.(check (float 1e-12)) in
  eq "root keeps the gaps" 3.0 (self_of spans 0);
  eq "leaf keeps all" 3.0 (self_of spans 1);
  eq "parent loses its child" 2.0 (self_of spans 2);
  eq "grandchild" 2.0 (self_of spans 3);
  eq "self times sum to the root's duration" 10.0
    (List.fold_left (fun acc (_, s) -> acc +. s) 0.0 (Spans.self_times spans));
  Alcotest.(check (list (pair string (float 1e-12))))
    "by name"
    [ ("bench.op", 3.0); ("kernel", 3.0); ("timing", 2.0);
      ("microbench", 2.0) ]
    (Spans.self_by_name spans)

let test_self_overlap () =
  (* overlapping or overhanging children are counted once, clipped *)
  let spans =
    [
      span 0 "a" 0.0 10.0;
      span 1 ~parent:0 "b" 1.0 5.0;
      span 2 ~parent:0 "c" 3.0 7.0;
      span 3 ~parent:0 "d" 9.0 12.0;
    ]
  in
  Alcotest.(check (float 1e-12)) "union" 3.0 (self_of spans 0)

let test_recorder () =
  let r = Spans.create () in
  let v =
    Spans.with_ r ~op:7 "bench.op" (fun () ->
        Spans.with_ r ~op:7 "sim" (fun () -> ignore (Array.make 100 0));
        Spans.with_ r ~op:7 "timing" (fun () -> 42))
  in
  Alcotest.(check int) "value passes through" 42 v;
  let spans = Spans.spans r in
  let find n = List.find (fun s -> s.Spans.name = n) spans in
  let root = find "bench.op" in
  Alcotest.(check (option int)) "root has no parent" None root.parent;
  Alcotest.(check (option int)) "sim nests" (Some root.id) (find "sim").parent;
  Alcotest.(check (option int)) "timing nests" (Some root.id)
    (find "timing").parent;
  Alcotest.(check bool) "allocation recorded" true
    ((find "sim").minor_words > 0.0);
  List.iter (fun s -> Alcotest.(check int) "op id" 7 s.Spans.op) spans;
  (match Spans.with_ r ~op:8 "raises" (fun () -> failwith "x") with
  | () -> Alcotest.fail "expected the exception"
  | exception Failure _ -> ());
  Alcotest.(check bool) "closed on exception" true
    (List.exists (fun s -> s.Spans.name = "raises") (Spans.spans r));
  let lines = String.split_on_char '\n' (Spans.to_jsonl (Spans.spans r)) in
  List.iter
    (fun l ->
      if l <> "" then
        Alcotest.(check bool) ("valid JSON: " ^ l) true
          (Result.is_ok (Jsonx.parse l)))
    lines

(* --- names ----------------------------------------------------------------- *)

let test_grammar () =
  List.iter
    (fun (m : Schema.metric) ->
      Alcotest.(check bool) ("name " ^ m.name) true (Schema.valid_name m.name);
      Alcotest.(check bool) ("unit " ^ m.unit_) true (Schema.valid_unit m.unit_))
    (Schema.end_to_end @ Schema.per_layer);
  List.iter
    (fun (w, _) -> Alcotest.(check bool) w true (Schema.valid_name w))
    Schema.workloads;
  List.iter
    (fun bad -> Alcotest.(check bool) bad false (Schema.valid_name bad))
    [ ""; "_x"; ".x"; "a b"; "a/b"; "p95%"; String.make 65 'a' ];
  Alcotest.(check bool) "64 characters" true
    (Schema.valid_name (String.make 64 'a'));
  let names =
    List.map (fun (w, _) -> w) Schema.workloads
    @ List.map (fun m -> m.Schema.name) (Schema.end_to_end @ Schema.per_layer)
  in
  Alcotest.(check int) "names are unique"
    (List.length names)
    (List.length (List.sort_uniq compare names))

(* --- BENCHMARK.json -------------------------------------------------------- *)

let benchmark_json () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let s = In_channel.input_all ic in
  close_in ic;
  match Jsonx.parse s with Ok j -> j | Error e -> Alcotest.fail e

let member k j =
  match Jsonx.member k j with
  | Some v -> v
  | None -> Alcotest.fail ("BENCHMARK.json lacks " ^ k)

let str k j = Option.get (Jsonx.to_string (member k j))
let list k j = Option.get (Jsonx.to_list (member k j))

let test_benchmark_json () =
  let j = benchmark_json () in
  Alcotest.(check (list string))
    "keys"
    [ "command"; "end_to_end"; "paths"; "per_layer"; "run_seconds";
      "workloads" ]
    (List.sort compare (List.map fst (Option.get (Jsonx.to_obj j))));
  let strings k = List.map (fun v -> Option.get (Jsonx.to_string v)) (list k j) in
  Alcotest.(check (list string))
    "command" [ "python3"; "perfbench/run.py" ] (strings "command");
  Alcotest.(check (list string)) "paths" [ "perfbench" ] (strings "paths");
  let run_seconds = Option.get (Jsonx.to_int (member "run_seconds" j)) in
  Alcotest.(check bool) "run_seconds in 1..60" true
    (run_seconds >= 1 && run_seconds <= 60);
  Alcotest.(check (list (pair string string)))
    "workloads" Schema.workloads
    (List.map (fun w -> (str "name" w, str "why" w)) (list "workloads" j));
  List.iter
    (fun (_, why) ->
      Alcotest.(check bool) "why fits one line" true
        (String.length why <= 200 && not (String.contains why '\n')))
    Schema.workloads;
  let metric ~bound m =
    ( str "name" m,
      str "unit" m,
      str "better" m,
      if bound then Jsonx.to_float (member "bound" m) else None )
  in
  let declared ms =
    List.map
      (fun (m : Schema.metric) ->
        (m.name, m.unit_, Schema.better_name m.better, m.bound))
      ms
  in
  let t = Alcotest.(list (pair string (pair string (pair string (option (float 0.0)))))) in
  let flat = List.map (fun (a, b, c, d) -> (a, (b, (c, d)))) in
  Alcotest.check t "end_to_end"
    (flat (declared Schema.end_to_end))
    (flat (List.map (metric ~bound:true) (list "end_to_end" j)));
  Alcotest.check t "per_layer"
    (flat (declared Schema.per_layer))
    (flat (List.map (metric ~bound:false) (list "per_layer" j)));
  let bounds = List.filter_map (fun m -> m.Schema.bound) Schema.end_to_end in
  List.iter
    (fun b -> Alcotest.(check bool) "bound <= 0.25" true (b > 0.0 && b <= 0.25))
    bounds;
  let setup = List.find (fun m -> m.Schema.name = "setup_s") Schema.end_to_end in
  Alcotest.(check bool) "setup_s: seconds, lower, largest bound" true
    (setup.unit_ = "s" && setup.better = Schema.Lower
    && setup.bound = Some (List.fold_left Float.max 0.0 bounds))

(* --- the result line ------------------------------------------------------- *)

let values ~trace = List.map (fun m -> (m.Schema.name, 1.5)) (Schema.metrics ~trace)

let test_result_line () =
  List.iter
    (fun trace ->
      let line = Emit.result_line ~trace ~attempted:3 ~failed:1 (values ~trace) in
      let j = match Jsonx.parse line with Ok j -> j | Error e -> Alcotest.fail e in
      Alcotest.(check (list string)) "keys"
        [ "correct"; "attempted"; "failed"; "metrics" ]
        (List.map fst (Option.get (Jsonx.to_obj j)));
      Alcotest.(check bool) "a failure is not correct" true
        (Jsonx.member "correct" j = Some (Jsonx.Bool false));
      let printed = Option.get (Jsonx.to_obj (member "metrics" j)) in
      Alcotest.(check (list (pair string string)))
        "every declared metric, with its unit"
        (List.map (fun m -> (m.Schema.name, m.Schema.unit_)) (Schema.metrics ~trace))
        (List.map (fun (n, v) -> (n, str "unit" v)) printed))
    [ false; true ];
  let refuses what vs =
    match Emit.result_line ~trace:false ~attempted:1 ~failed:0 vs with
    | _ -> Alcotest.fail ("accepted " ^ what)
    | exception Invalid_argument _ -> ()
  in
  let vs = values ~trace:false in
  refuses "a missing metric" (List.tl vs);
  refuses "an undeclared metric" (("sim.self_ms_per_op", 1.0) :: vs);
  refuses "a non-finite value"
    (List.map (fun (n, v) -> (n, if n = "setup_s" then Float.nan else v)) vs)

let () =
  Alcotest.run "perfbench"
    [
      ( "percentiles",
        [
          Alcotest.test_case "nearest rank" `Quick test_rank;
          Alcotest.test_case "ten samples beyond" `Quick test_supported;
          Alcotest.test_case "values" `Quick test_percentile;
          Alcotest.test_case "highest supported tail" `Quick test_tail;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time, nested" `Quick test_self_nested;
          Alcotest.test_case "self time, overlapping" `Quick test_self_overlap;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ( "schema",
        [
          Alcotest.test_case "name grammar" `Quick test_grammar;
          Alcotest.test_case "BENCHMARK.json agrees" `Quick test_benchmark_json;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
    ]
