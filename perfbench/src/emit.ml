(* The result line: one JSON object with exactly the keys [correct],
   [attempted], [failed] and [metrics], where [metrics] holds every
   metric {!Schema} declares for the mode and nothing else. *)

let number v = Printf.sprintf "%.17g" v

let result_line ~trace ~attempted ~failed (values : (string * float) list) =
  let declared = Schema.metrics ~trace in
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun m -> m.Schema.name = name) declared) then
        invalid_arg ("Emit: undeclared metric " ^ name))
    values;
  let field (m : Schema.metric) =
    match List.assoc_opt m.name values with
    | None -> invalid_arg ("Emit: missing metric " ^ m.name)
    | Some v when not (Float.is_finite v) ->
      invalid_arg (Printf.sprintf "Emit: metric %s is not finite" m.name)
    | Some v ->
      Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number v)
        m.unit_
  in
  if attempted < 1 then invalid_arg "Emit: no operation attempted";
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) attempted failed
    (String.concat ", " (List.map field declared))
