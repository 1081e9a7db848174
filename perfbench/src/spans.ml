(* In-memory span recorder for the traced run.  Spans are opened around
   calls into the library's layers from the benchmark's own code (never
   inside lib/), kept in memory, and written out once when the run ends.
   Each span carries the minor and major words its domain allocated
   while it was open. *)

type span = {
  id : int;
  name : string;
  parent : int option;
  op : int;  (** the operation the span belongs to *)
  start : float;  (** seconds, Unix epoch *)
  stop : float;
  minor_words : float;
  major_words : float;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable open_ids : int list;  (** innermost first *)
}

let create () = { spans = []; next_id = 0; open_ids = [] }

let with_ t ~op name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ids with p :: _ -> Some p | [] -> None in
  t.open_ids <- id :: t.open_ids;
  let minor0, _, major0 = Gc.counters () in
  let start = Unix.gettimeofday () in
  let finish () =
    let stop = Unix.gettimeofday () in
    let minor1, _, major1 = Gc.counters () in
    t.open_ids <- List.tl t.open_ids;
    t.spans <-
      {
        id;
        name;
        parent;
        op;
        start;
        stop;
        minor_words = minor1 -. minor0;
        major_words = major1 -. major0;
      }
      :: t.spans
  in
  Fun.protect ~finally:finish f

let spans t = List.rev t.spans
let duration s = s.stop -. s.start

(* Total length of the union of [intervals]. *)
let union_length intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of that
   interval its direct children cover.  Summed over one operation's span
   tree this equals the root span's duration. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with Some p -> Hashtbl.add children p s | None -> ())
    spans;
  List.map
    (fun s ->
      let covered =
        Hashtbl.find_all children s.id
        |> List.filter_map (fun k ->
               let a = Float.max s.start k.start
               and b = Float.min s.stop k.stop in
               if b > a then Some (a, b) else None)
        |> union_length
      in
      (s, duration s -. covered))
    spans

(* Self seconds summed per span name, in first-seen order. *)
let self_by_name spans =
  let order = ref [] and totals = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt totals s.name with
      | Some v -> Hashtbl.replace totals s.name (v +. self)
      | None ->
        order := s.name :: !order;
        Hashtbl.replace totals s.name self)
    (self_times spans);
  List.rev_map (fun n -> (n, Hashtbl.find totals n)) !order

(* Summed duration of spans named [name]. *)
let total_duration spans name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. duration s else acc)
    0.0 spans

(* Minor words allocated inside spans named [name]. *)
let minor_words_of spans name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. s.minor_words else acc)
    0.0 spans

let to_jsonl spans =
  let b = Buffer.create 4096 in
  List.iter
    (fun s ->
      Printf.bprintf b
        "{\"id\":%d,\"name\":%S,\"parent\":%s,\"op\":%d,\"start_us\":%.3f,\"end_us\":%.3f,\"minor_words\":%.0f,\"major_words\":%.0f}\n"
        s.id s.name
        (match s.parent with Some p -> string_of_int p | None -> "null")
        s.op (s.start *. 1e6) (s.stop *. 1e6) s.minor_words s.major_words)
    spans;
  Buffer.contents b
