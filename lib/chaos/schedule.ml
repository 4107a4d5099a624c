type domain = Routing | Buffers | Queues | Flags | Crash

let all_domains = [ Routing; Buffers; Queues; Flags; Crash ]

let domain_letter = function
  | Routing -> 'r'
  | Buffers -> 'b'
  | Queues -> 'q'
  | Flags -> 'f'
  | Crash -> 'c'

let domain_of_letter = function
  | 'r' -> Ok Routing
  | 'b' -> Ok Buffers
  | 'q' -> Ok Queues
  | 'f' -> Ok Flags
  | 'c' -> Ok Crash
  | ch -> Error (Printf.sprintf "unknown fault domain %C (expected r b q f c)" ch)

type victims = All | Count of int

type burst = { at : int; domains : domain list; victims : victims }

type channel = Reliable | Lossy | Flaky

type knobs = { loss : float; duplication : float; reorder : float }

let channel_knobs = function
  | Reliable -> { loss = 0.; duplication = 0.; reorder = 0. }
  | Lossy -> { loss = 0.15; duplication = 0.05; reorder = 0.10 }
  | Flaky -> { loss = 0.30; duplication = 0.10; reorder = 0.20 }

let channel_to_string = function
  | Reliable -> "reliable"
  | Lossy -> "lossy"
  | Flaky -> "flaky"

type t = {
  bursts : burst list;
  channel : channel;
  window : int option; (* sliding-window size; None = the port's default *)
  synchrony : Mp.Synchrony.t option;
}

let none = { bursts = []; channel = Reliable; window = None; synchrony = None }

let is_none t =
  t.bursts = [] && t.channel = Reliable && t.window = None && t.synchrony = None

(* Canonical burst order: by round, then textual; canonical domain order
   is r b q f c with duplicates removed, so of_string/to_string round
   trips on canonical forms. *)
let normalize_domains ds =
  List.filter (fun d -> List.mem d ds) all_domains

let burst_to_string b =
  Printf.sprintf "%d:%s:%s" b.at
    (String.concat ""
       (List.map (fun d -> String.make 1 (domain_letter d)) b.domains))
    (match b.victims with All -> "all" | Count k -> string_of_int k)

let to_string t =
  if is_none t then "none"
  else
    let bursts = String.concat "+" (List.map burst_to_string t.bursts) in
    let bursts = if bursts = "" then "none" else bursts in
    let extras =
      (match t.channel with
      | Reliable -> []
      | c -> [ channel_to_string c ])
      @ (match t.window with
        | None -> []
        | Some w -> [ Printf.sprintf "win=%d" w ])
      @
      match t.synchrony with
      | None -> []
      | Some sy ->
          (* ':' not '/': schedule strings embed in '/'-joined campaign
             scenario ids. *)
          [ Printf.sprintf "ps=%d:%d" (Mp.Synchrony.delta sy)
              (Mp.Synchrony.gst sy) ]
    in
    String.concat "@" (bursts :: extras)

let parse_burst s =
  match String.split_on_char ':' s with
  | [ at; letters; victims ] -> (
      let ( let* ) = Result.bind in
      let* at =
        match int_of_string_opt at with
        | Some a when a >= 0 -> Ok a
        | _ -> Error (Printf.sprintf "bad burst round %S" at)
      in
      let* domains =
        String.fold_left
          (fun acc ch ->
            let* acc = acc in
            let* d = domain_of_letter ch in
            Ok (d :: acc))
          (Ok []) letters
      in
      let domains = normalize_domains (List.rev domains) in
      let* () =
        if domains = [] then Error (Printf.sprintf "burst %S has no domains" s)
        else Ok ()
      in
      match victims with
      | "all" -> Ok { at; domains; victims = All }
      | k -> (
          match int_of_string_opt k with
          | Some k when k >= 1 -> Ok { at; domains; victims = Count k }
          | _ -> Error (Printf.sprintf "bad victim count %S" k)))
  | _ ->
      Error
        (Printf.sprintf "bad burst %S (expected <round>:<domains>:<all|k>)" s)

let parse_extra acc tok =
  let ( let* ) = Result.bind in
  let* channel, window, synchrony = acc in
  match tok with
  | "reliable" -> Ok (Reliable, window, synchrony)
  | "lossy" -> Ok (Lossy, window, synchrony)
  | "flaky" -> Ok (Flaky, window, synchrony)
  | _ when String.length tok > 4 && String.sub tok 0 4 = "win=" -> (
      match int_of_string_opt (String.sub tok 4 (String.length tok - 4)) with
      | Some w when w >= 1 && w <= Mp.Window.max_size ->
          Ok (channel, Some w, synchrony)
      | _ ->
          Error
            (Printf.sprintf "bad window %S (expected win=<k>, 1 <= k <= %d)"
               tok Mp.Window.max_size))
  | _ when String.length tok > 3 && String.sub tok 0 3 = "ps=" -> (
      let body = String.sub tok 3 (String.length tok - 3) in
      match String.split_on_char ':' body with
      | [ d; g ] -> (
          match (int_of_string_opt d, int_of_string_opt g) with
          | Some delta, Some gst when delta >= 1 && gst >= 0 ->
              Ok (channel, window, Some (Mp.Synchrony.make ~delta ~gst))
          | _ ->
              Error
                (Printf.sprintf "bad synchrony %S (expected ps=<delta>:<gst>)"
                   tok))
      | _ ->
          Error
            (Printf.sprintf "bad synchrony %S (expected ps=<delta>:<gst>)" tok))
  | _ ->
      Error
        (Printf.sprintf
           "unknown channel modifier %S (expected a preset, win=<k> or \
            ps=<delta>:<gst>)"
           tok)

let of_string s =
  let s = String.trim s in
  let ( let* ) = Result.bind in
  let* () = if s = "" then Error "empty schedule" else Ok () in
  let body, extras =
    match String.split_on_char '@' s with
    | [] -> ("", [])
    | body :: extras -> (body, extras)
  in
  let* channel, window, synchrony =
    List.fold_left parse_extra (Ok (Reliable, None, None)) extras
  in
  let* bursts =
    if body = "none" || body = "" then Ok []
    else
      List.fold_left
        (fun acc part ->
          let* acc = acc in
          let* b = parse_burst part in
          Ok (b :: acc))
        (Ok [])
        (String.split_on_char '+' body)
  in
  let bursts =
    List.sort
      (fun a b ->
        match compare a.at b.at with
        | 0 -> compare (burst_to_string a) (burst_to_string b)
        | c -> c)
      (List.rev bursts)
  in
  Ok { bursts; channel; window; synchrony }

let knobs t = channel_knobs t.channel
