(* Reader for the pre-pass certificate golden file: one
   [model|property|certificate] row per line, [#] comments and blank
   lines ignored.  The certificate is P0, P1 or inconclusive. *)

type row = { model : string; property : string; certificate : string }

let parse_line line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then Ok None
  else
    match String.split_on_char '|' line with
    | [ model; property; certificate ] -> (
      let model = String.trim model
      and property = String.trim property
      and certificate = String.trim certificate in
      match certificate with
      | ("P0" | "P1" | "inconclusive") when model <> "" && property <> "" ->
        Ok (Some { model; property; certificate })
      | _ -> Error (Printf.sprintf "malformed golden row: %S" line))
    | _ -> Error (Printf.sprintf "malformed golden row: %S" line)

let parse text =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | l :: rest -> (
      match parse_line l with
      | Ok None -> go acc rest
      | Ok (Some r) -> go (r :: acc) rest
      | Error e -> Error e)
  in
  go [] (String.split_on_char '\n' text)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> parse text
  | exception Sys_error e -> Error e
