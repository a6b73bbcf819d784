let pad s width = s ^ String.make (max 0 (width - String.length s)) ' '

let render ~header rows =
  let cols = List.length header in
  let normalize row =
    let len = List.length row in
    if len >= cols then row else row @ List.init (cols - len) (fun _ -> "")
  in
  let rows = List.map normalize rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  let hline =
    "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "+"
  in
  let render_row cells =
    "| "
    ^ String.concat " | " (List.map2 (fun cell w -> pad cell w) cells widths)
    ^ " |"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (hline ^ "\n");
  Buffer.add_string buf (render_row header ^ "\n");
  Buffer.add_string buf (hline ^ "\n");
  List.iter (fun row -> Buffer.add_string buf (render_row row ^ "\n")) rows;
  Buffer.add_string buf hline;
  Buffer.contents buf

let bar ?(width = 50) value max_value =
  let cells =
    if max_value <= 0.0 then 0
    else int_of_float (Float.round (value /. max_value *. float_of_int width))
  in
  String.make (max 0 cells) '#'

let bar_chart ?(width = 50) ~title series =
  let max_value = List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 series in
  let label_width =
    List.fold_left (fun acc (label, _) -> max acc (String.length label)) 0 series
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (title ^ "\n");
  List.iter
    (fun (label, value) ->
      Buffer.add_string buf
        (Printf.sprintf "  %s | %s %.2f\n" (pad label label_width)
           (bar ~width value max_value) value))
    series;
  Buffer.contents buf

let section title =
  let line = String.make (String.length title + 8) '=' in
  Printf.sprintf "\n%s\n==  %s  ==\n%s" line title line
