type series = { label : string; points : (int * float) list }

let of_rows labels rows =
  List.mapi
    (fun i label -> { label; points = List.map (fun (x, ys) -> (x, List.nth ys i)) rows })
    labels

let human_bytes n =
  if n >= 1 lsl 30 && n mod (1 lsl 30) = 0 then
    Printf.sprintf "%dG" (n lsr 30)
  else if n >= 1 lsl 20 && n mod (1 lsl 20) = 0 then
    Printf.sprintf "%dM" (n lsr 20)
  else if n >= 1024 && n mod 1024 = 0 then Printf.sprintf "%dK" (n lsr 10)
  else string_of_int n

let merged_rows series =
  let xs =
    series
    |> List.concat_map (fun s -> List.map fst s.points)
    |> List.sort_uniq compare
  in
  List.map
    (fun x ->
      (x, List.map (fun s -> List.assoc_opt x s.points) series))
    xs

let fmt_y = function
  | None -> "-"
  | Some y ->
      if Float.abs y >= 1000. then Printf.sprintf "%.0f" y
      else if Float.abs y >= 10. then Printf.sprintf "%.1f" y
      else Printf.sprintf "%.3f" y

let pad width s =
  if String.length s >= width then s
  else String.make (width - String.length s) ' ' ^ s

let render ?ylabel ~title ~xlabel series =
  let buf = Buffer.create 1024 in
  let rows = merged_rows series in
  let headers = xlabel :: List.map (fun s -> s.label) series in
  let cells =
    List.map
      (fun (x, ys) -> human_bytes x :: List.map fmt_y ys)
      rows
  in
  let ncols = List.length headers in
  let widths =
    List.init ncols (fun i ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length (List.nth headers i))
          cells)
  in
  let line row =
    String.concat "  " (List.mapi (fun i c -> pad (List.nth widths i) c) row)
  in
  Buffer.add_string buf (Printf.sprintf "=== %s ===\n" title);
  (match ylabel with
  | Some y -> Buffer.add_string buf (Printf.sprintf "(values: %s)\n" y)
  | None -> ());
  Buffer.add_string buf (line headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (String.make (String.length (line headers)) '-');
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (line row);
      Buffer.add_char buf '\n')
    cells;
  Buffer.contents buf

let print ?ylabel ~title ~xlabel series =
  print_string (render ?ylabel ~title ~xlabel series);
  print_newline ()

let to_csv ~path ~xlabel series =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (String.concat "," (xlabel :: List.map (fun s -> s.label) series));
      output_char oc '\n';
      List.iter
        (fun (x, ys) ->
          let cells =
            string_of_int x
            :: List.map
                 (function None -> "" | Some y -> Printf.sprintf "%.6f" y)
                 ys
          in
          output_string oc (String.concat "," cells);
          output_char oc '\n')
        (merged_rows series))

let print_kv_table ~title ~header rows =
  let all = header :: rows in
  let ncols = List.length header in
  let widths =
    List.init ncols (fun i ->
        List.fold_left
          (fun acc row ->
            max acc (String.length (try List.nth row i with _ -> "")))
          0 all)
  in
  let line row =
    String.concat "  "
      (List.mapi
         (fun i c ->
           let w = List.nth widths i in
           c ^ String.make (max 0 (w - String.length c)) ' ')
         row)
  in
  Printf.printf "=== %s ===\n%s\n%s\n" title (line header)
    (String.make (String.length (line header)) '-');
  List.iter (fun row -> print_endline (line row)) rows;
  print_newline ()

let fmt_metric v = if Float.is_nan v then "-" else Printf.sprintf "%.0f" v

let print_metrics ?(title = "metrics") mx =
  let module M = Mpicd_obs.Metrics in
  let rows =
    List.map
      (fun (name, view) ->
        match view with
        | M.V_counter n -> [ name; "counter"; string_of_int n; ""; ""; ""; "" ]
        | M.V_gauge { value; vmax } ->
            [ name; "gauge"; fmt_metric value; "max=" ^ fmt_metric vmax; ""; ""; "" ]
        | M.V_hist { count; mean; p50; p95; p99; _ } ->
            [
              name;
              "hist";
              string_of_int count;
              "mean=" ^ fmt_metric mean;
              "p50=" ^ fmt_metric p50;
              "p95=" ^ fmt_metric p95;
              "p99=" ^ fmt_metric p99;
            ])
      (M.dump mx)
  in
  if rows <> [] then
    print_kv_table ~title
      ~header:[ "name"; "kind"; "count/value"; ""; ""; ""; "" ]
      rows
