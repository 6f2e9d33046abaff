(* Export guard.  Lists every [val] in [lib/*/*.mli] whose name appears
   as a word in no other [.ml]/[.mli] file given on the command line,
   and diffs that list against a committed allowlist.

   Usage: [exports ALLOWLIST FILE...].  Each allowlist line is
   [Module.name reason]; blank lines and lines starting with [#] are
   skipped.  Exits 1 when an uncalled export is not listed, when a
   listed export has a caller (or no longer exists), or when a line has
   no reason.

   The search is a plain word match, so it is conservative: a name that
   also occurs elsewhere (as another module's function, a record field,
   a local variable or a word in a comment) counts as called.  It finds
   exports nothing names, not every export nothing calls. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let is_word_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* One past the last character of the word starting at [i]. *)
let rec word_end s i = if i < String.length s && is_word_char s.[i] then word_end s (i + 1) else i

(* Every identifier-like word of [text]. *)
let words text =
  let tbl = Hashtbl.create 256 in
  let rec go i =
    if i < String.length text then
      if is_word_char text.[i] then begin
        let j = word_end text i in
        Hashtbl.replace tbl (String.sub text i (j - i)) ();
        go j
      end
      else go (i + 1)
  in
  go 0;
  tbl

(* The names an interface declares with [val], operators excluded. *)
let vals text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if not (String.starts_with ~prefix:"val " line) then None
         else
           let rest = String.trim (String.sub line 4 (String.length line - 4)) in
           match rest.[0] with
           | 'a' .. 'z' | '_' -> Some (String.sub rest 0 (word_end rest 0))
           | _ -> None)

(* A file's own module: its directory and basename without extension,
   so [foo.ml] and [foo.mli] of one library are the same module. *)
let module_key path = (Filename.dirname path, Filename.remove_extension (Filename.basename path))

let is_source path =
  let base = Filename.basename path in
  (* one dot only: skips generated files such as [stats.pp.ml] *)
  (Filename.check_suffix base ".ml" || Filename.check_suffix base ".mli")
  && String.index base '.' = String.rindex base '.'

let is_lib_interface path =
  Filename.check_suffix path ".mli"
  &&
  match String.split_on_char '/' path |> List.rev with
  | _ :: _ :: "lib" :: _ -> true
  | _ -> false

let parse_allowlist path =
  String.split_on_char '\n' (read_file path)
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | None -> Some (line, "")
           | Some i ->
               Some
                 ( String.sub line 0 i,
                   String.trim (String.sub line i (String.length line - i)) ))

let () =
  match Array.to_list Sys.argv with
  | _ :: allowlist :: files ->
      let files = List.sort_uniq compare (List.filter is_source files) in
      let by_file = List.map (fun f -> (f, words (read_file f))) files in
      let uncalled =
        List.concat_map
          (fun mli ->
            let own = module_key mli in
            let m = String.capitalize_ascii (snd own) in
            vals (read_file mli)
            |> List.filter (fun name ->
                   not
                     (List.exists
                        (fun (f, ws) -> module_key f <> own && Hashtbl.mem ws name)
                        by_file))
            |> List.map (fun name -> m ^ "." ^ name))
          (List.filter is_lib_interface files)
        |> List.sort_uniq compare
      in
      let allowed = parse_allowlist allowlist in
      let problems = ref 0 in
      let report fmt =
        incr problems;
        Printf.printf fmt
      in
      List.iter
        (fun e ->
          if not (List.mem_assoc e allowed) then
            report "%s: exported but named by no other file; unexport it, delete it or allowlist it with a reason\n" e)
        uncalled;
      List.iter
        (fun (e, reason) ->
          if not (List.mem e uncalled) then
            report "%s: allowlisted, but another file names it (or it is gone); drop the line\n" e
          else if reason = "" then report "%s: allowlisted without a reason\n" e)
        allowed;
      if !problems > 0 then begin
        Printf.printf "%d export problem(s); allowlist: test/exports/allowlist\n" !problems;
        exit 1
      end
  | _ ->
      prerr_endline "usage: exports ALLOWLIST FILE...";
      exit 2
