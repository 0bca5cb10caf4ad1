(* Host fingerprint recorded with every run, so numbers taken on
   different machines or filesystems are never compared silently. *)

let read_lines path =
  try In_channel.with_open_text path In_channel.input_lines with Sys_error _ -> []

let cpu_model () =
  let prefix = "model name" in
  match
    List.find_opt (String.starts_with ~prefix) (read_lines "/proc/cpuinfo")
  with
  | Some line ->
    (match String.index_opt line ':' with
     | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))
     | None -> "unknown")
  | None -> "unknown"

(* Type of the filesystem holding [dir]: the longest mount point in
   /proc/mounts that prefixes it. *)
let filesystem_type dir =
  let within mount =
    mount = "/"
    || dir = mount
    || String.starts_with ~prefix:(mount ^ "/") dir
  in
  List.fold_left
    (fun (best_len, best) line ->
      match String.split_on_char ' ' line with
      | _ :: mount :: fstype :: _ when within mount && String.length mount > best_len ->
        String.length mount, fstype
      | _ -> best_len, best)
    (-1, "unknown")
    (read_lines "/proc/mounts")
  |> snd

let fingerprint ~journal_dir =
  Obs.Json.Obj
    [ "nproc", Obs.Json.Int (Domain.recommended_domain_count ());
      "cpu", Obs.Json.Str (cpu_model ());
      "ocaml", Obs.Json.Str Sys.ocaml_version;
      "journal_fs", Obs.Json.Str (filesystem_type journal_dir) ]
