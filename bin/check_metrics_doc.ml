(* check_metrics_doc: fails when docs/METRICS.md drifts from the
   metrics registry.

   The binary links every simulator library with -linkall, so each
   module-initialisation metric registration has run by the time main
   starts; the default registry then IS the runtime catalogue. Every
   registered instrument name (labeled series collapse to their base
   name) and every declared labeled family must be mentioned in
   docs/METRICS.md — a new counter without documentation fails the
   build. So must every trace event's wire name and field key, read
   from the trace schema.

   Run from the `metrics-doc` dune alias, part of tier-1 runtest. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let contains_word haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let boundary c =
    not
      ((c >= 'a' && c <= 'z')
      || (c >= '0' && c <= '9')
      || (c >= 'A' && c <= 'Z')
      || c = '_')
  in
  let rec scan i =
    if i + ln > lh then false
    else if
      String.sub haystack i ln = needle
      && (i = 0 || boundary haystack.[i - 1])
      && (i + ln = lh || boundary haystack.[i + ln])
    then true
    else scan (i + 1)
  in
  scan 0

(* Instruments the simulator creates with run-dependent names; their
   naming schemes are documented as patterns, not as every instance. *)
let dynamic_name name =
  let prefixed p =
    String.length name >= String.length p
    && String.sub name 0 (String.length p) = p
  in
  prefixed "tenant."

let () =
  if Array.length Sys.argv <> 2 then begin
    prerr_endline "usage: check_metrics_doc docs/METRICS.md";
    exit 2
  end;
  let doc = read_file Sys.argv.(1) in
  let names =
    List.map (fun (n, _) -> Obs.Metrics.base_name n) (Obs.Metrics.snapshot ())
    @ List.map fst (Obs.Metrics.family_names ())
  in
  let names =
    List.sort_uniq String.compare (List.filter (fun n -> not (dynamic_name n)) names)
  in
  (* -linkall must have pulled in the emitters; a near-empty registry
     means the link is broken, not that the catalogue shrank. *)
  if List.length names < 20 then begin
    Printf.eprintf
      "check_metrics_doc: only %d registered metrics visible — is -linkall \
       in effect?\n"
      (List.length names);
    exit 2
  end;
  let undocumented describe ns =
    List.filter_map
      (fun n -> if contains_word doc n then None else Some (describe n))
      ns
  in
  let missing =
    undocumented (Printf.sprintf "metric %S is registered at runtime but not") names
    @ List.concat_map
        (fun (ev, keys) ->
          undocumented (Printf.sprintf "trace event %S: %S is not" ev) (ev :: keys))
        Obs.Trace.wire_names
  in
  List.iter
    (Printf.eprintf "check_metrics_doc: %s documented in docs/METRICS.md\n")
    missing;
  if missing <> [] then exit 1
