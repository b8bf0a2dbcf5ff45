module Simtime = Dcsim.Simtime
module Fkey = Netcore.Fkey
module Ipv4 = Netcore.Ipv4
module Tenant = Netcore.Tenant

type direction = Tx | Rx
type path = Software | Express

type event =
  | Flow_promoted of {
      pattern : Fkey.Pattern.t;
      tenant : Tenant.id;
      vm_ip : Ipv4.t;
      server : string;
      score : float;
      tcam_entries : int;
    }
  | Flow_demoted of {
      pattern : Fkey.Pattern.t;
      tenant : Tenant.id;
      vm_ip : Ipv4.t;
      server : string;
      reason : string;
    }
  | Tcam_install of {
      tenant : Tenant.id;
      entries : int;
      used : int;
      capacity : int;
    }
  | Tcam_evict of {
      tenant : Tenant.id;
      entries : int;
      used : int;
      capacity : int;
    }
  | Fps_split of {
      vm_ip : Ipv4.t;
      direction : direction;
      soft_bps : float;
      hard_bps : float;
      total_bps : float;
      overflow_bps : float;
    }
  | Path_transition of { vm_ip : Ipv4.t; pattern : Fkey.Pattern.t; path : path }
  | Rule_pushed of {
      server : string;
      pattern : Fkey.Pattern.t;
      push : [ `Offload | `Demote ];
      seq : int;
    }
  | Epoch_tick of { me : string; epoch : int; interval : int }
  | Ctrl_drop of { channel : string }
  | Ctrl_retry of { server : string; seq : int; attempt : int; span : int }
  | Peer_state of { server : string; alive : bool }
  | Lane_state of { lane : string; up : bool }
  | Tcam_error of { tenant : Tenant.id; kind : string; entries : int }
  | Flow_progress of { flow : string; sent : int; acked : int }
  | Migration_stage of {
      vm_ip : Ipv4.t;
      stage : [ `Prepare | `Commit | `Abort ];
    }
  | Span_begin of {
      span : int;
      parent : int;
      kind : string;
      name : string;
      track : string;
    }
  | Span_end of { span : int; outcome : string }
  | Cache_hit of {
      vif : string;
      flow : Fkey.Pattern.t;
      tier : [ `Exact | `Megaflow ];
      cached : string;
      fresh : string;
    }
  | Cache_miss of { vif : string; flow : Fkey.Pattern.t }
  | Cache_invalidate of {
      vif : string;
      reason : string;
      dropped : int;
      exact : int;
      megaflow : int;
    }

(* --- Pattern codec --- *)

let proto_to_token = function
  | Fkey.Tcp -> "tcp"
  | Fkey.Udp -> "udp"
  | Fkey.Icmp -> "icmp"
  | Fkey.Other n -> "p" ^ string_of_int n

let proto_of_token = function
  | "tcp" -> Some Fkey.Tcp
  | "udp" -> Some Fkey.Udp
  | "icmp" -> Some Fkey.Icmp
  | s when String.length s > 1 && s.[0] = 'p' -> (
      match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
      | Some n -> Some (Fkey.Other n)
      | None -> None)
  | _ -> None

(* The pattern codec's alphabet (dotted quads, ints, '*', '/', "tcp",
   "p<n>") never needs JSON escaping, so it can stream field by field. *)
let add_pattern b (p : Fkey.Pattern.t) =
  let fld f v = match v with None -> Buffer.add_char b '*' | Some x -> f x in
  let ip v = Buffer.add_string b (Ipv4.to_string v) in
  let int v = Buffer.add_string b (string_of_int v) in
  fld ip p.Fkey.Pattern.src_ip;
  Buffer.add_char b '/';
  fld ip p.dst_ip;
  Buffer.add_char b '/';
  fld int p.src_port;
  Buffer.add_char b '/';
  fld int p.dst_port;
  Buffer.add_char b '/';
  fld (fun pr -> Buffer.add_string b (proto_to_token pr)) p.proto;
  Buffer.add_char b '/';
  fld (fun t -> int (Tenant.to_int t)) p.tenant

let pattern_to_string p =
  let b = Buffer.create 48 in
  add_pattern b p;
  Buffer.contents b

let unfield f = function "*" -> Some None | s -> Option.map Option.some (f s)

let ip_of_string_opt s =
  match Ipv4.of_string s with ip -> Some ip | exception _ -> None

let tenant_of_int_opt n = if n >= 0 then Some (Tenant.of_int n) else None

let pattern_of_string s =
  match String.split_on_char '/' s with
  | [ si; di; sp; dp; pr; te ] -> (
      let ( let* ) = Option.bind in
      let* src_ip = unfield ip_of_string_opt si in
      let* dst_ip = unfield ip_of_string_opt di in
      let* src_port = unfield int_of_string_opt sp in
      let* dst_port = unfield int_of_string_opt dp in
      let* proto = unfield proto_of_token pr in
      let* tenant =
        unfield (fun s -> Option.bind (int_of_string_opt s) tenant_of_int_opt) te
      in
      Some
        { Fkey.Pattern.src_ip; dst_ip; src_port; dst_port; proto; tenant })
  | _ -> None

(* --- JSON primitives --- *)

(* All writers append straight into the caller's buffer: the only
   per-field allocations left are the payload strings themselves
   (string_of_int, Ipv4.to_string) and the float formatter — no
   Printf.sprintf per key, no intermediate escaped copy. *)

let add_escaped b s =
  if String.for_all (fun c -> c <> '"' && c <> '\\' && c >= ' ') s then
    Buffer.add_string b s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when c < ' ' ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

(* Keys are literal identifiers, so quoting them needs no escaping. *)
let key b k =
  Buffer.add_char b ',';
  Buffer.add_char b '"';
  Buffer.add_string b k;
  Buffer.add_string b "\":"

let quoted b add v =
  Buffer.add_char b '"';
  add b v;
  Buffer.add_char b '"'

(* --- Flat JSON parsing (just enough for our own encoder's output) --- *)

type json_value = S of string | I of int | F of float

let parse_flat line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let skip_ws () =
    while !pos < n && (line.[!pos] = ' ' || line.[!pos] = '\t') do incr pos done
  in
  let expect c =
    skip_ws ();
    if peek () = Some c then begin incr pos; true end else false
  in
  let parse_string () =
    if not (expect '"') then None
    else begin
      let b = Buffer.create 16 in
      let rec loop () =
        if !pos >= n then None
        else
          match line.[!pos] with
          | '"' -> incr pos; Some (Buffer.contents b)
          | '\\' when !pos + 1 < n ->
              (match line.[!pos + 1] with
              | '"' -> Buffer.add_char b '"'; pos := !pos + 2
              | '\\' -> Buffer.add_char b '\\'; pos := !pos + 2
              | 'u' when !pos + 5 < n ->
                  (match int_of_string_opt ("0x" ^ String.sub line (!pos + 2) 4) with
                  | Some code when code < 128 -> Buffer.add_char b (Char.chr code)
                  | _ -> Buffer.add_char b '?');
                  pos := !pos + 6
              | c -> Buffer.add_char b c; pos := !pos + 2);
              loop ()
          | c -> Buffer.add_char b c; incr pos; loop ()
      in
      loop ()
    end
  in
  let parse_number () =
    skip_ws ();
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && num_char line.[!pos] do incr pos done;
    if !pos = start then None
    else begin
      let s = String.sub line start (!pos - start) in
      match int_of_string_opt s with
      | Some i -> Some (I i)
      | None -> Option.map (fun f -> F f) (float_of_string_opt s)
    end
  in
  let parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Option.map (fun s -> S s) (parse_string ())
    | _ -> parse_number ()
  in
  if not (expect '{') then None
  else begin
    let rec pairs acc =
      skip_ws ();
      if expect '}' then Some (List.rev acc)
      else
        match parse_string () with
        | None -> None
        | Some key ->
            if not (expect ':') then None
            else begin
              match parse_value () with
              | None -> None
              | Some v ->
                  skip_ws ();
                  if expect ',' then pairs ((key, v) :: acc)
                  else if expect '}' then Some (List.rev ((key, v) :: acc))
                  else None
            end
    in
    pairs []
  end

(* --- Compact binary primitives ---

   Zigzag varints for ints, 8-byte little-endian IEEE bits for floats,
   length-prefixed raw bytes for strings. *)

let add_varint b n =
  (* zigzag so negative ints (adversarial event payloads) survive *)
  let u = (n lsl 1) lxor (n asr (Sys.int_size - 1)) in
  let rec go u =
    if u land lnot 0x7f = 0 then Buffer.add_char b (Char.chr u)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x7f)));
      go (u lsr 7)
    end
  in
  go u

let read_varint s pos =
  let n = String.length s in
  let rec go acc shift =
    if !pos >= n || shift > Sys.int_size then None
    else begin
      let c = Char.code s.[!pos] in
      incr pos;
      let acc = acc lor ((c land 0x7f) lsl shift) in
      if c land 0x80 = 0 then Some acc else go acc (shift + 7)
    end
  in
  match go 0 0 with
  | None -> None
  | Some u -> Some ((u lsr 1) lxor (-(u land 1)))

let add_string_c b s =
  add_varint b (String.length s);
  Buffer.add_string b s

let read_string_c s pos =
  match read_varint s pos with
  | Some len when len >= 0 && !pos + len <= String.length s ->
      let v = String.sub s !pos len in
      pos := !pos + len;
      Some v
  | _ -> None

let read_float_c s pos =
  if !pos + 8 > String.length s then None
  else begin
    let f = Int64.float_of_bits (String.get_int64_le s !pos) in
    pos := !pos + 8;
    Some f
  end

let read_byte s pos =
  if !pos >= String.length s then None
  else begin
    let c = Char.code s.[!pos] in
    incr pos;
    Some c
  end

(* Position of [v] in an enum's cases: its compact byte. *)
let enum_index cases v =
  let rec go i = function
    | (_, x) :: rest -> if x = v then i else go (i + 1) rest
    | [] -> invalid_arg "Obs.Trace: enum value missing from its cases"
  in
  go 0 cases

(* --- The event schema ---

   Each constructor is described once, as its wire name and its fields
   in wire order; the JSONL and compact codecs below are both derived
   from that description. *)

type _ ty =
  | Int : int ty
  | Float : float ty
  | Str : string ty
  | Ip : Ipv4.t ty
  | Tenant : Tenant.id ty
  | Pattern : Fkey.Pattern.t ty
  | Enum : (string * 'a) list -> 'a ty
      (* JSONL carries the case name, compact its index as one byte. *)

type _ fields =
  | [] : unit fields
  | ( :: ) : (string * 'a ty) * 'b fields -> ('a * 'b) fields

type _ args = [] : unit args | ( :: ) : 'a * 'b args -> ('a * 'b) args

type desc =
  | Ev : {
      name : string;
      fields : 'a fields;
      make : 'a args -> event;
      args : event -> 'a args option;
    }
      -> desc

let ev name fields make args = Ev { name; fields; make; args }
let flag ~off ~on = Enum [ (off, false); (on, true) ]
let tcam_fields : _ fields =
  [ ("tenant", Tenant); ("entries", Int); ("used", Int); ("capacity", Int) ]

(* A constructor's compact tag is its position here. *)
let schema =
  [|
    ev "flow_promoted"
      [ ("pattern", Pattern); ("tenant", Tenant); ("vm_ip", Ip);
        ("server", Str); ("score", Float); ("tcam_entries", Int) ]
      (fun [ pattern; tenant; vm_ip; server; score; tcam_entries ] ->
        Flow_promoted { pattern; tenant; vm_ip; server; score; tcam_entries })
      (function
        | Flow_promoted { pattern; tenant; vm_ip; server; score; tcam_entries } ->
            Some [ pattern; tenant; vm_ip; server; score; tcam_entries ]
        | _ -> None);
    ev "flow_demoted"
      [ ("pattern", Pattern); ("tenant", Tenant); ("vm_ip", Ip);
        ("server", Str); ("reason", Str) ]
      (fun [ pattern; tenant; vm_ip; server; reason ] ->
        Flow_demoted { pattern; tenant; vm_ip; server; reason })
      (function
        | Flow_demoted { pattern; tenant; vm_ip; server; reason } ->
            Some [ pattern; tenant; vm_ip; server; reason ]
        | _ -> None);
    ev "tcam_install" tcam_fields
      (fun [ tenant; entries; used; capacity ] ->
        Tcam_install { tenant; entries; used; capacity })
      (function
        | Tcam_install { tenant; entries; used; capacity } ->
            Some [ tenant; entries; used; capacity ]
        | _ -> None);
    ev "tcam_evict" tcam_fields
      (fun [ tenant; entries; used; capacity ] ->
        Tcam_evict { tenant; entries; used; capacity })
      (function
        | Tcam_evict { tenant; entries; used; capacity } ->
            Some [ tenant; entries; used; capacity ]
        | _ -> None);
    ev "fps_split"
      [ ("vm_ip", Ip); ("dir", Enum [ ("rx", Rx); ("tx", Tx) ]);
        ("soft_bps", Float); ("hard_bps", Float); ("total_bps", Float);
        ("overflow_bps", Float) ]
      (fun [ vm_ip; direction; soft_bps; hard_bps; total_bps; overflow_bps ] ->
        Fps_split { vm_ip; direction; soft_bps; hard_bps; total_bps; overflow_bps })
      (function
        | Fps_split { vm_ip; direction; soft_bps; hard_bps; total_bps; overflow_bps } ->
            Some [ vm_ip; direction; soft_bps; hard_bps; total_bps; overflow_bps ]
        | _ -> None);
    ev "path_transition"
      [ ("vm_ip", Ip); ("pattern", Pattern);
        ("path", Enum [ ("software", Software); ("express", Express) ]) ]
      (fun [ vm_ip; pattern; path ] -> Path_transition { vm_ip; pattern; path })
      (function
        | Path_transition { vm_ip; pattern; path } -> Some [ vm_ip; pattern; path ]
        | _ -> None);
    ev "rule_pushed"
      [ ("server", Str); ("pattern", Pattern);
        ("push", Enum [ ("offload", `Offload); ("demote", `Demote) ]); ("seq", Int) ]
      (fun [ server; pattern; push; seq ] -> Rule_pushed { server; pattern; push; seq })
      (function
        | Rule_pushed { server; pattern; push; seq } ->
            Some [ server; pattern; push; seq ]
        | _ -> None);
    ev "epoch_tick"
      [ ("me", Str); ("epoch", Int); ("interval", Int) ]
      (fun [ me; epoch; interval ] -> Epoch_tick { me; epoch; interval })
      (function
        | Epoch_tick { me; epoch; interval } -> Some [ me; epoch; interval ]
        | _ -> None);
    ev "ctrl_drop" [ ("channel", Str) ]
      (fun [ channel ] -> Ctrl_drop { channel })
      (function Ctrl_drop { channel } -> Some [ channel ] | _ -> None);
    ev "ctrl_retry"
      [ ("server", Str); ("seq", Int); ("attempt", Int); ("span", Int) ]
      (fun [ server; seq; attempt; span ] -> Ctrl_retry { server; seq; attempt; span })
      (function
        | Ctrl_retry { server; seq; attempt; span } ->
            Some [ server; seq; attempt; span ]
        | _ -> None);
    ev "peer_state"
      [ ("server", Str); ("state", flag ~off:"dead" ~on:"alive") ]
      (fun [ server; alive ] -> Peer_state { server; alive })
      (function Peer_state { server; alive } -> Some [ server; alive ] | _ -> None);
    ev "lane_state"
      [ ("lane", Str); ("state", flag ~off:"down" ~on:"up") ]
      (fun [ lane; up ] -> Lane_state { lane; up })
      (function Lane_state { lane; up } -> Some [ lane; up ] | _ -> None);
    ev "tcam_error"
      [ ("tenant", Tenant); ("kind", Str); ("entries", Int) ]
      (fun [ tenant; kind; entries ] -> Tcam_error { tenant; kind; entries })
      (function
        | Tcam_error { tenant; kind; entries } -> Some [ tenant; kind; entries ]
        | _ -> None);
    ev "flow_progress"
      [ ("flow", Str); ("sent", Int); ("acked", Int) ]
      (fun [ flow; sent; acked ] -> Flow_progress { flow; sent; acked })
      (function
        | Flow_progress { flow; sent; acked } -> Some [ flow; sent; acked ]
        | _ -> None);
    ev "migration"
      [ ("vm_ip", Ip);
        ("stage",
          Enum [ ("prepare", `Prepare); ("commit", `Commit); ("abort", `Abort) ]) ]
      (fun [ vm_ip; stage ] -> Migration_stage { vm_ip; stage })
      (function
        | Migration_stage { vm_ip; stage } -> Some [ vm_ip; stage ]
        | _ -> None);
    ev "span_begin"
      [ ("span", Int); ("parent", Int); ("kind", Str); ("name", Str); ("track", Str) ]
      (fun [ span; parent; kind; name; track ] ->
        Span_begin { span; parent; kind; name; track })
      (function
        | Span_begin { span; parent; kind; name; track } ->
            Some [ span; parent; kind; name; track ]
        | _ -> None);
    ev "span_end"
      [ ("span", Int); ("outcome", Str) ]
      (fun [ span; outcome ] -> Span_end { span; outcome })
      (function Span_end { span; outcome } -> Some [ span; outcome ] | _ -> None);
    ev "cache_hit"
      [ ("vif", Str); ("flow", Pattern);
        ("tier", Enum [ ("exact", `Exact); ("megaflow", `Megaflow) ]);
        ("cached", Str); ("fresh", Str) ]
      (fun [ vif; flow; tier; cached; fresh ] ->
        Cache_hit { vif; flow; tier; cached; fresh })
      (function
        | Cache_hit { vif; flow; tier; cached; fresh } ->
            Some [ vif; flow; tier; cached; fresh ]
        | _ -> None);
    ev "cache_miss"
      [ ("vif", Str); ("flow", Pattern) ]
      (fun [ vif; flow ] -> Cache_miss { vif; flow })
      (function Cache_miss { vif; flow } -> Some [ vif; flow ] | _ -> None);
    ev "cache_invalidate"
      [ ("vif", Str); ("reason", Str); ("dropped", Int); ("exact", Int);
        ("megaflow", Int) ]
      (fun [ vif; reason; dropped; exact; megaflow ] ->
        Cache_invalidate { vif; reason; dropped; exact; megaflow })
      (function
        | Cache_invalidate { vif; reason; dropped; exact; megaflow } ->
            Some [ vif; reason; dropped; exact; megaflow ]
        | _ -> None);
  |]

let wire_names =
  let rec keys : type a. a fields -> string list = function
    | [] -> []
    | (k, _) :: rest -> k :: keys rest
  in
  Array.to_list (Array.map (function Ev d -> (d.name, keys d.fields)) schema)

(* An event's schema entry, with its position there (the compact tag). *)
type case = Case : int * string * 'a fields * 'a args -> case

let case_of event =
  let rec go i =
    if i = Array.length schema then
      invalid_arg "Obs.Trace: event constructor missing from the schema";
    match schema.(i) with
    | Ev d -> (
        match d.args event with
        | Some args -> Case (i, d.name, d.fields, args)
        | None -> go (i + 1))
  in
  go 0

let ( let* ) = Option.bind

(* --- JSONL codec --- *)

let json_value : type a. Buffer.t -> a ty -> a -> unit =
 fun b ty v ->
  match ty with
  | Int -> Buffer.add_string b (string_of_int v)
  | Float -> Buffer.add_string b (Printf.sprintf "%.17g" v) (* exact if finite *)
  | Str -> quoted b add_escaped v
  | Ip -> quoted b Buffer.add_string (Ipv4.to_string v)
  | Tenant -> Buffer.add_string b (string_of_int (Tenant.to_int v))
  | Pattern -> quoted b add_pattern v
  | Enum cases ->
      quoted b Buffer.add_string (fst (List.nth cases (enum_index cases v)))

let rec json_fields : type a. Buffer.t -> a fields -> a args -> unit =
 fun b fields args ->
  match (fields, args) with
  | [], [] -> ()
  | (k, ty) :: fields, v :: args ->
      key b k;
      json_value b ty v;
      json_fields b fields args

let encode_into b now event =
  match case_of event with
  | Case (_, name, fields, args) ->
      Buffer.add_string b "{\"t_ns\":";
      Buffer.add_string b (string_of_int (Simtime.to_ns now));
      Buffer.add_string b ",\"t\":";
      Buffer.add_string b (Printf.sprintf "%.9f" (Simtime.to_sec now));
      key b "ev";
      quoted b Buffer.add_string name;
      json_fields b fields args;
      Buffer.add_char b '}'

let to_jsonl now event =
  let b = Buffer.create 160 in
  encode_into b now event;
  Buffer.contents b

let of_json : type a. a ty -> json_value -> a option =
 fun ty v ->
  match (ty, v) with
  | Int, I i -> Some i
  | Float, F f -> Some f
  | Float, I i -> Some (float_of_int i)
  | Str, S s -> Some s
  | Ip, S s -> ip_of_string_opt s
  | Tenant, I n -> tenant_of_int_opt n
  | Pattern, S s -> pattern_of_string s
  | Enum cases, S s -> List.assoc_opt s cases
  | _ -> None

let rec of_json_fields :
    type a. (string * json_value) list -> a fields -> a args option =
 fun kvs fields ->
  match fields with
  | [] -> Some []
  | (k, ty) :: rest ->
      let* v = Option.bind (List.assoc_opt k kvs) (of_json ty) in
      let* vs = of_json_fields kvs rest in
      Some (v :: vs)

let of_jsonl line =
  let* kvs = parse_flat line in
  let* t_ns = match List.assoc_opt "t_ns" kvs with Some (I i) -> Some i | _ -> None in
  let* name = match List.assoc_opt "ev" kvs with Some (S s) -> Some s | _ -> None in
  match Array.find_opt (function Ev d -> d.name = name) schema with
  | None -> None
  | Some (Ev d) ->
      let* args = of_json_fields kvs d.fields in
      Some (Simtime.of_ns t_ns, d.make args)

(* --- Compact codec --- *)

let compact_value : type a. Buffer.t -> a ty -> a -> unit =
 fun b ty v ->
  match ty with
  | Int -> add_varint b v
  | Float -> Buffer.add_int64_le b (Int64.bits_of_float v)
  | Str -> add_string_c b v
  | Ip -> add_string_c b (Ipv4.to_string v)
  | Tenant -> add_varint b (Tenant.to_int v)
  | Pattern -> add_string_c b (pattern_to_string v)
  | Enum cases -> Buffer.add_char b (Char.chr (enum_index cases v))

let rec compact_fields : type a. Buffer.t -> a fields -> a args -> unit =
 fun b fields args ->
  match (fields, args) with
  | [], [] -> ()
  | (_, ty) :: fields, v :: args ->
      compact_value b ty v;
      compact_fields b fields args

let encode_compact b now event =
  match case_of event with
  | Case (tag, _, fields, args) ->
      add_varint b (Simtime.to_ns now);
      Buffer.add_char b (Char.chr tag);
      compact_fields b fields args

let read_compact : type a. string -> int ref -> a ty -> a option =
 fun s pos ty ->
  match ty with
  | Int -> read_varint s pos
  | Float -> read_float_c s pos
  | Str -> read_string_c s pos
  | Ip -> Option.bind (read_string_c s pos) ip_of_string_opt
  | Tenant -> Option.bind (read_varint s pos) tenant_of_int_opt
  | Pattern -> Option.bind (read_string_c s pos) pattern_of_string
  | Enum cases ->
      Option.map snd (Option.bind (read_byte s pos) (List.nth_opt cases))

let rec read_compact_fields :
    type a. string -> int ref -> a fields -> a args option =
 fun s pos fields ->
  match fields with
  | [] -> Some []
  | (_, ty) :: rest ->
      let* v = read_compact s pos ty in
      let* vs = read_compact_fields s pos rest in
      Some (v :: vs)

let decode_compact s pos =
  let* t_ns = read_varint s pos in
  let* tag = read_byte s pos in
  if tag >= Array.length schema then None
  else
    match schema.(tag) with
    | Ev d ->
        let* args = read_compact_fields s pos d.fields in
        Some (Simtime.of_ns t_ns, d.make args)

(* --- Sink --- *)

type sink =
  | Off
  | Jsonl of out_channel
  | Callback of (Simtime.t -> event -> unit)

let sink = ref Off
let clock = ref (fun () -> Simtime.zero)
let set_clock f = clock := f
let now () = !clock ()
let enabled () = match !sink with Off -> false | Jsonl _ | Callback _ -> true

(* One scratch buffer shared by the JSONL sink (there is at most one
   sink installed at a time): encoding an event reuses it instead of
   allocating a fresh Buffer per event, so a traced run's per-event
   garbage is just the payload strings the field writers build. *)
let jsonl_scratch = Buffer.create 256

let emit_to sink now event =
  match sink with
  | Off -> ()
  | Jsonl oc ->
      Buffer.clear jsonl_scratch;
      encode_into jsonl_scratch now event;
      Buffer.add_char jsonl_scratch '\n';
      Buffer.output_buffer oc jsonl_scratch
  | Callback f -> f now event

let emit ?now event =
  match !sink with
  | Off -> ()
  | s ->
      let now = match now with Some t -> t | None -> !clock () in
      emit_to s now event

(* The JSONL channel stays reachable for [disable]'s flush even after
   [use_tee] wraps it in a callback chain. *)
let jsonl_out = ref None

let use_jsonl oc =
  jsonl_out := Some oc;
  sink := Jsonl oc

let use_callback f = sink := Callback f

let use_tee f =
  let prev = !sink in
  sink :=
    Callback
      (fun now event ->
        f now event;
        emit_to prev now event)

let disables = ref 0
let disable_count () = !disables

let disable () =
  Option.iter flush !jsonl_out;
  jsonl_out := None;
  incr disables;
  sink := Off
