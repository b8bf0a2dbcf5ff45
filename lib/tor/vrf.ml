module Fkey = Netcore.Fkey
module Mask = Fkey.Pattern.Mask

type entry = { id : int; compiled : Rules.Rule_compiler.compiled }

(* Tuple-space index: one group per distinct allow-pattern mask, its
   entries keyed by [Mask.hash_flow] of the masked fields. Each key's
   list is newest first; keys may collide, so lookups verify every
   candidate with [Fkey.Pattern.matches]. *)
type group = { mask : Mask.t; by_key : entry list Int_table.t }

(* A GRE mapping and the number of installed rule sets carrying it.
   [ep] is stored as an option so {!tunnel_for} returns it without
   allocating. *)
type tunnel = { mutable ep : Rules.Tunnel_rule.endpoint option; mutable refs : int }

type t = {
  tenant : Netcore.Tenant.id;
  tcam : Tcam.t;
  (* Installed rule sets, newest first: the soft-error victim is drawn
     by position in this list, and [live_handles] reports its order. *)
  mutable entries : entry list;
  mutable groups : group list;
  tunnels : tunnel Int_table.t;  (* vm_ip -> mapping *)
  mutable next_id : int;
  (* Fault hook: consulted before each install; returning true makes
     the install fail with [`Install_fault] without touching the TCAM.
     [None] (the default) is the reliable path. *)
  mutable install_fault : (unit -> bool) option;
}

type handle = int

let m_installs = Obs.Metrics.counter "tor.vrf.installs"
let m_removes = Obs.Metrics.counter "tor.vrf.removes"
let m_install_entries = Obs.Metrics.summary "tor.vrf.install_entries"
let m_install_faults = Obs.Metrics.counter "tor.tcam.install_faults"
let m_soft_errors = Obs.Metrics.counter "tor.tcam.soft_errors"

let create ~tenant ~tcam =
  {
    tenant;
    tcam;
    entries = [];
    groups = [];
    tunnels = Int_table.create 16;
    next_id = 0;
    install_fault = None;
  }

let tenant t = t.tenant
let set_install_fault t hook = t.install_fault <- hook

let ip_key (ip : Netcore.Ipv4.t) = (ip :> int)

(* A flow that agrees with [p] on every field [p] constrains; the
   others are arbitrary, since the masked hash ignores them. *)
let witness (p : Fkey.Pattern.t) =
  let ip = Option.value ~default:(Netcore.Ipv4.of_int32 0l) in
  let port = Option.value ~default:0 in
  Fkey.make ~src_ip:(ip p.src_ip) ~dst_ip:(ip p.dst_ip)
    ~src_port:(port p.src_port) ~dst_port:(port p.dst_port)
    ~proto:(Option.value p.proto ~default:Fkey.Tcp)
    ~tenant:(Option.value p.tenant ~default:(Netcore.Tenant.of_int 0))

let key_of mask pattern = Mask.hash_flow mask (witness pattern)

let index t entry =
  let pattern = entry.compiled.Rules.Rule_compiler.acl_pattern in
  let mask = Mask.of_pattern pattern in
  let g =
    match List.find_opt (fun g -> Mask.equal g.mask mask) t.groups with
    | Some g -> g
    | None ->
        let g = { mask; by_key = Int_table.create 8 } in
        t.groups <- g :: t.groups;
        g
  in
  let key = key_of mask pattern in
  let bucket = try Int_table.find g.by_key key with Not_found -> [] in
  Int_table.replace g.by_key key (entry :: bucket)

let unindex t entry =
  let pattern = entry.compiled.Rules.Rule_compiler.acl_pattern in
  let mask = Mask.of_pattern pattern in
  let g = List.find (fun g -> Mask.equal g.mask mask) t.groups in
  let key = key_of mask pattern in
  (match List.filter (fun e -> e.id <> entry.id) (Int_table.find g.by_key key) with
  | [] -> Int_table.remove g.by_key key
  | bucket -> Int_table.replace g.by_key key bucket);
  if Int_table.length g.by_key = 0 then
    t.groups <- List.filter (fun g' -> g' != g) t.groups

let install t compiled =
  let entries_needed = compiled.Rules.Rule_compiler.tcam_entries in
  let faulted = match t.install_fault with None -> false | Some f -> f () in
  if faulted then begin
    (* The hardware write failed: no TCAM entries were consumed, so
       there is nothing to roll back. *)
    Obs.Metrics.incr m_install_faults;
    if Obs.Trace.enabled () then
      Obs.Trace.emit
        (Obs.Trace.Tcam_error
           { tenant = t.tenant; kind = "install_fault"; entries = entries_needed });
    Error `Install_fault
  end
  else if not (Tcam.reserve t.tcam entries_needed) then Error `Tcam_full
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let entry = { id; compiled } in
    t.entries <- entry :: t.entries;
    index t entry;
    List.iter
      (fun (tr : Rules.Tunnel_rule.t) ->
        let k = ip_key tr.vm_ip in
        match Int_table.find t.tunnels k with
        | tn ->
            tn.ep <- Some tr.endpoint;
            tn.refs <- tn.refs + 1
        | exception Not_found ->
            Int_table.replace t.tunnels k { ep = Some tr.endpoint; refs = 1 })
      compiled.tunnels;
    Obs.Metrics.incr m_installs;
    Obs.Metrics.observe m_install_entries (float_of_int entries_needed);
    if Obs.Trace.enabled () then
      Obs.Trace.emit
        (Obs.Trace.Tcam_install
           {
             tenant = t.tenant;
             entries = entries_needed;
             used = Tcam.used t.tcam;
             capacity = Tcam.capacity t.tcam;
           });
    Ok id
  end

let remove t handle =
  match List.find_opt (fun e -> e.id = handle) t.entries with
  | None -> ()
  | Some entry ->
      t.entries <- List.filter (fun e -> e.id <> handle) t.entries;
      unindex t entry;
      Tcam.release t.tcam entry.compiled.Rules.Rule_compiler.tcam_entries;
      Obs.Metrics.incr m_removes;
      if Obs.Trace.enabled () then
        Obs.Trace.emit
          (Obs.Trace.Tcam_evict
             {
               tenant = t.tenant;
               entries = entry.compiled.Rules.Rule_compiler.tcam_entries;
               used = Tcam.used t.tcam;
               capacity = Tcam.capacity t.tcam;
             });
      List.iter
        (fun (tr : Rules.Tunnel_rule.t) ->
          let k = ip_key tr.vm_ip in
          match Int_table.find t.tunnels k with
          | tn when tn.refs > 1 -> tn.refs <- tn.refs - 1
          | _ -> Int_table.remove t.tunnels k
          | exception Not_found -> ())
        entry.compiled.tunnels

let installed_count t = List.length t.entries
let is_live t handle = List.exists (fun e -> e.id = handle) t.entries
let live_handles t = List.map (fun e -> e.id) t.entries

(* A soft error (bit flip) corrupts one installed entry; the switch
   parity-scrubs it out, which we model as a silent eviction: the rules
   and tunnel mappings vanish from the dataplane with no notification
   to any controller. Only the anti-entropy audit can find and repair
   the resulting intent/hardware divergence. *)
let evict_random t ~rng =
  match t.entries with
  | [] -> None
  | entries ->
      let victim = List.nth entries (Dcsim.Rng.int rng (List.length entries)) in
      let entries_lost = victim.compiled.Rules.Rule_compiler.tcam_entries in
      Obs.Metrics.incr m_soft_errors;
      if Obs.Trace.enabled () then
        Obs.Trace.emit
          (Obs.Trace.Tcam_error
             { tenant = t.tenant; kind = "soft_error"; entries = entries_lost });
      remove t victim.id;
      Some victim.id

(* --- per-packet lookup: allocation-free --- *)

let no_match =
  {
    id = -1;
    compiled =
      {
        Rules.Rule_compiler.tenant = Netcore.Tenant.of_int 0;
        acl_pattern = Fkey.Pattern.any;
        queue = 0;
        tunnels = [];
        tcam_entries = 0;
      };
  }

(* A bucket is newest first, so its first match is its newest, and an
   entry no newer than [best] ends the walk. *)
let rec newest_in_bucket flow best = function
  | [] -> best
  | e :: rest ->
      if e.id <= best.id then best
      else if Fkey.Pattern.matches e.compiled.Rules.Rule_compiler.acl_pattern flow
      then e
      else newest_in_bucket flow best rest

(* One key per group; ids grow with install order, so the highest id
   matched is the first match of the newest-first entry list. A flow
   misses in every group but the one whose rule covers it, and a [mem]
   test costs less than raising [Not_found] out of [find]. *)
let rec newest_match flow best = function
  | [] -> best
  | g :: rest ->
      let key = Mask.hash_flow g.mask flow in
      let best =
        if Int_table.mem g.by_key key then
          newest_in_bucket flow best (Int_table.find g.by_key key)
        else best
      in
      newest_match flow best rest

let classify t flow =
  let e = newest_match flow no_match t.groups in
  if e == no_match then -1 else e.compiled.Rules.Rule_compiler.queue

let permits t flow = classify t flow >= 0

let tunnel_for t ~dst_ip =
  match Int_table.find t.tunnels (ip_key dst_ip) with
  | tn -> tn.ep
  | exception Not_found -> None
