module Fkey = Netcore.Fkey
module Ptbl = Netcore.Fkey.Pattern.Table

type candidate = {
  pattern : Fkey.Pattern.t;
  tenant : Netcore.Tenant.id;
  vm_ip : Netcore.Ipv4.t;
  score : float;
  tcam_entries : int;
  group : int option;
}

type decision = {
  offload : candidate list;
  demote : candidate list;
  keep : candidate list;
}

(* Group candidates into units the knapsack treats atomically: singleton
   units for ungrouped candidates, one unit per all-or-none group. A
   unit's score is its best member's (groups ride on their hottest
   flow), its cost the sum, and its key its least member pattern: equal
   scores rank by key, so the order candidates arrive in (hash-table
   fold order, upstream) cannot pick the winner of a tie. *)
type unit_ = {
  members : candidate list;
  unit_score : float;
  unit_cost : int;
  unit_key : Fkey.Pattern.t;
}

let least_pattern p q = if Fkey.Pattern.compare q p < 0 then q else p

(* Units are built in first-seen candidate order (a group unit sits at
   its first member's position), which breaks the ties left after the
   key (duplicate patterns) the same way in the list baseline and the
   array-based [decide] below. Group
   member lists are built by prepending, i.e. in reverse candidate
   order, which downstream output ordering depends on. *)
let build_units candidates =
  let groups : (int, candidate list ref) Hashtbl.t = Hashtbl.create 8 in
  let slots =
    List.filter_map
      (fun c ->
        match c.group with
        | None -> Some (`Single c)
        | Some g -> (
            match Hashtbl.find_opt groups g with
            | Some r ->
                r := c :: !r;
                None
            | None ->
                let r = ref [ c ] in
                Hashtbl.replace groups g r;
                Some (`Group r)))
      candidates
  in
  List.map
    (function
      | `Single c ->
          {
            members = [ c ];
            unit_score = c.score;
            unit_cost = c.tcam_entries;
            unit_key = c.pattern;
          }
      | `Group r ->
          let members = !r in
          (* Fold from [neg_infinity], not 0.0: a group whose members
             all score below zero must rank on its (negative) best
             member, not spuriously at 0.0 above hotter singletons. *)
          let unit_score =
            List.fold_left (fun m c -> Float.max m c.score) neg_infinity members
          in
          let unit_cost =
            List.fold_left (fun s c -> s + c.tcam_entries) 0 members
          in
          let unit_key =
            List.fold_left
              (fun k c -> least_pattern k c.pattern)
              (List.hd members).pattern members
          in
          { members; unit_score; unit_cost; unit_key })
    slots

let m_calls = Obs.Metrics.counter "fastrak.decide.calls"
let m_offloads = Obs.Metrics.counter "fastrak.decide.offloads"
let m_demotes = Obs.Metrics.counter "fastrak.decide.demotes"

(* The greedy knapsack over score-sorted units, shared by both the
   hashtable implementation and the list-based baseline so the two can
   only differ in the membership classification that follows it. *)
let select_units ~budget ~count_cap units =
  let selected, _, _ =
    List.fold_left
      (fun (acc, budget_left, slots_left) u ->
        let members_count = List.length u.members in
        if u.unit_cost <= budget_left && members_count <= slots_left then
          (u.members @ acc, budget_left - u.unit_cost, slots_left - members_count)
        else (acc, budget_left, slots_left))
      ([], budget, count_cap) units
  in
  selected

let ranked_units candidates ~min_score =
  let eligible = List.filter (fun c -> c.score >= min_score) candidates in
  List.stable_sort
    (fun a b ->
      match Float.compare b.unit_score a.unit_score with
      | 0 -> Fkey.Pattern.compare a.unit_key b.unit_key
      | c -> c)
    (build_units eligible)

(* Pooled scratch state for [decide]. All per-call working storage —
   the eligible-candidate array, per-unit score/cost/member tables, the
   rank order, and the two pattern membership tables — lives here and
   is reused across calls, so a steady-state decide call allocates only
   its output lists (plus hashtable bucket cells), not O(c log c) of
   sort-and-cons garbage. Owned by the controller that calls decide. *)
type scratch = {
  mutable elig : candidate array;  (* eligible candidates, arrival order *)
  mutable e_next : int array;  (* next member index within unit, -1 = end *)
  mutable e_len : int;
  mutable u_score : float array;  (* per-unit: best member score *)
  mutable u_cost : int array;  (* per-unit: summed tcam entries *)
  mutable u_key : Fkey.Pattern.t array;  (* per-unit: least member pattern *)
  mutable u_head : int array;  (* per-unit: first member (elig index) *)
  mutable u_tail : int array;  (* per-unit: last member (elig index) *)
  mutable u_count : int array;  (* per-unit: member count *)
  mutable u_len : int;
  mutable order : int array;  (* unit ids, heap-sorted by rank *)
  group_unit : (int, int) Hashtbl.t;  (* group id -> unit id *)
  offloaded_tbl : candidate Ptbl.t;
  selected_tbl : unit Ptbl.t;
}

let dummy_candidate =
  {
    pattern = Fkey.Pattern.any;
    tenant = Netcore.Tenant.of_int 0;
    vm_ip = Netcore.Ipv4.of_int32 0l;
    score = 0.0;
    tcam_entries = 0;
    group = None;
  }

let create_scratch () =
  {
    elig = Array.make 64 dummy_candidate;
    e_next = Array.make 64 (-1);
    e_len = 0;
    u_score = Array.make 64 0.0;
    u_cost = Array.make 64 0;
    u_key = Array.make 64 Fkey.Pattern.any;
    u_head = Array.make 64 (-1);
    u_tail = Array.make 64 (-1);
    u_count = Array.make 64 0;
    u_len = 0;
    order = Array.make 64 0;
    group_unit = Hashtbl.create 64;
    offloaded_tbl = Ptbl.create 64;
    selected_tbl = Ptbl.create 64;
  }

let grow_int a = Array.append a (Array.make (Array.length a) 0)

let push_elig s c =
  (if s.e_len = Array.length s.elig then begin
     s.elig <- Array.append s.elig (Array.make (Array.length s.elig) dummy_candidate);
     s.e_next <- grow_int s.e_next
   end);
  let e = s.e_len in
  s.elig.(e) <- c;
  s.e_next.(e) <- -1;
  s.e_len <- e + 1;
  e

let push_unit s ~score ~cost ~key ~head =
  (if s.u_len = Array.length s.u_score then begin
     s.u_score <- Array.append s.u_score (Array.make s.u_len 0.0);
     s.u_cost <- grow_int s.u_cost;
     s.u_key <- Array.append s.u_key (Array.make s.u_len Fkey.Pattern.any);
     s.u_head <- grow_int s.u_head;
     s.u_tail <- grow_int s.u_tail;
     s.u_count <- grow_int s.u_count;
     s.order <- grow_int s.order
   end);
  let u = s.u_len in
  s.u_score.(u) <- score;
  s.u_cost.(u) <- cost;
  s.u_key.(u) <- key;
  s.u_head.(u) <- head;
  s.u_tail.(u) <- head;
  s.u_count.(u) <- 1;
  s.u_len <- u + 1;
  u

(* In-place heapsort of [s.order]'s first [n] slots: descending unit
   score, ties by ascending unit key, then by ascending unit id (=
   first-seen order), i.e. exactly the [List.stable_sort] rank order of
   the list baseline — without allocating the sorted list. *)
let sort_order s n =
  let ord = s.order in
  (* [gt a b]: unit [a] sorts strictly after unit [b]. *)
  let gt a b =
    s.u_score.(a) < s.u_score.(b)
    || s.u_score.(a) = s.u_score.(b)
       &&
       let c = Fkey.Pattern.compare s.u_key.(a) s.u_key.(b) in
       c > 0 || (c = 0 && a > b)
  in
  let sift_down start len =
    let root = ref start in
    let continue_ = ref true in
    while !continue_ do
      let child = (2 * !root) + 1 in
      if child >= len then continue_ := false
      else begin
        let child =
          if child + 1 < len && gt ord.(child + 1) ord.(child) then child + 1
          else child
        in
        if gt ord.(child) ord.(!root) then begin
          let tmp = ord.(!root) in
          ord.(!root) <- ord.(child);
          ord.(child) <- tmp;
          root := child
        end
        else continue_ := false
      end
    done
  in
  for i = (n / 2) - 1 downto 0 do
    sift_down i n
  done;
  for i = n - 1 downto 1 do
    let tmp = ord.(0) in
    ord.(0) <- ord.(i);
    ord.(i) <- tmp;
    sift_down 0 i
  done

let decide ?scratch ~candidates ~offloaded ~tcam_free ?(max_offloads = None)
    ~min_score () =
  Obs.Metrics.incr m_calls;
  let s = match scratch with Some s -> s | None -> create_scratch () in
  Ptbl.clear s.offloaded_tbl;
  Ptbl.clear s.selected_tbl;
  Hashtbl.clear s.group_unit;
  s.e_len <- 0;
  s.u_len <- 0;
  (* One walk over [offloaded] funds the budget and fills the
     membership table; every later "currently in hardware?" question is
     an O(1) lookup instead of a list scan per candidate. Total budget:
     free entries plus everything currently offloaded, since
     non-winners are demoted and return their entries. *)
  let budget = ref tcam_free in
  List.iter
    (fun (p, c) ->
      Ptbl.replace s.offloaded_tbl p c;
      budget := !budget + c.tcam_entries)
    offloaded;
  (* Eligibility filter and unit construction in one pass, first-seen
     unit order, members chained in candidate order via [e_next]. *)
  List.iter
    (fun c ->
      if c.score >= min_score then begin
        let e = push_elig s c in
        match c.group with
        | None ->
            ignore
              (push_unit s ~score:c.score ~cost:c.tcam_entries ~key:c.pattern
                 ~head:e)
        | Some g -> (
            match Hashtbl.find s.group_unit g with
            | u ->
                s.e_next.(s.u_tail.(u)) <- e;
                s.u_tail.(u) <- e;
                s.u_count.(u) <- s.u_count.(u) + 1;
                s.u_cost.(u) <- s.u_cost.(u) + c.tcam_entries;
                s.u_key.(u) <- least_pattern s.u_key.(u) c.pattern;
                if c.score > s.u_score.(u) then s.u_score.(u) <- c.score
            | exception Not_found ->
                let u =
                  push_unit s ~score:c.score ~cost:c.tcam_entries
                    ~key:c.pattern ~head:e
                in
                Hashtbl.replace s.group_unit g u)
      end)
    candidates;
  for i = 0 to s.u_len - 1 do
    s.order.(i) <- i
  done;
  sort_order s s.u_len;
  (* Greedy selection over the rank order. Prepending each member (unit
     members walked in candidate order) reproduces the list baseline's
     output order exactly: its selected list is
     members_rev(U_last) @ … @ members_rev(U_first). *)
  let count_cap = match max_offloads with Some n -> n | None -> max_int in
  let budget_left = ref !budget in
  let slots_left = ref count_cap in
  let offload = ref [] in
  let keep = ref [] in
  let n_offload = ref 0 in
  for k = 0 to s.u_len - 1 do
    let u = s.order.(k) in
    if s.u_cost.(u) <= !budget_left && s.u_count.(u) <= !slots_left then begin
      budget_left := !budget_left - s.u_cost.(u);
      slots_left := !slots_left - s.u_count.(u);
      let m = ref s.u_head.(u) in
      while !m >= 0 do
        let c = s.elig.(!m) in
        Ptbl.replace s.selected_tbl c.pattern ();
        if Ptbl.mem s.offloaded_tbl c.pattern then keep := c :: !keep
        else begin
          incr n_offload;
          offload := c :: !offload
        end;
        m := s.e_next.(!m)
      done
    end
  done;
  let demote =
    List.filter_map
      (fun (p, c) -> if Ptbl.mem s.selected_tbl p then None else Some c)
      offloaded
  in
  Obs.Metrics.add m_offloads !n_offload;
  Obs.Metrics.add m_demotes (List.length demote);
  { offload = !offload; demote; keep = !keep }

let decide_list_baseline ~candidates ~offloaded ~tcam_free
    ?(max_offloads = None) ~min_score () =
  let budget =
    tcam_free + List.fold_left (fun s (_, c) -> s + c.tcam_entries) 0 offloaded
  in
  let units = ranked_units candidates ~min_score in
  let count_cap = match max_offloads with Some n -> n | None -> max_int in
  let selected = select_units ~budget ~count_cap units in
  let is_offloaded c =
    List.exists (fun (p, _) -> Fkey.Pattern.equal p c.pattern) offloaded
  in
  let selected_pattern p =
    List.exists (fun c -> Fkey.Pattern.equal c.pattern p) selected
  in
  let offload = List.filter (fun c -> not (is_offloaded c)) selected in
  let keep = List.filter is_offloaded selected in
  let demote =
    List.filter_map
      (fun (p, c) -> if selected_pattern p then None else Some c)
      offloaded
  in
  { offload; demote; keep }
