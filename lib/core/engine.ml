open Pmtest_util
open Pmtest_itree
open Pmtest_model
open Pmtest_trace

(* Local status of a modified byte range (paper §4.4). The persist and
   flush intervals are not stored closed/open — they are derived lazily
   from these epochs and the current timestamp, so fences cost O(1)
   instead of a shadow-memory sweep. *)
type status = {
  write_epoch : int;
  write_loc : Loc.t;
  flush : (int * Loc.t) option;  (* first clwb since the last write *)
}

type range_status = { lo : int; hi : int; persist : Interval.t; flush : Interval.t option }
type snapshot = { timestamp : int; ranges : range_status list }

(* The checking core is written once against this shadow-memory
   signature and instantiated twice: the boxed path (in-process
   sessions) over the persistent {!Interval_map} (cheap snapshots) and
   the packed path (the [pmtestd] daemon) over the mutable page-indexed
   {!Page_map}.  Both maps have identical observable semantics — same
   splitting, same non-merging of adjacent equal values — so the two
   engines produce byte-identical reports (pinned by the packed-vs-boxed
   fuzz pair). *)
module type SHADOW = sig
  type t

  val create : unit -> t
  val set : t -> lo:int -> hi:int -> status -> unit
  val update_range : t -> lo:int -> hi:int -> f:(status option -> status option) -> unit
  val overlapping : t -> lo:int -> hi:int -> (int * int * status) list
  val fold : (int -> int -> status -> 'a -> 'a) -> t -> 'a -> 'a
end

module Imap_shadow : SHADOW = struct
  type t = { mutable m : status Interval_map.t }

  let create () = { m = Interval_map.empty }
  let set t ~lo ~hi v = t.m <- Interval_map.set t.m ~lo ~hi v
  let update_range t ~lo ~hi ~f = t.m <- Interval_map.update_range t.m ~lo ~hi ~f
  let overlapping t ~lo ~hi = Interval_map.overlapping t.m ~lo ~hi
  let fold f t acc = Interval_map.fold f t.m acc
end

module Pmap_shadow : SHADOW = struct
  type t = status Page_map.t

  let create () = Page_map.create ()
  let set = Page_map.set
  let update_range = Page_map.update_range
  let overlapping = Page_map.overlapping
  let fold = Page_map.fold
end

(* Smallest recorded dfence timestamp strictly greater than [epoch]. *)
let first_dfence_after times epoch =
  let n = Vec.length times in
  let rec search lo hi =
    if lo >= hi then if lo < n then Some (Vec.get times lo) else None
    else
      let mid = (lo + hi) / 2 in
      if Vec.get times mid > epoch then search lo mid else search (mid + 1) hi
  in
  search 0 n

let effective_subranges ~excluded ~addr ~size =
  let lo = addr and hi = addr + size in
  let holes = Interval_map.overlapping excluded ~lo ~hi in
  let rec walk cursor = function
    | [] -> if cursor < hi then [ (cursor, hi) ] else []
    | (k, h, ()) :: rest ->
      let gap = if k > cursor then [ (cursor, k) ] else [] in
      gap @ walk (max cursor h) rest
  in
  walk lo holes

(* Constructor probes for [Model.valid_op] on the packed path. *)
let write_probe = Model.Write { addr = 0; size = 0 }
let clwb_probe = Model.Clwb { addr = 0; size = 0 }

(* A diagnostic is recorded as kind/loc plus a rendering thunk; the
   message string is only materialised when the report is built, so the
   hot path never runs Format.  Thunks must capture values eagerly —
   [st.now] and the shadow mutate as checking proceeds. *)
type pending_diag = { kind : Report.kind; loc : Loc.t; render : unit -> string }

module Core (S : SHADOW) = struct
  type state = {
    model : Model.kind;
    mutable now : int;
    shadow : S.t;
    mutable excluded : unit Interval_map.t;
    dfence_times : int Vec.t;  (* HOPS dfence / CXL gpf drain timestamps *)
    mutable log_tree : Loc.t Interval_tree.t;
    mutable tx_depth : int;
    mutable scope_active : bool;
    mutable scope_writes : Loc.t Interval_map.t;
    diags : pending_diag Vec.t;
    mutable entries : int;
    mutable ops : int;
    mutable checkers : int;
  }

  let create_state model =
    {
      model;
      now = 0;
      shadow = S.create ();
      excluded = Interval_map.empty;
      dfence_times = Vec.create ();
      log_tree = Interval_tree.empty;
      tx_depth = 0;
      scope_active = false;
      scope_writes = Interval_map.empty;
      diags = Vec.create ();
      entries = 0;
      ops = 0;
      checkers = 0;
    }

  let diag st kind loc render = Vec.push st.diags { kind; loc; render }

  let persist_interval st (s : status) =
    match st.model with
    | Model.X86 -> begin
      match s.flush with
      | Some (fe, _) when st.now > fe -> Interval.make ~lo:s.write_epoch ~hi:(fe + 1)
      | Some _ | None -> Interval.make_open s.write_epoch
    end
    | Model.Hops | Model.Cxl -> begin
      (* CXL reuses the drain-time machinery: a store is durable once
         the first global persist barrier after its epoch completes. *)
      match first_dfence_after st.dfence_times s.write_epoch with
      | Some d -> Interval.make ~lo:s.write_epoch ~hi:d
      | None -> Interval.make_open s.write_epoch
    end
    | Model.Eadr ->
      (* The cache is persistent: a store is durable the instant it executes
         and stores persist in program order, so every write gets its own
         unit-width, already-closed interval (epochs advance per write). *)
      Interval.make ~lo:(s.write_epoch - 1) ~hi:s.write_epoch

  (* [Interval.ends_by (persist_interval st s) st.now] without building
     the interval — the clean path of every persistence check.  Closed
     bounds are always timestamps already reached ([fe + 1 <= now] when
     [now > fe]; dfence stamps and eADR epochs never exceed [now]), so
     only the open/closed distinction matters. *)
  let persisted_by_now st (s : status) =
    match st.model with
    | Model.X86 -> begin
      match s.flush with Some (fe, _) -> st.now > fe | None -> false
    end
    | Model.Hops | Model.Cxl ->
      (* [dfence_times] is ascending: a drain point after the write
         epoch exists iff the newest one is after it. *)
      let n = Vec.length st.dfence_times in
      n > 0 && Vec.get st.dfence_times (n - 1) > s.write_epoch
    | Model.Eadr -> true

  let flush_interval st (s : status) =
    match s.flush with
    | None -> None
    | Some (fe, _) ->
      Some (if st.now > fe then Interval.make ~lo:fe ~hi:(fe + 1) else Interval.make_open fe)

  let on_write st loc ~addr ~size =
    (* Under eADR each store is its own ordering point. *)
    if st.model = Model.Eadr then st.now <- st.now + 1;
    let subranges = effective_subranges ~excluded:st.excluded ~addr ~size in
    List.iter
      (fun (lo, hi) ->
        if st.tx_depth > 0 && st.scope_active && not (Interval_tree.covered st.log_tree ~lo ~hi) then
          diag st Report.Missing_log loc (fun () ->
              Format.asprintf
                "persistent object [0x%x,+%d) modified inside a transaction without a backup \
                 log entry"
                lo (hi - lo));
        if st.scope_active then st.scope_writes <- Interval_map.set st.scope_writes ~lo ~hi loc)
      subranges;
    (* The store hits memory whether or not checking is excluded, so the
       shadow must cover the whole range: exclusion suppresses diagnostics
       (checkers and writeback rules filter through [effective_subranges]),
       not history. Refreshing only the effective subranges would let a
       stale pre-exclusion status describe bytes a hole write has since
       overwritten — visible as wrong persist claims once re-included. *)
    S.set st.shadow ~lo:addr ~hi:(addr + size)
      { write_epoch = st.now; write_loc = loc; flush = None }

  let on_clwb st loc ~addr ~size =
    let unnecessary = ref false and duplicate = ref false in
    let subranges = effective_subranges ~excluded:st.excluded ~addr ~size in
    List.iter
      (fun (lo, hi) ->
        S.update_range st.shadow ~lo ~hi ~f:(function
          | None ->
            (* Writing back a location that was never modified. *)
            unnecessary := true;
            None
          | Some s -> begin
            match s.flush with
            | None -> Some { s with flush = Some (st.now, loc) }
            | Some _ ->
              (* A writeback is already pending or complete for this
                 write: the second clwb is redundant. *)
              duplicate := true;
              Some s
          end))
      subranges;
    if !unnecessary then
      diag st Report.Unnecessary_writeback loc (fun () ->
          Format.asprintf "writeback of unmodified data at [0x%x,+%d)" addr size);
    if !duplicate then
      diag st Report.Duplicate_writeback loc (fun () ->
          Format.asprintf "persistent object [0x%x,+%d) written back more than once" addr size)

  let statuses_in st ~addr ~size =
    List.concat_map
      (fun (lo, hi) -> S.overlapping st.shadow ~lo ~hi)
      (effective_subranges ~excluded:st.excluded ~addr ~size)

  let on_is_persist st loc ~addr ~size =
    let offending =
      List.find_opt (fun (_, _, s) -> not (persisted_by_now st s)) (statuses_in st ~addr ~size)
    in
    match offending with
    | None -> ()
    | Some (lo, hi, s) ->
      let iv = persist_interval st s and now = st.now and wloc = s.write_loc in
      diag st Report.Not_persisted loc (fun () ->
          Format.asprintf
            "isPersist(0x%x,%d): write at %s to [0x%x,+%d) has persist interval %a at \
             timestamp %d"
            addr size (Loc.to_string wloc) lo (hi - lo) Interval.pp iv now)

  let on_is_ordered_before st loc ~a_addr ~a_size ~b_addr ~b_size =
    let a_statuses = statuses_in st ~addr:a_addr ~size:a_size in
    let b_statuses = statuses_in st ~addr:b_addr ~size:b_size in
    let violation =
      List.find_map
        (fun (alo, ahi, sa) ->
          let ia = persist_interval st sa in
          List.find_map
            (fun (blo, bhi, sb) ->
              let ib = persist_interval st sb in
              let ordered =
                match st.model with
                | Model.X86 | Model.Eadr | Model.Cxl -> Interval.ordered_before ia ib
                | Model.Hops -> Interval.starts_before ia ib
              in
              if ordered then None else Some ((alo, ahi, sa, ia), (blo, bhi, sb, ib)))
            b_statuses)
        a_statuses
    in
    match violation with
    | None -> ()
    | Some ((alo, _, sa, ia), (blo, _, sb, ib)) ->
      let aloc = sa.write_loc and bloc = sb.write_loc in
      diag st Report.Not_ordered loc (fun () ->
          Format.asprintf
            "isOrderedBefore: write at %s to 0x%x %a may not persist before write at %s to \
             0x%x %a"
            (Loc.to_string aloc) alo Interval.pp ia (Loc.to_string bloc) blo Interval.pp ib)

  let on_tx_add st loc ~addr ~size =
    let lo = addr and hi = addr + size in
    if (not (Interval_tree.is_empty st.log_tree)) && Interval_tree.covered st.log_tree ~lo ~hi
    then
      diag st Report.Duplicate_log loc (fun () ->
          Format.asprintf "persistent object [0x%x,+%d) logged more than once" addr size);
    st.log_tree <- Interval_tree.add st.log_tree ~lo ~hi loc

  let on_tx_checker_end st loc =
    if st.tx_depth > 0 then
      diag st Report.Incomplete_tx loc (fun () -> "transaction still open at TX_CHECKER_END");
    Interval_map.iter
      (fun lo hi wloc ->
        List.iter
          (fun (slo, shi) ->
            List.iter
              (fun (_, _, s) ->
                if not (persisted_by_now st s) then begin
                  let iv = persist_interval st s and now = st.now in
                  diag st Report.Incomplete_tx loc (fun () ->
                      Format.asprintf
                        "transaction update at %s to [0x%x,+%d) not persisted when the \
                         transaction checker scope ends (persist interval %a, timestamp %d)"
                        (Loc.to_string wloc) slo (shi - slo) Interval.pp iv now)
                end)
              (S.overlapping st.shadow ~lo:slo ~hi:shi))
          (effective_subranges ~excluded:st.excluded ~addr:lo ~size:(hi - lo)))
      st.scope_writes;
    st.scope_active <- false;
    st.scope_writes <- Interval_map.empty

  let invalid_op st loc op =
    diag st Report.Invalid_op loc (fun () ->
        Format.asprintf "operation %a is not part of the %s persistency model" Model.pp_op op
          (Model.kind_name st.model))

  let eadr_clwb st loc ~addr ~size =
    (* The persistence domain includes the caches: any writeback is
       pure overhead on this platform. *)
    diag st Report.Unnecessary_writeback loc (fun () ->
        Format.asprintf "writeback of [0x%x,+%d) is redundant under eADR (caches are \
                         persistent)" addr size)

  let on_valid_clwb st loc ~addr ~size =
    if st.model = Model.Eadr then eadr_clwb st loc ~addr ~size else on_clwb st loc ~addr ~size

  let on_op st loc op =
    st.ops <- st.ops + 1;
    if not (Model.valid_op st.model op) then invalid_op st loc op
    else begin
      match op with
      | Model.Write { addr; size } -> on_write st loc ~addr ~size
      | Model.Clwb { addr; size } -> on_valid_clwb st loc ~addr ~size
      | Model.Sfence -> if st.model <> Model.Eadr then st.now <- st.now + 1
      | Model.Ofence -> st.now <- st.now + 1
      | Model.Dfence | Model.Gpf ->
        st.now <- st.now + 1;
        Vec.push st.dfence_times st.now
    end

  let on_entry st (e : Event.t) =
    st.entries <- st.entries + 1;
    let loc = e.loc in
    match e.kind with
    | Event.Op op -> on_op st loc op
    | Event.Checker c -> begin
      st.checkers <- st.checkers + 1;
      match c with
      | Event.Is_persist { addr; size } -> on_is_persist st loc ~addr ~size
      | Event.Is_ordered_before { a_addr; a_size; b_addr; b_size } ->
        on_is_ordered_before st loc ~a_addr ~a_size ~b_addr ~b_size
    end
    | Event.Tx tx -> begin
      match tx with
      | Event.Tx_begin ->
        if st.tx_depth = 0 then st.log_tree <- Interval_tree.empty;
        st.tx_depth <- st.tx_depth + 1
      | Event.Tx_add { addr; size } -> on_tx_add st loc ~addr ~size
      | Event.Tx_commit | Event.Tx_abort ->
        st.tx_depth <- max 0 (st.tx_depth - 1);
        if st.tx_depth = 0 then st.log_tree <- Interval_tree.empty
      | Event.Tx_checker_start ->
        st.scope_active <- true;
        st.scope_writes <- Interval_map.empty
      | Event.Tx_checker_end -> on_tx_checker_end st loc
    end
    | Event.Control c -> begin
      match c with
      | Event.Exclude { addr; size } ->
        st.excluded <- Interval_map.set st.excluded ~lo:addr ~hi:(addr + size) ()
      | Event.Include { addr; size } ->
        st.excluded <- Interval_map.clear st.excluded ~lo:addr ~hi:(addr + size)
      | Event.Lint_off _ | Event.Lint_on _ ->
        (* Static-lint suppression scopes mean nothing to the dynamic engine. *)
        ()
    end

  (* Packed dispatch: same transitions as [on_entry], decoded straight
     from the cursor view.  Fences are constant constructors, so they go
     through [on_op] as is; the two ranged ops ask [Model.valid_op]
     about a constant probe of their constructor (validity ignores the
     range) and build the real op value only on the (diagnosed, rare)
     invalid path — the cursor path allocates nothing. *)
  let on_view st (v : Packed.view) =
    st.entries <- st.entries + 1;
    let loc = v.Packed.loc in
    match v.Packed.tag with
    | Packed.T_write ->
      st.ops <- st.ops + 1;
      if not (Model.valid_op st.model write_probe) then
        invalid_op st loc (Model.Write { addr = v.Packed.a; size = v.Packed.b })
      else on_write st loc ~addr:v.Packed.a ~size:v.Packed.b
    | Packed.T_clwb ->
      st.ops <- st.ops + 1;
      if not (Model.valid_op st.model clwb_probe) then
        invalid_op st loc (Model.Clwb { addr = v.Packed.a; size = v.Packed.b })
      else on_valid_clwb st loc ~addr:v.Packed.a ~size:v.Packed.b
    | Packed.T_sfence -> on_op st loc Model.Sfence
    | Packed.T_ofence -> on_op st loc Model.Ofence
    | Packed.T_dfence -> on_op st loc Model.Dfence
    | Packed.T_gpf -> on_op st loc Model.Gpf
    | Packed.T_is_persist ->
      st.checkers <- st.checkers + 1;
      on_is_persist st loc ~addr:v.Packed.a ~size:v.Packed.b
    | Packed.T_is_ordered ->
      st.checkers <- st.checkers + 1;
      on_is_ordered_before st loc ~a_addr:v.Packed.a ~a_size:v.Packed.b ~b_addr:v.Packed.c
        ~b_size:v.Packed.d
    | Packed.T_tx_begin ->
      if st.tx_depth = 0 then st.log_tree <- Interval_tree.empty;
      st.tx_depth <- st.tx_depth + 1
    | Packed.T_tx_add -> on_tx_add st loc ~addr:v.Packed.a ~size:v.Packed.b
    | Packed.T_tx_commit | Packed.T_tx_abort ->
      st.tx_depth <- max 0 (st.tx_depth - 1);
      if st.tx_depth = 0 then st.log_tree <- Interval_tree.empty
    | Packed.T_tx_checker_start ->
      st.scope_active <- true;
      st.scope_writes <- Interval_map.empty
    | Packed.T_tx_checker_end -> on_tx_checker_end st loc
    | Packed.T_exclude ->
      st.excluded <-
        Interval_map.set st.excluded ~lo:v.Packed.a ~hi:(v.Packed.a + v.Packed.b) ()
    | Packed.T_include ->
      st.excluded <- Interval_map.clear st.excluded ~lo:v.Packed.a ~hi:(v.Packed.a + v.Packed.b)
    | Packed.T_lint_off | Packed.T_lint_on -> ()

  let report_of st =
    {
      Report.diagnostics =
        List.map
          (fun p -> { Report.kind = p.kind; loc = p.loc; message = p.render () })
          (Vec.to_list st.diags);
      entries = st.entries;
      ops = st.ops;
      checkers = st.checkers;
    }

  let note_obs obs st =
    if Pmtest_obs.Obs.enabled obs then
      Pmtest_obs.Obs.engine_counts obs ~entries:st.entries ~ops:st.ops ~checkers:st.checkers
        ~diags:(Vec.length st.diags)

  let ranges_of st =
    List.rev
      (S.fold
         (fun lo hi s acc ->
           { lo; hi; persist = persist_interval st s; flush = flush_interval st s } :: acc)
         st.shadow [])
end

module Boxed = Core (Imap_shadow)
module Flat = Core (Pmap_shadow)

let check ?(obs = Pmtest_obs.Obs.disabled) ?(model = Model.X86) entries =
  let st = Boxed.create_state model in
  Array.iter (Boxed.on_entry st) entries;
  Boxed.note_obs obs st;
  Boxed.report_of st

let check_packed ?(obs = Pmtest_obs.Obs.disabled) ?(model = Model.X86) ?(prelude = [||]) packed
    =
  let st = Flat.create_state model in
  (* The session's exclusion preamble arrives boxed (it is rebuilt from
     the live scope, never traced); replaying it through [on_entry]
     keeps the report identical to the boxed path, which prepends the
     same events to the section array. *)
  Array.iter (Flat.on_entry st) prelude;
  let v = Packed.make_view () in
  let n = Packed.byte_length packed in
  let pos = ref 0 in
  while !pos < n do
    pos := Packed.read packed ~pos:!pos v;
    Flat.on_view st v
  done;
  Flat.note_obs obs st;
  Flat.report_of st

let check_with_snapshot ?(model = Model.X86) entries =
  let st = Boxed.create_state model in
  Array.iter (Boxed.on_entry st) entries;
  (Boxed.report_of st, { timestamp = st.Boxed.now; ranges = Boxed.ranges_of st })

let shadow_cardinality_of snap = List.length snap.ranges
