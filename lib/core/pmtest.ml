open Pmtest_util
open Pmtest_model
open Pmtest_trace
open Pmtest_itree

module Obs = Pmtest_obs.Obs

type t = {
  runtime : Runtime.t;
  obs : Obs.t;
  builders : (int, Builder.t) Hashtbl.t;
  vars : (string, int * int) Hashtbl.t;
  mutex : Mutex.t;
  mutable tracking : bool;
  (* Exclusions outlive trace sections: the engine checks each section
     independently, so the active exclusion set is re-announced at the
     head of every section sent to the workers. *)
  mutable excluded : unit Interval_map.t;
  (* Called with every section handed to the runtime — how offline tools
     (the static lint, trace recorders) observe a live session. *)
  mutable observers : (Event.t array -> unit) list;
}

let init ?(model = Model.X86) ?(workers = 1) ?(obs = Obs.disabled) () =
  let t =
    {
      runtime = Runtime.create ~workers ~model ~obs ();
      obs;
      builders = Hashtbl.create 8;
      vars = Hashtbl.create 16;
      mutex = Mutex.create ();
      tracking = true;
      excluded = Interval_map.empty;
      observers = [];
    }
  in
  Hashtbl.replace t.builders 0 (Builder.create ~thread:0 ());
  t

let model t = Runtime.model t.runtime
let worker_count t = Runtime.worker_count t.runtime
let obs t = t.obs

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let builder t thread =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.builders thread with
      | Some b -> b
      | None ->
        let b = Builder.create ~thread () in
        Builder.set_enabled b t.tracking;
        Hashtbl.replace t.builders thread b;
        b)

let thread_init t ~thread = ignore (builder t thread)

let start t =
  with_lock t (fun () ->
      t.tracking <- true;
      Hashtbl.iter (fun _ b -> Builder.set_enabled b true) t.builders)

let stop t =
  with_lock t (fun () ->
      t.tracking <- false;
      Hashtbl.iter (fun _ b -> Builder.set_enabled b false) t.builders)

let tracking t = t.tracking

let sink ?(thread = 0) t = Sink.observed t.obs (Builder.sink (builder t thread))

let emit ?(thread = 0) ?(loc = Loc.none) t kind =
  if Obs.enabled t.obs then Obs.event_traced t.obs;
  Builder.emit (builder t thread) kind loc

(* A range the engine's shadow memory cannot hold would otherwise raise
   later, inside a checking worker; reject it at the call instead. *)
let check_range fn ~addr ~size =
  if not (Event.valid_range ~addr ~size) then
    invalid_arg (Printf.sprintf "Pmtest.%s: invalid range (addr %d, size %d)" fn addr size)

let exclude ?thread ?loc t ~addr ~size =
  check_range "exclude" ~addr ~size;
  emit ?thread ?loc t (Event.Control (Event.Exclude { addr; size }))

let include_ ?thread ?loc t ~addr ~size =
  check_range "include_" ~addr ~size;
  emit ?thread ?loc t (Event.Control (Event.Include { addr; size }))

let lint_off ?thread ?loc ?(rule = "*") t =
  emit ?thread ?loc t (Event.Control (Event.Lint_off { rule }))

let lint_on ?thread ?loc ?(rule = "*") t =
  emit ?thread ?loc t (Event.Control (Event.Lint_on { rule }))

let on_section t f = with_lock t (fun () -> t.observers <- t.observers @ [ f ])

let reg_var t name ~addr ~size = with_lock t (fun () -> Hashtbl.replace t.vars name (addr, size))
let unreg_var t name = with_lock t (fun () -> Hashtbl.remove t.vars name)
let get_var t name = with_lock t (fun () -> Hashtbl.find_opt t.vars name)

let note_control t = function
  | Event.Exclude { addr; size } ->
    t.excluded <- Interval_map.set t.excluded ~lo:addr ~hi:(addr + size) ()
  | Event.Include { addr; size } ->
    t.excluded <- Interval_map.clear t.excluded ~lo:addr ~hi:(addr + size)
  | Event.Lint_off _ | Event.Lint_on _ -> ()

let exclusion_preamble ~thread excluded =
  Array.of_list
    (List.rev
       (Interval_map.fold
          (fun lo hi () acc ->
            Event.make ~thread (Event.Control (Event.Exclude { addr = lo; size = hi - lo })) :: acc)
          excluded []))

let send_trace ?(thread = 0) t =
  let section = Builder.take (builder t thread) in
  if Array.length section > 0 then begin
    let preamble, observers =
      with_lock t (fun () ->
          let preamble = exclusion_preamble ~thread t.excluded in
          (* Update the live exclusion set from this section's controls so
             the next section starts from the right scope. *)
          Array.iter
            (fun (e : Event.t) ->
              match e.Event.kind with Event.Control c -> note_control t c | _ -> ())
            section;
          (preamble, t.observers))
    in
    let section = if Array.length preamble = 0 then section else Array.append preamble section in
    List.iter (fun f -> f section) observers;
    Runtime.send_trace t.runtime section
  end
  else if Obs.enabled t.obs then Obs.section_dropped t.obs

let get_result t = Runtime.get_result t.runtime
let section_length ?(thread = 0) t = Builder.length (builder t thread)

let is_persist ?thread ?loc t ~addr ~size =
  check_range "is_persist" ~addr ~size;
  emit ?thread ?loc t (Event.Checker (Event.Is_persist { addr; size }))

let is_persist_var ?thread ?loc t name =
  match get_var t name with
  | None -> raise Not_found
  | Some (addr, size) -> is_persist ?thread ?loc t ~addr ~size

let is_ordered_before ?thread ?loc t ~a_addr ~a_size ~b_addr ~b_size =
  check_range "is_ordered_before" ~addr:a_addr ~size:a_size;
  check_range "is_ordered_before" ~addr:b_addr ~size:b_size;
  emit ?thread ?loc t (Event.Checker (Event.Is_ordered_before { a_addr; a_size; b_addr; b_size }))

let tx_checker_start ?thread ?loc t = emit ?thread ?loc t (Event.Tx Event.Tx_checker_start)
let tx_checker_end ?thread ?loc t = emit ?thread ?loc t (Event.Tx Event.Tx_checker_end)

let finish t =
  let threads = with_lock t (fun () -> Hashtbl.fold (fun k _ acc -> k :: acc) t.builders []) in
  List.iter (fun thread -> send_trace ~thread t) threads;
  Runtime.shutdown t.runtime
