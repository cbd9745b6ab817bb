(* Spans of the traced run, kept in memory and written at exit as Chrome
   trace-event JSON (opens in Perfetto).  Every span names its layer and
   carries the session and section it belongs to; a section of -1 marks a
   span that covers a whole session. *)

type span = {
  name : string;
  t0 : int;
  t1 : int;
  session : int;
  section : int;
  tid : int;
}

let enabled = ref false
let cap = 400_000
let buf : span array ref = ref [||]
let len = ref 0
let dropped = ref 0
let m = Mutex.create ()

let record name ~session ~section t0 t1 =
  if !enabled then begin
    let s = { name; t0; t1; session; section; tid = Thread.id (Thread.self ()) } in
    Mutex.lock m;
    if !len >= cap then incr dropped
    else begin
      if !len = Array.length !buf then begin
        let bigger = Array.make (max 1024 (2 * !len)) s in
        Array.blit !buf 0 bigger 0 !len;
        buf := bigger
      end;
      !buf.(!len) <- s;
      incr len
    end;
    Mutex.unlock m
  end

let count () = !len

let write path =
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  let origin = if !len = 0 then 0 else !buf.(0).t0 in
  for i = 0 to !len - 1 do
    let s = !buf.(i) in
    Printf.fprintf oc
      "%s{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"session\":%d,\"section\":%d}}\n"
      (if i = 0 then "" else ",")
      s.name
      (match String.index_opt s.name '.' with Some k -> String.sub s.name 0 k | None -> s.name)
      s.tid
      (float_of_int (s.t0 - origin) /. 1e3)
      (float_of_int (s.t1 - s.t0) /. 1e3)
      s.session s.section
  done;
  output_string oc "]}\n";
  close_out oc
