(* Monotonic time and sample sets: medians and the tail percentile, taken
   over the samples of the measured time slices in which the hypervisor
   stole little CPU. *)

let now () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now () - t0) /. 1e9

(* The aggregate "cpu" line of /proc/stat: (total, steal) jiffies. *)
let cpu_jiffies () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | ic ->
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    let fields = List.filter_map int_of_string_opt (String.split_on_char ' ' line) in
    (List.fold_left ( + ) 0 fields, Option.value (List.nth_opt fields 7) ~default:0)

let steal_share (t0, s0) (t1, s1) =
  if t1 > t0 then float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.0

(* Host steal, slice by slice.  On a shared host the hypervisor takes the
   CPU away in bursts; a burst slows every layer at once and says nothing
   about the program.  The measured phase is cut into slices of about a
   second (see [tick]); every sample is tagged with its slice, and the
   statistics below use only the slices whose steal share is at most
   [max 3% (median slice steal)]: all of them on a quiet host, the
   quieter half on a busy one.  Samples taken outside a measured phase
   (set-up, for one) are always used. *)
module Steal = struct
  let current = ref (-1)
  let next = ref 0
  let opened = ref (0, (0, 0))
  let shares : (int * float) list ref = ref []
  let slice_ns = 1_000_000_000

  let open_slice () =
    current := !next;
    incr next;
    opened := (now (), cpu_jiffies ())

  let close_slice () =
    if !current >= 0 then begin
      shares := (!current, steal_share (snd !opened) (cpu_jiffies ())) :: !shares;
      current := -1
    end

  let start () = open_slice ()

  (* Called from the measurement loops: starts a new slice once the
     current one has lasted [slice_ns]. *)
  let tick () =
    if !current >= 0 && now () - fst !opened >= slice_ns then begin
      close_slice ();
      open_slice ()
    end

  let stop () = close_slice ()

  let threshold () =
    let a = Array.of_list (List.map snd !shares) in
    Array.sort compare a;
    if a = [||] then 1.0 else Float.max 0.03 a.((Array.length a - 1) / 2)

  (* Kept slices, indexed by slice id. *)
  let kept () =
    let th = threshold () and k = Array.make !next false in
    List.iter (fun (id, s) -> if s <= th then k.(id) <- true) !shares;
    k

  let summary () =
    let k = kept () in
    (List.length !shares, Array.fold_left (fun n b -> if b then n + 1 else n) 0 k, threshold ())
end

type t = { mutable data : float array; mutable slices : int array; mutable len : int }

let create () = { data = Array.make 1024 0.0; slices = Array.make 1024 0; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let grow a fill =
      let bigger = Array.make (2 * t.len) fill in
      Array.blit a 0 bigger 0 t.len;
      bigger
    in
    t.data <- grow t.data 0.0;
    t.slices <- grow t.slices 0
  end;
  t.data.(t.len) <- x;
  t.slices.(t.len) <- !Steal.current;
  t.len <- t.len + 1

(* Over every sample, kept or not. *)
let length t = t.len
let sum t = Array.fold_left ( +. ) 0.0 (Array.sub t.data 0 t.len)

(* The samples the statistics use, sorted. *)
let sorted t =
  let kept = Steal.kept () in
  let l = ref [] in
  for i = t.len - 1 downto 0 do
    if t.slices.(i) < 0 || kept.(t.slices.(i)) then l := t.data.(i) :: !l
  done;
  let a = Array.of_list !l in
  Array.sort compare a;
  a

let count t = Array.length (sorted t)

let mean t =
  let a = sorted t in
  Array.fold_left ( +. ) 0.0 a /. float_of_int (max 1 (Array.length a))

(* Nearest-rank percentile, [p] in [0, 100]. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median t = percentile_sorted (sorted t) 50.0

(* The tail is the highest percentile of this ladder that still has at
   least ten samples beyond it; the ladder's steps are a factor of ten
   apart so a run-to-run change in the sample count rarely moves the
   percentile a metric reports. *)
let ladder = [ 99.9; 99.0; 90.0; 50.0 ]

let tail t =
  let a = sorted t in
  let n = float_of_int (Array.length a) in
  let p =
    match List.find_opt (fun p -> n *. (1.0 -. (p /. 100.0)) >= 10.0) ladder with
    | Some p -> p
    | None -> 50.0
  in
  (p, percentile_sorted a p)
