type kind =
  | Send
  | Deliver
  | Local
  | Dropped
  | Dup
  | Decision

type event = {
  kind : kind;
  time : float;
  seq : int;
  edge : int;
  dir : int;
  nth : int;
  src : int;
  dst : int;
  delay : float;
}

let dummy_event =
  {
    kind = Local;
    time = 0.0;
    seq = 0;
    edge = -1;
    dir = -1;
    nth = -1;
    src = -1;
    dst = -1;
    delay = 0.0;
  }

(* An append-only buffer (doubling array). *)
type t = {
  mutable buf : event array;
  mutable len : int;
}

let create () = { buf = [||]; len = 0 }

let length t = t.len

let add t ev =
  let cap = Array.length t.buf in
  if t.len = cap then begin
    let buf = Array.make (max 64 (2 * cap)) dummy_event in
    Array.blit t.buf 0 buf 0 t.len;
    t.buf <- buf
  end;
  t.buf.(t.len) <- ev;
  t.len <- t.len + 1

let events t = Array.sub t.buf 0 t.len

let iter f t =
  for i = 0 to t.len - 1 do
    f t.buf.(i)
  done

let equal a b = a.len = b.len && events a = events b

(* An adaptive run's trace interleaves Decision records with the events
   proper; its oblivious replay emits none, so replay comparisons strip
   them first. *)
let without_decisions t =
  let r = create () in
  iter (fun ev -> match ev.kind with Decision -> () | _ -> add r ev) t;
  r

let decisions t =
  Array.of_seq
    (Seq.filter (fun ev -> ev.kind = Decision) (Array.to_seq (events t)))

(* ---- JSONL ------------------------------------------------------------ *)

let kind_of_string = function
  | "send" -> Send
  | "deliver" -> Deliver
  | "local" -> Local
  | "dropped" -> Dropped
  | "dup" -> Dup
  | "decision" -> Decision
  | s -> invalid_arg (Printf.sprintf "unknown kind %S" s)

(* ---- writer -------------------------------------------------------------

   The output is byte-for-byte what
   [Printf.sprintf "{\"kind\":\"%s\",\"time\":%.17g,\"seq\":%d,...,\"delay\":%.17g}"]
   printed (%.17g round-trips every finite double; the engine rejects
   non-finite delays so no nan/inf ever reaches the writer), without
   Printf's format interpreter: the key text is constant, ints go through
   a digit loop, and floats take one of three routes. *)

external format_float : string -> float -> string = "caml_format_float"

(* The last float printed in one field, keyed on its bits (so 0.0 and
   -0.0 differ). A Decision shares its Send's time and delay, and the
   sends of one handler share the time of the delivery that ran it, so
   most floats repeat the previous record's. *)
type memo = { mutable bits : int64; mutable text : string }

type writer = {
  buf : Buffer.t;
  digits : Bytes.t;  (* scratch for [add_int]: sign + 19 digits of min_int *)
  time_memo : memo;
  delay_memo : memo;
}

let writer buf =
  {
    buf;
    digits = Bytes.create 20;
    time_memo = { bits = 0L; text = "0" };
    delay_memo = { bits = 0L; text = "0" };
  }

(* Digits right to left, accumulated as a non-positive number so that
   min_int needs no special case. *)
let add_int w n =
  if n >= 0 && n < 10 then Buffer.add_char w.buf (Char.unsafe_chr (48 + n))
  else begin
    let i = ref (Bytes.length w.digits) and m = ref (if n < 0 then n else -n) in
    while !m <> 0 do
      decr i;
      Bytes.unsafe_set w.digits !i (Char.unsafe_chr (48 - (!m mod 10)));
      m := !m / 10
    done;
    if n < 0 then begin
      decr i;
      Bytes.unsafe_set w.digits !i '-'
    end;
    Buffer.add_subbytes w.buf w.digits !i (Bytes.length w.digits - !i)
  end

(* An integral float below 1e15 in magnitude has at most 15 digits, so
   %.17g prints it exactly, with neither a point nor an exponent — the
   digits of its int value. -0.0 (bits = min_int) prints as "-0", so it
   takes the general route. *)
let add_float w memo x =
  let bits = Int64.bits_of_float x in
  if Int64.equal bits memo.bits then Buffer.add_string w.buf memo.text
  else if
    Float.is_integer x && Float.abs x < 1e15
    && not (Int64.equal bits Int64.min_int)
  then add_int w (Float.to_int x)
  else begin
    let text = format_float "%.17g" x in
    memo.bits <- bits;
    memo.text <- text;
    Buffer.add_string w.buf text
  end

let kind_prefix = function
  | Send -> "{\"kind\":\"send\",\"time\":"
  | Deliver -> "{\"kind\":\"deliver\",\"time\":"
  | Local -> "{\"kind\":\"local\",\"time\":"
  | Dropped -> "{\"kind\":\"dropped\",\"time\":"
  | Dup -> "{\"kind\":\"dup\",\"time\":"
  | Decision -> "{\"kind\":\"decision\",\"time\":"

let write_event w ev =
  let b = w.buf in
  Buffer.add_string b (kind_prefix ev.kind);
  add_float w w.time_memo ev.time;
  Buffer.add_string b ",\"seq\":";
  add_int w ev.seq;
  Buffer.add_string b ",\"edge\":";
  add_int w ev.edge;
  Buffer.add_string b ",\"dir\":";
  add_int w ev.dir;
  Buffer.add_string b ",\"nth\":";
  add_int w ev.nth;
  Buffer.add_string b ",\"src\":";
  add_int w ev.src;
  Buffer.add_string b ",\"dst\":";
  add_int w ev.dst;
  Buffer.add_string b ",\"delay\":";
  add_float w w.delay_memo ev.delay;
  Buffer.add_string b "}\n"

let to_jsonl t =
  let w = writer (Buffer.create (64 * (t.len + 1))) in
  iter (write_event w) t;
  Buffer.contents w.buf

(* Streams in ~64 KB chunks: memory stays bounded whatever the trace's
   length. *)
let chunk = 65536

let save_jsonl t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let w = writer (Buffer.create (chunk + 256)) in
      iter
        (fun ev ->
          write_event w ev;
          if Buffer.length w.buf >= chunk then begin
            Buffer.output_buffer oc w.buf;
            Buffer.clear w.buf
          end)
        t;
      Buffer.output_buffer oc w.buf)

(* ---- reader -------------------------------------------------------------

   Accepts exactly the writer's shape: the fixed keys in the fixed order,
   no whitespace, nothing after the closing brace, and numbers in the
   JSON syntax the writer emits ([-]digits, then for floats an optional
   fraction and a lowercase, signed exponent) — no '+', '_', hex or
   nan/inf. *)

exception Malformed

let event_of_json line =
  let n = String.length line in
  let pos = ref 0 in
  let peek c = !pos < n && line.[!pos] = c in
  let lit s =
    let l = String.length s in
    if !pos + l <= n && String.sub line !pos l = s then pos := !pos + l
    else raise Malformed
  in
  let digits () =
    let start = !pos in
    while !pos < n && line.[!pos] >= '0' && line.[!pos] <= '9' do
      incr pos
    done;
    if !pos = start then raise Malformed
  in
  let number ~float =
    let start = !pos in
    if peek '-' then incr pos;
    if peek '0' then incr pos else digits ();
    if float then begin
      if peek '.' then begin
        incr pos;
        digits ()
      end;
      if peek 'e' then begin
        incr pos;
        if peek '+' || peek '-' then incr pos else raise Malformed;
        digits ()
      end
    end;
    String.sub line start (!pos - start)
  in
  let int key =
    lit key;
    match int_of_string_opt (number ~float:false) with
    | Some i -> i
    | None -> raise Malformed (* out of range *)
  in
  let float key =
    lit key;
    let x = float_of_string (number ~float:true) in
    if Float.is_finite x then x else raise Malformed (* e.g. 1e999 *)
  in
  match
    lit "{\"kind\":\"";
    let kind =
      match String.index_from_opt line !pos '"' with
      | Some q ->
        let k = String.sub line !pos (q - !pos) in
        pos := q + 1;
        k
      | None -> raise Malformed
    in
    let time = float ",\"time\":" in
    let seq = int ",\"seq\":" in
    let edge = int ",\"edge\":" in
    let dir = int ",\"dir\":" in
    let nth = int ",\"nth\":" in
    let src = int ",\"src\":" in
    let dst = int ",\"dst\":" in
    let delay = float ",\"delay\":" in
    lit "}";
    if !pos <> n then raise Malformed;
    (kind, time, seq, edge, dir, nth, src, dst, delay)
  with
  | kind, time, seq, edge, dir, nth, src, dst, delay ->
    { kind = kind_of_string kind; time; seq; edge; dir; nth; src; dst; delay }
  | exception Malformed -> invalid_arg (Printf.sprintf "unparsable line %S" line)

(* Parse errors carry the 1-based line number (and the filename, when the
   input came from a file): a checkpoint-resume reading a half-written
   JSONL must be able to say exactly where the corruption starts. *)
let of_jsonl ?file s =
  let t = create () in
  List.iteri
    (fun i raw ->
      let line = String.trim raw in
      if line <> "" then
        match event_of_json line with
        | ev -> add t ev
        | exception Invalid_argument msg ->
          let where =
            match file with
            | None -> Printf.sprintf "line %d" (i + 1)
            | Some f -> Printf.sprintf "%s: line %d" f (i + 1)
          in
          invalid_arg (Printf.sprintf "Trace.of_jsonl: %s: %s" where msg))
    (String.split_on_char '\n' s);
  t

let load_jsonl path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_jsonl ~file:path (really_input_string ic n))

(* ---- replay ----------------------------------------------------------- *)

let recorded t =
  let tbl = Hashtbl.create (max 16 t.len) in
  iter
    (fun ev ->
      match ev.kind with
      (* Decision records (adaptive adversaries) carry the same delay as
         the Send they precede, so a trace filtered down to decisions
         alone still replays; on a full trace the Send overwrite is a
         no-op. *)
      | Send | Decision ->
        Hashtbl.replace tbl ((2 * ev.edge) + ev.dir, ev.nth) ev.delay
      (* Dropped sends never sampled the delay model and Dup copies take
         their delay from the fault plan, so neither feeds the oracle:
         replaying under the same plan reproduces both without it. *)
      | Deliver | Local | Dropped | Dup -> ())
    t;
  Delay.oracle ~name:"recorded" (fun ~edge_id ~dir ~nth ~w:_ ->
      match Hashtbl.find_opt tbl ((2 * edge_id) + dir, nth) with
      | Some d -> d
      | None ->
        invalid_arg
          (Printf.sprintf
             "Trace.recorded: no recorded send for edge %d dir %d nth %d \
              (replayed execution diverged from the recording)"
             edge_id dir nth))

(* ---- ambient collection ---------------------------------------------- *)

(* Protocol entry points build their engines internally, so the explorer
   cannot thread a trace in by hand. The collector is a domain-local
   scope: every engine created inside [with_collector f] registers a
   fresh buffer (see [Engine.create]) and the scope returns them in
   creation order. Domain-local (not global) so pool workers exploring
   different schedules never share a collector. *)
type collector = { mutable traces : t list (* reverse creation order *) }

let collector_key : collector option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let register () =
  let slot = Domain.DLS.get collector_key in
  match !slot with
  | None -> None
  | Some c ->
    let tr = create () in
    c.traces <- tr :: c.traces;
    Some tr

let with_collector f =
  let slot = Domain.DLS.get collector_key in
  let prev = !slot in
  let c = { traces = [] } in
  slot := Some c;
  match f () with
  | r ->
    slot := prev;
    (r, List.rev c.traces)
  | exception e ->
    slot := prev;
    raise e
