module P = Csap.Protocol

type t = {
  protocol : string;
  family : string;
  n : int;
  w : int;
  seed : int;
  root : int;
  delay : string option;
  adversary : string option;
  loss : float;
  dup : float;
  fault_seed : int;
  reliable : bool;
  pulses : int option;
  strip : int option;
  k : int option;
  q : float option;
  domains : int option;
  trace : string option;
  check : bool;
}

let make ?(family = "random") ?(n = 16) ?(w = 8) ?(seed = 1) ?(root = 0)
    ?delay ?adversary ?(loss = 0.0) ?(dup = 0.0) ?(fault_seed = 1)
    ?(reliable = false) ?pulses ?strip ?k ?q ?domains ?trace ?(check = true)
    protocol =
  {
    protocol;
    family;
    n;
    w;
    seed;
    root;
    delay;
    adversary;
    loss;
    dup;
    fault_seed;
    reliable;
    pulses;
    strip;
    k;
    q;
    domains;
    trace;
    check;
  }

(* ------------------------------------------------------------------ *)
(* Canonical serialisation                                             *)

let to_json c =
  (* Fixed field order, [None]s omitted: the digest below hashes this
     text, so equal cells must serialise byte-identically. *)
  let opt_int name v rest =
    match v with None -> rest | Some i -> (name, Jsonx.Int i) :: rest
  in
  let fields =
    [ ("protocol", Jsonx.Str c.protocol); ("family", Jsonx.Str c.family);
      ("n", Jsonx.Int c.n); ("w", Jsonx.Int c.w); ("seed", Jsonx.Int c.seed);
      ("root", Jsonx.Int c.root) ]
    @ (match c.delay with
      | None -> []
      | Some d -> [ ("delay", Jsonx.Str d) ])
    @ (match c.adversary with
      | None -> []
      | Some a -> [ ("adversary", Jsonx.Str a) ])
    @ [ ("loss", Jsonx.Float c.loss); ("dup", Jsonx.Float c.dup);
        ("fault_seed", Jsonx.Int c.fault_seed);
        ("reliable", Jsonx.Bool c.reliable) ]
    @ opt_int "pulses" c.pulses
        (opt_int "strip" c.strip
           (opt_int "k" c.k
              ((match c.q with
               | None -> []
               | Some q -> [ ("q", Jsonx.Float q) ])
              @ opt_int "domains" c.domains
                  ((match c.trace with
                   | None -> []
                   | Some t -> [ ("trace", Jsonx.Str t) ])
                  @ [ ("check", Jsonx.Bool c.check) ]))))
  in
  Jsonx.to_string (Jsonx.Obj fields)

(* Every key [to_json] can write, with the JSON type its value must
   have. [of_json] rejects any other key and any mistyped value instead
   of silently falling back to a default. *)
type kind = K_int | K_num | K_str | K_bool

let field_kinds =
  [ ("protocol", K_str); ("family", K_str); ("n", K_int); ("w", K_int);
    ("seed", K_int); ("root", K_int); ("delay", K_str);
    ("adversary", K_str); ("loss", K_num); ("dup", K_num);
    ("fault_seed", K_int); ("reliable", K_bool); ("pulses", K_int);
    ("strip", K_int); ("k", K_int); ("q", K_num); ("domains", K_int);
    ("trace", K_str); ("check", K_bool) ]

let field_error (k, v) =
  match (List.assoc_opt k field_kinds, v) with
  | None, _ -> Some (Printf.sprintf "cell: unknown field %S" k)
  | Some K_int, Jsonx.Int _
  | Some K_num, (Jsonx.Int _ | Jsonx.Float _)
  | Some K_str, Jsonx.Str _
  | Some K_bool, Jsonx.Bool _ ->
    None
  | Some kind, _ ->
    let expected =
      match kind with
      | K_int -> "an int"
      | K_num -> "a number"
      | K_str -> "a string"
      | K_bool -> "a bool"
    in
    Some (Printf.sprintf "cell: field %S: expected %s" k expected)

let of_json s =
  match Jsonx.parse s with
  | Error e -> Error ("cell: " ^ e)
  | Ok (Jsonx.Obj kvs as j) -> (
    let m k = Jsonx.member k j in
    let int k d = Option.value ~default:d (Jsonx.to_int (m k)) in
    let flt k d = Option.value ~default:d (Jsonx.to_float (m k)) in
    let bool k d = Option.value ~default:d (Jsonx.to_bool (m k)) in
    match (List.find_map field_error kvs, Jsonx.to_str (m "protocol")) with
    | Some e, _ -> Error e
    | None, None -> Error "cell: missing \"protocol\" field"
    | None, Some protocol ->
      Ok
        {
          protocol;
          family = Option.value ~default:"random" (Jsonx.to_str (m "family"));
          n = int "n" 16;
          w = int "w" 8;
          seed = int "seed" 1;
          root = int "root" 0;
          delay = Jsonx.to_str (m "delay");
          adversary = Jsonx.to_str (m "adversary");
          loss = flt "loss" 0.0;
          dup = flt "dup" 0.0;
          fault_seed = int "fault_seed" 1;
          reliable = bool "reliable" false;
          pulses = Jsonx.to_int (m "pulses");
          strip = Jsonx.to_int (m "strip");
          k = Jsonx.to_int (m "k");
          q = Jsonx.to_float (m "q");
          domains = Jsonx.to_int (m "domains");
          trace = Jsonx.to_str (m "trace");
          check = bool "check" true;
        })
  | Ok _ -> Error "cell: expected a JSON object"

let digest c = Digest.to_hex (Digest.string (to_json c))

(* ------------------------------------------------------------------ *)
(* Graph and delay construction (the CLI's vocabulary)                 *)

let graph c =
  let rng = Csap_graph.Rng.create c.seed in
  let n = c.n and w = c.w in
  match c.family with
  | "path" -> Csap_graph.Generators.path n ~w
  | "cycle" -> Csap_graph.Generators.cycle n ~w
  | "star" -> Csap_graph.Generators.star n ~w
  | "complete" -> Csap_graph.Generators.complete n ~w
  | "grid" ->
    let side = max 2 (int_of_float (sqrt (float_of_int n))) in
    Csap_graph.Generators.grid side side ~w
  | "random" ->
    Csap_graph.Generators.random_connected rng n ~extra_edges:(2 * n) ~wmax:w
  | "geometric" ->
    Csap_graph.Generators.random_geometric rng n ~degree:4
      ~scale:(float_of_int (10 * w))
  | "gn" -> Csap_graph.Generators.lower_bound_gn n ~x:(max 2 w)
  | "chorded" -> Csap_graph.Generators.chorded_cycle n ~chord_w:w
  | "bkj" -> Csap_graph.Generators.bkj_star_cycle n ~heavy:w
  | _ -> invalid_arg ("unknown family: " ^ c.family)

(* A [--delay]-style spec. *)
let delay_of_spec spec =
  let prefixed p =
    let lp = String.length p in
    if String.length spec > lp && String.sub spec 0 lp = p then
      Some (String.sub spec lp (String.length spec - lp))
    else None
  in
  match spec with
  | "exact" -> Ok Csap_dsim.Delay.Exact
  | "near-zero" -> Ok Csap_dsim.Delay.Near_zero
  | "race" -> Ok Csap_dsim.Delay.race_crossing
  | _ -> (
    match prefixed "scaled:" with
    | Some c -> (
      match float_of_string_opt c with
      | Some c when c > 0.0 && c <= 1.0 -> Ok (Csap_dsim.Delay.Scaled c)
      | _ -> Error "scaled: factor must be a float in (0, 1]")
    | None -> (
      match prefixed "seeded:" with
      | Some s -> (
        match int_of_string_opt s with
        | Some s -> Ok (Csap_dsim.Delay.seeded s)
        | None -> Error "seeded: seed must be an integer")
      | None -> (
        match prefixed "slow-edge:" with
        | Some id -> (
          match int_of_string_opt id with
          | Some id when id >= 0 -> Ok (Csap_dsim.Delay.slow_edge id)
          | _ -> Error "slow-edge: edge id must be a non-negative int")
        | None ->
          Error
            (Printf.sprintf
               "unknown delay spec %S (exact | near-zero | race | scaled:C \
                | seeded:N | slow-edge:ID)"
               spec))))

(* The cell's delay model, or the first problem with its loss, dup,
   delay or adversary spec. *)
let delay_model c =
  let spec =
    if c.loss < 0.0 || c.loss >= 1.0 then
      Error "loss must be a probability in [0, 1)"
    else if c.dup < 0.0 || c.dup >= 1.0 then
      Error "dup must be a probability in [0, 1)"
    else
      match c.delay with
      | None -> Ok None
      | Some spec -> Result.map Option.some (delay_of_spec spec)
  in
  (* The adversary spec is the cell's adaptive delay model, so the two
     fields are alternatives. *)
  match (spec, c.adversary) with
  | (Error _ as e), _ | e, None -> e
  | Ok delay, Some a -> (
    match (delay, Csap_dsim.Delay.adaptive_of_spec a) with
    | _, (Error _ as e) -> e
    | Some _, Ok _ ->
      Error (c.protocol ^ ": adversary: conflicts with an explicit delay model")
    | None, Ok d -> Ok (Some d))

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

type error =
  | Unknown_protocol of string
  | Bad_spec of string
  | Invariant_failed of string
  | Execution_error of string

let error_message = function
  | Unknown_protocol name -> Printf.sprintf "unknown protocol %S" name
  | Bad_spec msg -> msg
  | Invariant_failed msg -> "invariant FAILED: " ^ msg
  | Execution_error msg -> msg

let error_exit_code = function
  | Invariant_failed _ -> 1
  | Unknown_protocol _ -> 2
  | Bad_spec _ -> 3
  | Execution_error _ -> 4

type outcome = {
  result : (P.Outcome.t, error) result;
  wall_ms : float;
}

(* Everything [run] checks before executing: [csap_cli submit] spools a
   cell only when this passes, so no spooled cell fails on its spec. *)
let prepare ?graph:pre c =
  match P.find c.protocol with
  | None -> Error (Unknown_protocol c.protocol)
  | Some entry -> (
    match delay_model c with
    | Error msg -> Error (Bad_spec msg)
    | Ok delay -> (
      match (match pre with Some g -> g | None -> graph c) with
      | exception Invalid_argument msg -> Error (Bad_spec msg)
      | g -> (
        let faults =
          if c.loss > 0.0 || c.dup > 0.0 then
            Some (Csap_dsim.Fault.seeded ~loss:c.loss ~dup:c.dup c.fault_seed)
          else None
        in
        let cfg =
          P.Run.make ~root:c.root ?delay ?faults ~reliable:c.reliable
            ?trace:c.trace ?pulses:c.pulses ?strip:c.strip ?k:c.k ?q:c.q
            ?domains:c.domains g
        in
        (* [validate] rejects roots out of range and capability
           mismatches with [Invalid_argument]: a bad spec, not a bug. *)
        match P.validate entry cfg with
        | () -> Ok (entry, cfg)
        | exception Invalid_argument msg -> Error (Bad_spec msg))))

let run ?graph c =
  let t0 = Unix.gettimeofday () in
  let finish result =
    { result; wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 }
  in
  match prepare ?graph c with
  | Error e -> finish (Error e)
  | Ok (entry, cfg) -> (
    match P.execute entry cfg with
    | exception Invalid_argument msg -> finish (Error (Bad_spec msg))
    | exception e -> finish (Error (Execution_error (Printexc.to_string e)))
    | o ->
      if c.check then
        let (module M : P.S) = entry in
        match M.invariant cfg o with
        | Ok () -> finish (Ok o)
        | Error msg -> finish (Error (Invariant_failed msg))
        | exception e -> finish (Error (Execution_error (Printexc.to_string e)))
      else finish (Ok o))
