type oracle = {
  name : string;
  fn : edge_id:int -> dir:int -> nth:int -> w:int -> float;
}

(* The Obs view deliberately holds the engine's own arrays (clock slot,
   in-flight counters): observing is an array read, never a copy, so
   consulting an adaptive model adds O(1) per send on top of the
   decision procedure itself. *)
module Obs = struct
  type t = {
    m : int;
    clock : float array;  (* engine's one-slot clock *)
    inflight : int array;  (* per directed edge: 2*id + dir *)
  }

  let make ~m ~clock ~inflight = { m; clock; inflight }
  let now t = t.clock.(0)

  let busiest_edge t =
    let best = ref (-1) and best_load = ref 0 in
    for id = 0 to t.m - 1 do
      let load = t.inflight.(2 * id) + t.inflight.((2 * id) + 1) in
      if load > !best_load then begin
        best := id;
        best_load := load
      end
    done;
    !best
end

type adaptive = {
  name : string;
  next_delay : Obs.t -> edge_id:int -> dir:int -> nth:int -> w:int -> float;
}

type t =
  | Exact
  | Uniform of Csap_graph.Rng.t
  | Scaled of float
  | Near_zero
  | Jitter of Csap_graph.Rng.t
  | Oracle of oracle
  | Adaptive of adaptive

let epsilon = 1e-6

(* The sample is stored into [out.(0)] instead of returned: a float
   returned across a non-inlined call is boxed, and the engine's send
   path must not allocate. Each branch stores its result directly (a
   float-array write, unboxed), so the static models (Exact, Scaled,
   Near_zero) produce zero heap words; the RNG and oracle models still
   pay their callee's boxed return. *)
let sample_into t ~edge_id ~dir ~nth ~w out =
  assert (w >= 1);
  let fw = float_of_int w in
  match t with
  | Exact -> out.(0) <- fw
  | Uniform rng ->
    let u = Csap_graph.Rng.float rng in
    (* (0, w]: map [0,1) to (0, w] by flipping the interval. *)
    out.(0) <- (1.0 -. u) *. fw
  | Scaled c ->
    assert (c > 0.0 && c <= 1.0);
    out.(0) <- c *. fw
  | Near_zero -> out.(0) <- epsilon
  | Jitter rng ->
    let u = Csap_graph.Rng.float rng in
    out.(0) <- (0.5 +. (0.5 *. (1.0 -. u))) *. fw
  | Oracle { fn; _ } -> out.(0) <- fn ~edge_id ~dir ~nth ~w
  | Adaptive { name; _ } ->
    invalid_arg
      (Printf.sprintf
         "Delay.sample_into: adaptive model %S is consulted by Engine only"
         name)

let oracle ~name fn = Oracle { name; fn }

let slow_edge target =
  Oracle
    {
      name = Printf.sprintf "slow-edge-%d" target;
      fn =
        (fun ~edge_id ~dir:_ ~nth:_ ~w ->
          if edge_id = target then float_of_int w else epsilon);
    }

let race_crossing =
  Oracle
    {
      name = "race-crossing";
      fn =
        (fun ~edge_id:_ ~dir ~nth:_ ~w ->
          if dir = 0 then float_of_int w else epsilon);
    }

(* splitmix64 finalizer; the per-message seeded oracle hashes
   (seed, edge, dir, nth) so the delay of a message depends only on its
   identity, never on the global sampling order — which is what makes
   seeded schedules shardable across domains and replayable. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let golden = 0x9e3779b97f4a7c15L

let hash4 a b c d =
  let feed acc v =
    mix64 (Int64.add (Int64.logxor acc (Int64.of_int v)) golden)
  in
  feed (feed (feed (feed golden a) b) c) d

(* Top 53 bits -> [0, 1). *)
let to_unit h =
  Int64.to_float (Int64.shift_right_logical h 11) *. (1.0 /. 9007199254740992.0)

let hash_unit a b c d = to_unit (hash4 a b c d)

let seeded seed =
  Oracle
    {
      name = Printf.sprintf "seeded-%d" seed;
      fn =
        (fun ~edge_id ~dir ~nth ~w ->
          let u = to_unit (hash4 seed edge_id dir nth) in
          (1.0 -. u) *. float_of_int w);
    }

let order_independent = function
  | Exact | Scaled _ | Near_zero | Oracle _ -> true
  | Uniform _ | Jitter _ | Adaptive _ -> false

let lower_bound t ~w =
  let fw = float_of_int w in
  match t with
  | Exact -> Some fw
  | Scaled c -> Some (c *. fw)
  | Near_zero -> Some epsilon
  | Jitter _ -> Some (0.5 *. fw)
  | Uniform _ ->
    (* (0, w]: the infimum 0 is open, so no positive static bound. *)
    None
  | Oracle _ | Adaptive _ -> None

let pp ppf = function
  | Exact -> Format.fprintf ppf "exact"
  | Uniform _ -> Format.fprintf ppf "uniform(0,w]"
  | Scaled c -> Format.fprintf ppf "scaled(%g)" c
  | Near_zero -> Format.fprintf ppf "near-zero"
  | Jitter _ -> Format.fprintf ppf "jitter[w/2,w]"
  | Oracle { name; _ } -> Format.fprintf ppf "oracle(%s)" name
  | Adaptive { name; _ } -> Format.pp_print_string ppf name

(* ---- built-in adaptive models ----------------------------------------- *)

let greedy_commax () =
  Adaptive
    {
      name = "greedy-commax";
      next_delay =
        (fun obs ~edge_id ~dir:_ ~nth:_ ~w ->
          (* Stall where the work already is — in-flight copies pile up
             behind the FIFO stamp — and rush everything else, so
             contention concentrates on one edge at a time. A send on an
             idle network stalls its own edge (it is about to be the
             busiest). *)
          let busiest = Obs.busiest_edge obs in
          if busiest < 0 || busiest = edge_id then float_of_int w
          else epsilon);
    }

let time_stretcher () =
  (* One-slot frontier (a float array, not a ref: unboxed store) — the
     latest arrival time this adversary has committed to so far. *)
  let frontier = [| 0.0 |] in
  Adaptive
    {
      name = "time-stretcher";
      next_delay =
        (fun obs ~edge_id:_ ~dir:_ ~nth:_ ~w ->
          let full = Obs.now obs +. float_of_int w in
          if full >= frontier.(0) then begin
            (* This send can push the completion frontier: take the whole
               admissible window. *)
            frontier.(0) <- full;
            float_of_int w
          end
          else
            (* Already overtaken — rushing it cannot shorten the run. *)
            epsilon);
    }

let adaptive_specs = [ "greedy"; "stretch" ]

let adaptive_of_spec = function
  | "greedy" -> Ok (greedy_commax ())
  | "stretch" -> Ok (time_stretcher ())
  | s ->
    Error
      (Printf.sprintf
         "unknown adversary spec %S (expected one of: %s)" s
         (String.concat ", " adaptive_specs))
