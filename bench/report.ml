(* Table-printing helpers shared by the per-figure benchmarks, plus the
   deferred-figure model that the parallel harness in [main.ml] runs.

   Each bench regenerates one of the paper's figures: it prints the same
   rows the figure states, with measured weighted costs next to the bound
   evaluated on the instance, so the *shape* (who wins, by what factor,
   where the crossovers fall) can be read off directly.

   A figure is declared as a list of independent *jobs* — one per
   (family, n) cell — and a render function that consumes the results in
   declaration order. Jobs carry no shared mutable state, so the pool in
   [main.ml] can run them on OCaml 5 domains in any order and the
   rendered tables are byte-identical to a sequential run. *)

let heading id title = Format.printf "@.==== %s: %s ====@." id title

let subheading text = Format.printf "-- %s@." text

type cell =
  | Int of int
  | Float of float
  | Str of string

let cell_to_string = function
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_nan f then "-"
    else if Float.abs f >= 100.0 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.2f" f
  | Str s -> s

let table ~columns rows =
  let widths =
    List.mapi
      (fun i name ->
        List.fold_left
          (fun acc row ->
            max acc (String.length (cell_to_string (List.nth row i))))
          (String.length name) rows)
      columns
  in
  let print_row cells =
    List.iteri
      (fun i cell ->
        Format.printf "%*s  " (List.nth widths i) (cell_to_string cell))
      cells;
    Format.printf "@."
  in
  print_row (List.map (fun name -> Str name) columns);
  List.iter print_row rows

(* Ratio of a measurement against a bound: the headline number for shape
   checks ("stays flat across the sweep" = matching asymptotics). *)
let ratio measured bound = if bound <= 0.0 then nan else measured /. bound

let log2 x = log x /. log 2.0

(* ---- deferred figures ------------------------------------------------- *)

(* One independent unit of benchmark work: typically a single (family, n)
   table row. [run] must be self-contained — it may build graphs and run
   protocols but must not print or touch shared mutable state. It returns
   a list of rows (usually one). *)
type job = {
  label : string;
  run : unit -> cell list list;
}

type figure = {
  id : string;
  title : string;
  jobs : job list;
  (* [render results] prints the figure body (everything after the
     heading); [results.(i)] holds job [i]'s rows. *)
  render : cell list list array -> unit;
}

let job label run = { label; run }

(* A job wrapping a single row. *)
let row_job label run = { label; run = (fun () -> [ run () ]) }

(* Concatenate the rows of every job result, in job order: the common
   render pattern for figures that are exactly one table. *)
let all_rows results = List.concat (Array.to_list results)

(* ---- JSON emission ---------------------------------------------------- *)
(* Through the farm's codec: exact [%.17g] floats, NaN and infinities as
   [null]. Figure rows are a pure function of the code, so a figure run
   writes the same bytes at any pool width; only the opt-in micro pairs
   are measurements. *)

module J = Csap_farm.Jsonx

let json_of_cell = function
  | Int i -> J.Int i
  | Float f -> J.Float f
  | Str s -> J.Str s

(* The BENCH_RESULTS.json document: [figures] pairs each figure with its
   per-job rows in declaration order; [micro] holds (name, value) pairs. *)
let to_json figures micro =
  let row r = J.Arr (List.map json_of_cell r) in
  let cell job rows =
    J.Obj [ ("label", J.Str job.label); ("rows", J.Arr (List.map row rows)) ]
  in
  let figure (fig, results) =
    J.Obj
      [
        ("id", J.Str fig.id);
        ("title", J.Str fig.title);
        ("cells", J.Arr (List.map2 cell fig.jobs (Array.to_list results)));
      ]
  in
  let micro_row (name, v) =
    J.Obj [ ("name", J.Str name); ("value", J.Float v) ]
  in
  J.to_string
    (J.Obj
       [
         ("harness", J.Str "csap-bench");
         ("figures", J.Arr (List.map figure figures));
         ("micro", J.Arr (List.map micro_row micro));
       ])
