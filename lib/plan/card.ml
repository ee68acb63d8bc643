open Arc_core.Ast
module Stats = Arc_relation.Stats
module V = Arc_value.Value

(* The statistics-driven cardinality model. Replaces [Ir.estimate]'s magic
   shifts with selectivity arithmetic over per-relation column statistics:
   equality through MCVs and distinct counts, ranges through equi-depth
   histograms, join cardinality through distinct-count overlap
   (|L|·|R| / max(d_l, d_r), zero when key ranges are disjoint), and
   independence across conjuncts.

   Every estimate carries a provenance tag so misestimates are
   attributable: [Exact] (true base cardinalities, no guessing involved),
   [Stats] (every selectivity decision backed by statistics), [Heuristic]
   (no statistics contributed anywhere below), [Mixed] (some of each).

   Compatibility invariant, tested in [test_stats.ml]: a [Heuristic] node
   reports {e exactly} [Ir.estimate]'s number — with no statistics in the
   environment this model degrades to the historical estimator, so plans
   and explain output only change once [ANALYZE] has run. *)

type env = (rel_name * Stats.t) list

type src = Exact | Stats | Stale | Heuristic | Mixed

type est = { rows : float; src : src }

let src_name = function
  | Exact -> "exact"
  | Stats -> "stats"
  | Stale -> "stale"
  | Heuristic -> "heuristic"
  | Mixed -> "mixed"

(* [Exact] is the identity: it never degrades a neighbour. [Stale] is
   sticky: any estimate that leaned on post-ANALYZE-drift statistics stays
   flagged, so [arc analyze] can attribute misestimates to stale details.
   Anything else mixing statistics with guesswork is [Mixed]. *)
let meet a b =
  match (a, b) with
  | Exact, x | x, Exact -> x
  | Stale, _ | _, Stale -> Stale
  | Heuristic, Heuristic -> Heuristic
  | Stats, Stats -> Stats
  | _ -> Mixed

let cap = 1e9

let rows { rows; _ } =
  if Float.is_nan rows then 1
  else max 1 (int_of_float (Float.min cap rows))

(* ------------------------------------------------------------------ *)
(* Column resolution                                                   *)
(* ------------------------------------------------------------------ *)

(* A scan map assigns plan variables to the base relations that bind them;
   [Attr (v, a)] then resolves to column statistics. Stale statistics keep
   their row count trustworthy but not their column details. *)
let rec scan_map (t : Ir.t) : (var * rel_name) list =
  match t with
  | One -> []
  | Scan { var; rel; _ } -> [ (var, rel) ]
  | Subquery _ -> []
  | Lateral { input; _ } -> scan_map input
  | Product { left; right } | Hash_join { left; right; _ } ->
      scan_map left @ scan_map right
  | Filter { input; _ }
  | Residual { input; _ }
  | Semi { input; _ }
  | Prune { input; _ } ->
      scan_map input
  | Append ts -> List.concat_map scan_map ts
  | Resolve { input; binding; _ } -> (
      match binding.source with
      | Base n -> (binding.var, n) :: scan_map input
      | Nested _ -> scan_map input)

let resolve_col env smap = function
  | Attr (v, a) -> (
      match List.assoc_opt v smap with
      | None -> None
      | Some rel -> (
          match List.assoc_opt rel env with
          | Some s -> (
              match Stats.col s a with
              | Some c -> Some (s, c)
              | None -> None)
          | None -> None))
  | _ -> None

(* Stale column details are not discarded — they are discounted: the
   grounded selectivity is blended toward [default] (the heuristic for the
   context) by the relative row-count drift since ANALYZE. Fresh statistics
   have zero drift, so the blend is the identity. Returns the blended
   selectivity and whether any contributing statistics were stale. *)
let blend ss ~default sel =
  let w = List.fold_left (fun acc s -> Float.max acc (Stats.drift s)) 0.0 ss in
  let stale = List.exists (fun s -> s.Stats.s_stale) ss in
  (((1.0 -. w) *. sel) +. (w *. default), stale)

(* ------------------------------------------------------------------ *)
(* Predicate selectivity                                               *)
(* ------------------------------------------------------------------ *)

let clamp01 f = Float.max 0.0 (Float.min 1.0 f)

(* Selectivity of one predicate under a scan map: [Some (f, stale)] when
   statistics could ground it (with stale details discounted toward the
   historical factor-2 default), [None] for the heuristic fallback. *)
let pred_sel env smap (p : pred) : (float * bool) option =
  let col = resolve_col env smap in
  let one s sel = Some (blend [ s ] ~default:0.5 sel) in
  match p with
  | Cmp (op, l, r) -> (
      let ranged s c op v =
        Option.map (fun f -> blend [ s ] ~default:0.5 (clamp01 f))
          (Stats.cmp_fraction s c op v)
      in
      match (op, col l, r, col r, l) with
      (* column vs constant *)
      | Eq, Some (s, c), Const v, _, _ | Eq, _, _, Some (s, c), Const v ->
          one s (clamp01 (Stats.eq_fraction s c v))
      | Neq, Some (s, c), Const v, _, _ | Neq, _, _, Some (s, c), Const v ->
          one s (clamp01 (1.0 -. Stats.eq_fraction s c v))
      | Lt, Some (s, c), Const v, _, _ -> ranged s c `Lt v
      | Leq, Some (s, c), Const v, _, _ -> ranged s c `Le v
      | Gt, Some (s, c), Const v, _, _ -> ranged s c `Gt v
      | Geq, Some (s, c), Const v, _, _ -> ranged s c `Ge v
      (* constant vs column: flip the comparison *)
      | Lt, _, _, Some (s, c), Const v -> ranged s c `Gt v
      | Leq, _, _, Some (s, c), Const v -> ranged s c `Ge v
      | Gt, _, _, Some (s, c), Const v -> ranged s c `Lt v
      | Geq, _, _, Some (s, c), Const v -> ranged s c `Le v
      (* column vs column within one region: equality via distinct overlap *)
      | Eq, Some (s1, c1), _, Some (s2, c2), _ ->
          let disjoint =
            match (c1.Stats.c_min, c1.Stats.c_max, c2.Stats.c_min, c2.Stats.c_max)
            with
            | Some lo1, Some hi1, Some lo2, Some hi2 ->
                V.compare hi1 lo2 < 0 || V.compare hi2 lo1 < 0
            | _ -> false
          in
          let sel =
            if disjoint then 0.0
            else
              let d = max c1.Stats.c_distinct c2.Stats.c_distinct in
              if d = 0 then 0.0 else clamp01 (1.0 /. float_of_int d)
          in
          Some (blend [ s1; s2 ] ~default:0.5 sel)
      (* column vs arbitrary expression: uniform over distinct values *)
      | Eq, Some (s, c), _, _, _ | Eq, _, _, Some (s, c), _ ->
          one s (clamp01 (Stats.eq_unknown_fraction s c))
      | _ -> None)
  | Is_null t -> (
      match col t with
      | Some (s, c) -> one s (Stats.null_fraction s c)
      | None -> None)
  | Not_null t -> (
      match col t with
      | Some (s, c) -> one s (clamp01 (1.0 -. Stats.null_fraction s c))
      | None -> None)
  | Like _ -> None

(* Fold predicate selectivities under independence; heuristic conjuncts
   cost the historical factor-2 each (capped at 4 total, matching
   [Ir.estimate]'s [lsr min 4 n]). *)
let preds_sel env smap preds =
  let heur = ref 0 and sel = ref 1.0 and used = ref false and stale = ref false in
  List.iter
    (fun p ->
      match pred_sel env smap p with
      | Some (f, st) ->
          used := true;
          if st then stale := true;
          sel := !sel *. f
      | None -> incr heur)
    preds;
  let heur_sel = 1.0 /. float_of_int (1 lsl min 4 !heur) in
  let src =
    if preds = [] then Exact
    else if !stale then Stale
    else if !heur = 0 then Stats
    else if !used then Mixed
    else Heuristic
  in
  (!sel *. heur_sel, src)

(* ------------------------------------------------------------------ *)
(* Join-key selectivity                                                *)
(* ------------------------------------------------------------------ *)

(* One equi-join key: with distinct counts on both sides, the classic
   containment bound 1/max(d_l, d_r), sharpened to 0 when the key ranges
   cannot overlap; with one side, 1/d; with neither, the historical
   16-fold guess per key. Returns the selectivity (stale details discounted
   toward the per-key 1/16 default) and whether statistics grounded it,
   with the stale flag. *)
let key_sel env lmap rmap (k : Ir.key) =
  let outer = resolve_col env lmap k.Ir.outer in
  let inner = resolve_col env rmap k.Ir.inner in
  let finish ss sel =
    let f, stale = blend ss ~default:(1.0 /. 16.0) sel in
    `Grounded (f, stale)
  in
  match (outer, inner) with
  | Some (s1, c1), Some (s2, c2) ->
      let disjoint =
        match (c1.Stats.c_min, c1.Stats.c_max, c2.Stats.c_min, c2.Stats.c_max)
        with
        | Some lo1, Some hi1, Some lo2, Some hi2 ->
            V.compare hi1 lo2 < 0 || V.compare hi2 lo1 < 0
        | _ -> false
      in
      if disjoint then finish [ s1; s2 ] 0.0
      else
        let d = max c1.Stats.c_distinct c2.Stats.c_distinct in
        finish [ s1; s2 ] (if d = 0 then 0.0 else 1.0 /. float_of_int d)
  | Some (s, c), None | None, Some (s, c) ->
      finish [ s ]
        (if c.Stats.c_distinct = 0 then 0.0
         else 1.0 /. float_of_int c.Stats.c_distinct)
  | None, None -> `Heur

let keys_sel env lmap rmap keys =
  let grounded = ref 0 and sel = ref 1.0 and stale = ref false in
  List.iter
    (fun k ->
      match key_sel env lmap rmap k with
      | `Grounded (f, st) ->
          incr grounded;
          if st then stale := true;
          sel := !sel *. f
      | `Heur -> ())
    keys;
  let heur = List.length keys - !grounded in
  (* ungrounded keys contribute the historical 4-bit shift, capped at 12
     bits across the node like [Ir.estimate] *)
  let heur_sel = 1.0 /. float_of_int (1 lsl min 12 (4 * heur)) in
  let src =
    if keys = [] then Exact
    else if !stale then Stale
    else if heur = 0 then Stats
    else if !grounded > 0 then Mixed
    else Heuristic
  in
  (!sel *. heur_sel, src)

(* ------------------------------------------------------------------ *)
(* Plan estimation                                                     *)
(* ------------------------------------------------------------------ *)

(* A [Heuristic] subtree reports exactly [Ir.estimate]'s number: with an
   empty environment this function {e is} the historical estimator. *)
let reconcile heur_of node e =
  if e.src = Heuristic then { e with rows = float_of_int (heur_of node) }
  else e

let rec estimate env (t : Ir.t) : est =
  reconcile Ir.estimate t
    (match t with
    | One -> { rows = 1.0; src = Exact }
    | Scan { rel; card; filters; var } ->
        let base, base_src =
          match List.assoc_opt rel env with
          | Some s -> (float_of_int s.Stats.s_rows, Exact)
          | None -> (float_of_int card, Exact)
        in
        let sel, sel_src = preds_sel env [ (var, rel) ] filters in
        { rows = base *. sel; src = meet base_src sel_src }
    | Subquery { plan; _ } -> estimate_coll env plan
    | Lateral { input; plan; _ } ->
        let i = estimate env input in
        let p = estimate_coll env plan in
        { rows = i.rows *. p.rows; src = meet i.src p.src }
    | Product { left; right } ->
        let l = estimate env left and r = estimate env right in
        { rows = l.rows *. r.rows; src = meet l.src r.src }
    | Hash_join { left; right; keys } ->
        let l = estimate env left and r = estimate env right in
        let sel, ksrc = keys_sel env (scan_map left) (scan_map right) keys in
        {
          rows = l.rows *. r.rows *. sel;
          src = meet (meet l.src r.src) ksrc;
        }
    | Filter { input; preds } ->
        let i = estimate env input in
        let sel, src = preds_sel env (scan_map input) preds in
        { rows = i.rows *. sel; src = meet i.src src }
    | Residual { input; conjs } ->
        let i = estimate env input in
        let smap = scan_map input in
        (* statistics only ground plain predicate conjuncts; anything else
           keeps the historical halving for the whole node *)
        let sels =
          List.map
            (fun f ->
              match f with Pred p -> pred_sel env smap p | _ -> None)
            conjs
        in
        if List.for_all Option.is_some sels then
          let stale = List.exists (fun s -> snd (Option.get s)) sels in
          {
            rows =
              List.fold_left
                (fun acc s -> acc *. fst (Option.get s))
                i.rows sels;
            src =
              meet i.src
                (if conjs = [] then Exact else if stale then Stale else Stats);
          }
        else { rows = i.rows /. 2.0; src = meet i.src Heuristic }
    | Append ts ->
        List.fold_left
          (fun acc t ->
            let e = estimate env t in
            { rows = acc.rows +. e.rows; src = meet acc.src e.src })
          { rows = 0.0; src = Exact }
          ts
    | Semi { anti; input; sub; keys; _ } ->
        let i = estimate env input in
        let s = estimate env sub in
        let match_sel =
          match keys with
          | [] -> None
          | _ -> (
              let lmap = scan_map input and rmap = scan_map sub in
              let grounded =
                List.map
                  (fun k ->
                    let outer = resolve_col env lmap k.Ir.outer in
                    let inner = resolve_col env rmap k.Ir.inner in
                    match (outer, inner) with
                    | Some (s1, c1), Some (s2, c2) ->
                        let disjoint =
                          match
                            ( c1.Stats.c_min,
                              c1.Stats.c_max,
                              c2.Stats.c_min,
                              c2.Stats.c_max )
                          with
                          | Some lo1, Some hi1, Some lo2, Some hi2 ->
                              V.compare hi1 lo2 < 0 || V.compare hi2 lo1 < 0
                          | _ -> false
                        in
                        let f =
                          if disjoint then 0.0
                          else if c1.Stats.c_distinct = 0 then 0.0
                          else
                            (* fraction of probe-side key values with a build
                               partner, under containment *)
                            clamp01
                              (float_of_int c2.Stats.c_distinct
                              /. float_of_int c1.Stats.c_distinct)
                        in
                        Some (f, [ s1; s2 ])
                    | _ -> None)
                  keys
              in
              if List.for_all Option.is_some grounded then
                let sel =
                  List.fold_left
                    (fun acc s -> Float.min acc (fst (Option.get s)))
                    1.0 grounded
                in
                let ss = List.concat_map (fun s -> snd (Option.get s)) grounded in
                Some (blend ss ~default:0.5 sel)
              else None)
        in
        (match match_sel with
        | Some (sel, stale) ->
            let sel = if anti then 1.0 -. sel else sel in
            {
              rows = i.rows *. clamp01 sel;
              src = meet (meet i.src s.src) (if stale then Stale else Stats);
            }
        | None -> { rows = i.rows /. 2.0; src = meet (meet i.src s.src) Heuristic })
    | Resolve { input; _ } -> estimate env input
    | Prune { input; _ } -> estimate env input)

and estimate_disjunct env (d : Ir.disjunct_plan) : est =
  reconcile Ir.estimate_disjunct d
    (match d with
    | Project { input; _ } -> estimate env input
    | Aggregate { input; keys; _ } ->
        let i = estimate env input in
        if keys = [] then { rows = 1.0; src = i.src }
        else
          let smap = scan_map input in
          let ds =
            List.map
              (fun (v, a) -> resolve_col env smap (Attr (v, a)))
              keys
          in
          if List.for_all Option.is_some ds then
            let groups =
              List.fold_left
                (fun acc c ->
                  acc
                  *. float_of_int (max 1 (snd (Option.get c)).Stats.c_distinct))
                1.0 ds
            in
            let ss = List.map (fun c -> fst (Option.get c)) ds in
            (* stale distinct counts widen toward the historical rows/4 *)
            let groups, stale = blend ss ~default:(i.rows /. 4.0) groups in
            {
              rows = Float.min i.rows groups;
              src = meet i.src (if stale then Stale else Stats);
            }
          else { rows = i.rows /. 4.0; src = meet i.src Heuristic })

and estimate_coll env (c : Ir.coll_plan) : est =
  reconcile Ir.estimate_coll c
    (List.fold_left
       (fun acc d ->
         let e = estimate_disjunct env d in
         { rows = acc.rows +. e.rows; src = meet acc.src e.src })
       { rows = 0.0; src = Exact }
       c.disjuncts)
