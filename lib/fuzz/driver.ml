(** Fuzz-campaign driver: generate → check → shrink → save repro.

    One campaign is fully determined by [(seed, count)]: each iteration
    derives its own [Random.State] substream from [(seed, i)], so cases are
    independent of each other and replayable in isolation. Every iteration
    checks one ARC case; every 3rd additionally a TRC case and every 4th a
    Datalog case (frontend round-trips, see {!Oracle}).

    The returned [stats] count the cases generated, skipped and diverged.
    Divergent ARC cases are greedily shrunk (preserving the divergence
    kind) and written as replayable repro directories under [out]. *)

type stats = {
  mutable generated : int;
  mutable skipped : int;  (** generator output rejected by validation *)
  mutable diverged : int;
}

type finding = {
  f_name : string;
  f_repro : string option;  (** repro directory, when one was saved *)
  f_divergences : Oracle.divergence list;
}

let sanitize s =
  String.map
    (fun c ->
      match Char.lowercase_ascii c with
      | ('a' .. 'z' | '0' .. '9' | '-') as c -> c
      | _ -> '-')
    s

let same_kind kind divs =
  List.exists (fun d -> d.Oracle.d_kind = kind) divs

let run ?(shrink = true) ?(ivm = false) ?out ~seed ~count () =
  let stats = { generated = 0; skipped = 0; diverged = 0 } in
  let findings = ref [] in
  let record ?(recheck = Oracle.check) label case divs =
    stats.diverged <- stats.diverged + 1;
    let repro =
      match (case, out) with
      | Some c, Some dir ->
          let d0 = List.hd divs in
          let c, _steps =
            if shrink then
              Shrink.shrink
                ~fails:(fun v -> same_kind d0.Oracle.d_kind (recheck v))
                c
            else (c, 0)
          in
          (* the shrunk case's own divergence gives the sharpest detail *)
          let d =
            match
              List.find_opt
                (fun d -> d.Oracle.d_kind = d0.Oracle.d_kind)
                (recheck c)
            with
            | Some d -> d
            | None -> d0
          in
          Some
            (Repro.save ~dir ~name:label c
               ~meta:
                 [
                   ("kind", d.d_kind);
                   ("conv", d.d_conv);
                   ("detail", d.d_detail);
                   ("seed", string_of_int seed);
                 ])
      | _ -> None
    in
    findings := { f_name = label; f_repro = repro; f_divergences = divs } :: !findings
  in
  for i = 0 to count - 1 do
    let st = Random.State.make [| seed; i |] in
    let case = Gen.gen_case st in
    stats.generated <- stats.generated + 1;
    (match Case.validate case with
    | Error _ -> stats.skipped <- stats.skipped + 1
    | Ok () when ivm -> (
        (* IVM mode: replay random batches through incremental
           maintenance; the batch stream is a pure function of (seed, i),
           so shrinking re-derives the same batches on every probe. *)
        let ivm_rng () = Random.State.make [| seed; i; 977 |] in
        match Oracle.check_ivm ~rng:(ivm_rng ()) case with
        | [] -> ()
        | divs ->
            let kind = (List.hd divs).Oracle.d_kind in
            record
              ~recheck:(fun v -> Oracle.check_ivm ~rng:(ivm_rng ()) v)
              (Printf.sprintf "s%d-c%d-%s" seed i (sanitize kind))
              (Some case) divs)
    | Ok () -> (
        match Oracle.check case with
        | [] -> ()
        | divs ->
            let kind = (List.hd divs).Oracle.d_kind in
            record
              (Printf.sprintf "s%d-c%d-%s" seed i (sanitize kind))
              (Some case) divs));
    (if (not ivm) && i mod 3 = 0 then
       let tc = Gen.gen_trc st in
       stats.generated <- stats.generated + 1;
       match Oracle.check_trc tc with
       | [] -> ()
       | divs -> record (Printf.sprintf "s%d-c%d-trc" seed i) None divs);
    if (not ivm) && i mod 4 = 0 then
      let dc = Gen.gen_datalog st in
      stats.generated <- stats.generated + 1;
      match Oracle.check_datalog dc with
      | [] -> ()
      | divs -> record (Printf.sprintf "s%d-c%d-datalog" seed i) None divs
  done;
  (stats, List.rev !findings)
