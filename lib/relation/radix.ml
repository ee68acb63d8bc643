(* Each pass scatters between [a] and [tmp] on one [bits]-bit digit of
   [x - lo], through [counts] (of [1 lsl bits] slots). Small digits keep
   [counts] in cache and cheap to clear; a 63-bit range takes at most six
   passes. *)
let bits = 11
let counts () = Array.make (1 lsl bits) 0

let sort a tmp counts n ~lo ~range =
  let mask = (1 lsl bits) - 1 in
  let src = ref a and dst = ref tmp and shift = ref 0 in
  while !shift < Sys.int_size && range lsr !shift > 0 do
    let s = !src and d = !dst and sh = !shift in
    Array.fill counts 0 (mask + 1) 0;
    for i = 0 to n - 1 do
      let k = ((s.(i) - lo) lsr sh) land mask in
      counts.(k) <- counts.(k) + 1
    done;
    let pos = ref 0 in
    for k = 0 to mask do
      let c = counts.(k) in
      counts.(k) <- !pos;
      pos := !pos + c
    done;
    for i = 0 to n - 1 do
      let x = s.(i) in
      let k = ((x - lo) lsr sh) land mask in
      d.(counts.(k)) <- x;
      counts.(k) <- counts.(k) + 1
    done;
    src := d;
    dst := s;
    shift := sh + bits
  done;
  !src
