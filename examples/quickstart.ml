(* Quickstart: the public API in five minutes.

   Run with:  dune exec examples/quickstart.exe *)

module Bracket = Tsj_tree.Bracket
module Ted = Tsj_ted.Ted
module Partsj = Tsj_core.Partsj
module Types = Tsj_join.Types

let () =
  (* 1. Trees are written in bracket notation: {label child child ...}. *)
  let album1 = Bracket.of_string_exn "{album{title{Abbey Road}}{artist{The Beatles}}{year{1969}}{tracks{t{Come Together}}{t{Something}}}}" in
  let album2 = Bracket.of_string_exn "{album{title{Abbey Road}}{artist{Beatles}}{year{1969}}{tracks{t{Come Together}}{t{Something}}}}" in
  let album3 = Bracket.of_string_exn "{album{title{Let It Be}}{artist{The Beatles}}{year{1970}}{tracks{t{Two of Us}}{t{Across the Universe}}}}" in

  (* 2. Exact tree edit distance (Zhang–Shasha, the verifier's banded
     kernel run at the full band |T1| + |T2| - 1). *)
  Printf.printf "TED(album1, album2) = %d   (one rename: the artist tag)\n"
    (Ted.distance album1 album2);
  Printf.printf "TED(album1, album3) = %d   (different record)\n"
    (Ted.distance album1 album3);

  (* 3. A similarity self-join over a small catalog: find all pairs within
     TED threshold tau. *)
  let catalog = [| album1; album2; album3 |] in
  let tau = 2 in
  let result = Partsj.join ~trees:catalog ~tau () in
  Printf.printf "\nsimilarity join with tau = %d:\n" tau;
  List.iter
    (fun p ->
      Printf.printf "  catalog.(%d) ~ catalog.(%d)  (distance %d)\n" p.Types.i
        p.Types.j p.Types.distance)
    result.Types.pairs;

  (* 4. The instrumentation every method reports: how many pairs the
     filter let through vs how many were real. *)
  Format.printf "\nstats: %a@." Types.pp_stats result.Types.stats;

  (* 5. What PartSJ indexes under the hood: the delta-partitioning of a
     tree (delta = 2 tau + 1 subgraphs, sizes as balanced as possible). *)
  let b = Tsj_tree.Binary_tree.of_postorder (Tsj_tree.Form.of_tree album1).left in
  let p = Tsj_core.Partition.partition b ~delta:((2 * tau) + 1) in
  Printf.printf "\npartitioning album1 into %d subgraphs (gamma = %d): sizes %s\n"
    ((2 * tau) + 1) p.Tsj_core.Partition.gamma
    (String.concat ", "
       (Array.to_list (Array.map string_of_int (Tsj_core.Partition.component_sizes p))));

  (* 6. The same size-banded index answers similarity search and top-k
     queries over a collection without re-joining. *)
  let idx = Tsj_core.Incremental.create ~tau:3 () in
  Array.iter (Tsj_core.Incremental.insert idx) catalog;
  let hits = (Tsj_core.Incremental.query idx album2).Tsj_core.Incremental.hits in
  Printf.printf "search around album2 (tau <= 3): %s\n"
    (String.concat ", "
       (List.map (fun (i, d) -> Printf.sprintf "catalog.(%d) at distance %d" i d) hits));
  let top = Tsj_core.Incremental.nearest ~k:2 idx album3 in
  Printf.printf "2 nearest neighbours of album3: %s\n"
    (String.concat ", "
       (List.map (fun (i, d) -> Printf.sprintf "catalog.(%d) (d=%d)" i d) top))
