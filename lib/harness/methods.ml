type t = Nl | Str | Set | Prt | Prt_random | Prt_paper_index

let name = function
  | Nl -> "NL"
  | Str -> "STR"
  | Set -> "SET"
  | Prt -> "PRT"
  | Prt_random -> "PRT-random"
  | Prt_paper_index -> "PRT-paper"

let all = [ Nl; Str; Set; Prt; Prt_random; Prt_paper_index ]

let paper_methods = [ Str; Set; Prt ]

let of_name s =
  let s = String.lowercase_ascii s in
  List.find_opt (fun m -> String.lowercase_ascii (name m) = s) all

let supports_resilience = function
  | Nl | Str | Set -> false
  | Prt | Prt_random | Prt_paper_index -> true

let run ?(domains = 1) ?budget ?checkpoint method_ ~trees ~tau =
  match method_ with
  | Nl -> Tsj_join.Nested_loop.join ~trees ~tau ()
  | Str -> Tsj_baselines.Str_join.join ~trees ~tau ()
  | Set -> Tsj_baselines.Set_join.join ~trees ~tau ()
  | Prt -> Tsj_core.Partsj.join ~domains ?budget ?checkpoint ~trees ~tau ()
  | Prt_random ->
    Tsj_core.Partsj.join ~domains ?budget ?checkpoint
      ~partitioning:(Tsj_core.Partsj.Random 0xBEEF) ~trees ~tau ()
  | Prt_paper_index ->
    Tsj_core.Partsj.join ~domains ?budget ?checkpoint
      ~index_mode:Tsj_core.Two_layer_index.Paper_rank ~trees ~tau ()
