let join ?metric ~trees ~tau () =
  Sweep.windowed_join ?metric ~cascade:false ~trees ~tau
    ~setup:(fun _ -> ())
    ~filter:(fun () _ _ -> true)
    ()

let rel_count ~trees ~tau = (join ~trees ~tau ()).Types.stats.Types.n_results
