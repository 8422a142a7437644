type aux = { bags : Binary_branch.bag array; tau : int }

let join ?metric ~trees ~tau () =
  Tsj_join.Sweep.windowed_join ?metric ~cascade:true ~trees ~tau
    ~setup:(fun trees -> { bags = Array.map Binary_branch.bag_of_tree trees; tau })
    ~filter:(fun aux i j ->
      Binary_branch.distance aux.bags.(i) aux.bags.(j) <= 5 * aux.tau)
    ()
