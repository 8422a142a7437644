module Traversal = Tsj_tree.Traversal
module String_edit = Tsj_ted.String_edit

type aux = { pre : int array array; post : int array array; tau : int }

let join ?metric ~trees ~tau () =
  Tsj_join.Sweep.windowed_join ?metric ~cascade:true ~trees ~tau
    ~setup:(fun trees ->
      {
        pre = Array.map Traversal.preorder_labels trees;
        post = Array.map Traversal.postorder_labels trees;
        tau;
      })
    ~filter:(fun aux i j ->
      String_edit.within aux.pre.(i) aux.pre.(j) aux.tau
      && String_edit.within aux.post.(i) aux.post.(j) aux.tau)
    ()
