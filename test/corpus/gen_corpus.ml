(* Print the MiniC differential corpus rendering to standard output:
     dune exec test/corpus/gen_corpus.exe > test/corpus/minic_corpus.expected *)

let () = List.iter (fun c -> print_string (Minic_corpus.render c)) Minic_corpus.cases
