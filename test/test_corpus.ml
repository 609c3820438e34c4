(* The MiniC differential corpus (test/corpus): every program, under every
   runtime, must render exactly as recorded in minic_corpus.expected. *)

let test (c : Minic_corpus.case) () =
  match List.assoc_opt c.Minic_corpus.name (Lazy.force Minic_corpus.expected) with
  | None -> Alcotest.failf "no recorded rendering for %s" c.Minic_corpus.name
  | Some golden ->
    Alcotest.(check string) c.Minic_corpus.name golden (String.trim (Minic_corpus.render c))

let suite =
  List.map
    (fun (c : Minic_corpus.case) -> Alcotest.test_case c.Minic_corpus.name `Quick (test c))
    Minic_corpus.cases
