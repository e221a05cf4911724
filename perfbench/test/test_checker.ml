(* The output checker must reject the three ways a member's deliveries
   can go wrong: out of order, missing one, or one twice. *)

open Perfbench

let seg ?(stable = true) who items = { Checker.who; stable; items = Array.of_list items }

let rejects name violations =
  Alcotest.(check bool) (name ^ " is rejected") true (violations <> [])

let accepts name violations = Alcotest.(check (list string)) (name ^ " passes") [] violations

let consistent () =
  accepts "identical sequences"
    (Checker.deliveries ~drained:true [ seg "p0" [ 1; 2; 3 ]; seg "p1" [ 1; 2; 3 ] ]);
  accepts "a lagging member before drain"
    (Checker.deliveries ~drained:false [ seg "p0" [ 1; 2; 3 ]; seg "p1" [ 1; 2 ] ]);
  accepts "a rejoined member's contiguous stretch"
    (Checker.stretches
       [ seg "p0" [ 1; 2; 3; 4 ]; seg "p1" [ 1; 2; 3; 4 ]; seg ~stable:false "p2" [ 3; 4 ] ])

let reordered () =
  rejects "a swapped pair"
    (Checker.deliveries ~drained:true [ seg "p0" [ 1; 2; 3 ]; seg "p1" [ 1; 3; 2 ] ]);
  rejects "a swapped pair at a rejoined member"
    (Checker.stretches [ seg "p0" [ 1; 2; 3; 4 ]; seg ~stable:false "p1" [ 4; 3 ] ]);
  rejects "application logs in different orders"
    (Checker.app_logs ~drained:true [ ("p0", [| 1; 2 |]); ("p1", [| 2; 1 |]) ])

let missing () =
  rejects "a member short of one delivery once drained"
    (Checker.deliveries ~drained:true [ seg "p0" [ 1; 2; 3 ]; seg "p1" [ 1; 2 ] ]);
  rejects "a gap inside a member's deliveries"
    (Checker.deliveries ~drained:false [ seg "p0" [ 1; 2; 3 ]; seg "p1" [ 1; 3 ] ]);
  rejects "a gap inside a rejoined member's stretch"
    (Checker.stretches [ seg "p0" [ 1; 2; 3; 4 ]; seg ~stable:false "p1" [ 2; 4 ] ]);
  rejects "a counted update absent from a log"
    (Checker.complete ~counted:[ 7 ] ~attempts_of:(fun u -> [ u; u + 100 ])
       [ ("p0", [| 7 |]); ("p1", [| 5 |]) ]);
  accepts "a counted update present through a retry"
    (Checker.complete ~counted:[ 7 ] ~attempts_of:(fun u -> [ u; u + 100 ])
       [ ("p0", [| 107 |]); ("p1", [| 107 |]) ])

let duplicated () =
  rejects "a proposal delivered twice"
    (Checker.deliveries ~drained:false [ seg "p0" [ 1; 2; 2 ]; seg "p1" [ 1; 2 ] ]);
  rejects "a proposal twice at a rejoined member"
    (Checker.deliveries ~drained:false [ seg "p0" [ 1; 2; 3 ]; seg ~stable:false "p1" [ 2; 2 ] ]);
  rejects "a proposal twice in every member"
    (Checker.deliveries ~drained:true [ seg "p0" [ 1; 2; 1 ]; seg "p1" [ 1; 2; 1 ] ]);
  rejects "an application log holding one proposal twice"
    (Checker.app_logs ~drained:true [ ("p0", [| 4; 4 |]) ])

let views () =
  accepts "no view change" (Checker.no_view_changes ~phase:"paced" 0);
  rejects "a view change in a faultless phase" (Checker.no_view_changes ~phase:"paced" 1);
  accepts "advancing group ids" (Checker.epochs_advance [ ("p0", [ (0, 0); (0, 1); (1, 0) ]) ]);
  rejects "a group id going back" (Checker.epochs_advance [ ("p0", [ (1, 0); (0, 3) ]) ])

let () =
  Alcotest.run "perfbench-checker"
    [
      ( "checker",
        [
          Alcotest.test_case "consistent runs pass" `Quick consistent;
          Alcotest.test_case "reordered delivery" `Quick reordered;
          Alcotest.test_case "missing delivery" `Quick missing;
          Alcotest.test_case "duplicated delivery" `Quick duplicated;
          Alcotest.test_case "views and epochs" `Quick views;
        ] );
    ]
