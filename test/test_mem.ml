open Ndp_mem

let map36 = Addr_map.create ~num_l2_banks:36 ()

let addr_fields () =
  (* Figure 2: 64B lines, 4KB pages, 2 channel bits above the offset. *)
  Alcotest.(check int) "line of 0" 0 (Addr_map.line_of_addr map36 63);
  Alcotest.(check int) "line of 64" 1 (Addr_map.line_of_addr map36 64);
  Alcotest.(check int) "page of 4095" 0 (Addr_map.page_of_addr map36 4095);
  Alcotest.(check int) "page of 4096" 1 (Addr_map.page_of_addr map36 4096);
  Alcotest.(check int) "channel bits 12-13" 3 (Addr_map.channel map36 (3 lsl 12));
  Alcotest.(check int) "rank bits 14-15" 2 (Addr_map.rank map36 (2 lsl 14));
  Alcotest.(check int) "dram bank bits 16-18" 5 (Addr_map.dram_bank map36 (5 lsl 16));
  Alcotest.(check int) "channels" 4 (Addr_map.num_channels map36)

let addr_same_line () =
  Alcotest.(check bool) "same line" true (Addr_map.same_line map36 0 63);
  Alcotest.(check bool) "different lines" false (Addr_map.same_line map36 0 64)

let l2_bank_interleaves () =
  Alcotest.(check int) "line 0 -> bank 0" 0 (Addr_map.l2_bank map36 0);
  Alcotest.(check int) "line 36 wraps" 0 (Addr_map.l2_bank map36 (36 * 64));
  Alcotest.(check int) "line 37" 1 (Addr_map.l2_bank map36 (37 * 64))

let coloring_preserves () =
  let pa = Page_alloc.create ~policy:Page_alloc.Coloring map36 in
  let va = (7 lsl 12) lor 123 in
  Alcotest.(check int) "identity translation" va (Page_alloc.translate pa va);
  Alcotest.(check int) "compiler agrees" va (Page_alloc.compiler_view pa va)

let scrambled_diverges () =
  let pa = Page_alloc.create ~seed:5 ~policy:Page_alloc.Scrambled map36 in
  let va = (9 lsl 12) lor 50 in
  let t1 = Page_alloc.translate pa va in
  Alcotest.(check int) "stable translation" t1 (Page_alloc.translate pa va);
  Alcotest.(check int) "offset preserved" 50 (t1 land 4095);
  Alcotest.(check int) "compiler assumes identity" va (Page_alloc.compiler_view pa va)

let cache_hit_after_fill () =
  let c = Cache.create ~size_bytes:1024 ~assoc:2 ~line_bytes:64 () in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0);
  Alcotest.(check bool) "hit after fill" true (Cache.access c 32);
  Alcotest.(check int) "one hit" 1 (Cache.hits c);
  Alcotest.(check int) "one miss" 1 (Cache.misses c)

let cache_lru_eviction () =
  (* 2-way, 8 sets: three lines in the same set evict the least recent. *)
  let c = Cache.create ~size_bytes:1024 ~assoc:2 ~line_bytes:64 () in
  let stride = 8 * 64 in
  ignore (Cache.access c 0);
  ignore (Cache.access c stride);
  ignore (Cache.access c 0); (* refresh line 0 *)
  ignore (Cache.access c (2 * stride)); (* evicts [stride] *)
  Alcotest.(check bool) "line 0 survives" true (Cache.probe c 0);
  Alcotest.(check bool) "line stride evicted" false (Cache.probe c stride)

let cache_probe_pure () =
  let c = Cache.create ~size_bytes:1024 ~assoc:2 ~line_bytes:64 () in
  Alcotest.(check bool) "probe miss" false (Cache.probe c 0);
  Alcotest.(check int) "probe does not count" 0 (Cache.hits c + Cache.misses c)

let cache_clear () =
  let c = Cache.create ~size_bytes:1024 ~assoc:2 ~line_bytes:64 () in
  ignore (Cache.access c 0);
  Cache.clear c;
  Alcotest.(check bool) "cleared" false (Cache.probe c 0);
  Alcotest.(check int) "stats reset" 0 (Cache.hits c + Cache.misses c)

let qcheck_cache_capacity =
  QCheck.Test.make ~name:"cache never holds more lines than capacity" ~count:50
    QCheck.(list_of_size Gen.(1 -- 200) (int_bound 10000))
    (fun addrs ->
      let c = Cache.create ~size_bytes:512 ~assoc:2 ~line_bytes:64 () in
      List.iter (fun a -> ignore (Cache.access c a)) addrs;
      let distinct_lines = List.sort_uniq compare (List.map (fun a -> a / 64) addrs) in
      let resident = List.filter (fun l -> Cache.probe c (l * 64)) distinct_lines in
      List.length resident <= 8)

let snuca_homes () =
  let mesh = Ndp_noc.Mesh.create ~cols:6 ~rows:6 in
  let s = Snuca.create mesh Ndp_noc.Cluster.Quadrant map36 in
  Alcotest.(check int) "line interleave" 0 (Snuca.home_node s 0);
  Alcotest.(check int) "next line next bank" 1 (Snuca.home_node s 64);
  Alcotest.(check int) "wraps at 36" 0 (Snuca.home_node s (36 * 64))

let snuca_snc4_quadrant_local () =
  let mesh = Ndp_noc.Mesh.create ~cols:6 ~rows:6 in
  let s = Snuca.create mesh Ndp_noc.Cluster.Snc4 map36 in
  for page = 0 to 15 do
    for line = 0 to 3 do
      let addr = (page lsl 12) lor (line * 64) in
      let home = Snuca.home_node s addr in
      Alcotest.(check int) "home in the page's quadrant" (page mod 4)
        (Ndp_noc.Mesh.quadrant_of_node mesh home)
    done
  done

let predictor_learns_reuse () =
  let p = Miss_predictor.create ~capacity_blocks:8 map36 in
  Alcotest.(check bool) "cold predicts miss" false (Miss_predictor.predict p 0);
  Miss_predictor.note_access p 0;
  Alcotest.(check bool) "recent predicts hit" true (Miss_predictor.predict p 0);
  for i = 1 to 20 do
    Miss_predictor.note_access p (i * 64)
  done;
  Alcotest.(check bool) "old access predicts miss again" false (Miss_predictor.predict p 0)

let predictor_accuracy_tracking () =
  let p = Miss_predictor.create ~capacity_blocks:8 map36 in
  Miss_predictor.confirm p ~addr:0 ~predicted:false ~hit:false;
  Miss_predictor.confirm p ~addr:64 ~predicted:true ~hit:false;
  Alcotest.(check int) "two observations" 2 (Miss_predictor.observations p);
  Alcotest.(check (float 1e-9)) "half right" 0.5 (Miss_predictor.accuracy p)

let cache_invalidate () =
  let c = Cache.create ~size_bytes:1024 ~assoc:2 ~line_bytes:64 () in
  ignore (Cache.access c 0);
  Cache.invalidate c 32;
  Alcotest.(check bool) "line gone" false (Cache.probe c 0);
  Cache.invalidate c 4096 (* absent line: no-op *)

let tests =
  [
    ( "mem",
      [
        Alcotest.test_case "address fields" `Quick addr_fields;
        Alcotest.test_case "same line" `Quick addr_same_line;
        Alcotest.test_case "L2 bank interleave" `Quick l2_bank_interleaves;
        Alcotest.test_case "coloring preserves bits" `Quick coloring_preserves;
        Alcotest.test_case "scrambled diverges" `Quick scrambled_diverges;
        Alcotest.test_case "cache hit after fill" `Quick cache_hit_after_fill;
        Alcotest.test_case "cache LRU eviction" `Quick cache_lru_eviction;
        Alcotest.test_case "cache probe pure" `Quick cache_probe_pure;
        Alcotest.test_case "cache clear" `Quick cache_clear;
        Alcotest.test_case "cache invalidate" `Quick cache_invalidate;
        Alcotest.test_case "snuca homes" `Quick snuca_homes;
        Alcotest.test_case "snc-4 quadrant local" `Quick snuca_snc4_quadrant_local;
        Alcotest.test_case "predictor learns reuse" `Quick predictor_learns_reuse;
        Alcotest.test_case "predictor accuracy" `Quick predictor_accuracy_tracking;
        QCheck_alcotest.to_alcotest qcheck_cache_capacity;
      ] );
  ]
