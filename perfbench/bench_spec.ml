(* The metric lists of BENCHMARK.json, the one place metric names and
   units are declared. *)

module Json = Ndp_obs.Render.Json

(* [(name, unit)] of the list under [key] ("end_to_end" or "per_layer"). *)
let metrics ~spec key =
  let text = In_channel.with_open_bin spec In_channel.input_all in
  let doc = match Json.parse text with Ok d -> d | Error e -> failwith (spec ^ ": " ^ e) in
  match Json.member key doc with
  | Some (Json.List ms) -> List.map (fun m -> (Layers.str_field "name" m, Layers.str_field "unit" m)) ms
  | _ -> failwith (Printf.sprintf "%s: no %S list" spec key)
