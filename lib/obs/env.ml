(* Checked environment knobs: unset is [None], a bad value fails naming
   the variable. *)

let knob ?empty var parse =
  match (Sys.getenv_opt var, empty) with
  | None, _ -> None
  | Some "", Some e -> Some e
  | Some v, _ -> (
      match parse v with
      | Ok x -> Some x
      | Error msg -> invalid_arg (var ^ ": " ^ msg))

let int ?min v =
  match (int_of_string_opt (String.trim v), min) with
  | Some n, None -> Ok n
  | Some n, Some m when n >= m -> Ok n
  | _, None -> Error (Printf.sprintf "expected an integer, got %S" v)
  | _, Some m -> Error (Printf.sprintf "expected an integer >= %d, got %S" m v)

let seconds v =
  match float_of_string_opt v with
  | Some f when Float.is_finite f && f >= 0.0 -> Ok f
  | _ ->
      Error
        (Printf.sprintf "expected a finite number of seconds >= 0, got %S" v)
