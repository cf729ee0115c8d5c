type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.0f" f)
    else if Float.is_finite f then
      Buffer.add_string buf (Printf.sprintf "%.6g" f)
    else Buffer.add_string buf "null"
  | Str s ->
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  | Arr l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf v)
      l;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf (Str k);
        Buffer.add_char buf ':';
        emit buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 4096 in
  emit buf j;
  Buffer.contents buf

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else raise (Bad "eof") in
  let next () = let c = peek () in incr pos; c in
  let rec skip_ws () =
    if !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    then (incr pos; skip_ws ())
  in
  let expect c =
    if not (Char.equal (next ()) c) then raise (Bad (Printf.sprintf "expected %c" c))
  in
  let literal word v =
    String.iter (fun c -> if not (Char.equal (next ()) c) then raise (Bad word)) word;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents buf
      | '\\' ->
        (match next () with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 't' -> Buffer.add_char buf '\t'
         | 'r' -> Buffer.add_char buf '\r'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'u' ->
           let hex = String.init 4 (fun _ -> next ()) in
           (match int_of_string_opt ("0x" ^ hex) with
            | Some code when code < 128 -> Buffer.add_char buf (Char.chr code)
            | Some _ -> Buffer.add_char buf '?'
            | None -> raise (Bad ("escape \\u" ^ hex)))
         | c -> raise (Bad (Printf.sprintf "escape \\%c" c)));
        go ()
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      expect '{';
      skip_ws ();
      if peek () = '}' then (incr pos; Obj [])
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match next () with
          | ',' -> fields ((k, v) :: acc)
          | '}' -> Obj (List.rev ((k, v) :: acc))
          | c -> raise (Bad (Printf.sprintf "in object: %c" c))
        in
        fields []
      end
    | '[' ->
      expect '[';
      skip_ws ();
      if peek () = ']' then (incr pos; Arr [])
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match next () with
          | ',' -> elems (v :: acc)
          | ']' -> Arr (List.rev (v :: acc))
          | c -> raise (Bad (Printf.sprintf "in array: %c" c))
        in
        elems []
      end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      let num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && num_char s.[!pos] do incr pos done;
      if Int.equal !pos start then raise (Bad "value");
      (match float_of_string_opt (String.sub s start (!pos - start)) with
       | Some f -> Num f
       | None -> raise (Bad "number"))
  in
  let v = parse_value () in
  skip_ws ();
  if not (Int.equal !pos n) then raise (Bad "trailing bytes");
  v

let field name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None
