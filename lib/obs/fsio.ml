(* Binary, atomic file output, the one directory creator and the one
   whole-file reader.  See fsio.mli. *)

let read path =
  (* failures are classified here, off the success path: a successful
     read is one open and one read, with no stat *)
  let fail ~otherwise =
    Error
      (if not (Sys.file_exists path) then path ^ ": no such file"
       else if Sys.is_directory path then path ^ ": is a directory"
       else otherwise)
  in
  match open_in_bin path with
  | exception Sys_error e -> fail ~otherwise:e (* "<path>: <reason>" *)
  | ic -> (
      match
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let len = in_channel_length ic in
            let bytes = really_input_string ic len in
            (* a zero-length read never reaches the descriptor: probe
               it, so a directory that reports size 0 is not read as an
               empty file *)
            if len = 0 then ignore (input ic (Bytes.create 1) 0 1);
            bytes)
      with
      | bytes -> Ok bytes
      | exception Sys_error e -> fail ~otherwise:(path ^ ": " ^ e)
      | exception End_of_file ->
          fail ~otherwise:(path ^ ": truncated while being read"))

let read_file path =
  match read path with Ok bytes -> bytes | Error e -> raise (Sys_error e)

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let write_atomic ?validate ~path contents =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path) ".tmp" in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc contents);
    (match validate with
    | None -> ()
    | Some check -> check (read_file tmp));
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (try Sys.remove tmp with Sys_error _ -> ());
      Printexc.raise_with_backtrace e bt
