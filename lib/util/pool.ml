let size = ref 1

let global_size () = !size

let set_global_size n =
  if n < 1 then invalid_arg "Pool.set_global_size: size must be >= 1";
  size := n
