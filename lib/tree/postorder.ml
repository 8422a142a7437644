type t = {
  size : int;
  labels : int array;
  lld : int array;
  keyroots : int array;
}
