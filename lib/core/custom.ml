module Buf = Mpicd_buf.Buf

exception Error of int

type ('obj, 'state) callbacks = {
  state : 'obj -> count:int -> 'state;
  state_free : 'state -> unit;
  query : 'state -> 'obj -> count:int -> int;
  pack : 'state -> 'obj -> count:int -> offset:int -> dst:Buf.t -> int;
  unpack : 'state -> 'obj -> count:int -> offset:int -> src:Buf.t -> unit;
  region_count : ('state -> 'obj -> count:int -> int) option;
  regions : ('state -> 'obj -> count:int -> Buf.Iov.t) option;
}

type 'obj t =
  | T : {
      cb : ('obj, 'state) callbacks;
      inorder : bool;
      pieces : ('obj -> count:int -> int) option;
    }
      -> 'obj t

let create ?(inorder = true) ?pack_pieces cb =
  T { cb; inorder; pieces = pack_pieces }

let inorder (T t) = t.inorder

type 'obj op =
  | Op : {
      cb : ('obj, 'state) callbacks;
      state : 'state;
      obj : 'obj;
      count : int;
      inorder : bool;
      pieces : ('obj -> count:int -> int) option;
      mutable freed : bool;
    }
      -> 'obj op

let start (T t) obj ~count =
  let state = t.cb.state obj ~count in
  Op
    {
      cb = t.cb;
      state;
      obj;
      count;
      inorder = t.inorder;
      pieces = t.pieces;
      freed = false;
    }

let finish (Op o) =
  if not o.freed then begin
    o.freed <- true;
    o.cb.state_free o.state
  end

let packed_size (Op o) = o.cb.query o.state o.obj ~count:o.count

let pack (Op o) ~offset ~dst = o.cb.pack o.state o.obj ~count:o.count ~offset ~dst

let unpack (Op o) ~offset ~src =
  o.cb.unpack o.state o.obj ~count:o.count ~offset ~src

let region_count (Op o) =
  match o.cb.region_count with
  | None -> 0
  | Some f -> f o.state o.obj ~count:o.count

let regions (Op o) =
  match o.cb.regions with
  | None -> Buf.Iov.empty
  | Some f -> f o.state o.obj ~count:o.count

let op_inorder (Op o) = o.inorder

let pack_pieces (Op o) =
  match o.pieces with None -> 0 | Some f -> f o.obj ~count:o.count
