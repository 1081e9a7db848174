(* Global device memory: 32-bit little-endian words addressed by byte.
   The driver allocates kernel-argument buffers here with 256-byte
   alignment (as cudaMalloc does), which matters for coalescing behavior.
   Words cross the interface as sign-extended OCaml ints (Value's word
   form), so neither loads nor stores allocate.

   Memory is paged: a page's bytes are allocated, and filled from the
   buffers bound by [copy_in], the first time the kernel touches it, and
   [copy_out] writes back only pages the kernel stored to.  A sampled run of a large
   launch touches a few pages of its buffers, so it no longer pays for
   copying (and the collector for scanning) all of them. *)

type allocation = { base : int; length : int (* words *) }

type t = {
  size : int; (* bytes *)
  pages : Bytes.t array; (* [unmapped] until first touched *)
  dirty : Bytes.t; (* per page: '\001' once stored to *)
  mutable sources : (allocation * int32 array) list; (* newest first *)
  mutable poisoned : (int * int) list; (* injected-fault byte ranges *)
}

exception Fault of string

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

let page_bits = 12

let page_bytes = 1 lsl page_bits

let unmapped = Bytes.empty

let create ~bytes =
  if bytes < 0 then invalid_arg "Memory.create";
  let size = 4 * ((bytes + 3) / 4) in
  let npages = (size + page_bytes - 1) / page_bytes in
  {
    size;
    pages = Array.make npages unmapped;
    dirty = Bytes.make npages '\000';
    sources = [];
    poisoned = [];
  }

let size_bytes t = t.size

(* Bytes [lo, hi) of page [p] that [alloc] covers, as a byte-address
   range (empty when [lo >= hi]). *)
let overlap p alloc =
  ( max alloc.base (p lsl page_bits),
    min (alloc.base + (4 * alloc.length)) ((p + 1) lsl page_bits) )

let fill_page p page (alloc, data) =
  let lo, hi = overlap p alloc in
  let addr = ref lo in
  while !addr < hi do
    Bytes.set_int32_le page
      (!addr land (page_bytes - 1))
      data.((!addr - alloc.base) / 4);
    addr := !addr + 4
  done

let map_page t p =
  let page = Bytes.make (min page_bytes (t.size - (p lsl page_bits))) '\000' in
  List.iter (fill_page p page) (List.rev t.sources);
  t.pages.(p) <- page;
  page

let[@inline] page t addr =
  let page = t.pages.(addr lsr page_bits) in
  if page != unmapped then page else map_page t (addr lsr page_bits)

(* Fault injection: a poisoned range models a failing memory transaction —
   any access overlapping it traps, the way an Xid/ECC error would surface
   on real hardware.  Used by the fault-injection suite. *)
let poison t ~addr ~width = t.poisoned <- (addr, width) :: t.poisoned

let rec overlaps_poison addr width = function
  | [] -> false
  | (base, w) :: rest ->
    (addr < base + w && base < addr + width) || overlaps_poison addr width rest

let check t addr width =
  if addr < 0 || addr + width > t.size then
    fault "global memory access at %#x (width %d) outside [0, %#x)" addr
      width (size_bytes t);
  if addr land (width - 1) <> 0 then
    fault "misaligned global memory access at %#x (width %d)" addr width;
  match t.poisoned with
  | [] -> ()
  | ranges ->
    if overlaps_poison addr width ranges then
      fault "poisoned global memory transaction at %#x (injected fault)" addr

let[@inline] word t addr =
  Int32.to_int (Bytes.get_int32_le (page t addr) (addr land (page_bytes - 1)))

let[@inline] set_word t addr v =
  Bytes.set t.dirty (addr lsr page_bits) '\001';
  Bytes.set_int32_le (page t addr) (addr land (page_bytes - 1)) (Int32.of_int v)

(* The common in-bounds, aligned, unpoisoned access checks inline; only
   the others go through [check], which raises. *)
let[@inline] check32 t addr =
  if addr < 0 || addr + 4 > t.size || addr land 3 <> 0 || t.poisoned != []
  then check t addr 4

let load32 t addr =
  check32 t addr;
  word t addr

let store32 t addr v =
  check32 t addr;
  set_word t addr v

(* --- Buffer allocation (the driver's cudaMalloc) ---------------------- *)

let alignment = 256

(* Lay out buffers back to back with [alignment]-byte aligned bases;
   returns the allocations and the total byte size needed. *)
let layout sizes_in_words =
  let allocs, top =
    List.fold_left
      (fun (acc, off) words ->
        if words < 0 then invalid_arg "Memory.layout: negative size";
        let base = (off + alignment - 1) / alignment * alignment in
        ({ base; length = words } :: acc, base + (4 * words)))
      ([], 0) sizes_in_words
  in
  (List.rev allocs, top)

let pages_of alloc =
  if alloc.length = 0 then (0, -1)
  else (alloc.base lsr page_bits, (alloc.base + (4 * alloc.length) - 1) lsr page_bits)

(* Bind [data] as the contents of [alloc]: pages already touched take it
   now, the others when first touched.  [data] must not change until the
   matching [copy_out]. *)
let copy_in t alloc (data : int32 array) =
  if Array.length data <> alloc.length then
    invalid_arg "Memory.copy_in: size mismatch";
  t.sources <- (alloc, data) :: t.sources;
  let first, last = pages_of alloc in
  for p = first to last do
    if t.pages.(p) != unmapped then fill_page p t.pages.(p) (alloc, data)
  done

(* Write back the words of [alloc] in stored-to pages — only changed
   ones: an [int32 array] element is a box, so rewriting an unchanged word
   would allocate for nothing.  Any other page still holds what its
   sources bound, so it is skipped when [data] is the only source of
   [alloc]. *)
let copy_out t alloc (data : int32 array) =
  if Array.length data <> alloc.length then
    invalid_arg "Memory.copy_out: size mismatch";
  let own_source =
    List.for_all
      (fun (a, src) ->
        let lo = max a.base alloc.base
        and hi = min (a.base + (4 * a.length)) (alloc.base + (4 * alloc.length)) in
        lo >= hi || (a = alloc && src == data))
      t.sources
  in
  let first, last = pages_of alloc in
  for p = first to last do
    if Bytes.get t.dirty p <> '\000' || not own_source then begin
      let page = page t (p lsl page_bits) in
      let lo, hi = overlap p alloc in
      let addr = ref lo in
      while !addr < hi do
        let w = Bytes.get_int32_le page (!addr land (page_bytes - 1)) in
        let i = (!addr - alloc.base) / 4 in
        if not (Int32.equal w data.(i)) then data.(i) <- w;
        addr := !addr + 4
      done
    end
  done

(* --- Float views ------------------------------------------------------ *)

let floats_to_words xs = Array.map Int32.bits_of_float xs

let words_to_floats ws = Array.map Int32.float_of_bits ws
