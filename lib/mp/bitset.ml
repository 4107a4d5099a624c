(* Rank/select bitset over per-channel nonempty flags — the scheduler's
   uniform draw among nonempty channels in index order.

   Flags are packed 32 to a word. Each word and each block of 32 words
   (1,024 flags) keeps its count of set flags, so a flag transition
   updates one word and two counts: O(1). [select k] skips whole blocks
   by their counts, then whole words, then finishes inside one word a
   byte at a time through the 256-entry popcount and select tables. It
   returns the (k+1)-th set flag in index order, the choice the Fenwick
   tree it replaced made, so one draw picks the same channel as ever. *)

let word_bits = 5 (* 32 flags per word *)
let block_bits = 10 (* 1,024 flags, 32 words, per block *)

(* One 2,304-byte table, built once, here: byte [b]'s popcount at [b],
   and the position of its (k+1)-th set bit at [256 + 8 b + k]. *)
let table = Bytes.make (256 + (256 * 8)) '\000'

let () =
  for b = 0 to 255 do
    let c = ref 0 in
    for bit = 0 to 7 do
      if b land (1 lsl bit) <> 0 then begin
        Bytes.set table (256 + (8 * b) + !c) (Char.chr bit);
        incr c
      end
    done;
    Bytes.set table b (Char.chr !c)
  done

let[@inline] pop8 b = Char.code (Bytes.get table b)
let[@inline] sel8 b k = Char.code (Bytes.get table (256 + (8 * b) + k))

type t = {
  n : int;
  words : int array; (* bit [i land 31] of word [i lsr 5] is flag [i] *)
  word_count : int array; (* set flags per word *)
  block_count : int array; (* set flags per block *)
  mutable count : int;
}

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  let words = (n + (1 lsl word_bits) - 1) lsr word_bits in
  let blocks = (n + (1 lsl block_bits) - 1) lsr block_bits in
  {
    n;
    words = Array.make words 0;
    word_count = Array.make words 0;
    block_count = Array.make blocks 0;
    count = 0;
  }

let count t = t.count

let check t i = if i < 0 || i >= t.n then invalid_arg "Bitset: index out of range"

let mem t i =
  check t i;
  t.words.(i lsr word_bits) land (1 lsl (i land 31)) <> 0

let set t i =
  check t i;
  let w = i lsr word_bits and bit = 1 lsl (i land 31) in
  let x = t.words.(w) in
  if x land bit = 0 then begin
    t.words.(w) <- x lor bit;
    t.word_count.(w) <- t.word_count.(w) + 1;
    let b = i lsr block_bits in
    t.block_count.(b) <- t.block_count.(b) + 1;
    t.count <- t.count + 1
  end

let clear t i =
  check t i;
  let w = i lsr word_bits and bit = 1 lsl (i land 31) in
  let x = t.words.(w) in
  if x land bit <> 0 then begin
    t.words.(w) <- x lxor bit;
    t.word_count.(w) <- t.word_count.(w) - 1;
    let b = i lsr block_bits in
    t.block_count.(b) <- t.block_count.(b) - 1;
    t.count <- t.count - 1
  end

(* With [0 <= k < count] checked once, every scan below stops inside its
   array: the block counts sum to [count], a block's word counts to its
   block count, and a word's byte popcounts to its word count. *)
let select t k =
  if k < 0 || k >= t.count then invalid_arg "Bitset.select: rank out of range";
  let k = ref k and b = ref 0 in
  while !k >= t.block_count.(!b) do
    k := !k - t.block_count.(!b);
    incr b
  done;
  let w = ref (!b lsl (block_bits - word_bits)) in
  while !k >= t.word_count.(!w) do
    k := !k - t.word_count.(!w);
    incr w
  done;
  let x = ref t.words.(!w) and base = ref (!w lsl word_bits) in
  while !k >= pop8 (!x land 255) do
    k := !k - pop8 (!x land 255);
    x := !x lsr 8;
    base := !base + 8
  done;
  !base + sel8 (!x land 255) !k
