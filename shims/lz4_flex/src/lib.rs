//! Offline stand-in for the `lz4_flex` crate.
//!
//! Implements the LZ4 *block* format (the real crate's `block` module
//! surface this workspace uses): a greedy hash-table matcher on the
//! compression side, LSIC-extended literal/match lengths, 16-bit offsets,
//! and a bulk match copy on the decompression side. Every read on the
//! decode path is bounds-checked and the output is capped at the caller's
//! expected size, so malformed or hostile input returns
//! [`DecompressError`] — it can never panic or balloon memory.
//!
//! Format rules honored (LZ4 block spec): a match is at least 4 bytes, a
//! match never starts within the last 12 bytes of the input, the last 5
//! bytes are always literals, and the final sequence is literals-only.
//!
//! [`compress_into`] writes into a caller's buffer and returns
//! [`CompressError::OutputTooSmall`] as soon as the block cannot fit it.
//! The greedy matcher only ever appends to its output, so stopping early
//! gives exactly the answer compressing in full and comparing the length
//! would: a caller racing several codecs bounds each attempt by the best
//! size so far. [`compress`] is the same matcher into a buffer of
//! [`get_maximum_output_size`] bytes.
//!
//! The matcher's position table holds `u16` slots when every position of
//! the input fits one (inputs up to 64 KiB + 11 bytes), `u32` beyond.
//! Candidates are compared as one `u32` word and matches are extended 8
//! bytes at a time; the output is byte-for-byte that of the plain
//! byte-at-a-time greedy matcher. On decode a match that does not overlap
//! its source is one bulk copy, an offset-1 match is one fill, and only
//! overlapping periodic matches (offset 2 up to the match length) copy
//! byte by byte.

#![forbid(unsafe_code)]

use std::fmt;

/// Shortest representable match.
const MIN_MATCH: usize = 4;
/// A match must not start within this many bytes of the input end.
const MFLIMIT: usize = 12;
/// The last bytes of the input are always emitted as literals.
const LAST_LITERALS: usize = 5;
/// log2 of the matcher hash-table size.
const HASH_BITS: u32 = 13;

/// Why compression into a caller's buffer failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressError {
    /// The compressed block does not fit the output buffer.
    OutputTooSmall,
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::OutputTooSmall => {
                write!(f, "compressed block exceeds the output buffer")
            }
        }
    }
}

impl std::error::Error for CompressError {}

/// Why decompression failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompressError {
    /// The compressed stream ended inside a token, length, offset or run.
    Truncated,
    /// A match offset was zero or reached before the output start.
    BadOffset,
    /// The output exceeded the size the caller declared.
    OutputTooLarge {
        /// The declared expected size.
        expected: usize,
    },
}

impl fmt::Display for DecompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompressError::Truncated => write!(f, "compressed block truncated"),
            DecompressError::BadOffset => write!(f, "match offset outside decoded output"),
            DecompressError::OutputTooLarge { expected } => {
                write!(f, "decoded output exceeds expected {expected} bytes")
            }
        }
    }
}

impl std::error::Error for DecompressError {}

/// The largest block [`compress`] can produce from `input_len` bytes: an
/// incompressible input grows by at most `input_len/255 + 16` bytes of
/// framing. A [`compress_into`] buffer this long never overflows.
pub const fn get_maximum_output_size(input_len: usize) -> usize {
    input_len + input_len / 255 + 16
}

fn hash(seq: u32) -> usize {
    (seq.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes"))
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"))
}

/// The compressor's output: the caller's buffer and how much of it is
/// written. Every write is bounds-checked.
struct Sink<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl Sink<'_> {
    fn put(&mut self, bytes: &[u8]) -> Result<(), CompressError> {
        let end = self.pos + bytes.len();
        self.buf
            .get_mut(self.pos..end)
            .ok_or(CompressError::OutputTooSmall)?
            .copy_from_slice(bytes);
        self.pos = end;
        Ok(())
    }

    /// Bytes still free.
    fn room(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Append an LSIC-extended length (already reduced by the 15 carried in
/// the token nibble).
fn push_lsic(out: &mut Sink<'_>, v: usize) -> Result<(), CompressError> {
    let end = out.pos + v / 255;
    out.buf
        .get_mut(out.pos..end)
        .ok_or(CompressError::OutputTooSmall)?
        .fill(255);
    out.pos = end;
    out.put(&[(v % 255) as u8])
}

fn emit(out: &mut Sink<'_>, literals: &[u8], m: Option<(u16, usize)>) -> Result<(), CompressError> {
    let lit_nibble = literals.len().min(15);
    let match_nibble = m.map_or(0, |(_, len)| (len - MIN_MATCH).min(15));
    out.put(&[((lit_nibble as u8) << 4) | match_nibble as u8])?;
    if literals.len() >= 15 {
        push_lsic(out, literals.len() - 15)?;
    }
    out.put(literals)?;
    if let Some((offset, len)) = m {
        out.put(&offset.to_le_bytes())?;
        if len - MIN_MATCH >= 15 {
            push_lsic(out, len - MIN_MATCH - 15)?;
        }
    }
    Ok(())
}

/// One slot of the matcher's position table: a candidate position + 1
/// (0 = empty), in an integer wide enough for every position of the
/// input at hand.
trait Slot: Copy {
    const EMPTY: Self;
    fn pack(pos_plus_one: usize) -> Self;
    fn unpack(self) -> usize;
}

macro_rules! slot {
    ($($t:ty),*) => {$(
        impl Slot for $t {
            const EMPTY: $t = 0;
            fn pack(p: usize) -> $t {
                p as $t
            }
            fn unpack(self) -> usize {
                self as usize
            }
        }
    )*};
}
slot!(u16, u32, u64);

/// The greedy matcher over an input of at least `MFLIMIT + 1` bytes, with
/// every match-candidate position (+1) fitting an `S`.
fn compress_greedy<S: Slot>(input: &[u8], out: &mut Sink<'_>) -> Result<(), CompressError> {
    let n = input.len();
    let mut table = [S::EMPTY; 1 << HASH_BITS];
    let match_limit = n - MFLIMIT;
    let extend_limit = n - LAST_LITERALS;
    let mut anchor = 0usize;
    let mut i = 0usize;
    while i < match_limit {
        // The literals since `anchor` go out behind at least a token:
        // once they alone overflow the buffer, nothing later can fit.
        if i - anchor >= out.room() {
            return Err(CompressError::OutputTooSmall);
        }
        let seq = read_u32(input, i);
        let slot = hash(seq);
        let cand = table[slot].unpack();
        table[slot] = S::pack(i + 1);
        if cand != 0 {
            let c = cand - 1;
            if i - c <= u16::MAX as usize && read_u32(input, c) == seq {
                let mut len = MIN_MATCH;
                while i + len + 8 <= extend_limit {
                    let diff = read_u64(input, c + len) ^ read_u64(input, i + len);
                    if diff != 0 {
                        len += (diff.trailing_zeros() / 8) as usize;
                        break;
                    }
                    len += 8;
                }
                while i + len < extend_limit && input[c + len] == input[i + len] {
                    len += 1;
                }
                emit(out, &input[anchor..i], Some(((i - c) as u16, len)))?;
                i += len;
                anchor = i;
                continue;
            }
        }
        i += 1;
    }
    emit(out, &input[anchor..], None)
}

/// Compress `input` as one LZ4 block into `output`, returning the block's
/// length. Fails with [`CompressError::OutputTooSmall`] exactly when the
/// block is longer than `output`, stopping as soon as that is certain;
/// the bytes written before the failure are unspecified.
pub fn compress_into(input: &[u8], output: &mut [u8]) -> Result<usize, CompressError> {
    let mut out = Sink {
        buf: output,
        pos: 0,
    };
    let n = input.len();
    if n < MFLIMIT + 1 {
        emit(&mut out, input, None)?;
    } else if n - MFLIMIT <= u16::MAX as usize {
        compress_greedy::<u16>(input, &mut out)?;
    } else if n - MFLIMIT <= u32::MAX as usize {
        compress_greedy::<u32>(input, &mut out)?;
    } else {
        compress_greedy::<u64>(input, &mut out)?;
    }
    Ok(out.pos)
}

/// Compress `input` as one LZ4 block. Deterministic; an incompressible
/// input grows by at most `input.len()/255 + 16` bytes of framing.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; get_maximum_output_size(input.len())];
    let len = compress_into(input, &mut out).expect("the worst-case size always fits");
    out.truncate(len);
    out
}

/// Decompress one LZ4 block. `expected` is the uncompressed size the
/// caller recorded at compression time; output beyond it is an error
/// (the bound is what keeps hostile input from ballooning memory).
pub fn decompress(input: &[u8], expected: usize) -> Result<Vec<u8>, DecompressError> {
    let mut out = Vec::with_capacity(expected);
    let mut i = 0usize;
    let read_lsic = |i: &mut usize, base: usize| -> Result<usize, DecompressError> {
        let mut len = base;
        if base == 15 {
            loop {
                let b = *input.get(*i).ok_or(DecompressError::Truncated)?;
                *i += 1;
                len += b as usize;
                if b != 255 {
                    break;
                }
            }
        }
        Ok(len)
    };
    loop {
        let token = *input.get(i).ok_or(DecompressError::Truncated)?;
        i += 1;
        let lit_len = read_lsic(&mut i, (token >> 4) as usize)?;
        let lits = input
            .get(i..i + lit_len)
            .ok_or(DecompressError::Truncated)?;
        i += lit_len;
        if out.len() + lit_len > expected {
            return Err(DecompressError::OutputTooLarge { expected });
        }
        out.extend_from_slice(lits);
        if i == input.len() {
            // The final sequence is literals-only.
            return Ok(out);
        }
        let off = input.get(i..i + 2).ok_or(DecompressError::Truncated)?;
        let offset = u16::from_le_bytes(off.try_into().expect("2 bytes")) as usize;
        i += 2;
        if offset == 0 || offset > out.len() {
            return Err(DecompressError::BadOffset);
        }
        let match_len = read_lsic(&mut i, (token & 0x0F) as usize)? + MIN_MATCH;
        if out.len() + match_len > expected {
            return Err(DecompressError::OutputTooLarge { expected });
        }
        let start = out.len() - offset;
        if offset >= match_len {
            out.extend_from_within(start..start + match_len);
        } else if offset == 1 {
            let b = out[start];
            out.resize(out.len() + match_len, b);
        } else {
            // Overlapping periodic match: later bytes copy bytes this
            // very match writes.
            for k in 0..match_len {
                let b = out[start + k];
                out.push(b);
            }
        }
    }
}

/// Compress with the uncompressed size prepended as a little-endian u32
/// (the real crate's convenience framing).
pub fn compress_prepend_size(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 20);
    out.extend_from_slice(&(input.len() as u32).to_le_bytes());
    out.extend_from_slice(&compress(input));
    out
}

/// Decompress a [`compress_prepend_size`] buffer.
pub fn decompress_size_prepended(input: &[u8]) -> Result<Vec<u8>, DecompressError> {
    let size = input.get(..4).ok_or(DecompressError::Truncated)?;
    let expected = u32::from_le_bytes(size.try_into().expect("4 bytes")) as usize;
    let out = decompress(&input[4..], expected)?;
    if out.len() != expected {
        return Err(DecompressError::Truncated);
    }
    Ok(out)
}

/// The real crate exposes the block API under `block` too.
pub mod block {
    pub use super::{
        compress, compress_into, compress_prepend_size, decompress, decompress_size_prepended,
        get_maximum_output_size, CompressError, DecompressError,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c, data.len()).expect("decompress");
        assert_eq!(d, data, "roundtrip failed for len {}", data.len());
        let framed = compress_prepend_size(data);
        assert_eq!(decompress_size_prepended(&framed).unwrap(), data);
    }

    /// The plain greedy matcher the shim shipped with — `usize` table,
    /// byte-at-a-time candidate check and match extension, growing `Vec`
    /// output. [`compress`] must produce exactly its bytes.
    fn compress_reference(input: &[u8]) -> Vec<u8> {
        fn push_lsic(out: &mut Vec<u8>, mut v: usize) {
            while v >= 255 {
                out.push(255);
                v -= 255;
            }
            out.push(v as u8);
        }
        fn emit(out: &mut Vec<u8>, literals: &[u8], m: Option<(u16, usize)>) {
            let lit_nibble = literals.len().min(15);
            let match_nibble = m.map_or(0, |(_, len)| (len - MIN_MATCH).min(15));
            out.push(((lit_nibble as u8) << 4) | match_nibble as u8);
            if literals.len() >= 15 {
                push_lsic(out, literals.len() - 15);
            }
            out.extend_from_slice(literals);
            if let Some((offset, len)) = m {
                out.extend_from_slice(&offset.to_le_bytes());
                if len - MIN_MATCH >= 15 {
                    push_lsic(out, len - MIN_MATCH - 15);
                }
            }
        }
        let n = input.len();
        let mut out = Vec::with_capacity(n / 2 + 16);
        if n < MFLIMIT + 1 {
            emit(&mut out, input, None);
            return out;
        }
        let mut table = vec![0usize; 1 << HASH_BITS];
        let match_limit = n - MFLIMIT;
        let extend_limit = n - LAST_LITERALS;
        let mut anchor = 0usize;
        let mut i = 0usize;
        while i < match_limit {
            let seq = u32::from_le_bytes(input[i..i + 4].try_into().expect("4 bytes"));
            let slot = hash(seq);
            let cand = table[slot];
            table[slot] = i + 1;
            if cand != 0 {
                let c = cand - 1;
                if i - c <= u16::MAX as usize && input[c..c + 4] == input[i..i + 4] {
                    let mut len = MIN_MATCH;
                    while i + len < extend_limit && input[c + len] == input[i + len] {
                        len += 1;
                    }
                    emit(&mut out, &input[anchor..i], Some(((i - c) as u16, len)));
                    i += len;
                    anchor = i;
                    continue;
                }
            }
            i += 1;
        }
        emit(&mut out, &input[anchor..], None);
        out
    }

    /// xorshift64* bytes.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    /// One of the input shapes the store feeds the codec: 0 random,
    /// 1 periodic, 2 constant, 3 an `f64` lattice (slowly varying
    /// doubles, the checkpointed arrays' shape).
    fn shaped(kind: u8, seed: u64, len: usize) -> Vec<u8> {
        match kind % 4 {
            0 => noise(seed, len),
            1 => {
                let period = noise(seed, 1 + (seed % 300) as usize);
                period.iter().copied().cycle().take(len).collect()
            }
            2 => vec![seed as u8; len],
            _ => {
                let mut v: Vec<u8> = (0..len.div_ceil(8))
                    .flat_map(|k| (1.0 + (k as f64 + seed as f64) * 1e-3).sin().to_le_bytes())
                    .collect();
                v.truncate(len);
                v
            }
        }
    }

    /// The store's 8-stride byte shuffle (lane-major transposition of the
    /// 8-aligned prefix, tail passed through).
    fn shuffle8(data: &[u8]) -> Vec<u8> {
        let words = data.len() / 8;
        let mut out: Vec<u8> = (0..8)
            .flat_map(|k| (0..words).map(move |w| (w, k)))
            .map(|(w, k)| data[w * 8 + k])
            .collect();
        out.extend_from_slice(&data[words * 8..]);
        out
    }

    #[test]
    fn roundtrips_edge_sizes() {
        for len in [0usize, 1, 4, 11, 12, 13, 64, 255, 256, 4096] {
            let data: Vec<u8> = (0..len).map(|i| (i % 7) as u8).collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn roundtrips_incompressible() {
        let mut x = 0x9E3779B97F4A7C15u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn compresses_runs_and_periodic_data() {
        let runs = vec![0xABu8; 10_000];
        assert!(compress(&runs).len() < 100);
        roundtrip(&runs);
        let periodic: Vec<u8> = (0..8192).map(|i| (i % 16) as u8).collect();
        assert!(compress(&periodic).len() < periodic.len() / 4);
        roundtrip(&periodic);
    }

    #[test]
    fn long_literal_and_match_lsic_paths() {
        // > 255+15 literals then a long run exercises both LSIC loops.
        let mut data: Vec<u8> = (0..300).map(|i| (i * 17 % 251) as u8).collect();
        data.extend(std::iter::repeat_n(0x5A, 600));
        roundtrip(&data);
    }

    #[test]
    fn hostile_input_errors_never_panics() {
        // Truncations of a valid stream.
        let data: Vec<u8> = (0..512).map(|i| (i % 9) as u8).collect();
        let c = compress(&data);
        for cut in 0..c.len() {
            let _ = decompress(&c[..cut], data.len());
        }
        // Bad offset (reaches before output start).
        let bad = [0x01u8, 0x41, 0xFF, 0xFF];
        assert!(decompress(&bad, 64).is_err());
        // Output larger than declared.
        assert!(matches!(
            decompress(&c, data.len() - 1),
            Err(DecompressError::OutputTooLarge { .. })
        ));
        // Zero offset.
        let zero = [0x11u8, 0x41, 0x00, 0x00, 0x00];
        assert!(matches!(
            decompress(&zero, 64),
            Err(DecompressError::BadOffset)
        ));
    }

    #[test]
    fn empty_input() {
        assert_eq!(decompress(&compress(&[]), 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn matcher_equals_the_reference_across_the_slot_width_switch() {
        // `u16` slots hold every position of inputs up to 65_547 bytes;
        // one byte more switches the table to `u32`.
        let switch = u16::MAX as usize + MFLIMIT;
        for len in [switch - 1, switch, switch + 1, switch + 2, 70_000] {
            for kind in 0..4u8 {
                let data = shaped(kind, len as u64, len);
                for input in [shuffle8(&data), data] {
                    assert_eq!(
                        compress(&input),
                        compress_reference(&input),
                        "len {len} kind {kind}"
                    );
                }
            }
        }
    }

    /// A hand-built block: one sequence of `lits` literals then a match of
    /// `len` bytes at `offset`, then `tail` trailing literals.
    fn one_match_block(lits: &[u8], offset: usize, len: usize, tail: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; get_maximum_output_size(lits.len() + len + tail.len())];
        let mut sink = Sink {
            buf: &mut out,
            pos: 0,
        };
        emit(&mut sink, lits, Some((offset as u16, len))).unwrap();
        emit(&mut sink, tail, None).unwrap();
        let end = sink.pos;
        out.truncate(end);
        out
    }

    #[test]
    fn decode_copies_every_match_shape() {
        // Offset 1 (a fill), offsets 2..=16 below the match length
        // (overlapping periodic copies), and offsets at or above it (bulk
        // copies), each checked against the byte-by-byte definition.
        let lits = noise(3, 40);
        let tail = noise(4, 7);
        for offset in 1..=32usize {
            for len in [
                4usize,
                5,
                offset.saturating_sub(1),
                offset,
                offset + 1,
                19,
                300,
            ] {
                if len < MIN_MATCH {
                    continue;
                }
                let mut want = lits.clone();
                for _ in 0..len {
                    want.push(want[want.len() - offset]);
                }
                want.extend_from_slice(&tail);
                let block = one_match_block(&lits, offset, len, &tail);
                assert_eq!(
                    decompress(&block, want.len()).unwrap(),
                    want,
                    "offset {offset} len {len}"
                );
                assert!(matches!(
                    decompress(&block, want.len() - tail.len() - 1),
                    Err(DecompressError::OutputTooLarge { .. })
                ));
            }
        }
        // The matcher's own streams: runs, short periods, distant repeats.
        let mut mixed = vec![7u8; 500];
        for period in 2..=16 {
            mixed.extend(noise(period as u64, period).iter().cycle().take(200));
        }
        let phrase = noise(99, 64);
        mixed.extend_from_slice(&phrase);
        mixed.extend(noise(100, 300));
        mixed.extend_from_slice(&phrase);
        roundtrip(&mixed);
    }

    #[test]
    fn zero_length_output_never_panics() {
        for len in [0usize, 1, 12, 13, 64, 4096] {
            for kind in 0..4u8 {
                let data = shaped(kind, 5, len);
                assert_eq!(
                    compress_into(&data, &mut []),
                    Err(CompressError::OutputTooSmall),
                    "len {len} kind {kind}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn compress_equals_the_reference(
            kind in 0u8..4,
            seed in any::<u64>(),
            len in 0usize..=70_000,
            shuffle in any::<bool>(),
        ) {
            let data = shaped(kind, seed, len);
            let input = if shuffle { shuffle8(&data) } else { data };
            let want = compress_reference(&input);
            prop_assert_eq!(compress(&input), want.clone());
            prop_assert_eq!(decompress(&want, input.len()).unwrap(), input);
        }

        #[test]
        fn compress_into_fails_exactly_below_the_block_length(
            kind in 0u8..4,
            seed in any::<u64>(),
            len in 0usize..6_000,
            shuffle in any::<bool>(),
        ) {
            let data = shaped(kind, seed, len);
            let input = if shuffle { shuffle8(&data) } else { data };
            let want = compress(&input);
            let n = want.len();
            let mut short = vec![0u8; n - 1];
            prop_assert_eq!(
                compress_into(&input, &mut short),
                Err(CompressError::OutputTooSmall)
            );
            for room in [n, n + 1] {
                let mut buf = vec![0u8; room];
                prop_assert_eq!(compress_into(&input, &mut buf), Ok(n));
                prop_assert_eq!(&buf[..n], &want[..]);
            }
        }
    }
}
