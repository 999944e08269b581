//! Hardware-style combinational blocks used by the spill/fill converters.
//!
//! The paper's Figures 8 and 9 build the L1↔L2 format converters out of a
//! small set of blocks: 6→64 one-hot decoders, an OR-reduction into a
//! *used-values* vector, and *Find-index* blocks (64 shifters plus one
//! comparator) that locate the first set/clear bit. This module models those
//! blocks as pure functions over 64-bit vectors so that
//!
//! 1. the converter in [`crate::convert`] is a direct transcription of the
//!    paper's logic rather than an opaque re-derivation, and
//! 2. the VLSI cost model (`califorms-vlsi`) can count exactly these
//!    structures.
//!
//! The per-byte banks (comparators, write enables) are evaluated
//! word-parallel, eight bytes to a `u64` (SWAR): a comparator bank is an
//! XOR against the broadcast pattern, an exact zero-byte detect, and a
//! gather of each byte's flag bit into the 64-bit result vector. A
//! *Find-index* chain is a `trailing_zeros` loop that clears each bit it
//! finds.

use crate::line::LINE_BYTES;

/// 6→64 one-hot decoder: returns a vector with only bit `value` set.
///
/// `value` is masked to its least significant 6 bits, mirroring the
/// hardware, which only ever sees 6 wires.
#[inline]
pub fn decode6(value: u8) -> u64 {
    1u64 << (value & 0x3F)
}

/// `0x01` in every byte lane of a word.
const ONES: u64 = 0x0101_0101_0101_0101;
/// The low seven bits of every byte lane.
const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;

/// The line as eight little-endian words: byte `i` is byte lane `i % 8`
/// of word `i / 8`.
#[inline]
fn to_words(bytes: &[u8; LINE_BYTES]) -> [u64; 8] {
    core::array::from_fn(|w| {
        let mut lane = [0u8; 8];
        lane.copy_from_slice(&bytes[8 * w..8 * w + 8]);
        u64::from_le_bytes(lane)
    })
}

/// Bit 7 of each byte lane set iff that lane of `x` is non-zero (exact:
/// no carry crosses a lane).
#[inline]
fn nonzero_lanes(x: u64) -> u64 {
    ((x & LOW7).wrapping_add(LOW7) | x) & !LOW7
}

/// Gathers bit 7 of each byte lane of `x` into bits 0..8 (lane `j` →
/// bit `j`): one multiply moves every flag to a distinct bit of the top
/// byte.
#[inline]
fn gather_lanes(x: u64) -> u64 {
    ((x >> 7) & ONES).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// Expands the low 8 bits of `bits` into byte lanes: lane `j` is `0xFF`
/// iff bit `j` is set.
#[inline]
fn lane_mask(bits: u64) -> u64 {
    let spread = (bits & 0xFF).wrapping_mul(ONES) & 0x8040_2010_0804_0201;
    (nonzero_lanes(spread) >> 7) * 0xFF
}

/// Builds the *used-values* vector of a line: bit `v` is set iff some
/// **normal** byte of the line has `v` as its least significant 6 bits.
///
/// Security bytes are excluded (their decoder outputs are gated by the
/// bitvector metadata): they carry no program data, and excluding them is
/// what guarantees a free pattern exists — with at least one security byte
/// there are at most 63 normal bytes, hence at most 63 used patterns out of
/// 64.
pub fn used_values(data: &[u8; LINE_BYTES], security_mask: u64) -> u64 {
    // Gating the security bytes' decoders is the same as overwriting
    // those bytes with the value of a normal byte, whose pattern is in
    // the vector anyway: one word-parallel select, then every decoder
    // output is ORed in ungated.
    let Some(normal) = find_first_zero(security_mask) else {
        return 0;
    };
    let mut gated = *data;
    set_bytes(&mut gated, security_mask, data[usize::from(normal)]);
    gated.iter().fold(0, |used, &byte| used | decode6(byte))
}

/// Find-index block: index of the first **zero** bit of `vector`, scanning
/// from bit 0, or `None` if all 64 bits are set.
///
/// The hardware realises this with 64 shift blocks feeding one comparator;
/// here `trailing_ones` is the same function.
#[inline]
pub fn find_first_zero(vector: u64) -> Option<u8> {
    let idx = vector.trailing_ones();
    (idx < 64).then_some(idx as u8)
}

/// Find-index block: index of the first **one** bit of `vector`, or `None`
/// if the vector is all zeros.
#[inline]
pub fn find_first_one(vector: u64) -> Option<u8> {
    let idx = vector.trailing_zeros();
    (idx < 64).then_some(idx as u8)
}

/// Four chained find-index blocks (Figure 8, step 8): the indices of the
/// first `min(popcount, 4)` set bits of `vector`, ascending, and how many
/// there are. Each stage masks off the bit the previous stage found.
#[inline]
pub fn find_first_four_ones(mut vector: u64) -> ([u8; 4], usize) {
    let mut out = [0u8; 4];
    let mut count = 0;
    while count < 4 {
        let Some(idx) = find_first_one(vector) else {
            break;
        };
        out[count] = idx;
        vector &= vector - 1;
        count += 1;
    }
    (out, count)
}

/// Chooses the sentinel for a line: the first 6-bit pattern not used by any
/// normal byte (Figure 8's Find-index-of-first-0 over the used-values
/// vector).
///
/// Returns `None` only if every one of the 64 patterns is in use, which
/// cannot happen when the line holds at least one security byte.
pub fn find_sentinel(data: &[u8; LINE_BYTES], security_mask: u64) -> Option<u8> {
    find_first_zero(used_values(data, security_mask))
}

/// The parallel comparator bank of the fill path (Figure 9): bit `i` of the
/// result is set iff byte `i`'s least significant 6 bits equal `sentinel`.
pub fn sentinel_matches(data: &[u8; LINE_BYTES], sentinel: u8) -> u64 {
    let pattern = u64::from(sentinel & 0x3F) * ONES;
    to_words(data)
        .iter()
        .enumerate()
        .fold(0, |matches, (w, &word)| {
            let differs = nonzero_lanes(word & (0x3F * ONES) ^ pattern);
            matches | gather_lanes(!differs & !LOW7) << (8 * w)
        })
}

/// The write-enable bank: every byte of `data` under `mask` takes
/// `value`, eight bytes per word.
pub fn set_bytes(data: &mut [u8; LINE_BYTES], mask: u64, value: u8) {
    let fill = u64::from(value) * ONES;
    for (w, word) in to_words(data).into_iter().enumerate() {
        let enable = lane_mask(mask >> (8 * w));
        let merged = word & !enable | fill & enable;
        data[8 * w..8 * w + 8].copy_from_slice(&merged.to_le_bytes());
    }
}

/// The index of the first byte under `mask` that is non-zero, or `None`
/// — the canonical-form check, eight bytes per word.
pub fn first_nonzero_under(data: &[u8; LINE_BYTES], mask: u64) -> Option<usize> {
    to_words(data).iter().enumerate().find_map(|(w, &word)| {
        let under = word & lane_mask(mask >> (8 * w));
        (under != 0).then(|| 8 * w + under.trailing_zeros() as usize / 8)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode6_is_one_hot() {
        for v in 0u8..64 {
            assert_eq!(decode6(v).count_ones(), 1);
            assert_eq!(decode6(v).trailing_zeros(), v as u32);
        }
        // Only the low 6 bits participate.
        assert_eq!(decode6(0xFF), decode6(0x3F));
        assert_eq!(decode6(0x40), decode6(0x00));
    }

    #[test]
    fn used_values_ignores_security_bytes() {
        let mut data = [0u8; LINE_BYTES];
        data[0] = 5;
        data[1] = 9;
        let used = used_values(&data, 1 << 1);
        assert_eq!(used, decode6(5) | decode6(0)); // byte 1 excluded; rest are 0
    }

    #[test]
    fn used_values_collapses_on_low_six_bits() {
        let mut data = [0u8; LINE_BYTES];
        data[0] = 0x41; // low 6 bits = 1
        data[1] = 0x01; // low 6 bits = 1
        let used = used_values(&data, !0u64 << 2); // only bytes 0 and 1 normal
        assert_eq!(used, decode6(1));
    }

    #[test]
    fn find_first_zero_finds_gaps() {
        assert_eq!(find_first_zero(0), Some(0));
        assert_eq!(find_first_zero(0b0111), Some(3));
        assert_eq!(find_first_zero(u64::MAX), None);
        assert_eq!(find_first_zero(u64::MAX ^ (1 << 63)), Some(63));
    }

    #[test]
    fn find_first_one_finds_bits() {
        assert_eq!(find_first_one(0), None);
        assert_eq!(find_first_one(0b1000), Some(3));
        assert_eq!(find_first_one(1 << 63), Some(63));
    }

    #[test]
    fn find_first_four_ones_ascends_and_truncates() {
        let v = 1 << 3 | 1 << 17 | 1 << 42;
        assert_eq!(find_first_four_ones(v), ([3, 17, 42, 0], 3));
        let v = v | 1 << 0 | 1 << 63;
        assert_eq!(find_first_four_ones(v), ([0, 3, 17, 42], 4));
        assert_eq!(find_first_four_ones(0).1, 0);
    }

    #[test]
    fn lane_helpers_are_exact() {
        for bits in 0u64..256 {
            let lanes = lane_mask(bits).to_le_bytes();
            for (j, &lane) in lanes.iter().enumerate() {
                assert_eq!(lane, if bits >> j & 1 == 1 { 0xFF } else { 0 });
            }
            assert_eq!(gather_lanes(lane_mask(bits) & !LOW7), bits);
        }
        // 0x80 and 0x01 are non-zero; no borrow or carry leaks between
        // lanes.
        let x = u64::from_le_bytes([0, 0x80, 0x01, 0, 0xFF, 0, 0x7F, 0]);
        assert_eq!(gather_lanes(nonzero_lanes(x)), 0b0101_0110);
    }

    #[test]
    fn set_bytes_and_canonical_check() {
        let mut data = [0xAAu8; LINE_BYTES];
        let mask = 1 << 0 | 1 << 9 | 1 << 63;
        assert_eq!(first_nonzero_under(&data, mask), Some(0));
        set_bytes(&mut data, mask, 0);
        assert_eq!(first_nonzero_under(&data, mask), None);
        assert_eq!(first_nonzero_under(&data, mask | 1 << 10), Some(10));
        set_bytes(&mut data, 1 << 9 | 1 << 30, 0x15);
        assert_eq!(
            (data[9], data[30], data[31], data[63]),
            (0x15, 0x15, 0xAA, 0)
        );
    }

    #[test]
    fn sentinel_always_exists_with_a_security_byte() {
        // Worst case: normal bytes cover 63 distinct low-6 patterns.
        let mut data = [0u8; LINE_BYTES];
        for (i, byte) in data.iter_mut().enumerate().take(63) {
            *byte = i as u8; // patterns 0..=62
        }
        // byte 63 is the security byte
        let mask = 1u64 << 63;
        assert_eq!(find_sentinel(&data, mask), Some(63));
    }

    #[test]
    fn sentinel_matches_compares_low_six_bits() {
        let mut data = [0xFFu8; LINE_BYTES];
        data[2] = 0x2A;
        data[7] = 0x6A; // low 6 bits also 0x2A
        let m = sentinel_matches(&data, 0x2A);
        assert_eq!(m, 1 << 2 | 1 << 7);
    }

    #[test]
    fn no_sentinel_when_all_patterns_used_by_normal_bytes() {
        let mut data = [0u8; LINE_BYTES];
        for (i, byte) in data.iter_mut().enumerate() {
            *byte = i as u8;
        }
        assert_eq!(find_sentinel(&data, 0), None);
    }
}
