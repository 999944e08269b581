//! The L2-and-beyond cache-line format: *califorms-sentinel* (Section 5.2).
//!
//! Beyond the L1, a line carries a single metadata bit (*califormed?* — 1
//! bit per 64 B line, 0.2 % overhead). A califormed line stores its
//! blacklist metadata **inside** the line, in a header occupying the first
//! ≤4 bytes (paper Figure 7):
//!
//! ```text
//! byte 0 bits [1:0]  count code: 00→1, 01→2, 10→3, 11→4 or more
//! then, packed 6 bits at a time (LSB first):
//!   code 00:  Addr0
//!   code 01:  Addr0 Addr1
//!   code 10:  Addr0 Addr1 Addr2
//!   code 11:  Addr0 Addr1 Addr2 Addr3 Sentinel   (exactly 32 bits = 4 B)
//! ```
//!
//! Packed LSB first, the header is one little-endian `u32` over the first
//! four bytes (only its first `count` bytes are header; the rest stay
//! data), so [`SentinelHeader`] encodes and decodes it in one word.
//!
//! `Addr0..Addr3` are the line offsets of the first (lowest-addressed) four
//! security bytes, ascending. With the `11` code, every *additional*
//! security byte is marked by holding the 6-bit **sentinel** value — a
//! pattern chosen at spill time to differ from the least significant 6 bits
//! of every normal byte. Such a pattern always exists: at least one security
//! byte means at most 63 normal bytes, hence at most 63 of the 64 patterns
//! are in use.
//!
//! The original data of the header bytes is displaced into the listed
//! security-byte slots (which hold no data of their own). The exact
//! displacement rule — a detail the paper leaves implicit — is documented on
//! [`displacement_map`] and is what makes the encoding invertible even when
//! security bytes fall *inside* the header region.
//!
//! Encoding/decoding between this format and the canonical
//! [`CaliformedLine`](crate::line::CaliformedLine) is performed by
//! [`crate::convert::spill`] and [`crate::convert::fill`].

use crate::error::{CoreError, Result};
use crate::line::LINE_BYTES;

/// A cache line as held in the L2 cache and beyond: 64 bytes plus the
/// single *califormed?* metadata bit (stored in spare ECC bits once in
/// DRAM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Line {
    /// Raw line bytes — califormed-format if [`Self::califormed`] is set,
    /// plain data otherwise.
    pub bytes: [u8; LINE_BYTES],
    /// The per-line metadata bit.
    pub califormed: bool,
}

impl L2Line {
    /// A non-califormed line of plain data.
    pub const fn plain(bytes: [u8; LINE_BYTES]) -> Self {
        Self {
            bytes,
            califormed: false,
        }
    }

    /// Decodes this line's header.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CorruptSentinelHeader`] if the line is not
    /// califormed or the listed addresses are not strictly ascending (the
    /// canonical order the spill hardware emits).
    pub fn header(&self) -> Result<SentinelHeader> {
        if !self.califormed {
            return Err(CoreError::CorruptSentinelHeader {
                what: "line is not califormed",
            });
        }
        SentinelHeader::decode(&self.bytes)
    }
}

/// Number of header bytes used for a given listed-address count (1–4).
///
/// Count 1 needs 2+6=8 bits (1 byte); count 2 needs 14 bits (2 bytes);
/// count 3 needs 20 bits (3 bytes); count 4 needs 2+24+6=32 bits (4 bytes).
pub const fn header_len(listed: usize) -> usize {
    listed
}

/// Decoded califorms-sentinel header.
///
/// The listed addresses live in a fixed `[u8; 4]` with a count, so
/// encoding and decoding never allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SentinelHeader {
    listed: [u8; 4],
    count: u8,
    /// The sentinel pattern, present only when the count code is `11`
    /// (four **or more** security bytes).
    pub sentinel: Option<u8>,
}

impl SentinelHeader {
    /// Encodes a header into the first `listed.len()` bytes of `out`.
    ///
    /// `listed` must hold 1–4 ascending line offsets; `sentinel` must be
    /// `Some` exactly when `listed.len() == 4`. The header is one
    /// little-endian word: the count code in bits 1:0, then each 6-bit
    /// field in turn (Figure 7, packed LSB first), merged into the first
    /// four bytes so that those past the header keep their data.
    ///
    /// # Panics
    ///
    /// Panics on violated preconditions — the spill path constructs its
    /// arguments so they hold by design.
    pub fn encode(listed: &[u8], sentinel: Option<u8>, out: &mut [u8; LINE_BYTES]) {
        assert!(
            (1..=4).contains(&listed.len()),
            "listed address count must be 1..=4"
        );
        assert!(
            listed.windows(2).all(|w| w[0] < w[1]),
            "listed addresses must be strictly ascending"
        );
        assert_eq!(
            sentinel.is_some(),
            listed.len() == 4,
            "sentinel present iff count code is 11"
        );
        let mut word = (listed.len() - 1) as u32;
        for (i, &addr) in listed.iter().enumerate() {
            debug_assert!(addr < 64);
            word |= u32::from(addr & 0x3F) << (2 + 6 * i);
        }
        if let Some(s) = sentinel {
            word |= u32::from(s & 0x3F) << 26;
        }
        let k = header_len(listed.len());
        let keep = u32::MAX.checked_shl(8 * k as u32).unwrap_or(0);
        let first = u32::from_le_bytes([out[0], out[1], out[2], out[3]]);
        out[..4].copy_from_slice(&(first & keep | word).to_le_bytes());
    }

    /// Line offsets of the first `min(n, 4)` security bytes, ascending.
    pub fn listed(&self) -> &[u8] {
        &self.listed[..usize::from(self.count)]
    }

    /// Decodes the header from the first bytes of a califormed line.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CorruptSentinelHeader`] if the listed addresses
    /// are not strictly ascending.
    pub fn decode(bytes: &[u8; LINE_BYTES]) -> Result<Self> {
        let word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        let code = word & 0b11;
        let count = code as usize + 1;
        let mut listed = [0u8; 4];
        for (i, a) in listed.iter_mut().enumerate().take(count) {
            *a = (word >> (2 + 6 * i) & 0x3F) as u8;
        }
        if !listed[..count].windows(2).all(|w| w[0] < w[1]) {
            return Err(CoreError::CorruptSentinelHeader {
                what: "listed addresses not strictly ascending",
            });
        }
        Ok(Self {
            listed,
            count: count as u8,
            sentinel: (code == 0b11).then_some((word >> 26) as u8),
        })
    }

    /// The number of header bytes this header occupies.
    pub fn header_bytes(&self) -> usize {
        header_len(usize::from(self.count))
    }
}

/// The header bytes' data displacement of one line: `(source, target)`
/// pairs, at most four, in a fixed array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Displacement {
    pairs: [(u8, u8); 4],
    len: u8,
}

impl Displacement {
    /// The `(source, target)` pairs, ascending in both.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.pairs[..usize::from(self.len)]
            .iter()
            .map(|&(s, t)| (usize::from(s), usize::from(t)))
    }
}

/// The displacement rule that preserves the header bytes' original data.
///
/// Returns `(source, target)` pairs: original data of header byte `source`
/// is stored at security-byte slot `target` while the line is in sentinel
/// format.
///
/// * *sources* — header byte offsets `0..k` that are **not** themselves
///   security bytes (security bytes carry no data to preserve), ascending;
/// * *targets* — **listed** security-byte slots at offset `≥ k`, ascending.
///
/// The counts always match because the header length `k` equals the listed
/// count `c`, so `|sources| = k − |S ∩ [0,k)| = c − |S ∩ [0,k)| = |targets|`.
/// Restricting targets to *listed* slots keeps displaced data out of the
/// sentinel scan's way on fill.
pub fn displacement_map(listed: &[u8], security_mask: u64) -> Displacement {
    let k = header_len(listed.len());
    // Header offsets that are normal bytes: one find-first-one each.
    let mut sources = !security_mask & ((1u64 << k) - 1);
    let mut out = Displacement {
        pairs: [(0, 0); 4],
        len: 0,
    };
    for &target in listed.iter().filter(|&&a| usize::from(a) >= k) {
        if sources == 0 {
            break;
        }
        out.pairs[usize::from(out.len)] = (sources.trailing_zeros() as u8, target);
        out.len += 1;
        sources &= sources - 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips_all_counts() {
        for count in 1..=4usize {
            let listed: Vec<u8> = (0..count as u8).map(|i| i * 13 + 2).collect();
            let sentinel = (count == 4).then_some(0x2Au8);
            let mut out = [0xEEu8; LINE_BYTES];
            SentinelHeader::encode(&listed, sentinel, &mut out);
            let hdr = SentinelHeader::decode(&out).unwrap();
            assert_eq!(hdr.listed(), listed);
            assert_eq!(hdr.sentinel, sentinel);
            assert_eq!(hdr.header_bytes(), count);
            // Bytes beyond the header untouched.
            assert!(out[count..].iter().all(|&b| b == 0xEE));
        }
    }

    #[test]
    fn count_code_occupies_low_two_bits() {
        let mut out = [0u8; LINE_BYTES];
        SentinelHeader::encode(&[7], None, &mut out);
        assert_eq!(out[0] & 0b11, 0b00);
        assert_eq!(out[0] >> 2, 7);
    }

    #[test]
    fn four_security_bytes_pack_exactly_four_bytes() {
        let mut out = [0xFFu8; LINE_BYTES];
        SentinelHeader::encode(&[0, 1, 2, 63], Some(0x3F), &mut out);
        assert_eq!(out[0] & 0b11, 0b11);
        let hdr = SentinelHeader::decode(&out).unwrap();
        assert_eq!(hdr.listed(), [0, 1, 2, 63]);
        assert_eq!(hdr.sentinel, Some(0x3F));
        assert_eq!(out[4], 0xFF, "byte 4 is data, not header");
    }

    #[test]
    fn decode_rejects_descending_addresses() {
        let mut out = [0u8; LINE_BYTES];
        SentinelHeader::encode(&[3, 9], None, &mut out);
        // Swap the two 6-bit address fields by hand: write 9 then 3.
        let mut swapped = [0u8; LINE_BYTES];
        let word: u16 = 0b01 | 9 << 2 | 3 << 8;
        swapped[..2].copy_from_slice(&word.to_le_bytes());
        assert!(SentinelHeader::decode(&swapped).is_err());
        // The hand-built word is the encoder's layout: 3 then 9 decodes.
        let word: u16 = 0b01 | 3 << 2 | 9 << 8;
        swapped[..2].copy_from_slice(&word.to_le_bytes());
        assert_eq!(SentinelHeader::decode(&swapped).unwrap().listed(), [3, 9]);
        assert_eq!(swapped[..2], out[..2]);
    }

    #[test]
    fn displacement_counts_match_by_construction() {
        // Security bytes inside the header region shrink both sides equally.
        let listed = [1u8, 9, 17, 33];
        let mask = listed.iter().fold(0u64, |m, &a| m | 1 << a);
        let map = displacement_map(&listed, mask);
        assert_eq!(map.pairs().collect::<Vec<_>>(), [(0, 9), (2, 17), (3, 33)]);
    }

    #[test]
    fn displacement_empty_when_header_is_all_security() {
        let listed = [0u8, 1, 2, 3];
        let mask = 0b1111u64 | 1 << 63;
        assert_eq!(displacement_map(&listed, mask).pairs().count(), 0);
    }

    #[test]
    fn displacement_simple_case() {
        // One security byte at 40: header is byte 0, its data moves to 40.
        let map = displacement_map(&[40], 1 << 40);
        assert_eq!(map.pairs().collect::<Vec<_>>(), [(0, 40)]);
    }

    #[test]
    #[should_panic(expected = "sentinel present iff")]
    fn encode_rejects_missing_sentinel() {
        let mut out = [0u8; LINE_BYTES];
        SentinelHeader::encode(&[0, 1, 2, 3], None, &mut out);
    }
}
