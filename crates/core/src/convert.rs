//! Spill and fill: conversion between the L1 and L2 line formats.
//!
//! [`spill`] is the paper's Algorithm 1 (califorms-bitvector →
//! califorms-sentinel, performed by the L1 controller on eviction);
//! [`fill`] is Algorithm 2 (sentinel → bitvector, on L1 insertion). Both
//! are direct transcriptions of the paper's pseudo-code on top of the
//! hardware blocks in [`crate::hwlogic`], and they are exact inverses:
//! `fill(spill(x)) == x` for every canonical line (property-tested in this
//! crate's test suite).

use crate::bitvector::L1Line;
use crate::error::{CoreError, Result};
use crate::hwlogic;
use crate::line::CaliformedLine;
use crate::sentinel::{displacement_map, L2Line, SentinelHeader};

/// Converts an L1 (bitvector) line to the L2 (sentinel) format —
/// paper Algorithm 1.
///
/// # Errors
///
/// Returns [`CoreError::NoSentinelAvailable`] only on non-canonical input
/// (a line whose 64 normal bytes use all 64 six-bit patterns *and* claims
/// security bytes — impossible for lines built through this crate's API).
pub fn spill(l1: &L1Line) -> Result<L2Line> {
    let line = l1.line();
    // Alg. 1 lines 1–3: OR the metadata; a clean line is evicted as is.
    if !line.is_califormed() {
        return Ok(L2Line::plain(*line.data()));
    }

    let mask = line.security_mask();

    // Alg. 1 line 8: locations of the first four security bytes
    // (four chained find-index blocks in Figure 8).
    let (listed, count) = hwlogic::find_first_four_ones(mask);
    let listed = &listed[..count];

    // Alg. 1 line 7: scan the low 6 bits of every normal byte and pick the
    // first unused pattern as the sentinel (only needed for the `11` code).
    let sentinel = if mask.count_ones() >= 4 {
        Some(hwlogic::find_sentinel(line.data(), mask).ok_or(CoreError::NoSentinelAvailable)?)
    } else {
        None
    };

    let mut bytes = *line.data();

    // Alg. 1 line 9: store the data of the header bytes into the listed
    // security-byte slots (see `displacement_map` for the exact rule).
    for (src, dst) in displacement_map(listed, mask).pairs() {
        bytes[dst] = line.data()[src];
    }

    // Alg. 1 line 10: write the header over the first bytes (Figure 7).
    SentinelHeader::encode(listed, sentinel, &mut bytes);

    // Alg. 1 line 11: mark every remaining security byte (all but the
    // four listed, which are the mask's lowest four bits) with the
    // sentinel.
    if let Some(s) = sentinel {
        let mut rest = mask;
        for _ in 0..count {
            rest &= rest - 1;
        }
        hwlogic::set_bytes(&mut bytes, rest, s);
    }

    Ok(L2Line {
        bytes,
        califormed: true,
    })
}

/// Converts an L2 (sentinel) line to the L1 (bitvector) format —
/// paper Algorithm 2.
///
/// # Errors
///
/// Returns [`CoreError::CorruptSentinelHeader`] if the califormed line's
/// header lists its addresses out of ascending order (possible only for
/// lines not produced by [`spill`], e.g. fault-injection tests).
pub fn fill(l2: &L2Line) -> Result<L1Line> {
    // Alg. 2 lines 1–3: a clean line gets an all-zero bit vector.
    if !l2.califormed {
        return Ok(L1Line::new(CaliformedLine::from_data(l2.bytes)));
    }

    // Alg. 2 lines 6–7: decode the count code and the listed locations.
    let header = SentinelHeader::decode(&l2.bytes)?;
    let k = header.header_bytes();

    let mut mask = header.listed().iter().fold(0u64, |m, &a| m | 1 << a);

    // Alg. 2 line 8: with the `11` code, the sentinel comparator bank marks
    // every byte (outside the header and the listed slots) whose low 6 bits
    // match the sentinel.
    if let Some(s) = header.sentinel {
        let header_region = (1u64 << k) - 1;
        let matches = hwlogic::sentinel_matches(&l2.bytes, s) & !header_region & !mask;
        mask |= matches;
    }

    // Alg. 2 line 9: restore the displaced header-byte data...
    let mut data = l2.bytes;
    for (src, dst) in displacement_map(header.listed(), mask).pairs() {
        data[src] = l2.bytes[dst];
    }

    // Alg. 2 line 10: ...and zero every security-byte slot, which
    // `CaliformedLine::new` does, so the line is canonical by
    // construction.
    Ok(L1Line::new(CaliformedLine::new(data, mask)))
}

/// Infallible [`spill`] for lines owned by a hierarchy: every resident
/// L1 line was built through this crate's canonicalizing API, so the
/// `NoSentinelAvailable` arm is unreachable. The simulator's eviction
/// and coherence paths funnel through this single justified unwrap
/// instead of scattering `.expect()` calls across the hot path.
///
/// # Panics
///
/// Panics on a non-canonical line (fault-injection tests only).
#[must_use]
pub fn spill_canonical(l1: &L1Line) -> L2Line {
    // analyze::allow(hot-path-unwrap): resident L1 lines are canonical by construction; see doc
    spill(l1).expect("canonical lines always spill")
}

/// Infallible [`fill`] for lines produced by [`spill`]: the sentinel
/// header a spill writes always decodes, so the `CorruptSentinelHeader`
/// arm is unreachable for lines the hierarchy itself stored. The
/// counterpart of [`spill_canonical`] on the refill path.
///
/// # Panics
///
/// Panics on a corrupt header (fault-injection tests only).
#[must_use]
pub fn fill_canonical(l2: &L2Line) -> L1Line {
    // analyze::allow(hot-path-unwrap): spill-produced sentinel headers always decode; see doc
    fill(l2).expect("hierarchy lines are well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::LINE_BYTES;

    fn caliform(data: [u8; LINE_BYTES], at: &[usize]) -> L1Line {
        let mut line = CaliformedLine::from_data(data);
        for &i in at {
            line.set_security_byte(i);
        }
        L1Line::new(line)
    }

    fn round_trip(l1: &L1Line) -> L1Line {
        fill(&spill(l1).unwrap()).unwrap()
    }

    #[test]
    fn clean_line_spills_as_plain() {
        let l1 = caliform([0xAB; LINE_BYTES], &[]);
        let l2 = spill(&l1).unwrap();
        assert!(!l2.califormed);
        assert_eq!(l2.bytes, [0xAB; LINE_BYTES]);
        assert_eq!(round_trip(&l1), l1);
    }

    #[test]
    fn one_security_byte_round_trips() {
        for at in [0usize, 1, 31, 63] {
            let mut data = [0u8; LINE_BYTES];
            for (i, b) in data.iter_mut().enumerate() {
                *b = (i as u8).wrapping_mul(37).wrapping_add(11);
            }
            let l1 = caliform(data, &[at]);
            assert_eq!(round_trip(&l1), l1, "security byte at {at}");
        }
    }

    #[test]
    fn one_security_byte_header_content() {
        let mut data = [0x77u8; LINE_BYTES];
        data[0] = 0x12;
        let l1 = caliform(data, &[40]);
        let l2 = spill(&l1).unwrap();
        assert!(l2.califormed);
        assert_eq!(
            l2.bytes[0] & 0b11,
            0b00,
            "count code 00 = one security byte"
        );
        assert_eq!(l2.bytes[0] >> 2, 40, "Addr0 in the high six bits");
        assert_eq!(l2.bytes[40], 0x12, "byte 0's data displaced into the slot");
    }

    #[test]
    fn two_and_three_security_bytes_round_trip() {
        let mut data = [0u8; LINE_BYTES];
        for (i, b) in data.iter_mut().enumerate() {
            *b = 0xC0u8.wrapping_add(i as u8);
        }
        for sec in [
            &[5usize, 6][..],
            &[0, 1][..],
            &[1, 2, 3][..],
            &[10, 40, 63][..],
        ] {
            let l1 = caliform(data, sec);
            assert_eq!(round_trip(&l1), l1, "security bytes at {sec:?}");
        }
    }

    #[test]
    fn four_security_bytes_use_sentinel_code() {
        let data = [0x10u8; LINE_BYTES];
        let l1 = caliform(data, &[4, 8, 15, 16]);
        let l2 = spill(&l1).unwrap();
        assert_eq!(l2.bytes[0] & 0b11, 0b11);
        assert_eq!(round_trip(&l1), l1);
    }

    #[test]
    fn many_security_bytes_round_trip() {
        let mut data = [0u8; LINE_BYTES];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(3);
        }
        let sec: Vec<usize> = (0..LINE_BYTES).step_by(3).collect();
        let l1 = caliform(data, &sec);
        assert_eq!(round_trip(&l1), l1);
    }

    #[test]
    fn fully_califormed_line_round_trips() {
        let l1 = caliform([0u8; LINE_BYTES], &(0..LINE_BYTES).collect::<Vec<_>>());
        let l2 = spill(&l1).unwrap();
        assert!(l2.califormed);
        assert_eq!(round_trip(&l1), l1);
    }

    #[test]
    fn security_bytes_inside_header_region_round_trip() {
        // The tricky invertibility case: security bytes at offsets < 4 with
        // the `11` count code.
        let mut data = [0u8; LINE_BYTES];
        for (i, b) in data.iter_mut().enumerate() {
            *b = 0xA0u8.wrapping_add(i as u8);
        }
        for sec in [
            &[0usize, 9, 17, 33][..],
            &[1, 9, 17, 33][..],
            &[0, 1, 2, 3][..],
            &[0, 1, 2, 3, 63][..],
            &[3, 4, 5, 6, 7][..],
            &[0, 2, 40, 41, 42, 43][..],
        ] {
            let l1 = caliform(data, sec);
            assert_eq!(round_trip(&l1), l1, "security bytes at {sec:?}");
        }
    }

    #[test]
    fn sentinel_absent_from_normal_bytes() {
        let mut data = [0u8; LINE_BYTES];
        for (i, b) in data.iter_mut().enumerate() {
            *b = i as u8; // use up patterns 0..63 except where security sits
        }
        let sec: Vec<usize> = vec![7, 21, 35, 49, 63];
        let l1 = caliform(data, &sec);
        let l2 = spill(&l1).unwrap();
        let header = l2.header().unwrap();
        let s = header.sentinel.unwrap();
        // The sentinel must differ from the low-6 bits of every normal byte
        // of the *original* line.
        for i in l1.line().normal_byte_indices() {
            assert_ne!(l1.line().data()[i] & 0x3F, s);
        }
        assert_eq!(round_trip(&l1), l1);
    }

    #[test]
    fn critical_word_first_header_is_in_first_four_bytes() {
        // Section 5.2: security byte locations retrievable from the first 4B.
        let l1 = caliform([0x42; LINE_BYTES], &[10, 20, 30]);
        let l2 = spill(&l1).unwrap();
        let mut first4 = [0u8; LINE_BYTES];
        first4[..4].copy_from_slice(&l2.bytes[..4]);
        let hdr = SentinelHeader::decode(&first4).unwrap();
        assert_eq!(hdr.listed(), [10, 20, 30]);
    }

    #[test]
    fn fill_detects_corrupt_header() {
        let mut bytes = [0u8; LINE_BYTES];
        // Count code 01 with addresses 9 then 3 (descending) is corrupt.
        bytes[0] = 0b01 | 9 << 2;
        bytes[1] = 3; // Addr1 = 3 in bits 8..14 → low bits of byte 1
        let l2 = L2Line {
            bytes,
            califormed: true,
        };
        assert!(matches!(
            fill(&l2),
            Err(CoreError::CorruptSentinelHeader { .. })
        ));
    }

    #[test]
    fn exhaustive_single_and_pair_positions() {
        let mut data = [0u8; LINE_BYTES];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i as u8) ^ 0x5A;
        }
        for i in 0..LINE_BYTES {
            let l1 = caliform(data, &[i]);
            assert_eq!(round_trip(&l1), l1, "single at {i}");
        }
        for i in 0..LINE_BYTES {
            for j in (i + 1)..LINE_BYTES {
                let l1 = caliform(data, &[i, j]);
                assert_eq!(round_trip(&l1), l1, "pair at {i},{j}");
            }
        }
    }
}
