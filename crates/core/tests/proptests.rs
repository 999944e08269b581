//! Property-based tests for the core Califorms invariants (DESIGN.md §6).

use califorms_core::bitvector1::L1Line1;
use califorms_core::bitvector4::L1Line4;
use califorms_core::cform::CformInstruction;
use califorms_core::convert::{fill, spill};
use califorms_core::hwlogic;
use califorms_core::line::{CaliformedLine, LINE_BYTES};
use califorms_core::sentinel::SentinelHeader;
use califorms_core::{CoreError, L1Line, L2Line};
use proptest::prelude::*;

/// Algorithms 1 and 2 exactly as the crate implemented them before the
/// allocation-free, word-parallel rewrite: `Vec`-collecting find-index
/// chain and displacement map, a bit-at-a-time header writer and reader,
/// and byte-at-a-time comparator, zeroing and canonical loops. Kept
/// verbatim (only paths adjusted) as the oracle the equivalence
/// properties below hold the shipped [`spill`]/[`fill`] to.
mod reference {
    use califorms_core::{CaliformedLine, CoreError, L1Line, L2Line, Result, LINE_BYTES};

    // --- hwlogic ---------------------------------------------------------

    #[inline]
    pub fn decode6(value: u8) -> u64 {
        1u64 << (value & 0x3F)
    }

    pub fn used_values(data: &[u8; LINE_BYTES], security_mask: u64) -> u64 {
        let mut used = 0u64;
        for (i, &byte) in data.iter().enumerate() {
            if security_mask >> i & 1 == 0 {
                used |= decode6(byte);
            }
        }
        used
    }

    #[inline]
    pub fn find_first_zero(vector: u64) -> Option<u8> {
        let idx = vector.trailing_ones();
        (idx < 64).then_some(idx as u8)
    }

    #[inline]
    pub fn find_first_one(vector: u64) -> Option<u8> {
        let idx = vector.trailing_zeros();
        (idx < 64).then_some(idx as u8)
    }

    pub fn find_first_n_ones(mut vector: u64, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            match find_first_one(vector) {
                Some(idx) => {
                    out.push(idx);
                    vector &= !(1u64 << idx);
                }
                None => break,
            }
        }
        out
    }

    pub fn find_sentinel(data: &[u8; LINE_BYTES], security_mask: u64) -> Option<u8> {
        find_first_zero(used_values(data, security_mask))
    }

    pub fn sentinel_matches(data: &[u8; LINE_BYTES], sentinel: u8) -> u64 {
        let mut matches = 0u64;
        for (i, &byte) in data.iter().enumerate() {
            if byte & 0x3F == sentinel & 0x3F {
                matches |= 1u64 << i;
            }
        }
        matches
    }

    // --- sentinel --------------------------------------------------------

    pub const fn header_len(listed: usize) -> usize {
        listed
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SentinelHeader {
        pub listed: Vec<u8>,
        pub sentinel: Option<u8>,
    }

    impl SentinelHeader {
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
            let k = header_len(listed.len());
            for b in out.iter_mut().take(k) {
                *b = 0;
            }
            let mut writer = BitWriter::new(out);
            writer.put((listed.len() - 1) as u8, 2);
            for &addr in listed {
                debug_assert!(addr < 64);
                writer.put(addr, 6);
            }
            if let Some(s) = sentinel {
                writer.put(s & 0x3F, 6);
            }
        }

        pub fn decode(bytes: &[u8; LINE_BYTES]) -> Result<Self> {
            let mut reader = BitReader::new(bytes);
            let code = reader.take(2);
            let count = code as usize + 1;
            let mut listed = Vec::with_capacity(count);
            for _ in 0..count {
                listed.push(reader.take(6));
            }
            if !listed.windows(2).all(|w| w[0] < w[1]) {
                return Err(CoreError::CorruptSentinelHeader {
                    what: "listed addresses not strictly ascending",
                });
            }
            let sentinel = (code == 0b11).then(|| reader.take(6));
            Ok(Self { listed, sentinel })
        }

        pub fn header_bytes(&self) -> usize {
            header_len(self.listed.len())
        }
    }

    pub fn displacement_map(listed: &[u8], security_mask: u64) -> Vec<(usize, usize)> {
        let k = header_len(listed.len());
        let sources = (0..k).filter(|&i| security_mask >> i & 1 == 0);
        let targets = listed.iter().map(|&a| a as usize).filter(|&a| a >= k);
        sources.zip(targets).collect()
    }

    struct BitWriter<'a> {
        out: &'a mut [u8; LINE_BYTES],
        bit: usize,
    }

    impl<'a> BitWriter<'a> {
        fn new(out: &'a mut [u8; LINE_BYTES]) -> Self {
            Self { out, bit: 0 }
        }

        fn put(&mut self, value: u8, width: usize) {
            for i in 0..width {
                let v = value >> i & 1;
                let byte = self.bit / 8;
                let off = self.bit % 8;
                self.out[byte] = self.out[byte] & !(1 << off) | v << off;
                self.bit += 1;
            }
        }
    }

    struct BitReader<'a> {
        bytes: &'a [u8; LINE_BYTES],
        bit: usize,
    }

    impl<'a> BitReader<'a> {
        fn new(bytes: &'a [u8; LINE_BYTES]) -> Self {
            Self { bytes, bit: 0 }
        }

        fn take(&mut self, width: usize) -> u8 {
            let mut value = 0u8;
            for i in 0..width {
                let byte = self.bit / 8;
                let off = self.bit % 8;
                value |= (self.bytes[byte] >> off & 1) << i;
                self.bit += 1;
            }
            value
        }
    }

    // --- convert ---------------------------------------------------------

    pub fn spill(l1: &L1Line) -> Result<L2Line> {
        let line = l1.line();
        if !line.is_califormed() {
            return Ok(L2Line::plain(*line.data()));
        }

        let mask = line.security_mask();
        let n = mask.count_ones() as usize;
        let listed_count = n.min(4);

        let listed = find_first_n_ones(mask, listed_count);

        let sentinel = if n >= 4 {
            Some(find_sentinel(line.data(), mask).ok_or(CoreError::NoSentinelAvailable)?)
        } else {
            None
        };

        let mut bytes = *line.data();

        for (src, dst) in displacement_map(&listed, mask) {
            bytes[dst] = line.data()[src];
        }

        SentinelHeader::encode(&listed, sentinel, &mut bytes);

        if let Some(s) = sentinel {
            let mut rest = mask;
            for &a in &listed {
                rest &= !(1u64 << a);
            }
            for (i, b) in bytes.iter_mut().enumerate() {
                if rest >> i & 1 == 1 {
                    *b = s;
                }
            }
        }

        Ok(L2Line {
            bytes,
            califormed: true,
        })
    }

    pub fn fill(l2: &L2Line) -> Result<L1Line> {
        if !l2.califormed {
            return Ok(L1Line::new(CaliformedLine::from_data(l2.bytes)));
        }

        let header = SentinelHeader::decode(&l2.bytes)?;
        let k = header.header_bytes();

        let mut mask = 0u64;
        for &a in &header.listed {
            mask |= 1u64 << a;
        }

        if let Some(s) = header.sentinel {
            let header_region = (1u64 << k) - 1;
            let matches = sentinel_matches(&l2.bytes, s) & !header_region & !mask;
            mask |= matches;
        }

        let mut data = l2.bytes;
        for (src, dst) in displacement_map(&header.listed, mask) {
            data[src] = l2.bytes[dst];
        }

        for (i, b) in data.iter_mut().enumerate() {
            if mask >> i & 1 == 1 {
                *b = 0;
            }
        }

        let line =
            CaliformedLine::try_new(data, mask).map_err(|_| CoreError::CorruptSentinelHeader {
                what: "decoded line not canonical",
            })?;
        Ok(L1Line::new(line))
    }
}

fn arb_line() -> impl Strategy<Value = CaliformedLine> {
    (proptest::array::uniform32(any::<u8>()), any::<u64>()).prop_map(|(half, mask)| {
        // Expand 32 random bytes into 64 deterministically (keeps the
        // strategy small without losing byte diversity).
        let mut data = [0u8; LINE_BYTES];
        for i in 0..LINE_BYTES {
            data[i] = half[i % 32].wrapping_add(i as u8);
        }
        CaliformedLine::new(data, mask)
    })
}

/// SplitMix64: the line generators below expand one drawn seed into a
/// whole line.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn random_bytes(state: &mut u64) -> [u8; LINE_BYTES] {
    let mut data = [0u8; LINE_BYTES];
    for chunk in data.chunks_mut(8) {
        chunk.copy_from_slice(&splitmix(state).to_le_bytes());
    }
    data
}

/// Lines shaped like the insertion policies' output (and like the lines
/// the benchmark's spill/fill probe times): random data, one line in four
/// clean, the rest with 1–3 spans of 1–7 security bytes. Unlike
/// [`arb_line`]'s uniform mask (~32 security bytes, almost always the
/// sentinel code), these mostly exercise the 1–3-address header codes.
fn policy_line() -> impl Strategy<Value = CaliformedLine> {
    any::<u64>().prop_map(|seed| {
        let mut state = seed;
        let data = random_bytes(&mut state);
        let mut mask = 0u64;
        if !splitmix(&mut state).is_multiple_of(4) {
            for _ in 0..1 + splitmix(&mut state) % 3 {
                let len = 1 + splitmix(&mut state) % 7;
                let start = splitmix(&mut state) % (LINE_BYTES as u64 - len);
                mask |= ((1u64 << len) - 1) << start;
            }
        }
        CaliformedLine::new(data, mask)
    })
}

/// The corners of the format: 1, 2, 3, 4, 5, 63 or 64 security bytes,
/// up to four of them forced into the 4-byte header region, and normal
/// bytes whose low six bits are pairwise distinct (a shuffled 0..64 with
/// random high bits), so a line with one security byte uses 63 of the 64
/// patterns.
fn adversarial_line() -> impl Strategy<Value = CaliformedLine> {
    (0usize..7, 0u32..5, any::<u64>()).prop_map(|(count, in_header, seed)| {
        let n = [1u32, 2, 3, 4, 5, 63, 64][count];
        let mut state = seed;
        let mut mask = 0u64;
        while (mask & 0xF).count_ones() < in_header.min(n) {
            mask |= 1 << (splitmix(&mut state) % 4);
        }
        while mask.count_ones() < n {
            mask |= 1 << (splitmix(&mut state) % 64);
        }
        let mut patterns: [u8; LINE_BYTES] = std::array::from_fn(|i| i as u8);
        for i in (1..LINE_BYTES).rev() {
            patterns.swap(i, splitmix(&mut state) as usize % (i + 1));
        }
        let data = patterns.map(|p| p | (splitmix(&mut state) as u8 & 0xC0));
        CaliformedLine::new(data, mask)
    })
}

/// Raw L2 lines as fault injection or a corrupt memory image could
/// present them: random bytes, mostly marked califormed, half of them
/// with a header of sorted addresses written over the random bytes, so
/// that decoding gets past the ascending check and reaches the sentinel
/// scan and displacement restore. Half of those headers draw their
/// addresses from a 4-byte window, which makes a repeated address (a
/// corrupt, non-strictly ascending header) likely.
fn raw_l2_line() -> impl Strategy<Value = L2Line> {
    (any::<u64>(), 0u8..8).prop_map(|(seed, shape)| {
        let mut state = seed;
        let mut bytes = random_bytes(&mut state);
        if shape >= 4 {
            let code = u32::from(shape - 4);
            let count = code as usize + 1;
            let span = if splitmix(&mut state).is_multiple_of(2) {
                64
            } else {
                4
            };
            let base = splitmix(&mut state) % (65 - span);
            let mut addrs: [u32; 4] =
                std::array::from_fn(|_| (base + splitmix(&mut state) % span) as u32);
            addrs[..count].sort_unstable();
            // Figure 7's layout: code in bits 1:0, then 6-bit fields.
            let mut word = code;
            for (i, a) in addrs.iter().enumerate().take(count) {
                word |= a << (2 + 6 * i);
            }
            if code == 3 {
                word |= ((splitmix(&mut state) % 64) as u32) << 26;
            }
            bytes[..count].copy_from_slice(&word.to_le_bytes()[..count]);
        }
        L2Line {
            bytes,
            califormed: shape != 0,
        }
    })
}

/// The spilled line, its header and its fill all equal the reference's.
fn matches_reference(line: CaliformedLine) -> Result<(), TestCaseError> {
    let l1 = L1Line::new(line);
    let l2 = spill(&l1);
    prop_assert_eq!(l2, reference::spill(&l1));
    let l2 = l2.expect("canonical lines spill");
    prop_assert_eq!(fill(&l2), reference::fill(&l2));
    if l2.califormed {
        let header = l2.header().expect("spilled headers decode");
        let want = reference::SentinelHeader::decode(&l2.bytes).expect("spilled headers decode");
        prop_assert_eq!(header.listed(), want.listed.as_slice());
        prop_assert_eq!(header.sentinel, want.sentinel);
        prop_assert_eq!(header.header_bytes(), want.header_bytes());
    }
    Ok(())
}

proptest! {
    /// Invariant (format round-trip): fill ∘ spill = identity.
    #[test]
    fn spill_fill_round_trip(line in arb_line()) {
        let l1 = L1Line::new(line);
        let l2 = spill(&l1).expect("spill always succeeds on canonical lines");
        let back = fill(&l2).expect("fill of spilled line succeeds");
        prop_assert_eq!(back, l1);
    }

    /// Equivalence with the reference on policy-shaped lines.
    #[test]
    fn spill_fill_match_reference_on_policy_lines(line in policy_line()) {
        matches_reference(line)?;
    }

    /// Equivalence with the reference on the format's corner cases.
    #[test]
    fn spill_fill_match_reference_on_adversarial_lines(line in adversarial_line()) {
        matches_reference(line)?;
    }

    /// Equivalence with the reference on arbitrary L2 lines: the same
    /// `Ok` line or the same error, and the same header decode.
    #[test]
    fn fill_matches_reference_on_raw_lines(l2 in raw_l2_line()) {
        prop_assert_eq!(fill(&l2), reference::fill(&l2));
        let header = SentinelHeader::decode(&l2.bytes);
        let want = reference::SentinelHeader::decode(&l2.bytes);
        prop_assert_eq!(
            header.map(|h| (h.listed().to_vec(), h.sentinel)),
            want.map(|h| (h.listed, h.sentinel))
        );
    }

    /// The word-parallel comparator bank, used-values vector and
    /// canonical constructors agree with their byte-at-a-time forms.
    #[test]
    fn word_parallel_blocks_match_bytewise(seed in any::<u64>(), mask in any::<u64>(), s in 0u8..64) {
        let mut state = seed;
        let mut data = random_bytes(&mut state);
        // Plant the sentinel pattern (with random high bits) so matches
        // are not vanishingly rare.
        for byte in &mut data {
            if splitmix(&mut state).is_multiple_of(8) {
                *byte = s | (*byte & 0xC0);
            }
        }
        prop_assert_eq!(hwlogic::sentinel_matches(&data, s), reference::sentinel_matches(&data, s));
        prop_assert_eq!(hwlogic::used_values(&data, mask), reference::used_values(&data, mask));
        let line = CaliformedLine::new(data, mask);
        for (i, &byte) in data.iter().enumerate() {
            let want = if mask >> i & 1 == 1 { 0 } else { byte };
            prop_assert_eq!(line.read_byte(i), want);
        }
        let first_bad = (0..LINE_BYTES).find(|&i| mask >> i & 1 == 1 && data[i] != 0);
        match CaliformedLine::try_new(data, mask) {
            Ok(l) => prop_assert!(first_bad.is_none() && l == line),
            Err(e) => prop_assert_eq!(
                Some(e),
                first_bad.map(|index| CoreError::NonCanonicalSecurityByte { index })
            ),
        }
    }

    /// Invariant (sentinel existence): any line with ≥1 security byte has a
    /// free 6-bit pattern among its normal bytes.
    #[test]
    fn sentinel_always_found(line in arb_line()) {
        prop_assume!(line.is_califormed());
        let s = hwlogic::find_sentinel(line.data(), line.security_mask());
        prop_assert!(s.is_some());
        let s = s.unwrap();
        for i in line.normal_byte_indices() {
            prop_assert_ne!(line.data()[i] & 0x3F, s & 0x3F);
        }
    }

    /// The spilled format marks the line califormed iff it has security
    /// bytes, and clean lines are stored verbatim (the "natural" format).
    #[test]
    fn clean_lines_stay_natural(line in arb_line()) {
        let l2 = spill(&L1Line::new(line)).unwrap();
        prop_assert_eq!(l2.califormed, line.is_califormed());
        if !line.is_califormed() {
            prop_assert_eq!(&l2.bytes, line.data());
        }
    }

    /// Loads never observe security-byte data: every byte a load returns
    /// from a security position is zero, and violations are flagged.
    #[test]
    fn loads_zero_security_bytes(line in arb_line(), offset in 0usize..64, len in 1usize..16) {
        let len = len.min(LINE_BYTES - offset);
        let l1 = L1Line::new(line);
        let r = l1.load(offset, len);
        for i in 0..len {
            if line.is_security_byte(offset + i) {
                prop_assert_eq!(r.data[i], 0);
                prop_assert_eq!(r.violating_bytes >> i & 1, 1);
            } else {
                prop_assert_eq!(r.data[i], line.data()[offset + i]);
            }
        }
        prop_assert_eq!(r.violation, r.violating_bytes != 0);
    }

    /// CFORM set∘unset over any mask restores the original security mask
    /// (with affected data zeroed), and never faults when applied to
    /// disjoint state.
    #[test]
    fn cform_set_unset_round_trip(line in arb_line(), delta in any::<u64>()) {
        let free = !line.security_mask() & delta;
        prop_assume!(free != 0);
        let mut work = line;
        CformInstruction::set(0, free).execute(&mut work).unwrap();
        prop_assert_eq!(work.security_mask(), line.security_mask() | free);
        CformInstruction::unset(0, free).execute(&mut work).unwrap();
        prop_assert_eq!(work.security_mask(), line.security_mask());
        // Data at the touched positions is zeroed, untouched data survives.
        for i in 0..LINE_BYTES {
            if free >> i & 1 == 1 {
                prop_assert_eq!(work.read_byte(i), 0);
            } else if !line.is_security_byte(i) {
                prop_assert_eq!(work.read_byte(i), line.read_byte(i));
            }
        }
    }

    /// CFORM faults atomically: on error the line is unchanged.
    #[test]
    fn cform_faults_atomically(line in arb_line(), attrs in any::<u64>(), mask in any::<u64>()) {
        let mut work = line;
        let insn = CformInstruction::new(0, attrs, mask);
        if insn.execute(&mut work).is_err() {
            prop_assert_eq!(work, line);
        }
    }

    /// Appendix variants are lossless encodings of the canonical line.
    #[test]
    fn appendix_variants_round_trip(line in arb_line()) {
        prop_assert_eq!(L1Line4::encode(&line).decode(), line);
        prop_assert_eq!(L1Line1::encode(&line).decode(), line);
        // And their access checks agree with the canonical mask.
        let v4 = L1Line4::encode(&line);
        let v1 = L1Line1::encode(&line);
        for i in 0..LINE_BYTES {
            prop_assert_eq!(v4.is_security_byte(i), line.is_security_byte(i));
            prop_assert_eq!(v1.is_security_byte(i), line.is_security_byte(i));
        }
    }

    /// The sentinel header survives the spill: decoding the spilled line's
    /// header yields the first min(n,4) security locations in order.
    #[test]
    fn header_lists_first_locations(line in arb_line()) {
        prop_assume!(line.is_califormed());
        let l2 = spill(&L1Line::new(line)).unwrap();
        let header = l2.header().unwrap();
        let expected: Vec<u8> = line
            .security_byte_indices()
            .take(4)
            .map(|i| i as u8)
            .collect();
        prop_assert_eq!(header.listed(), expected.as_slice());
        prop_assert_eq!(
            header.sentinel.is_some(),
            line.security_byte_count() >= 4
        );
    }
}
