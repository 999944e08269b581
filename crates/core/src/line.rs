//! Canonical representation of a 64-byte cache line with security bytes.
//!
//! [`CaliformedLine`] is the *logical* content every physical format
//! ([`crate::bitvector`], [`crate::sentinel`], …) encodes: 64 data bytes plus
//! a 64-bit mask marking which bytes are security (blacklisted) bytes.
//!
//! The type enforces the paper's zeroing discipline as a structural
//! invariant: data under a security byte is always zero. This matches the
//! runtime behaviour (deallocated regions are zeroed before being
//! califormed, and loads of security bytes architecturally return zero) and
//! makes the spill/fill round-trip an exact identity.

use crate::error::{CoreError, Result};
use crate::hwlogic;

/// Number of data bytes in a cache line (the paper's fixed 64 B geometry).
pub const LINE_BYTES: usize = 64;

/// Mask with bits `offset..offset + len` set — the line-relative byte range
/// of an access, as the hardware's comparator bank would form it.
///
/// Callers guarantee `offset + len <= 64` (the cache controller splits
/// line-crossing accesses first); `len == 0` yields the empty mask.
#[inline]
pub const fn range_mask(offset: usize, len: usize) -> u64 {
    if len == 0 {
        return 0;
    }
    let width = if len >= 64 {
        u64::MAX
    } else {
        (1u64 << len) - 1
    };
    width << offset
}

/// A 64-byte cache line in canonical *(data, security-mask)* form.
///
/// Bit `i` of [`security_mask`](Self::security_mask) set means byte `i` is a
/// security byte; its data byte is guaranteed to be zero.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct CaliformedLine {
    data: [u8; LINE_BYTES],
    mask: u64,
}

impl CaliformedLine {
    /// A line of all-zero data with no security bytes.
    pub const fn zeroed() -> Self {
        Self {
            data: [0; LINE_BYTES],
            mask: 0,
        }
    }

    /// Creates a line from raw data with no security bytes.
    pub const fn from_data(data: [u8; LINE_BYTES]) -> Self {
        Self { data, mask: 0 }
    }

    /// Creates a line from data and a security mask.
    ///
    /// Data bytes under the mask are forced to zero (canonicalisation); use
    /// [`try_new`](Self::try_new) to reject non-canonical input instead.
    pub fn new(mut data: [u8; LINE_BYTES], mask: u64) -> Self {
        hwlogic::set_bytes(&mut data, mask, 0);
        Self { data, mask }
    }

    /// Creates a line from data and a security mask, rejecting input whose
    /// security bytes carry non-zero data.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NonCanonicalSecurityByte`] naming the first
    /// offending byte.
    pub fn try_new(data: [u8; LINE_BYTES], mask: u64) -> Result<Self> {
        match hwlogic::first_nonzero_under(&data, mask) {
            Some(index) => Err(CoreError::NonCanonicalSecurityByte { index }),
            None => Ok(Self { data, mask }),
        }
    }

    /// The 64 data bytes.
    pub const fn data(&self) -> &[u8; LINE_BYTES] {
        &self.data
    }

    /// The security mask (bit `i` ⇒ byte `i` is a security byte).
    pub const fn security_mask(&self) -> u64 {
        self.mask
    }

    /// Whether the line contains at least one security byte.
    pub const fn is_califormed(&self) -> bool {
        self.mask != 0
    }

    /// Number of security bytes in the line.
    pub const fn security_byte_count(&self) -> u32 {
        self.mask.count_ones()
    }

    /// Whether byte `index` is a security byte.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 64`.
    pub fn is_security_byte(&self, index: usize) -> bool {
        assert!(index < LINE_BYTES, "byte index out of line");
        self.mask >> index & 1 == 1
    }

    /// Architectural read of byte `index`.
    ///
    /// Security bytes read as zero by construction, which is exactly the
    /// value the hardware returns to speculative loads (Section 5.1).
    pub fn read_byte(&self, index: usize) -> u8 {
        assert!(index < LINE_BYTES, "byte index out of line");
        self.data[index]
    }

    /// Writes a data byte.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::StoreToSecurityByte`] if byte `index` is
    /// blacklisted — the situation in which the pipeline raises the
    /// privileged Califorms exception before the store commits.
    pub fn write_byte(&mut self, index: usize, value: u8) -> Result<()> {
        assert!(index < LINE_BYTES, "byte index out of line");
        if self.is_security_byte(index) {
            return Err(CoreError::StoreToSecurityByte { index });
        }
        self.data[index] = value;
        Ok(())
    }

    /// Writes `bytes` starting at line offset `offset` in one bulk copy.
    ///
    /// The security check is a single AND against the range mask (the
    /// hardware checks all bytes in parallel; Section 5.1) instead of a
    /// per-byte scan, and the copy is a `memcpy` — the replay hot path
    /// relies on this being O(1)-check + bulk-copy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::StoreToSecurityByte`] naming the first
    /// blacklisted byte in range; the line is left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the write overruns the line (`offset + bytes.len() > 64`).
    pub fn write_bytes(&mut self, offset: usize, bytes: &[u8]) -> Result<()> {
        let len = bytes.len();
        assert!(
            offset + len <= LINE_BYTES,
            "access crosses the line boundary"
        );
        let violating = self.mask & range_mask(offset, len);
        if violating != 0 {
            return Err(CoreError::StoreToSecurityByte {
                index: violating.trailing_zeros() as usize,
            });
        }
        self.data[offset..offset + len].copy_from_slice(bytes);
        Ok(())
    }

    /// Marks byte `index` as a security byte, zeroing its data.
    ///
    /// This is the raw state change; the checked ISA-level operation with the
    /// Table 1 K-map semantics is [`crate::cform::CformInstruction`].
    pub fn set_security_byte(&mut self, index: usize) {
        assert!(index < LINE_BYTES, "byte index out of line");
        self.mask |= 1 << index;
        self.data[index] = 0;
    }

    /// Clears the security marking of byte `index`; the byte becomes a
    /// normal zero byte (regions are zeroed on (de)califorming).
    pub fn unset_security_byte(&mut self, index: usize) {
        assert!(index < LINE_BYTES, "byte index out of line");
        self.mask &= !(1 << index);
        self.data[index] = 0;
    }

    /// Iterator over the indices of security bytes, ascending.
    pub fn security_byte_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..LINE_BYTES).filter(|&i| self.is_security_byte(i))
    }

    /// Iterator over the indices of normal (non-security) bytes, ascending.
    pub fn normal_byte_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..LINE_BYTES).filter(|&i| !self.is_security_byte(i))
    }
}

impl Default for CaliformedLine {
    fn default() -> Self {
        Self::zeroed()
    }
}

impl core::fmt::Debug for CaliformedLine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "CaliformedLine {{ mask: {:#018x}, data: [", self.mask)?;
        for (i, b) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            if self.is_security_byte(i) {
                write!(f, "**")?;
            } else {
                write!(f, "{b:02x}")?;
            }
        }
        write!(f, "] }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_line_has_no_security_bytes() {
        let line = CaliformedLine::zeroed();
        assert!(!line.is_califormed());
        assert_eq!(line.security_byte_count(), 0);
        assert_eq!(line.data(), &[0u8; LINE_BYTES]);
    }

    #[test]
    fn new_canonicalises_security_data_to_zero() {
        let mut data = [0xAAu8; LINE_BYTES];
        data[5] = 0x55;
        let line = CaliformedLine::new(data, 1 << 5 | 1 << 6);
        assert_eq!(line.read_byte(5), 0);
        assert_eq!(line.read_byte(6), 0);
        assert_eq!(line.read_byte(7), 0xAA);
    }

    #[test]
    fn try_new_rejects_non_canonical() {
        let mut data = [0u8; LINE_BYTES];
        data[3] = 1;
        let err = CaliformedLine::try_new(data, 1 << 3).unwrap_err();
        assert!(matches!(
            err,
            CoreError::NonCanonicalSecurityByte { index: 3 }
        ));
    }

    #[test]
    fn try_new_accepts_canonical() {
        let mut data = [0xFFu8; LINE_BYTES];
        data[10] = 0;
        let line = CaliformedLine::try_new(data, 1 << 10).unwrap();
        assert!(line.is_security_byte(10));
    }

    #[test]
    fn write_to_security_byte_is_rejected() {
        let mut line = CaliformedLine::zeroed();
        line.set_security_byte(9);
        let err = line.write_byte(9, 0x42).unwrap_err();
        assert!(matches!(err, CoreError::StoreToSecurityByte { index: 9 }));
        assert_eq!(line.read_byte(9), 0);
    }

    #[test]
    fn write_to_normal_byte_succeeds() {
        let mut line = CaliformedLine::zeroed();
        line.write_byte(0, 0x42).unwrap();
        assert_eq!(line.read_byte(0), 0x42);
    }

    #[test]
    fn set_then_unset_round_trips_to_zeroed_byte() {
        let mut line = CaliformedLine::from_data([0x11; LINE_BYTES]);
        line.set_security_byte(20);
        assert!(line.is_security_byte(20));
        assert_eq!(line.read_byte(20), 0);
        line.unset_security_byte(20);
        assert!(!line.is_security_byte(20));
        assert_eq!(line.read_byte(20), 0, "unset bytes come back zeroed");
    }

    #[test]
    fn index_iterators_partition_the_line() {
        let mut line = CaliformedLine::zeroed();
        line.set_security_byte(0);
        line.set_security_byte(63);
        let sec: Vec<_> = line.security_byte_indices().collect();
        let normal: Vec<_> = line.normal_byte_indices().collect();
        assert_eq!(sec, vec![0, 63]);
        assert_eq!(normal.len(), 62);
        assert!(!normal.contains(&0) && !normal.contains(&63));
    }

    #[test]
    #[should_panic(expected = "byte index out of line")]
    fn out_of_range_read_panics() {
        CaliformedLine::zeroed().read_byte(64);
    }
}
