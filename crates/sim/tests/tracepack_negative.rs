//! Negative-path tests of the `tracepack` wire format: every class of
//! corruption must surface as a typed decode error — never a panic,
//! never a silent truncation — through **both** decode entry points
//! (`TracePack::from_bytes` and the streaming `TracePackReader`).

use califorms_sim::tracepack::{TracePack, TracePackError, TracePackReader, MAGIC, VERSION};
use califorms_sim::TraceOp;

/// A small valid pack to corrupt.
fn valid_bytes() -> Vec<u8> {
    TracePack::from_ops([
        TraceOp::Exec(100),
        TraceOp::Store {
            addr: 0x1000,
            size: 8,
        },
        TraceOp::Load {
            addr: 0x1008,
            size: 16,
        },
        TraceOp::Cform {
            line_addr: 0x1000,
            attrs: 0xFF,
            mask: 0xFF,
        },
        TraceOp::MaskPush,
        TraceOp::MaskPop,
    ])
    .bytes()
    .to_vec()
}

/// Drains a reader, returning the first error (panics on clean EOF).
fn reader_error(bytes: &[u8]) -> TracePackError {
    let mut r = match TracePackReader::new(bytes) {
        Ok(r) => r,
        Err(e) => return e,
    };
    loop {
        match r.next_op() {
            Ok(Some(_)) => {}
            Ok(None) => panic!("corrupted stream decoded cleanly"),
            Err(e) => return e,
        }
    }
}

#[test]
fn corrupted_magic_is_bad_magic_in_both_paths() {
    let mut bytes = valid_bytes();
    bytes[0] ^= 0x20;
    assert!(matches!(
        TracePack::from_bytes(bytes.clone()),
        Err(TracePackError::BadMagic)
    ));
    assert!(matches!(reader_error(&bytes), TracePackError::BadMagic));
}

#[test]
fn short_header_is_bad_magic_not_a_panic() {
    for n in 0..5usize {
        let bytes = valid_bytes()[..n].to_vec();
        assert!(matches!(
            TracePack::from_bytes(bytes.clone()),
            Err(TracePackError::BadMagic)
        ));
        assert!(matches!(reader_error(&bytes), TracePackError::BadMagic));
    }
}

#[test]
fn future_version_is_rejected_with_the_version() {
    let mut bytes = valid_bytes();
    bytes[4] = VERSION + 3;
    match TracePack::from_bytes(bytes.clone()) {
        Err(TracePackError::UnsupportedVersion(v)) => assert_eq!(v, VERSION + 3),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    assert!(matches!(
        reader_error(&bytes),
        TracePackError::UnsupportedVersion(_)
    ));
}

#[test]
fn unknown_op_tag_is_rejected() {
    for tag in [0x07u8, 0x42, 0xFE] {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(tag);
        bytes.push(0xFF); // end marker the decoder must never reach
        match TracePack::from_bytes(bytes.clone()) {
            Err(TracePackError::BadTag(t)) => assert_eq!(t, tag),
            other => panic!("expected BadTag({tag:#x}), got {other:?}"),
        }
        assert!(matches!(reader_error(&bytes), TracePackError::BadTag(_)));
    }
}

#[test]
fn truncation_mid_varint_is_truncated_not_silent() {
    // A Load whose address delta is a multi-byte varint, cut inside it:
    // every prefix ending mid-varint must report Truncated.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.push(VERSION);
    bytes.push(1); // Load
    bytes.extend_from_slice(&[0x80, 0x80, 0x80]); // varint continuation bytes, no terminator
    assert!(matches!(
        TracePack::from_bytes(bytes.clone()),
        Err(TracePackError::Truncated)
    ));
    assert!(matches!(reader_error(&bytes), TracePackError::Truncated));
}

#[test]
fn every_truncation_point_of_a_real_pack_errors() {
    // Cutting a valid pack anywhere after the header (and before its
    // final byte) must yield Truncated — no cut point may decode
    // cleanly or panic. This sweeps cuts inside tags, mid-varint and
    // mid-size-byte alike.
    let bytes = valid_bytes();
    for cut in 5..bytes.len() - 1 {
        let prefix = bytes[..cut].to_vec();
        assert!(
            matches!(
                TracePack::from_bytes(prefix.clone()),
                Err(TracePackError::Truncated)
            ),
            "cut at {cut} must be Truncated"
        );
        assert!(matches!(reader_error(&prefix), TracePackError::Truncated));
    }
}

#[test]
fn trailing_garbage_after_end_marker_is_counted() {
    let mut bytes = valid_bytes();
    bytes.extend_from_slice(&[0xAA, 0xBB, 0xCC]);
    match TracePack::from_bytes(bytes) {
        Err(TracePackError::TrailingBytes(n)) => assert_eq!(n, 3),
        other => panic!("expected TrailingBytes(3), got {other:?}"),
    }
    // The streaming reader stops at the end marker by design (it may be
    // reading from a stream with framing after the pack), so trailing
    // bytes are the owning-pack validator's job — but the reader must
    // still report a *clean* end, not decode the garbage as ops.
    let mut with_garbage = valid_bytes();
    with_garbage.push(0x00);
    let mut r = TracePackReader::new(with_garbage.as_slice()).unwrap();
    let mut n = 0;
    while r.next_op().unwrap().is_some() {
        n += 1;
    }
    assert_eq!(n, 6, "exactly the real ops decode");
}

#[test]
fn oversized_varint_is_rejected() {
    // An 11-byte varint cannot fit in a u64.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.push(VERSION);
    bytes.push(0); // Exec
    bytes.extend_from_slice(&[0xFF; 10]);
    bytes.push(0x01);
    bytes.push(0xFF);
    assert!(matches!(
        TracePack::from_bytes(bytes.clone()),
        Err(TracePackError::VarintOverflow)
    ));
    assert!(matches!(
        reader_error(&bytes),
        TracePackError::VarintOverflow
    ));
}

#[test]
fn zero_and_oversized_access_sizes_are_rejected() {
    for size in [0u8, 65, 0xFF] {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(2); // Store
        bytes.push(0); // delta 0
        bytes.push(size);
        bytes.push(0xFF);
        match TracePack::from_bytes(bytes.clone()) {
            Err(TracePackError::BadSize(s)) => assert_eq!(s, size),
            other => panic!("expected BadSize({size}), got {other:?}"),
        }
        assert!(matches!(reader_error(&bytes), TracePackError::BadSize(_)));
    }
}

#[test]
fn errors_render_useful_messages() {
    // The Display impls are what land in fuzzer logs and CI output.
    assert!(TracePackError::BadMagic.to_string().contains("magic"));
    assert!(TracePackError::BadTag(0x42).to_string().contains("0x42"));
    assert!(TracePackError::Truncated.to_string().contains("truncated"));
    assert!(TracePackError::TrailingBytes(7).to_string().contains('7'));
    assert!(TracePackError::BadSize(65).to_string().contains("65"));
    assert!(TracePackError::UnsupportedVersion(9)
        .to_string()
        .contains('9'));
}

/// A pack holding one `Cform` or `CformNt` (tag 3 or 4) at `line_addr`,
/// hand-encoded so the misaligned address reaches the decoder as-is.
fn cform_bytes(tag: u8, line_addr: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.push(VERSION);
    bytes.push(tag);
    // Zigzag varint of the delta from address 0.
    let mut v = line_addr << 1;
    while v >= 0x80 {
        bytes.push((v as u8) | 0x80);
        v >>= 7;
    }
    bytes.push(v as u8);
    bytes.push(1); // attrs
    bytes.push(1); // mask
    bytes.push(0xFF);
    bytes
}

#[test]
fn misaligned_cform_is_rejected_in_both_paths() {
    for tag in [3u8, 4] {
        for line_addr in [0x1001u64, 0x1020, 0x103F] {
            let bytes = cform_bytes(tag, line_addr);
            match TracePack::from_bytes(bytes.clone()) {
                Err(TracePackError::MisalignedCform(a)) => assert_eq!(a, line_addr),
                other => panic!("expected MisalignedCform({line_addr:#x}), got {other:?}"),
            }
            assert!(matches!(
                reader_error(&bytes),
                TracePackError::MisalignedCform(a) if a == line_addr
            ));
        }
        // The aligned control decodes cleanly on both paths.
        let aligned = cform_bytes(tag, 0x1040);
        assert_eq!(TracePack::from_bytes(aligned.clone()).unwrap().len_ops(), 1);
        let mut r = TracePackReader::new(aligned.as_slice()).unwrap();
        assert!(r.next_op().unwrap().is_some());
        assert!(r.next_op().unwrap().is_none());
    }
    assert!(TracePackError::MisalignedCform(0x1001)
        .to_string()
        .contains("0x1001"));
}

/// Seeded single-byte mutations of a valid pack: whatever `from_bytes`
/// accepts must carry only line-aligned CFORMs, so the engine's
/// alignment panic is unreachable from a pack read from outside.
#[test]
fn accepted_mutants_carry_only_aligned_cforms() {
    let bytes = TracePack::from_ops([
        TraceOp::Exec(3),
        TraceOp::Cform {
            line_addr: 0x4000,
            attrs: 0x0F,
            mask: 0xFF,
        },
        TraceOp::Store {
            addr: 0x4008,
            size: 8,
        },
        TraceOp::CformNt {
            line_addr: 0x8040,
            attrs: 0xF0,
            mask: 0xFF,
        },
        TraceOp::Cform {
            line_addr: 0x4000,
            attrs: 0,
            mask: 0xFF,
        },
    ])
    .bytes()
    .to_vec();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let (mut accepted, mut misaligned_rejected) = (0, 0);
    for _ in 0..400 {
        let mut m = bytes.clone();
        let at = 5 + (next() as usize) % (m.len() - 5);
        m[at] ^= (next() as u8) | 1;
        let pack = match TracePack::from_bytes(m) {
            Ok(pack) => pack,
            Err(e) => {
                misaligned_rejected += usize::from(matches!(e, TracePackError::MisalignedCform(_)));
                continue;
            }
        };
        accepted += 1;
        for op in TracePackReader::new(pack.bytes()).unwrap() {
            if let TraceOp::Cform { line_addr, .. } | TraceOp::CformNt { line_addr, .. } =
                op.unwrap()
            {
                assert_eq!(line_addr % 64, 0, "accepted mutant at byte {at}");
            }
        }
    }
    // The loop must exercise both sides of the check.
    assert!(
        accepted > 0 && misaligned_rejected > 0,
        "{accepted} / {misaligned_rejected}"
    );
}
