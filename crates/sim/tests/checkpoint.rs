//! Negative-path tests of the checkpoint format: every class of
//! corruption — bad magic, an old or future version, truncation at any byte,
//! checksum mismatch, section-length lies, framing garbage, wrong
//! engine kind, wrong pack — must surface as a typed
//! [`CheckpointError`], never a panic, through **both** resume entry
//! points (`Engine::resume_pack` and
//! `MulticoreEngine::try_resume_pack`). The positive controls at the
//! top prove the uncorrupted bytes resume bit-identically, so a
//! rejection really is the corruption being caught.

use califorms_sim::checkpoint::{CheckpointError, MAGIC, VERSION};
use califorms_sim::{Engine, MulticoreConfig, MulticoreEngine, RunError, TraceOp, TracePack};

/// A small deterministic workload: enough ops to cross several decode
/// batches / quanta, touching loads, stores and CFORMs.
fn pack() -> TracePack {
    let mut ops = Vec::new();
    for i in 0..3000u64 {
        let addr = 0x1000 + (i % 256) * 8;
        ops.push(TraceOp::Exec((i % 90) as u32 + 10));
        ops.push(TraceOp::Store { addr, size: 8 });
        ops.push(TraceOp::Load { addr, size: 8 });
        if i % 64 == 0 {
            ops.push(TraceOp::Cform {
                line_addr: 0x8000 + (i % 16) * 64,
                attrs: 1,
                mask: 1,
            });
        }
    }
    TracePack::from_ops(ops)
}

/// A valid mid-run single-core checkpoint (the corruption substrate).
fn single_checkpoint(pack: &TracePack) -> Vec<u8> {
    let (_, checkpoints) = Engine::westmere().run_pack_checkpointed(pack, 1);
    assert!(checkpoints.len() >= 2, "workload must span several batches");
    checkpoints[0].clone()
}

/// A valid mid-run multicore checkpoint.
fn multicore_checkpoint(pack: &TracePack) -> Vec<u8> {
    let (_, checkpoints) = MulticoreEngine::new(MulticoreConfig::westmere(2).with_quantum(500.0))
        .try_run_pack_checkpointed(pack, 2)
        .expect("checkpointed run");
    assert!(!checkpoints.is_empty(), "workload must span several quanta");
    checkpoints[0].clone()
}

/// FNV-1a 64 (the trailer checksum), reimplemented here so targeted
/// corruptions can re-seal the trailer and reach the checks *behind*
/// the checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Recomputes the trailing checksum after a deliberate mutation.
fn reseal(bytes: &mut [u8]) {
    let n = bytes.len() - 8;
    let sum = fnv1a(&bytes[..n]);
    bytes[n..].copy_from_slice(&sum.to_le_bytes());
}

/// Resumes corrupted bytes on the single-core engine, expecting a typed
/// error.
fn single_err(pack: &TracePack, bytes: &[u8]) -> CheckpointError {
    Engine::resume_pack(pack, bytes).expect_err("corrupt checkpoint resumed cleanly")
}

/// Resumes corrupted bytes on the multicore engine, expecting the typed
/// error to arrive wrapped in [`RunError::Checkpoint`].
fn multicore_err(pack: &TracePack, bytes: &[u8]) -> CheckpointError {
    match MulticoreEngine::try_resume_pack(pack, bytes) {
        Err(RunError::Checkpoint(e)) => e,
        Err(other) => panic!("expected RunError::Checkpoint, got {other:?}"),
        Ok(_) => panic!("corrupt checkpoint resumed cleanly"),
    }
}

#[test]
fn uncorrupted_controls_resume_bit_identically() {
    let pack = pack();
    let reference = Engine::westmere().run_pack(&pack);
    let resumed = Engine::resume_pack(&pack, &single_checkpoint(&pack)).expect("valid checkpoint");
    assert_eq!(resumed, reference, "single-core positive control");

    let mc_ref = MulticoreEngine::new(MulticoreConfig::westmere(2).with_quantum(500.0))
        .try_run_pack(&pack)
        .expect("reference run");
    let mc = MulticoreEngine::try_resume_pack(&pack, &multicore_checkpoint(&pack))
        .expect("valid checkpoint");
    assert_eq!(mc.stats, mc_ref.stats, "multicore positive control");
    assert_eq!(mc.exceptions, mc_ref.exceptions);
}

#[test]
fn corrupted_magic_is_bad_magic_on_both_engines() {
    let pack = pack();
    for (bytes, which) in [
        (single_checkpoint(&pack), "single"),
        (multicore_checkpoint(&pack), "multi"),
    ] {
        for i in 0..MAGIC.len() {
            let mut b = bytes.clone();
            b[i] ^= 0x20;
            let err = if which == "single" {
                single_err(&pack, &b)
            } else {
                multicore_err(&pack, &b)
            };
            assert!(
                matches!(err, CheckpointError::BadMagic),
                "{which}: flip in magic byte {i} gave {err:?}"
            );
        }
    }
}

#[test]
fn future_version_is_rejected_with_the_version() {
    let pack = pack();
    let mut bytes = single_checkpoint(&pack);
    bytes[4] = VERSION + 3;
    reseal(&mut bytes);
    match single_err(&pack, &bytes) {
        CheckpointError::UnsupportedVersion(v) => assert_eq!(v, VERSION + 3),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn older_versions_are_refused_on_both_engines() {
    // Version 1 held the separate single-core hierarchy's state, and
    // version 2's per-core records differ from today's: resuming either
    // must fail typed, never run silently.
    let pack = pack();
    for (bytes, which) in [
        (single_checkpoint(&pack), "single"),
        (multicore_checkpoint(&pack), "multi"),
    ] {
        assert_eq!(bytes[4], VERSION);
        for version in 1..VERSION {
            let mut old = bytes.clone();
            old[4] = version;
            reseal(&mut old);
            let err = if which == "single" {
                single_err(&pack, &old)
            } else {
                multicore_err(&pack, &old)
            };
            assert!(
                matches!(err, CheckpointError::UnsupportedVersion(v) if v == version),
                "{which}: expected UnsupportedVersion({version}), got {err:?}"
            );
        }
    }
}

#[test]
fn truncation_at_every_byte_errors_typed() {
    // Cutting the checkpoint at *any* length short of the full stream
    // must fail typed — short prefixes as BadMagic/Truncated, longer
    // ones via the checksum trailer (the last 8 bytes of any cut are
    // interpreted as a checksum over content they don't match).
    let pack = pack();
    let bytes = single_checkpoint(&pack);
    for cut in 0..bytes.len() {
        let err = single_err(&pack, &bytes[..cut]);
        assert!(
            matches!(
                err,
                CheckpointError::BadMagic
                    | CheckpointError::Truncated
                    | CheckpointError::ChecksumMismatch { .. }
            ),
            "cut at {cut}/{} gave unexpected {err:?}",
            bytes.len()
        );
    }
}

#[test]
fn multicore_truncation_sweep_errors_typed() {
    // The multicore restore path shares the envelope validation; sweep
    // a coarser grid (the checkpoint is much larger) plus every cut in
    // the header and trailer neighborhoods.
    let pack = pack();
    let bytes = multicore_checkpoint(&pack);
    let n = bytes.len();
    let cuts = (0..32)
        .chain((n.saturating_sub(32))..n)
        .chain((0..n).step_by(997));
    for cut in cuts {
        let err = multicore_err(&pack, &bytes[..cut]);
        assert!(
            matches!(
                err,
                CheckpointError::BadMagic
                    | CheckpointError::Truncated
                    | CheckpointError::ChecksumMismatch { .. }
            ),
            "cut at {cut}/{n} gave unexpected {err:?}"
        );
    }
}

#[test]
fn any_bit_flip_is_caught_by_the_checksum() {
    let pack = pack();
    let bytes = single_checkpoint(&pack);
    // Flip one bit in every byte: header flips surface as their own
    // typed variants, everything else (payload or trailer) must be a
    // checksum mismatch — nothing decodes, nothing panics.
    for i in 0..bytes.len() {
        let mut b = bytes.clone();
        b[i] ^= 0x01;
        let err = single_err(&pack, &b);
        if i >= 5 {
            match err {
                CheckpointError::ChecksumMismatch { stored, computed } => {
                    assert_ne!(stored, computed)
                }
                other => panic!("flip at {i} gave {other:?}, expected checksum mismatch"),
            }
        }
    }
}

#[test]
fn section_length_lies_are_rejected() {
    let pack = pack();
    let base = single_checkpoint(&pack);
    // The first section starts right after magic+version: tag at byte
    // 5, its u64 length at bytes 6..14.
    let patch_len = |bytes: &mut [u8], len: u64| {
        bytes[6..14].copy_from_slice(&len.to_le_bytes());
        reseal(bytes);
    };

    // A length pointing far past the end of the stream.
    let mut b = base.clone();
    patch_len(&mut b, u64::MAX / 2);
    match single_err(&pack, &b) {
        CheckpointError::SectionLength(tag) => assert_eq!(tag, base[5]),
        other => panic!("overrun length gave {other:?}"),
    }

    // A length swallowing the entire rest of the stream (end marker
    // included): framing never terminates cleanly.
    let mut b = base.clone();
    patch_len(&mut b, (base.len() - 14 - 8) as u64);
    assert!(
        matches!(
            single_err(&pack, &b),
            CheckpointError::Truncated | CheckpointError::SectionLength(_)
        ),
        "swallowing length must fail framing"
    );

    // Off-by-one lies: the de-framed payloads land in the wrong
    // sections, which must fail typed (length, missing section, or a
    // semantic corruption) — never panic, never resume.
    let orig = u64::from_le_bytes(base[6..14].try_into().unwrap());
    for lie in [orig - 1, orig + 1] {
        let mut b = base.clone();
        patch_len(&mut b, lie);
        let err = single_err(&pack, &b);
        assert!(
            !matches!(err, CheckpointError::ChecksumMismatch { .. }),
            "resealed lie {lie} (orig {orig}) must fail structurally, got {err:?}"
        );
    }
}

#[test]
fn garbage_between_end_marker_and_trailer_is_counted() {
    let pack = pack();
    let mut bytes = single_checkpoint(&pack);
    let trailer_at = bytes.len() - 8;
    bytes.splice(trailer_at..trailer_at, [0xAAu8, 0xBB, 0xCC]);
    reseal(&mut bytes);
    match single_err(&pack, &bytes) {
        CheckpointError::TrailingBytes(n) => assert_eq!(n, 3),
        other => panic!("expected TrailingBytes(3), got {other:?}"),
    }
}

#[test]
fn unknown_section_tags_are_skipped_for_forward_compat() {
    // A newer minor revision may append sections this decoder doesn't
    // know; the length prefix lets it skip them and still resume.
    let pack = pack();
    let reference = Engine::westmere().run_pack(&pack);
    let mut bytes = single_checkpoint(&pack);
    let trailer_at = bytes.len() - 8;
    // end marker sits right before the trailer; insert ahead of it.
    let insert_at = trailer_at - 1;
    let mut extra = vec![0x7Eu8]; // unknown tag
    extra.extend_from_slice(&4u64.to_le_bytes());
    extra.extend_from_slice(&[1, 2, 3, 4]);
    bytes.splice(insert_at..insert_at, extra);
    reseal(&mut bytes);
    let resumed = Engine::resume_pack(&pack, &bytes).expect("unknown section must be skipped");
    assert_eq!(resumed, reference, "skipping must not perturb the resume");
}

#[test]
fn engine_kind_cross_resume_is_a_config_mismatch() {
    let pack = pack();
    let single = single_checkpoint(&pack);
    let multi = multicore_checkpoint(&pack);
    match multicore_err(&pack, &single) {
        CheckpointError::ConfigMismatch(what) => assert!(
            what.contains("single-core"),
            "message should name the kind: {what}"
        ),
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
    match single_err(&pack, &multi) {
        CheckpointError::ConfigMismatch(what) => assert!(
            what.contains("multicore"),
            "message should name the kind: {what}"
        ),
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
}

#[test]
fn resume_against_a_shorter_pack_fails_typed() {
    // A checkpoint whose cursor points past the end of the pack it is
    // resumed against (wrong or truncated pack) must fail typed.
    let pack = pack();
    let bytes = single_checkpoint(&pack);
    let short = TracePack::from_ops([TraceOp::Exec(10)]);
    match single_err(&short, &bytes) {
        CheckpointError::Pack(_) => {}
        other => panic!("expected a Pack cursor error, got {other:?}"),
    }

    let mc = multicore_checkpoint(&pack);
    match multicore_err(&short, &mc) {
        CheckpointError::Pack(_) | CheckpointError::Corrupt(_) => {}
        other => panic!("expected a cursor error, got {other:?}"),
    }
}

#[test]
fn empty_and_header_only_streams_fail_typed() {
    let pack = pack();
    // An empty stream is a zero-length prefix of the magic, so it
    // reads as truncation rather than foreign bytes.
    assert!(matches!(single_err(&pack, &[]), CheckpointError::Truncated));
    assert!(matches!(
        single_err(&pack, b"WXYZ"),
        CheckpointError::BadMagic
    ));
    let mut header = MAGIC.to_vec();
    header.push(VERSION);
    assert!(matches!(
        single_err(&pack, &header),
        CheckpointError::Truncated
    ));
}

#[test]
fn errors_render_useful_messages() {
    // The Display impls are what land in recovery logs and CI output.
    assert!(CheckpointError::BadMagic.to_string().contains("magic"));
    assert!(CheckpointError::Truncated.to_string().contains("truncated"));
    assert!(CheckpointError::UnsupportedVersion(9)
        .to_string()
        .contains('9'));
    assert!(CheckpointError::ChecksumMismatch {
        stored: 1,
        computed: 2
    }
    .to_string()
    .contains("checksum"));
    assert!(CheckpointError::SectionLength(0x03)
        .to_string()
        .contains("0x03"));
    assert!(CheckpointError::MissingSection("meta")
        .to_string()
        .contains("meta"));
    assert!(CheckpointError::TrailingBytes(7).to_string().contains('7'));
    assert!(CheckpointError::ConfigMismatch("cores")
        .to_string()
        .contains("cores"));
}

/// Section tags of the checkpoints this file patches (see
/// `califorms_sim::checkpoint`).
const SEC_CONFIG: u8 = 0x02;
const SEC_CORE: u8 = 0x03;
const SEC_RUNTIME: u8 = 0x06;
const SEC_CURSOR: u8 = 0x07;

/// Byte range of the payload of the section tagged `tag`.
fn section_payload(bytes: &[u8], tag: u8) -> std::ops::Range<usize> {
    let mut pos = 5; // magic + version
    loop {
        assert!(pos + 9 <= bytes.len() - 8, "section {tag:#04x} not found");
        let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap()) as usize;
        let start = pos + 9;
        if bytes[pos] == tag {
            return start..start + len;
        }
        pos = start + len;
    }
}

/// Appends `extra` to a section's payload, fixes its length prefix and
/// reseals the checksum.
fn append_to_section(bytes: &mut Vec<u8>, tag: u8, extra: &[u8]) {
    let payload = section_payload(bytes, tag);
    let len = (payload.len() + extra.len()) as u64;
    bytes[payload.start - 8..payload.start].copy_from_slice(&len.to_le_bytes());
    bytes.splice(payload.end..payload.end, extra.iter().copied());
    reseal(bytes);
}

/// Overwrites the `index`-th `u64` of a section's payload and reseals.
fn patch_u64(bytes: &mut [u8], tag: u8, index: usize, v: u64) {
    let at = section_payload(bytes, tag).start + 8 * index;
    bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
    reseal(bytes);
}

#[test]
fn trailing_bytes_in_multicore_config_and_runtime_are_length_errors() {
    let pack = pack();
    let base = multicore_checkpoint(&pack);
    for tag in [SEC_CONFIG, SEC_RUNTIME] {
        let mut b = base.clone();
        append_to_section(&mut b, tag, &[1]);
        match multicore_err(&pack, &b) {
            CheckpointError::SectionLength(t) => assert_eq!(t, tag),
            other => panic!("byte appended to {tag:#04x}: expected SectionLength, got {other:?}"),
        }
    }
}

#[test]
fn single_core_restore_rejects_invalid_cycles() {
    // The single-core `SEC_CORE` payload is the record count, then the
    // core's record: pc, cycles, ...
    let pack = pack();
    let base = single_checkpoint(&pack);
    for cycles in [f64::NAN, -5.0] {
        let mut b = base.clone();
        patch_u64(&mut b, SEC_CORE, 2, cycles.to_bits());
        match single_err(&pack, &b) {
            CheckpointError::Corrupt(what) => assert!(what.contains("cycle"), "{what}"),
            other => panic!("cycles {cycles}: expected Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn single_core_restore_rejects_pc_out_of_step_with_the_cursor() {
    // Single-core `SEC_CORE`: record count, then pc, ... Every checkpoint
    // `run_pack_checkpointed` takes has pc equal to the cursor's
    // `ops_read`; a resealed pc that disagrees is corrupt.
    let pack = pack();
    let base = single_checkpoint(&pack);
    let (_, cursor) = Engine::restore(&base).expect("control restores");
    for pc in [0, cursor.ops_read - 1, cursor.ops_read + 1] {
        let mut b = base.clone();
        patch_u64(&mut b, SEC_CORE, 1, pc);
        match single_err(&pack, &b) {
            CheckpointError::Corrupt(what) => assert!(what.contains("pc"), "{what}"),
            other => panic!("pc {pc}: expected Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn single_core_resume_rejects_a_cursor_past_the_pack() {
    // `SEC_CURSOR`: lane count, then byte offset, ops_read, ... Moving
    // pc along with ops_read keeps the checkpoint self-consistent, so
    // only the comparison with the pack can reject it.
    let pack = pack();
    let base = single_checkpoint(&pack);
    let mut b = base.clone();
    let past = pack.len_ops() + 1;
    patch_u64(&mut b, SEC_CORE, 1, past);
    patch_u64(&mut b, SEC_CURSOR, 2, past);
    assert!(
        Engine::restore(&b).is_ok(),
        "the checkpoint alone is consistent"
    );
    match single_err(&pack, &b) {
        CheckpointError::Corrupt(what) => assert!(what.contains("past the end"), "{what}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    // At exactly the pack's length the cursor is still in range.
    let mut b = base;
    patch_u64(&mut b, SEC_CORE, 1, pack.len_ops());
    patch_u64(&mut b, SEC_CURSOR, 2, pack.len_ops());
    assert!(!matches!(
        Engine::resume_pack(&pack, &b),
        Err(CheckpointError::Corrupt(what)) if what.contains("past the end")
    ));
}

/// Resumes `bytes` on a helper thread and fails unless that returns
/// (with any result, or a panic) within 10 s — a run loop that never
/// reaches its end would otherwise hang the suite.
fn resume_returns_within_10s(pack: TracePack, bytes: Vec<u8>) -> Option<Result<(), RunError>> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let r = MulticoreEngine::try_resume_pack(&pack, &bytes).map(|_| ());
        let _ = tx.send(r);
    });
    match rx.recv_timeout(std::time::Duration::from_secs(10)) {
        Ok(r) => Some(r),
        // The helper panicked: its sender dropped without a result.
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => None,
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("resume did not return within 10 s: the run hung")
        }
    }
}

#[test]
fn quanta_counter_at_its_limit_fails_typed_instead_of_hanging() {
    let pack = pack();
    let mut bytes = multicore_checkpoint(&pack);
    patch_u64(&mut bytes, SEC_RUNTIME, 0, u64::MAX); // quanta
    match resume_returns_within_10s(pack, bytes) {
        Some(Err(RunError::Checkpoint(CheckpointError::Corrupt(_)))) => {}
        other => panic!("expected a typed Corrupt error, got {other:?}"),
    }
}

#[test]
fn quanta_counter_overflow_at_a_boundary_does_not_hang() {
    // Consistent counters (`barrier_waits == quanta × cores`) that
    // overflow on the first quantum boundary. With overflow checks on
    // (the test profile) the run loop panics at that boundary; the
    // resume must still return, by propagating the panic, instead of
    // hanging.
    let pack = pack();
    let mut bytes = multicore_checkpoint(&pack);
    patch_u64(&mut bytes, SEC_RUNTIME, 0, u64::MAX / 2); // quanta
    patch_u64(&mut bytes, SEC_RUNTIME, 1, u64::MAX - 1); // barrier_waits
    if let Some(Err(e)) = resume_returns_within_10s(pack, bytes) {
        panic!("unexpected error {e:?}");
    }
}

#[test]
fn oversized_cache_geometry_is_corrupt_not_a_panic() {
    // `SEC_CONFIG` opens with the L1D size and ways on both engines.
    // Both lies overflow `ways * LINE_BYTES`; the second also declares a
    // level far over any real cache. Neither may reach an allocation.
    let pack = pack();
    let lies = [(None, 1u64 << 58), (Some(!63), 1 << 58)];
    for (base, engine) in [
        (single_checkpoint(&pack), "single"),
        (multicore_checkpoint(&pack), "multi"),
    ] {
        for (size, ways) in lies {
            let mut b = base.clone();
            if let Some(size) = size {
                patch_u64(&mut b, SEC_CONFIG, 0, size);
            }
            patch_u64(&mut b, SEC_CONFIG, 1, ways);
            let err = if engine == "single" {
                single_err(&pack, &b)
            } else {
                multicore_err(&pack, &b)
            };
            match err {
                CheckpointError::Corrupt(what) => assert_eq!(what, "L1D geometry"),
                other => {
                    panic!("{engine} size {size:?} ways {ways}: expected Corrupt, got {other:?}")
                }
            }
        }
    }
}
