//! Probes that time one layer in isolation, from outside the simulator.

use crate::trace::Tracer;
use califorms_core::{fill, spill, CaliformedLine, L1Line, LINE_BYTES};
use califorms_sim::{Engine, TraceOp, TracePack};
use std::hint::black_box;

/// Decodes `pack` with `PackDecoder::next_batch` and nothing else;
/// returns the ops decoded and the seconds taken.
pub fn decode_only(tr: &mut Tracer, pack: &TracePack) -> (u64, f64) {
    tr.time("tracepack.decode", || {
        let mut dec = pack.decoder();
        let mut ring = [TraceOp::Exec(0); Engine::REPLAY_BATCH];
        let mut ops = 0u64;
        loop {
            let n = dec
                .next_batch(&mut ring)
                .expect("pack built by TracePack::from_ops is well-formed");
            if n == 0 {
                return ops;
            }
            ops += n as u64;
            black_box(&ring);
        }
    })
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Lines for the spill/fill probe: a quarter clean, the rest with one to
/// three security spans of 1–7 bytes, as the intelligent 1–7B policy
/// places them.
fn probe_lines(seed: u64, count: usize) -> Vec<L1Line> {
    let mut state = seed;
    (0..count)
        .map(|i| {
            let mut data = [0u8; LINE_BYTES];
            for chunk in data.chunks_mut(8) {
                chunk.copy_from_slice(&splitmix(&mut state).to_le_bytes());
            }
            let mut mask = 0u64;
            if i % 4 != 0 {
                for _ in 0..1 + splitmix(&mut state) % 3 {
                    let len = 1 + splitmix(&mut state) % 7;
                    let start = splitmix(&mut state) % (LINE_BYTES as u64 - len);
                    mask |= ((1u64 << len) - 1) << start;
                }
            }
            L1Line::new(CaliformedLine::new(data, mask))
        })
        .collect()
}

/// Lines per spill/fill probe pass.
const PROBE_LINES: usize = 4096;

/// Times `califorms_core::spill` and `fill` per line over `passes`
/// passes; returns the per-pass ns per call, or an error if a fill does
/// not invert its spill.
pub fn spill_fill(
    tr: &mut Tracer,
    seed: u64,
    passes: usize,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let lines = probe_lines(seed, PROBE_LINES);
    let mut spill_ns = Vec::new();
    let mut fill_ns = Vec::new();
    for _ in 0..passes {
        let (spilled, s) = tr.time("core.spill", || {
            lines
                .iter()
                .map(|l| spill(black_box(l)).map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()
        });
        let spilled = spilled?;
        let (filled, f) = tr.time("core.fill", || {
            spilled
                .iter()
                .map(|l| fill(black_box(l)).map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()
        });
        if filled? != lines {
            return Err("fill(spill(line)) differs from line".to_string());
        }
        spill_ns.push(s * 1e9 / PROBE_LINES as f64);
        fill_ns.push(f * 1e9 / PROBE_LINES as f64);
    }
    Ok((spill_ns, fill_ns))
}
