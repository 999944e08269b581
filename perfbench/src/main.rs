//! Replay benchmark for the califorms simulator.
//!
//! One run builds one workload from a seed, replays it closed-loop (one
//! replay at a time, in this process) for a fixed time, checks every
//! replay against an untimed twin, and prints its metrics as the last
//! line of standard output:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload spec_1c --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` reports the
//! per-layer metrics instead: it records the benchmark's own spans around
//! every call into a layer and times each layer in isolation.
//! `--size tiny` shrinks the workload for the smoke test. Every run also
//! writes a result file (schema version, host fingerprint, every sample)
//! under `perfbench/out/`, and a traced run writes its spans there too.
//! `perfbench/README.md` says why each workload and metric exists.

#![forbid(unsafe_code)]

mod calibrate;
mod layers;
mod report;
mod trace;
mod workload;

use calibrate::Calibration;
use califorms_sim::{RunError, RuntimeTiming};
use report::{json_string, median, number, Host, Report, SCHEMA_VERSION};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Kind, Reference, Replay, Size, Workload, SPEC_PROFILES};

/// Builds per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Fewest timed replays (and resumes) in a run.
const MIN_REPEATS: usize = 5;
/// Consecutive groups the timed replays (and resumes) of a run fall
/// into. Host speed on a shared machine switches between states that
/// last from a tenth of a second to seconds, so single replays are
/// bimodal and their median jumps between modes; the median of group
/// means stays steady.
const WINDOWS: usize = 8;
/// Repeats of each layer probe in the traced run.
const PROBE_REPEATS: usize = 3;

const USAGE: &str = "usage: califorms-perfbench --workload \
<spec_1c|mc_hot_2c|mc_lock_2c|mc_stream_ckpt_2c> --seed <n> --seconds <s> --trace <0|1> \
[--size full|tiny]";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut size = Size::Full;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
    })
}

/// One build of the workload, and the calibration kernel's time right
/// after it.
struct Build {
    generate_s: f64,
    encode_s: f64,
    calibration_s: f64,
}

/// Builds the workload [`SETUP_REPEATS`] times; returns the last build
/// with the timings of every build.
fn setup(a: &Args, tr: &mut Tracer, cal: &mut Calibration) -> (Workload, Vec<Build>) {
    let mut builds = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        tr.next_run();
        // Free the previous build first, so the peak holds one build.
        drop(last.take());
        let w = Workload::build(a.kind, a.seed, a.size, tr);
        builds.push(Build {
            generate_s: w.generate_s,
            encode_s: w.encode_s,
            calibration_s: cal.measure(),
        });
        last = Some(w);
    }
    (last.expect("SETUP_REPEATS > 0"), builds)
}

/// Counts one checked run: an error, or a digest other than the twin's,
/// fails it. Returns whether it passed.
fn verify(rep: &mut Report, what: &str, digest: Result<u64, &RunError>, want: u64) -> bool {
    let error = match digest {
        Ok(d) if d == want => None,
        Ok(d) => Some(format!("{what}: digest {d:016x}, twin {want:016x}")),
        Err(e) => Some(format!("{what}: {e}")),
    };
    let ok = error.is_none();
    rep.attempt(error);
    ok
}

/// One timed replay, checked against its twin; `None` if it failed.
fn replay_once(
    w: &Workload,
    reference: &Reference,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Option<Replay> {
    tr.next_run();
    tr.enter("bench.replay");
    let r = w.replay(tr, &reference.intervals);
    tr.exit();
    let digest = r.as_ref().map(|r| r.outcome.digest);
    if verify(rep, "replay", digest, reference.replay) {
        r.ok()
    } else {
        None
    }
}

/// One timed resume from `ckpts`, checked against its twin; its seconds,
/// or `None` if it failed.
fn resume_once(
    w: &Workload,
    want: u64,
    ckpts: &[&[u8]],
    tr: &mut Tracer,
    rep: &mut Report,
) -> Option<f64> {
    let r = w.resume(tr, ckpts);
    let digest = r.as_ref().map(|(o, _)| o.digest);
    if verify(rep, "resume", digest, want) {
        r.ok().map(|(_, secs)| secs)
    } else {
        None
    }
}

/// Calls `f` closed-loop until `until` has passed, and at least
/// [`MIN_REPEATS`] times.
fn repeat_for(until: Duration, mut f: impl FnMut()) {
    let start = Instant::now();
    let mut runs = 0;
    while runs < MIN_REPEATS || start.elapsed() < until {
        runs += 1;
        f();
    }
}

/// One closed-loop iteration of the untraced run: a replay, the resume
/// that follows it (if it passed), and the calibration kernel after both.
struct Iteration {
    replay_s: f64,
    resume_s: Option<f64>,
    calibration_s: f64,
}

/// The untraced run: the end-to-end metrics, as times on the host at
/// its nominal speed (see [`calibrate`]).
fn end_to_end(a: &Args) -> Report {
    let mut tr = Tracer::new(false);
    let mut cal = Calibration::new();
    let mut rep = Report::default();
    let (w, builds) = setup(a, &mut tr, &mut cal);
    rep.ops = w.ops();
    let reference = match Reference::build(&w, &mut tr) {
        Ok(r) => r,
        Err(e) => {
            rep.attempt(Some(e));
            return rep;
        }
    };
    let budget = Duration::from_secs_f64(a.seconds);
    let mut iterations = Vec::new();
    // Every replay is followed by a resume, so both metrics sample the
    // whole run. `mc_stream_ckpt_2c` resumes from its replay's own
    // midpoint checkpoint, the others from the reference run's.
    let mids = reference.midpoints();
    repeat_for(budget, || {
        let Some(r) = replay_once(&w, &reference, &mut tr, &mut rep) else {
            return;
        };
        let from = match (w.kind, r.checkpoints.first()) {
            (Kind::McStreamCkpt2c, Some(Some(own))) => vec![own.mid.as_slice()],
            (Kind::McStreamCkpt2c, _) => {
                rep.attempt(Some("replay took no checkpoint".into()));
                return;
            }
            _ => mids.clone(),
        };
        let resume_s = resume_once(&w, reference.resumed, &from, &mut tr, &mut rep);
        iterations.push(Iteration {
            replay_s: r.secs,
            resume_s,
            calibration_s: cal.measure(),
        });
    });

    // Each window's times divided by its host slowdown.
    let size = iterations.len().div_ceil(WINDOWS).max(1);
    let (mut mops, mut resume) = (Vec::new(), Vec::new());
    for window in iterations.chunks(size) {
        let slowdown = mean(window.iter().map(|i| i.calibration_s)) / calibrate::NOMINAL_S;
        mops.push(w.ops() as f64 * slowdown / mean(window.iter().map(|i| i.replay_s)) / 1e6);
        let resumes: Vec<f64> = window.iter().filter_map(|i| i.resume_s).collect();
        if !resumes.is_empty() {
            resume.push(mean(resumes.into_iter()) / slowdown);
        }
    }
    let setup_s = builds
        .iter()
        .map(|b| (b.generate_s + b.encode_s) * calibrate::NOMINAL_S / b.calibration_s)
        .collect();
    rep.median("sim_mops", "Mops/s", mops);
    rep.median("setup_s", "s", setup_s);
    match report::peak_rss_mb() {
        Some(mb) => rep.value("peak_rss_mb", "MiB", mb),
        None => rep.attempt(Some("peak RSS unreadable from /proc/self/status".into())),
    }
    rep.median("resume_s", "s", resume);
    let ok = (rep.attempted - rep.failed) as f64 / rep.attempted as f64;
    rep.value("ok_runs_frac", "frac", ok);
    let calibration: Vec<f64> = iterations.iter().map(|i| i.calibration_s).collect();
    rep.host_slowdown = Some(median(&calibration) / calibrate::NOMINAL_S);
    rep
}

fn mean(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = values.len() as f64;
    values.sum::<f64>() / n
}

/// Mean seconds per run in each of up to [`WINDOWS`] consecutive groups
/// of `secs`.
fn windows(secs: &[f64]) -> Vec<f64> {
    let size = secs.len().div_ceil(WINDOWS).max(1);
    secs.chunks(size)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

/// Median of `f` over `samples`.
fn median_of<T>(samples: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<_>>())
}

/// The traced run: the per-layer metrics.
fn per_layer(a: &Args, tr: &mut Tracer) -> Report {
    let mut rep = Report::default();
    let (w, builds) = setup(a, tr, &mut Calibration::new());
    rep.ops = w.ops();
    tr.next_run();
    let reference = match Reference::build(&w, tr) {
        Ok(r) => r,
        Err(e) => {
            rep.attempt(Some(e));
            return rep;
        }
    };
    let ops = w.ops() as f64;
    let budget = Duration::from_secs_f64(a.seconds);

    // The same replays alternately untraced and traced: the untraced
    // ones give the wall time the ledger splits and the base of the
    // tracing overhead.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut timing: Vec<RuntimeTiming> = Vec::new();
    let mut runtime = Default::default();
    let mut quiet = Tracer::new(false);
    repeat_for(budget.mul_f64(0.6), || {
        untraced.extend(replay_once(&w, &reference, &mut quiet, &mut rep).map(|r| r.secs));
        if let Some(r) = replay_once(&w, &reference, tr, &mut rep) {
            traced.push(r.secs);
            runtime = r.outcome.runtime;
            timing.push(r.outcome.timing);
        }
    });
    let wall = median(&windows(&untraced));
    let traced_wall = median(&windows(&traced));

    // Layer probes, each repeated and checked.
    let mut decode = Vec::new();
    let mut twins = Vec::new();
    let mut plain = Vec::new();
    let mut checkpointed = Vec::new();
    let mut restore = Vec::new();
    for _ in 0..PROBE_REPEATS {
        tr.next_run();
        let mut decoded = 0;
        let mut secs = 0.0;
        for pack in &w.packs {
            let (n, s) = layers::decode_only(tr, pack);
            decoded += n;
            secs += s;
        }
        let error = (decoded != w.ops()).then(|| format!("decoded {decoded} of {} ops", w.ops()));
        rep.attempt(error);
        decode.push(secs);

        let twin = w.twin(tr);
        if verify(
            &mut rep,
            "twin",
            twin.as_ref().map(|t| t.0.digest),
            reference.replay,
        ) {
            twins.push(twin.expect("verified"));
        }
        let p = w.run_plain(tr);
        if verify(
            &mut rep,
            "plain",
            p.as_ref().map(|p| p.0.digest),
            reference.resumed,
        ) {
            plain.push(p.map_or(0.0, |p| p.1));
        }
        let c = w.run_checkpointed(tr, &reference.intervals);
        if verify(
            &mut rep,
            "checkpointed",
            c.as_ref().map(|c| c.outcome.digest),
            reference.resumed,
        ) {
            checkpointed.push(c.map_or(0.0, |c| c.secs));
        }
        let r = w.resume(tr, &reference.lasts());
        if verify(
            &mut rep,
            "restore",
            r.as_ref().map(|r| r.0.digest),
            reference.resumed,
        ) {
            restore.push(r.map_or(0.0, |r| r.1));
        }
    }
    tr.next_run();
    let (spill_ns, fill_ns) = match layers::spill_fill(tr, a.seed, PROBE_REPEATS) {
        Ok(v) => {
            rep.attempt(None);
            v
        }
        Err(e) => {
            rep.attempt(Some(e));
            Default::default()
        }
    };

    let counts = twins.first().map(|t| t.0.counts).unwrap_or_default();
    let sim_s = median_of(&twins, |t| t.1.iter().sum());
    let decode_s = median(&decode);
    let multicore = w.kind != Kind::Spec1c;

    rep.median(
        "workloads.generate_s",
        "s",
        builds.iter().map(|b| b.generate_s).collect(),
    );
    rep.median(
        "tracepack.encode_s",
        "s",
        builds.iter().map(|b| b.encode_s).collect(),
    );
    rep.median(
        "tracepack.decode_ns_per_op",
        "ns",
        decode.iter().map(|s| s * 1e9 / ops).collect(),
    );
    rep.value("tracepack.decode_share", "frac", decode_s / wall);
    rep.value("tracepack.bytes_per_op", "B", w.pack_bytes() as f64 / ops);
    rep.median(
        "engine.replay_ns_per_op",
        "ns",
        twins
            .iter()
            .map(|t| t.1.iter().sum::<f64>() * 1e9 / ops)
            .collect(),
    );
    for (i, profile) in SPEC_PROFILES.iter().enumerate() {
        let samples = if multicore {
            Vec::new()
        } else {
            let trace_ops = w.packs[i].len_ops() as f64;
            twins.iter().map(|t| t.1[i] * 1e9 / trace_ops).collect()
        };
        rep.median(&format!("engine.replay_ns_per_op.{profile}"), "ns", samples);
    }
    for (name, v) in [
        ("l1d_hits", counts.l1d_hits),
        ("l1d_misses", counts.l1d_misses),
        ("l2_misses", counts.l2_misses),
        ("l3_misses", counts.l3_misses),
        ("dram_accesses", counts.dram_accesses),
        ("spills", counts.spills),
        ("fills", counts.fills),
        ("cforms", counts.cforms),
    ] {
        rep.value(&format!("hierarchy.{name}"), "count", v as f64);
    }
    let (spill, fill) = (median(&spill_ns), median(&fill_ns));
    rep.median("core.spill_ns", "ns", spill_ns);
    rep.median("core.fill_ns", "ns", fill_ns);
    rep.value(
        "core.convert_s_est",
        "s",
        (spill * counts.spills as f64 + fill * counts.fills as f64) / 1e9,
    );

    let weave_s = median_of(&timing, |t| t.weave_s);
    rep.median(
        "runtime.bound_s",
        "s",
        timing.iter().map(|t| t.bound_s).collect(),
    );
    rep.median(
        "runtime.weave_s",
        "s",
        timing.iter().map(|t| t.weave_s).collect(),
    );
    rep.median(
        "runtime.barrier_s",
        "s",
        timing.iter().map(|t| t.barrier_s).collect(),
    );
    rep.value("runtime.weave_share", "frac", weave_s / traced_wall);
    let per_quantum = if runtime.quanta == 0 {
        0.0
    } else {
        traced_wall * 1e6 / runtime.quanta as f64
    };
    rep.value("runtime.us_per_quantum", "us", per_quantum);
    for (name, v) in [
        ("quanta", runtime.quanta),
        ("barrier_waits", runtime.barrier_waits),
        ("weave_turns", runtime.weave_turns),
        ("weave_transactions", runtime.weave_transactions),
        ("batched_transactions", runtime.batched_transactions),
        ("contended_transactions", runtime.contended_transactions),
    ] {
        rep.value(&format!("runtime.{name}"), "count", v as f64);
    }
    for (name, v) in [
        ("directory_lookups", counts.directory_lookups),
        ("invalidations", counts.invalidations),
        ("upgrades_s_to_m", counts.upgrades_s_to_m),
        ("c2c_transfers", counts.c2c_transfers),
        ("califormed_transfers", counts.califormed_transfers),
    ] {
        rep.value(&format!("coherence.{name}"), "count", v as f64);
    }
    let per_txn = if runtime.weave_transactions == 0 {
        0.0
    } else {
        weave_s * 1e9 / runtime.weave_transactions as f64
    };
    rep.value("coherence.ns_per_txn", "ns", per_txn);

    let overhead = median(&checkpointed) - median(&plain);
    rep.value(
        "checkpoint.count",
        "count",
        reference.checkpoint_count() as f64,
    );
    rep.value("checkpoint.bytes_each", "B", reference.checkpoint_bytes());
    rep.value("checkpoint.overhead_s", "s", overhead);
    rep.median("checkpoint.restore_s", "s", restore);

    rep.value("model.cycles", "cycles", counts.cycles);
    rep.value("model.ipc", "1", counts.instructions as f64 / counts.cycles);
    // 53 bits, so the JSON number is exact.
    rep.value("model.digest", "hash", (reference.replay >> 11) as f64);

    // Decode + simulation + barrier + checkpoint parts of the replay's
    // wall time, each timed apart from the others.
    let (sim_part, barrier_part) = if multicore {
        (
            median_of(&twins, |t| t.0.timing.bound_s + t.0.timing.weave_s),
            median_of(&twins, |t| t.0.timing.barrier_s),
        )
    } else {
        (sim_s, 0.0)
    };
    let checkpoint_part = if w.kind == Kind::McStreamCkpt2c {
        overhead
    } else {
        0.0
    };
    let parts = decode_s + sim_part + barrier_part + checkpoint_part;
    rep.value("ledger.unexplained_frac", "frac", 1.0 - parts / wall);
    rep.value("trace.overhead_frac", "frac", traced_wall / wall - 1.0);
    rep
}

/// Writes the result file, and the spans of a traced run, under
/// `perfbench/out/`.
fn write_outputs(a: &Args, host: &Host, rep: &Report, tr: &Tracer) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        a.kind.name(),
        a.seed,
        u8::from(a.trace)
    );
    let mut s = format!(
        "{{\n\"schema_version\":{SCHEMA_VERSION},\n\"workload\":\"{}\",\n\"seed\":{},\n\"seconds\":{},\n\"size\":\"{}\",\n\"ops\":{},\n\"host_slowdown\":{},\n\"trace\":{},\n\"host\":{},\n\"correct\":{},\n\"attempted\":{},\n\"failed\":{},\n\"errors\":[{}],\n\"metrics\":{{",
        a.kind.name(),
        a.seed,
        number(a.seconds),
        if a.size == Size::Tiny { "tiny" } else { "full" },
        rep.ops,
        rep.host_slowdown.map_or("null".to_string(), number),
        a.trace,
        host.to_json(),
        rep.correct(),
        rep.attempted,
        rep.failed,
        rep.errors.iter().map(|e| json_string(e)).collect::<Vec<_>>().join(","),
    );
    for (i, m) in rep.metrics.iter().enumerate() {
        let samples: Vec<String> = m.samples.iter().map(|v| number(*v)).collect();
        let _ = write!(
            s,
            "{}\n  \"{}\":{{\"value\":{},\"unit\":\"{}\",\"samples\":[{}]}}",
            if i == 0 { "" } else { "," },
            m.name,
            number(m.value),
            m.unit,
            samples.join(",")
        );
    }
    s.push_str("\n},\n\"span_self_s\":{");
    let own: Vec<String> = tr
        .self_seconds()
        .into_iter()
        .map(|(name, secs)| format!("\"{name}\":{}", number(secs)))
        .collect();
    s.push_str(&own.join(","));
    s.push_str("}\n}\n");
    std::fs::write(dir.join(format!("{stem}.json")), s)?;
    if a.trace {
        std::fs::write(dir.join(format!("{stem}-spans.json")), tr.to_json())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    println!("host {}", host.to_json());
    let mut tr = Tracer::new(args.trace);
    let rep = if args.trace {
        per_layer(&args, &mut tr)
    } else {
        end_to_end(&args)
    };
    if let Err(e) = write_outputs(&args, &host, &rep, &tr) {
        eprintln!("perfbench: could not write the result file: {e}");
    }
    for e in &rep.errors {
        eprintln!("perfbench: {e}");
    }
    println!("{}", rep.line());
    ExitCode::SUCCESS
}
