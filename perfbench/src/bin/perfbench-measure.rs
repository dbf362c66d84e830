//! One measured world: telemetry off, timed from outside the facade.
//!
//! ```bash
//! perfbench-measure --workload metering_wide --seed 3
//! ```
//!
//! Prints one JSON line: every `Experiment::start` time (the measured run's
//! set-up plus `SETUPS - 1` extra set-ups that are built and dropped
//! first), every 1 s step time, the `finish` time, the process's peak RSS,
//! the uplink counts, the report digest and the correctness gate's
//! failures. Exits 1 on a bad argument or an invalid spec.

use rtem::prelude::Experiment;
use rtem_perfbench::{
    digest, drive, gate, parse_args, peak_rss_mb, uplink, JsonObject, NoObserver,
};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups timed per process. A set-up takes a few milliseconds, so one
/// sample per world would be mostly noise.
const SETUPS: usize = 9;

fn main() -> ExitCode {
    let (workload, seed, _) = match parse_args(&[]) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!("perfbench-measure: {error}");
            return ExitCode::FAILURE;
        }
    };
    let spec = workload.spec(seed);
    let mut setup_s = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        let started = Instant::now();
        let handle = Experiment::new(spec.clone()).start();
        setup_s.push(started.elapsed().as_secs_f64());
        drop(std::hint::black_box(handle));
    }
    let device_ticks = workload.device_ticks(&spec);
    let (report, timings) = match drive(spec, &mut NoObserver) {
        Ok(done) => done,
        Err(error) => {
            eprintln!("perfbench-measure: invalid spec: {error}");
            return ExitCode::FAILURE;
        }
    };
    setup_s.push(timings.setup_s);
    let digest = digest(&report);
    let failures = gate(workload, seed, &report, &digest);
    let (reports_sent, reports_unacked) = uplink(&report);
    let peak = peak_rss_mb().unwrap_or(f64::NAN);
    println!(
        "{}",
        JsonObject::new()
            .str("workload", workload.name())
            .num("seed", seed as f64)
            .nums("setup_s", &setup_s)
            .nums("step_s", &timings.step_s)
            .num("collect_s", timings.collect_s)
            .num("wall_s", timings.wall_s())
            .num("device_ticks", device_ticks)
            .num("peak_rss_mb", peak)
            .num("reports_sent", reports_sent as f64)
            .num("reports_unacked", reports_unacked as f64)
            .str("digest", &digest)
            .strs("gate_failures", &failures)
            .finish()
    );
    ExitCode::SUCCESS
}
