//! Scale sweep: wall-clock cost and peak resident memory of full
//! experiment runs across fleet sizes and retention policies — the
//! performance trajectory of the testbed. Writes the grid
//! as machine-readable `BENCH_scale.json`.
//!
//! ```bash
//! cargo run --release -p rtem-bench --bin scale_sweep              # full sweep
//! cargo run --release -p rtem-bench --bin scale_sweep -- --smoke   # CI gate
//! cargo run --release -p rtem-bench --bin scale_sweep -- \
//!     --cell 1000 --horizon 600 --bounded 2
//! ```
//!
//! Every cell of the full sweep runs in its *own subprocess* (this binary
//! re-executed in `--cell` mode), so the `peak_rss_mb` column is the
//! kernel's `VmHWM` high-water mark of exactly that cell — not polluted
//! by whichever larger cell ran earlier in the same address space.
//!
//! All keep-all cells share one 600 s horizon so their rows are directly
//! comparable; the 50k- and 100k-device cells run 60 s under the
//! bounded-memory retention policy (two active verification windows
//! resident, sealed summaries for the rest). The horizon-normalized
//! `device_ticks_per_wall_s` column (measure ticks simulated per
//! wall-clock second) is the cross-horizon throughput gauge: it is flat
//! where scaling is linear, regardless of each cell's horizon.
//!
//! `--smoke` runs a 10-device calibration cell plus the 100-device cell
//! and fails (exit 1) if the 100-device wall time regressed more than 2x
//! over the committed `BENCH_scale.json` snapshot — judged on both the
//! absolute wall time and the 100:10 ratio, so a slower CI runner does
//! not trip the gate but a reintroduced population scan (which inflates
//! the ratio) does. It also re-runs the bounded-memory 100-device cell in
//! a subprocess and fails if its peak RSS exceeds 2x the committed value:
//! the memory bound is a correctness claim of the streaming-compaction
//! path, so an unbounded-residency regression trips CI even when wall
//! time looks fine. Smoke results go to `BENCH_scale_smoke.json`; the
//! committed snapshot is read-only to the gate.

use rtem::prelude::*;
use std::time::Instant;

const SEED: u64 = 1202;

/// Default measurement cadence of the swept scenarios, used to convert
/// device-seconds into measure ticks for the throughput column.
const T_MEASURE_MS: f64 = 100.0;

/// Wall time of the 1000-device / 600 s cell on the pre-index-redesign
/// event loop (commit 61166ac, same machine class as the committed
/// snapshot). Kept so the sweep can report its speedup against the seed
/// loop; refresh it only when re-measuring the old loop deliberately.
const SEED_LOOP_1K_WALL_MS: u64 = 141_069;

/// One point of the sweep grid.
#[derive(Clone, Copy)]
struct CellSpec {
    devices: u32,
    horizon_s: u64,
    /// `Some(w)` caps resident aggregator state to `w` active verification
    /// windows (sealed summaries stand in for the evicted rest).
    bounded_windows: Option<u64>,
}

impl CellSpec {
    const fn keep_all(devices: u32, horizon_s: u64) -> CellSpec {
        CellSpec {
            devices,
            horizon_s,
            bounded_windows: None,
        }
    }

    const fn bounded(devices: u32, horizon_s: u64, windows: u64) -> CellSpec {
        CellSpec {
            devices,
            horizon_s,
            bounded_windows: Some(windows),
        }
    }

    fn retention_label(&self) -> String {
        match self.bounded_windows {
            Some(w) => format!("bounded_{w}"),
            None => "keep_all".to_string(),
        }
    }
}

struct CellResult {
    spec: CellSpec,
    wall_ms: u128,
    sim_x_realtime: f64,
    device_ticks_per_wall_s: f64,
    blocks: usize,
    ledger_entries: usize,
    reports_accepted: u64,
    peak_rss_mb: Option<f64>,
    mean_overhead_percent: Option<f64>,
}

/// Peak resident set size of this process so far, from the kernel's
/// `VmHWM` high-water mark. `None` off Linux or if `/proc` is unreadable.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn run_cell(cell: CellSpec) -> CellResult {
    let mut spec = ScenarioSpec::single_network(cell.devices, SEED)
        .with_horizon(SimDuration::from_secs(cell.horizon_s));
    if let Some(windows) = cell.bounded_windows {
        spec = spec.with_bounded_memory(windows as usize);
    }
    let start = Instant::now();
    let report = Experiment::new(spec).run().expect("sweep cells are valid");
    let wall = start.elapsed();
    let network = &report.metrics.networks[0];
    let ticks = cell.devices as f64 * cell.horizon_s as f64 * (1000.0 / T_MEASURE_MS);
    CellResult {
        spec: cell,
        wall_ms: wall.as_millis(),
        sim_x_realtime: cell.horizon_s as f64 / wall.as_secs_f64(),
        device_ticks_per_wall_s: ticks / wall.as_secs_f64(),
        blocks: network.blocks,
        ledger_entries: network.ledger_entries,
        reports_accepted: network.reports_accepted,
        peak_rss_mb: peak_rss_mb(),
        mean_overhead_percent: report.mean_overhead_percent(),
    }
}

fn json_num(value: Option<f64>) -> String {
    match value {
        Some(v) if v.is_finite() => format!("{v:.4}"),
        _ => "null".to_string(),
    }
}

fn json_mb(value: Option<f64>) -> String {
    match value {
        Some(v) if v.is_finite() => format!("{v:.1}"),
        _ => "null".to_string(),
    }
}

/// One cell as a single JSON line (no indentation; the snapshot writer
/// indents). Field order keeps `devices` first and the distinguishing
/// `retention` early so committed snapshots stay line-greppable without a
/// JSON parser in the offline vendor set.
fn cell_json(cell: &CellResult) -> String {
    format!(
        concat!(
            "{{\"devices\": {}, \"horizon_s\": {}, \"retention\": \"{}\", ",
            "\"wall_ms\": {}, \"sim_x_realtime\": {:.1}, \"device_ticks_per_wall_s\": {:.0}, ",
            "\"blocks\": {}, \"ledger_entries\": {}, \"reports_accepted\": {}, ",
            "\"peak_rss_mb\": {}, \"mean_overhead_percent\": {}}}"
        ),
        cell.spec.devices,
        cell.spec.horizon_s,
        cell.spec.retention_label(),
        cell.wall_ms,
        cell.sim_x_realtime,
        cell.device_ticks_per_wall_s,
        cell.blocks,
        cell.ledger_entries,
        cell.reports_accepted,
        json_mb(cell.peak_rss_mb),
        json_num(cell.mean_overhead_percent),
    )
}

/// Re-executes this binary in `--cell` mode so the child's `VmHWM` is the
/// peak RSS of exactly that cell. Returns the child's JSON line, or `None`
/// if spawning failed (sandboxed runners) — callers fall back in-process.
fn spawn_cell(cell: CellSpec) -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let mut command = std::process::Command::new(exe);
    command
        .arg("--cell")
        .arg(cell.devices.to_string())
        .arg("--horizon")
        .arg(cell.horizon_s.to_string());
    if let Some(windows) = cell.bounded_windows {
        command.arg("--bounded").arg(windows.to_string());
    }
    let output = command.output().ok()?;
    if !output.status.success() {
        return None;
    }
    let stdout = String::from_utf8(output.stdout).ok()?;
    stdout
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .map(str::to_string)
}

/// Runs one grid cell in a subprocess for a clean per-cell RSS reading,
/// falling back to in-process (with `peak_rss_mb` nulled, since `VmHWM`
/// would then carry earlier cells) when spawning is unavailable.
fn sweep_cell(cell: CellSpec) -> String {
    spawn_cell(cell).unwrap_or_else(|| {
        let mut result = run_cell(cell);
        result.peak_rss_mb = None;
        cell_json(&result)
    })
}

/// The full sweep owns the committed `BENCH_scale.json`; the smoke gate
/// writes next to it so a local `--smoke` run can never clobber the
/// committed perf trajectory it compares against.
fn snapshot_path(mode: &str) -> &'static str {
    if mode == "smoke" {
        "BENCH_scale_smoke.json"
    } else {
        "BENCH_scale.json"
    }
}

fn write_snapshot(lines: &[String], mode: &str) {
    let joined = lines.join("\n");
    let speedup_1k = cell_line(&joined, &["\"devices\": 1000,", "keep_all"])
        .and_then(|l| field_u128(l, "wall_ms"))
        .map(|wall| SEED_LOOP_1K_WALL_MS as f64 / wall as f64);
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"scale_sweep\",\n",
            "  \"mode\": \"{}\",\n",
            "  \"scenario\": {{\"networks\": 1, \"seed\": {}, \"t_measure_ms\": 100, ",
            "\"verification_window_s\": 10}},\n",
            "  \"cells\": [\n{}\n  ],\n",
            "  \"seed_baseline\": {{\"devices\": 1000, \"horizon_s\": 600, ",
            "\"wall_ms\": {}, \"speedup\": {}}}\n",
            "}}\n"
        ),
        mode,
        SEED,
        lines
            .iter()
            .map(|l| format!("    {l}"))
            .collect::<Vec<_>>()
            .join(",\n"),
        SEED_LOOP_1K_WALL_MS,
        json_num(speedup_1k),
    );
    let path = snapshot_path(mode);
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// Finds the first snapshot line containing every marker — enough to pick
/// one cell out of a committed `BENCH_scale.json` without a JSON parser.
fn cell_line<'a>(snapshot: &'a str, markers: &[&str]) -> Option<&'a str> {
    snapshot
        .lines()
        .find(|l| markers.iter().all(|m| l.contains(m)))
}

fn field_u128(line: &str, field: &str) -> Option<u128> {
    let tail = line.split(&format!("\"{field}\": ")).nth(1)?;
    tail.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

fn field_f64(line: &str, field: &str) -> Option<f64> {
    let tail = line.split(&format!("\"{field}\": ")).nth(1)?;
    tail.split(|c: char| !c.is_ascii_digit() && c != '.')
        .next()?
        .parse()
        .ok()
}

fn arg_value(args: &[String], flag: &str) -> Option<u64> {
    let i = args.iter().position(|a| a == flag)?;
    args.get(i + 1)?.parse().ok()
}

fn smoke() {
    let calibration_spec = CellSpec::keep_all(10, 600);
    let smoke_spec = CellSpec::keep_all(100, 600);
    let rss_spec = CellSpec::bounded(100, 600, 2);
    let committed = std::fs::read_to_string("BENCH_scale.json").ok();
    let keep_all_line = |devices: u32| {
        cell_line(
            committed.as_deref()?,
            &[&format!("\"devices\": {devices},"), "keep_all"],
        )
    };
    let committed_smoke = keep_all_line(smoke_spec.devices).and_then(|l| field_u128(l, "wall_ms"));
    let committed_calibration =
        keep_all_line(calibration_spec.devices).and_then(|l| field_u128(l, "wall_ms"));
    let committed_rss = cell_line(
        committed.as_deref().unwrap_or(""),
        &["\"devices\": 100,", "bounded_2"],
    )
    .and_then(|l| field_f64(l, "peak_rss_mb"));

    // The calibration cell prices this machine: an absolute wall-ms
    // comparison alone would flag any runner slower than the machine
    // the snapshot was committed from, so a regression must also show
    // up in the 100:10-device *ratio*, where machine speed cancels and
    // a reintroduced population scan cannot hide.
    let calibration = run_cell(calibration_spec);
    let cell = run_cell(smoke_spec);
    // The RSS cell runs in a subprocess so its VmHWM is its own, not the
    // high-water mark the keep-all cells above already set.
    let rss_line = sweep_cell(rss_spec);
    let measured_rss = field_f64(&rss_line, "peak_rss_mb");
    let calibration_line = cell_json(&calibration);
    let cell_line_json = cell_json(&cell);
    println!("{calibration_line}");
    println!("{cell_line_json}");
    println!("{rss_line}");
    write_snapshot(&[calibration_line, cell_line_json, rss_line], "smoke");

    let mut failed = false;
    if let (Some(committed_smoke), Some(committed_calibration)) =
        (committed_smoke, committed_calibration)
    {
        let wall_limit = committed_smoke.saturating_mul(2).max(1000);
        let committed_ratio = committed_smoke as f64 / committed_calibration.max(1) as f64;
        let ratio = cell.wall_ms as f64 / calibration.wall_ms.max(1) as f64;
        println!(
            "# 100-device cell: {} ms (committed {} ms, limit {} ms); \
             100:10 ratio {:.2} (committed {:.2}, limit {:.2})",
            cell.wall_ms,
            committed_smoke,
            wall_limit,
            ratio,
            committed_ratio,
            committed_ratio * 2.0,
        );
        if cell.wall_ms > wall_limit && ratio > committed_ratio * 2.0 {
            eprintln!("# FAIL: >2x wall-time regression over the committed snapshot");
            failed = true;
        }
    } else {
        eprintln!("# no committed wall-time cells to compare against");
    }
    match (measured_rss, committed_rss) {
        (Some(measured), Some(committed)) => {
            // Floor the limit well above allocator/loader noise so the gate
            // only fires on genuine unbounded-residency regressions.
            let limit = (committed * 2.0).max(64.0);
            println!(
                "# bounded-memory 100-device cell: {measured:.1} MB peak RSS \
                 (committed {committed:.1} MB, limit {limit:.1} MB)"
            );
            if measured > limit {
                eprintln!("# FAIL: bounded-memory peak RSS exceeded 2x the committed snapshot");
                failed = true;
            }
        }
        (None, _) => eprintln!("# no per-cell RSS reading available; RSS gate skipped"),
        (_, None) => eprintln!("# no committed bounded-memory RSS cell; RSS gate skipped"),
    }
    if failed {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if let Some(devices) = arg_value(&args, "--cell") {
        let horizon_s = arg_value(&args, "--horizon").unwrap_or(600);
        let cell = CellSpec {
            devices: devices as u32,
            horizon_s,
            bounded_windows: arg_value(&args, "--bounded"),
        };
        println!("{}", cell_json(&run_cell(cell)));
        return;
    }

    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    // Full sweep. Every keep-all cell shares the 600 s horizon so rows are
    // directly comparable; the 1000-device cell repeats under bounded
    // retention (same digest, bounded resident state). The 50k and 100k
    // cells run 60 s — at those sizes the horizon-normalized
    // `device_ticks_per_wall_s` column carries the comparison, and
    // keep-all residency would measure the allocator instead of the
    // testbed, so they run bounded (two active windows resident).
    let grid: &[CellSpec] = &[
        CellSpec::keep_all(10, 600),
        CellSpec::keep_all(100, 600),
        CellSpec::bounded(100, 600, 2),
        CellSpec::keep_all(1000, 600),
        CellSpec::bounded(1000, 600, 2),
        CellSpec::bounded(5000, 600, 2),
        CellSpec::bounded(50_000, 60, 2),
        CellSpec::bounded(100_000, 60, 2),
    ];
    println!("# Scale sweep ({} cells, one subprocess each)", grid.len());
    let mut lines = Vec::new();
    for &cell in grid {
        let line = sweep_cell(cell);
        println!("{line}");
        lines.push(line);
    }
    let joined = lines.join("\n");
    if let Some(wall) = cell_line(&joined, &["\"devices\": 1000,", "keep_all"])
        .and_then(|l| field_u128(l, "wall_ms"))
    {
        println!(
            "# 1k devices x 600 s: {} ms ({:.0}x vs the seed loop's {} ms)",
            wall,
            SEED_LOOP_1K_WALL_MS as f64 / wall as f64,
            SEED_LOOP_1K_WALL_MS,
        );
    }
    write_snapshot(&lines, "full");
    println!("# wrote BENCH_scale.json");
}
