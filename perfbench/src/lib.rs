//! Benchmark harness for the rtem metering pipeline.
//!
//! The benchmark drives the `rtem` facade the way a user does:
//! `Experiment::start`, then `RunHandle::step(1 s)` until the horizon, then
//! `RunHandle::finish`, on one thread with `shards = 1`. The load is a
//! closed loop: one world, each step starting when the previous one
//! returned. Everything is timed from outside the program; the program is
//! not modified to be measured.
//!
//! Two binaries share this library:
//!
//! * `perfbench-measure` runs one untraced world (telemetry off) and
//!   prints its end-to-end timings, its peak RSS and its correctness gate.
//!   One process runs exactly one measured world, so its `VmHWM` is that
//!   world's peak memory.
//! * `perfbench-trace` runs one traced world with the dispatch profiler
//!   on, a counting allocator and in-memory spans, replays the report
//!   phase and the layer operations, and prints the per-layer metrics.
//!
//! `run.py` next to this package builds both and aggregates their output.

#![warn(missing_docs)]

pub mod replay;
pub mod spans;

use rtem::chain::sha256::Sha256;
use rtem::prelude::*;
use std::fmt::Write as _;
use std::time::Instant;

/// The seed whose report digests are pinned in [`Workload::pinned_digest`].
pub const DEFAULT_SEED: u64 = 1;

/// Simulated length of one `RunHandle::step`.
pub const STEP: SimDuration = SimDuration::from_secs(1);

/// The benchmark's workloads. Each loads a different set of layers; see
/// the comment on each variant for why it exists and how it is sized.
///
/// Facts that fix every size below:
///
/// * The paper's TDMA frame has 10 slots per network. Only 10 devices of a
///   network ever report; the rest fill their `LocalStore` and evict.
/// * The aggregator's own INA219 clips at 3.2 A. Ten `EspCharging` devices
///   on one network already exceed it, so every verification window reads
///   anomalous; eight stay under it.
/// * No host ever has more than 8 devices plugged in, for the same reason.
/// * On a 2-core machine 2 shards ran the 1000-device cell 25–30% slower
///   than 1 shard, so every workload runs the sequential loop.
///
/// Faults, the control plane, campaigns and sharding are left out of every
/// workload: a faulted spec simulates a clean twin inside `finish`, which
/// would double-count the pipeline, and shards measure barrier overhead on
/// small machines rather than the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One network with 1000 `EspCharging` devices, bounded retention
    /// (2 windows), `Internal` meters, flat tariff, 450 s.
    ///
    /// Why: per-device cost and footprint are what limit fleet size (the
    /// ~62 KB per device of the 100k-device cell). Loads the device tick
    /// (`MeasureTick`), the site's upstream sum over 1000 members
    /// (`UpstreamSample`), 1000 pending tick events in the scheduler, the
    /// `LocalStore` fill-then-evict of the 990 devices that never get a
    /// TDMA slot (the 4096-record cap is crossed at 409.6 s, so the horizon
    /// must pass it), and bounded-retention compaction.
    ///
    /// Bypasses the broker, aggregator intake, chain and report phase:
    /// only 10 devices report, so `collect_s` is a few milliseconds.
    FleetDense,
    /// 50 networks with 8 `EspCharging` devices each, keep-all retention,
    /// `Internal` meters, flat tariff, 200 s.
    ///
    /// Why: the paper's pipeline at full density. Every device holds a
    /// TDMA slot and each aggregator stays under its 3.2 A clip, so every
    /// report flows: broker QoS-1 publish/deliver and aggregator intake
    /// (`BrokerPoll`), 50 windows sealed in the same simulated second
    /// (`WindowEnd`), and a report phase whose chain audit dominates
    /// `collect_s`. Verdicts are clean: 0 anomalous windows.
    ///
    /// Bypasses codecs, backhaul and membership churn.
    MeteringWide,
    /// 20 networks with 5 `EspCharging` devices each; 3 devices per network
    /// make seeded round trips to neighbour `(n + 1 + j) mod 20`. All five
    /// `MeterKind`s round-robin, evening-peak time-of-use tariff, keep-all
    /// retention, 450 s.
    ///
    /// Why: the paper's mobility claim. Loads handshakes and temporary
    /// membership, backhaul forwards of roamed records, store-and-forward
    /// backlog drain after each transit, roaming billing and telegram
    /// encode/parse. It shares the aggregator and chain layers with
    /// `MeteringWide`, but with batched backlog reports and telegram
    /// parsing, so a gain for one use that costs the other shows.
    ///
    /// Bypasses nothing; it is the only workload that touches `rtem-codecs`
    /// and the backhaul. At most 5 home devices plus 3 visitors are plugged
    /// into any host, under the 8-device clip.
    RoamingMixed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::FleetDense,
        Workload::MeteringWide,
        Workload::RoamingMixed,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetDense => "fleet_dense",
            Workload::MeteringWide => "metering_wide",
            Workload::RoamingMixed => "roaming_mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated horizon. At one step per simulated second this is also the
    /// number of steps per world; every workload keeps at least 200 so the
    /// 95th step percentile has 10 samples beyond it in a single world.
    pub fn horizon_s(self) -> u64 {
        match self {
            Workload::FleetDense => 450,
            Workload::MeteringWide => 200,
            Workload::RoamingMixed => 450,
        }
    }

    fn shape(self) -> (u32, u32) {
        match self {
            Workload::FleetDense => (1, 1000),
            Workload::MeteringWide => (50, 8),
            Workload::RoamingMixed => (20, 5),
        }
    }

    /// Devices in the world.
    pub fn devices(self) -> u64 {
        let (networks, per_network) = self.shape();
        u64::from(networks) * u64::from(per_network)
    }

    /// Measure ticks the world simulates: devices × horizon ÷ Tmeasure.
    pub fn device_ticks(self, spec: &ScenarioSpec) -> f64 {
        self.devices() as f64 * spec.horizon.as_secs_f64() / spec.t_measure.as_secs_f64()
    }

    /// Builds the workload's scenario from `seed`. The same seed gives the
    /// same spec; the program receives nothing else.
    pub fn spec(self, seed: u64) -> ScenarioSpec {
        let (networks, per_network) = self.shape();
        let base = ScenarioSpec::paper_testbed(seed)
            .with_networks(networks)
            .with_devices_per_network(per_network)
            .with_load(DeviceLoad::EspCharging)
            .with_tariff(Tariff::flat(1.0))
            .with_horizon(SimDuration::from_secs(self.horizon_s()))
            .with_shards(1);
        match self {
            Workload::FleetDense => base.with_bounded_memory(2),
            Workload::MeteringWide => base,
            Workload::RoamingMixed => roaming_script(
                base.with_meter_kinds(MeterKind::ALL.to_vec())
                    .with_tariff(Tariff::evening_peak(1.0)),
                seed,
            ),
        }
    }

    /// The report digest pinned for [`DEFAULT_SEED`]: any change to what
    /// the program simulates changes it.
    pub fn pinned_digest(self) -> &'static str {
        match self {
            Workload::FleetDense => {
                "c2428b026a580c4db279bd957fd9df6e8a6a6691de049d4d317f406cb42eb178"
            }
            Workload::MeteringWide => {
                "902e1960b99988c7ced94baf2999a99f210bb747ccff7b607ed352167ccfd8e5"
            }
            Workload::RoamingMixed => {
                "dcc8aae9598155b3d8c7e4927e2569bb621b8be7d9298203dd211fbeda9c3576"
            }
        }
    }
}

/// Devices per network that roam in `RoamingMixed`.
const ROAMERS_PER_NETWORK: u32 = 3;

/// Appends the seeded round trips of `RoamingMixed`: each roamer stays home
/// 40–100 s, unplugs, spends 15–35 s in transit, registers temporarily at
/// its neighbour for 40–100 s, unplugs again and returns after another
/// 15–35 s transit. Trips that would end past the horizon are not started.
fn roaming_script(mut spec: ScenarioSpec, seed: u64) -> ScenarioSpec {
    let networks = spec.networks;
    let horizon = spec.horizon.as_secs_f64() as u64;
    let mut rng = SplitMix64::new(seed ^ 0x5eed_0fa1_10a3);
    for n in 0..networks {
        let home = ScenarioSpec::network_addr(n);
        for j in 0..ROAMERS_PER_NETWORK {
            let device = ScenarioSpec::device_id(n, j);
            let away = ScenarioSpec::network_addr((n + 1 + j) % networks);
            let mut t = rng.range(40, 100);
            loop {
                let arrive = t + rng.range(15, 35);
                let leave = arrive + rng.range(40, 100);
                let back = leave + rng.range(15, 35);
                if back > horizon {
                    break;
                }
                spec = spec
                    .unplug_at(SimTime::from_secs(t), device)
                    .plug_in_at(SimTime::from_secs(arrive), device, away)
                    .unplug_at(SimTime::from_secs(leave), device)
                    .plug_in_at(SimTime::from_secs(back), device, home);
                t = back + rng.range(40, 100);
            }
        }
    }
    spec
}

/// The benchmark's own input generator, independent of the program's RNG
/// so that a change to the program cannot change the inputs.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// Phases of one run that an [`Observer`] is told about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `Experiment::start`: validate, build the world, schedule.
    Setup,
    /// One `RunHandle::step(1 s)`; the payload is its 0-based index.
    Step(u64),
    /// `RunHandle::finish`: metrics, accuracy windows, audits, bills.
    Collect,
}

/// Hooks around each phase. The measured binary passes [`NoObserver`],
/// which compiles to nothing; the traced binary records spans.
pub trait Observer {
    /// Called just before the phase's facade call.
    fn enter(&mut self, _phase: Phase) {}
    /// Called just after the phase's facade call returned.
    fn exit(&mut self, _phase: Phase) {}
}

/// An observer that does nothing.
pub struct NoObserver;

impl Observer for NoObserver {}

/// Wall-clock timings of one driven world.
#[derive(Debug, Clone)]
pub struct Timings {
    /// `Experiment::start`, seconds.
    pub setup_s: f64,
    /// Each `RunHandle::step(1 s)`, seconds, in order.
    pub step_s: Vec<f64>,
    /// `RunHandle::finish`, seconds.
    pub collect_s: f64,
}

impl Timings {
    /// Σ step time, seconds.
    pub fn run_s(&self) -> f64 {
        self.step_s.iter().sum()
    }

    /// Wall time from spec to report in hand, seconds.
    pub fn wall_s(&self) -> f64 {
        self.setup_s + self.run_s() + self.collect_s
    }
}

/// Drives one world through the facade: start, 1 s steps to the horizon,
/// finish. Timing wraps exactly the facade calls.
pub fn drive<O: Observer>(
    spec: ScenarioSpec,
    observer: &mut O,
) -> Result<(RunReport, Timings), SpecError> {
    observer.enter(Phase::Setup);
    let started = Instant::now();
    let handle = Experiment::new(spec).start();
    let setup_s = started.elapsed().as_secs_f64();
    observer.exit(Phase::Setup);
    let mut handle = handle?;
    // Sized up front so that recording step times allocates nothing while
    // the world steps.
    let steps = (handle.horizon().as_secs_f64() / STEP.as_secs_f64()).ceil() as usize;
    let mut step_s = Vec::with_capacity(steps);
    let mut index = 0;
    while !handle.is_finished() {
        observer.enter(Phase::Step(index));
        let started = Instant::now();
        handle.step(STEP);
        step_s.push(started.elapsed().as_secs_f64());
        observer.exit(Phase::Step(index));
        index += 1;
    }
    observer.enter(Phase::Collect);
    let started = Instant::now();
    let report = handle.finish();
    let collect_s = started.elapsed().as_secs_f64();
    observer.exit(Phase::Collect);
    Ok((
        report,
        Timings {
            setup_s,
            step_s,
            collect_s,
        },
    ))
}

/// Canonical text rendering of a report, as the scale-determinism golden
/// test renders it: everything but telemetry. `Debug` floats print
/// shortest-roundtrip, so equal renderings mean bit-identical results.
pub fn render(report: &RunReport) -> String {
    format!(
        "metrics: {:#?}\naccuracy: {:#?}\nhandshakes: {:#?}\nledgers: {:#?}\nbills: {:#?}\nresilience: {:#?}\nfault_records: {:#?}\n",
        report.metrics,
        report.accuracy,
        report.handshakes,
        report.ledgers,
        report.bills,
        report.resilience,
        report.world().fault_records(),
    )
}

/// SHA-256 of [`render`], hex.
pub fn digest(report: &RunReport) -> String {
    Sha256::digest(render(report).as_bytes()).to_hex()
}

/// Consumption reports the devices sent, and how many of them were never
/// acknowledged (nor refused) by the horizon.
pub fn uplink(report: &RunReport) -> (u64, u64) {
    let mut sent = 0;
    let mut answered = 0;
    for (_, device) in report.world().devices() {
        let counters = device.counters();
        sent += counters.reports_sent;
        answered += counters.acks_received + counters.nacks_received;
    }
    (sent, sent.saturating_sub(answered))
}

/// The correctness gate of one finished world. Returns every failed check;
/// an empty list passes. The digest comparison across runs of one seed is
/// made by `run.py`, which sees every run.
pub fn gate(workload: Workload, seed: u64, report: &RunReport, digest: &str) -> Vec<String> {
    let mut failures = Vec::new();
    if seed == DEFAULT_SEED && digest != workload.pinned_digest() {
        failures.push(format!(
            "digest {digest} differs from the pinned {}",
            workload.pinned_digest()
        ));
    }
    if !report.all_ledgers_clean() {
        failures.push("a ledger audit is not clean".to_string());
    }
    for ledger in &report.ledgers {
        if !ledger.accounts_match_chain {
            failures.push(format!(
                "network {:?}: accounts differ from chain",
                ledger.network
            ));
        }
    }
    for bill in &report.bills {
        if bill.cost != bill.breakdown.total() {
            failures.push(format!(
                "device {:?}: cost {} != breakdown total {}",
                bill.device,
                bill.cost,
                bill.breakdown.total()
            ));
        }
    }
    match workload {
        Workload::FleetDense => {}
        Workload::MeteringWide => {
            let anomalous: u64 = report
                .metrics
                .networks
                .iter()
                .map(|n| n.anomalous_windows)
                .sum();
            if anomalous != 0 {
                failures.push(format!("{anomalous} anomalous windows, expected 0"));
            }
        }
        Workload::RoamingMixed => {
            let roamed: u64 = report.bills.iter().map(|b| b.roaming_charge_uas).sum();
            if roamed == 0 {
                failures.push("no roamed charge was billed".to_string());
            }
            let wire = report.world().wire_stats();
            if wire.telegrams_parsed == 0 || wire.parse_failures != 0 {
                failures.push(format!(
                    "{} telegrams parsed, {} failed to parse",
                    wire.telegrams_parsed, wire.parse_failures
                ));
            }
        }
    }
    failures
}

/// Peak resident set size of this process, MB, from the kernel's `VmHWM`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Parses `--workload <name> --seed <n>` plus any `--<key> <value>`
/// options the caller names in `extra`.
pub fn parse_args(extra: &[&str]) -> Result<(Workload, u64, Vec<Option<String>>), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut values = vec![None; extra.len()];
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            other => {
                let slot = extra
                    .iter()
                    .position(|key| other.strip_prefix("--") == Some(key))
                    .ok_or_else(|| format!("unknown argument {other}"))?;
                values[slot] = Some(value.clone());
            }
        }
        i += 2;
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed.unwrap_or(DEFAULT_SEED),
        values,
    ))
}

/// A flat JSON object writer, enough for the numbers, strings and lists
/// the binaries print (the workspace has no serializer).
#[derive(Default)]
pub struct JsonObject {
    body: String,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        let _ = write!(self.body, "\"{key}\": ");
    }

    /// Adds a number; non-finite values become `null`.
    pub fn num(&mut self, key: &str, value: f64) -> &mut JsonObject {
        self.key(key);
        push_num(&mut self.body, value);
        self
    }

    /// Adds a string.
    pub fn str(&mut self, key: &str, value: &str) -> &mut JsonObject {
        self.key(key);
        push_str(&mut self.body, value);
        self
    }

    /// Adds a list of numbers.
    pub fn nums(&mut self, key: &str, values: &[f64]) -> &mut JsonObject {
        self.key(key);
        self.body.push('[');
        for (i, &value) in values.iter().enumerate() {
            if i > 0 {
                self.body.push(',');
            }
            push_num(&mut self.body, value);
        }
        self.body.push(']');
        self
    }

    /// Adds a list of strings.
    pub fn strs(&mut self, key: &str, values: &[String]) -> &mut JsonObject {
        self.key(key);
        self.body.push('[');
        for (i, value) in values.iter().enumerate() {
            if i > 0 {
                self.body.push_str(", ");
            }
            push_str(&mut self.body, value);
        }
        self.body.push(']');
        self
    }

    /// Adds an already-rendered JSON value.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut JsonObject {
        self.key(key);
        self.body.push_str(json);
        self
    }

    /// The rendered object.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

fn push_num(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

/// Appends `value` as a JSON string literal.
pub fn push_str(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}
