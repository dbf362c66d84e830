//! One traced world: the same facade calls as `perfbench-measure`, wrapped
//! in spans, with the program's dispatch profiler on (every dispatch
//! timed, trace log off) and a counting allocator. Afterwards the report
//! phase's public functions run again on the finished world, and each
//! layer operation is replayed alone at the workload's shape.
//!
//! ```bash
//! perfbench-trace --workload roaming_mixed --seed 3 --out perfbench/results
//! ```
//!
//! Prints one JSON line with the per-layer metrics (all but
//! `telemetry.overhead_ratio`, which needs the untraced runs `run.py`
//! makes), the traced wall time, the digest and the gate's failures.
//! Writes the spans as Chrome trace-event JSON to
//! `<out>/<workload>-seed<seed>.trace.json`.

use rtem::chain::audit_chain;
use rtem::metrics::{accuracy_windows, WorldMetrics};
use rtem::prelude::*;
use rtem::telemetry::DispatchProfile;
use rtem_perfbench::replay::{self, Shape};
use rtem_perfbench::spans::SpanLog;
use rtem_perfbench::{
    digest, drive, gate, parse_args, uplink, JsonObject, Observer, Phase, Timings, Workload,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Counts every allocation the traced run makes, and the live-byte peak.
/// It lives only in this binary, so measured runs use the system allocator
/// untouched. The counters are statistics that publish no other data, so
/// relaxed ordering suffices; the run is single-threaded anyway.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK_LIVE_BYTES.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements the `GlobalAlloc` contract; the wrapper only updates counters
// and never touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            ALLOCATIONS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            ALLOCATIONS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator returned for
        // `layout`, which `System` allocated.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller passes a block `System` allocated for `layout`
        // and a valid `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            ALLOCATIONS.fetch_add(1, Relaxed);
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE_BYTES.fetch_sub((layout.size() - new_size) as u64, Relaxed);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Relaxed)
}

/// Records a span per facade call and the allocations of each phase.
struct Tracer {
    log: SpanLog,
    run_span: Option<usize>,
    phase_span: usize,
    mark: u64,
    alloc_setup: u64,
    alloc_steps: u64,
    alloc_collect: u64,
    collect_span: usize,
}

impl Observer for Tracer {
    fn enter(&mut self, phase: Phase) {
        match phase {
            Phase::Setup => {
                self.phase_span = self.log.open("rtem.setup", 0);
            }
            Phase::Step(index) => {
                if index == 0 {
                    self.run_span = Some(self.log.open("rtem.run", 0));
                }
                self.phase_span = self.log.open("rtem.step", 0);
            }
            Phase::Collect => {
                if let Some(run) = self.run_span {
                    self.log.close(run);
                    self.alloc_steps = allocations() - self.mark;
                }
                self.collect_span = self.log.open("rtem.collect", 0);
                self.phase_span = self.collect_span;
            }
        }
        if !matches!(phase, Phase::Step(i) if i > 0) {
            self.mark = allocations();
        }
    }

    fn exit(&mut self, phase: Phase) {
        match phase {
            Phase::Setup => self.alloc_setup = allocations() - self.mark,
            Phase::Step(_) => {}
            Phase::Collect => self.alloc_collect = allocations() - self.mark,
        }
        self.log.close(self.phase_span);
    }
}

fn main() -> ExitCode {
    let (workload, seed, extra) = match parse_args(&["out"]) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!("perfbench-trace: {error}");
            return ExitCode::FAILURE;
        }
    };
    let Some(out_dir) = extra[0].clone() else {
        eprintln!("perfbench-trace: --out is required");
        return ExitCode::FAILURE;
    };
    let profile = TelemetryConfig::default()
        .with_trace(false)
        .with_profile(true)
        .with_profile_sample_stride(1);
    let spec = workload.spec(seed).with_telemetry(profile);
    let device_ticks = workload.device_ticks(&spec);
    let window = spec.verification_window;
    let horizon = SimTime::ZERO + spec.horizon;
    let tariff = spec.tariff.clone();

    let mut tracer = Tracer {
        log: SpanLog::new(1, workload.horizon_s() as usize + 256),
        run_span: None,
        phase_span: 0,
        mark: 0,
        alloc_setup: 0,
        alloc_steps: 0,
        alloc_collect: 0,
        collect_span: 0,
    };
    let world_span = tracer
        .log
        .open(format!("world {} seed {seed}", workload.name()), 0);
    PEAK_LIVE_BYTES.store(LIVE_BYTES.load(Relaxed), Relaxed);
    let (report, timings) = match drive(spec, &mut tracer) {
        Ok(done) => done,
        Err(error) => {
            eprintln!("perfbench-trace: invalid spec: {error}");
            return ExitCode::FAILURE;
        }
    };
    let peak_live_mb = PEAK_LIVE_BYTES.load(Relaxed) as f64 / (1024.0 * 1024.0);
    tracer.log.close(world_span);
    let Tracer {
        mut log,
        run_span,
        alloc_setup,
        alloc_steps,
        alloc_collect,
        collect_span,
        ..
    } = tracer;

    let mut m = Metrics::default();
    let profile = report
        .telemetry
        .as_ref()
        .and_then(|t| t.profile.clone())
        .unwrap_or_default();
    if let Some(run) = run_span {
        for entry in &profile.entries {
            log.arg(
                run,
                &format!("{}.count", entry.label),
                entry.histogram.count() as f64,
            );
            log.arg(
                run,
                &format!("{}.busy_s", entry.label),
                entry.histogram.sum_ns() as f64 / 1e9,
            );
        }
    }
    facade_and_loop(&mut m, &timings, &profile, &report);

    // Report phase again on the finished world, attributed to `finish`.
    let world = report.world();
    let replay = log.open_under("report.replay", 1, collect_span);
    m.put(
        "chain.audit_s",
        timed(&mut log, "chain.audit", || {
            for addr in world.network_addresses() {
                if let Some(aggregator) = world.aggregator(addr) {
                    let audit = audit_chain(
                        aggregator.ledger().chain(),
                        Some(aggregator.ledger_anchor()),
                    );
                    std::hint::black_box(audit);
                }
            }
        }),
    );
    m.put(
        "chain.accounts_check_s",
        timed(&mut log, "chain.accounts_check", || {
            for addr in world.network_addresses() {
                if let Some(aggregator) = world.aggregator(addr) {
                    std::hint::black_box(aggregator.ledger().accounts_match_chain());
                }
            }
        }),
    );
    m.put(
        "core.accuracy_s",
        timed(&mut log, "core.accuracy", || {
            for addr in world.network_addresses() {
                std::hint::black_box(accuracy_windows(world, addr, window, horizon));
            }
        }),
    );
    m.put(
        "core.metrics_collect_s",
        timed(&mut log, "core.metrics_collect", || {
            std::hint::black_box(WorldMetrics::collect(world));
        }),
    );
    log.close(replay);

    let digest = digest(&report);
    let failures = gate(workload, seed, &report, &digest);
    let (reports_sent, _) = uplink(&report);
    let shape = shape_of(workload, &report, reports_sent, tariff);
    layer_state(&mut m, &report);
    m.put("alloc.setup", alloc_setup as f64);
    m.put("alloc.per_tick", alloc_steps as f64 / device_ticks);
    m.put("alloc.collect", alloc_collect as f64);
    m.put("alloc.peak_live_mb", peak_live_mb);

    let layers = log.open("layers.replay", 2);
    let costs = replay_layers(&mut log, &shape);
    log.close(layers);
    let explained = explained_ns(&costs, &m, &shape) / 1e9 / timings.run_s();
    for (name, ns) in costs {
        m.put(&name, ns);
    }
    m.put("layers.replay_explained_share", explained);

    let path =
        std::path::Path::new(&out_dir).join(format!("{}-seed{seed}.trace.json", workload.name()));
    if let Err(error) =
        std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, log.to_chrome_json()))
    {
        eprintln!("perfbench-trace: writing {}: {error}", path.display());
        return ExitCode::FAILURE;
    }

    let mut metrics = JsonObject::new();
    for (name, value) in &m.0 {
        metrics.num(name, *value);
    }
    println!(
        "{}",
        JsonObject::new()
            .str("workload", workload.name())
            .num("seed", seed as f64)
            .num("wall_s", timings.wall_s())
            .str("digest", &digest)
            .strs("gate_failures", &failures)
            .str("trace_file", &path.display().to_string())
            .raw("metrics", &metrics.finish())
            .finish()
    );
    ExitCode::SUCCESS
}

/// Per-layer metrics, in insertion order.
#[derive(Default)]
struct Metrics(Vec<(String, f64)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

fn timed(log: &mut SpanLog, name: &'static str, f: impl FnOnce()) -> f64 {
    let id = log.open(name, 1);
    f();
    log.close(id);
    log.spans()[id].seconds()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The facade spans, the event loop, and each event kind's profile.
fn facade_and_loop(
    m: &mut Metrics,
    timings: &Timings,
    profile: &DispatchProfile,
    report: &RunReport,
) {
    let run_s = timings.run_s();
    m.put("rtem.setup_s", timings.setup_s);
    m.put("rtem.run_s", run_s);
    m.put("rtem.collect_s", timings.collect_s);
    let snapshot = report.telemetry.as_ref().map(|t| t.final_snapshot.clone());
    let fleet = |id: MetricId| snapshot.as_ref().map_or(0, |s| s.fleet.get(id)) as f64;
    m.put(
        "sim.events_dispatched",
        fleet(MetricId::SchedulerEventsDispatched),
    );
    m.put(
        "sim.queue_high_water",
        fleet(MetricId::SchedulerQueueHighWater),
    );
    m.put(
        "sim.loop_residual_s",
        run_s - profile.total_ns() as f64 / 1e9,
    );
    let kind = |label: &str| {
        profile.kind(label).map_or((0.0, 0.0), |k| {
            (
                k.histogram.count() as f64,
                k.histogram.sum_ns() as f64 / 1e9,
            )
        })
    };
    for (label, prefix, op) in [
        ("MeasureTick", "device", "measure_tick"),
        ("UpstreamSample", "aggregator", "upstream_sample"),
        ("BrokerPoll", "net", "broker_poll"),
        ("WindowEnd", "aggregator", "window_end"),
    ] {
        let (count, busy) = kind(label);
        m.put(&format!("{prefix}.{op}s"), count);
        m.put(&format!("{prefix}.{op}_s"), busy);
        m.put(&format!("{prefix}.{op}_ns"), ratio(busy * 1e9, count));
    }
    let (polls, busy) = kind("BackhaulPoll");
    m.put("net.backhaul_polls", polls);
    m.put("net.backhaul_poll_s", busy);
    let (plugs, plug_s) = kind("PlugIn");
    let (unplugs, unplug_s) = kind("Unplug");
    m.put("core.plug_events", plugs + unplugs);
    m.put("core.topology_s", plug_s + unplug_s);
    m.put("core.handshakes", report.metrics.handshakes.len() as f64);
    m.put("net.broker_publishes", fleet(MetricId::BrokerPublishes));
    m.put("net.broker_delivered", fleet(MetricId::BrokerDelivered));
    m.put(
        "net.link_loss_ratio",
        ratio(
            fleet(MetricId::LinkPacketsLost),
            fleet(MetricId::LinkPacketsOffered),
        ),
    );
    let accepted = fleet(MetricId::AggRecordsAccepted);
    let duplicates = fleet(MetricId::AggRecordsDuplicateFiltered);
    m.put("aggregator.records_accepted", accepted);
    m.put(
        "aggregator.duplicate_ratio",
        ratio(duplicates, accepted + duplicates),
    );
    m.put(
        "aggregator.anomalous_windows",
        fleet(MetricId::AggAnomalousWindows),
    );
    m.put(
        "telemetry.snapshots",
        report.telemetry.as_ref().map_or(0, |t| t.snapshots.len()) as f64,
    );
}

/// What the finished world holds: device series and buffers, resident
/// aggregator and chain state, wire accounting.
fn layer_state(m: &mut Metrics, report: &RunReport) {
    let world = report.world();
    let mut series = 0usize;
    let mut buffered = 0usize;
    for (_, device) in world.devices() {
        series += device.measured_series().len();
        buffered += device.buffered_records();
    }
    m.put("device.series_entries", series as f64);
    m.put("device.buffered_records", buffered as f64);
    let mut blocks = 0usize;
    let mut samples = 0usize;
    let mut records = 0usize;
    for addr in world.network_addresses() {
        if let Some(aggregator) = world.aggregator(addr) {
            let (b, s) = aggregator.resident_footprint();
            blocks += b;
            samples += s;
            records += aggregator.ledger().chain().total_records();
        }
    }
    m.put("aggregator.resident_samples", samples as f64);
    m.put("chain.resident_blocks", blocks as f64);
    m.put("chain.records", records as f64);
    let wire = world.wire_stats();
    m.put("codecs.telegrams_sent", wire.telegrams_sent as f64);
    m.put("codecs.telegrams_parsed", wire.telegrams_parsed as f64);
    m.put("codecs.parse_failures", wire.parse_failures as f64);
    let on_wire = if wire.telegrams_sent > 0 {
        wire.telegram_bytes
    } else {
        wire.native_bytes
    };
    m.put(
        "codecs.wire_bytes_per_record",
        ratio(on_wire as f64, wire.records_sent as f64),
    );
}

fn shape_of(workload: Workload, report: &RunReport, reports_sent: u64, tariff: Tariff) -> Shape {
    let networks = report.metrics.networks.len().max(1);
    let per_network = (workload.devices() as usize / networks).max(1);
    let records_sent = report.world().wire_stats().records_sent;
    let records_per_report = ratio(records_sent as f64, reports_sent as f64)
        .round()
        .max(1.0);
    let (blocks, entries) = report.ledgers.iter().fold((0, 0), |(b, e), l| {
        (b + l.blocks.saturating_sub(1), e + l.entries)
    });
    let records_per_window = ratio(entries as f64, blocks as f64).round().max(1.0);
    Shape {
        networks,
        per_network,
        records_per_report: records_per_report as usize,
        records_per_window: records_per_window as usize,
        tariff,
    }
}

fn replay_layers(log: &mut SpanLog, shape: &Shape) -> Vec<(String, f64)> {
    let mut costs = Vec::new();
    let mut one =
        |log: &mut SpanLog, name: &'static str, f: &mut dyn FnMut() -> Vec<(String, f64)>| {
            let id = log.open(name, 2);
            let out = f();
            log.close(id);
            costs.extend(out);
        };
    one(log, "sensors", &mut || {
        vec![("sensors.ina219_measure_ns".into(), replay::ina219_measure())]
    });
    one(log, "codecs", &mut || replay::codecs(shape));
    one(log, "net.broker", &mut || replay::broker(shape));
    one(log, "net.backhaul", &mut || {
        vec![("net.backhaul_send_ns".into(), replay::backhaul(shape))]
    });
    one(log, "chain", &mut || {
        vec![
            ("chain.stage_commit_ns".into(), replay::stage_commit(shape)),
            ("chain.merkle_root_ns".into(), replay::merkle(shape)),
            ("chain.audit_record_ns".into(), replay::audit(shape)),
        ]
    });
    one(log, "aggregator", &mut || {
        let mut out = replay::billing(shape);
        out.push(("aggregator.window_check_ns".into(), replay::window_check()));
        out
    });
    one(log, "core.consensus", &mut || {
        vec![(
            "core.consensus_round_ns".into(),
            replay::consensus_round(shape),
        )]
    });
    one(log, "telemetry", &mut || {
        vec![("telemetry.snapshot_ns".into(), replay::snapshot(shape))]
    });
    costs
}

/// Σ ns/op × the traced run's count of that operation, over the operations
/// the event loop performs while stepping. `merkle_root` runs inside
/// `commit_block` and the audit runs in `finish`, so neither is added.
/// Backhaul sends are counted as backhaul polls, one delivery each.
fn explained_ns(costs: &[(String, f64)], m: &Metrics, shape: &Shape) -> f64 {
    let cost = |name: &str| {
        costs
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let mean = |prefix: &str| {
        let matching: Vec<f64> = costs
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, v)| *v)
            .collect();
        ratio(matching.iter().sum(), matching.len() as f64)
    };
    let bill = cost(&format!(
        "aggregator.bill_{}_ns",
        replay::tariff_label(&shape.tariff)
    ));
    cost("sensors.ina219_measure_ns")
        * (m.get("device.measure_ticks") + m.get("aggregator.upstream_samples"))
        + mean("codecs.encode_") * m.get("codecs.telegrams_sent")
        + mean("codecs.parse_") * m.get("codecs.telegrams_parsed")
        + cost("net.broker_qos1_ns") * m.get("net.broker_publishes")
        + cost("net.backhaul_send_ns") * m.get("net.backhaul_polls")
        + cost("chain.stage_commit_ns") * m.get("chain.records")
        + bill * m.get("aggregator.records_accepted")
        + cost("aggregator.window_check_ns") * m.get("aggregator.window_ends")
        + cost("telemetry.snapshot_ns") * m.get("telemetry.snapshots")
}
