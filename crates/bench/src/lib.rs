//! # rtem-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§III) and
//! the repository's `BENCH_*.json` files. The harness binaries
//! (`src/bin/*.rs`) print the rows / series the paper reports:
//! `fig5_decentralized_metering`, `fig6_mobility_trace`, `thandshake_stats`,
//! `backhaul_delay`, `ablation_error_sources`, `tamper_audit`,
//! `anomaly_detection`, `scalability_sweep`. The sweeps `scale_sweep`,
//! `workload_sweep`, `codec_sweep`, `control_sweep`, `resilience_sweep`,
//! `campaign_sweep` and `obs_overhead` write the committed `BENCH_*.json`
//! files. Per-layer wall-clock costs are measured by the standalone
//! `perfbench/` package at the repository root.
//!
//! This library crate only hosts small shared helpers for those binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rtem::metrics::AccuracyWindow;

/// Formats one Fig. 5 window as a fixed-width table row.
pub fn format_fig5_row(window: &AccuracyWindow) -> String {
    let devices: Vec<String> = window
        .per_device_mas
        .iter()
        .map(|(id, v)| format!("dev-{id}: {v:>9.1}"))
        .collect();
    format!(
        "window {:>2} | {} | devices {:>9.1} mA·s | aggregator {:>9.1} mA·s | gap {:>5.2}%",
        window.index,
        devices.join("  "),
        window.devices_total_mas,
        window.aggregator_mas,
        window.overhead_percent()
    )
}

/// Renders a simple ASCII sparkline for a series of values.
pub fn sparkline(values: &[f64], width: usize) -> String {
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max).max(1e-9);
    let chars = ['.', ':', '-', '=', '+', '*', '#', '@'];
    let step = (values.len() as f64 / width as f64).max(1.0);
    let mut out = String::with_capacity(width);
    let mut i = 0.0;
    while (i as usize) < values.len() && out.len() < width {
        let v = values[i as usize];
        let idx = ((v / max) * (chars.len() - 1) as f64).round() as usize;
        out.push(chars[idx.min(chars.len() - 1)]);
        i += step;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtem::sim::time::SimTime;
    use std::collections::BTreeMap;

    #[test]
    fn fig5_row_contains_the_numbers() {
        let row = format_fig5_row(&AccuracyWindow {
            index: 3,
            start: SimTime::ZERO,
            per_device_mas: BTreeMap::from([(1, 100.0), (2, 200.0)]),
            devices_total_mas: 300.0,
            aggregator_mas: 309.0,
        });
        assert!(row.contains("window  3"));
        assert!(row.contains("3.00%"));
    }

    #[test]
    fn sparkline_scales_to_width() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let line = sparkline(&values, 20);
        assert!(line.len() <= 20);
        assert!(!line.is_empty());
        assert!(sparkline(&[], 10).is_empty());
    }
}
