//! Prints the system's own claims (fault detection, randomized campaigns,
//! fleet commands, telegram framing, tariffs) as a Markdown table, each next
//! to what its grid measures (README → "Reproduced results" embeds the
//! output), and exits non-zero when any claim does not hold.
//!
//! ```bash
//! cargo run --release -p rtem-bench --bin system_claims
//! ```

use rtem_bench::{markdown, measure_system, BOUND};

fn main() {
    let claims = measure_system();
    print!("{}", markdown(BOUND, &claims));
    let failed: Vec<&str> = claims
        .iter()
        .filter(|claim| !claim.holds)
        .map(|claim| claim.claim)
        .collect();
    if !failed.is_empty() {
        eprintln!("system claims that do not hold: {}", failed.join("; "));
        std::process::exit(1);
    }
}
