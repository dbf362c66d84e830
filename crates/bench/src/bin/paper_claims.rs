//! Prints the paper's claims as a Markdown table, each next to what this
//! reproduction measures (README → "Reproduced results" embeds the output),
//! and exits non-zero when any claim does not hold.
//!
//! ```bash
//! cargo run --release -p rtem-bench --bin paper_claims
//! ```

use rtem_bench::{markdown, measure_paper, PAPER_VALUE};

fn main() {
    let claims = measure_paper();
    print!("{}", markdown(PAPER_VALUE, &claims));
    let failed: Vec<&str> = claims
        .iter()
        .filter(|claim| !claim.holds)
        .map(|claim| claim.claim)
        .collect();
    if !failed.is_empty() {
        eprintln!("paper claims that do not hold: {}", failed.join("; "));
        std::process::exit(1);
    }
}
