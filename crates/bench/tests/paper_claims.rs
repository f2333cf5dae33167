//! Every experiment of the paper's evaluation, at its smoke shape: each
//! asserted claim must hold.

use spca_bench::paper::{Inputs, EXPERIMENTS};

#[test]
fn every_asserted_claim_holds_at_smoke_shape() {
    let mut inputs = Inputs::default();
    let (mut failures, mut asserting) = (Vec::new(), Vec::new());
    for e in EXPERIMENTS {
        let report = e.run_at(e.smoke, &mut inputs);
        assert!(!report.claims.is_empty(), "{} makes no claim", e.id);
        for c in report.failures() {
            failures.push(format!("{}: {}\n{}", e.id, c.text, report.text));
        }
        if report.claims.iter().any(|c| c.asserted) {
            asserting.push(e.id);
        }
    }
    assert!(failures.is_empty(), "asserted claims fail:\n{}", failures.join("\n"));
    // The experiments whose columns are deterministic: bytes, driver bytes
    // and driver OOMs. A claim turned into a reported one shows here.
    let want = [
        "fig7_time_vs_cols",
        "fig8_driver_memory",
        "intermediate_data",
        "table1_complexity",
        "table2_runtime",
        "table3_optimizations",
    ];
    assert_eq!(asserting, want);
}
