//! The lane-group ensemble contract: a point's `repeats=` replicas publish
//! the same table however they are grouped into work items.
//!
//! Replica `k` of a bias point is always seeded `derive_seed(point_seed, k)`
//! and run as its own scalar Monte-Carlo walk; lane groups only decide
//! which replicas one work item runs. The ensemble mean and standard error
//! are summed in replica order, so the published tables must be
//! byte-identical across lane widths, worker counts and serial execution.

use proptest::prelude::*;
use single_electronics::exec::Workers;
use single_electronics::netlist::parse_full_deck;
use single_electronics::sim::{compile, execute_with_options, ExecOptions};

/// A `repeats=` ensemble staircase deck over the reference SET.
fn ensemble_deck(seed: u64, temperature: f64, repeats: usize) -> String {
    format!(
        "lane-width identity\n\
         VD drain 0 0\n\
         VG gate 0 0\n\
         J1 drain island C=0.5a R=100k\n\
         J2 island 0 C=0.5a R=100k\n\
         CG gate island 1a\n\
         .options temp={temperature:?} seed={seed} engine=kmc events=600 repeats={repeats}\n\
         .dc VD 0 0.06 0.02\n\
         .print dc i(J1)\n"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The published ensemble tables are byte-identical across lane
    /// widths, worker counts and serial execution: replica `k` of a point
    /// is always the same walk, however the replicas are grouped into
    /// work items.
    #[test]
    fn prop_ensemble_tables_are_identical_across_lane_widths(
        seed in 0_u64..1_000_000,
        temperature in 0.05_f64..4.2,
        repeats in 1_usize..9,
        widths in proptest::collection::vec(1_usize..12, 2),
    ) {
        let deck = parse_full_deck(&ensemble_deck(seed, temperature, repeats)).unwrap();
        let plan = compile(&deck).unwrap();
        let run = |lane_width: Option<usize>, workers: Workers| {
            execute_with_options(&deck, &plan, &ExecOptions {
                lane_width,
                workers,
                ..ExecOptions::default()
            })
            .expect("ensemble deck runs")
        };
        let baseline = run(None, Workers::Auto);
        for &width in &widths {
            prop_assert_eq!(&run(Some(width), Workers::Auto), &baseline, "width {}", width);
        }
        // Serial execution (under an arbitrary grouping) matches too.
        prop_assert_eq!(&run(Some(widths[0]), Workers::Serial), &baseline);
    }
}
