//! Seeded workload decks. Each generator turns a seed into deck text and
//! nothing else: the program under test only ever sees the text, and the
//! same seed always gives the same bytes.
//!
//! The seed sets the random background charges (stray capacitors from every
//! island to a biased `bg` electrode, so `q0 = Cstray * Vbg`) and the deck's
//! own `.options seed=`.

use std::fmt::Write;

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A 2-D island array, single-shot KMC DC sweep above threshold.
    ArrayKmc,
    /// A 256-island gated chain swept with a 16-replica seed ensemble.
    ChainEnsemble,
    /// A 4-island gated chain mapped over VD x VG on the master equation.
    MasterMap,
    /// The SET + NMOS literal gate mapped over VIN x VB on the hybrid engine.
    HybridMap,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ArrayKmc,
        Workload::ChainEnsemble,
        Workload::MasterMap,
        Workload::HybridMap,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ArrayKmc => "array_kmc",
            Workload::ChainEnsemble => "chain_ensemble",
            Workload::MasterMap => "master_map",
            Workload::HybridMap => "hybrid_map",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The full-size deck of this workload for `seed`.
    ///
    /// Sizes are set so one deck run takes one to four seconds on two
    /// workers. The master map's fast VD axis has exactly
    /// `MASTER_WARM_BLOCK` (8) points, so every warm-started block is one map
    /// row: a warm start carried from the end of one row to the start of the
    /// next can leave BiCGSTAB and then the Gauss-Seidel fallback without
    /// convergence, which fails the whole deck. Its 10 K temperature keeps
    /// the fallback count steady from seed to seed (about 40 of 576 solves);
    /// at 1 K it swings with the background charges and so does the run
    /// time. Its window of 4 (6561 states) over 576 points, rather than a
    /// wider window over fewer points, spreads the work over 72 items, so
    /// the two workers stay balanced.
    pub fn deck(self, seed: u64) -> String {
        match self {
            Workload::ArrayKmc => array_kmc(seed, 24, 16_000, (0.6, 0.95, 0.05)),
            Workload::ChainEnsemble => chain_ensemble(seed, 256, 16, 40_000, (0.1, 0.16, 0.02)),
            Workload::MasterMap => master_map(seed, 4, (0.02, 0.16, 0.02), (0.0, 0.355, 0.005)),
            Workload::HybridMap => hybrid_map(seed, (0.0, 0.384, 0.004), (0.40, 0.496, 0.001)),
        }
    }
}

/// SplitMix64: a small, fixed generator owned by the benchmark, so deck
/// bytes never change when the program's own RNGs do.
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64, stream: &str) -> Self {
        let tag = stream.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        SplitMix(seed ^ tag)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1_u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// The deck's `.options seed=` value.
    fn deck_seed(&mut self) -> u64 {
        self.next_u64() >> 16
    }
}

/// A `.dc` sweep spec `start stop step` as deck text.
fn sweep(name: &str, (start, stop, step): (f64, f64, f64)) -> String {
    format!("{name} {start} {stop} {step}")
}

/// An `n x n` island array between a `drain` rail (column 0 side) and
/// ground (column `n - 1` side), with vertical junctions between rows.
/// Printed observables are every row's drain-side junction followed by
/// every row's ground-side junction.
pub fn array_kmc(seed: u64, n: usize, events: usize, vd: (f64, f64, f64)) -> String {
    let mut rng = SplitMix::new(seed, "array_kmc");
    let mut deck = format!(
        "{n}x{n} island array with seeded background charges (single-shot KMC)\n\
         VD drain 0 0\nVB bg 0 0.5\n"
    );
    let mut junction = 0;
    let mut row_ends = Vec::with_capacity(n);
    for row in 0..n {
        let mut prev = "drain".to_string();
        let first = junction + 1;
        for col in 0..n {
            junction += 1;
            let node = format!("n{row}_{col}");
            writeln!(deck, "J{junction} {prev} {node} C=0.5a R=100k").unwrap();
            prev = node;
        }
        junction += 1;
        writeln!(deck, "J{junction} {prev} 0 C=0.5a R=100k").unwrap();
        row_ends.push((first, junction));
    }
    for row in 0..n.saturating_sub(1) {
        for col in 0..n {
            junction += 1;
            writeln!(
                deck,
                "J{junction} n{row}_{col} n{}_{col} C=0.5a R=100k",
                row + 1
            )
            .unwrap();
        }
    }
    for row in 0..n {
        for col in 0..n {
            let c = rng.uniform(0.02, 0.2);
            writeln!(deck, "CB{} bg n{row}_{col} {c:.4}a", row * n + col + 1).unwrap();
        }
    }
    writeln!(
        deck,
        ".options temp=4.2 seed={} engine=kmc events={events}",
        rng.deck_seed()
    )
    .unwrap();
    writeln!(deck, ".dc {}", sweep("VD", vd)).unwrap();
    let drains = row_ends.iter().map(|(first, _)| format!(" i(J{first})"));
    let grounds = row_ends.iter().map(|(_, last)| format!(" i(J{last})"));
    writeln!(
        deck,
        ".print dc{}",
        drains.chain(grounds).collect::<String>()
    )
    .unwrap();
    deck.push_str(".end\n");
    deck
}

/// An `n`-island chain, every island gated at the degeneracy point, swept
/// over the drain bias with a `repeats`-replica seed ensemble.
pub fn chain_ensemble(
    seed: u64,
    n: usize,
    repeats: usize,
    events: usize,
    vd: (f64, f64, f64),
) -> String {
    let mut rng = SplitMix::new(seed, "chain_ensemble");
    let mut deck = format!(
        "{n}-island gated chain with seeded background charges (KMC ensemble)\n\
         VD drain 0 0\nVG gate 0 0.0801088\nVB bg 0 0.05\n"
    );
    chain_body(&mut deck, &mut rng, n, (0.002, 0.02));
    writeln!(
        deck,
        ".options temp=0.1 seed={} engine=kmc events={events} repeats={repeats}",
        rng.deck_seed()
    )
    .unwrap();
    writeln!(deck, ".dc {}", sweep("VD", vd)).unwrap();
    writeln!(deck, ".print dc i(J1) i(J{})", n + 1).unwrap();
    deck.push_str(".end\n");
    deck
}

/// A 4-island gated chain mapped over VD (fast axis) x VG on the master
/// equation with a `window`-wide charge window per island.
pub fn master_map(seed: u64, window: usize, vd: (f64, f64, f64), vg: (f64, f64, f64)) -> String {
    let mut rng = SplitMix::new(seed, "master_map");
    let mut deck = String::from(
        "4-island gated chain with seeded background charges (master-equation map)\n\
         VD drain 0 0\nVG gate 0 0\nVB bg 0 0.05\n",
    );
    chain_body(&mut deck, &mut rng, 4, (0.002, 0.02));
    writeln!(
        deck,
        ".options temp=10 seed={} engine=master window={window}",
        rng.deck_seed()
    )
    .unwrap();
    writeln!(deck, ".dc {} {}", sweep("VD", vd), sweep("VG", vg)).unwrap();
    deck.push_str(".print dc i(J1) i(J2)\n.end\n");
    deck
}

/// Junctions, gate capacitors and background-charge capacitors of a chain
/// from `drain` through islands `n0..` to ground.
fn chain_body(deck: &mut String, rng: &mut SplitMix, n: usize, stray: (f64, f64)) {
    let mut prev = "drain".to_string();
    for i in 0..n {
        writeln!(deck, "J{} {prev} n{i} C=0.5a R=100k", i + 1).unwrap();
        prev = format!("n{i}");
    }
    writeln!(deck, "J{} {prev} 0 C=0.5a R=100k", n + 1).unwrap();
    for i in 0..n {
        writeln!(deck, "CG{} gate n{i} 1a", i + 1).unwrap();
        let c = rng.uniform(stray.0, stray.1);
        writeln!(deck, "CB{} bg n{i} {c:.4}a", i + 1).unwrap();
    }
}

/// The SET + NMOS multiple-valued literal gate, its island carrying a seeded
/// background charge, mapped over VIN (fast axis) x VB on the hybrid engine.
pub fn hybrid_map(seed: u64, vin: (f64, f64, f64), vb: (f64, f64, f64)) -> String {
    let mut rng = SplitMix::new(seed, "hybrid_map");
    let c = rng.uniform(0.02, 0.2);
    format!(
        "SET + NMOS literal gate with a seeded background charge (hybrid map)\n\
         VDD vdd 0 20m\nVB bias 0 0.46\nVIN in 0 0\nVQ bg 0 0.5\n\
         M1 vdd bias out NMOS VTH=0.4 KP=200u LAMBDA=0.05\n\
         J1 out island C=0.5a R=100k\nJ2 island 0 C=0.5a R=100k\n\
         CG in island 1a\nCB1 bg island {c:.4}a\n\
         .options temp=1 seed={}\n.dc {} {}\n.print dc i(J1) i(J2)\n.end\n",
        rng.deck_seed(),
        sweep("VIN", vin),
        sweep("VB", vb)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_deck_bytes() {
        for workload in Workload::ALL {
            assert_eq!(workload.deck(7), workload.deck(7), "{}", workload.name());
            assert_ne!(workload.deck(7), workload.deck(8), "{}", workload.name());
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn every_full_size_deck_parses_and_compiles_to_one_run() {
        for workload in Workload::ALL {
            let deck = se_netlist::parse_full_deck(&workload.deck(1)).unwrap();
            assert!(deck.diagnostics.is_empty(), "{:?}", deck.diagnostics);
            let plan = se_sim::compile(&deck).unwrap();
            assert_eq!(plan.runs.len(), 1, "{}", workload.name());
        }
    }
}
