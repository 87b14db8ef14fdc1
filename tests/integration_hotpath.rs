//! Validation of the incremental physics core against full recomputation,
//! plus a golden regression pinning the three stationary engines to the
//! Coulomb-staircase characteristic.
//!
//! The incremental hot path (`LiveState` + `RateContext`) replaces a dense
//! potential solve per event with axpy corrections; these tests are the
//! contract that the shortcut is exact: over random circuits, random event
//! walks and random drive changes, cached potentials and per-event ΔF must
//! match the from-scratch computation to 1e-12 relative.

use proptest::prelude::*;
use single_electronics::montecarlo::{
    MasterEquation, MonteCarloSimulator, SimulationOptions, StationarySolver,
};
use single_electronics::numeric::sampling::ln_unit;
use single_electronics::orthodox::live::{LiveState, RateContext};
use single_electronics::orthodox::set::SingleElectronTransistor;
use single_electronics::orthodox::{
    tunnel_rate, ChargeState, EventRateTable, TunnelSystem, TunnelSystemBuilder,
};

/// A randomly parameterised island chain: every island couples to the
/// previous endpoint (lead for the first) through a tunnel junction, plus
/// an optional gate capacitor, which keeps the capacitance matrix
/// non-singular for every parameter draw.
#[derive(Debug, Clone)]
struct RandomCircuit {
    junction_caps: Vec<f64>,
    junction_resistances: Vec<f64>,
    gate_caps: Vec<Option<f64>>,
    backgrounds: Vec<f64>,
    vds: f64,
    vg: f64,
}

impl RandomCircuit {
    fn build(&self) -> TunnelSystem {
        let islands = self.gate_caps.len();
        let mut b = TunnelSystemBuilder::new();
        let drain = b.external("drain", self.vds);
        let source = b.external("source", 0.0);
        let gate = b.external("gate", self.vg);
        let mut previous = drain;
        for i in 0..islands {
            let island = b.island(format!("i{i}"), self.backgrounds[i]);
            b.junction(
                format!("J{i}"),
                previous,
                island,
                self.junction_caps[i],
                self.junction_resistances[i],
            );
            if let Some(cg) = self.gate_caps[i] {
                b.capacitor(format!("Cg{i}"), gate, island, cg);
            }
            previous = island;
        }
        b.junction(
            format!("J{islands}"),
            previous,
            source,
            *self.junction_caps.last().unwrap(),
            *self.junction_resistances.last().unwrap(),
        );
        b.build().expect("chain circuits are always non-singular")
    }
}

/// Strategy producing random 1–4-island chain circuits.
#[derive(Debug)]
struct ArbCircuit;

impl Strategy for ArbCircuit {
    type Value = RandomCircuit;

    fn sample(&self, rng: &mut proptest::TestRng) -> RandomCircuit {
        let islands = 1 + rng.below(4) as usize;
        let mut range = |lo: f64, hi: f64| lo + rng.unit_f64() * (hi - lo);
        let junction_caps = (0..islands).map(|_| range(0.1e-18, 2.0e-18)).collect();
        let junction_resistances = (0..islands).map(|_| range(50e3, 500e3)).collect();
        let gate_caps = (0..islands)
            .map(|_| {
                let cg = range(0.0, 1.5e-18);
                // A third of the islands go ungated — the chain junctions
                // keep the capacitance matrix non-singular regardless.
                (cg > 0.5e-18).then_some(cg)
            })
            .collect();
        let backgrounds = (0..islands).map(|_| range(-1.0, 1.0)).collect();
        RandomCircuit {
            junction_caps,
            junction_resistances,
            gate_caps,
            backgrounds,
            vds: range(-0.05, 0.05),
            vg: range(-0.2, 0.2),
        }
    }
}

fn assert_live_matches_full(system: &TunnelSystem, live: &LiveState, temperature: f64) {
    let exact = system.island_potentials(live.state());
    for (cached, full) in live.potentials().iter().zip(&exact) {
        assert!(
            (cached - full).abs() <= 1e-12 * full.abs().max(1e-9),
            "potential drifted: cached {cached} vs full {full}"
        );
    }
    let ctx = RateContext::new(system, temperature).unwrap();
    let mut rates = Vec::new();
    ctx.fill_rates(system, live, &mut rates);
    for (idx, event) in system.events().into_iter().enumerate() {
        let df_incremental = live.delta_free_energy(system, event);
        let df_full = system.delta_free_energy(live.state(), event);
        assert!(
            (df_incremental - df_full).abs() <= 1e-12 * df_full.abs().max(1e-25),
            "ΔF drifted for event {idx}: incremental {df_incremental} vs full {df_full}"
        );
        let rate_full = tunnel_rate(df_full, system.event_resistance(event), temperature).unwrap();
        let scale = rate_full.abs().max(1e-6);
        assert!(
            (rates[idx] - rate_full).abs() <= 1e-9 * scale,
            "rate drifted for event {idx}: table {} vs full {rate_full}",
            rates[idx]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over random circuits, random starting states and random event walks,
    /// the incremental potentials and ΔF match the full recomputation to
    /// 1e-12.
    #[test]
    fn prop_incremental_matches_full_recompute_over_event_walks(
        circuit in ArbCircuit,
        start in proptest::collection::vec(-2_i64..=2, 4..=4),
        walk in proptest::collection::vec(0_usize..10_000, 1..200),
    ) {
        let islands = circuit.gate_caps.len();
        let system = circuit.build();
        let state = ChargeState(start[..islands].to_vec());
        let mut live = LiveState::new(&system, state);
        for &step in &walk {
            let event = system.event(step % system.event_count());
            live.apply(&system, event);
        }
        assert_live_matches_full(&system, &live, 1.0);
    }

    /// Drive-voltage and background-charge changes folded in by
    /// `LiveState::sync` match a from-scratch rebuild to 1e-12.
    #[test]
    fn prop_incremental_matches_full_recompute_over_drive_changes(
        circuit in ArbCircuit,
        voltages in proptest::collection::vec(-0.1_f64..0.1, 8..=8),
        backgrounds in proptest::collection::vec(-0.5_f64..0.5, 4..=4),
        walk in proptest::collection::vec(0_usize..10_000, 0..50),
    ) {
        let islands = circuit.gate_caps.len();
        let mut system = circuit.build();
        let mut live = LiveState::new(&system, ChargeState::neutral(islands));
        for (i, chunk) in voltages.chunks(2).enumerate() {
            // Alternate voltage changes with event applications and
            // background-charge moves — the three mutation paths the sync
            // machinery must fold in.
            system.set_external_voltage(i % 3, chunk[0]).unwrap();
            live.sync(&system);
            if let Some(&w) = walk.get(i) {
                let event = system.event(w % system.event_count());
                live.apply(&system, event);
            }
            system
                .set_background_charge(i % islands, backgrounds[i % backgrounds.len()])
                .unwrap();
            live.sync(&system);
        }
        assert_live_matches_full(&system, &live, 4.2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The incremental event-rate table against the reference fill: over
    /// random circuits, temperatures and event walks, a refill boundary
    /// (full potential refresh + table sync — the cadence `LiveState`
    /// re-synchronizes on) reproduces `RateContext::fill_rates` bit for
    /// bit. Between refills the axpy-maintained rates may differ from a
    /// fresh fill in final ulps; at every refill they must not differ at
    /// all.
    #[test]
    fn prop_event_table_refill_matches_fill_rates_bit_for_bit(
        circuit in ArbCircuit,
        temperature_index in 0usize..4,
        walk in proptest::collection::vec(0_usize..10_000, 1..300),
    ) {
        let temperature = [0.0, 0.1, 1.0, 4.2][temperature_index];
        let islands = circuit.gate_caps.len();
        let system = circuit.build();
        let ctx = RateContext::new(&system, temperature).unwrap();
        let mut live = LiveState::new(&system, ChargeState::neutral(islands));
        let mut table = EventRateTable::new(&system, &ctx, &live);
        for &step in &walk {
            let event = system.event(step % system.event_count());
            live.apply(&system, event);
            table.apply_event(&system, &ctx, &live, event);
        }
        live.refresh(&system);
        prop_assert!(table.sync(&system, &ctx, &live), "refresh must trigger a refill");
        let mut rates = Vec::new();
        ctx.fill_rates(&system, &live, &mut rates);
        for (index, &rate) in rates.iter().enumerate() {
            prop_assert_eq!(
                table.rate(index).to_bits(),
                rate.to_bits(),
                "event {} diverged at the refill boundary",
                index
            );
        }
    }
}

/// The rate every maintained table leaf must hold for its maintained ΔF:
/// the frozen-cutoff compare, then the shared orthodox kernel.
fn kernel_rate(ctx: &RateContext, event: usize, delta_f: f64) -> f64 {
    if delta_f > ctx.frozen_cutoff() {
        0.0
    } else {
        ctx.event_rate(event / 2, delta_f)
    }
}

/// Window compaction never drops an event: over random circuits and
/// random event walks at 0.1 K (most events frozen past the cutoff) and
/// 4.2 K (most inside the Boltzmann window), after every single event
/// each leaf of the table equals the kernel applied to that event's
/// maintained ΔF. Events that leave the window
/// while still holding a non-zero rate are counted, so the walk provably
/// exercises the path where a kept-for-its-leaf event must drop to zero.
#[test]
fn event_table_leaves_track_the_kernel_of_their_maintained_delta_f() {
    let mut rng = proptest::TestRng::deterministic("window_compaction");
    for temperature in [0.1, 4.2] {
        let mut left_window_with_rate = 0;
        for _ in 0..24 {
            let circuit = ArbCircuit.sample(&mut rng);
            let islands = circuit.gate_caps.len();
            let system = circuit.build();
            let ctx = &RateContext::new(&system, temperature).unwrap();
            let mut live = LiveState::new(&system, ChargeState::neutral(islands));
            let mut table = EventRateTable::new(&system, ctx, &live);
            for _ in 0..400 {
                let event = system.event(rng.below(system.event_count() as u64) as usize);
                let before: Vec<f64> = (0..table.event_count()).map(|e| table.rate(e)).collect();
                live.apply(&system, event);
                table.apply_event(&system, ctx, &live, event);
                for (e, &rate_before) in before.iter().enumerate() {
                    let expected = kernel_rate(ctx, e, table.delta_f(e));
                    assert_eq!(
                        table.rate(e).to_bits(),
                        expected.to_bits(),
                        "T = {temperature} K: leaf {e} (ΔF {:e}) is stale",
                        table.delta_f(e)
                    );
                    if rate_before != 0.0 && table.delta_f(e) > ctx.frozen_cutoff() {
                        left_window_with_rate += 1;
                    }
                }
            }
        }
        assert!(
            left_window_with_rate > 0,
            "T = {temperature} K: no event left the window holding a non-zero rate"
        );
    }
}

/// Frozen-cutoff reclassification mid-run: deep in Coulomb blockade at low
/// temperature, the axpy-maintained ΔF of individual events crosses the
/// frozen cutoff in both directions between refills. The table must hard-
/// zero an event the moment its ΔF exceeds the cutoff and revive it when
/// the walk brings it back — with no full refill in between — and the next
/// refill boundary must still reproduce `fill_rates` bit for bit.
#[test]
fn event_table_reclassifies_frozen_events_across_the_cutoff_mid_run() {
    let mut b = TunnelSystemBuilder::new();
    let drain = b.external("drain", 5e-3);
    let source = b.external("source", 0.0);
    let gate = b.external("gate", 0.0);
    let i0 = b.island("i0", 0.0);
    let i1 = b.island("i1", 0.0);
    b.junction("J0", drain, i0, 0.7e-18, 80e3);
    b.junction("J1", i0, i1, 0.4e-18, 120e3);
    b.junction("J2", i1, source, 0.6e-18, 90e3);
    b.capacitor("Cg0", gate, i0, 0.3e-18);
    b.capacitor("Cg1", gate, i1, 0.5e-18);
    let system = b.build().unwrap();

    let ctx = RateContext::new(&system, 0.02).unwrap();
    let mut live = LiveState::new(&system, ChargeState::neutral(2));
    let mut table = EventRateTable::new(&system, &ctx, &live);
    let mut froze = false;
    let mut thawed = false;
    let mut was_zero: Vec<bool> = (0..table.event_count())
        .map(|e| table.rate(e) == 0.0)
        .collect();
    let mut lcg = 12345_u64;
    for _ in 0..4000 {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let event = system.event((lcg >> 33) as usize % system.event_count());
        live.apply(&system, event);
        table.apply_event(&system, &ctx, &live, event);
        assert!(
            !table.sync(&system, &ctx, &live),
            "no full refill may occur during the walk"
        );
        for (e, seen_zero) in was_zero.iter_mut().enumerate() {
            let zero = table.rate(e) == 0.0;
            froze |= zero && !*seen_zero;
            thawed |= !zero && *seen_zero;
            *seen_zero = zero;
        }
    }
    assert!(froze, "the walk must freeze at least one event");
    assert!(thawed, "the walk must thaw at least one frozen event");

    live.refresh(&system);
    assert!(table.sync(&system, &ctx, &live));
    let mut rates = Vec::new();
    ctx.fill_rates(&system, &live, &mut rates);
    for (index, &rate) in rates.iter().enumerate() {
        assert_eq!(
            table.rate(index).to_bits(),
            rate.to_bits(),
            "event {index} diverged at the refill boundary"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The preconditioned BiCGSTAB solver and the anchored Gauss–Seidel
    /// reference solve the same master equation: over random chain
    /// circuits, temperatures and state windows, the stationary
    /// distributions agree to 1e-10 absolutely and the junction currents
    /// to 1e-8 relative, and each solution reports its true provenance.
    #[test]
    fn prop_krylov_and_gauss_seidel_solve_the_same_master_equation(
        circuit in ArbCircuit,
        temperature in 0.5_f64..4.2,
        window in 2_i64..5,
    ) {
        let islands = circuit.gate_caps.len();
        let gauss_seidel = MasterEquation::new(circuit.build(), temperature)
            .unwrap()
            .with_window(window)
            .unwrap()
            .with_solver(StationarySolver::GaussSeidel)
            .solve()
            .unwrap();
        let krylov = MasterEquation::new(circuit.build(), temperature)
            .unwrap()
            .with_window(window)
            .unwrap()
            .solve()
            .unwrap();
        prop_assert_eq!(gauss_seidel.stats().solver, "gauss-seidel");
        prop_assert!(
            krylov.stats().solver == "bicgstab-ilu0"
                || krylov.stats().solver == "gauss-seidel(fallback)",
            "unexpected solver provenance {}", krylov.stats().solver
        );
        for (index, (p_ref, p_krylov)) in gauss_seidel
            .probabilities()
            .iter()
            .zip(krylov.probabilities())
            .enumerate()
        {
            prop_assert!(
                (p_ref - p_krylov).abs() <= 1e-10,
                "state {index}: gauss-seidel {p_ref} vs krylov {p_krylov}"
            );
        }
        for junction in (0..=islands).map(|j| format!("J{j}")) {
            let i_ref = gauss_seidel.junction_current(&junction).unwrap();
            let i_krylov = krylov.junction_current(&junction).unwrap();
            // Mixed tolerance: currents are probability differences, so a
            // near-cancelled current keeps the solvers' 1e-10 distribution
            // agreement rather than an 1e-8 relative one.
            prop_assert!(
                (i_ref - i_krylov).abs() <= 1e-8 * i_ref.abs() + 1e-18,
                "{junction}: gauss-seidel {i_ref} vs krylov {i_krylov}"
            );
        }
    }
}

/// Golden regression: the Coulomb staircase of an asymmetric double
/// junction, pinned at fixed bias points for all three engine families.
///
/// The analytic values are hard-coded from the specialised birth–death SET
/// solver (`se-orthodox::set`), whose mathematics this PR does not touch;
/// the master equation must reproduce them to 1 %, the kinetic Monte-Carlo
/// estimate to 10 %. A change in any engine's physics shows up here before
/// it shows up in an experiment harness.
#[test]
fn golden_staircase_pins_all_three_engines() {
    // E2's asymmetric staircase device: C/R asymmetry makes the steps deep.
    let cg = 1e-18;
    let (c_d, c_s) = (0.1e-18, 1.0e-18);
    let (r_d, r_s) = (1000e3, 50e3);
    let temperature = 1.0;
    // The analytic solver takes (gate, source, drain) parameter order.
    let set = SingleElectronTransistor::new(cg, c_s, c_d, r_s, r_d).unwrap();

    let build = |vds: f64| -> TunnelSystem {
        let mut b = TunnelSystemBuilder::new();
        let island = b.island("island", 0.0);
        let drain = b.external("drain", vds);
        let source = b.external("source", 0.0);
        let gate = b.external("gate", 0.0);
        b.junction("JD", drain, island, c_d, r_d);
        b.junction("JS", island, source, c_s, r_s);
        b.capacitor("CG", gate, island, cg);
        b.build().unwrap()
    };

    // (Vds, golden analytic current in ampere — regenerate with
    // `set.current(vds, 0.0, 0.0, 1.0)` if the device parameters change.)
    let golden: [(f64, f64); 4] = [
        (0.1, GOLDEN_100),
        (0.15, GOLDEN_150),
        (0.2, GOLDEN_200),
        (0.3, GOLDEN_300),
    ];
    for (vds, pinned) in golden {
        let analytic = set.current(vds, 0.0, 0.0, temperature).unwrap();
        assert!(
            (analytic - pinned).abs() <= 1e-3 * pinned.abs(),
            "analytic staircase moved at Vds = {vds}: {analytic} vs pinned {pinned}"
        );

        // The staircase at 0.3 V spreads over ~8 charge states; a wide
        // window is exactly what the sparse state space makes cheap.
        let master = MasterEquation::new(build(vds), temperature)
            .unwrap()
            .with_window(12)
            .unwrap()
            .solve()
            .unwrap()
            .junction_current("JD")
            .unwrap();
        assert!(
            (master - pinned).abs() <= 0.01 * pinned.abs(),
            "master staircase at Vds = {vds}: {master} vs pinned {pinned}"
        );

        let mut kmc =
            MonteCarloSimulator::new(build(vds), SimulationOptions::new(temperature).with_seed(7))
                .unwrap();
        let sampled = kmc
            .run_events(60_000)
            .unwrap()
            .junction_current("JD")
            .unwrap();
        assert!(
            (sampled - pinned).abs() <= 0.1 * pinned.abs(),
            "kmc staircase at Vds = {vds}: {sampled} vs pinned {pinned}"
        );
    }
}

// Golden analytic staircase currents (ampere); see the test above.
const GOLDEN_100: f64 = 5.352991434652985e-8;
const GOLDEN_150: f64 = 9.668731531978366e-8;
const GOLDEN_200: f64 = 1.4122215866572211e-7;
const GOLDEN_300: f64 = 2.3120211081667966e-7;

/// Distance in units-in-the-last-place between two finite same-sign
/// doubles (their IEEE-754 bit patterns are order-isomorphic there).
fn ulp_distance(a: f64, b: f64) -> u64 {
    let (a, b) = (a.to_bits() as i64, b.to_bits() as i64);
    a.abs_diff(b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The deterministic event-clock kernel tracks the platform libm to
    /// ≤ 2 ulp over the whole open unit interval — uniformly dense draws
    /// plus draws pushed toward the underflow boundary, where the range
    /// reduction works hardest.
    #[test]
    fn prop_ln_unit_stays_within_two_ulp_of_libm(
        mantissa in 0.0_f64..1.0,
        scale_exp in 0_i32..300,
    ) {
        // u spans (0, 1] across ~300 binades, not just the dense top one.
        let u = (mantissa + f64::MIN_POSITIVE) * 2.0_f64.powi(-scale_exp);
        prop_assume!(u > 0.0 && u <= 1.0);
        let kernel = ln_unit(u);
        let libm = u.ln();
        prop_assert!(
            ulp_distance(kernel, libm) <= 2,
            "ln_unit({u:e}) = {kernel:e} vs libm {libm:e} ({} ulp apart)",
            ulp_distance(kernel, libm)
        );
    }
}
