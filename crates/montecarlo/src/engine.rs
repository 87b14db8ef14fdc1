//! [`StationaryEngine`] implementations for the two detailed simulators,
//! plus the shared electrode/junction name resolver.
//!
//! Both the deterministic master-equation solver and the stochastic kinetic
//! Monte-Carlo engine answer the same question — "what stationary current
//! flows through this junction at this bias point?" — so both implement the
//! unified trait and are driven by the same parallel
//! [`se_engine::SweepRunner`]. The kinetic engine derives all of its
//! randomness from the per-point seed handed in by the runner, which is
//! what makes parallel KMC sweeps bit-identical to serial ones.

use crate::error::MonteCarloError;
use crate::kmc::{MonteCarloSimulator, SimulationOptions};
use crate::master::MasterEquation;
use se_engine::{
    ControlId, ObservableId, StationaryEngine, TransientEngine, TransientTrace, Waveform,
};
use se_orthodox::TunnelSystem;
use se_units::constants::E;

/// Resolves an external electrode name to its typed index.
///
/// This is the single resolver used by every sweep helper and trait
/// implementation in this crate (it used to be copy-pasted three times).
///
/// # Errors
///
/// Returns [`MonteCarloError::InvalidArgument`] if no electrode has that
/// name.
pub fn resolve_electrode(system: &TunnelSystem, name: &str) -> Result<ControlId, MonteCarloError> {
    system
        .external_index(name)
        .map(ControlId)
        .ok_or_else(|| MonteCarloError::InvalidArgument(format!("no electrode named `{name}`")))
}

/// Resolves a junction name to its typed index.
///
/// # Errors
///
/// Returns [`MonteCarloError::InvalidArgument`] if no junction has that
/// name.
pub fn resolve_junction(
    system: &TunnelSystem,
    name: &str,
) -> Result<ObservableId, MonteCarloError> {
    system
        .junctions()
        .iter()
        .position(|j| j.name == name)
        .map(ObservableId)
        .ok_or_else(|| MonteCarloError::InvalidArgument(format!("no junction named `{name}`")))
}

/// Applies control values to a copy of the system's electrodes.
fn apply_controls(
    system: &mut TunnelSystem,
    controls: &[(ControlId, f64)],
) -> Result<(), MonteCarloError> {
    for &(ControlId(electrode), value) in controls {
        system.set_external_voltage(electrode, value)?;
    }
    Ok(())
}

/// Reads the requested junction currents out of a name-keyed lookup.
fn collect_observables(
    system: &TunnelSystem,
    observables: &[ObservableId],
    current_of: impl Fn(&str) -> Option<f64>,
) -> Result<Vec<f64>, MonteCarloError> {
    observables
        .iter()
        .map(|&ObservableId(index)| {
            let junction = system.junctions().get(index).ok_or_else(|| {
                MonteCarloError::InvalidArgument(format!("unknown junction handle {index}"))
            })?;
            current_of(&junction.name).ok_or_else(|| {
                MonteCarloError::InvalidArgument(format!(
                    "no current recorded for junction `{}`",
                    junction.name
                ))
            })
        })
        .collect()
}

impl MasterEquation {
    /// The warm-chaining form of
    /// [`StationaryEngine::stationary_currents`]: solves at the given
    /// control values, optionally seeding the iteration from a previous
    /// bias point's converged [`crate::master::MasterSolution`], and
    /// returns the solution alongside the currents so the caller can chain
    /// it into the next point. Sweep layers walk a block of adjacent bias
    /// points with this, cold-starting only the block's first point.
    ///
    /// # Errors
    ///
    /// As [`StationaryEngine::stationary_currents`].
    pub fn stationary_currents_warm(
        &self,
        controls: &[(ControlId, f64)],
        observables: &[ObservableId],
        warm: Option<&crate::master::MasterSolution>,
    ) -> Result<(Vec<f64>, crate::master::MasterSolution), MonteCarloError> {
        let solution = if controls.is_empty() {
            self.solve_warm(warm)?
        } else {
            let mut solver = self.clone();
            apply_controls(solver.system_mut(), controls)?;
            solver.solve_warm(warm)?
        };
        let currents = collect_observables(self.system(), observables, |name| {
            solution.junction_current(name)
        })?;
        Ok((currents, solution))
    }
}

impl StationaryEngine for MasterEquation {
    type Error = MonteCarloError;

    fn engine_name(&self) -> &'static str {
        "master-equation"
    }

    fn resolve_control(&self, name: &str) -> Result<ControlId, MonteCarloError> {
        resolve_electrode(self.system(), name)
    }

    fn resolve_observable(&self, name: &str) -> Result<ObservableId, MonteCarloError> {
        resolve_junction(self.system(), name)
    }

    fn stationary_currents(
        &self,
        controls: &[(ControlId, f64)],
        observables: &[ObservableId],
        _seed: u64,
    ) -> Result<Vec<f64>, MonteCarloError> {
        // Only clone when a control value actually has to be applied; the
        // hybrid co-simulator's hot loop solves with the bias already baked
        // into the system.
        let solution = if controls.is_empty() {
            self.solve()?
        } else {
            let mut solver = self.clone();
            apply_controls(solver.system_mut(), controls)?;
            solver.solve()?
        };
        collect_observables(self.system(), observables, |name| {
            solution.junction_current(name)
        })
    }
}

impl StationaryEngine for MonteCarloSimulator {
    type Error = MonteCarloError;

    fn engine_name(&self) -> &'static str {
        "kinetic-monte-carlo"
    }

    fn resolve_control(&self, name: &str) -> Result<ControlId, MonteCarloError> {
        resolve_electrode(self.system(), name)
    }

    fn resolve_observable(&self, name: &str) -> Result<ObservableId, MonteCarloError> {
        resolve_junction(self.system(), name)
    }

    /// One stationary solve = a fresh simulator seeded with `seed`, the
    /// configured equilibration, and
    /// [`SimulationOptions::events_per_solve`] measurement events. The
    /// simulator's own RNG state is untouched, so trait-driven sweeps never
    /// perturb an ongoing time-domain run. (The per-solve system clone and
    /// constructor are a few vector copies — noise next to the thousands of
    /// Gillespie steps each solve executes.)
    fn stationary_currents(
        &self,
        controls: &[(ControlId, f64)],
        observables: &[ObservableId],
        seed: u64,
    ) -> Result<Vec<f64>, MonteCarloError> {
        let mut system = self.system().clone();
        apply_controls(&mut system, controls)?;
        let options = SimulationOptions {
            seed: Some(seed),
            ..*self.options()
        };
        let mut simulator = MonteCarloSimulator::new(system, options)?;
        let result = simulator.run_events(options.events_per_solve)?;
        collect_observables(simulator.system(), observables, |name| {
            result.junction_current(name)
        })
    }
}

/// The kinetic Monte-Carlo event clock as a [`TransientEngine`].
///
/// Drives are external electrodes, observables are junctions. A run clones
/// the system, seeds a fresh simulator with the per-run seed, equilibrates
/// at the `t = 0` drive values, then alternates zero-order-hold voltage
/// updates with [`MonteCarloSimulator::run_until`] calls: the drives are
/// evaluated at each sample time `t` and held over the window
/// `(t_prev, t]` (the backward-Euler convention, so a step aligned with a
/// sample boundary acts in the same window as in the SPICE backend).
///
/// Sample `k` reports the **window-averaged** conventional current of each
/// junction over `(t_prev, t]` — net tunnelled charge divided by the
/// window — which is the physically meaningful current observable of a
/// discrete-event simulator; a sample at exactly `t = 0` reports zero. The
/// shared simulator is never mutated, so concurrent ensemble runs off one
/// engine value are safe and bit-reproducible.
impl TransientEngine for MonteCarloSimulator {
    type Error = MonteCarloError;

    fn engine_name(&self) -> &'static str {
        "kinetic-monte-carlo"
    }

    fn resolve_drive(&self, name: &str) -> Result<ControlId, MonteCarloError> {
        resolve_electrode(self.system(), name)
    }

    fn resolve_observable(&self, name: &str) -> Result<ObservableId, MonteCarloError> {
        resolve_junction(self.system(), name)
    }

    fn transient_currents(
        &self,
        drives: &[(ControlId, Waveform)],
        observables: &[ObservableId],
        times: &[f64],
        seed: u64,
    ) -> Result<TransientTrace, MonteCarloError> {
        se_engine::transient::check_sample_times::<MonteCarloError>(times)?;
        let junction_count = self.system().junctions().len();
        for &ObservableId(junction) in observables {
            if junction >= junction_count {
                return Err(MonteCarloError::InvalidArgument(format!(
                    "unknown junction handle {junction}"
                )));
            }
        }

        let mut system = self.system().clone();
        for &(ControlId(electrode), ref waveform) in drives {
            system.set_external_voltage(electrode, waveform.value_at(0.0))?;
        }
        let options = SimulationOptions {
            seed: Some(seed),
            ..*self.options()
        };
        let mut simulator = MonteCarloSimulator::new(system, options)?;
        simulator.equilibrate()?;

        let mut currents = Vec::with_capacity(times.len() * observables.len());
        let mut previous_transfers = vec![0_i64; junction_count];
        let mut t_prev = 0.0;
        for &t in times {
            if t == 0.0 {
                currents.resize(currents.len() + observables.len(), 0.0);
                continue;
            }
            for &(ControlId(electrode), ref waveform) in drives {
                simulator
                    .system_mut()
                    .set_external_voltage(electrode, waveform.value_at(t))?;
            }
            simulator.run_until(t)?;
            let window = t - t_prev;
            let transfers = simulator.net_transfers();
            for &ObservableId(junction) in observables {
                let tunnelled = transfers[junction] - previous_transfers[junction];
                // Electrons moving a→b carry conventional current b→a;
                // report the conventional current in the a→b reference
                // direction, exactly as the stationary face does.
                currents.push(-E * tunnelled as f64 / window);
            }
            previous_transfers.copy_from_slice(transfers);
            t_prev = t;
        }
        Ok(TransientTrace::new(
            times.to_vec(),
            observables.len(),
            currents,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batched::BatchedKmcEngine;
    use se_engine::SweepRunner;
    use se_orthodox::TunnelSystemBuilder;

    fn set_system(vds: f64, vg: f64) -> TunnelSystem {
        let mut b = TunnelSystemBuilder::new();
        let island = b.island("island", 0.0);
        let drain = b.external("drain", vds);
        let source = b.external("source", 0.0);
        let gate = b.external("gate", vg);
        b.junction("JD", drain, island, 0.5e-18, 100e3);
        b.junction("JS", island, source, 0.5e-18, 100e3);
        b.capacitor("CG", gate, island, 1e-18);
        b.build().unwrap()
    }

    #[test]
    fn resolver_returns_typed_indices() {
        let system = set_system(1e-3, 0.0);
        assert_eq!(resolve_electrode(&system, "gate").unwrap(), ControlId(2));
        assert_eq!(resolve_junction(&system, "JS").unwrap(), ObservableId(1));
        assert!(resolve_electrode(&system, "island").is_err());
        assert!(resolve_junction(&system, "CG").is_err());
    }

    #[test]
    fn master_engine_matches_direct_solve() {
        let vg = E / (2.0 * 1e-18);
        let solver = MasterEquation::new(set_system(1e-3, 0.0), 1.0).unwrap();
        let gate = solver.resolve_control("gate").unwrap();
        let jd = solver.resolve_observable("JD").unwrap();
        let via_trait = solver.stationary_current(&[(gate, vg)], jd, 7).unwrap();

        let direct = MasterEquation::new(set_system(1e-3, vg), 1.0)
            .unwrap()
            .solve()
            .unwrap()
            .junction_current("JD")
            .unwrap();
        assert!((via_trait - direct).abs() < 1e-9 * direct.abs().max(1e-18));
    }

    #[test]
    fn kmc_engine_is_seed_deterministic_and_leaves_self_untouched() {
        let vg = E / (2.0 * 1e-18);
        let sim = MonteCarloSimulator::new(
            set_system(1e-3, vg),
            SimulationOptions::new(1.0)
                .with_seed(5)
                .with_events_per_solve(5_000),
        )
        .unwrap();
        let jd = StationaryEngine::resolve_observable(&sim, "JD").unwrap();
        let a = sim.stationary_current(&[], jd, 123).unwrap();
        let b = sim.stationary_current(&[], jd, 123).unwrap();
        let c = sim.stationary_current(&[], jd, 124).unwrap();
        assert_eq!(a, b, "same seed, same current");
        assert_ne!(a, c, "different seeds explore different event sequences");
        assert_eq!(sim.time(), 0.0, "the shared simulator never advanced");
    }

    #[test]
    fn kmc_transient_tracks_a_drain_pulse() {
        // Gate at the conductance peak; pulse the drain 0 → 1 mV → 0 and
        // watch the window-averaged drain-junction current follow.
        let vg = E / (2.0 * 1e-18);
        let sim = MonteCarloSimulator::new(
            set_system(0.0, vg),
            SimulationOptions::new(1.0)
                .with_seed(3)
                .with_equilibration(200),
        )
        .unwrap();
        let drain = TransientEngine::resolve_drive(&sim, "drain").unwrap();
        let jd = TransientEngine::resolve_observable(&sim, "JD").unwrap();
        // 10 ns sample windows: long enough that the ±e/window shot noise
        // of the zero-bias windows averages well below the on-pulse
        // current.
        let pulse = Waveform::pulse(0.0, 1e-3, 20e-9, 40e-9, 1e-6).unwrap();
        let times: Vec<f64> = (0..8).map(|i| i as f64 * 10e-9).collect();
        let trace = sim
            .transient_currents(&[(drain, pulse)], &[jd], &times, 11)
            .unwrap();
        assert_eq!(trace.len(), 8);
        assert_eq!(trace.at(0, 0), 0.0, "a t = 0 sample has no window yet");
        // Drives are evaluated at the window *end* (backward-Euler
        // convention), so the pulse rising at 20 ns first acts in window
        // (10,20] — samples 2..=5 are on, samples 1 and 6..=7 are off.
        let on: f64 = (2..=5).map(|i| trace.at(i, 0)).sum::<f64>() / 4.0;
        let off = trace.at(1, 0).abs().max(trace.at(7, 0).abs());
        assert!(on.abs() > 3.0 * off.max(1e-12), "on {on} vs off {off}");
        // Seed-deterministic: same seed, bit-identical trace.
        let again = sim
            .transient_currents(
                &[(
                    drain,
                    Waveform::pulse(0.0, 1e-3, 20e-9, 40e-9, 1e-6).unwrap(),
                )],
                &[jd],
                &times,
                11,
            )
            .unwrap();
        assert_eq!(trace, again);
        assert_eq!(sim.time(), 0.0, "the shared simulator never advanced");
    }

    #[test]
    fn kmc_transient_mean_current_matches_the_stationary_estimate() {
        // A long constant-bias transient window must reproduce the
        // stationary KMC current at the same bias (same physics, two
        // faces).
        let vg = E / (2.0 * 1e-18);
        let sim = MonteCarloSimulator::new(
            set_system(1e-3, vg),
            SimulationOptions::new(1.0)
                .with_seed(5)
                .with_events_per_solve(40_000),
        )
        .unwrap();
        let jd = TransientEngine::resolve_observable(&sim, "JD").unwrap();
        let times = [200e-9];
        let trace = sim.transient_currents(&[], &[jd], &times, 21).unwrap();
        let stationary = sim.stationary_current(&[], ObservableId(0), 21).unwrap();
        let rel = (trace.at(0, 0) - stationary).abs() / stationary.abs();
        assert!(
            rel < 0.15,
            "transient mean {} vs stationary {stationary}: {rel:.2}",
            trace.at(0, 0)
        );
    }

    #[test]
    fn kmc_transient_validates_inputs() {
        let sim = MonteCarloSimulator::new(
            set_system(1e-3, 0.0),
            SimulationOptions::new(1.0).with_seed(1),
        )
        .unwrap();
        assert!(sim
            .transient_currents(&[], &[ObservableId(0)], &[], 0)
            .is_err());
        assert!(sim
            .transient_currents(&[], &[ObservableId(0)], &[2e-9, 1e-9], 0)
            .is_err());
        assert!(sim
            .transient_currents(&[], &[ObservableId(99)], &[1e-9], 0)
            .is_err());
    }

    #[test]
    fn stationary_ensemble_is_bit_identical_to_the_per_seed_loop() {
        // A lane group replays the executor's per-seed stationary solves:
        // replica `k` of a `BatchedKmcEngine` must publish exactly the
        // currents of `stationary_currents` with `seeds[k]`.
        let vg = E / (2.0 * 1e-18);
        let sim = MonteCarloSimulator::new(
            set_system(1e-3, vg),
            SimulationOptions::new(1.0)
                .with_equilibration(100)
                .with_events_per_solve(2_000),
        )
        .unwrap();
        let jd = StationaryEngine::resolve_observable(&sim, "JD").unwrap();
        let js = StationaryEngine::resolve_observable(&sim, "JS").unwrap();
        let seeds = [11, 22, 33, 44];
        let mut group =
            BatchedKmcEngine::new(sim.system().clone(), *sim.options(), &seeds).unwrap();
        let results = group
            .run_events_all(sim.options().events_per_solve)
            .unwrap();
        assert_eq!(results.len(), seeds.len());
        for (result, &seed) in results.iter().zip(&seeds) {
            let row = collect_observables(sim.system(), &[jd, js], |name| {
                result.junction_current(name)
            })
            .unwrap();
            let scalar = sim.stationary_currents(&[], &[jd, js], seed).unwrap();
            for (b, s) in row.iter().zip(&scalar) {
                assert_eq!(b.to_bits(), s.to_bits(), "seed {seed} diverged");
            }
        }
    }

    #[test]
    fn transient_ensemble_is_bit_identical_to_the_per_seed_loop() {
        // `run_repeats` seeds repeat `k` with `derive_seed(seed, k)`, so
        // its traces are the per-seed loop's, bit for bit, in order.
        let vg = E / (2.0 * 1e-18);
        let sim = MonteCarloSimulator::new(
            set_system(0.0, vg),
            SimulationOptions::new(1.0)
                .with_seed(3)
                .with_equilibration(200),
        )
        .unwrap();
        let drain = TransientEngine::resolve_drive(&sim, "drain").unwrap();
        let jd = TransientEngine::resolve_observable(&sim, "JD").unwrap();
        let pulse = Waveform::pulse(0.0, 1e-3, 20e-9, 40e-9, 1e-6).unwrap();
        let times: Vec<f64> = (0..6).map(|i| i as f64 * 10e-9).collect();
        let repeats = 5;
        let runner = se_engine::TransientRunner::new().with_seed(9);
        let ensemble = runner
            .run_repeats(&sim, &[("drain", pulse.clone())], &["JD"], &times, repeats)
            .unwrap();
        assert_eq!(ensemble.len(), repeats);
        for (k, trace) in ensemble.iter().enumerate() {
            let seed = se_engine::derive_seed(9, k as u64);
            let scalar = sim
                .transient_currents(&[(drain, pulse.clone())], &[jd], &times, seed)
                .unwrap();
            assert_eq!(trace, &scalar, "repeat {k} diverged");
        }
    }

    #[test]
    fn both_engines_agree_through_the_runner() {
        let system = set_system(1e-3, 0.0);
        let period = E / 1e-18;
        let values = [0.25 * period, 0.5 * period];

        let master = MasterEquation::new(system.clone(), 1.0).unwrap();
        let kmc = MonteCarloSimulator::new(
            system,
            SimulationOptions::new(1.0).with_events_per_solve(40_000),
        )
        .unwrap();

        let runner = SweepRunner::new().with_seed(11);
        let exact = runner.run(&master, "gate", &values, "JD").unwrap();
        let sampled = runner.run(&kmc, "gate", &values, "JD").unwrap();
        for (m, k) in exact.iter().zip(&sampled) {
            let scale = m.current.abs().max(1e-15);
            assert!(
                (m.current - k.current).abs() < 0.15 * scale,
                "master {} vs kmc {}",
                m.current,
                k.current
            );
        }
    }
}
