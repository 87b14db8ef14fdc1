//! Lane groups: a few seed replicas of one system, each a scalar
//! [`MonteCarloSimulator`].
//!
//! A [`BatchedKmcEngine`] is the unit of work the deck executor's lane-group
//! scheduling hands to one worker: replica `k` is exactly
//! `MonteCarloSimulator::new(system.clone(), options with seed seeds[k])`,
//! run to completion before replica `k + 1` starts. Every replica is
//! therefore bit-identical to a standalone stationary solve with its seed —
//! same event sequence, same clock, same transfer counters — and the
//! published ensemble tables do not depend on how replicas are grouped.

use crate::error::MonteCarloError;
use crate::kmc::{MonteCarloSimulator, SimulationOptions};
use crate::observables::RunResult;
use se_orthodox::TunnelSystem;

/// One scalar simulator per replica seed of a lane group, all over the
/// same [`TunnelSystem`] and options.
#[derive(Debug, Clone)]
pub struct BatchedKmcEngine {
    replicas: Vec<MonteCarloSimulator>,
}

impl BatchedKmcEngine {
    /// Creates a group with one replica per entry of `seeds`, every replica
    /// starting from the charge-neutral state. `options.seed` is ignored —
    /// replica `k` runs with `seeds[k]`.
    ///
    /// # Errors
    ///
    /// Returns [`MonteCarloError::InvalidArgument`] for an empty seed list
    /// or an invalid temperature.
    pub fn new(
        system: TunnelSystem,
        options: SimulationOptions,
        seeds: &[u64],
    ) -> Result<Self, MonteCarloError> {
        if seeds.is_empty() {
            return Err(MonteCarloError::InvalidArgument(
                "a lane group needs at least one replica seed".into(),
            ));
        }
        let replicas = seeds
            .iter()
            .map(|&seed| {
                MonteCarloSimulator::new(
                    system.clone(),
                    SimulationOptions {
                        seed: Some(seed),
                        ..options
                    },
                )
            })
            .collect::<Result<_, _>>()?;
        Ok(BatchedKmcEngine { replicas })
    }

    /// Runs [`MonteCarloSimulator::run_events`] on every replica in seed
    /// order and returns one [`RunResult`] per replica. A replica that
    /// freezes ends its measurement early (`RunResult::is_frozen` reports
    /// it); the remaining replicas run their full budget.
    ///
    /// # Errors
    ///
    /// Returns [`MonteCarloError::InvalidArgument`] if `events == 0`, and
    /// propagates step errors.
    pub fn run_events_all(&mut self, events: usize) -> Result<Vec<RunResult>, MonteCarloError> {
        self.replicas
            .iter_mut()
            .map(|replica| replica.run_events(events))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_engine::derive_seed;
    use se_orthodox::TunnelSystemBuilder;
    use se_units::constants::E;

    /// Symmetric SET at its conductance peak: gate charge = e/2.
    fn set_at_peak(vds: f64) -> TunnelSystem {
        let cg = 1e-18;
        let vg = E / (2.0 * cg);
        let mut b = TunnelSystemBuilder::new();
        let island = b.island("island", 0.0);
        let drain = b.external("drain", vds);
        let source = b.external("source", 0.0);
        let gate = b.external("gate", vg);
        b.junction("JD", drain, island, 0.5e-18, 100e3);
        b.junction("JS", island, source, 0.5e-18, 100e3);
        b.capacitor("CG", gate, island, cg);
        b.build().unwrap()
    }

    /// Deep zero-temperature blockade: every event is uphill.
    fn blockaded() -> TunnelSystem {
        let mut b = TunnelSystemBuilder::new();
        let island = b.island("island", 0.0);
        let drain = b.external("drain", 1e-5);
        let source = b.external("source", 0.0);
        b.junction("JD", drain, island, 0.5e-18, 100e3);
        b.junction("JS", island, source, 0.5e-18, 100e3);
        b.build().unwrap()
    }

    fn seeds(base_seed: u64, replicas: usize) -> Vec<u64> {
        (0..replicas as u64)
            .map(|k| derive_seed(base_seed, k))
            .collect()
    }

    #[test]
    fn replica_runs_match_standalone_simulators_bit_for_bit() {
        let options = SimulationOptions::new(1.0).with_equilibration(100);
        let seeds = seeds(42, 5);
        let mut batch = BatchedKmcEngine::new(set_at_peak(1e-3), options, &seeds).unwrap();
        let batch_results = batch.run_events_all(2_000).unwrap();
        assert_eq!(batch_results.len(), seeds.len());
        for (r, (batch_result, &seed)) in batch_results.iter().zip(&seeds).enumerate() {
            let mut scalar =
                MonteCarloSimulator::new(set_at_peak(1e-3), options.with_seed(seed)).unwrap();
            let scalar_result = scalar.run_events(2_000).unwrap();
            assert_eq!(
                batch_result.total_time().to_bits(),
                scalar_result.total_time().to_bits(),
                "replica {r} time diverged"
            );
            assert_eq!(
                batch_result.junction_transfer("JD"),
                scalar_result.junction_transfer("JD")
            );
            assert_eq!(batch_result.events(), scalar_result.events());
            assert_eq!(batch.replicas[r].state(), scalar.state());
            let occ_batch = batch_result.mean_occupation(0).unwrap();
            let occ_scalar = scalar_result.mean_occupation(0).unwrap();
            assert_eq!(occ_batch.to_bits(), occ_scalar.to_bits());
        }
    }

    #[test]
    fn frozen_replicas_retire_without_stalling_the_batch() {
        // A frozen replica ends its measurement at once instead of
        // spinning, and reports itself frozen with no events.
        let options = SimulationOptions::new(0.0).with_equilibration(0);
        let mut batch = BatchedKmcEngine::new(blockaded(), options, &seeds(3, 4)).unwrap();
        let results = batch.run_events_all(100).unwrap();
        assert_eq!(results.len(), 4);
        for result in &results {
            assert!(result.is_frozen());
            assert_eq!(result.events(), 0);
        }
    }

    #[test]
    fn rejects_empty_batches_and_bad_arguments() {
        let options = SimulationOptions::new(1.0);
        assert!(BatchedKmcEngine::new(set_at_peak(1e-3), options, &[]).is_err());
        assert!(
            BatchedKmcEngine::new(set_at_peak(1e-3), SimulationOptions::new(-1.0), &[1]).is_err()
        );
        let mut batch = BatchedKmcEngine::new(set_at_peak(1e-3), options, &[1, 2]).unwrap();
        assert!(batch.run_events_all(0).is_err());
    }
}
