//! The unified transient-engine layer: one trait and one parallel runner
//! for every time-domain backend.
//!
//! The stationary layer ([`crate::StationaryEngine`] + [`crate::SweepRunner`])
//! answers "what current flows at this bias point?"; this module answers the
//! circuit-level question the paper poses for real single-electron logic:
//! "what currents flow *over time* under this stimulus?". The contract is
//! the same three-step shape:
//!
//! 1. resolve drive (source/electrode) and observable (junction/branch)
//!    *names* to typed handles once;
//! 2. hand the engine a set of [`Waveform`] drives, a sample grid and a
//!    seed;
//! 3. get back a [`TransientTrace`] of observable currents sampled on that
//!    grid.
//!
//! [`TransientRunner`] then runs *ensembles* of such scenarios — seed
//! ensembles, corner sweeps, input-vector batteries — across all cores with
//! the exact per-run seeding discipline of the sweep layer
//! ([`crate::derive_seed`]), so serial and parallel ensembles are
//! bit-identical.
//!
//! Three families implement the trait: the SPICE backward-Euler integrator
//! (`se-spice`), the kinetic Monte-Carlo event clock (`se-montecarlo`) and
//! the hybrid co-simulator (`se-hybrid`); [`QuasiStatic`] lifts any
//! stationary engine (e.g. the analytic SET) into a fourth, sampling
//! backend.

use crate::grid::validate_sample_times;
use crate::runner::map_indexed;
use crate::waveform::Waveform;
use crate::{derive_seed, ControlId, GridError, ObservableId, StationaryEngine};

/// A time-resolved simulation engine: initial state + stimulus waveforms
/// in, sampled observable currents out.
///
/// Implementations must be cheap to share across threads (`Sync`); the
/// [`TransientRunner`] calls [`TransientEngine::transient_currents`] for
/// many independent runs concurrently, each call carrying its own derived
/// seed. A run starts from the engine's natural initial state (for circuit
/// engines: the DC solution with all drives evaluated at `t = 0`),
/// integrates forward and reports each observable at every requested sample
/// time. Stochastic engines must use the seed as their *only* source of
/// randomness; engines that need per-sample randomness derive sub-seeds
/// with [`crate::derive_seed`]`(seed, sample_index)` so the discipline
/// stays uniform across the toolkit.
///
/// What "the current at sample `t`" means is backend-specific and
/// documented on each implementation: the SPICE integrator reports
/// instantaneous branch currents, the kinetic Monte-Carlo engine reports
/// window-averaged junction currents over `(t_prev, t]`, and quasi-static
/// backends report the stationary currents at the instantaneous drive
/// values.
pub trait TransientEngine: Sync {
    /// The engine's error type.
    type Error: std::error::Error + Send + 'static;

    /// A short human-readable engine name (used in reports and benches).
    fn engine_name(&self) -> &'static str;

    /// Resolves a drive name (a voltage source or external electrode) to a
    /// typed handle, or errors if no such drive exists.
    fn resolve_drive(&self, name: &str) -> Result<ControlId, Self::Error>;

    /// Resolves an observable name (a junction or source branch current) to
    /// a typed handle, or errors if no such observable exists.
    fn resolve_observable(&self, name: &str) -> Result<ObservableId, Self::Error>;

    /// Runs one transient: applies the drive waveforms, integrates from
    /// `t = 0` and returns the observable currents (ampere) sampled at
    /// `times` (strictly increasing, non-negative seconds — see
    /// [`crate::grid::validate_sample_times`]).
    fn transient_currents(
        &self,
        drives: &[(ControlId, Waveform)],
        observables: &[ObservableId],
        times: &[f64],
        seed: u64,
    ) -> Result<TransientTrace, Self::Error>;
}

impl<E: TransientEngine + ?Sized> TransientEngine for &E {
    type Error = E::Error;

    fn engine_name(&self) -> &'static str {
        (**self).engine_name()
    }

    fn resolve_drive(&self, name: &str) -> Result<ControlId, Self::Error> {
        (**self).resolve_drive(name)
    }

    fn resolve_observable(&self, name: &str) -> Result<ObservableId, Self::Error> {
        (**self).resolve_observable(name)
    }

    fn transient_currents(
        &self,
        drives: &[(ControlId, Waveform)],
        observables: &[ObservableId],
        times: &[f64],
        seed: u64,
    ) -> Result<TransientTrace, Self::Error> {
        (**self).transient_currents(drives, observables, times, seed)
    }
}

/// The sampled result of one transient run: a `times × observables` matrix
/// of currents, stored row-major with time as the slow axis.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientTrace {
    times: Vec<f64>,
    observables: usize,
    currents: Vec<f64>,
}

impl TransientTrace {
    /// Assembles a trace; `currents` is row-major with
    /// `times.len() × observables` entries.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are inconsistent (an engine bug, not a user
    /// input error).
    #[must_use]
    pub fn new(times: Vec<f64>, observables: usize, currents: Vec<f64>) -> Self {
        assert_eq!(
            currents.len(),
            times.len() * observables,
            "trace dimensions are inconsistent"
        );
        TransientTrace {
            times,
            observables,
            currents,
        }
    }

    /// The sample times, in seconds.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of sample times.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` if the trace holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Number of observables per sample.
    #[must_use]
    pub fn observable_count(&self) -> usize {
        self.observables
    }

    /// The current of observable `k` at time index `i`, ampere.
    #[must_use]
    pub fn at(&self, i: usize, k: usize) -> f64 {
        self.currents[i * self.observables + k]
    }

    /// All observable currents at time index `i`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.currents[i * self.observables..(i + 1) * self.observables]
    }

    /// The full time series of observable `k` — the waveform of one
    /// junction or branch current.
    #[must_use]
    pub fn channel(&self, k: usize) -> Vec<f64> {
        (0..self.times.len()).map(|i| self.at(i, k)).collect()
    }

    /// The raw row-major current data.
    #[must_use]
    pub fn as_flat(&self) -> &[f64] {
        &self.currents
    }
}

/// One named transient scenario of an ensemble: a label plus the drive
/// waveforms it applies.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    label: String,
    drives: Vec<(String, Waveform)>,
}

impl Scenario {
    /// Creates an empty scenario with the given label.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        Scenario {
            label: label.into(),
            drives: Vec::new(),
        }
    }

    /// Attaches a drive waveform to the named source/electrode.
    #[must_use]
    pub fn drive(mut self, name: impl Into<String>, waveform: Waveform) -> Self {
        self.drives.push((name.into(), waveform));
        self
    }

    /// The scenario label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The attached `(name, waveform)` drives.
    #[must_use]
    pub fn drives(&self) -> &[(String, Waveform)] {
        &self.drives
    }
}

/// The generic, parallel, deterministic ensemble runner for transient
/// scenarios — the time-domain sibling of [`crate::SweepRunner`].
///
/// A runner is a small value object holding the ensemble seed and the
/// parallelism switch. Run `index` of an ensemble always executes with seed
/// [`crate::derive_seed`]`(ensemble_seed, index)`, independent of thread
/// scheduling, so toggling [`TransientRunner::serial`] never changes
/// results — only scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransientRunner {
    seed: u64,
    parallel: bool,
    chunk: Option<usize>,
}

impl Default for TransientRunner {
    fn default() -> Self {
        TransientRunner::new()
    }
}

impl TransientRunner {
    /// A parallel runner with seed 0 and automatic chunking.
    #[must_use]
    pub fn new() -> Self {
        TransientRunner {
            seed: 0,
            parallel: true,
            chunk: None,
        }
    }

    /// Sets the ensemble seed all per-run seeds are derived from.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets how many consecutive runs one scheduled task executes (see
    /// [`se_exec::JobSpec::with_chunk`]). Results never depend on it.
    #[must_use]
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = Some(chunk);
        self
    }

    /// Forces single-threaded execution (results are identical; useful for
    /// profiling and for the determinism tests).
    #[must_use]
    pub fn serial(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// The ensemble seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether runs fan out across threads.
    #[must_use]
    pub fn is_parallel(&self) -> bool {
        self.parallel
    }

    /// Resolves named drives against an engine.
    fn resolve_drives<E: TransientEngine>(
        engine: &E,
        drives: &[(String, Waveform)],
    ) -> Result<Vec<(ControlId, Waveform)>, E::Error> {
        drives
            .iter()
            .map(|(name, waveform)| Ok((engine.resolve_drive(name)?, waveform.clone())))
            .collect()
    }

    /// Resolves named observables against an engine.
    fn resolve_observables<E: TransientEngine>(
        engine: &E,
        observables: &[&str],
    ) -> Result<Vec<ObservableId>, E::Error> {
        observables
            .iter()
            .map(|name| engine.resolve_observable(name))
            .collect()
    }

    /// Runs a single transient scenario (run index 0 of a one-element
    /// ensemble): applies each `(drive name, waveform)` pair and samples
    /// the named observables at `times`.
    ///
    /// # Errors
    ///
    /// Propagates name-resolution failures and engine errors.
    pub fn run<E: TransientEngine>(
        &self,
        engine: &E,
        drives: &[(&str, Waveform)],
        observables: &[&str],
        times: &[f64],
    ) -> Result<TransientTrace, E::Error> {
        let owned: Vec<(String, Waveform)> = drives
            .iter()
            .map(|(name, waveform)| ((*name).to_string(), waveform.clone()))
            .collect();
        let resolved = Self::resolve_drives(engine, &owned)?;
        let observables = Self::resolve_observables(engine, observables)?;
        engine.transient_currents(&resolved, &observables, times, derive_seed(self.seed, 0))
    }

    /// Runs an ensemble of independent scenarios — a corner sweep or an
    /// input-vector battery — concurrently, one derived seed per scenario
    /// index. The traces come back in scenario order.
    ///
    /// # Errors
    ///
    /// Propagates name-resolution failures and the first (lowest-index)
    /// engine error.
    pub fn run_ensemble<E: TransientEngine>(
        &self,
        engine: &E,
        scenarios: &[Scenario],
        observables: &[&str],
        times: &[f64],
    ) -> Result<Vec<TransientTrace>, E::Error> {
        let observables = Self::resolve_observables(engine, observables)?;
        let resolved: Vec<Vec<(ControlId, Waveform)>> = scenarios
            .iter()
            .map(|scenario| Self::resolve_drives(engine, scenario.drives()))
            .collect::<Result<_, _>>()?;
        map_indexed(
            self.seed,
            self.parallel,
            self.chunk,
            scenarios.len(),
            |index, seed| engine.transient_currents(&resolved[index], &observables, times, seed),
        )
    }

    /// Runs `repeats` statistically independent repetitions of the *same*
    /// scenario — a seed ensemble — concurrently. For a stochastic engine
    /// each repeat explores a different event sequence; for a deterministic
    /// engine all repeats are identical.
    ///
    /// Repeat `k` runs with seed [`crate::derive_seed`]`(ensemble_seed, k)`,
    /// and the traces come back in repeat order.
    ///
    /// # Errors
    ///
    /// Propagates name-resolution failures and the first (lowest-index)
    /// engine error.
    pub fn run_repeats<E: TransientEngine>(
        &self,
        engine: &E,
        drives: &[(&str, Waveform)],
        observables: &[&str],
        times: &[f64],
        repeats: usize,
    ) -> Result<Vec<TransientTrace>, E::Error> {
        let owned: Vec<(String, Waveform)> = drives
            .iter()
            .map(|(name, waveform)| ((*name).to_string(), waveform.clone()))
            .collect();
        let resolved = Self::resolve_drives(engine, &owned)?;
        let observables = Self::resolve_observables(engine, observables)?;
        map_indexed(self.seed, self.parallel, self.chunk, repeats, |_, seed| {
            engine.transient_currents(&resolved, &observables, times, seed)
        })
    }
}

/// Lifts any [`StationaryEngine`] into a [`TransientEngine`] by
/// quasi-static sampling: at every sample time the drives are evaluated
/// and one stationary solve reports the observables.
///
/// This is the correct time-domain model whenever the stimulus changes
/// slowly compared with the tunnelling dynamics — the regime of the
/// paper's logic applications, where a gate ramp crosses many Coulomb
/// oscillations and each sample sees a fully settled device. Sample `k` of
/// a run with seed `s` solves with seed [`crate::derive_seed`]`(s, k)`, so
/// stochastic stationary engines stay reproducible and ensemble-parallel
/// runs stay bit-identical to serial ones.
#[derive(Debug, Clone)]
pub struct QuasiStatic<E> {
    inner: E,
}

impl<E: StationaryEngine> QuasiStatic<E> {
    /// Wraps a stationary engine for quasi-static transient sampling.
    #[must_use]
    pub fn new(inner: E) -> Self {
        QuasiStatic { inner }
    }

    /// The wrapped stationary engine.
    #[must_use]
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

/// Maps a sample-grid violation into an engine's own error type via the
/// conversion the engine already has for its constructor errors.
///
/// # Errors
///
/// Returns the converted [`GridError::BadSampleTimes`] if `times` is not a
/// valid sample grid.
pub fn check_sample_times<Err: From<GridError>>(times: &[f64]) -> Result<(), Err> {
    validate_sample_times(times).map_err(Err::from)
}

impl<E: StationaryEngine> TransientEngine for QuasiStatic<E>
where
    E::Error: From<GridError>,
{
    type Error = E::Error;

    fn engine_name(&self) -> &'static str {
        "quasi-static"
    }

    fn resolve_drive(&self, name: &str) -> Result<ControlId, Self::Error> {
        self.inner.resolve_control(name)
    }

    fn resolve_observable(&self, name: &str) -> Result<ObservableId, Self::Error> {
        self.inner.resolve_observable(name)
    }

    fn transient_currents(
        &self,
        drives: &[(ControlId, Waveform)],
        observables: &[ObservableId],
        times: &[f64],
        seed: u64,
    ) -> Result<TransientTrace, Self::Error> {
        check_sample_times::<Self::Error>(times)?;
        let mut currents = Vec::with_capacity(times.len() * observables.len());
        let mut controls = Vec::with_capacity(drives.len());
        for (index, &t) in times.iter().enumerate() {
            controls.clear();
            controls.extend(
                drives
                    .iter()
                    .map(|(control, waveform)| (*control, waveform.value_at(t))),
            );
            let row = self.inner.stationary_currents(
                &controls,
                observables,
                derive_seed(seed, index as u64),
            )?;
            currents.extend(row);
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
    use std::fmt;

    /// A toy stationary engine whose current is `sum(controls) + seed
    /// jitter`, reused through [`QuasiStatic`] to exercise the whole
    /// transient surface without any physics.
    struct ToyEngine;

    #[derive(Debug, PartialEq)]
    struct ToyError(String);

    impl fmt::Display for ToyError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{}", self.0)
        }
    }

    impl std::error::Error for ToyError {}

    impl From<GridError> for ToyError {
        fn from(e: GridError) -> Self {
            ToyError(e.to_string())
        }
    }

    impl StationaryEngine for ToyEngine {
        type Error = ToyError;

        fn engine_name(&self) -> &'static str {
            "toy"
        }

        fn resolve_control(&self, name: &str) -> Result<ControlId, ToyError> {
            match name {
                "gate" => Ok(ControlId(0)),
                "drain" => Ok(ControlId(1)),
                other => Err(ToyError(format!("no control `{other}`"))),
            }
        }

        fn resolve_observable(&self, name: &str) -> Result<ObservableId, ToyError> {
            match name {
                "I" => Ok(ObservableId(0)),
                other => Err(ToyError(format!("no observable `{other}`"))),
            }
        }

        fn stationary_currents(
            &self,
            controls: &[(ControlId, f64)],
            observables: &[ObservableId],
            seed: u64,
        ) -> Result<Vec<f64>, ToyError> {
            let bias: f64 = controls.iter().map(|(_, v)| v).sum();
            let jitter = (seed % 1024) as f64 * 1e-12;
            Ok(observables.iter().map(|_| bias + jitter).collect())
        }
    }

    fn toy() -> QuasiStatic<ToyEngine> {
        QuasiStatic::new(ToyEngine)
    }

    #[test]
    fn trace_accessors_are_consistent() {
        let trace = TransientTrace::new(vec![0.0, 1.0], 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(trace.len(), 2);
        assert!(!trace.is_empty());
        assert_eq!(trace.observable_count(), 2);
        assert_eq!(trace.at(1, 0), 3.0);
        assert_eq!(trace.row(0), &[1.0, 2.0]);
        assert_eq!(trace.channel(1), vec![2.0, 4.0]);
        assert_eq!(trace.as_flat().len(), 4);
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn trace_rejects_mismatched_dimensions() {
        let _ = TransientTrace::new(vec![0.0, 1.0], 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn quasi_static_samples_the_waveforms() {
        let ramp = Waveform::ramp(0.0, 1.0, 0.0, 1.0).unwrap();
        let times = [0.0, 0.5, 1.0];
        let trace = TransientRunner::new()
            .run(&toy(), &[("gate", ramp)], &["I"], &times)
            .unwrap();
        assert_eq!(trace.times(), &times);
        // Same derived per-sample seeds each call → exact reproducibility.
        let again = TransientRunner::new()
            .run(
                &toy(),
                &[("gate", Waveform::ramp(0.0, 1.0, 0.0, 1.0).unwrap())],
                &["I"],
                &times,
            )
            .unwrap();
        assert_eq!(trace, again);
        // The ramp dominates the tiny seed jitter.
        assert!(trace.at(2, 0) > trace.at(0, 0) + 0.9);
    }

    #[test]
    fn bad_sample_grids_are_rejected() {
        let dc = Waveform::dc(0.0);
        let runner = TransientRunner::new();
        assert!(runner
            .run(&toy(), &[("gate", dc.clone())], &["I"], &[])
            .is_err());
        assert!(runner
            .run(&toy(), &[("gate", dc.clone())], &["I"], &[1.0, 0.5])
            .is_err());
        assert!(runner
            .run(&toy(), &[("gate", dc)], &["I"], &[-1.0])
            .is_err());
    }

    #[test]
    fn resolution_errors_surface() {
        let runner = TransientRunner::new();
        let dc = Waveform::dc(0.0);
        assert!(runner
            .run(&toy(), &[("nope", dc.clone())], &["I"], &[0.0])
            .is_err());
        assert!(runner
            .run(&toy(), &[("gate", dc)], &["nope"], &[0.0])
            .is_err());
    }

    #[test]
    fn ensembles_are_bit_identical_serial_vs_parallel() {
        let times: Vec<f64> = (0..32).map(|i| i as f64 * 1e-9).collect();
        let scenarios: Vec<Scenario> = (0..17)
            .map(|i| {
                Scenario::new(format!("corner {i}"))
                    .drive("gate", Waveform::step(0.0, 1e-3 * i as f64, 4e-9).unwrap())
            })
            .collect();
        let parallel = TransientRunner::new()
            .with_seed(7)
            .run_ensemble(&toy(), &scenarios, &["I"], &times)
            .unwrap();
        let serial = TransientRunner::new()
            .with_seed(7)
            .serial()
            .run_ensemble(&toy(), &scenarios, &["I"], &times)
            .unwrap();
        assert_eq!(parallel, serial);
        assert_eq!(parallel.len(), 17);
    }

    #[test]
    fn repeats_draw_distinct_seeds() {
        let times = [0.0, 1e-9];
        let repeats = TransientRunner::new()
            .with_seed(3)
            .run_repeats(&toy(), &[("gate", Waveform::dc(0.0))], &["I"], &times, 4)
            .unwrap();
        assert_eq!(repeats.len(), 4);
        // The toy engine folds the seed into the current, so distinct
        // per-repeat seeds must show up as distinct traces.
        assert_ne!(repeats[0], repeats[1]);
        // And repeat ordering is deterministic.
        let again = TransientRunner::new()
            .with_seed(3)
            .serial()
            .run_repeats(&toy(), &[("gate", Waveform::dc(0.0))], &["I"], &times, 4)
            .unwrap();
        assert_eq!(repeats, again);
    }

    #[test]
    fn scenario_builder_collects_drives() {
        let s = Scenario::new("a")
            .drive("gate", Waveform::dc(1.0))
            .drive("drain", Waveform::dc(2.0));
        assert_eq!(s.label(), "a");
        assert_eq!(s.drives().len(), 2);
    }
}
