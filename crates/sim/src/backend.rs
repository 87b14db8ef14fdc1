//! Engine backends: lowering a netlist onto each simulator family and the
//! enum dispatch that gives every family one face.
//!
//! The compiler ([`crate::plan`]) decides *which* engine runs a deck; this
//! module builds that engine. Two wrappers close the naming gap between
//! decks and engines:
//!
//! * [`SourceMapped`] — the master-equation and kinetic Monte-Carlo engines
//!   resolve *electrode* (node) names, while decks sweep *source* names
//!   (`.dc VD …`). The wrapper translates each ground-referenced voltage
//!   source to the electrode node it pins.
//! * [`AnalyticDeckEngine`] — the closed-form SET model has fixed `drain` /
//!   `gate` controls; the wrapper maps the deck's drain/gate sources and
//!   junction names onto them (with the correct reference-direction signs)
//!   after verifying the netlist *is* a single SET.

use crate::error::SimError;
use se_engine::{
    ControlId, ObservableId, QuasiStatic, StationaryEngine, TransientEngine, TransientTrace,
    Waveform,
};
use se_hybrid::{HybridOptions, HybridStationaryEngine, HybridTransientEngine, IslandEngine};
use se_montecarlo::{
    tunnel_system_from_netlist, MasterEquation, MonteCarloSimulator, Preconditioner,
    SimulationOptions, StationarySolver,
};
use se_netlist::{
    partition_report, AnalysisOptions, Element, ElementKind, Netlist, Node, SolverPreference,
};
use se_orthodox::set::SingleElectronTransistor;
use se_orthodox::AnalyticSetEngine;
use se_spice::{Circuit, NewtonOptions, SpiceDcEngine, SpiceTransientEngine};
use std::collections::HashMap;

/// Translates deck-level *source* names to the electrode (node) names the
/// detailed engines resolve, passing unknown names through untouched (so
/// electrode names keep working too).
#[derive(Debug, Clone)]
pub struct SourceMapped<E> {
    engine: E,
    /// Lower-cased source name → electrode node name.
    map: HashMap<String, String>,
}

impl<E> SourceMapped<E> {
    /// Wraps an engine with the source→electrode map of `netlist`.
    pub fn new(engine: E, netlist: &Netlist) -> Self {
        let mut map = HashMap::new();
        for source in netlist.voltage_sources() {
            let nodes = source.nodes();
            let pinned = if nodes[1].is_ground() {
                Some(nodes[0])
            } else if nodes[0].is_ground() {
                Some(nodes[1])
            } else {
                None
            };
            if let Some(node) = pinned {
                if let Some(name) = netlist.node_name(node) {
                    map.insert(source.name().to_ascii_lowercase(), name.to_string());
                }
            }
        }
        SourceMapped { engine, map }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.engine
    }

    fn translate<'a>(&'a self, name: &'a str) -> &'a str {
        self.map
            .get(&name.to_ascii_lowercase())
            .map_or(name, String::as_str)
    }
}

impl<E> StationaryEngine for SourceMapped<E>
where
    E: StationaryEngine,
    SimError: From<E::Error>,
{
    type Error = SimError;

    fn engine_name(&self) -> &'static str {
        self.engine.engine_name()
    }

    fn resolve_control(&self, name: &str) -> Result<ControlId, SimError> {
        Ok(self.engine.resolve_control(self.translate(name))?)
    }

    fn resolve_observable(&self, name: &str) -> Result<ObservableId, SimError> {
        Ok(self.engine.resolve_observable(name)?)
    }

    fn stationary_currents(
        &self,
        controls: &[(ControlId, f64)],
        observables: &[ObservableId],
        seed: u64,
    ) -> Result<Vec<f64>, SimError> {
        Ok(self
            .engine
            .stationary_currents(controls, observables, seed)?)
    }
}

impl<E> TransientEngine for SourceMapped<E>
where
    E: TransientEngine,
    SimError: From<E::Error>,
{
    type Error = SimError;

    fn engine_name(&self) -> &'static str {
        TransientEngine::engine_name(&self.engine)
    }

    fn resolve_drive(&self, name: &str) -> Result<ControlId, SimError> {
        Ok(self.engine.resolve_drive(self.translate(name))?)
    }

    fn resolve_observable(&self, name: &str) -> Result<ObservableId, SimError> {
        Ok(TransientEngine::resolve_observable(&self.engine, name)?)
    }

    fn transient_currents(
        &self,
        drives: &[(ControlId, Waveform)],
        observables: &[ObservableId],
        times: &[f64],
        seed: u64,
    ) -> Result<TransientTrace, SimError> {
        Ok(self
            .engine
            .transient_currents(drives, observables, times, seed)?)
    }
}

/// The analytic SET model addressed with deck names: sources map to the
/// `drain`/`gate` controls, junction names map (with reference-direction
/// signs) to the single drain-current observable.
#[derive(Debug, Clone)]
pub struct AnalyticDeckEngine {
    inner: AnalyticSetEngine,
    /// Lower-cased deck source name → analytic control name.
    controls: HashMap<String, &'static str>,
    /// Junction names aliasing the drain current, with the sign that maps
    /// the analytic drain current into each junction's `a → b` reference
    /// direction.
    observables: Vec<(String, f64)>,
}

impl StationaryEngine for AnalyticDeckEngine {
    type Error = SimError;

    fn engine_name(&self) -> &'static str {
        "analytic-set"
    }

    fn resolve_control(&self, name: &str) -> Result<ControlId, SimError> {
        let mapped = self
            .controls
            .get(&name.to_ascii_lowercase())
            .copied()
            .unwrap_or(name);
        Ok(self.inner.resolve_control(mapped)?)
    }

    fn resolve_observable(&self, name: &str) -> Result<ObservableId, SimError> {
        self.observables
            .iter()
            .position(|(junction, _)| junction.eq_ignore_ascii_case(name))
            .map(ObservableId)
            .ok_or_else(|| {
                let available: Vec<&str> = self
                    .observables
                    .iter()
                    .map(|(junction, _)| junction.as_str())
                    .collect();
                SimError::Plan(format!(
                    "the analytic SET backend has no observable `{name}` (available: {})",
                    available.join(", ")
                ))
            })
    }

    fn stationary_currents(
        &self,
        controls: &[(ControlId, f64)],
        observables: &[ObservableId],
        seed: u64,
    ) -> Result<Vec<f64>, SimError> {
        let drain = self
            .inner
            .stationary_current(controls, ObservableId(0), seed)?;
        observables
            .iter()
            .map(|&ObservableId(index)| {
                self.observables
                    .get(index)
                    .map(|&(_, sign)| sign * drain)
                    .ok_or_else(|| {
                        SimError::Plan(format!("unknown analytic observable handle {index}"))
                    })
            })
            .collect()
    }
}

/// The far (non-island) node of a two-terminal element touching `island`.
fn far_node(element: &Element, island: Node) -> Node {
    let nodes = element.nodes();
    if nodes[0] == island {
        nodes[1]
    } else {
        nodes[0]
    }
}

/// Lowers a single-SET netlist onto the analytic model.
///
/// The netlist must be purely single-electron with exactly one
/// single-node island, two tunnel junctions (one of them to ground — the
/// source junction), one gate capacitor, and ground-referenced voltage
/// sources pinning the drain and gate electrodes (positive terminal on the
/// electrode).
///
/// # Errors
///
/// Returns [`SimError::Plan`] naming the structural mismatch when the
/// netlist is not a single SET of that shape.
pub fn analytic_from_netlist(
    netlist: &Netlist,
    temperature: f64,
) -> Result<AnalyticDeckEngine, SimError> {
    let report = partition_report(netlist);
    if !report.is_pure_single_electron() {
        let reasons = report.hybrid_reasons();
        let detail = if report.is_pure_conventional() {
            "it has no single-electron island".to_string()
        } else {
            reasons.join("; ")
        };
        return Err(SimError::Plan(format!(
            "the analytic backend needs a pure single-SET circuit: {detail}"
        )));
    }
    let islands = &report.split.islands;
    if islands.len() != 1 || islands[0].nodes.len() != 1 {
        return Err(SimError::Plan(format!(
            "the analytic backend models exactly one single-node island, this deck has {} island \
             group(s) over nodes [{}]",
            islands.len(),
            report.island_nodes.join(", ")
        )));
    }
    let island = islands[0].nodes[0];
    if islands[0].junctions.len() != 2 {
        return Err(SimError::Plan(format!(
            "the analytic backend needs exactly two tunnel junctions, got {} ({})",
            islands[0].junctions.len(),
            islands[0].junctions.join(", ")
        )));
    }

    // Which node does each ground-referenced source pin, and at what value?
    // Only sources with their *positive* terminal on the electrode are
    // accepted, so that sweeping the source by name sweeps the electrode
    // with the same sign.
    let mut pinned: HashMap<Node, (&str, f64)> = HashMap::new();
    for source in netlist.voltage_sources() {
        if let ElementKind::VoltageSource { voltage } = source.kind() {
            let nodes = source.nodes();
            if nodes[1].is_ground() {
                pinned.insert(nodes[0], (source.name(), *voltage));
            }
        }
    }
    let node_label = |node: Node| netlist.node_name(node).unwrap_or("?").to_string();

    // Split the two junctions into the grounded source junction and the
    // source-pinned drain junction.
    let j_elements: Vec<&Element> = islands[0]
        .junctions
        .iter()
        .map(|name| {
            netlist
                .element(name)
                .ok_or_else(|| SimError::Plan(format!("junction `{name}` vanished from netlist")))
        })
        .collect::<Result<_, _>>()?;
    let grounded: Vec<&&Element> = j_elements
        .iter()
        .filter(|j| far_node(j, island).is_ground())
        .collect();
    let (source_j, drain_j) = match grounded.len() {
        1 => {
            let source_j = *grounded[0];
            let drain_j = *j_elements
                .iter()
                .find(|j| !far_node(j, island).is_ground())
                .expect("two junctions, one grounded");
            (source_j, drain_j)
        }
        0 => {
            return Err(SimError::Plan(
                "the analytic backend needs a grounded source junction (one junction between \
                 the island and node 0)"
                    .into(),
            ))
        }
        _ => {
            return Err(SimError::Plan(
                "the analytic backend needs a drain electrode, but both junctions connect the \
                 island to ground"
                    .into(),
            ))
        }
    };
    let drain_node = far_node(drain_j, island);
    let Some(&(drain_source, vds)) = pinned.get(&drain_node) else {
        return Err(SimError::Plan(format!(
            "drain electrode `{}` must be pinned by a ground-referenced voltage source with its \
             positive terminal on the electrode",
            node_label(drain_node)
        )));
    };

    // The gate: exactly one non-junction capacitor touching the island,
    // with a source-pinned far node.
    let gates: Vec<&Element> = netlist
        .elements()
        .iter()
        .filter(|e| {
            matches!(e.kind(), ElementKind::Capacitor { .. }) && e.nodes().contains(&island)
        })
        .collect();
    if gates.len() != 1 {
        return Err(SimError::Plan(format!(
            "the analytic backend needs exactly one gate capacitor on the island, got {}",
            gates.len()
        )));
    }
    let gate_node = far_node(gates[0], island);
    let Some(&(gate_source, vgs)) = pinned.get(&gate_node) else {
        return Err(SimError::Plan(format!(
            "gate electrode `{}` must be pinned by a ground-referenced voltage source with its \
             positive terminal on the electrode",
            node_label(gate_node)
        )));
    };

    let junction_params = |element: &Element| -> (f64, f64) {
        match element.kind() {
            ElementKind::TunnelJunction {
                capacitance,
                resistance,
            } => (*capacitance, *resistance),
            _ => unreachable!("island junction list only names tunnel junctions"),
        }
    };
    let (c_source, r_source) = junction_params(source_j);
    let (c_drain, r_drain) = junction_params(drain_j);
    let c_gate = match gates[0].kind() {
        ElementKind::Capacitor { capacitance } => *capacitance,
        _ => unreachable!("gates are filtered to capacitors"),
    };
    let set = SingleElectronTransistor::new(c_gate, c_source, c_drain, r_source, r_drain)?;
    let inner = AnalyticSetEngine::new(set, temperature, 0.0)?.with_bias(vds, vgs);

    let mut controls = HashMap::new();
    controls.insert(drain_source.to_ascii_lowercase(), "drain");
    controls.insert(gate_source.to_ascii_lowercase(), "gate");
    // Positive drain current flows drain → island → ground; each junction
    // reports it in its own `a → b` reference direction.
    let drain_sign = if drain_j.nodes()[0] == drain_node {
        1.0
    } else {
        -1.0
    };
    let source_sign = if source_j.nodes()[0] == island {
        1.0
    } else {
        -1.0
    };
    let observables = vec![
        (drain_j.name().to_string(), drain_sign),
        (source_j.name().to_string(), source_sign),
    ];
    Ok(AnalyticDeckEngine {
        inner,
        controls,
        observables,
    })
}

/// Builds the tunnel system and shared KMC options of a pure
/// single-electron deck.
fn kmc_simulator(
    netlist: &Netlist,
    options: &AnalysisOptions,
) -> Result<MonteCarloSimulator, SimError> {
    let system = tunnel_system_from_netlist(netlist)?;
    let mut sim_options = SimulationOptions::new(options.temperature).with_seed(options.seed);
    if let Some(events) = options.kmc_events {
        sim_options = sim_options.with_events_per_solve(events);
    }
    Ok(MonteCarloSimulator::new(system, sim_options)?)
}

/// The linear solver a deck-level `.options solver=` preference selects.
fn stationary_solver(preference: SolverPreference) -> StationarySolver {
    match preference {
        SolverPreference::KrylovIlu0 => StationarySolver::Krylov(Preconditioner::Ilu0),
        SolverPreference::KrylovJacobi => StationarySolver::Krylov(Preconditioner::Jacobi),
        SolverPreference::GaussSeidel => StationarySolver::GaussSeidel,
    }
}

/// Builds the master-equation solver of a pure single-electron deck.
fn master_solver(netlist: &Netlist, options: &AnalysisOptions) -> Result<MasterEquation, SimError> {
    let system = tunnel_system_from_netlist(netlist)?;
    let mut solver = MasterEquation::new(system, options.temperature)?;
    if let Some(window) = options.master_window {
        solver = solver.with_window(window)?;
    }
    if let Some(max_states) = options.master_max_states {
        solver = solver.with_max_states(max_states)?;
    }
    if let Some(preference) = options.solver {
        solver = solver.with_solver(stationary_solver(preference));
    }
    Ok(solver)
}

/// Hybrid co-simulation options derived from the deck options: `events=`
/// switches the island domain to kinetic Monte-Carlo with that measurement
/// budget (per-point seeds are threaded in by the hybrid engines),
/// `window=` keeps the master-equation islands with that cap.
fn hybrid_options(options: &AnalysisOptions) -> Result<HybridOptions, SimError> {
    if options.master_max_states.is_some() {
        return Err(SimError::Plan(
            "maxstates= is not supported by the hybrid backend (its island domain does not \
             expose the state-enumeration cap); remove it or use engine=master"
                .into(),
        ));
    }
    if options.solver.is_some() {
        return Err(SimError::Plan(
            "solver= is not supported by the hybrid backend (its island domain does not \
             expose the stationary-solver choice); remove it or use engine=master"
                .into(),
        ));
    }
    let mut hybrid = HybridOptions::new(options.temperature);
    match (options.kmc_events, options.master_window) {
        (Some(_), Some(_)) => {
            return Err(SimError::Plan(
                "events= selects kinetic Monte-Carlo islands and window= master-equation \
                 islands; a hybrid run can only use one — remove one of the two options"
                    .into(),
            ))
        }
        (Some(events), None) => {
            hybrid.engine = IslandEngine::MonteCarlo {
                events,
                seed: options.seed,
            };
        }
        (None, Some(window)) => {
            hybrid.engine = IslandEngine::Master { window };
        }
        (None, None) => {}
    }
    Ok(hybrid)
}

/// The compiled stationary backend of a deck: one of the five engine
/// families behind the one [`StationaryEngine`] face.
#[derive(Debug, Clone)]
pub enum StationaryBackend {
    /// The closed-form analytic SET model.
    Analytic(AnalyticDeckEngine),
    /// The deterministic master-equation solver.
    Master(SourceMapped<MasterEquation>),
    /// The kinetic Monte-Carlo sampler (boxed: the simulator carries
    /// its live-state buffers inline).
    Kmc(Box<SourceMapped<MonteCarloSimulator>>),
    /// The SPICE Newton DC engine.
    Spice(SpiceDcEngine),
    /// The SPICE ↔ single-electron co-simulator.
    Hybrid(HybridStationaryEngine),
}

impl StationaryEngine for StationaryBackend {
    type Error = SimError;

    fn engine_name(&self) -> &'static str {
        match self {
            StationaryBackend::Analytic(e) => e.engine_name(),
            StationaryBackend::Master(e) => e.engine_name(),
            StationaryBackend::Kmc(e) => StationaryEngine::engine_name(e.as_ref()),
            StationaryBackend::Spice(e) => e.engine_name(),
            StationaryBackend::Hybrid(e) => e.engine_name(),
        }
    }

    fn resolve_control(&self, name: &str) -> Result<ControlId, SimError> {
        match self {
            StationaryBackend::Analytic(e) => e.resolve_control(name),
            StationaryBackend::Master(e) => e.resolve_control(name),
            StationaryBackend::Kmc(e) => e.resolve_control(name),
            StationaryBackend::Spice(e) => Ok(e.resolve_control(name)?),
            StationaryBackend::Hybrid(e) => Ok(e.resolve_control(name)?),
        }
    }

    fn resolve_observable(&self, name: &str) -> Result<ObservableId, SimError> {
        match self {
            StationaryBackend::Analytic(e) => e.resolve_observable(name),
            StationaryBackend::Master(e) => e.resolve_observable(name),
            StationaryBackend::Kmc(e) => StationaryEngine::resolve_observable(e.as_ref(), name),
            StationaryBackend::Spice(e) => Ok(e.resolve_observable(name)?),
            StationaryBackend::Hybrid(e) => Ok(e.resolve_observable(name)?),
        }
    }

    fn stationary_currents(
        &self,
        controls: &[(ControlId, f64)],
        observables: &[ObservableId],
        seed: u64,
    ) -> Result<Vec<f64>, SimError> {
        match self {
            StationaryBackend::Analytic(e) => e.stationary_currents(controls, observables, seed),
            StationaryBackend::Master(e) => e.stationary_currents(controls, observables, seed),
            StationaryBackend::Kmc(e) => {
                StationaryEngine::stationary_currents(e.as_ref(), controls, observables, seed)
            }
            StationaryBackend::Spice(e) => {
                Ok(e.stationary_currents(controls, observables, seed)?)
            }
            StationaryBackend::Hybrid(e) => {
                Ok(e.stationary_currents(controls, observables, seed)?)
            }
        }
    }
}

/// The compiled transient backend of a deck.
#[derive(Debug, Clone)]
pub enum TransientBackend {
    /// The analytic SET, lifted quasi-statically.
    Analytic(QuasiStatic<AnalyticDeckEngine>),
    /// The master-equation solver, lifted quasi-statically.
    Master(QuasiStatic<SourceMapped<MasterEquation>>),
    /// The kinetic Monte-Carlo event clock (boxed: the simulator
    /// carries its live-state buffers inline).
    Kmc(Box<SourceMapped<MonteCarloSimulator>>),
    /// The SPICE backward-Euler integrator.
    Spice(SpiceTransientEngine),
    /// The hybrid co-simulator stepped along the stimulus.
    Hybrid(HybridTransientEngine),
}

impl TransientEngine for TransientBackend {
    type Error = SimError;

    fn engine_name(&self) -> &'static str {
        match self {
            TransientBackend::Analytic(_) => "analytic-set (quasi-static)",
            TransientBackend::Master(_) => "master-equation (quasi-static)",
            TransientBackend::Kmc(e) => TransientEngine::engine_name(e.as_ref()),
            TransientBackend::Spice(e) => e.engine_name(),
            TransientBackend::Hybrid(e) => e.engine_name(),
        }
    }

    fn resolve_drive(&self, name: &str) -> Result<ControlId, SimError> {
        match self {
            TransientBackend::Analytic(e) => e.resolve_drive(name),
            TransientBackend::Master(e) => e.resolve_drive(name),
            TransientBackend::Kmc(e) => e.resolve_drive(name),
            TransientBackend::Spice(e) => Ok(e.resolve_drive(name)?),
            TransientBackend::Hybrid(e) => Ok(e.resolve_drive(name)?),
        }
    }

    fn resolve_observable(&self, name: &str) -> Result<ObservableId, SimError> {
        match self {
            TransientBackend::Analytic(e) => TransientEngine::resolve_observable(e, name),
            TransientBackend::Master(e) => TransientEngine::resolve_observable(e, name),
            TransientBackend::Kmc(e) => TransientEngine::resolve_observable(e.as_ref(), name),
            TransientBackend::Spice(e) => Ok(TransientEngine::resolve_observable(e, name)?),
            TransientBackend::Hybrid(e) => Ok(TransientEngine::resolve_observable(e, name)?),
        }
    }

    fn transient_currents(
        &self,
        drives: &[(ControlId, Waveform)],
        observables: &[ObservableId],
        times: &[f64],
        seed: u64,
    ) -> Result<TransientTrace, SimError> {
        match self {
            TransientBackend::Analytic(e) => e.transient_currents(drives, observables, times, seed),
            TransientBackend::Master(e) => e.transient_currents(drives, observables, times, seed),
            TransientBackend::Kmc(e) => e.transient_currents(drives, observables, times, seed),
            TransientBackend::Spice(e) => {
                Ok(e.transient_currents(drives, observables, times, seed)?)
            }
            TransientBackend::Hybrid(e) => {
                Ok(e.transient_currents(drives, observables, times, seed)?)
            }
        }
    }
}

/// Builds the stationary backend for the chosen engine.
///
/// # Errors
///
/// Propagates lowering and construction errors from the engine layers.
pub fn build_stationary(
    netlist: &Netlist,
    options: &AnalysisOptions,
    choice: crate::plan::EngineChoice,
) -> Result<StationaryBackend, SimError> {
    use crate::plan::EngineChoice;
    Ok(match choice {
        EngineChoice::Analytic => {
            StationaryBackend::Analytic(analytic_from_netlist(netlist, options.temperature)?)
        }
        EngineChoice::Master => {
            StationaryBackend::Master(SourceMapped::new(master_solver(netlist, options)?, netlist))
        }
        EngineChoice::Kmc => StationaryBackend::Kmc(Box::new(SourceMapped::new(
            kmc_simulator(netlist, options)?,
            netlist,
        ))),
        EngineChoice::Spice => StationaryBackend::Spice(SpiceDcEngine::new(
            Circuit::with_temperature(netlist, options.temperature)?,
            NewtonOptions::default(),
        )),
        EngineChoice::Hybrid => StationaryBackend::Hybrid(HybridStationaryEngine::new(
            netlist,
            hybrid_options(options)?,
        )?),
    })
}

/// Builds the transient backend for the chosen engine. `max_step` is the
/// integration ceiling of the SPICE backward-Euler backend (the `.tran`
/// step); the event-driven and quasi-static backends sample directly.
///
/// # Errors
///
/// Propagates lowering and construction errors from the engine layers.
pub fn build_transient(
    netlist: &Netlist,
    options: &AnalysisOptions,
    choice: crate::plan::EngineChoice,
    max_step: f64,
) -> Result<TransientBackend, SimError> {
    use crate::plan::EngineChoice;
    Ok(match choice {
        EngineChoice::Analytic => TransientBackend::Analytic(QuasiStatic::new(
            analytic_from_netlist(netlist, options.temperature)?,
        )),
        EngineChoice::Master => TransientBackend::Master(QuasiStatic::new(SourceMapped::new(
            master_solver(netlist, options)?,
            netlist,
        ))),
        EngineChoice::Kmc => TransientBackend::Kmc(Box::new(SourceMapped::new(
            kmc_simulator(netlist, options)?,
            netlist,
        ))),
        EngineChoice::Spice => TransientBackend::Spice(SpiceTransientEngine::new(
            Circuit::with_temperature(netlist, options.temperature)?,
            NewtonOptions::default(),
            max_step,
        )?),
        EngineChoice::Hybrid => TransientBackend::Hybrid(HybridTransientEngine::new(
            netlist,
            hybrid_options(options)?,
        )?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_netlist::parse_deck;
    use se_units::constants::E;

    const SET_DECK: &str = "single SET\nVD drain 0 1m\nVG gate 0 0\nJ1 drain island C=0.5a R=100k\nJ2 island 0 C=0.5a R=100k\nCG gate island 1a\n";

    #[test]
    fn source_map_translates_sweep_names() {
        let netlist = parse_deck(SET_DECK).unwrap();
        let engine = SourceMapped::new(
            master_solver(&netlist, &AnalysisOptions::default()).unwrap(),
            &netlist,
        );
        // Source names and electrode names both resolve, to the same handle.
        let by_source = engine.resolve_control("VD").unwrap();
        let by_node = engine.resolve_control("drain").unwrap();
        assert_eq!(by_source, by_node);
        assert!(engine.resolve_control("VX").is_err());
        assert!(StationaryEngine::resolve_observable(&engine, "J1").is_ok());
    }

    #[test]
    fn analytic_lowering_matches_the_master_equation() {
        let netlist = parse_deck(SET_DECK).unwrap();
        let options = AnalysisOptions::default();
        let analytic = analytic_from_netlist(&netlist, options.temperature).unwrap();
        let master = SourceMapped::new(master_solver(&netlist, &options).unwrap(), &netlist);

        let vg_peak = E / (2.0 * 1e-18);
        for (engine_currents, label) in [
            (
                {
                    let gate = analytic.resolve_control("VG").unwrap();
                    let j1 = analytic.resolve_observable("J1").unwrap();
                    analytic
                        .stationary_current(&[(gate, vg_peak)], j1, 0)
                        .unwrap()
                },
                "analytic",
            ),
            (
                {
                    let gate = master.resolve_control("VG").unwrap();
                    let j1 = StationaryEngine::resolve_observable(&master, "J1").unwrap();
                    master
                        .stationary_current(&[(gate, vg_peak)], j1, 0)
                        .unwrap()
                },
                "master",
            ),
        ] {
            assert!(
                engine_currents > 0.0,
                "{label} current at the conductance peak must be positive"
            );
        }

        let gate_a = analytic.resolve_control("VG").unwrap();
        let j1_a = analytic.resolve_observable("J1").unwrap();
        let i_analytic = analytic
            .stationary_current(&[(gate_a, vg_peak)], j1_a, 0)
            .unwrap();
        let gate_m = master.resolve_control("VG").unwrap();
        let j1_m = StationaryEngine::resolve_observable(&master, "J1").unwrap();
        let i_master = master
            .stationary_current(&[(gate_m, vg_peak)], j1_m, 0)
            .unwrap();
        let rel = (i_analytic - i_master).abs() / i_master.abs();
        assert!(
            rel < 0.05,
            "analytic {i_analytic} vs master {i_master} ({rel:.3} rel)"
        );
        // Both junctions report the same series current, same sign.
        let j2_a = analytic.resolve_observable("J2").unwrap();
        let i_j2 = analytic
            .stationary_current(&[(gate_a, vg_peak)], j2_a, 0)
            .unwrap();
        assert_eq!(i_j2, i_analytic);
    }

    #[test]
    fn hybrid_options_honour_events_and_reject_contradictions() {
        let events = AnalysisOptions {
            kmc_events: Some(12_000),
            seed: 9,
            ..AnalysisOptions::default()
        };
        let built = hybrid_options(&events).unwrap();
        assert_eq!(
            built.engine,
            IslandEngine::MonteCarlo {
                events: 12_000,
                seed: 9
            }
        );

        let window = AnalysisOptions {
            master_window: Some(5),
            ..AnalysisOptions::default()
        };
        assert_eq!(
            hybrid_options(&window).unwrap().engine,
            IslandEngine::Master { window: 5 }
        );

        let both = AnalysisOptions {
            kmc_events: Some(1000),
            master_window: Some(5),
            ..AnalysisOptions::default()
        };
        let err = hybrid_options(&both).unwrap_err();
        assert!(err.to_string().contains("only use one"), "{err}");

        let max_states = AnalysisOptions {
            master_max_states: Some(1000),
            ..AnalysisOptions::default()
        };
        let err = hybrid_options(&max_states).unwrap_err();
        assert!(err.to_string().contains("maxstates"), "{err}");

        let solver = AnalysisOptions {
            solver: Some(SolverPreference::GaussSeidel),
            ..AnalysisOptions::default()
        };
        let err = hybrid_options(&solver).unwrap_err();
        assert!(err.to_string().contains("solver"), "{err}");
    }

    #[test]
    fn deck_solver_preference_reaches_the_master_equation() {
        let netlist = parse_deck(SET_DECK).unwrap();
        let default = master_solver(&netlist, &AnalysisOptions::default()).unwrap();
        assert_eq!(
            default.solver(),
            StationarySolver::Krylov(Preconditioner::Ilu0)
        );
        for (preference, expected) in [
            (
                SolverPreference::KrylovIlu0,
                StationarySolver::Krylov(Preconditioner::Ilu0),
            ),
            (
                SolverPreference::KrylovJacobi,
                StationarySolver::Krylov(Preconditioner::Jacobi),
            ),
            (SolverPreference::GaussSeidel, StationarySolver::GaussSeidel),
        ] {
            let options = AnalysisOptions {
                solver: Some(preference),
                ..AnalysisOptions::default()
            };
            let solver = master_solver(&netlist, &options).unwrap();
            assert_eq!(solver.solver(), expected);
        }
    }

    #[test]
    fn analytic_lowering_rejects_non_set_shapes() {
        // Double dot: two islands.
        let double = parse_deck(
            "dd\nVS s 0 1m\nVG1 g1 0 0\nVG2 g2 0 0\nJ1 s i1 C=1a R=100k\nJ2 i1 i2 C=1a R=100k\nJ3 i2 0 C=1a R=100k\nCG1 g1 i1 0.5a\nCG2 g2 i2 0.5a\n",
        )
        .unwrap();
        let err = analytic_from_netlist(&double, 1.0).unwrap_err();
        assert!(err.to_string().contains("island"), "{err}");

        // Mixed deck: load resistor.
        let mixed = parse_deck(
            "mixed\nVDD vdd 0 5m\nVG gate 0 0\nRL vdd drain 10meg\nJ1 drain island C=0.5a R=100k\nJ2 island 0 C=0.5a R=100k\nCG gate island 1a\n",
        )
        .unwrap();
        let err = analytic_from_netlist(&mixed, 1.0).unwrap_err();
        assert!(err.to_string().contains("RL"), "{err}");

        // No grounded junction.
        let floating = parse_deck(
            "f\nVD d 0 1m\nVS s 0 0\nVG g 0 0\nJ1 d island C=0.5a R=100k\nJ2 island s C=0.5a R=100k\nCG g island 1a\n",
        )
        .unwrap();
        let err = analytic_from_netlist(&floating, 1.0).unwrap_err();
        assert!(
            err.to_string().contains("grounded source junction"),
            "{err}"
        );
    }
}
