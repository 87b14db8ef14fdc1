//! Incremental event-rate maintenance with O(log E) tree selection.
//!
//! [`RateContext::fill_rates`] re-evaluates every candidate event from
//! scratch after each tunnel event — O(E) work per step, which pins the
//! Monte-Carlo loop's cost to the circuit size. This module exploits two
//! structural facts of orthodox theory to avoid that:
//!
//! 1. **ΔF is linear in the island occupation.** Firing an a→b event on
//!    junction `f` shifts every junction `j`'s ΔF potential-gap term by the
//!    build-time constant [`TunnelSystem::junction_coupling`]`(f, j)`
//!    (negated for b→a), so the table maintains every ΔF by one axpy over
//!    `f`'s *strong list* ([`TunnelSystem::junction_strong_couplings`]) —
//!    the junctions whose coupling is non-negligible — and recomputes the
//!    Boltzmann kernel only for those events. Couplings decay with
//!    electrostatic distance, so the strong list is short for large arrays
//!    and the per-event cost is O(strong + log E), not O(E).
//! 2. **Unlisted couplings are negligible, and frozen events are free.**
//!    An event outside every fired strong list keeps its ΔF and rate
//!    verbatim; the drift such an event can accumulate between two exact
//!    refreshes is bounded by [`TunnelSystem::coupling_margin`], a few
//!    parts in 10⁷ of the strongest coupling. An event whose maintained ΔF
//!    sits past the frozen cutoff costs one compare — its rate is exactly
//!    `0.0`, no kernel evaluation.
//!
//! The rates live in the leaves of a fixed-shape [`PartialSumTree`],
//! giving an O(log E) total and an O(log E) inverse-CDF selection.
//!
//! On 2-D arrays the strong lists are dense, and nearly every event they
//! touch sits inside the Boltzmann window, where its rate needs the `exp`
//! polynomial and a division. So the maintenance runs as three passes over
//! the fired junction's strong list rather than one fused loop:
//!
//! 1. **Axpy and compaction.** Each listed ΔF is shifted in place. Every
//!    directed event inside the frozen cutoff, or still holding a non-zero
//!    leaf, is appended to contiguous per-table scratch (ΔF, prefactor,
//!    leaf index). The append is branch-free: the candidate is written at
//!    the cursor, and the cursor advances by the keep flag.
//! 2. **Rates.** One contiguous loop evaluates the staged events:
//!    `rate_from_parts_branchfree`, then the `ΔF > cutoff → 0` select. It
//!    is bit for bit the `fill_rates` cutoff-then-kernel expression, and
//!    it auto-vectorizes. At T = 0 the same loop runs `rate_from_parts`.
//! 3. **Scatter.** The rates are written into their leaves in ascending
//!    leaf order. A dense window is followed by a full tree rebuild; a
//!    sparse one records, also branch-free, the leaves whose bits changed
//!    and fixes up only their ancestors. Both give the same bits.
//!
//! A refill stages every in-window event and runs the same rate pass, so
//! the table has one rate-evaluation routine. Frozen events with a zero
//! leaf are never staged; on a cold chain, where only a handful of the
//! touched events are in the window, that keeps the pass as cheap as the
//! compare it replaces.
//!
//! Synchronisation contract: the table tracks the [`LiveState`] generation
//! counter. Drive/background syncs, explicit refreshes and the periodic
//! exact refresh all bump it, and the table answers by refilling from
//! scratch — every ΔF recomputed from the freshly solved potentials with
//! the very expression `fill_rates` uses. The deterministic refresh
//! cadence that bounds the potential drift therefore bounds the rate-table
//! drift the same way, and at every refill the table is bit-identical to a
//! `fill_rates` pass (pinned by the proptests in
//! `tests/integration_hotpath.rs`). Between refills the maintained rates
//! are a pure function of the refill state and the fired-event sequence,
//! so runs are bit-reproducible; they differ from a per-step `fill_rates`
//! in final ulps (axpy association) — which, together with the tree
//! total's pairwise association, makes the kernel revision trace-visible
//! (see `docs/DETERMINISM.md` §10).

use crate::batch::BatchedLiveState;
use crate::live::{LiveState, RateContext};
use crate::rates::{rate_from_parts, rate_from_parts_branchfree};
use crate::system::{Direction, TunnelEvent, TunnelSystem};
use se_numeric::partial_sum::PartialSumTree;
use se_units::constants::E;

/// Everything a ΔF/rate evaluation needs, gathered once per entry point so
/// the per-junction routines take one borrow instead of seven.
struct EvalParams<'a> {
    endpoints: &'a [(usize, usize)],
    self_energies: &'a [f64],
    prefactors: &'a [f64],
    kt: f64,
    inv_kt: f64,
    /// The `fill_rates` frozen cutoff: above it the rate is exactly zero.
    cutoff: f64,
    /// Endpoint-potential storage (flat scalar buffer or SoA planes).
    phi: &'a [f64],
    /// Distance between consecutive endpoints in `phi` (1 for the scalar
    /// buffer, the replica count for the batched planes).
    stride: usize,
    /// Lane offset inside each endpoint's slot (0 for scalar).
    lane: usize,
}

impl<'a> EvalParams<'a> {
    fn new(ctx: &'a RateContext, phi: &'a [f64], stride: usize, lane: usize) -> Self {
        EvalParams {
            endpoints: ctx.endpoints(),
            self_energies: ctx.self_energies(),
            prefactors: ctx.prefactors(),
            kt: ctx.kt(),
            inv_kt: ctx.inv_kt(),
            cutoff: ctx.frozen_cutoff(),
            phi,
            stride,
            lane,
        }
    }

    /// Both directed ΔF values of junction `j` from the live potentials —
    /// operation for operation the `fill_rates` expression.
    #[inline]
    fn deltas(&self, j: usize) -> (f64, f64) {
        let (ia, ib) = self.endpoints[j];
        let phi_gap =
            E * (self.phi[ia * self.stride + self.lane] - self.phi[ib * self.stride + self.lane]);
        let self_energy = self.self_energies[j];
        (phi_gap + self_energy, self_energy - phi_gap)
    }
}

/// The rate pass: overwrites each ΔF in `window` with its directed rate —
/// the `fill_rates` cutoff-then-kernel expression, bit for bit. For
/// `kt > 0` the kernel is [`rate_from_parts_branchfree`] (bitwise equal to
/// [`rate_from_parts`]) followed by the `ΔF > cutoff → 0` select, so the
/// loop is straight-line arithmetic over two contiguous slices and
/// auto-vectorizes; `kt = 0` runs the same loop over the branchy kernel,
/// whose zero-temperature limit is a sign test anyway.
fn window_rates(window: &mut [f64], prefactors: &[f64], kt: f64, inv_kt: f64, cutoff: f64) {
    debug_assert_eq!(window.len(), prefactors.len());
    if kt > 0.0 {
        for (slot, &prefactor) in window.iter_mut().zip(prefactors) {
            let delta_f = *slot;
            let rate = rate_from_parts_branchfree(delta_f, prefactor, kt, inv_kt);
            *slot = if delta_f > cutoff { 0.0 } else { rate };
        }
    } else {
        for (slot, &prefactor) in window.iter_mut().zip(prefactors) {
            let delta_f = *slot;
            let rate = rate_from_parts(delta_f, prefactor, kt, inv_kt);
            *slot = if delta_f > cutoff { 0.0 } else { rate };
        }
    }
}

/// Contiguous scratch for the events whose rate a pass must evaluate: the
/// compacted ΔF (overwritten in place by its rate), the junction prefactor
/// and the tree leaf, one slot per directed event. Sized for every event
/// so a refill fits, and written branch-free: each candidate is stored at
/// the cursor, and the cursor advances only if the candidate is kept. The
/// scatter compacts the leaf column once more, in place, down to the
/// leaves whose bits changed.
#[derive(Debug, Clone)]
struct Window {
    values: Vec<f64>,
    prefactors: Vec<f64>,
    leaves: Vec<u32>,
}

impl Window {
    fn new(events: usize) -> Self {
        Window {
            values: vec![0.0; events],
            prefactors: vec![0.0; events],
            leaves: vec![0; events],
        }
    }

    /// Stores directed event `leaf` at cursor `n` and returns the cursor,
    /// advanced past it if `keep`.
    #[inline(always)]
    fn stage(&mut self, n: usize, leaf: usize, delta_f: f64, prefactor: f64, keep: bool) -> usize {
        self.values[n] = delta_f;
        self.prefactors[n] = prefactor;
        self.leaves[n] = leaf as u32;
        n + usize::from(keep)
    }
}

/// The engine-agnostic core: the maintained ΔF vector and the partial-sum
/// tree whose leaves are the event rates in canonical
/// [`TunnelSystem::event`] order. The scalar and batched wrappers differ
/// only in how they address the potential storage during refills, so both
/// run literally this code — which is what keeps a batched lane's
/// maintained rates bit-identical to the standalone scalar table's.
#[derive(Debug, Clone)]
struct TableCore {
    tree: PartialSumTree,
    /// Maintained directed ΔF values (joule), interleaved `[a→b, b→a]` per
    /// junction — axpy-updated between refills, recomputed exactly from the
    /// live potentials at every refill.
    df: Vec<f64>,
    /// The events whose rates the current pass evaluates.
    window: Window,
    /// The live-state generation the table was last filled against.
    seen_generation: u64,
}

impl TableCore {
    fn new(junctions: usize) -> Self {
        TableCore {
            tree: PartialSumTree::new(2 * junctions),
            df: vec![0.0; 2 * junctions],
            window: Window::new(2 * junctions),
            seen_generation: 0,
        }
    }

    /// Passes 2 and 3 over the first `n` staged events: evaluates their
    /// rates in one contiguous [`window_rates`] loop, writes each into its
    /// leaf, and brings the tree up to date. Past ~1/8 of the leaves (or
    /// when `rebuild` is forced) a branch-free sequential rebuild is
    /// cheaper than the scattered partial fix-up; the two produce
    /// bit-identical nodes (the tree's recompute-never-adjust contract),
    /// so the switch is invisible to totals, selections and traces, and
    /// only the fix-up needs to know which leaves changed.
    fn evaluate_window(&mut self, n: usize, p: &EvalParams, rebuild: bool) {
        let window = &mut self.window;
        window_rates(
            &mut window.values[..n],
            &window.prefactors[..n],
            p.kt,
            p.inv_kt,
            p.cutoff,
        );
        if rebuild || 8 * n >= self.tree.len() {
            for (&leaf, &rate) in window.leaves[..n].iter().zip(&window.values[..n]) {
                self.tree.set_leaf(leaf as usize, rate);
            }
            self.tree.rebuild();
            return;
        }
        // Branch-free like the staging: the leaf indices whose bits
        // changed are compacted in place to the front of `window.leaves`.
        // Staging order is ascending leaf order, so that prefix is sorted,
        // as `update_leaves` requires.
        let mut changed = 0;
        for i in 0..n {
            let leaf = window.leaves[i];
            let rate = window.values[i];
            let old = self.tree.leaf(leaf as usize);
            self.tree.set_leaf(leaf as usize, rate);
            window.leaves[changed] = leaf;
            changed += usize::from(rate.to_bits() != old.to_bits());
        }
        self.tree.update_leaves(&window.leaves[..changed]);
    }

    /// Full refill: recompute every ΔF and rate from the live potentials
    /// and rebuild the tree — the table twin of an exact potential refresh.
    /// Every leaf is zeroed and only in-window events are staged, so the
    /// rates come from the same [`window_rates`] pass as an event update.
    fn refill(&mut self, p: &EvalParams, generation: u64) {
        let mut n = 0;
        for j in 0..self.df.len() / 2 {
            let (df_ab, df_ba) = p.deltas(j);
            let prefactor = p.prefactors[j];
            self.df[2 * j] = df_ab;
            self.df[2 * j + 1] = df_ba;
            self.tree.set_leaf(2 * j, 0.0);
            self.tree.set_leaf(2 * j + 1, 0.0);
            n = self
                .window
                .stage(n, 2 * j, df_ab, prefactor, df_ab <= p.cutoff);
            n = self
                .window
                .stage(n, 2 * j + 1, df_ba, prefactor, df_ba <= p.cutoff);
        }
        self.evaluate_window(n, p, true);
        self.seen_generation = generation;
    }

    /// Post-event maintenance. If the live state refreshed (or synced)
    /// under us, refill from the fresh potentials; otherwise three passes
    /// over the fired junction's strong list:
    ///
    /// 1. the axpy — every listed ΔF shifts by its build-time coupling
    ///    constant — fused with the branch-free compaction of the events
    ///    that need a rate into the contiguous window;
    /// 2. one vectorized rate loop over the window;
    /// 3. the scatter of the new rates into the tree leaves, followed by
    ///    the tree update.
    fn apply_event(
        &mut self,
        system: &TunnelSystem,
        fired: usize,
        sign: f64,
        p: &EvalParams,
        generation: u64,
    ) {
        if generation != self.seen_generation {
            self.refill(p, generation);
            return;
        }
        let strong = system.junction_strong_couplings(fired);
        let values = system.junction_strong_coupling_values(fired);
        let mut n = 0;
        for (&j, &g) in strong.iter().zip(values) {
            let j = j as usize;
            let shift = sign * g;
            let prefactor = p.prefactors[j];
            let df_ab = self.df[2 * j] + shift;
            let df_ba = self.df[2 * j + 1] - shift;
            self.df[2 * j] = df_ab;
            self.df[2 * j + 1] = df_ba;
            // An event needs a rate if it is inside the frozen cutoff, or
            // if it still holds a non-zero leaf (it just froze, and the
            // leaf must drop to 0.0). A frozen event whose leaf is already
            // zero keeps it verbatim and costs nothing past this compare.
            let keep_ab = (df_ab <= p.cutoff) | (self.tree.leaf(2 * j).to_bits() != 0);
            let keep_ba = (df_ba <= p.cutoff) | (self.tree.leaf(2 * j + 1).to_bits() != 0);
            n = self.window.stage(n, 2 * j, df_ab, prefactor, keep_ab);
            n = self.window.stage(n, 2 * j + 1, df_ba, prefactor, keep_ba);
        }
        self.evaluate_window(n, p, false);
    }

    fn select(&self, target: f64) -> usize {
        let idx = self.tree.descend(target);
        if self.tree.leaf(idx) > 0.0 {
            return idx;
        }
        // Final-bucket clamp: floating-point round-off steered the descent
        // onto a zero-rate leaf (or past the last event); fall back to the
        // last positive-rate event, mirroring the linear scan's fallback.
        (0..self.tree.len())
            .rev()
            .find(|&e| self.tree.leaf(e) > 0.0)
            .expect("the total rate was positive")
    }
}

/// The sign of a fired event's coupling shift: +1 for a→b, −1 for b→a —
/// the same convention [`LiveState::apply`] uses for its potential axpy.
fn event_sign(event: TunnelEvent) -> f64 {
    match event.direction {
        Direction::AToB => 1.0,
        Direction::BToA => -1.0,
    }
}

/// Incrementally maintained event rates for a scalar [`LiveState`] walk.
///
/// Construct once, then per Monte-Carlo step: [`EventRateTable::sync`]
/// (after any system mutation), read [`EventRateTable::total`], select with
/// [`EventRateTable::select`], apply the event to the live state, and call
/// [`EventRateTable::apply_event`] — O(strong list + log E) instead of
/// `fill_rates`' O(E).
///
/// # Example
///
/// ```
/// use se_orthodox::system::{ChargeState, TunnelSystemBuilder};
/// use se_orthodox::{EventRateTable, LiveState, RateContext};
///
/// # fn main() -> Result<(), se_orthodox::OrthodoxError> {
/// let mut b = TunnelSystemBuilder::new();
/// let island = b.island("dot", 0.0);
/// let drain = b.external("drain", 0.25);
/// let source = b.external("source", 0.0);
/// b.junction("JD", drain, island, 0.5e-18, 100e3);
/// b.junction("JS", island, source, 0.5e-18, 100e3);
/// let system = b.build()?;
/// let ctx = RateContext::new(&system, 1.0)?;
/// let mut live = LiveState::new(&system, ChargeState::neutral(1));
/// let mut table = EventRateTable::new(&system, &ctx, &live);
///
/// let event = system.event(table.select(0.5 * table.total()));
/// live.apply(&system, event);
/// table.apply_event(&system, &ctx, &live, event);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EventRateTable {
    core: TableCore,
}

impl EventRateTable {
    /// Builds and fills the table for the live state's current potentials.
    #[must_use]
    pub fn new(_system: &TunnelSystem, ctx: &RateContext, live: &LiveState) -> Self {
        let mut table = EventRateTable {
            core: TableCore::new(ctx.endpoints().len()),
        };
        table.core.refill(
            &EvalParams::new(ctx, live.endpoint_potentials(), 1, 0),
            live.generation(),
        );
        table
    }

    /// Refills the table if the live state was refreshed or synced since
    /// the last fill (detected via the generation counter). Returns whether
    /// a refill happened. Call after [`LiveState::sync`], before reading
    /// totals.
    pub fn sync(&mut self, _system: &TunnelSystem, ctx: &RateContext, live: &LiveState) -> bool {
        if live.generation() == self.core.seen_generation {
            return false;
        }
        self.core.refill(
            &EvalParams::new(ctx, live.endpoint_potentials(), 1, 0),
            live.generation(),
        );
        true
    }

    /// Folds a just-applied event into the table — call immediately after
    /// [`LiveState::apply`] with the same event. Handles the periodic exact
    /// refresh transparently (a refresh during the apply triggers a full
    /// refill from the fresh potentials, the same deterministic cadence as
    /// the potentials themselves).
    pub fn apply_event(
        &mut self,
        system: &TunnelSystem,
        ctx: &RateContext,
        live: &LiveState,
        event: TunnelEvent,
    ) {
        self.core.apply_event(
            system,
            event.junction,
            event_sign(event),
            &EvalParams::new(ctx, live.endpoint_potentials(), 1, 0),
            live.generation(),
        );
    }

    /// The total rate — the partial-sum tree's root, a fixed pairwise
    /// reduction of the leaf rates (associates differently from
    /// [`RateContext::fill_rates`]' sequential fold; see the module docs).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.core.tree.total()
    }

    /// The maintained rate of canonical event `index`.
    #[must_use]
    pub fn rate(&self, index: usize) -> f64 {
        self.core.tree.leaf(index)
    }

    /// The maintained ΔF of canonical event `index`, in joule.
    #[must_use]
    pub fn delta_f(&self, index: usize) -> f64 {
        self.core.df[index]
    }

    /// Number of candidate events (2 × junctions).
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.core.tree.len()
    }

    /// Inverse-CDF selection: the canonical event index whose cumulative
    /// bucket contains `target ∈ [0, total)`, by O(log E) tree descent,
    /// with the final-bucket clamp to the last positive-rate event when
    /// round-off leaves `target` above every accumulated sum.
    ///
    /// # Panics
    ///
    /// Panics if every rate is zero (callers gate on `total() > 0`).
    #[must_use]
    pub fn select(&self, target: f64) -> usize {
        self.core.select(target)
    }
}

/// One lane's incrementally maintained event rates over a
/// [`BatchedLiveState`]'s SoA planes.
///
/// Identical maintenance code to [`EventRateTable`] — only the potential
/// addressing differs (plane stride and lane offset instead of the flat
/// scalar buffer) — so lane `r`'s table is bit-for-bit the table a
/// standalone scalar walk of the same event sequence maintains.
#[derive(Debug, Clone)]
pub struct BatchedEventRateTable {
    core: TableCore,
    lane: usize,
}

impl BatchedEventRateTable {
    /// Builds and fills lane `lane`'s table from the batched potentials.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[must_use]
    pub fn new(
        _system: &TunnelSystem,
        ctx: &RateContext,
        live: &BatchedLiveState,
        lane: usize,
    ) -> Self {
        assert!(lane < live.replicas(), "lane {lane} out of range");
        let mut table = BatchedEventRateTable {
            core: TableCore::new(ctx.endpoints().len()),
            lane,
        };
        table.core.refill(
            &EvalParams::new(ctx, live.endpoint_planes(), live.replicas(), lane),
            live.generation(lane),
        );
        table
    }

    /// The lane this table maintains.
    #[must_use]
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// Lane twin of [`EventRateTable::sync`].
    pub fn sync(
        &mut self,
        _system: &TunnelSystem,
        ctx: &RateContext,
        live: &BatchedLiveState,
    ) -> bool {
        if live.generation(self.lane) == self.core.seen_generation {
            return false;
        }
        self.core.refill(
            &EvalParams::new(ctx, live.endpoint_planes(), live.replicas(), self.lane),
            live.generation(self.lane),
        );
        true
    }

    /// Lane twin of [`EventRateTable::apply_event`] — call after the lane's
    /// event was applied (individually or via a lockstep `apply_all`).
    pub fn apply_event(
        &mut self,
        system: &TunnelSystem,
        ctx: &RateContext,
        live: &BatchedLiveState,
        event: TunnelEvent,
    ) {
        self.core.apply_event(
            system,
            event.junction,
            event_sign(event),
            &EvalParams::new(ctx, live.endpoint_planes(), live.replicas(), self.lane),
            live.generation(self.lane),
        );
    }

    /// Lane twin of [`EventRateTable::total`].
    #[must_use]
    pub fn total(&self) -> f64 {
        self.core.tree.total()
    }

    /// Lane twin of [`EventRateTable::rate`].
    #[must_use]
    pub fn rate(&self, index: usize) -> f64 {
        self.core.tree.leaf(index)
    }

    /// Lane twin of [`EventRateTable::delta_f`].
    #[must_use]
    pub fn delta_f(&self, index: usize) -> f64 {
        self.core.df[index]
    }

    /// Lane twin of [`EventRateTable::event_count`].
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.core.tree.len()
    }

    /// Lane twin of [`EventRateTable::select`].
    ///
    /// # Panics
    ///
    /// Panics if every rate is zero (callers gate on `total() > 0`).
    #[must_use]
    pub fn select(&self, target: f64) -> usize {
        self.core.select(target)
    }
}

impl RateContext {
    /// The incremental sibling of [`RateContext::fill_rates`]: folds a
    /// just-applied event into `table` instead of refilling every rate.
    /// Every strongly-coupled ΔF shifts by its build-time coupling constant
    /// (one axpy), the Boltzmann kernel is recomputed only for those
    /// events, exact-zero (sub-threshold) couplings and frozen events past
    /// the cutoff skip entirely, and the partial-sum tree is fixed up along
    /// the changed leaves. Delegates to [`EventRateTable::apply_event`].
    pub fn apply_event_rates(
        &self,
        system: &TunnelSystem,
        live: &LiveState,
        table: &mut EventRateTable,
        event: TunnelEvent,
    ) {
        table.apply_event(system, self, live, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::{MAX_EXPONENT, SERIES_WINDOW};
    use crate::system::{ChargeState, TunnelSystemBuilder};
    use proptest::prelude::*;

    /// Two-island chain with a gate (the `live` module's test circuit).
    fn chain(vd: f64, vg: f64) -> TunnelSystem {
        let mut b = TunnelSystemBuilder::new();
        let i0 = b.island("i0", 0.0);
        let i1 = b.island("i1", 0.1);
        let drain = b.external("drain", vd);
        let source = b.external("source", 0.0);
        let gate = b.external("gate", vg);
        b.junction("J0", drain, i0, 0.7e-18, 80e3);
        b.junction("J1", i0, i1, 0.4e-18, 120e3);
        b.junction("J2", i1, source, 0.6e-18, 90e3);
        b.capacitor("Cg0", gate, i0, 0.3e-18);
        b.capacitor("Cg1", gate, i1, 0.5e-18);
        b.build().unwrap()
    }

    /// The per-event `fill_rates` expression the window pass must
    /// reproduce: the frozen-cutoff compare, then the branchy kernel.
    fn reference_rate(delta_f: f64, prefactor: f64, kt: f64, inv_kt: f64, cutoff: f64) -> f64 {
        if delta_f > cutoff {
            0.0
        } else {
            rate_from_parts(delta_f, prefactor, kt, inv_kt)
        }
    }

    /// `value` moved `steps` ulps (towards +∞ for positive `steps`).
    fn ulps_from(value: f64, steps: i64) -> f64 {
        (0..steps.unsigned_abs()).fold(value, |v, _| {
            if steps > 0 {
                v.next_up()
            } else {
                v.next_down()
            }
        })
    }

    /// Kernel-cascade boundaries in ΔF at thermal energy `kt`: the frozen
    /// cutoff, the `±MAX_EXPONENT` overflow guards and the series window
    /// (each both as a ΔF product and as the `x = ΔF·inv_kt` threshold it
    /// implies), and both signed zeros.
    fn boundaries(kt: f64, inv_kt: f64, cutoff: f64) -> Vec<f64> {
        let from_x = |x: f64| if inv_kt > 0.0 { x / inv_kt } else { 0.0 };
        vec![
            cutoff,
            -cutoff,
            from_x(MAX_EXPONENT),
            from_x(-MAX_EXPONENT),
            MAX_EXPONENT * kt,
            -MAX_EXPONENT * kt,
            from_x(SERIES_WINDOW),
            from_x(-SERIES_WINDOW),
            SERIES_WINDOW * kt,
            -SERIES_WINDOW * kt,
            0.0,
            -0.0,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The contiguous window pass against the per-event reference, bit
        /// for bit: ΔF drawn on and within four ulps of every boundary of
        /// the cascade, plus uniform draws across the whole thermal range,
        /// at T = 0 and four finite temperatures. Batch lengths vary so
        /// both the vectorized body and the scalar remainder are covered.
        #[test]
        fn prop_window_pass_matches_the_reference_rate_bit_for_bit(
            temperature_index in 0usize..5,
            draws in proptest::collection::vec(0_usize..1_000_000, 1..70),
            spreads in proptest::collection::vec(-1.0_f64..1.0, 70),
        ) {
            let temperature = [0.0, 0.02, 0.1, 4.2, 300.0][temperature_index];
            let ctx = RateContext::new(&chain(2e-3, 0.05), temperature).unwrap();
            let (kt, inv_kt, cutoff) = (ctx.kt(), ctx.inv_kt(), ctx.frozen_cutoff());
            let anchors = boundaries(kt, inv_kt, cutoff);
            // At T = 0 the thermal scale vanishes; spread over meV instead.
            let energy_scale = if kt > 0.0 { kt } else { 1e-22 };
            let mut delta_fs = Vec::with_capacity(draws.len());
            let mut prefactors = Vec::with_capacity(draws.len());
            for (&draw, &spread) in draws.iter().zip(&spreads) {
                let slot = draw % (anchors.len() + 1);
                let delta_f = match anchors.get(slot) {
                    Some(&anchor) => ulps_from(anchor, (draw / 16 % 9) as i64 - 4),
                    None => spread * 2.0 * MAX_EXPONENT * energy_scale,
                };
                delta_fs.push(delta_f);
                prefactors.push(ctx.prefactors()[draw % ctx.prefactors().len()]);
            }
            let mut window = delta_fs.clone();
            window_rates(&mut window, &prefactors, kt, inv_kt, cutoff);
            for ((&rate, &delta_f), &prefactor) in window.iter().zip(&delta_fs).zip(&prefactors) {
                let expected = reference_rate(delta_f, prefactor, kt, inv_kt, cutoff);
                prop_assert_eq!(
                    rate.to_bits(),
                    expected.to_bits(),
                    "T = {} K, ΔF = {:e}: window {:e} vs reference {:e}",
                    temperature,
                    delta_f,
                    rate,
                    expected
                );
            }
        }
    }

    fn assert_table_matches_fill(
        system: &TunnelSystem,
        ctx: &RateContext,
        live: &LiveState,
        table: &EventRateTable,
        context: &str,
    ) {
        let mut rates = Vec::new();
        ctx.fill_rates(system, live, &mut rates);
        for (e, &expected) in rates.iter().enumerate() {
            assert_eq!(
                table.rate(e).to_bits(),
                expected.to_bits(),
                "{context}: event {e} rate diverged from fill_rates"
            );
        }
    }

    #[test]
    fn refills_match_fill_rates_bit_for_bit_over_event_walks() {
        // At every refill boundary — construction, forced refresh, drive
        // sync — the maintained rates are fill_rates' bits exactly, for any
        // temperature including T = 0 and whatever walk came before.
        for temperature in [0.0, 0.1, 1.0, 4.2] {
            let system = chain(2e-3, 0.05);
            let ctx = RateContext::new(&system, temperature).unwrap();
            let mut live = LiveState::new(&system, ChargeState::neutral(2));
            let mut table = EventRateTable::new(&system, &ctx, &live);
            assert_table_matches_fill(
                &system,
                &ctx,
                &live,
                &table,
                &format!("T = {temperature}, fresh"),
            );
            let mut x = 17_u64;
            for round in 0..5 {
                for _ in 0..200 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let event = system.event((x >> 33) as usize % system.event_count());
                    live.apply(&system, event);
                    table.apply_event(&system, &ctx, &live, event);
                }
                live.refresh(&system);
                assert!(table.sync(&system, &ctx, &live), "refresh forces a refill");
                assert_table_matches_fill(
                    &system,
                    &ctx,
                    &live,
                    &table,
                    &format!("T = {temperature}, round {round}"),
                );
            }
        }
    }

    #[test]
    fn axpy_maintenance_tracks_the_exact_rates_to_first_order() {
        // Between refills the maintained ΔFs differ from a fresh
        // recomputation only in final ulps (axpy association vs. the
        // potential-difference expression), so every non-negligible rate
        // must track fill_rates to far better than physical accuracy. This
        // pins the coupling-table sign convention: a sign error would be
        // off by whole Boltzmann factors after one event.
        for temperature in [0.1, 1.0] {
            let system = chain(2e-3, 0.05);
            let ctx = RateContext::new(&system, temperature).unwrap();
            let mut live = LiveState::new(&system, ChargeState::neutral(2));
            let mut table = EventRateTable::new(&system, &ctx, &live);
            let mut rates = Vec::new();
            let mut x = 29_u64;
            for step in 0..200 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let event = system.event((x >> 33) as usize % system.event_count());
                live.apply(&system, event);
                table.apply_event(&system, &ctx, &live, event);
                let total = ctx.fill_rates(&system, &live, &mut rates);
                for (e, &fresh) in rates.iter().enumerate() {
                    if fresh > 1e-12 * total {
                        let maintained = table.rate(e);
                        assert!(
                            (maintained - fresh).abs() <= 1e-9 * fresh,
                            "T = {temperature}, step {step}, event {e}: \
                             maintained {maintained:e} vs fresh {fresh:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn maintained_delta_f_crosses_the_frozen_cutoff_both_ways() {
        // Drive a walk long enough that some event's maintained ΔF crosses
        // the frozen cutoff in each direction — the rate must snap exactly
        // to 0.0 past the cutoff and come back non-zero below it, with no
        // refill in between.
        let system = chain(5e-3, 0.0);
        let ctx = RateContext::new(&system, 0.02).unwrap();
        let mut live = LiveState::new(&system, ChargeState::neutral(2));
        let mut table = EventRateTable::new(&system, &ctx, &live);
        let cutoff = ctx.frozen_cutoff();
        let mut froze = false;
        let mut thawed = false;
        let mut was_frozen: Vec<bool> = (0..table.event_count())
            .map(|e| table.delta_f(e) > cutoff)
            .collect();
        let mut x = 5_u64;
        for _ in 0..4000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let event = system.event((x >> 33) as usize % system.event_count());
            live.apply(&system, event);
            table.apply_event(&system, &ctx, &live, event);
            for (e, seen) in was_frozen.iter_mut().enumerate() {
                let frozen = table.delta_f(e) > cutoff;
                if frozen != *seen {
                    if frozen {
                        froze = true;
                        assert_eq!(table.rate(e), 0.0, "frozen event {e} must rate 0");
                    } else {
                        thawed = true;
                    }
                    *seen = frozen;
                }
            }
        }
        assert!(froze, "no event froze across the cutoff");
        assert!(thawed, "no event thawed across the cutoff");
    }

    #[test]
    fn sync_refills_after_drive_changes() {
        let mut system = chain(0.0, 0.0);
        let ctx = RateContext::new(&system, 1.0).unwrap();
        let mut live = LiveState::new(&system, ChargeState::neutral(2));
        let mut table = EventRateTable::new(&system, &ctx, &live);
        assert!(!table.sync(&system, &ctx, &live), "clean state: no refill");
        system.set_external_voltage(0, 5e-3).unwrap();
        live.sync(&system);
        assert!(table.sync(&system, &ctx, &live), "drive change: refill");
        assert_table_matches_fill(&system, &ctx, &live, &table, "after drive sync");
    }

    #[test]
    fn selection_matches_rates_and_clamps_the_final_bucket() {
        let system = chain(2e-3, 0.05);
        let ctx = RateContext::new(&system, 1.0).unwrap();
        let live = LiveState::new(&system, ChargeState::neutral(2));
        let table = EventRateTable::new(&system, &ctx, &live);
        let total = table.total();
        assert!(total > 0.0);
        // Any in-range target lands on a positive-rate event.
        for i in 0..100 {
            let target = total * i as f64 / 100.0;
            let chosen = table.select(target);
            assert!(
                table.rate(chosen) > 0.0,
                "target {target} chose a zero rate"
            );
        }
        // At (or past) the total, the clamp returns the last positive leaf.
        let last_positive = (0..table.event_count())
            .rev()
            .find(|&e| table.rate(e) > 0.0)
            .unwrap();
        assert_eq!(table.select(total), last_positive);
        assert_eq!(table.select(total * 1.5), last_positive);
    }

    #[test]
    fn strong_lists_cover_every_non_negligible_coupling() {
        let system = chain(1e-3, 0.02);
        let junctions = system.junctions().len();
        let mut g_max = 0.0_f64;
        for f in 0..junctions {
            for j in 0..junctions {
                g_max = g_max.max(system.junction_coupling(f, j).abs());
            }
        }
        assert!(g_max > 0.0);
        for f in 0..junctions {
            let strong = system.junction_strong_couplings(f);
            let values = system.junction_strong_coupling_values(f);
            assert_eq!(strong.len(), values.len(), "value slice aligned");
            assert!(strong.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
            for (&j, &g) in strong.iter().zip(values) {
                assert_eq!(
                    g.to_bits(),
                    system.junction_coupling(f, j as usize).to_bits(),
                    "stored coupling {f}->{j} differs from the dense lookup"
                );
            }
            for j in 0..junctions {
                let g = system.junction_coupling(f, j).abs();
                let listed = strong.contains(&(j as u32));
                if g > 1e-7 * g_max {
                    assert!(listed, "coupling {f}->{j} ({g:e}) missing from strong list");
                }
                if !listed {
                    assert!(
                        g <= 1e-7 * g_max,
                        "unlisted coupling {f}->{j} ({g:e}) above threshold"
                    );
                }
            }
            // A junction always couples strongly to itself (unless it moves
            // no island charge at all).
            assert!(strong.contains(&(f as u32)));
        }
        assert!(system.coupling_margin() > 0.0);
    }

    #[test]
    fn batched_lane_table_matches_the_scalar_table() {
        let system = chain(2e-3, 0.05);
        let ctx = RateContext::new(&system, 0.5).unwrap();
        let replicas = 3;
        let mut batch = BatchedLiveState::new(&system, ChargeState::neutral(2), replicas).unwrap();
        let mut scalars: Vec<LiveState> = (0..replicas)
            .map(|_| LiveState::new(&system, ChargeState::neutral(2)))
            .collect();
        let mut lane_tables: Vec<BatchedEventRateTable> = (0..replicas)
            .map(|r| BatchedEventRateTable::new(&system, &ctx, &batch, r))
            .collect();
        let mut scalar_tables: Vec<EventRateTable> = scalars
            .iter()
            .map(|live| EventRateTable::new(&system, &ctx, live))
            .collect();
        let mut walks: Vec<u64> = (0..replicas).map(|r| 23 + 1000 * r as u64).collect();
        for _ in 0..500 {
            for r in 0..replicas {
                walks[r] = walks[r]
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let event = system.event((walks[r] >> 33) as usize % system.event_count());
                batch.apply(&system, event, r);
                scalars[r].apply(&system, event);
                lane_tables[r].apply_event(&system, &ctx, &batch, event);
                scalar_tables[r].apply_event(&system, &ctx, &scalars[r], event);
            }
        }
        for r in 0..replicas {
            assert_eq!(
                lane_tables[r].total().to_bits(),
                scalar_tables[r].total().to_bits(),
                "lane {r} total diverged"
            );
            for e in 0..system.event_count() {
                assert_eq!(
                    lane_tables[r].rate(e).to_bits(),
                    scalar_tables[r].rate(e).to_bits(),
                    "lane {r} event {e} diverged"
                );
                assert_eq!(
                    lane_tables[r].delta_f(e).to_bits(),
                    scalar_tables[r].delta_f(e).to_bits(),
                    "lane {r} event {e} ΔF diverged"
                );
            }
        }
    }
}
