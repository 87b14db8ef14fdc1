//! Job description and the chunked, streaming job state machine.
//!
//! A [`JobSpec`] describes *what* to compute: how many items, under which
//! seed, in chunks of which size, on how many workers. A [`Job`] binds a
//! spec to a solve closure and a [`ResultSink`] and tracks the run: chunks
//! are claimed in order, computed on worker threads, optionally persisted
//! to a checkpoint, and **emitted to the sink in strict index order** —
//! which is why serial, parallel, chunked and resumed runs all produce
//! bit-identical output.

use crate::cancel::CancelToken;
use crate::checkpoint::{CheckpointStore, Codec, JobCheckpoint};
use crate::seed;
use crate::sink::ResultSink;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Mutex;

/// How many workers a job (or batch) fans out to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Workers {
    /// One worker per available core.
    #[default]
    Auto,
    /// Single-threaded execution on the calling thread (identical results;
    /// useful for profiling and determinism tests).
    Serial,
    /// An explicit worker count (clamped to at least 1).
    Count(usize),
}

impl Workers {
    /// The concrete worker count for `tasks` schedulable chunks.
    #[must_use]
    pub fn resolve(self, tasks: usize) -> usize {
        let wanted = match self {
            Workers::Auto => rayon::current_num_threads(),
            Workers::Serial => 1,
            Workers::Count(n) => n.max(1),
        };
        wanted.clamp(1, tasks.max(1))
    }
}

/// The geometry of one job: item count, seed, chunking and parallelism.
///
/// Per-item seeds are derived with [`crate::seed::derive_seed`]`(seed,
/// index)` — a pure function of the spec, never of scheduling — so every
/// execution mode visits identical `(index, seed)` pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    items: usize,
    seed: u64,
    chunk: Option<usize>,
    workers: Workers,
}

impl JobSpec {
    /// A job over `items` work items: seed 0, automatic chunk size, one
    /// worker per core.
    #[must_use]
    pub fn new(items: usize) -> Self {
        JobSpec {
            items,
            seed: 0,
            chunk: None,
            workers: Workers::Auto,
        }
    }

    /// Sets the job seed all per-item seeds are derived from.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the chunk size: how many consecutive items one scheduled task
    /// computes. Larger chunks amortize per-task overhead (engine setup,
    /// sink locking); smaller chunks balance load better. Results never
    /// depend on it. Clamped to at least 1.
    #[must_use]
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = Some(chunk.max(1));
        self
    }

    /// Sets an explicit worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Workers::Count(workers);
        self
    }

    /// Forces single-threaded execution (identical results).
    #[must_use]
    pub fn serial(mut self) -> Self {
        self.workers = Workers::Serial;
        self
    }

    /// Number of work items.
    #[must_use]
    pub fn items(&self) -> usize {
        self.items
    }

    /// The job seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The worker policy.
    #[must_use]
    pub fn workers(&self) -> Workers {
        self.workers
    }

    /// The RNG seed of item `index` (the toolkit-wide SplitMix64
    /// discipline).
    #[must_use]
    pub fn item_seed(&self, index: usize) -> u64 {
        seed::derive_seed(self.seed, index as u64)
    }

    /// The effective chunk size. The automatic choice depends only on the
    /// item count (never on worker count), so checkpoints taken under
    /// different `--jobs` settings stay compatible.
    #[must_use]
    pub fn chunk_size(&self) -> usize {
        self.chunk
            .unwrap_or_else(|| (self.items / 256).clamp(1, 64))
    }

    /// Number of chunks the job splits into.
    #[must_use]
    pub fn chunk_count(&self) -> usize {
        self.items.div_ceil(self.chunk_size())
    }

    /// The item index range of chunk `chunk`.
    #[must_use]
    pub fn chunk_range(&self, chunk: usize) -> Range<usize> {
        let size = self.chunk_size();
        let start = (chunk * size).min(self.items);
        let end = (start + size).min(self.items);
        start..end
    }
}

/// Number of lane groups `replicas` ensemble replicas split into at lane
/// width `width`: the geometry ensemble jobs use to shard one bias point's
/// replica set into multiple schedulable work items (each group runs its
/// replicas one after another on one worker of the shared pool). `width`
/// is clamped to at least 1.
#[must_use]
pub fn lane_group_count(replicas: usize, width: usize) -> usize {
    replicas.div_ceil(width.max(1))
}

/// The replica index range of lane group `group` (`0..lane_group_count`)
/// at lane width `width`. Groups tile the replica set in order — replica
/// `k` always lands in group `k / width` at offset `k % width` — so the
/// concatenation of all groups' results in group order is the plain
/// replica order, whatever the width: the property that makes ensemble
/// tables byte-identical across lane widths.
#[must_use]
pub fn lane_group_range(replicas: usize, width: usize, group: usize) -> Range<usize> {
    let width = width.max(1);
    let start = (group * width).min(replicas);
    let end = (start + width).min(replicas);
    start..end
}

/// What a completed job did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Report {
    /// Total items the job covered.
    pub items: usize,
    /// Items computed in this run.
    pub computed: usize,
    /// Items restored from a checkpoint instead of recomputed.
    pub restored: usize,
    /// Number of chunks the job was split into.
    pub chunks: usize,
}

/// Why a job did not complete.
#[derive(Debug)]
pub enum ExecError<E> {
    /// The solve closure failed; `index` is the lowest failing item index.
    Job {
        /// The failing item.
        index: usize,
        /// The solver's error.
        error: E,
    },
    /// A result sink failed to consume the stream.
    Sink(io::Error),
    /// The checkpoint store could not be read or written.
    Checkpoint(String),
    /// The job was cancelled; `emitted` items reached the sink first (and
    /// every completed chunk of a checkpointed job is on disk).
    Cancelled {
        /// Items emitted to the sink before the cancel took effect.
        emitted: usize,
    },
}

impl<E: fmt::Display> fmt::Display for ExecError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Job { index, error } => write!(f, "item {index} failed: {error}"),
            ExecError::Sink(e) => write!(f, "result sink failed: {e}"),
            ExecError::Checkpoint(message) => write!(f, "checkpoint error: {message}"),
            ExecError::Cancelled { emitted } => {
                write!(f, "cancelled after {emitted} emitted items")
            }
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for ExecError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Job { error, .. } => Some(error),
            ExecError::Sink(e) => Some(e),
            ExecError::Checkpoint(_) | ExecError::Cancelled { .. } => None,
        }
    }
}

/// The error slot of a running job; the precedence rule is: the
/// lowest-index solver error wins, then sink failures, then checkpoint
/// failures.
#[derive(Debug)]
enum Failure<E> {
    Job { index: usize, error: E },
    Sink(io::Error),
    Checkpoint(String),
}

/// One completed, not-yet-emitted chunk.
struct Ready<T> {
    items: Vec<T>,
}

/// The mutable half of a job, shared across workers behind one mutex.
struct JobState<'s, T, E> {
    sink: &'s mut (dyn ResultSink<T> + Send),
    ready: BTreeMap<usize, Ready<T>>,
    next_emit: usize,
    emitted: usize,
    computed: usize,
    restored: usize,
    collected: Vec<T>,
    failure: Option<Failure<E>>,
    sink_dead: bool,
}

/// A schedulable unit of work: something that exposes pending chunks to
/// the shared batch scheduler (see [`crate::run_batch`]). Implemented by
/// [`Job`]; the trait is object-safe so heterogeneous jobs can share one
/// worker pool.
pub trait ChunkTask: Sync {
    /// Number of chunks still to compute (restored chunks are excluded).
    fn pending(&self) -> usize;

    /// Computes pending chunk `slot` (`0..pending()`). Slots of one task
    /// are always claimed in increasing order.
    fn run_pending(&self, slot: usize, cancel: &CancelToken);

    /// A short label for progress and diagnostics.
    fn label(&self) -> &str;
}

/// Builds a [`Job`] incrementally: label, result collection, checkpoint.
pub struct JobBuilder<T> {
    spec: JobSpec,
    label: String,
    collect: bool,
    checkpoint_dir: Option<PathBuf>,
    resume: bool,
    fingerprint: u64,
    encode: Option<fn(&T, &mut String)>,
    decode: Option<fn(&str) -> Option<T>>,
}

impl<T: Send> JobBuilder<T> {
    /// A builder for a job with the given geometry.
    #[must_use]
    pub fn new(spec: JobSpec) -> Self {
        JobBuilder {
            spec,
            label: "job".to_string(),
            collect: false,
            checkpoint_dir: None,
            resume: false,
            fingerprint: 0,
            encode: None,
            decode: None,
        }
    }

    /// Sets the job label (progress lines, diagnostics).
    #[must_use]
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Also collect the items in memory; [`Job::finish`] returns them in
    /// index order.
    #[must_use]
    pub fn collect(mut self) -> Self {
        self.collect = true;
        self
    }

    /// Persist completed chunks under `store`/`id`. With `resume`,
    /// previously completed chunks are restored instead of recomputed;
    /// without it, any existing checkpoint for the job is discarded.
    #[must_use]
    pub fn checkpoint(mut self, store: &CheckpointStore, id: &str, resume: bool) -> Self
    where
        T: Codec,
    {
        self.checkpoint_dir = Some(store.job_dir(id));
        self.resume = resume;
        self.encode = Some(T::encode as fn(&T, &mut String));
        self.decode = Some(T::decode as fn(&str) -> Option<T>);
        self
    }

    /// Stamps the checkpoint with an input-content fingerprint (see
    /// [`crate::checkpoint::content_fingerprint`]). A resume whose inputs
    /// hash differently — an edited deck with unchanged geometry, say — is
    /// refused instead of silently restoring stale results.
    #[must_use]
    pub fn fingerprint(mut self, fingerprint: u64) -> Self {
        self.fingerprint = fingerprint;
        self
    }

    /// Binds the sink and solve closure, opening the checkpoint (if any)
    /// and streaming any restored prefix into the sink.
    ///
    /// # Errors
    ///
    /// [`ExecError::Checkpoint`] if the checkpoint cannot be opened,
    /// [`ExecError::Sink`] if the sink fails on start or on the restored
    /// prefix.
    pub fn build<'s, E, F>(
        self,
        sink: &'s mut (dyn ResultSink<T> + Send),
        solve: F,
    ) -> Result<Job<'s, T, E>, ExecError<E>>
    where
        E: Send,
        F: Fn(usize, u64) -> Result<T, E> + Sync + 's,
        T: 's,
    {
        let spec = self.spec;
        let (checkpoint, restored_chunks) = match self.checkpoint_dir {
            Some(dir) => {
                let decode = self.decode.expect("checkpoint() always sets the codec");
                let (ckpt, restored) =
                    JobCheckpoint::open(dir, &spec, self.fingerprint, self.resume, decode)
                        .map_err(|e| ExecError::Checkpoint(e.to_string()))?;
                (Some(ckpt), restored)
            }
            None => (None, BTreeMap::new()),
        };
        sink.start(&spec).map_err(ExecError::Sink)?;
        let restored: usize = restored_chunks.values().map(Vec::len).sum();
        let pending: Vec<usize> = (0..spec.chunk_count())
            .filter(|c| !restored_chunks.contains_key(c))
            .collect();
        let mut state = JobState {
            sink,
            ready: restored_chunks
                .into_iter()
                .map(|(c, items)| (c, Ready { items }))
                .collect(),
            next_emit: 0,
            emitted: 0,
            computed: 0,
            restored,
            collected: Vec::new(),
            failure: None,
            sink_dead: false,
        };
        // Stream the restored in-order prefix immediately.
        Job::<T, E>::drain(&spec, self.collect, &mut state);
        if state.sink_dead {
            match state.failure {
                Some(Failure::Sink(e)) => return Err(ExecError::Sink(e)),
                _ => unreachable!("a dead sink always records its error"),
            }
        }
        Ok(Job {
            spec,
            label: self.label,
            collect: self.collect,
            solve: Box::new(solve),
            encode: self.encode,
            checkpoint,
            pending,
            state: Mutex::new(state),
        })
    }
}

/// A bound, runnable job: spec + solve closure + sink (+ optional
/// checkpoint). Run it with [`crate::run_batch`] (or the [`crate::run`] /
/// [`crate::run_collect`] conveniences), then call [`Job::finish`].
pub struct Job<'s, T, E> {
    spec: JobSpec,
    label: String,
    collect: bool,
    solve: Box<dyn Fn(usize, u64) -> Result<T, E> + Sync + 's>,
    encode: Option<fn(&T, &mut String)>,
    checkpoint: Option<JobCheckpoint>,
    pending: Vec<usize>,
    state: Mutex<JobState<'s, T, E>>,
}

impl<'s, T: Send, E: Send> Job<'s, T, E> {
    /// The job geometry.
    #[must_use]
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// Locks the state briefly; used by the scheduler path.
    fn lock(&self) -> std::sync::MutexGuard<'_, JobState<'s, T, E>> {
        self.state
            .lock()
            .expect("a worker panicked while holding the job state")
    }

    /// Emits every in-order completed chunk to the sink (and the collector).
    fn drain(spec: &JobSpec, collect: bool, state: &mut JobState<'_, T, E>) {
        while let Some(ready) = state.ready.remove(&state.next_emit) {
            let start = spec.chunk_range(state.next_emit).start;
            if !state.sink_dead {
                for (offset, item) in ready.items.iter().enumerate() {
                    if let Err(e) = state.sink.item(start + offset, item) {
                        state.sink_dead = true;
                        if state.failure.is_none() {
                            state.failure = Some(Failure::Sink(e));
                        }
                        break;
                    }
                }
                if !state.sink_dead {
                    if let Err(e) = state.sink.flush() {
                        state.sink_dead = true;
                        if state.failure.is_none() {
                            state.failure = Some(Failure::Sink(e));
                        }
                    }
                }
            }
            state.emitted += ready.items.len();
            if collect {
                state.collected.extend(ready.items);
            }
            state.next_emit += 1;
        }
    }

    /// Records a solver failure, keeping the lowest failing index.
    fn record_job_error(&self, index: usize, error: E) {
        let mut state = self.lock();
        let replace = match &state.failure {
            Some(Failure::Job { index: held, .. }) => index < *held,
            _ => true,
        };
        if replace {
            state.failure = Some(Failure::Job { index, error });
        }
    }

    /// Finishes the job: surfaces any failure, otherwise calls the sink's
    /// `finish` hook and returns the collected items (empty unless
    /// [`JobBuilder::collect`] was set) and the run report.
    ///
    /// # Errors
    ///
    /// The lowest-index solver error, a sink or checkpoint failure, or
    /// [`ExecError::Cancelled`] if the run was interrupted.
    pub fn finish(self) -> Result<(Vec<T>, Report), ExecError<E>> {
        let state = self
            .state
            .into_inner()
            .expect("a worker panicked while holding the job state");
        if let Some(failure) = state.failure {
            return Err(match failure {
                Failure::Job { index, error } => ExecError::Job { index, error },
                Failure::Sink(e) => ExecError::Sink(e),
                Failure::Checkpoint(message) => ExecError::Checkpoint(message),
            });
        }
        if state.emitted < self.spec.items() {
            return Err(ExecError::Cancelled {
                emitted: state.emitted,
            });
        }
        let report = Report {
            items: self.spec.items(),
            computed: state.computed,
            restored: state.restored,
            chunks: self.spec.chunk_count(),
        };
        let JobState {
            sink, collected, ..
        } = state;
        sink.finish(&report).map_err(ExecError::Sink)?;
        Ok((collected, report))
    }
}

impl<T: Send, E: Send> ChunkTask for Job<'_, T, E> {
    fn pending(&self) -> usize {
        self.pending.len()
    }

    fn run_pending(&self, slot: usize, cancel: &CancelToken) {
        // Note: a recorded failure does NOT skip later chunks. Every
        // claimed chunk still computes (exactly like the historical serial
        // loop), so the lowest failing item index always wins whatever the
        // scheduling — a fast-exit here could race a worker that claimed an
        // earlier chunk but has not started it yet.
        let chunk = self.pending[slot];
        let range = self.spec.chunk_range(chunk);
        let mut items = Vec::with_capacity(range.len());
        for index in range {
            if cancel.is_cancelled() {
                return; // abandon the incomplete chunk
            }
            match (self.solve)(index, self.spec.item_seed(index)) {
                Ok(item) => items.push(item),
                Err(error) => {
                    self.record_job_error(index, error);
                    return;
                }
            }
        }
        if let (Some(checkpoint), Some(encode)) = (&self.checkpoint, self.encode) {
            let lines: Vec<String> = items
                .iter()
                .map(|item| {
                    let mut line = String::new();
                    encode(item, &mut line);
                    line
                })
                .collect();
            if let Err(e) = checkpoint.record(chunk, &lines) {
                let mut state = self.lock();
                if state.failure.is_none() {
                    state.failure = Some(Failure::Checkpoint(e.to_string()));
                }
                return;
            }
        }
        let mut state = self.lock();
        state.computed += items.len();
        state.ready.insert(chunk, Ready { items });
        Self::drain(&self.spec, self.collect, &mut state);
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_geometry_covers_all_items_exactly_once() {
        for (items, chunk) in [(0, 4), (1, 4), (10, 3), (10, 4), (10, 100), (257, 1)] {
            let spec = JobSpec::new(items).with_chunk(chunk);
            let mut covered = Vec::new();
            for c in 0..spec.chunk_count() {
                covered.extend(spec.chunk_range(c));
            }
            assert_eq!(covered, (0..items).collect::<Vec<_>>(), "{items}/{chunk}");
        }
    }

    #[test]
    fn auto_chunk_size_depends_only_on_items() {
        assert_eq!(JobSpec::new(41).chunk_size(), 1);
        assert_eq!(JobSpec::new(1000).chunk_size(), 3);
        assert_eq!(JobSpec::new(500_000).chunk_size(), 64);
        assert_eq!(JobSpec::new(0).chunk_count(), 0);
    }

    #[test]
    fn item_seeds_follow_the_shared_discipline() {
        let spec = JobSpec::new(8).with_seed(42);
        assert_eq!(spec.item_seed(0), crate::seed::derive_seed(42, 0));
        assert_eq!(spec.item_seed(7), crate::seed::derive_seed(42, 7));
    }

    #[test]
    fn lane_groups_tile_the_replica_set_in_order() {
        for (replicas, width) in [(16, 4), (16, 16), (16, 5), (1, 8), (7, 1), (0, 4)] {
            let groups = lane_group_count(replicas, width);
            let mut covered = Vec::new();
            for g in 0..groups {
                let range = lane_group_range(replicas, width, g);
                assert!(range.len() <= width.max(1), "{replicas}/{width}");
                covered.extend(range);
            }
            assert_eq!(
                covered,
                (0..replicas).collect::<Vec<_>>(),
                "groups must concatenate to plain replica order ({replicas}/{width})"
            );
        }
        // Zero width is clamped, not a division by zero.
        assert_eq!(lane_group_count(8, 0), 8);
        assert_eq!(lane_group_range(8, 0, 3), 3..4);
    }

    #[test]
    fn workers_resolve_within_bounds() {
        assert_eq!(Workers::Serial.resolve(100), 1);
        assert_eq!(Workers::Count(0).resolve(100), 1);
        assert_eq!(Workers::Count(4).resolve(2), 2);
        assert!(Workers::Auto.resolve(100) >= 1);
        assert_eq!(Workers::Auto.resolve(0), 1);
    }

    #[test]
    fn exec_error_displays_are_informative() {
        let job: ExecError<io::Error> = ExecError::Job {
            index: 3,
            error: io::Error::other("boom"),
        };
        assert!(job.to_string().contains("item 3"));
        let cancelled: ExecError<io::Error> = ExecError::Cancelled { emitted: 5 };
        assert!(cancelled.to_string().contains("5"));
    }
}
