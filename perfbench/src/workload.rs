//! The three workloads: their job shapes, one job with its output oracle,
//! set-up, and the closed measurement loop.
//!
//! The load is a closed loop with one client: this thread runs jobs back
//! to back through the public scenario builders, and each job's rank
//! threads belong to the program under test.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use swift::core::{DpScenario, PipelineScenario, ScenarioResult};
use swift::data::BlobsDataset;
use swift::dnn::models::mlp;
use swift::dnn::ModelState;
use swift::obs::{reconstruct, Counter, Incident, MemoryRecorder};
use swift::pipeline::ScheduleKind;
use swift::wal::{LogMode, LogPrecision};

use crate::oracle::{self, Verdict};
use crate::stats::{median, quantile};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DpTrain,
    DpFailover,
    PipelineReplay,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DpTrain,
        Workload::DpFailover,
        Workload::PipelineReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DpTrain => "dp-train",
            Workload::DpFailover => "dp-failover",
            Workload::PipelineReplay => "pipeline-replay",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The jobs of one measurement round. Crash workloads alternate a
    /// clean job and a crash job of the same shape; `dp-train` adds one
    /// long failure-free job, whose throughput it reports.
    fn round(self) -> Vec<JobKind> {
        let pair = [JobKind::Clean, JobKind::Crash];
        match self {
            Workload::DpTrain => std::iter::once(JobKind::Long)
                .chain(pair.iter().copied().cycle().take(2 * DP_TRAIN_PAIRS))
                .collect(),
            _ => pair.to_vec(),
        }
    }

    /// Warm-up rounds per set-up (long jobs excluded: the reference
    /// already ran one), enough for lazily built state to settle.
    fn warmup_rounds(self) -> usize {
        match self {
            Workload::DpTrain => 1,
            Workload::DpFailover => 20,
            Workload::PipelineReplay => 2,
        }
    }
}

/// Short clean/crash pairs per long job in a `dp-train` round, so that
/// the two halves of a round take about the same time.
const DP_TRAIN_PAIRS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// The long failure-free job (`dp-train` only).
    Long,
    /// A failure-free job of the crash job's shape.
    Clean,
    /// A job in which one machine dies and is recovered.
    Crash,
}

/// A data-parallel job shape: one replica per machine.
pub struct DpShape {
    pub machines: usize,
    pub dims: &'static [usize],
    pub batch: usize,
    pub iters: u64,
    /// Standard deviation of the blob dataset's noise: high enough that
    /// the loss does not collapse to zero within the job.
    pub noise: f32,
    /// The machine that dies mid-update in a crash job.
    pub crash_machine: usize,
    /// Crash jobs cycle through every (iteration, parameter groups
    /// staged) pair of these inclusive ranges.
    pub crash_iters: (u64, u64),
    pub crash_groups: (usize, usize),
}

impl DpShape {
    /// `(machine, iteration, groups staged)` of the `k`-th crash job.
    pub fn crash_point(&self, k: u64) -> (usize, u64, usize) {
        let iters = self.crash_iters.1 - self.crash_iters.0 + 1;
        let groups = (self.crash_groups.1 - self.crash_groups.0 + 1) as u64;
        let k = k % (iters * groups);
        (
            self.crash_machine,
            self.crash_iters.0 + k % iters,
            self.crash_groups.0 + (k / iters) as usize,
        )
    }
}

pub const DP_TRAIN_LONG: DpShape = DpShape {
    machines: 2,
    dims: &[64, 256, 256, 10],
    batch: 64,
    iters: 150,
    noise: 6.0,
    crash_machine: 1,
    // A failure's cost steps by several milliseconds depending on which
    // of the scenario thread's exponential-backoff polls sees it declared
    // (5–10 ms apart at this point of a job). At this shape a single crash point
    // sits near such a step, and its median jumped between 5.5 and 10 ms
    // from run to run. This grid of 45 points spreads the declarations
    // over about two poll intervals, as failures at random times would.
    crash_iters: (2, 10),
    crash_groups: (1, 5),
};

pub const DP_TRAIN_SHORT: DpShape = DpShape {
    iters: 12,
    ..DP_TRAIN_LONG
};

pub const DP_FAILOVER: DpShape = DpShape {
    machines: 3,
    dims: &[6, 16, 16, 3],
    batch: 12,
    iters: 8,
    noise: 1.0,
    crash_machine: 1,
    crash_iters: (4, 4),
    crash_groups: (2, 2),
};

/// A pipeline job shape: one stage per machine.
pub struct PipeShape {
    pub stages: usize,
    pub dims: &'static [usize],
    pub batch: usize,
    pub microbatches: usize,
    pub ckpt_interval: u64,
    pub iters: u64,
    pub noise: f32,
    /// `(machine, after iteration)` of the crash.
    pub crash: (usize, u64),
}

pub const PIPELINE: PipeShape = PipeShape {
    stages: 2,
    dims: &[32, 128, 128, 128, 10],
    batch: 32,
    microbatches: 4,
    ckpt_interval: 10,
    iters: 20,
    noise: 2.0,
    crash: (1, 19),
};

/// The model-init seed for workload seed `seed` (the dataset uses `seed`).
pub fn model_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1)
}

pub fn dp_dataset(shape: &DpShape, seed: u64) -> BlobsDataset {
    let dims = shape.dims;
    BlobsDataset::new(seed, dims[0], dims[dims.len() - 1], shape.noise)
}

/// A job of `shape`; with `crash = Some(k)`, the `k`-th crash job.
fn dp_job(shape: &'static DpShape, seed: u64, crash: Option<u64>) -> ScenarioResult {
    let ms = model_seed(seed);
    let mut b = DpScenario::builder(
        Arc::new(move || mlp("bench-dp", shape.dims, ms)),
        Arc::new(dp_dataset(shape, seed)),
    )
    .machines(shape.machines)
    .batch_size(shape.batch)
    .iters(shape.iters);
    if let Some(k) = crash {
        let (machine, iteration, groups) = shape.crash_point(k);
        b = b.crash(machine, iteration, groups);
    }
    b.run()
}

fn pipeline_job(seed: u64, crash: bool) -> ScenarioResult {
    let s = &PIPELINE;
    let ms = model_seed(seed);
    let mut b = PipelineScenario::builder(
        Arc::new(move || mlp("bench-pp", PIPELINE.dims, ms)),
        Arc::new(BlobsDataset::new(
            seed,
            s.dims[0],
            s.dims[s.dims.len() - 1],
            s.noise,
        )),
    )
    .stages(s.stages)
    .batch_size(s.batch)
    .microbatches(s.microbatches)
    .ckpt_interval(s.ckpt_interval)
    .iters(s.iters)
    .schedule(ScheduleKind::OneFOneB)
    .log_mode(LogMode::BubbleAsync)
    .log_precision(LogPrecision::F32)
    .parallel_recovery(1);
    if crash {
        b = b.crash(s.crash.0, s.crash.1);
    }
    b.run()
}

/// What a job produced, as far as the oracles are concerned.
#[derive(Clone, Default)]
pub struct Output {
    pub states: Vec<ModelState>,
    pub losses: Vec<f32>,
    pub recovered: bool,
}

impl From<ScenarioResult> for Output {
    fn from(r: ScenarioResult) -> Self {
        Output {
            states: r.states,
            losses: r.losses,
            recovered: r.recovered,
        }
    }
}

/// Reference outputs computed during set-up.
pub struct Refs {
    /// The long job's output (`dp-train` only).
    pub long: Option<Output>,
    /// The failure-free job of the crash job's shape.
    pub clean: Output,
}

impl Refs {
    /// Last-iteration loss of the clean job whose throughput the
    /// workload reports.
    pub fn final_loss(&self) -> f32 {
        let out = self.long.as_ref().unwrap_or(&self.clean);
        out.losses.last().copied().unwrap_or(f32::NAN)
    }
}

impl Workload {
    fn is_dp(self) -> bool {
        self != Workload::PipelineReplay
    }

    /// Iterations × batch of one job of `kind`.
    fn samples(self, kind: JobKind) -> u64 {
        let (iters, batch) = match (self, kind) {
            (Workload::DpTrain, JobKind::Long) => (DP_TRAIN_LONG.iters, DP_TRAIN_LONG.batch),
            (Workload::DpTrain, _) => (DP_TRAIN_SHORT.iters, DP_TRAIN_SHORT.batch),
            (Workload::DpFailover, _) => (DP_FAILOVER.iters, DP_FAILOVER.batch),
            (Workload::PipelineReplay, _) => (PIPELINE.iters, PIPELINE.batch),
        };
        iters * batch as u64
    }

    /// Runs a job of `kind`; a crash job is the `k`-th of the run.
    fn run_job(self, kind: JobKind, seed: u64, k: u64) -> Output {
        let crash = (kind == JobKind::Crash).then_some(k);
        match (self, kind) {
            (Workload::DpTrain, JobKind::Long) => dp_job(&DP_TRAIN_LONG, seed, None),
            (Workload::DpTrain, _) => dp_job(&DP_TRAIN_SHORT, seed, crash),
            (Workload::DpFailover, _) => dp_job(&DP_FAILOVER, seed, crash),
            (Workload::PipelineReplay, _) => pipeline_job(seed, crash.is_some()),
        }
        .into()
    }

    /// The oracle of a reference job: it has no reference to match yet.
    fn check_reference(self, kind: JobKind, out: &Output) -> Verdict {
        if self.is_dp() {
            oracle::replicas_identical(&out.states)?;
        }
        if kind == JobKind::Long {
            oracle::loss_decreases(&out.losses)?;
        }
        Ok(())
    }

    /// The output oracle of a measured job of `kind`.
    pub fn check(self, kind: JobKind, out: &Output, refs: &Refs) -> Verdict {
        match kind {
            JobKind::Long | JobKind::Clean => {
                let reference = match kind {
                    JobKind::Long => refs.long.as_ref().ok_or("no long reference job")?,
                    _ => &refs.clean,
                };
                self.check_reference(kind, out)?;
                oracle::same_as_reference(&out.states, &reference.states)?;
                oracle::same_losses(&out.losses, &reference.losses)
            }
            JobKind::Crash => {
                oracle::recovered(out.recovered)?;
                if self.is_dp() {
                    // Update-undo leaves a residue: replicas agree with
                    // each other bitwise and with the clean job closely.
                    oracle::replicas_identical(&out.states)?;
                    let clean = refs.clean.states.first().ok_or("no clean reference")?;
                    oracle::within_undo_envelope(&out.states, clean)
                } else {
                    // Sequential (d = 1) log replay is bitwise exact.
                    oracle::same_as_reference(&out.states, &refs.clean.states)
                }
            }
        }
    }
}

/// What tracing recorded for one job.
pub struct TraceRecord {
    /// The reconstructed recovery incident of a crash job.
    pub incident: Option<Incident>,
    /// Every swift-obs counter's total, in [`Counter::ALL`] order.
    pub counters: Vec<u64>,
}

impl TraceRecord {
    pub fn counter(&self, c: Counter) -> u64 {
        let i = Counter::ALL
            .iter()
            .position(|&x| x == c)
            .expect("known counter");
        self.counters[i]
    }
}

/// One job as measured.
pub struct JobRecord {
    pub kind: JobKind,
    pub traced: bool,
    pub wall_s: f64,
    /// Why the job's output was wrong, if it was.
    pub error: Option<String>,
    pub trace: Option<TraceRecord>,
}

/// A uniform random sample of at most [`Reservoir::CAP`] values
/// (Vitter's algorithm R). Its memory is bounded, so the benchmark's own
/// bookkeeping does not grow with the number of jobs a run completes: a
/// faster program runs more jobs, and `peak_rss_mb` must not read that
/// as more memory.
pub struct Reservoir {
    values: Vec<f64>,
    seen: u64,
    rng: u64,
}

impl Reservoir {
    const CAP: usize = 4096;

    fn new() -> Reservoir {
        Reservoir {
            values: Vec::new(),
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.values.len() < Self::CAP {
            self.values.push(x);
            return;
        }
        // xorshift64: a fixed stream, so a run's sample is reproducible.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let j = (self.rng % self.seen) as usize;
        if j < Self::CAP {
            self.values[j] = x;
        }
    }
}

/// What a measurement loop recorded about its successful jobs.
pub struct Measured {
    workload: Workload,
    /// Wall times in seconds, by job kind, then untraced/traced.
    walls: [[Reservoir; 2]; 3],
    /// The traced jobs' records, with their kind.
    pub traces: Vec<(JobKind, TraceRecord)>,
}

impl Measured {
    fn new(workload: Workload) -> Measured {
        Measured {
            workload,
            walls: std::array::from_fn(|_| [Reservoir::new(), Reservoir::new()]),
            traces: Vec::new(),
        }
    }

    fn record(&mut self, rec: JobRecord) {
        if rec.error.is_some() {
            return;
        }
        self.walls[rec.kind as usize][rec.traced as usize].push(rec.wall_s);
        if let Some(t) = rec.trace {
            self.traces.push((rec.kind, t));
        }
    }

    fn walls(&self, kind: JobKind, traced: bool) -> &Reservoir {
        &self.walls[kind as usize][traced as usize]
    }
}

/// Counts jobs attempted and failed over the whole run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// Runs jobs and checks their outputs.
pub struct Runner {
    pub seed: u64,
    pub tally: Tally,
    /// Crash jobs run so far.
    crashes: u64,
}

impl Runner {
    pub fn new(seed: u64) -> Runner {
        Runner {
            seed,
            tally: Tally::default(),
            crashes: 0,
        }
    }

    /// Runs one job, times it, and applies `check` to its output. A
    /// panic counts as a failed job.
    fn job(
        &mut self,
        w: Workload,
        kind: JobKind,
        traced: bool,
        check: impl FnOnce(&Output) -> Verdict,
    ) -> (JobRecord, Option<Output>) {
        let recorder = traced.then(|| Arc::new(MemoryRecorder::new()));
        if let Some(r) = &recorder {
            swift::obs::install(r.clone());
        }
        let t = Instant::now();
        let k = self.crashes;
        self.crashes += u64::from(kind == JobKind::Crash);
        let out = catch_unwind(AssertUnwindSafe(|| w.run_job(kind, self.seed, k)));
        let wall_s = t.elapsed().as_secs_f64();
        if recorder.is_some() {
            swift::obs::uninstall();
        }
        let mut error = match &out {
            Ok(o) => check(o).err(),
            Err(_) => Some("job panicked".to_string()),
        };
        let trace = recorder.map(|r| {
            let incident = if kind == JobKind::Crash {
                match reconstruct(&r.events()) {
                    Ok(t) => t.incidents.into_iter().find(|i| !i.aborted),
                    Err(e) => {
                        error.get_or_insert(format!("timeline: {e}"));
                        None
                    }
                }
            } else {
                None
            };
            if kind == JobKind::Crash && incident.is_none() {
                error.get_or_insert("no completed recovery incident".into());
            }
            TraceRecord {
                incident,
                counters: Counter::ALL.iter().map(|&c| r.counter(c)).collect(),
            }
        });
        self.tally.attempted += 1;
        if let Some(e) = &error {
            self.tally.failed += 1;
            eprintln!("perfbench: {} {kind:?} job failed: {e}", w.name());
        }
        let record = JobRecord {
            kind,
            traced,
            wall_s,
            error,
            trace,
        };
        (record, out.ok())
    }

    /// Set-up: computes the reference outputs and warms up with rounds
    /// of measured-shape jobs, `reps` times; returns the first
    /// repetition's references and each repetition's duration in seconds.
    /// Later repetitions must reproduce the references bitwise.
    pub fn setup(&mut self, w: Workload, reps: usize) -> (Refs, Vec<f64>) {
        let mut refs: Option<Refs> = None;
        let mut times = Vec::new();
        for _ in 0..reps {
            let t = Instant::now();
            let long = (w == Workload::DpTrain).then(|| self.reference(w, JobKind::Long, &refs));
            let clean = self.reference(w, JobKind::Clean, &refs);
            let fresh = Refs {
                long: long.flatten(),
                // A failed reference job leaves no states, so every
                // check against it fails too.
                clean: clean.unwrap_or_default(),
            };
            let r = refs.get_or_insert(fresh);
            for _ in 0..w.warmup_rounds() {
                for kind in w.round() {
                    if kind != JobKind::Long {
                        self.job(w, kind, false, |o| w.check(kind, o, r));
                    }
                }
            }
            times.push(t.elapsed().as_secs_f64());
        }
        (refs.expect("at least one set-up repetition"), times)
    }

    /// Runs a reference job; against `earlier` references when given.
    fn reference(&mut self, w: Workload, kind: JobKind, earlier: &Option<Refs>) -> Option<Output> {
        let (_, out) = self.job(w, kind, false, |o| match earlier {
            Some(r) => w.check(kind, o, r),
            None => w.check_reference(kind, o),
        });
        out
    }

    /// The closed loop: whole rounds back to back until `until`, at
    /// least one. `trace` picks which rounds record swift-obs spans and
    /// counters: none, all, or every other one (for the tracing
    /// overhead, measured in the same run as its baseline).
    pub fn measure(
        &mut self,
        w: Workload,
        refs: &Refs,
        until: Instant,
        trace: Tracing,
    ) -> Measured {
        let mut measured = Measured::new(w);
        let mut round = 0usize;
        while round == 0 || Instant::now() < until {
            let traced = match trace {
                Tracing::Off => false,
                Tracing::On => true,
                Tracing::Alternate => round % 2 == 1,
            };
            for kind in w.round() {
                let (rec, _) = self.job(w, kind, traced, |o| w.check(kind, o, refs));
                measured.record(rec);
            }
            round += 1;
        }
        measured
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    Off,
    On,
    Alternate,
}

/// End-to-end figures over the successful jobs of one tracing mode.
pub struct Summary {
    pub train_samples_per_s: f64,
    pub goodput_samples_per_s: f64,
    pub failure_cost_ms_p50: f64,
    pub failure_cost_ms_p90: f64,
    pub train_jobs: u64,
    pub incidents: u64,
}

/// Summarizes the successful `traced` (or untraced) jobs of `m`.
pub fn summarize(m: &Measured, traced: bool) -> Summary {
    let sps = |k: JobKind| -> Vec<f64> {
        let samples = m.workload.samples(k) as f64;
        m.walls(k, traced)
            .values
            .iter()
            .map(|s| samples / s)
            .collect()
    };
    let train_kind = if m.walls(JobKind::Long, traced).seen > 0 {
        JobKind::Long
    } else {
        JobKind::Clean
    };
    let clean_s = median(&m.walls(JobKind::Clean, traced).values);
    let cost: Vec<f64> = m
        .walls(JobKind::Crash, traced)
        .values
        .iter()
        .map(|s| (s - clean_s) * 1e3)
        .collect();
    Summary {
        train_samples_per_s: median(&sps(train_kind)),
        goodput_samples_per_s: median(&sps(JobKind::Crash)),
        failure_cost_ms_p50: quantile(&cost, 0.5),
        failure_cost_ms_p90: quantile(&cost, 0.9),
        train_jobs: m.walls(train_kind, traced).seen,
        incidents: m.walls(JobKind::Crash, traced).seen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flip_one_bit(states: &mut [ModelState], which: usize) {
        let x = &mut states[which].entries[0].1.data_mut()[0];
        *x = f32::from_bits(x.to_bits() ^ 1);
    }

    /// Every job oracle accepts the real outputs and rejects them after
    /// one bit of one final state is flipped.
    fn oracles_catch_a_flipped_bit(w: Workload) {
        let mut r = Runner::new(3);
        let clean: Output = w.run_job(JobKind::Clean, r.seed, 0);
        let crash: Output = w.run_job(JobKind::Crash, r.seed, 0);
        let refs = Refs {
            long: None,
            clean: w.run_job(JobKind::Clean, r.seed, 0),
        };
        assert_eq!(w.check(JobKind::Clean, &clean, &refs), Ok(()));
        assert_eq!(w.check(JobKind::Crash, &crash, &refs), Ok(()));
        for which in 0..clean.states.len() {
            let mut bad = clean.clone();
            flip_one_bit(&mut bad.states, which);
            assert!(w.check(JobKind::Clean, &bad, &refs).is_err());
            let mut bad = crash.clone();
            flip_one_bit(&mut bad.states, which);
            assert!(w.check(JobKind::Crash, &bad, &refs).is_err());
        }
        // A failed check counts against the run.
        let (rec, _) = r.job(w, JobKind::Clean, false, |_| Err("forced".into()));
        assert!(rec.error.is_some());
        assert_eq!((r.tally.attempted, r.tally.failed), (1, 1));
    }

    #[test]
    fn dp_failover_oracles_catch_a_flipped_bit() {
        oracles_catch_a_flipped_bit(Workload::DpFailover);
    }

    #[test]
    fn dp_train_oracles_catch_a_flipped_bit() {
        oracles_catch_a_flipped_bit(Workload::DpTrain);
    }

    #[test]
    fn pipeline_replay_oracles_catch_a_flipped_bit() {
        oracles_catch_a_flipped_bit(Workload::PipelineReplay);
    }

    #[test]
    fn long_job_oracle_catches_a_flipped_bit() {
        // The long job's oracle, checked on short-job outputs so the test
        // stays fast: it compares against the reference exactly.
        let w = Workload::DpTrain;
        let out = w.run_job(JobKind::Clean, 5, 0);
        let refs = Refs {
            long: Some(w.run_job(JobKind::Clean, 5, 0)),
            clean: w.run_job(JobKind::Clean, 5, 0),
        };
        let long_ok = w.check(JobKind::Long, &out, &refs);
        assert!(long_ok.is_ok() || long_ok.as_ref().unwrap_err().contains("loss"));
        let mut bad = out.clone();
        flip_one_bit(&mut bad.states, 1);
        let err = w.check(JobKind::Long, &bad, &refs).unwrap_err();
        assert!(err.contains("differs"), "{err}");
    }

    #[test]
    fn summary_counts_failure_cost_against_the_clean_median() {
        let mut m = Measured::new(Workload::DpFailover);
        for (kind, wall_s, error) in [
            (JobKind::Clean, 0.010, None),
            (JobKind::Crash, 0.013, None),
            (JobKind::Clean, 0.012, None),
            (JobKind::Crash, 0.015, None),
            (JobKind::Crash, 0.001, Some("wrong")),
        ] {
            m.record(JobRecord {
                kind,
                traced: false,
                wall_s,
                error: error.map(String::from),
                trace: None,
            });
        }
        let s = summarize(&m, false);
        assert_eq!((s.train_jobs, s.incidents), (2, 2));
        assert!((s.failure_cost_ms_p50 - 3.0).abs() < 1e-9);
        // The median of the per-job rates 96/0.010 and 96/0.012.
        assert!((s.train_samples_per_s - 8800.0).abs() < 1e-6);
    }

    #[test]
    fn reservoir_memory_is_bounded_and_keeps_a_uniform_sample() {
        let mut r = Reservoir::new();
        let n = 10 * Reservoir::CAP as u64;
        for i in 0..n {
            r.push(i as f64);
        }
        assert_eq!((r.values.len(), r.seen), (Reservoir::CAP, n));
        let mid = median(&r.values) / n as f64;
        assert!((mid - 0.5).abs() < 0.05, "median at {mid} of the stream");
    }
}
