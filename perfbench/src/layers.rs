//! The traced run: per-layer metrics.
//!
//! Two sources, both at the workloads' exact shapes:
//!
//! - timings taken from this file around calls into each crate's public
//!   functions (`dp_train_step` over the benchmark's own cluster, model
//!   forward/backward, optimizer update/undo, collectives, the state
//!   codec, WAL logging and reading, checkpoint save/load, batches);
//! - the spans and counters swift-obs already emits, recorded with a
//!   `MemoryRecorder` per job and turned into recovery phases by
//!   `reconstruct`, unclamped.
//!
//! Each metric refers to one workload's shape, whichever workload the
//! run was started with (`perfbench/README.md` lists which); the tracing
//! overhead refers to the workload the run was started with.

use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bytes::Bytes;
use swift::ckpt::{Checkpoint, CheckpointManager};
use swift::core::{dp_train_step, DpWorker};
use swift::data::{shard_batch, split_microbatches, Dataset};
use swift::dnn::models::{mlp, split_stages};
use swift::dnn::{softmax_cross_entropy_scaled, Mode, ModelState, Sequential, StepCtx};
use swift::net::{default_chunk_bytes, default_shard_bytes, Cluster, Rank, Topology};
use swift::obs::{Counter, IterationId, MemoryRecorder, Phase};
use swift::optim::{OptimState, Optimizer, OptimizerKind};
use swift::pipeline::{simulate, stage_bubble_time, MsgKind, ScheduleKind};
use swift::store::BlobStore;
use swift::tensor::Tensor;
use swift::wal::{GroupMap, LogMode, LogPrecision, Logger, WalReader};

use crate::stats::{median, median_ms, quantile, Host, Metrics};
use crate::workload::{
    dp_dataset, model_seed, summarize, JobKind, Measured, Runner, Tracing, Workload, DP_FAILOVER,
    DP_TRAIN_LONG, PIPELINE,
};

/// The optimizer every workload trains with (the scenario default).
const SGDM: OptimizerKind = OptimizerKind::SgdMomentum {
    lr: 0.05,
    weight_decay: 0.0,
    momentum: 0.9,
    dampening: 0.0,
};

/// Timed `dp_train_step` calls: enough for ten samples beyond the p99.
const STEPS: usize = 1000;

/// Steady-state steps over which traffic and pool counters are taken.
const COUNTED_STEPS: usize = 100;

/// Runs the traced measurement for workload `w` in about `seconds`.
pub fn run(w: Workload, seconds: f64, host: &Host, r: &mut Runner, m: &mut Metrics) {
    use Phase::{Broadcast, Detect, Fence, Resume, Undo};
    let budget = |share: f64| Instant::now() + Duration::from_secs_f64(seconds * share);

    // Tracing overhead: untraced and traced rounds of `w`, alternating.
    let (refs, _) = r.setup(w, 1);
    let records = r.measure(w, &refs, budget(0.4), Tracing::Alternate);
    let (off, on) = (summarize(&records, false), summarize(&records, true));

    step_and_compute(r.seed, m);
    recovery_codec(r.seed, host, m);
    let dp = incidents(r, Workload::DpFailover, budget(0.15));
    recovery_metrics(&dp, "core.", &[Detect, Undo, Fence, Broadcast, Resume], m);
    let n = summarize(&dp, true).incidents as f64;
    let per_incident = |c| sum_counter(&dp, JobKind::Crash, c) / n;
    m.push("core.restarts", per_incident(Counter::Restarts), "count");
    m.push(
        "optim.undone_updates",
        per_incident(Counter::UndoneUpdates),
        "count",
    );

    pipeline_layers(r.seed, host, m);
    let pp = incidents(r, Workload::PipelineReplay, budget(0.25));
    m.push(
        "core.replay_ms",
        p50_ms(&pp, |i| i.segment(Phase::Replay).map(|s| s.duration_ns())),
        "ms",
    );
    recovery_metrics(&pp, "core.pp_", &[Detect, Undo, Fence, Resume], m);
    let clean_iters = summarize(&pp, true).train_jobs as f64 * PIPELINE.iters as f64;
    let per_iter = |c| sum_counter(&pp, JobKind::Clean, c) / clean_iters;
    m.push(
        "wal.bytes_logged_per_iter",
        per_iter(Counter::BytesLogged),
        "bytes",
    );
    m.push("wal.bubble_bytes", per_iter(Counter::BubbleBytes), "bytes");
    m.push(
        "wal.spilled_bytes",
        per_iter(Counter::SpilledBytes),
        "bytes",
    );
    m.push(
        "store.bytes_written_per_iter",
        per_iter(Counter::BytesLogged) + per_iter(Counter::CheckpointBytes),
        "bytes",
    );

    m.push(
        "trace.train_samples_per_s_delta",
        on.train_samples_per_s - off.train_samples_per_s,
        "samples/s",
    );
    m.push(
        "trace.goodput_samples_per_s_delta",
        on.goodput_samples_per_s - off.goodput_samples_per_s,
        "samples/s",
    );
    m.push(
        "trace.failure_cost_ms_p50_delta",
        on.failure_cost_ms_p50 - off.failure_cost_ms_p50,
        "ms",
    );
    m.push(
        "trace.failure_cost_ms_p90_delta",
        on.failure_cost_ms_p90 - off.failure_cost_ms_p90,
        "ms",
    );
    m.push("host.memcpy_gb_s", host.memcpy_gb_s, "GB/s");
}

/// Traced clean/crash pairs of a crash workload until `until`.
fn incidents(r: &mut Runner, w: Workload, until: Instant) -> Measured {
    let (refs, _) = r.setup(w, 1);
    r.measure(w, &refs, until, Tracing::On)
}

/// Median over the successful crash jobs' incidents of `f`, in ms.
fn p50_ms(t: &Measured, f: impl Fn(&swift::obs::Incident) -> Option<u64>) -> f64 {
    let v: Vec<f64> = t
        .traces
        .iter()
        .filter_map(|(_, t)| t.incident.as_ref())
        .filter_map(&f)
        .map(|ns| ns as f64 / 1e6)
        .collect();
    median(&v)
}

/// The p50 of each of `phases` over the incidents of traced jobs `t`,
/// their total (the time to recover, MTTR), and the residual: the traced
/// failure cost that no recovery span accounts for.
fn recovery_metrics(t: &Measured, prefix: &str, phases: &[Phase], m: &mut Metrics) {
    for &phase in phases {
        let v = p50_ms(t, |i| i.segment(phase).map(|s| s.duration_ns()));
        m.push(format!("{prefix}{}_ms", phase.name()), v, "ms");
    }
    let mttr = p50_ms(t, |i| Some(i.total_ns()));
    m.push(format!("{prefix}mttr_ms"), mttr, "ms");
    let cost = summarize(t, true).failure_cost_ms_p50;
    m.push(format!("{prefix}recovery_residual_ms"), cost - mttr, "ms");
}

fn sum_counter(t: &Measured, kind: JobKind, c: Counter) -> f64 {
    t.traces
        .iter()
        .filter(|(k, _)| *k == kind)
        .map(|(_, t)| t.counter(c) as f64)
        .sum()
}

/// `dp-train` shape: the whole step over the benchmark's own cluster,
/// then its parts on one rank's shard.
fn step_and_compute(seed: u64, m: &mut Metrics) {
    let shape = &DP_TRAIN_LONG;
    let world = shape.machines;
    let cluster = Cluster::new(Topology::uniform(world, 1));
    let dataset = Arc::new(dp_dataset(shape, seed));
    let barrier = Arc::new(Barrier::new(world));
    let weight = 1.0 / shape.batch as f32;
    let handles: Vec<_> = (0..world)
        .map(|rank| {
            let dataset = dataset.clone();
            let barrier = barrier.clone();
            cluster.spawn(rank, move |mut ctx| {
                let replicas: Vec<Rank> = (0..world).collect();
                let mut w =
                    DpWorker::new(mlp("bench-dp", shape.dims, model_seed(seed)), SGDM.build());
                let step = |ctx: &mut swift::net::WorkerCtx, w: &mut DpWorker| {
                    let b = shard_batch(&dataset.batch(w.iteration, shape.batch), rank, world);
                    let t = Instant::now();
                    dp_train_step(ctx, w, &replicas, &b.x, &b.y, weight, None)
                        .expect("failure-free step");
                    t.elapsed().as_secs_f64() * 1e3
                };
                for _ in 0..20 {
                    step(&mut ctx, &mut w);
                }
                // Counted steps: steady state, recorder installed by rank 0.
                barrier.wait();
                let rec = (rank == 0).then(|| {
                    let r = Arc::new(MemoryRecorder::new());
                    swift::obs::install(r.clone());
                    r
                });
                barrier.wait();
                let sent = ctx.comm.bytes_sent();
                for _ in 0..COUNTED_STEPS {
                    step(&mut ctx, &mut w);
                }
                let sent = ctx.comm.bytes_sent() - sent;
                barrier.wait();
                let pool = rec.map(|r| {
                    swift::obs::uninstall();
                    (r.counter(Counter::PoolHits), r.counter(Counter::PoolMisses))
                });
                barrier.wait();
                let times: Vec<f64> = (0..STEPS).map(|_| step(&mut ctx, &mut w)).collect();
                (times, sent, pool)
            })
        })
        .collect();
    let mut step_ms = Vec::new();
    let mut sent = 0u64;
    let mut pool = (0u64, 0u64);
    for h in handles {
        let (times, s, p) = h.join().expect("step probe rank panicked");
        step_ms.extend(times);
        sent += s;
        if let Some(p) = p {
            pool = p;
        }
    }
    let step_p50 = median(&step_ms);
    m.push("core.step_ms_p50", step_p50, "ms");
    m.push("core.step_ms_p99", quantile(&step_ms, 0.99), "ms");

    // The step's parts, one rank's shard on this thread.
    let mut model = mlp("bench-dp", shape.dims, model_seed(seed));
    let mut opt = SGDM.build();
    let groups = model.num_param_groups();
    let b = shard_batch(&dataset.batch(0, shape.batch), 0, world);
    let (mut fwd, mut bwd, mut upd) = (Vec::new(), Vec::new(), Vec::new());
    for it in 0..200u64 {
        let ctx = StepCtx::new(it, 0);
        let t = Instant::now();
        let out = model.forward(ctx, &b.x, Mode::Train);
        fwd.push(t.elapsed().as_secs_f64() * 1e3);
        let (_, grad) = softmax_cross_entropy_scaled(&out, &b.y, weight);
        let t = Instant::now();
        black_box(model.backward_with(ctx, &grad, &mut |_, _| {}));
        bwd.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        model.apply_update(&mut *opt, 0, groups);
        opt.finish_step();
        upd.push(t.elapsed().as_secs_f64() * 1e3);
        model.zero_grads();
    }
    let allreduce = allreduce_ms(model.param_count());
    let (fwd, bwd, upd) = (median(&fwd), median(&bwd), median(&upd));
    m.push("dnn.forward_ms", fwd, "ms");
    m.push("dnn.backward_ms", bwd, "ms");
    m.push("optim.update_ms", upd, "ms");
    m.push("net.allreduce_ms", allreduce, "ms");
    m.push(
        "net.bytes_sent_per_step",
        sent as f64 / COUNTED_STEPS as f64,
        "bytes",
    );
    m.push(
        "core.step_residual_ms",
        step_p50 - (fwd + bwd + allreduce + upd),
        "ms",
    );
    m.push(
        "tensor.pool_hits_per_step",
        pool.0 as f64 / COUNTED_STEPS as f64,
        "count",
    );
    m.push(
        "tensor.pool_misses_per_step",
        pool.1 as f64 / COUNTED_STEPS as f64,
        "count",
    );
    let mut i = 0u64;
    m.push(
        "data.batch_ms",
        median_ms(500, || {
            i += 1;
            black_box(dataset.batch(i, shape.batch));
        }),
        "ms",
    );
}

/// Chunked all-reduce of a gradient-sized tensor over the `dp-train`
/// world; rank 0's median call time.
fn allreduce_ms(numel: usize) -> f64 {
    let world = DP_TRAIN_LONG.machines;
    let cluster = Cluster::new(Topology::uniform(world, 1));
    let handles: Vec<_> = (0..world)
        .map(|rank| {
            cluster.spawn(rank, move |mut ctx| {
                let all: Vec<Rank> = (0..world).collect();
                let t = Tensor::from_vec([numel], vec![rank as f32 + 0.5; numel]);
                let mut out = Tensor::zeros([numel]);
                let mut times = Vec::new();
                for i in 0..220 {
                    let s = Instant::now();
                    ctx.comm
                        .allreduce_sum_chunked_into(&all, &t, &mut out, default_chunk_bytes())
                        .expect("all-reduce");
                    if i >= 20 {
                        times.push(s.elapsed().as_secs_f64() * 1e3);
                    }
                }
                times
            })
        })
        .collect();
    let times: Vec<Vec<f64>> = handles
        .into_iter()
        .map(|h| h.join().expect("all-reduce rank panicked"))
        .collect();
    median(&times[0])
}

/// `dp-failover` shape: update-undo, the state codec, and the sharded
/// state transfer to one replacement.
fn recovery_codec(seed: u64, host: &Host, m: &mut Metrics) {
    let shape = &DP_FAILOVER;
    let mut model = mlp("bench-dp", shape.dims, model_seed(seed));
    let mut opt = SGDM.build();
    let b = dp_dataset(shape, seed).batch(0, shape.batch);
    let out = model.forward(StepCtx::new(0, 0), &b.x, Mode::Train);
    let (_, grad) = softmax_cross_entropy_scaled(&out, &b.y, 1.0 / shape.batch as f32);
    model.backward(StepCtx::new(0, 0), &grad);
    model.optimizer_step(&mut *opt);
    let grads = model.grads_snapshot();
    let groups: Vec<usize> = (0..model.num_param_groups()).collect();
    let mut undo = Vec::new();
    for _ in 0..2000 {
        model.apply_update_range(&mut *opt, &grads, 0, groups.len());
        let t = Instant::now();
        model
            .undo_update_with(&mut *opt, &grads, &groups)
            .expect("invertible optimizer");
        undo.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.push("optim.undo_ms", median(&undo), "ms");

    let encode =
        |model: &Sequential, opt: &dyn Optimizer| (model.state().encode(), opt.state().encode());
    let (mb, ob) = encode(&model, &*opt);
    let bytes = mb.len() + ob.len();
    let enc = median_ms(2000, || {
        black_box(encode(&model, &*opt));
    });
    let dec = median_ms(2000, || {
        black_box(ModelState::decode(&mut mb.clone()).expect("model state"));
        black_box(OptimState::decode(&mut ob.clone()).expect("optimizer state"));
    });
    m.push("tensor.encode_ms", enc, "ms");
    m.push("tensor.decode_ms", dec, "ms");
    m.push(
        "tensor.encode_memcpy_share",
        host.memcpy_share(bytes, enc),
        "share",
    );
    m.push(
        "tensor.decode_memcpy_share",
        host.memcpy_share(bytes, dec),
        "share",
    );

    let payload = Bytes::from([mb.as_ref(), ob.as_ref()].concat());
    let xfer = state_transfer_ms(payload);
    m.push("net.state_transfer_ms", xfer, "ms");
    m.push(
        "net.state_transfer_memcpy_share",
        host.memcpy_share(bytes, xfer),
        "share",
    );
}

/// Sharded transfer of `payload` from every survivor to the one
/// replacement of the `dp-failover` world; the replacement's median.
fn state_transfer_ms(payload: Bytes) -> f64 {
    let world = DP_FAILOVER.machines;
    let replacement = DP_FAILOVER.crash_machine;
    let survivors: Vec<Rank> = (0..world).filter(|&r| r != replacement).collect();
    let cluster = Cluster::new(Topology::uniform(world, 1));
    let handles: Vec<_> = (0..world)
        .map(|rank| {
            let payload = payload.clone();
            let survivors = survivors.clone();
            cluster.spawn(rank, move |mut ctx| {
                let mine = survivors.contains(&rank).then_some(payload);
                let mut times = Vec::new();
                for i in 0..1020 {
                    let t = Instant::now();
                    let got = ctx
                        .comm
                        .scatter_state_sharded(
                            &survivors,
                            &[replacement],
                            mine.clone(),
                            default_shard_bytes(),
                        )
                        .expect("state transfer");
                    if i >= 20 {
                        times.push(t.elapsed().as_secs_f64() * 1e3);
                    }
                    black_box(got);
                }
                times
            })
        })
        .collect();
    let times: Vec<Vec<f64>> = handles
        .into_iter()
        .map(|h| h.join().expect("state-transfer rank panicked"))
        .collect();
    median(&times[replacement])
}

/// `pipeline-replay` shape: per-stage compute, one iteration's boundary
/// tensors through the WAL, the replayed iterations' log reads,
/// checkpoint save/load, and the schedule's idle share.
fn pipeline_layers(seed: u64, host: &Host, m: &mut Metrics) {
    let s = &PIPELINE;
    let dims = s.dims;
    let mut stages = split_stages(mlp("bench-pp", dims, model_seed(seed)), s.stages);
    let data = swift::data::BlobsDataset::new(seed, dims[0], dims[dims.len() - 1], s.noise);
    let mb = split_microbatches(&data.batch(0, s.batch), s.microbatches)
        .swap_remove(0)
        .batch;
    let mut t_ms = [[0.0f64; 2]; 2]; // [stage][forward, backward]
    let (mut act, mut g_in) = (Tensor::zeros([1]), Tensor::zeros([1]));
    let mut samples = [[Vec::new(), Vec::new()], [Vec::new(), Vec::new()]];
    for it in 0..200u64 {
        let ctx = StepCtx::new(it, 0);
        let t = Instant::now();
        act = stages[0].forward(ctx, &mb.x, Mode::Train);
        samples[0][0].push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let out = stages[1].forward(ctx, &act, Mode::Train);
        samples[1][0].push(t.elapsed().as_secs_f64() * 1e3);
        let (_, grad) = softmax_cross_entropy_scaled(&out, &mb.y, 1.0 / s.batch as f32);
        let t = Instant::now();
        g_in = stages[1].backward(ctx, &grad);
        samples[1][1].push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        black_box(stages[0].backward(ctx, &g_in));
        samples[0][1].push(t.elapsed().as_secs_f64() * 1e3);
        for st in &mut stages {
            st.zero_grads();
        }
    }
    for (st, row) in samples.iter().enumerate() {
        for (dir, v) in row.iter().enumerate() {
            t_ms[st][dir] = median(v);
        }
    }
    // The slowest stage paces the schedule; a faster stage also idles
    // for the difference on each of its micro-batches.
    let t_f = t_ms[0][0].max(t_ms[1][0]);
    let t_b = t_ms[0][1].max(t_ms[1][1]);
    let (slots, makespan) = simulate(ScheduleKind::OneFOneB, s.stages, s.microbatches, t_f, t_b);
    let m_f = s.microbatches as f64;
    let idle: f64 = slots
        .iter()
        .zip(&t_ms)
        .map(|(sl, t)| stage_bubble_time(sl, makespan) + m_f * (t_f - t[0] + t_b - t[1]))
        .sum();
    m.push(
        "pipeline.idle_share",
        idle / (s.stages as f64 * makespan),
        "share",
    );

    // WAL: each micro-batch's activation (stage 0 → 1) and gradient
    // (stage 1 → 0), staged then handed to the writers in the bubble.
    // Each pass logs one job's iterations up to the crash, garbage-
    // collecting at the checkpoint as the job does, so the reads see the
    // log a replay sees: the iterations since the checkpoint.
    let (from, to) = (s.ckpt_interval, s.crash.1);
    let (mut log, mut flush, mut read) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let store = BlobStore::new_temp("bench-wal").expect("wal store");
        let mut logger = Logger::with_precision(
            LogMode::BubbleAsync,
            Topology::uniform(s.stages, 1),
            GroupMap::singletons(s.stages),
            store.clone(),
            LogPrecision::F32,
        );
        for it in 0..to {
            if it == from {
                logger.gc_before(IterationId::new(from)).expect("wal gc");
            }
            let t = Instant::now();
            for mbi in 0..s.microbatches as u64 {
                let ctx = StepCtx::new(it, mbi);
                logger.log_send(0, 1, ctx, MsgKind::Activation, &act);
                logger.log_send(1, 0, ctx, MsgKind::Gradient, &g_in);
            }
            logger.on_bubble();
            log.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            logger.flush();
            flush.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let reader = WalReader::new(store);
        read.push(median_ms(10, || {
            for it in from..to {
                black_box(reader.records_for(IterationId::new(it)).expect("wal read"));
            }
        }));
    }
    m.push("wal.log_ms_per_iter", median(&log), "ms");
    m.push("wal.flush_ms", median(&flush), "ms");
    m.push("wal.read_ms", median(&read), "ms");

    // Checkpoints of the stage that fails.
    let failed = s.crash.0;
    let mut opt = SGDM.build();
    stages[failed].optimizer_step(&mut *opt);
    let mgr = CheckpointManager::new(
        BlobStore::new_temp("bench-ckpt").expect("ckpt store"),
        failed,
    );
    let mut ckpt = Checkpoint {
        iteration: 0,
        model: stages[failed].state(),
        optim: opt.state(),
    };
    let mut save = Vec::new();
    for i in 1..=30u64 {
        ckpt.iteration = i * s.ckpt_interval;
        let t = Instant::now();
        mgr.save(&ckpt).expect("checkpoint save");
        save.push(t.elapsed().as_secs_f64() * 1e3);
        mgr.gc().expect("checkpoint gc");
    }
    let save = median(&save);
    let load = median_ms(30, || {
        black_box(mgr.load_latest().expect("checkpoint load"));
    });
    m.push("ckpt.save_ms", save, "ms");
    m.push(
        "ckpt.save_memcpy_share",
        host.memcpy_share(ckpt.byte_size(), save),
        "share",
    );
    m.push("ckpt.load_ms", load, "ms");
}
