//! The traced run: after a served run (for its counts, medians and
//! digest), replay the same inputs through each layer's public functions
//! with a clock around every call, the way the trainer and the workers
//! make them.

use crate::pin;
use crate::reference::{self, mean, median};
use crate::served::{self, Served, READ_OPS};
use crate::workload::{Workload, K};
use seqge_ann::{AnnBuilder, AnnConfig, AnnIndex};
use seqge_backend::TrainBackend;
use seqge_core::{DataflowOsElm, EmbeddingModel, OsElmSkipGram};
use seqge_eval::EdgeOp;
use seqge_fpga::Accelerator;
use seqge_graph::{EdgeEvent, Graph, NodeId};
use seqge_linalg::Mat;
use seqge_sampling::{NegativeTable, Rng64, UpdatePolicy, WalkCorpus, Walker};
use seqge_serve::protocol::{op_name, parse_request, Response};
use seqge_serve::{EmbeddingSnapshot, FaultInjector, FsyncPolicy, Wal, WalConfig, DEFAULT_PROBES};
use serde_json::Value;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Phase-3 cycles whose reads are replayed against a snapshot (every n-th).
const READ_SAMPLE_EVERY: usize = 4;
/// Walks timed per model for the per-walk layers.
const WALK_SAMPLES: usize = 200;
/// Repeats per sample for calls too short for one clock read.
const SHORT_REPS: u32 = 16;

/// Per-layer metrics (name, value, unit), in the order they are printed.
pub type Layers = Vec<(&'static str, f64, &'static str)>;

pub struct Traced {
    pub served: Served,
    pub layers: Layers,
    /// Extra violations found by the replay (digest mismatch).
    pub violations: Vec<String>,
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Times `f`, repeated `reps` times, and returns µs per call.
fn per_call<R>(reps: u32, mut f: impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    us_since(t) / reps as f64
}

/// The trainer's publish: render the view, then sync the ANN index to it.
#[derive(Default)]
struct PublishTimes {
    publish_view_us: Vec<f64>,
    sync_us: Vec<f64>,
    rehashed: usize,
    scanned: usize,
}

impl PublishTimes {
    fn publish(
        &mut self,
        backend: &mut dyn TrainBackend,
        ann: &mut AnnBuilder,
    ) -> (Mat<f32>, Arc<AnnIndex>) {
        let t = Instant::now();
        let view = backend.publish_view();
        self.publish_view_us.push(us_since(t));
        let t = Instant::now();
        let (index, rep) = ann.sync(&view);
        self.sync_us.push(us_since(t));
        self.rehashed += rep.rehashed;
        self.scanned += rep.total;
        (view, index)
    }
}

/// What a snapshot read returned, before the worker renders it.
enum Answer<'a> {
    Row(&'a [f32]),
    Score(f64),
    Hits(Vec<(NodeId, f64)>, Option<bool>),
}

/// The worker's reply rendering for one read, field for field as the
/// server builds it.
fn render(snap: &EmbeddingSnapshot, q: NodeId, other: NodeId, answer: &Answer) -> String {
    let op_field = op_name(EdgeOp::Cosine);
    match answer {
        Answer::Row(row) => {
            let vec: Vec<Value> = row.iter().map(|&x| Value::F64(x as f64)).collect();
            Response::ok()
                .field("node", q)
                .field("version", snap.version)
                .field("embedding", Value::Array(vec))
                .build()
        }
        Answer::Score(s) => Response::ok()
            .field("u", q)
            .field("v", other)
            .field("op", op_field)
            .field("version", snap.version)
            .field("score", *s)
            .build(),
        Answer::Hits(hits, fallback) => {
            let items: Vec<Value> = hits
                .iter()
                .map(|&(v, s)| {
                    Value::Object(vec![
                        ("node".to_string(), Value::U64(v as u64)),
                        ("score".to_string(), Value::F64(s)),
                    ])
                })
                .collect();
            let mode = if fallback.is_some() { "ann" } else { "exact" };
            let mut resp = Response::ok()
                .field("node", q)
                .field("op", op_field)
                .field("mode", mode)
                .field("version", snap.version)
                .field("results", Value::Array(items));
            if let Some(fb) = fallback {
                resp = resp.field("fallback", *fb);
            }
            resp.build()
        }
    }
}

/// Read-path samples per op, indexed like [`READ_OPS`].
#[derive(Default)]
struct ReadTimes {
    parse_us: [Vec<f64>; 4],
    snapshot_us: [Vec<f64>; 4],
    encode_us: [Vec<f64>; 4],
    candidates: Vec<f64>,
    fallbacks: usize,
}

impl ReadTimes {
    fn cycle(&mut self, snap: &EmbeddingSnapshot, queries: &[NodeId]) {
        for (i, &q) in queries.iter().enumerate() {
            let other = queries[(i + 1) % queries.len()];
            let lines = [
                served::embedding_line(q),
                served::score_line(q, other),
                served::topk_line(q, "exact"),
                served::topk_line(q, "ann"),
            ];
            for (op, line) in lines.iter().enumerate() {
                self.parse_us[op].push(per_call(1, || parse_request(line).expect("well-formed")));
                let t = Instant::now();
                let answer = match op {
                    0 => Answer::Row(snap.embedding(q).expect("query in range")),
                    1 => {
                        Answer::Score(snap.score(q, other, EdgeOp::Cosine).expect("pair in range"))
                    }
                    2 => {
                        Answer::Hits(snap.topk(q, K, EdgeOp::Cosine).expect("query in range"), None)
                    }
                    _ => {
                        let r = snap.topk_ann(q, K, EdgeOp::Cosine, None, DEFAULT_PROBES);
                        let r = r.expect("query in range");
                        self.candidates.push(r.candidates as f64);
                        self.fallbacks += r.fallback as usize;
                        Answer::Hits(r.hits, Some(r.fallback))
                    }
                };
                let mut us = us_since(t);
                if op < 2 {
                    // Too short for one clock read: time a run of repeats.
                    us = match op {
                        0 => per_call(SHORT_REPS, || snap.embedding(q).map(|r| r[0])),
                        _ => per_call(SHORT_REPS, || snap.score(q, other, EdgeOp::Cosine)),
                    };
                }
                self.snapshot_us[op].push(us);
                self.encode_us[op].push(per_call(1, || render(snap, q, other, &answer)));
            }
        }
    }
}

/// Timed replay of the served run's event sequence.
struct Replay {
    graph: Graph,
    backend: Box<dyn TrainBackend>,
    wal: Wal,
    fault: FaultInjector,
    ann: AnnBuilder,
    ingest_us: Vec<f64>,
    walks: usize,
    append_us: Vec<f64>,
}

impl Replay {
    fn apply(&mut self, e: EdgeEvent) {
        let t = Instant::now();
        self.wal.append_then(e, &self.fault, |_| Ok::<(), ()>(())).expect("scratch wal append");
        self.append_us.push(us_since(t));
        let t = Instant::now();
        let walks = self.backend.ingest(&mut self.graph, e).expect("replayed event applies");
        self.ingest_us.push(us_since(t));
        self.walks += walks;
    }
}

/// Commits appended to a scratch WAL with `fsync=batch`, each forced to
/// disk: the durable commit no served run pays. Kept apart from the replay,
/// whose figures an fsync every few events would disturb.
const COMMIT_SAMPLES: usize = 200;

fn price_commit(dir: &Path, backend: &dyn TrainBackend, graph: &Graph) -> std::io::Result<f64> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let wal = Wal::init(
        &WalConfig { dir: dir.to_path_buf(), fsync: FsyncPolicy::Batch },
        backend,
        graph,
    )?;
    let fault = FaultInjector::disabled();
    let mut us = Vec::with_capacity(COMMIT_SAMPLES);
    for _ in 0..COMMIT_SAMPLES {
        wal.append_then(EdgeEvent::Add(0, 1), &fault, |_| Ok::<(), ()>(()))?;
        let t = Instant::now();
        wal.commit()?;
        us.push(us_since(t));
    }
    drop(wal);
    std::fs::remove_dir_all(dir)?;
    Ok(median(&us))
}

pub fn run(w: &Workload, seed: u64, cycles: usize, out_dir: &Path) -> std::io::Result<Traced> {
    let (inputs, served) = served::run(w, seed, cycles, 1, out_dir)?;
    let spec = w.spec(seed);
    let graph = inputs.initial.clone();
    let mut backend = spec.cold(graph.num_nodes());
    // Placed like the served setup: on every CPU the process may use.
    let t = Instant::now();
    backend.bootstrap(&graph);
    let bootstrap_s = t.elapsed().as_secs_f64();
    // The rest is placed like the served run's measured phases.
    let binding = pin::bind_to_one_cpu()?;

    // Every workload replays through a scratch WAL configured like the
    // served one (no fsync), so the WAL layer has a figure on both.
    let wal_dir = out_dir.join(format!("trace-wal-{}", std::process::id()));
    if wal_dir.exists() {
        std::fs::remove_dir_all(&wal_dir)?;
    }
    let wal = Wal::init(
        &WalConfig { dir: wal_dir.clone(), fsync: FsyncPolicy::Never },
        &*backend,
        &graph,
    )?;
    let mut r = Replay {
        graph,
        backend,
        wal,
        fault: FaultInjector::disabled(),
        ann: AnnBuilder::new(AnnConfig::default()),
        ingest_us: Vec::new(),
        walks: 0,
        append_us: Vec::new(),
    };
    // The boot publish (a full index build) is not a per-write cost.
    let mut boot = PublishTimes::default();
    boot.publish(&mut *r.backend, &mut r.ann);

    // Ingest, published in the served run's own batch size.
    let batch =
        (inputs.ingest.len() as u64).div_ceil(served.ingest_publishes.max(1)).max(1) as usize;
    let mut ingest_pub = PublishTimes::default();
    for chunk in inputs.ingest.chunks(batch) {
        for &e in chunk {
            r.apply(e);
        }
        ingest_pub.publish(&mut *r.backend, &mut r.ann);
    }
    r.wal.commit().expect("scratch wal commit");
    let ingest_events = inputs.ingest.len();
    let ingest_mean_us = mean(&r.ingest_us);

    // Phase 3: write, publish, commit, flush publish, reads.
    // The write's own batch publish, then the flush barrier's publish.
    let (mut write_pub, mut flush_pub) = (PublishTimes::default(), PublishTimes::default());
    let mut reads = ReadTimes::default();
    let mut version = served.ingest_publishes;
    let mut final_view = None;
    for (i, cycle) in inputs.cycles.iter().enumerate() {
        r.apply(cycle.write);
        write_pub.publish(&mut *r.backend, &mut r.ann);
        r.wal.commit().expect("scratch wal commit");
        let (view, index) = flush_pub.publish(&mut *r.backend, &mut r.ann);
        version += 2;
        if i % READ_SAMPLE_EVERY == 0 {
            let snap = EmbeddingSnapshot {
                version,
                emb: view.clone(),
                num_edges: r.graph.num_edges(),
                walks_trained: 0,
                edges_inserted: 0,
                edges_removed: 0,
                ann: Some(index),
            };
            reads.cycle(&snap, &cycle.queries);
        }
        final_view = Some(view);
    }
    let final_view = final_view.unwrap_or_else(|| r.backend.publish_view());
    let digest = reference::digest((0..final_view.rows()).map(|v| final_view.row(v)));
    let mut violations = Vec::new();
    let ann_reads = reads.candidates.len().max(1) as f64;
    if reads.fallbacks as f64 / ann_reads > served::ANN_FALLBACK_CEILING {
        violations.push(format!(
            "{} of {} replayed ann topk reads fell back to the exact scan",
            reads.fallbacks,
            reads.candidates.len()
        ));
    }
    if digest != served.digest {
        violations.push(format!(
            "replayed embedding digest {digest:016x} differs from the served run's {:016x}",
            served.digest
        ));
    }
    drop(r.wal);
    std::fs::remove_dir_all(&wal_dir)?;
    let commit_us = price_commit(
        &out_dir.join(format!("commit-wal-{}", std::process::id())),
        &*r.backend,
        &r.graph,
    )?;

    let walk = per_walk_layers(w, seed, &r.graph);
    binding.release()?;
    let events = ingest_events + inputs.cycles.len();
    let med = |xs: &[Vec<f64>; 4], op: usize| median(&xs[op]);
    let all = |xs: &[Vec<f64>; 4]| xs.iter().flatten().copied().collect::<Vec<f64>>();
    let served_p50 = |op: usize| median(&served.reads_us[op]);
    let overhead = served_p50(0)
        - med(&reads.snapshot_us, 0)
        - med(&reads.parse_us, 0)
        - med(&reads.encode_us, 0);

    // A phase-3 write pays both publishes: its batch's and the flush's.
    let per_write =
        |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x + y).collect::<Vec<f64>>();
    let publish_view_us =
        median(&per_write(&write_pub.publish_view_us, &flush_pub.publish_view_us));
    let sync_us = median(&per_write(&write_pub.sync_us, &flush_pub.sync_us));
    let rehashed = write_pub.rehashed + flush_pub.rehashed;
    let syncs = write_pub.sync_us.len() + flush_pub.sync_us.len();
    let layers: Layers = vec![
        ("backend.bootstrap_s", bootstrap_s, "s"),
        ("backend.ingest_us", median(&r.ingest_us), "us"),
        ("backend.walks_per_event", r.walks as f64 / events as f64, "count"),
        ("sampling.walk_us", walk.walk_us, "us"),
        ("sampling.table_rebuild_us", walk.table_rebuild_us, "us"),
        ("core.train_walk_us", walk.core_us, "us"),
        ("fpga.train_walk_us", walk.fpga_us, "us"),
        ("backend.probe_train_walk_us", walk.probe_us, "us"),
        ("backend.publish_view_us", publish_view_us, "us"),
        ("ann.sync_us", sync_us, "us"),
        ("ann.rows_rehashed", rehashed as f64 / syncs as f64, "count"),
        (
            "ann.dirty_row_share",
            rehashed as f64 / (write_pub.scanned + flush_pub.scanned).max(1) as f64,
            "ratio",
        ),
        ("ann.candidates", mean(&reads.candidates), "count"),
        (
            "trainer.events_per_publish",
            ingest_events as f64 / served.ingest_publishes.max(1) as f64,
            "count",
        ),
        (
            "trainer.publishes_per_write",
            served.write_publishes as f64 / inputs.cycles.len().max(1) as f64,
            "count",
        ),
        ("wal.append_us", median(&r.append_us), "us"),
        ("wal.commit_us", commit_us, "us"),
        ("protocol.parse_us", median(&all(&reads.parse_us)), "us"),
        ("protocol.encode_us", median(&all(&reads.encode_us)), "us"),
        ("snapshot.embedding_us", med(&reads.snapshot_us, 0), "us"),
        ("snapshot.score_us", med(&reads.snapshot_us, 1), "us"),
        ("snapshot.topk_exact_us", med(&reads.snapshot_us, 2), "us"),
        ("snapshot.topk_ann_us", med(&reads.snapshot_us, 3), "us"),
        ("server.read_overhead_us", overhead, "us"),
    ];

    // The blocking layers of each end-to-end figure, beside that figure.
    println!("layer sums against the served medians of this run:");
    let ingest_pub_us =
        (mean(&ingest_pub.publish_view_us) + mean(&ingest_pub.sync_us)) / batch as f64;
    let ingest_layers_eps = 1e6 / (ingest_mean_us + ingest_pub_us);
    gap_line("ingest_eps (events/s)", ingest_layers_eps, served.ingest_eps);
    for (which, p) in [("the write's batch", &write_pub), ("the flush", &flush_pub)] {
        println!(
            "  phase-3 publish for {which:<17} publish_view {:>9.1} us + ann.sync {:>9.1} us, {:.1} rows rehashed",
            median(&p.publish_view_us),
            median(&p.sync_us),
            p.rehashed as f64 / p.sync_us.len().max(1) as f64
        );
    }
    let append_us = if w.wal { median(&r.append_us[ingest_events..]) } else { 0.0 };
    let visible_layers_ms = (append_us
        + median(&r.ingest_us[ingest_events..])
        + publish_view_us
        + sync_us
        + 2.0 * overhead)
        / 1e3;
    gap_line("visible_p50_ms (ms)", visible_layers_ms, median(&served.visible_ms));
    for (op, name) in READ_OPS.iter().enumerate() {
        let layers_us = med(&reads.parse_us, op)
            + med(&reads.snapshot_us, op)
            + med(&reads.encode_us, op)
            + overhead;
        gap_line(&format!("{name}_p50_us (us)"), layers_us, served_p50(op));
    }
    Ok(Traced { served, layers, violations })
}

fn gap_line(what: &str, layers: f64, end_to_end: f64) {
    println!(
        "  {what:<28} layers {layers:>12.3}   end-to-end {end_to_end:>12.3}   gap {:>+7.1}%",
        (end_to_end - layers) / end_to_end * 100.0
    );
}

struct WalkLayers {
    walk_us: f64,
    table_rebuild_us: f64,
    core_us: f64,
    fpga_us: f64,
    probe_us: f64,
}

/// Per-walk costs on the workload's final graph: walk generation, the
/// negative-table rebuild over a one-walk-per-node corpus, and each
/// model's `train_walk` on the same walks and negative draws.
fn per_walk_layers(w: &Workload, seed: u64, g: &Graph) -> WalkLayers {
    let spec = w.spec(seed);
    let n = g.num_nodes();
    let mut walker = Walker::new(spec.train.walk);
    let mut rng = Rng64::seed_from_u64(seed ^ 0x7a11_c0de);
    let mut corpus = WalkCorpus::new(n);
    let mut buf = Vec::new();
    for v in 0..n as NodeId {
        walker.walk_into(g, v, &mut rng, &mut buf);
        corpus.record(&buf);
    }
    let mut walk_us = Vec::with_capacity(WALK_SAMPLES);
    let mut walks = Vec::with_capacity(WALK_SAMPLES);
    while walks.len() < WALK_SAMPLES {
        let start = rng.gen_index(n) as NodeId;
        if g.degree(start) == 0 {
            continue;
        }
        let t = Instant::now();
        walker.walk_into(g, start, &mut rng, &mut buf);
        walk_us.push(us_since(t));
        walks.push(buf.clone());
    }
    let mut table = NegativeTable::new(UpdatePolicy::every_edge());
    let rebuild_us: Vec<f64> =
        (0..WALK_SAMPLES).map(|_| per_call(1, || table.rebuild(&corpus))).collect();

    let time_model = |m: &mut dyn EmbeddingModel| {
        let mut rng = Rng64::seed_from_u64(seed);
        let us: Vec<f64> =
            walks.iter().map(|walk| per_call(1, || m.train_walk(walk, &table, &mut rng))).collect();
        median(&us)
    };
    let mut accel = Accelerator::new(n, spec.oselm);
    let mut probe = DataflowOsElm::from_parts(*accel.config(), accel.beta_f32(), accel.p_f32());
    let core_us = time_model(&mut OsElmSkipGram::new(n, spec.oselm));
    let fpga_us = time_model(&mut accel);
    let probe_us = time_model(&mut probe);
    WalkLayers {
        walk_us: median(&walk_us),
        table_rebuild_us: median(&rebuild_us),
        core_us,
        fpga_us,
        probe_us,
    }
}
