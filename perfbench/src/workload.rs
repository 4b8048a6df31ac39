//! The two workloads and the inputs each one generates from `--seed`.

use crate::reference::min_samples;
use seqge_backend::{BackendKind, BackendSpec};
use seqge_bench::sbm_stream::{SbmStream, SbmStreamParams};
use seqge_core::{OsElmConfig, TrainConfig};
use seqge_graph::{spanning_forest, Dataset, EdgeEvent, Graph, NodeId};
use seqge_sampling::{Rng64, UpdatePolicy};
use std::collections::HashSet;

/// Where a workload's graph comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// The paper's Amazon Photo dataset, synthesized at `scale`.
    AmazonPhoto { scale: f64 },
    /// A planted-partition SBM streamed from `crates/bench`'s synthesizer.
    Sbm { nodes: usize },
}

/// One workload: its graph, engine and the shape of every phase. What
/// both workloads share is a constant below.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub source: Source,
    pub backend: BackendKind,
    /// WAL on (appends, no fsync).
    pub wal: bool,
    /// Stream events queued in the ingest phase.
    pub ingest_events: usize,
    /// Phase-3 cycles per second of `--seconds`.
    pub cycles_per_second: usize,
}

/// Embedding dimension.
pub const DIM: usize = 32;
/// Walks per node of the bootstrap pass: walks per node cost only
/// bootstrap time, and paper defaults (10) would make setup most of a run.
const WALKS_PER_NODE: usize = 1;
/// Every `REMOVE_EVERY`-th write of phase 3 removes an earlier edge.
const REMOVE_EVERY: usize = 8;
/// Seeded random query vertices per cycle, beside the two endpoints.
const RANDOM_READS: usize = 1;
/// Held-out stream edges (and as many non-edges) for the AUC.
const AUC_PAIRS: usize = 2000;
/// Setups timed per served run for the `setup_s` median.
pub const SETUPS: usize = 3;
/// Top-k size of every `topk` read.
pub const K: usize = 10;
/// The percentile of the tail metrics, taken per window of samples with
/// ten beyond it and reported as the median over windows.
pub const TAIL_PERCENTILE: f64 = 90.0;
/// Fewest windows a phase-3 tail is taken over.
const TAIL_WINDOWS: usize = 10;

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "kernel_ampt_fpga",
        source: Source::AmazonPhoto { scale: 0.15 },
        backend: BackendKind::FpgaSim,
        wal: true,
        ingest_events: 1000,
        cycles_per_second: 300,
    },
    Workload {
        name: "publish_sbm20k_float",
        source: Source::Sbm { nodes: 20_000 },
        backend: BackendKind::Float,
        wal: false,
        ingest_events: 6000,
        cycles_per_second: 25,
    },
];

impl Workload {
    /// Phase-3 cycles for a run of `seconds`: fixed by the arguments, never
    /// by the clock, and never fewer than [`TAIL_WINDOWS`] windows of the
    /// tail percentile, each with ten samples beyond it, need.
    pub fn cycles(&self, seconds: usize) -> usize {
        (seconds * self.cycles_per_second).max(TAIL_WINDOWS * min_samples(TAIL_PERCENTILE, 10))
    }

    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The engine spec: paper defaults at [`DIM`], [`WALKS_PER_NODE`] for
    /// the bootstrap, negative table rebuilt on every edge, fpga-sim with
    /// its default deviation probe.
    pub fn spec(&self, seed: u64) -> BackendSpec {
        let mut train = TrainConfig::paper_defaults(DIM);
        train.walk.walks_per_node = WALKS_PER_NODE;
        train.model.seed = seed;
        let oselm = OsElmConfig { model: train.model, ..OsElmConfig::paper_defaults(DIM) };
        BackendSpec::new(self.backend, train, oselm, UpdatePolicy::every_edge(), seed)
    }
}

/// One phase-3 cycle: the write, then the vertices its reads go to.
#[derive(Debug, Clone)]
pub struct Cycle {
    pub write: EdgeEvent,
    /// Endpoints of the write first, then the seeded random vertices.
    pub queries: Vec<NodeId>,
}

/// Everything a run sends, generated from the seed alone.
pub struct Inputs {
    /// The served boot graph: a spanning forest of the full graph.
    pub initial: Graph,
    /// Ingest-phase events (adds of the stream's prefix).
    pub ingest: Vec<EdgeEvent>,
    pub cycles: Vec<Cycle>,
    /// Held-out stream edges, never sent.
    pub held_out: Vec<(NodeId, NodeId)>,
    /// Seeded pairs that are not edges of the full graph.
    pub non_edges: Vec<(NodeId, NodeId)>,
}

impl Inputs {
    pub fn generate(w: &Workload, seed: u64, cycles: usize) -> Inputs {
        let full = match w.source {
            Source::AmazonPhoto { scale } => Dataset::AmazonPhoto.generate_scaled(scale, seed),
            Source::Sbm { nodes } => {
                let mut g = Graph::with_nodes(nodes);
                for (u, v) in SbmStream::new(SbmStreamParams::sized(nodes, seed)) {
                    // The stream may repeat a pair; the graph keeps one.
                    let _ = g.add_edge(u, v);
                }
                g
            }
        };
        let split = spanning_forest(&full);
        let initial = split.initial_graph(&full);
        let mut rng = Rng64::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut stream = split.removed_edges;
        shuffle(&mut stream, &mut rng);
        let n = full.num_nodes();

        let held_out = stream.split_off(stream.len() - AUC_PAIRS);
        let mut non_edges = Vec::with_capacity(AUC_PAIRS);
        let mut seen = HashSet::new();
        while non_edges.len() < AUC_PAIRS {
            let u = rng.gen_index(n) as NodeId;
            let v = rng.gen_index(n) as NodeId;
            if u != v && !full.has_edge(u, v) && seen.insert((u.min(v), u.max(v))) {
                non_edges.push((u, v));
            }
        }

        let mut next = stream.into_iter();
        let mut take =
            |what: &str| next.next().unwrap_or_else(|| panic!("stream too short for {what}"));
        let mut ingest = Vec::with_capacity(w.ingest_events);
        // Edges present and added by the benchmark: the pool removals draw from.
        let mut added = Vec::new();
        for _ in 0..w.ingest_events {
            let (u, v) = take("the ingest prefix");
            ingest.push(EdgeEvent::Add(u, v));
            added.push((u, v));
        }
        let mut out = Vec::with_capacity(cycles);
        for i in 0..cycles {
            let write = if (i + 1) % REMOVE_EVERY == 0 {
                let (u, v) = added.swap_remove(rng.gen_index(added.len()));
                EdgeEvent::Remove(u, v)
            } else {
                let (u, v) = take("phase 3");
                added.push((u, v));
                EdgeEvent::Add(u, v)
            };
            let (u, v) = write.endpoints();
            let mut queries = vec![u, v];
            queries.extend((0..RANDOM_READS).map(|_| rng.gen_index(n) as NodeId));
            out.push(Cycle { write, queries });
        }
        Inputs { initial, ingest, cycles: out, held_out, non_edges }
    }

    /// Vertices whose rows the AUC needs.
    pub fn auc_vertices(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> =
            self.held_out.iter().chain(&self.non_edges).flat_map(|&(a, b)| [a, b]).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Fisher–Yates with the benchmark's seeded stream.
fn shuffle<T>(xs: &mut [T], rng: &mut Rng64) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_index(i + 1));
    }
}
