//! The served run: boot the serve plane in-process, drive it over one
//! loopback TCP connection in a closed loop, time what the client sees and
//! check every output against the benchmark's own computations.
//!
//! Phase-3 medians are given in reference scans: each sample divided by
//! the median time of a fixed computation of the benchmark's own (see
//! [`RefScan`]) timed on the same CPU in the same window of cycles. On the
//! shared reference host the read path ran up to 1.6 times slower for
//! seconds to minutes at a stretch while a pure multiply chain beside it
//! did not slow at all; the reference scan slowed with the read path,
//! window by window, so the ratio holds where the raw times do not.

use crate::pin;
use crate::reference::{self, cosine, median};
use crate::workload::{Inputs, Workload, DIM, K};
use seqge_graph::{EdgeEvent, NodeId};
use seqge_sampling::Rng64;
use seqge_serve::{start_backend, Client, FsyncPolicy, ServeConfig, ServerHandle, Wal, WalConfig};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Scores from the server and the benchmark's cosine over the same f32
/// rows are computed in the same order, so they agree to the last bit;
/// the tolerance only absorbs a different but equally valid summation.
pub const SCORE_TOL: f64 = 1e-9;
/// Floor on ANN recall@10 against the brute-force top-10.
pub const ANN_RECALL_FLOOR: f64 = 0.5;
/// Ceiling on the share of ann `topk` replies answered by the exact scan.
/// The index is published with every snapshot, so a fallback only comes
/// from a candidate pool smaller than k; a lost index makes every reply
/// fall back.
pub const ANN_FALLBACK_CEILING: f64 = 0.01;
/// Query vertices checked against brute force at the end of a run.
const END_QUERIES: usize = 32;
/// Rows of the reference scan's matrix.
const SCAN_ROWS: usize = 1024;
/// Phase-3 cycles whose samples share one reference-scan median.
const SCAN_WINDOW: usize = 25;

pub const PHASES: [&str; 4] = ["setup", "ingest", "write_read", "end"];
/// The read operations of phase 3, in metric-name order.
pub const READ_OPS: [&str; 4] = ["get_embedding", "score_link", "topk_exact", "topk_ann"];

#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseCount {
    pub attempted: u64,
    pub failed: u64,
}

/// What a served run measured and found.
pub struct Served {
    /// Where the measured phases ran (see [`pin`]).
    pub placement: String,
    pub setup_s: Vec<f64>,
    pub ingest_eps: f64,
    pub visible_ms: Vec<f64>,
    /// Round-trip samples in µs, indexed like [`READ_OPS`].
    pub reads_us: [Vec<f64>; 4],
    /// `visible_ms` and `reads_us` in reference scans.
    pub visible_scans: Vec<f64>,
    pub reads_scans: [Vec<f64>; 4],
    /// Every reference scan of phase 3, in µs.
    pub scan_us: Vec<f64>,
    pub peak_rss_mb: f64,
    pub auc: f64,
    pub auc_after_setup: f64,
    pub digest: u64,
    /// Snapshot publishes during the ingest phase (its flush included).
    pub ingest_publishes: u64,
    /// Snapshot publishes during phase 3.
    pub write_publishes: u64,
    pub ann_recall: f64,
    /// Share of ann `topk` replies that fell back to the exact scan.
    pub ann_fallback_share: f64,
    pub phases: [PhaseCount; 4],
    pub violations: Vec<String>,
}

/// Phase-3 samples of one figure in µs, each with its cycle.
#[derive(Default)]
struct Samples {
    us: Vec<f64>,
    cycle: Vec<usize>,
}

impl Samples {
    fn push(&mut self, cycle: usize, us: f64) {
        self.us.push(us);
        self.cycle.push(cycle);
    }

    /// Each sample divided by `scale[w]`, the median reference scan of
    /// the window `w` its cycle falls in.
    fn in_scans(&self, scale: &[f64]) -> Vec<f64> {
        self.us.iter().zip(&self.cycle).map(|(us, &c)| us / scale[c / SCAN_WINDOW]).collect()
    }
}

/// The reference scan: the benchmark's own brute-force cosine top-k over a
/// fixed matrix, the same in every run whatever the seed. Like the read
/// path it streams rows through the cache and compares scores, so the
/// host's load slows it alike; no change to the program can move it.
struct RefScan {
    rows: Vec<Vec<f32>>,
    next: u32,
}

impl RefScan {
    fn new() -> RefScan {
        let mut rng = Rng64::seed_from_u64(0x5ca1_ab1e);
        let rows =
            (0..SCAN_ROWS).map(|_| (0..DIM).map(|_| rng.next_f32() - 0.5).collect()).collect();
        RefScan { rows, next: 0 }
    }

    /// Times one scan, in µs.
    fn time_us(&mut self) -> f64 {
        let q = self.next;
        self.next = (q + 1) % SCAN_ROWS as u32;
        let t = Instant::now();
        std::hint::black_box(reference::brute_topk(std::hint::black_box(&self.rows), q, K));
        t.elapsed().as_secs_f64() * 1e6
    }
}

/// One closed-loop connection that counts every request per phase.
struct Conn {
    client: Client,
    phase: usize,
    /// The phase-3 cycle under way.
    cycle: usize,
    counts: [PhaseCount; 4],
    violations: Vec<String>,
    /// Ann `topk` replies seen, and those that fell back to the exact scan.
    ann_replies: u64,
    ann_fallbacks: u64,
}

impl Conn {
    fn call(&mut self, line: &str) -> Option<Value> {
        self.counts[self.phase].attempted += 1;
        match self.client.call(line) {
            Ok(v) => Some(v),
            Err(e) => {
                self.counts[self.phase].failed += 1;
                self.violate(format!("`{line}` failed: {e}"));
                None
            }
        }
    }

    /// A call whose round trip is pushed onto `samples` when it succeeds.
    fn timed(&mut self, line: &str, samples: &mut Samples) -> Option<Value> {
        let t = Instant::now();
        let v = self.call(line)?;
        samples.push(self.cycle, t.elapsed().as_secs_f64() * 1e6);
        Some(v)
    }

    fn violate(&mut self, msg: String) {
        // Keep the report readable: the count matters past the first few.
        if self.violations.len() < 20 {
            eprintln!("check failed: {msg}");
        }
        self.violations.push(msg);
    }

    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.violate(msg());
        }
    }

    /// The hits of an ann `topk` reply, counting whether it fell back.
    fn ann_hits(&mut self, node: NodeId, reply: Option<Value>) -> Option<Vec<(NodeId, f64)>> {
        let reply = reply?;
        self.ann_replies += 1;
        match reply.get("fallback") {
            Some(&Value::Bool(fallback)) => self.ann_fallbacks += fallback as u64,
            _ => self.violate(format!("topk ann({node}) reply has no boolean `fallback`")),
        }
        hits_of(&reply)
    }
}

pub fn embedding_line(node: NodeId) -> String {
    format!(r#"{{"cmd":"get_embedding","node":{node}}}"#)
}

pub fn score_line(u: NodeId, v: NodeId) -> String {
    format!(r#"{{"cmd":"score_link","u":{u},"v":{v},"op":"cosine"}}"#)
}

pub fn topk_line(node: NodeId, mode: &str) -> String {
    format!(r#"{{"cmd":"topk","node":{node},"k":{K},"op":"cosine","mode":"{mode}"}}"#)
}

/// The reference client's write line: a dedup identity rides along.
fn write_line(event: EdgeEvent, seq: u64) -> String {
    let (cmd, (u, v)) = match event {
        EdgeEvent::Add(..) => ("add_edge", event.endpoints()),
        EdgeEvent::Remove(..) => ("remove_edge", event.endpoints()),
    };
    format!(r#"{{"cmd":"{cmd}","u":{u},"v":{v},"client":"perfbench","seq":{seq}}}"#)
}

fn u64_field(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_u64)
}

fn row_of(v: &Value) -> Option<Vec<f32>> {
    v.get("embedding")?.as_array()?.iter().map(|x| x.as_f64().map(|f| f as f32)).collect()
}

fn hits_of(v: &Value) -> Option<Vec<(NodeId, f64)>> {
    v.get("results")?
        .as_array()?
        .iter()
        .map(|h| Some((h.get("node")?.as_u64()? as NodeId, h.get("score")?.as_f64()?)))
        .collect()
}

fn is_best_first(hits: &[(NodeId, f64)]) -> bool {
    hits.windows(2).all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0))
}

/// Peak resident set of this process (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A booted server and what the run needs to tear it down.
struct Booted {
    handle: ServerHandle,
    wal_dir: Option<PathBuf>,
}

impl Booted {
    fn stop(self) -> std::io::Result<()> {
        self.handle.shutdown()?;
        if let Some(dir) = self.wal_dir {
            std::fs::remove_dir_all(dir)?;
        }
        Ok(())
    }
}

/// Phase 1: generate the inputs, bootstrap the backend, initialise the WAL
/// where it is on, and start the server.
fn setup(
    w: &Workload,
    seed: u64,
    cycles: usize,
    wal_dir: &Path,
) -> std::io::Result<(Inputs, Booted)> {
    let inputs = Inputs::generate(w, seed, cycles);
    let spec = w.spec(seed);
    let mut backend = spec.cold(inputs.initial.num_nodes());
    backend.bootstrap(&inputs.initial);
    let mut cfg = ServeConfig::default();
    let mut dir = None;
    if w.wal {
        if wal_dir.exists() {
            std::fs::remove_dir_all(wal_dir)?;
        }
        // Appends stay on the write path; fsync does not: its latency on a
        // shared virtual disk moved visible_p99_ms between 8 and 16 ms from
        // run to run, a spread no bound can hold (see README.md).
        let wcfg = WalConfig { dir: wal_dir.to_path_buf(), fsync: FsyncPolicy::Never };
        cfg.wal = Some(Arc::new(Wal::init(&wcfg, &*backend, &inputs.initial)?));
        dir = Some(wal_dir.to_path_buf());
    }
    let handle = start_backend("127.0.0.1:0", inputs.initial.clone(), backend, cfg)?;
    Ok((inputs, Booted { handle, wal_dir: dir }))
}

/// Runs phases 1–4 of `w`; `setups` boots are timed and all but the last
/// torn down again.
pub fn run(
    w: &Workload,
    seed: u64,
    cycles: usize,
    setups: usize,
    out_dir: &Path,
) -> std::io::Result<(Inputs, Served)> {
    let wal_dir = out_dir.join(format!("wal-{}", std::process::id()));
    let mut setup_s = Vec::with_capacity(setups);
    let mut booted = None;
    for _ in 0..setups {
        if let Some((_, b)) = booted.take() {
            Booted::stop(b)?;
        }
        let t = Instant::now();
        let (inputs, b) = setup(w, seed, cycles, &wal_dir)?;
        setup_s.push(t.elapsed().as_secs_f64());
        booted = Some((inputs, b));
    }
    let (inputs, booted) = booted.expect("at least one setup");
    let client = Client::connect(booted.handle.addr())?;
    let binding = pin::bind_to_one_cpu()?;
    let mut c = Conn {
        client,
        phase: 0,
        cycle: 0,
        counts: Default::default(),
        violations: Vec::new(),
        ann_replies: 0,
        ann_fallbacks: 0,
    };
    c.counts[0].attempted += setups as u64;

    // Rows of the AUC pairs right after setup: training must improve on it.
    let auc_vertices = inputs.auc_vertices();
    let mut rows: Vec<Vec<f32>> = vec![Vec::new(); inputs.initial.num_nodes()];
    for &v in &auc_vertices {
        if let Some(row) = c.call(&embedding_line(v)).as_ref().and_then(row_of) {
            rows[v as usize] = row;
        }
    }
    let auc_after_setup = pair_auc(&inputs, &rows);

    // Phase 2: saturated ingest, the client blocked in `flush` at the end.
    c.phase = 1;
    let mut expect = Expect {
        sent: 0,
        edges: inputs.initial.num_edges() as i64,
        version: c
            .call(r#"{"cmd":"stats"}"#)
            .as_ref()
            .and_then(|s| u64_field(s, "version"))
            .unwrap_or(0),
    };
    let v0 = expect.version;
    let mut seq = 0u64;
    let t = Instant::now();
    for &e in &inputs.ingest {
        seq += 1;
        c.call(&write_line(e, seq));
    }
    let flushed = c.call(r#"{"cmd":"flush"}"#).as_ref().and_then(|v| u64_field(v, "version"));
    let ingest_s = t.elapsed().as_secs_f64();
    let ingest_eps = inputs.ingest.len() as f64 / ingest_s;
    expect.sent += inputs.ingest.len() as u64;
    expect.edges += inputs.ingest.len() as i64;
    expect.check(&mut c, flushed);
    let ingest_publishes = expect.version - v0;

    // Phase 3: one write, `flush`, then the fixed set of reads.
    c.phase = 2;
    let mut visible = Samples::default();
    let mut reads: [Samples; 4] = Default::default();
    let mut scan = RefScan::new();
    let mut scan_us = Vec::with_capacity(inputs.cycles.len());
    let (mut recall_sum, mut recall_n) = (0f64, 0usize);
    let v_phase3 = expect.version;
    for (i, cycle) in inputs.cycles.iter().enumerate() {
        c.cycle = i;
        seq += 1;
        let t = Instant::now();
        let wrote = c.call(&write_line(cycle.write, seq)).is_some();
        let flushed = c.call(r#"{"cmd":"flush"}"#).as_ref().and_then(|v| u64_field(v, "version"));
        if wrote && flushed.is_some() {
            visible.push(i, t.elapsed().as_secs_f64() * 1e6);
        }
        expect.sent += 1;
        expect.edges += if matches!(cycle.write, EdgeEvent::Add(..)) { 1 } else { -1 };
        expect.check(&mut c, flushed);
        let version = expect.version;

        let q = &cycle.queries;
        let mut qrows = Vec::with_capacity(q.len());
        for &node in q {
            let reply = c.timed(&embedding_line(node), &mut reads[0]);
            let row = reply.as_ref().and_then(row_of);
            c.check(reply.as_ref().and_then(|r| u64_field(r, "version")) == Some(version), || {
                format!("get_embedding({node}) answered from a snapshot older than the write")
            });
            qrows.push(row);
        }
        for i in 0..q.len() {
            let j = (i + 1) % q.len();
            let reply = c.timed(&score_line(q[i], q[j]), &mut reads[1]);
            let got = reply.as_ref().and_then(|r| r.get("score")?.as_f64());
            if let (Some(got), Some(a), Some(b)) = (got, &qrows[i], &qrows[j]) {
                let want = cosine(a, b);
                c.check((got - want).abs() <= SCORE_TOL, || {
                    format!("score_link({}, {}) = {got}, cosine of the rows = {want}", q[i], q[j])
                });
            }
        }
        for &node in q {
            let exact =
                c.timed(&topk_line(node, "exact"), &mut reads[2]).as_ref().and_then(hits_of);
            let ann = c.timed(&topk_line(node, "ann"), &mut reads[3]);
            let ann = c.ann_hits(node, ann);
            let (Some(exact), Some(ann)) = (exact, ann) else { continue };
            c.check(exact.len() == K && is_best_first(&exact), || {
                format!("topk exact({node}) is not {K} hits best-first: {exact:?}")
            });
            c.check(is_best_first(&ann), || format!("topk ann({node}) is not best-first: {ann:?}"));
            // Both lists come from the same snapshot: a shared hit must
            // carry the same exact score.
            for &(v, s) in &ann {
                if let Some(&(_, e)) = exact.iter().find(|h| h.0 == v) {
                    c.check((s - e).abs() <= SCORE_TOL, || {
                        format!("topk ann({node}) scores {v} at {s}, exact at {e}")
                    });
                }
            }
            recall_sum += reference::recall(&ann, &exact);
            recall_n += 1;
        }
        // Beside the reads, with the trainer idle.
        scan_us.push(scan.time_us());
    }
    let write_publishes = expect.version - v_phase3;
    let scale: Vec<f64> = scan_us.chunks(SCAN_WINDOW).map(median).collect();
    let ann_recall = if recall_n == 0 { 0.0 } else { recall_sum / recall_n as f64 };
    c.check(ann_recall >= ANN_RECALL_FLOOR, || {
        format!("phase-3 ANN recall@{K} {ann_recall:.3} below the floor {ANN_RECALL_FLOOR}")
    });

    // Phase 4: every row, the AUC, and brute-force checks of sampled reads.
    c.phase = 3;
    let n = inputs.initial.num_nodes();
    for v in 0..n as NodeId {
        rows[v as usize] = c.call(&embedding_line(v)).as_ref().and_then(row_of).unwrap_or_default();
    }
    let digest = reference::digest(rows.iter().map(Vec::as_slice));
    let auc = pair_auc(&inputs, &rows);
    c.check(auc > 0.5, || format!("link-prediction AUC {auc:.4} is not above chance"));
    c.check(auc > auc_after_setup, || {
        format!("AUC {auc:.4} did not improve on {auc_after_setup:.4} measured right after setup")
    });
    end_checks(&mut c, &rows, seed);
    let (fallbacks, ann_replies) = (c.ann_fallbacks, c.ann_replies);
    let ann_fallback_share = fallbacks as f64 / ann_replies.max(1) as f64;
    c.check(ann_fallback_share <= ANN_FALLBACK_CEILING, || {
        format!("{fallbacks} of {ann_replies} ann topk replies fell back to the exact scan")
    });

    let peak = peak_rss_mb();
    drop(c.client);
    booted.stop()?;
    let placement = binding.placement.clone();
    binding.release()?;
    let served = Served {
        placement,
        setup_s,
        ingest_eps,
        visible_ms: visible.us.iter().map(|us| us / 1e3).collect(),
        visible_scans: visible.in_scans(&scale),
        reads_scans: reads.each_ref().map(|r| r.in_scans(&scale)),
        reads_us: reads.map(|r| r.us),
        scan_us,
        peak_rss_mb: peak,
        auc,
        auc_after_setup,
        digest,
        ingest_publishes,
        write_publishes,
        ann_recall,
        ann_fallback_share,
        phases: c.counts,
        violations: c.violations,
    };
    Ok((inputs, served))
}

/// What `stats` must show after every flush.
struct Expect {
    sent: u64,
    edges: i64,
    version: u64,
}

impl Expect {
    fn check(&mut self, c: &mut Conn, flushed: Option<u64>) {
        let Some(s) = c.call(r#"{"cmd":"stats"}"#) else { return };
        let get = |k: &str| u64_field(&s, k).unwrap_or(u64::MAX);
        let (applied, rejected, edges, version) =
            (get("applied"), get("rejected"), get("edges"), get("version"));
        c.check(applied.wrapping_add(rejected) == self.sent && rejected == 0, || {
            format!("stats: applied {applied} + rejected {rejected}, {} writes sent", self.sent)
        });
        c.check(edges as i64 == self.edges, || {
            format!("stats: {edges} edges, the stream gives {}", self.edges)
        });
        c.check(version > self.version && flushed == Some(version), || {
            format!("stats: version {version} after flush {flushed:?}, was {}", self.version)
        });
        self.version = version;
    }
}

/// Cosine AUC of the held-out edges against the non-edges.
fn pair_auc(inputs: &Inputs, rows: &[Vec<f32>]) -> f64 {
    let score = |&(u, v): &(NodeId, NodeId)| cosine(&rows[u as usize], &rows[v as usize]);
    let pos: Vec<f64> = inputs.held_out.iter().map(score).collect();
    let neg: Vec<f64> = inputs.non_edges.iter().map(score).collect();
    reference::auc(&pos, &neg)
}

/// Sampled queries against brute force over every fetched row.
fn end_checks(c: &mut Conn, rows: &[Vec<f32>], seed: u64) {
    let mut rng = Rng64::seed_from_u64(seed ^ 0xe4d_c4ec);
    let mut recall_sum = 0f64;
    for _ in 0..END_QUERIES {
        let q = rng.gen_index(rows.len()) as NodeId;
        let truth = reference::brute_topk(rows, q, K);
        if let Some(exact) = c.call(&topk_line(q, "exact")).as_ref().and_then(hits_of) {
            c.check(reference::same_up_to_ties(&exact, &truth, SCORE_TOL), || {
                format!("topk exact({q}) = {exact:?}, brute force = {truth:?}")
            });
        }
        let ann = c.call(&topk_line(q, "ann"));
        if let Some(ann) = c.ann_hits(q, ann) {
            for &(v, s) in &ann {
                let want = cosine(&rows[q as usize], &rows[v as usize]);
                c.check((s - want).abs() <= SCORE_TOL, || {
                    format!("topk ann({q}) scores {v} at {s}, its cosine is {want}")
                });
            }
            recall_sum += reference::recall(&ann, &truth);
        }
        let v = truth[0].0;
        if let Some(s) = c.call(&score_line(q, v)).as_ref().and_then(|r| r.get("score")?.as_f64()) {
            let want = cosine(&rows[q as usize], &rows[v as usize]);
            c.check((s - want).abs() <= SCORE_TOL, || {
                format!("score_link({q}, {v}) = {s}, cosine of the rows = {want}")
            });
        }
    }
    let recall = recall_sum / END_QUERIES as f64;
    c.check(recall >= ANN_RECALL_FLOOR, || {
        format!("ANN recall@{K} {recall:.3} against brute force is below {ANN_RECALL_FLOOR}")
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_scale_by_their_window_median() {
        // Two windows: scans 2, 4, 6 (median 4) then 10 (median 10).
        let scan: Vec<f64> =
            (0..SCAN_WINDOW).map(|c| [2.0, 4.0, 6.0][c % 3]).chain(std::iter::once(10.0)).collect();
        let scale: Vec<f64> = scan.chunks(SCAN_WINDOW).map(median).collect();
        let mut s = Samples::default();
        s.push(0, 8.0);
        s.push(SCAN_WINDOW - 1, 2.0);
        s.push(SCAN_WINDOW, 5.0);
        assert_eq!(s.in_scans(&scale), vec![2.0, 0.5, 0.5]);
    }
}
