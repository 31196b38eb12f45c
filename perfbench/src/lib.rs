//! The paper-workload benchmark: the four workload queries (Q7, Q21,
//! Q46, Q50) run by one closed-loop client on three deployments of
//! thesis Table 4.1, with the setup of each deployment timed around the
//! public calls that build it. `WORKLOADS.md` beside this crate says why
//! each workload exists and which layer each metric belongs to.
//!
//! The benchmark sets no engine knob: it measures the defaults a user
//! gets, and records them in its report.

pub mod json;
pub mod trace;

use doclite_bson::{json::to_json, Document, Value};
use doclite_core::experiment::{fact_shard_keys, N_SHARDS, WORKLOAD_TABLES};
use doclite_core::{
    build_denormalized_fast, load_table_direct, run_denormalized, run_normalized, Store,
};
use doclite_docstore::Database;
use doclite_sharding::{ClusterConfig, Mongos, NetworkModel, ShardedCluster};
use doclite_tpcds::{Generator, QueryId, QueryParams, TableId};
use json::Json;
use std::time::{Duration, Instant};
use trace::{Step, Tally, TracedStore};

/// Extra tables only the denormalizer's foreign keys reach.
const DENORM_EXTRA_TABLES: [TableId; 2] = [TableId::Reason, TableId::TimeDim];
const DENORM_COLLECTIONS: [&str; 3] = ["store_sales_dn", "store_returns_dn", "inventory_dn"];
/// Chunk size for the sharded facts (scaled down with the data, as in
/// the experiment harness).
const MAX_CHUNK_BYTES: usize = 1 << 20;

/// One deployment of Table 4.1 driven by the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    NormalizedStandalone,
    NormalizedSharded,
    DenormalizedStandalone,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::NormalizedStandalone,
        Workload::NormalizedSharded,
        Workload::DenormalizedStandalone,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NormalizedStandalone => "normalized_standalone",
            Workload::NormalizedSharded => "normalized_sharded",
            Workload::DenormalizedStandalone => "denormalized_standalone",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scale factor the benchmark runs this workload at.
    pub fn scale_factor(self) -> f64 {
        match self {
            Workload::NormalizedStandalone | Workload::NormalizedSharded => 0.02,
            Workload::DenormalizedStandalone => 0.01,
        }
    }

    fn denormalized(self) -> bool {
        self == Workload::DenormalizedStandalone
    }
}

/// A loaded deployment.
enum Deployment {
    Standalone(Database),
    Sharded(Box<ShardedCluster>),
}

impl Deployment {
    fn store(&self) -> &dyn Store {
        match self {
            Deployment::Standalone(db) => db,
            Deployment::Sharded(c) => c.router(),
        }
    }

    fn router(&self) -> Option<&Mongos> {
        match self {
            Deployment::Standalone(_) => None,
            Deployment::Sharded(c) => Some(c.router()),
        }
    }

    /// Modelled network time charged so far (zero when standalone).
    fn net_time(&self) -> Duration {
        self.router()
            .map(|r| r.net_stats().parallel_time())
            .unwrap_or_default()
    }

    /// Collections that currently maintain a columnar sidecar.
    fn columnar_collections(&self) -> Vec<String> {
        let on = |db: &Database| -> Vec<String> {
            db.collection_names()
                .into_iter()
                .filter(|n| db.get_collection(n).is_ok_and(|c| c.columnar_enabled()))
                .collect()
        };
        let mut names = match self {
            Deployment::Standalone(db) => on(db),
            Deployment::Sharded(c) => c
                .router()
                .shards()
                .iter()
                .flat_map(|s| on(&s.db()))
                .collect(),
        };
        names.sort();
        names.dedup();
        names
    }
}

/// Wall time of each setup phase.
#[derive(Clone, Copy, Debug, Default)]
struct SetupTimes {
    load: Duration,
    load_docs: u64,
    balance: Duration,
    balance_moves: usize,
    denormalize: Duration,
    warmup: Duration,
}

/// Reads one phase's figure off a setup's times.
type Phase = fn(&SetupTimes) -> f64;

impl SetupTimes {
    fn total(&self) -> Duration {
        self.load + self.balance + self.denormalize + self.warmup
    }
}

/// A result set's size and an order-insensitive fingerprint of its
/// contents: engine-assigned `_id`s dropped, doubles rounded to six
/// decimals (summation order differs between plans), documents sorted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Answer {
    pub rows: usize,
    pub fingerprint: u64,
}

fn rounded(doc: &Document) -> Document {
    fn round(v: &Value) -> Value {
        match v {
            Value::Double(d) => Value::Double((d * 1e6).round() / 1e6),
            Value::Document(d) => Value::Document(rounded(d)),
            Value::Array(items) => Value::Array(items.iter().map(round).collect()),
            other => other.clone(),
        }
    }
    let mut out = Document::with_capacity(doc.len());
    for (k, v) in doc.iter().filter(|(k, _)| *k != "_id") {
        out.set(k.clone(), round(v));
    }
    out
}

fn answer(docs: &[Document]) -> Answer {
    let mut lines: Vec<String> = docs.iter().map(|d| to_json(&rounded(d))).collect();
    lines.sort();
    // FNV-1a over the sorted lines.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines.iter().flat_map(|l| l.bytes().chain([b'\n'])) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    Answer {
        rows: docs.len(),
        fingerprint: h,
    }
}

/// Generator seed of the data, the same for every run.
const DATA_SEED: u64 = 12345;

/// The run's inputs: the rows of [`DATA_SEED`], with each fact table's
/// rows loaded in an order shuffled by the run's seed.
///
/// The rows are fixed because each query's work hinges on a handful of
/// random draws: the cities of 8 of the 12 stores (Q46's selectivity) and
/// the ~100 returns (at SF 0.02) that fall in Q50's month, whose square
/// Q50's embed cost follows. Across generator seeds those alone spread
/// Q46 and Q50 by 15-25%, more than any regression bound the benchmark
/// could keep. Load order is an input the store does depend on (slab
/// layout, where chunks split) that leaves every answer and the amount
/// of work unchanged.
struct Inputs {
    gen: Generator,
    seed: u64,
}

impl Inputs {
    fn load(&self, store: &dyn Store, tables: &[TableId]) -> Result<u64, String> {
        tables.iter().try_fold(0, |n, &t| {
            let rows = if t.is_fact() {
                let mut docs: Vec<Document> = self.gen.documents(t).collect();
                shuffle(&mut docs, self.seed ^ t as u64);
                let rows = docs.len() as u64;
                while !docs.is_empty() {
                    let batch = docs.split_off(docs.len().saturating_sub(1024));
                    store
                        .insert_many(t.name(), batch)
                        .map_err(|e| e.to_string())?;
                }
                Ok(rows)
            } else {
                load_table_direct(store, &self.gen, t).map_err(|e| e.to_string())
            };
            rows.map(|r| n + r).map_err(|e| format!("loading {t}: {e}"))
        })
    }
}

/// Fisher-Yates driven by splitmix64.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        items.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

/// Generates the seeded data and builds the workload's deployment,
/// timing each phase (the warm-up round is timed by the caller).
fn build(w: Workload, sf: f64, seed: u64) -> Result<(Deployment, SetupTimes), String> {
    let inputs = Inputs {
        gen: Generator::with_seed(sf, DATA_SEED),
        seed,
    };
    let mut times = SetupTimes::default();
    let err = |e: doclite_docstore::Error| e.to_string();
    let dep = match w {
        Workload::NormalizedStandalone | Workload::DenormalizedStandalone => {
            let db = Database::new(w.name());
            let t0 = Instant::now();
            times.load_docs = inputs.load(&db, &WORKLOAD_TABLES)?;
            if w.denormalized() {
                times.load_docs += inputs.load(&db, &DENORM_EXTRA_TABLES)?;
            }
            times.load = t0.elapsed();
            if w.denormalized() {
                let t0 = Instant::now();
                build_denormalized_fast(&db).map_err(err)?;
                times.denormalize = t0.elapsed();
            }
            Deployment::Standalone(db)
        }
        Workload::NormalizedSharded => {
            let cluster = ShardedCluster::with_config(ClusterConfig {
                n_shards: N_SHARDS,
                db_name: w.name().to_owned(),
                network: NetworkModel::lan(),
                ..ClusterConfig::default()
            });
            let t0 = Instant::now();
            for (table, key) in fact_shard_keys() {
                cluster
                    .shard_collection(table.name(), key, MAX_CHUNK_BYTES)
                    .map_err(err)?;
            }
            times.load_docs = inputs.load(cluster.router(), &WORKLOAD_TABLES)?;
            times.load = t0.elapsed();
            let t0 = Instant::now();
            times.balance_moves = cluster.balance().map_err(err)?;
            times.balance = t0.elapsed();
            Deployment::Sharded(Box::new(cluster))
        }
    };
    Ok((dep, times))
}

/// Bytes stored in the workload's collections.
fn stored_bytes(w: Workload, dep: &Deployment) -> usize {
    let store = dep.store();
    let mut names: Vec<&str> = WORKLOAD_TABLES.iter().map(|t| t.name()).collect();
    if w.denormalized() {
        names.extend(DENORM_EXTRA_TABLES.iter().map(|t| t.name()));
        names.extend(DENORM_COLLECTIONS);
    }
    names.iter().map(|n| store.collection_data_size(n)).sum()
}

/// Runs one query through `store` (the deployment's own store or the
/// tracing wrapper around it). The measured time is wall time plus the
/// modelled network time charged meanwhile, as in the experiment harness.
fn run_query(
    w: Workload,
    dep: &Deployment,
    store: &dyn Store,
    q: QueryId,
    params: &QueryParams,
) -> (Result<Vec<Document>, String>, Duration) {
    let net0 = dep.net_time();
    let t0 = Instant::now();
    let out = if w.denormalized() {
        run_denormalized(store, q, params)
    } else {
        run_normalized(store, q, params)
    };
    let wall = t0.elapsed();
    (
        out.map_err(|e| e.to_string()),
        wall + dep.net_time().saturating_sub(net0),
    )
}

fn query_label(q: QueryId) -> &'static str {
    match q {
        QueryId::Q7 => "q7",
        QueryId::Q21 => "q21",
        QueryId::Q46 => "q46",
        QueryId::Q50 => "q50",
    }
}

/// The correctness gate: counts attempted and failed queries and keeps
/// each query's reference answer, the first one it saw with rows. The
/// first few failures are kept for the error report.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    reference: [Option<Answer>; 4],
}

impl Gate {
    /// Records one run of query `QueryId::ALL[qi]`: it fails on an error,
    /// on no rows, or on an answer other than the reference. Returns
    /// whether it passed.
    fn check(&mut self, what: &str, qi: usize, got: &Result<Vec<Document>, String>) -> bool {
        self.attempted += 1;
        let problem = match got {
            Err(e) => format!("{what}: error: {e}"),
            Ok(docs) => {
                let a = answer(docs);
                match self.reference[qi] {
                    _ if a.rows == 0 => format!("{what}: returned no rows"),
                    Some(r) if r != a => format!("{what}: {a:?} differs from {r:?}"),
                    _ => {
                        self.reference[qi] = Some(a);
                        return true;
                    }
                }
            }
        };
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(problem);
        }
        false
    }
}

/// What one invocation runs.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub workload: Workload,
    pub sf: f64,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Alternate untraced rounds with rounds through [`TracedStore`] and
    /// report the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// How many times the deployment is set up; `setup_s` is the median.
    pub setups: usize,
}

/// One named metric value.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one invocation.
pub struct Outcome {
    pub gate: Gate,
    /// End-to-end metrics, or per-layer ones for a traced run.
    pub metrics: Vec<Metric>,
    /// Metadata and sample counts for the report line.
    pub report: Json,
    /// The reference answer of each query, in [`QueryId::ALL`] order.
    pub answers: Vec<Answer>,
    /// Wrapper counters summed over the traced rounds.
    pub traced: Tally,
}

impl Outcome {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Per-query accumulators over one kind of round.
#[derive(Default)]
struct Samples {
    times: [Vec<f64>; 4],
    /// Measured time of every query run, failed ones included.
    span: Duration,
    ok: u64,
    rounds: u64,
}

#[derive(Clone, Copy, Default)]
struct RouterStats {
    net: Duration,
    exchanges: u64,
    bytes: u64,
    retries: u64,
}

impl RouterStats {
    fn now(dep: &Deployment) -> RouterStats {
        dep.router().map_or_else(RouterStats::default, |r| {
            let s = r.net_stats();
            RouterStats {
                net: s.parallel_time(),
                exchanges: s.exchanges(),
                bytes: s.bytes(),
                retries: s.retries(),
            }
        })
    }

    fn add_since(&mut self, later: &RouterStats, earlier: &RouterStats) {
        self.net += later.net.saturating_sub(earlier.net);
        self.exchanges += later.exchanges - earlier.exchanges;
        self.bytes += later.bytes - earlier.bytes;
        self.retries += later.retries - earlier.retries;
    }
}

/// Everything the timed window accumulates, across its slices.
#[derive(Default)]
struct Window {
    plain: Samples,
    traced: Samples,
    /// Wrapper counters over the traced rounds, in total and per query.
    tally: Tally,
    per_query: [Tally; 4],
    /// Router counters over the traced rounds.
    router: RouterStats,
    /// Wall time plus modelled network time of the whole window.
    span: Duration,
}

/// One slice of the timed window on one deployment: closed-loop rounds
/// of the four queries until `seconds` have passed. With tracing, odd
/// rounds go through the [`TracedStore`] and even rounds do not.
fn timed_slice(
    dep: &Deployment,
    params: &QueryParams,
    opts: &Options,
    seconds: f64,
    gate: &mut Gate,
    win: &mut Window,
) {
    let traced_store = TracedStore::new(dep.store(), dep.router());
    let start = Instant::now();
    let net0 = dep.net_time();
    for round in 0.. {
        let is_traced = opts.trace && round % 2 == 1;
        let (store, samples): (&dyn Store, &mut Samples) = if is_traced {
            (&traced_store, &mut win.traced)
        } else {
            (dep.store(), &mut win.plain)
        };
        let r0 = RouterStats::now(dep);
        for (qi, &q) in QueryId::ALL.iter().enumerate() {
            let before = is_traced.then(|| traced_store.tally());
            let (got, took) = run_query(opts.workload, dep, store, q, params);
            samples.span += took;
            let what = format!("round {round} {}", query_label(q));
            if gate.check(&what, qi, &got) {
                samples.ok += 1;
                samples.times[qi].push(took.as_secs_f64());
            }
            if let Some(before) = before {
                let d = traced_store.tally().since(&before);
                let steps: Duration = d.steps.iter().map(|s| s.cpu + s.net).sum();
                assert!(
                    steps <= took,
                    "{what}: steps {steps:?} exceed the query's {took:?}"
                );
                win.per_query[qi].add(&d);
                win.tally.add(&d);
            }
        }
        samples.rounds += 1;
        if is_traced {
            win.router.add_since(&RouterStats::now(dep), &r0);
        }
        if start.elapsed().as_secs_f64() >= seconds && (!opts.trace || round >= 1) {
            break;
        }
    }
    win.span += start.elapsed() + dep.net_time().saturating_sub(net0);
}

/// Sets up the workload `opts.setups` times. After each setup's warm-up
/// round comes one equal slice of the `opts.seconds` timed window, so
/// the window's medians pool several builds (memory layouts) of the same
/// data. Every result is checked against the first warm-up's.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let w = opts.workload;
    let n_setups = opts.setups.max(1);
    let params = QueryParams::for_scale(opts.sf);
    let mut gate = Gate::default();
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut win = Window::default();
    let (mut stored, mut columnar_start, mut columnar_end) = (0, Vec::new(), Vec::new());
    for i in 0..n_setups {
        let (dep, mut times) = build(w, opts.sf, opts.seed)?;
        let t0 = Instant::now();
        for (qi, &q) in QueryId::ALL.iter().enumerate() {
            let (got, _) = run_query(w, &dep, dep.store(), q, &params);
            let what = format!("setup {i} warm-up {}", query_label(q));
            gate.check(&what, qi, &got);
        }
        times.warmup = t0.elapsed();
        setups.push(times);
        stored = stored_bytes(w, &dep);
        if i == 0 {
            columnar_start = dep.columnar_collections();
        }
        let slice = opts.seconds / n_setups as f64;
        timed_slice(&dep, &params, opts, slice, &mut gate, &mut win);
        if i + 1 == n_setups {
            columnar_end = dep.columnar_collections();
            // The denormalized collections must answer like the Fig 4.8
            // translation over the base collections they were built from.
            if w.denormalized() {
                for (qi, &q) in QueryId::ALL.iter().enumerate() {
                    let got = run_normalized(dep.store(), q, &params).map_err(|e| e.to_string());
                    gate.check(
                        &format!("normalized cross-check {}", query_label(q)),
                        qi,
                        &got,
                    );
                }
            }
        }
    }

    let setup_totals: Vec<f64> = setups.iter().map(|s| s.total().as_secs_f64()).collect();
    let mut metrics = Vec::new();
    let mut put =
        |name: String, value: f64, unit: &'static str| metrics.push(Metric { name, value, unit });
    if opts.trace {
        // Per-round figures over the traced rounds.
        let rounds = win.traced.rounds.max(1) as f64;
        let t = &win.tally;
        for s in Step::ALL {
            let st = t.step(s);
            put(
                format!("{}.cpu_s", s.name()),
                st.cpu.as_secs_f64() / rounds,
                "s",
            );
            put(
                format!("{}.net_s", s.name()),
                st.net.as_secs_f64() / rounds,
                "s",
            );
            put(
                format!("{}.calls", s.name()),
                st.calls as f64 / rounds,
                "count",
            );
            put(
                format!("{}.docs", s.name()),
                st.docs as f64 / rounds,
                "count",
            );
        }
        for (qi, &q) in QueryId::ALL.iter().enumerate() {
            let label = query_label(q);
            for s in Step::ALL {
                let st = win.per_query[qi].step(s);
                put(
                    format!("{label}.{}.cpu_s", s.name()),
                    st.cpu.as_secs_f64() / rounds,
                    "s",
                );
                put(
                    format!("{label}.{}.net_s", s.name()),
                    st.net.as_secs_f64() / rounds,
                    "s",
                );
            }
            let times = &win.traced.times[qi];
            let mean = times.iter().sum::<f64>() / times.len().max(1) as f64;
            put(format!("{label}.total_s"), mean, "s");
        }
        let matched = t.updates_matched as f64 / t.updates.max(1) as f64;
        put("embed.match_frac".into(), matched, "ratio");
        put("trace.calls".into(), t.calls as f64 / rounds, "count");
        let r = &win.router;
        put("router.net_s".into(), r.net.as_secs_f64() / rounds, "s");
        put(
            "router.exchanges".into(),
            r.exchanges as f64 / rounds,
            "count",
        );
        put("router.bytes".into(), r.bytes as f64 / rounds, "B");
        put("router.retries".into(), r.retries as f64 / rounds, "count");
        let phases: [(&str, Phase, &'static str); 6] = [
            ("setup.load_s", |s| s.load.as_secs_f64(), "s"),
            ("setup.load_docs", |s| s.load_docs as f64, "count"),
            ("setup.balance_s", |s| s.balance.as_secs_f64(), "s"),
            ("setup.balance_moves", |s| s.balance_moves as f64, "count"),
            ("setup.denormalize_s", |s| s.denormalize.as_secs_f64(), "s"),
            ("setup.warmup_s", |s| s.warmup.as_secs_f64(), "s"),
        ];
        for (name, phase, unit) in phases {
            put(
                name.into(),
                median(&setups.iter().map(phase).collect::<Vec<_>>()),
                unit,
            );
        }
        let qps = |s: &Samples| s.ok as f64 / s.span.as_secs_f64();
        put(
            "trace.overhead_frac".into(),
            1.0 - qps(&win.traced) / qps(&win.plain),
            "ratio",
        );
    } else {
        put("setup_s".into(), median(&setup_totals), "s");
        for (qi, &q) in QueryId::ALL.iter().enumerate() {
            put(
                format!("{}_s", query_label(q)),
                median(&win.plain.times[qi]),
                "s",
            );
        }
        put(
            "queries_per_s".into(),
            win.plain.ok as f64 / win.span.as_secs_f64(),
            "1/s",
        );
        put("peak_rss_mb".into(), peak_rss_mb(), "MB");
        put("stored_mb".into(), stored as f64 / 1e6, "MB");
    }

    let names = |v: Vec<String>| Json::Arr(v.into_iter().map(Json::Str).collect());
    let per_query = |f: &dyn Fn(usize) -> Json| {
        Json::obj(
            QueryId::ALL
                .iter()
                .enumerate()
                .map(|(qi, &q)| (query_label(q), f(qi))),
        )
    };
    let answers: Vec<Answer> = gate
        .reference
        .iter()
        .map(|a| a.unwrap_or_default())
        .collect();
    // Median and range of each query's samples, plus the highest
    // percentile that has at least ten samples above it.
    let timing = |times: &[f64]| {
        let mut v = times.to_vec();
        v.sort_by(f64::total_cmp);
        let mut fields = vec![("n".to_owned(), Json::Int(v.len() as i64))];
        if let (Some(&lo), Some(&hi)) = (v.first(), v.last()) {
            fields.push(("min".into(), Json::Num(lo)));
            fields.push(("median".into(), Json::Num(median(&v))));
            if let Some(p) = [99, 90].into_iter().find(|p| v.len() * (100 - p) >= 1000) {
                fields.push((format!("p{p}"), Json::Num(v[v.len() * p / 100])));
            }
            fields.push(("max".into(), Json::Num(hi)));
        }
        Json::Obj(fields)
    };
    let report = Json::obj([
        ("workload", Json::str(w.name())),
        ("scale_factor", Json::Num(opts.sf)),
        ("seed", Json::Int(opts.seed as i64)),
        ("data_seed", Json::Int(DATA_SEED as i64)),
        ("trace", Json::Bool(opts.trace)),
        (
            "client",
            Json::str("closed loop, 1 client, rounds of Q7,Q21,Q46,Q50"),
        ),
        (
            "available_parallelism",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as i64)),
        ),
        (
            "default_exec_mode",
            Json::str(format!("{:?}", doclite_docstore::default_exec_mode())),
        ),
        (
            "planner_mode",
            Json::str(format!("{:?}", doclite_docstore::planner_mode())),
        ),
        (
            "columnar_auto",
            Json::Bool(doclite_docstore::columnar_auto()),
        ),
        (
            "parallel_workers",
            Json::Int(doclite_docstore::parallel_workers() as i64),
        ),
        (
            "parallel_morsel_size",
            Json::Int(doclite_docstore::parallel_morsel_size() as i64),
        ),
        ("columnar_at_start", names(columnar_start)),
        ("columnar_at_end", names(columnar_end)),
        (
            "setup_runs_s",
            Json::Arr(setup_totals.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("rounds", Json::Int(win.plain.rounds as i64)),
        ("traced_rounds", Json::Int(win.traced.rounds as i64)),
        ("window_s", Json::Num(win.span.as_secs_f64())),
        ("query_s", per_query(&|qi| timing(&win.plain.times[qi]))),
        (
            "result_rows",
            per_query(&|qi| Json::Int(answers[qi].rows as i64)),
        ),
        (
            "fingerprints",
            per_query(&|qi| Json::str(format!("{:016x}", answers[qi].fingerprint))),
        ),
        ("stored_bytes", Json::Int(stored as i64)),
    ]);
    Ok(Outcome {
        gate,
        metrics,
        report,
        answers,
        traced: win.tally,
    })
}
