//! The traced run's wrapper: a [`Store`] that forwards every call to the
//! deployment's `Database` or `Mongos`, times it, reads the router's
//! modelled-network delta, and attributes the call to one Fig 4.8 step.
//!
//! Attribution is by (Store method, collection), which is all the
//! translation code reveals from outside the crate:
//!
//! | call                                   | step         |
//! |----------------------------------------|--------------|
//! | `find_with`                            | `dim_filter` |
//! | `find` on a fact table                 | `semijoin`   |
//! | `drop_collection`, `insert_many`       | `semijoin`   |
//! | `find` on a dimension, `update`        | `embed`      |
//! | `aggregate`                            | `aggregate`  |
//!
//! Any other method lands in no step; the benchmark's test asserts the
//! four workload queries never call one.

use doclite_bson::Document;
use doclite_core::Store;
use doclite_docstore::{Filter, FindOptions, IndexDef, Pipeline, Result, UpdateResult, UpdateSpec};
use doclite_sharding::Mongos;
use doclite_tpcds::TableId;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One Fig 4.8 step of the normalized translation (the denormalized
/// pipelines are a single `aggregate`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    DimFilter,
    SemiJoin,
    Embed,
    Aggregate,
}

impl Step {
    pub const ALL: [Step; 4] = [
        Step::DimFilter,
        Step::SemiJoin,
        Step::Embed,
        Step::Aggregate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Step::DimFilter => "dim_filter",
            Step::SemiJoin => "semijoin",
            Step::Embed => "embed",
            Step::Aggregate => "aggregate",
        }
    }
}

/// Time, modelled network, calls and documents attributed to one step.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepTally {
    /// Wall time inside the forwarded calls.
    pub cpu: Duration,
    /// Modelled router↔shard network time charged during the calls.
    pub net: Duration,
    pub calls: u64,
    /// Documents returned, inserted, matched by updates, or produced by
    /// aggregations.
    pub docs: u64,
}

impl StepTally {
    fn add(&mut self, o: &StepTally) {
        self.cpu += o.cpu;
        self.net += o.net;
        self.calls += o.calls;
        self.docs += o.docs;
    }

    fn sub(&self, o: &StepTally) -> StepTally {
        StepTally {
            cpu: self.cpu - o.cpu,
            net: self.net - o.net,
            calls: self.calls - o.calls,
            docs: self.docs - o.docs,
        }
    }
}

/// Cumulative counters of a [`TracedStore`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub steps: [StepTally; 4],
    /// Every call the wrapper forwarded, attributed or not.
    pub calls: u64,
    /// `update` calls, and those whose filter matched a document.
    pub updates: u64,
    pub updates_matched: u64,
}

impl Tally {
    pub fn step(&self, s: Step) -> &StepTally {
        &self.steps[s as usize]
    }

    pub fn add(&mut self, o: &Tally) {
        for (a, b) in self.steps.iter_mut().zip(&o.steps) {
            a.add(b);
        }
        self.calls += o.calls;
        self.updates += o.updates;
        self.updates_matched += o.updates_matched;
    }

    /// The counters accumulated since `earlier`.
    pub fn since(&self, earlier: &Tally) -> Tally {
        let mut steps = [StepTally::default(); 4];
        for (i, s) in steps.iter_mut().enumerate() {
            *s = self.steps[i].sub(&earlier.steps[i]);
        }
        Tally {
            steps,
            calls: self.calls - earlier.calls,
            updates: self.updates - earlier.updates,
            updates_matched: self.updates_matched - earlier.updates_matched,
        }
    }
}

/// The timing wrapper. `router` is the cluster's router when the inner
/// store is sharded, so modelled network time can be read around calls.
pub struct TracedStore<'a> {
    inner: &'a dyn Store,
    router: Option<&'a Mongos>,
    tally: Mutex<Tally>,
}

impl<'a> TracedStore<'a> {
    pub fn new(inner: &'a dyn Store, router: Option<&'a Mongos>) -> Self {
        TracedStore {
            inner,
            router,
            tally: Mutex::new(Tally::default()),
        }
    }

    pub fn tally(&self) -> Tally {
        *self.tally.lock().expect("tally lock poisoned")
    }

    fn net_now(&self) -> Duration {
        self.router
            .map(|r| r.net_stats().parallel_time())
            .unwrap_or_default()
    }

    /// Forwards `call`, charging its time to `step` (or to no step) and
    /// its document count, as `docs` reads it off the result, to the step.
    fn timed<T>(
        &self,
        step: Option<Step>,
        call: impl FnOnce() -> T,
        docs: impl Fn(&T) -> u64,
    ) -> T {
        let net0 = self.net_now();
        let t0 = Instant::now();
        let out = call();
        let cpu = t0.elapsed();
        let net = self.net_now().saturating_sub(net0);
        let mut t = self.tally.lock().expect("tally lock poisoned");
        t.calls += 1;
        if let Some(s) = step {
            let st = &mut t.steps[s as usize];
            st.cpu += cpu;
            st.net += net;
            st.calls += 1;
            st.docs += docs(&out);
        }
        out
    }
}

fn is_fact(collection: &str) -> bool {
    TableId::from_name(collection).is_some_and(|t| t.is_fact())
}

impl Store for TracedStore<'_> {
    fn insert_one(&self, collection: &str, doc: Document) -> Result<()> {
        self.timed(None, || self.inner.insert_one(collection, doc), |_| 0)
    }

    fn insert_many(&self, collection: &str, docs: Vec<Document>) -> Result<usize> {
        self.timed(
            Some(Step::SemiJoin),
            || self.inner.insert_many(collection, docs),
            |r| *r.as_ref().unwrap_or(&0) as u64,
        )
    }

    fn find_with(&self, collection: &str, filter: &Filter, opts: &FindOptions) -> Vec<Document> {
        self.timed(
            Some(Step::DimFilter),
            || self.inner.find_with(collection, filter, opts),
            |v| v.len() as u64,
        )
    }

    fn find(&self, collection: &str, filter: &Filter) -> Vec<Document> {
        let step = if is_fact(collection) {
            Step::SemiJoin
        } else {
            Step::Embed
        };
        self.timed(
            Some(step),
            || self.inner.find(collection, filter),
            |v| v.len() as u64,
        )
    }

    fn count(&self, collection: &str, filter: &Filter) -> usize {
        self.timed(None, || self.inner.count(collection, filter), |_| 0)
    }

    fn update(
        &self,
        collection: &str,
        filter: &Filter,
        spec: &UpdateSpec,
        upsert: bool,
        multi: bool,
    ) -> Result<UpdateResult> {
        let out = self.timed(
            Some(Step::Embed),
            || self.inner.update(collection, filter, spec, upsert, multi),
            |r| r.as_ref().map_or(0, |u| u.matched as u64),
        );
        let mut t = self.tally.lock().expect("tally lock poisoned");
        t.updates += 1;
        if out.as_ref().is_ok_and(|u| u.matched > 0) {
            t.updates_matched += 1;
        }
        out
    }

    fn aggregate(&self, collection: &str, pipeline: &Pipeline) -> Result<Vec<Document>> {
        self.timed(
            Some(Step::Aggregate),
            || self.inner.aggregate(collection, pipeline),
            |r| r.as_ref().map_or(0, |v| v.len() as u64),
        )
    }

    fn create_index(&self, collection: &str, def: IndexDef) -> Result<()> {
        self.timed(None, || self.inner.create_index(collection, def), |_| 0)
    }

    fn drop_collection(&self, collection: &str) -> bool {
        self.timed(
            Some(Step::SemiJoin),
            || self.inner.drop_collection(collection),
            |_| 0,
        )
    }

    fn collection_len(&self, collection: &str) -> usize {
        self.timed(None, || self.inner.collection_len(collection), |_| 0)
    }

    fn collection_data_size(&self, collection: &str) -> usize {
        self.timed(None, || self.inner.collection_data_size(collection), |_| 0)
    }
}
