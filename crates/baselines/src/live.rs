//! The live-request index shared by the preempting policies.
//!
//! A preempting policy only ever evicts requests that are live on the
//! newcomer's saturated edges, and an edge never holds more live
//! requests than its capacity `c`. [`LiveSet`] keeps exactly that
//! state: the load tracker, the live requests keyed by id, and per edge
//! the live requests ordered by `(cost, id)`. A victim search then
//! touches at most `|footprint| · c` entries instead of the whole
//! arrival history.

use std::collections::HashMap;

use acmr_core::{Request, RequestId};
use acmr_graph::{EdgeId, EdgeSet, LoadTracker};

/// One live (currently accepted) request.
pub(crate) struct Live<X> {
    pub fp: EdgeSet,
    pub cost: f64,
    /// Per-policy state, e.g. `lp-resolve`'s request class.
    pub extra: X,
}

/// Load, live store and per-edge `(cost, id)`-ordered live lists.
pub(crate) struct LiveSet<X = ()> {
    load: LoadTracker,
    live: HashMap<RequestId, Live<X>>,
    /// Per edge, its live requests sorted by `(cost.total_cmp, id)`;
    /// each list is exactly as long as the edge's load.
    edges: Vec<Vec<(f64, RequestId)>>,
}

impl<X> LiveSet<X> {
    pub fn new(capacities: &[u32]) -> Self {
        LiveSet {
            load: LoadTracker::from_capacities(capacities.to_vec()),
            live: HashMap::new(),
            edges: vec![Vec::new(); capacities.len()],
        }
    }

    pub fn load(&self) -> &LoadTracker {
        &self.load
    }

    pub fn fits(&self, fp: &EdgeSet) -> bool {
        self.load.fits(fp)
    }

    pub fn get(&self, id: RequestId) -> &Live<X> {
        &self.live[&id]
    }

    /// Admit `request` as live under `id`.
    pub fn admit(&mut self, id: RequestId, request: &Request, extra: X) {
        self.load.admit(&request.footprint);
        let cost = request.cost;
        for e in request.footprint.iter() {
            let list = &mut self.edges[e.index()];
            let at = list.partition_point(|&(c, i)| c.total_cmp(&cost).then(i.cmp(&id)).is_lt());
            list.insert(at, (cost, id));
        }
        let fp = request.footprint.clone();
        self.live.insert(id, Live { fp, cost, extra });
    }

    /// Evict the live request `id`.
    pub fn remove(&mut self, id: RequestId) {
        let gone = self.live.remove(&id).expect("victim is live");
        self.load.release(&gone.fp);
        for e in gone.fp.iter() {
            let list = &mut self.edges[e.index()];
            let at = list.iter().position(|&(_, i)| i == id).expect("listed");
            list.remove(at);
        }
    }

    /// Live requests on `e`, cheapest first (ties by id).
    pub fn on_edge(&self, e: EdgeId) -> impl Iterator<Item = RequestId> + '_ {
        self.edges[e.index()].iter().map(|&(_, id)| id)
    }

    /// Evictions still needed on `e` for one more unit to fit, given
    /// the victims already `planned`.
    fn needed(&self, e: EdgeId, planned: &[RequestId]) -> usize {
        let excess = (self.load.load(e) + 1).saturating_sub(self.load.capacity(e)) as usize;
        excess.saturating_sub(self.on_edge(e).filter(|id| planned.contains(id)).count())
    }

    /// Victims freeing one slot on every edge of `fp`: on each saturated
    /// edge, in footprint order, the first still-needed requests of
    /// `order(e)` not already taken. `None` if some edge cannot be
    /// freed from `order(e)` or nothing needs evicting; otherwise the
    /// victims in the order taken and their total cost.
    pub fn victims<I>(
        &self,
        fp: &EdgeSet,
        mut order: impl FnMut(EdgeId) -> I,
    ) -> Option<(Vec<RequestId>, f64)>
    where
        I: IntoIterator<Item = RequestId>,
    {
        let mut victims: Vec<RequestId> = Vec::new();
        let mut cost = 0.0;
        for e in fp.iter() {
            let needed = self.needed(e, &victims);
            if needed == 0 {
                continue;
            }
            let fresh: Vec<RequestId> = order(e)
                .into_iter()
                .filter(|id| !victims.contains(id))
                .take(needed)
                .collect();
            if fresh.len() < needed {
                return None;
            }
            for id in fresh {
                cost += self.live[&id].cost;
                victims.push(id);
            }
        }
        (!victims.is_empty()).then_some((victims, cost))
    }

    /// [`Self::victims`] taking the cheapest requests on each edge.
    pub fn cheapest(&self, fp: &EdgeSet) -> Option<(Vec<RequestId>, f64)> {
        self.victims(fp, |e| self.on_edge(e))
    }

    /// Entry counts, for invariant audits.
    pub fn census(&self) -> LiveCensus {
        let live = self.live.len();
        let edges = (0..self.edges.len() as u32)
            .map(EdgeId)
            .map(|e| {
                (
                    self.edges[e.index()].len(),
                    self.load.load(e),
                    self.load.capacity(e),
                )
            })
            .collect();
        LiveCensus { live, edges }
    }
}

/// Entry counts of a preempting policy's live index, for audits: the
/// index must hold exactly the accepted requests, and each edge's live
/// list must match its load.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LiveCensus {
    /// Live requests in the store.
    pub live: usize,
    /// Per edge: `(live list length, load, capacity)`.
    pub edges: Vec<(usize, u32, u32)>,
}
