//! Differential suite for the per-edge live index of the preempting
//! policies.
//!
//! The oracle is the victim scan the policies used before the index: a
//! walk over the whole arrival history, re-filtered and re-sorted per
//! saturated edge. `preempt-cheapest`, `buyback`, `lp-resolve` (with a
//! short period, so plan enforcement runs) and `random-preempt` must
//! make exactly the oracle's decisions — same acceptances, same victims
//! in the same order — on seeded random traces with tied costs,
//! capacity-1 edges, multi-edge conflicts and one zero-capacity edge.
//! After every arrival each policy's live index must hold exactly the
//! session's accepted requests, with every edge's live list as long as
//! its load and no longer than its capacity.

use std::cell::RefCell;
use std::collections::BTreeMap;

use acmr_baselines::{Buyback, LiveCensus, LpResolve, PreemptCheapest, RandomPreempt};
use acmr_core::{OnlineAdmission, Outcome, Request, RequestId, Session};
use acmr_graph::{EdgeId, EdgeSet, LoadTracker};
use acmr_lp::{solve, Cmp, Lp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Footprint, cost and `lp-resolve` class of an accepted request.
struct Held {
    fp: EdgeSet,
    cost: f64,
    class: ClassKey,
}

/// The whole-history victim scan: on each saturated edge of `request`,
/// in footprint order, the still-needed accepted requests passing
/// `eligible`, least `key` first (ties by id). `None` if some edge
/// lacks candidates or nothing was taken.
fn scan(
    accepted: &[Option<Held>],
    load: &LoadTracker,
    request: &Request,
    key: impl Fn(&Held) -> f64,
    eligible: impl Fn(&Held) -> bool,
) -> Option<(Vec<RequestId>, f64)> {
    let mut victims: Vec<RequestId> = Vec::new();
    let mut victim_cost = 0.0;
    let mut taken: Vec<bool> = vec![false; accepted.len()];
    for e in request.footprint.iter() {
        let mut needed = (load.load(e) + 1).saturating_sub(load.capacity(e)) as i64;
        for (i, t) in taken.iter().enumerate() {
            if *t {
                if let Some(held) = &accepted[i] {
                    if held.fp.contains(e) {
                        needed -= 1;
                    }
                }
            }
        }
        if needed <= 0 {
            continue;
        }
        let mut on_edge: Vec<(usize, f64, f64)> = accepted
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                slot.as_ref().and_then(|held| {
                    (!taken[i] && held.fp.contains(e) && eligible(held)).then_some((
                        i,
                        held.cost,
                        key(held),
                    ))
                })
            })
            .collect();
        if (on_edge.len() as i64) < needed {
            return None;
        }
        on_edge.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
        for (i, cost, _) in on_edge.into_iter().take(needed as usize) {
            taken[i] = true;
            victims.push(RequestId(i as u32));
            victim_cost += cost;
        }
    }
    (!victims.is_empty()).then_some((victims, victim_cost))
}

/// History-indexed accepted set plus load, shared by the oracles.
struct History {
    load: LoadTracker,
    accepted: Vec<Option<Held>>,
}

impl History {
    fn new(caps: &[u32]) -> Self {
        History {
            load: LoadTracker::from_capacities(caps.to_vec()),
            accepted: Vec::new(),
        }
    }

    fn evict(&mut self, victims: &[RequestId]) {
        for v in victims {
            let held = self.accepted[v.index()].take().expect("victim accepted");
            self.load.release(&held.fp);
        }
    }

    fn admit(&mut self, id: RequestId, request: &Request, class: ClassKey) {
        self.load.admit(&request.footprint);
        let fp = request.footprint.clone();
        self.accepted[id.index()] = Some(Held {
            fp,
            cost: request.cost,
            class,
        });
    }

    fn cheapest(&self, request: &Request) -> Option<(Vec<RequestId>, f64)> {
        scan(&self.accepted, &self.load, request, |h| h.cost, |_| true)
    }
}

/// Oracle `preempt-cheapest` (`delta: None`) and `buyback` (`Some(δ)`).
///
/// The scan is strict: an edge it cannot free rejects the newcomer.
/// Strictness differs from taking what is there only on zero-capacity
/// edges, where the pre-index `preempt-cheapest`/`buyback` scans went
/// on to admit over the edge and panicked in `LoadTracker::admit`.
struct OldSwap {
    history: History,
    delta: Option<f64>,
}

impl OnlineAdmission for OldSwap {
    fn name(&self) -> &'static str {
        "old-swap"
    }

    fn on_request(&mut self, id: RequestId, request: &Request) -> Outcome {
        self.history.accepted.push(None);
        let mut preempted = Vec::new();
        if !self.history.load.fits(&request.footprint) {
            let Some((victims, victim_cost)) = self.history.cheapest(request) else {
                return Outcome::reject();
            };
            let upgrade = match self.delta {
                None => victim_cost < request.cost,
                Some(delta) => request.cost > (1.0 + delta) * victim_cost,
            };
            if !upgrade {
                return Outcome::reject();
            }
            self.history.evict(&victims);
            preempted = victims;
        }
        self.history.admit(id, request, (0, 0));
        Outcome {
            accepted: true,
            preempted,
        }
    }
}

/// Oracle `random-preempt`: a uniform pick among the id-ordered
/// accepted requests on each full edge.
struct OldRandom {
    history: History,
    rng: StdRng,
}

impl OnlineAdmission for OldRandom {
    fn name(&self) -> &'static str {
        "old-random"
    }

    fn on_request(&mut self, id: RequestId, request: &Request) -> Outcome {
        self.history.accepted.push(None);
        let mut victims: Vec<RequestId> = Vec::new();
        for e in request.footprint.iter() {
            while self.history.load.residual(e) == 0 {
                let on_edge: Vec<usize> = self
                    .history
                    .accepted
                    .iter()
                    .enumerate()
                    .filter_map(|(i, slot)| {
                        slot.as_ref().and_then(|h| h.fp.contains(e).then_some(i))
                    })
                    .collect();
                if on_edge.is_empty() {
                    return Outcome {
                        accepted: false,
                        preempted: victims,
                    };
                }
                let pick = RequestId(on_edge[self.rng.gen_range(0..on_edge.len())] as u32);
                self.history.evict(&[pick]);
                victims.push(pick);
            }
        }
        self.history.admit(id, request, (0, 0));
        Outcome {
            accepted: true,
            preempted: victims,
        }
    }
}

type ClassKey = (u32, i32);

fn class_key(request: &Request) -> ClassKey {
    let width = request.footprint.len() as u32;
    let band = if request.cost > 0.0 {
        request.cost.log2().floor() as i32
    } else {
        i32::MIN
    };
    (width, band)
}

#[derive(Clone, Default)]
struct ClassStats {
    count: u32,
    cost_sum: f64,
    edge_hits: BTreeMap<u32, u32>,
}

struct PlanEntry {
    quota: f64,
    used: u32,
}

/// Oracle `lp-resolve`: the policy's window, re-solve and plan logic
/// over the whole-history scan. Counts plan-enforcement swaps so the
/// suite can check that route ran.
struct OldLpResolve {
    history: History,
    period: u32,
    buffer: f64,
    seen: u32,
    window: BTreeMap<ClassKey, ClassStats>,
    plan: BTreeMap<ClassKey, PlanEntry>,
    price: f64,
    plan_swaps: usize,
}

impl OldLpResolve {
    fn new(caps: &[u32], period: u32, buffer: f64) -> Self {
        OldLpResolve {
            history: History::new(caps),
            period,
            buffer,
            seen: 0,
            window: BTreeMap::new(),
            plan: BTreeMap::new(),
            price: 0.0,
            plan_swaps: 0,
        }
    }

    fn resolve(&mut self) {
        let load = &self.history.load;
        let budget: Vec<f64> = (0..load.num_edges())
            .map(|e| (1.0 - self.buffer) * load.capacity(EdgeId(e as u32)) as f64)
            .collect();
        let classes: Vec<(ClassKey, ClassStats)> =
            self.window.iter().map(|(k, s)| (*k, s.clone())).collect();
        self.plan.clear();
        self.window.clear();
        if classes.is_empty() {
            return;
        }
        let mut lp = Lp::new(classes.iter().map(|(_, s)| -s.cost_sum).collect());
        for j in 0..classes.len() {
            lp.push(vec![(j, 1.0)], Cmp::Le, 1.0);
        }
        let mut rows: BTreeMap<u32, Vec<(usize, f64)>> = BTreeMap::new();
        for (j, (_, stats)) in classes.iter().enumerate() {
            for (&e, &hits) in &stats.edge_hits {
                rows.entry(e).or_default().push((j, hits as f64));
            }
        }
        for (e, coeffs) in rows {
            lp.push(coeffs, Cmp::Le, budget[e as usize]);
        }
        let Ok(sol) = solve(&lp) else {
            return;
        };
        let (mut planned_value, mut planned_slots) = (0.0f64, 0.0f64);
        for (j, (key, stats)) in classes.iter().enumerate() {
            let x = sol.x[j].clamp(0.0, 1.0);
            let quota = x * stats.count as f64;
            if quota > 1e-9 {
                planned_value += x * stats.cost_sum;
                planned_slots += quota * key.0.max(1) as f64;
                self.plan.insert(*key, PlanEntry { quota, used: 0 });
            }
        }
        self.price = if planned_slots > 0.0 {
            planned_value / planned_slots
        } else {
            0.0
        };
    }
}

impl OnlineAdmission for OldLpResolve {
    fn name(&self) -> &'static str {
        "old-lp-resolve"
    }

    fn on_request(&mut self, id: RequestId, request: &Request) -> Outcome {
        self.history.accepted.push(None);
        let key = class_key(request);
        let s = self.window.entry(key).or_default();
        s.count += 1;
        s.cost_sum += request.cost;
        for e in request.footprint.iter() {
            *s.edge_hits.entry(e.0).or_default() += 1;
        }
        self.seen += 1;
        let on_plan = matches!(
            self.plan.get(&key),
            Some(entry) if (entry.used as f64) + 1.0 <= entry.quota + 1e-9
        );
        let mut preempted = Vec::new();
        let admit = if self.history.load.fits(&request.footprint) {
            true
        } else {
            let density = |fp: &EdgeSet, cost: f64| cost / fp.len().max(1) as f64;
            let own = density(&request.footprint, request.cost);
            let swap = self
                .history
                .cheapest(request)
                .filter(|(_, cost)| *cost < request.cost);
            let plan_route = swap.is_none();
            let chosen = swap.or_else(|| {
                if !on_plan {
                    return None;
                }
                let plan = &self.plan;
                let picked = scan(
                    &self.history.accepted,
                    &self.history.load,
                    request,
                    |h| density(&h.fp, h.cost),
                    |h| !plan.contains_key(&h.class) && density(&h.fp, h.cost) < own,
                );
                picked.filter(|(victims, cost)| {
                    let width: usize = victims
                        .iter()
                        .filter_map(|v| self.history.accepted[v.index()].as_ref())
                        .map(|h| h.fp.len())
                        .sum();
                    let freed = width as f64 - request.footprint.len() as f64;
                    *cost < request.cost + 0.5 * self.price * freed
                })
            });
            match chosen {
                Some((victims, _)) => {
                    self.plan_swaps += plan_route as usize;
                    self.history.evict(&victims);
                    preempted = victims;
                    true
                }
                None => false,
            }
        };
        if admit {
            if on_plan {
                self.plan.get_mut(&key).expect("on-plan entry").used += 1;
            }
            self.history.admit(id, request, key);
        }
        if self.seen.is_multiple_of(self.period) {
            self.resolve();
        }
        Outcome {
            accepted: admit,
            preempted,
        }
    }
}

/// The policies under test expose their live index's entry counts.
trait Censused: OnlineAdmission {
    fn census(&self) -> LiveCensus;
}

impl Censused for PreemptCheapest {
    fn census(&self) -> LiveCensus {
        self.live_census()
    }
}

impl Censused for Buyback {
    fn census(&self) -> LiveCensus {
        self.live_census()
    }
}

impl Censused for LpResolve {
    fn census(&self) -> LiveCensus {
        self.live_census()
    }
}

impl Censused for RandomPreempt<StdRng> {
    fn census(&self) -> LiveCensus {
        self.live_census()
    }
}

/// Lets a session drive a policy the test can still inspect between
/// arrivals.
struct Probe<'a, P>(&'a RefCell<P>);

impl<P: OnlineAdmission> OnlineAdmission for Probe<'_, P> {
    fn name(&self) -> &'static str {
        self.0.borrow().name()
    }

    fn on_request(&mut self, id: RequestId, request: &Request) -> Outcome {
        self.0.borrow_mut().on_request(id, request)
    }

    fn buyback_factor(&self) -> f64 {
        self.0.borrow().buyback_factor()
    }
}

/// A seeded trace over six edges: the last has capacity 0, edge 0 has
/// capacity 1, the rest 1–3. Footprints span 1–3 edges (the
/// zero-capacity edge joins about one in twelve); costs come from a
/// small menu, so ties are common and `lp-resolve` sees several
/// classes.
fn trace(seed: u64) -> (Vec<u32>, Vec<Request>) {
    const COSTS: [f64; 8] = [1.0, 1.0, 2.0, 2.0, 3.0, 0.5, 5.0, 40.0];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut caps: Vec<u32> = (0..6).map(|_| rng.gen_range(1..=3)).collect();
    caps[0] = 1;
    caps[5] = 0;
    let requests = (0..300)
        .map(|_| {
            let width = rng.gen_range(1..=3);
            let mut edges: Vec<EdgeId> = (0..width).map(|_| EdgeId(rng.gen_range(0..5))).collect();
            if rng.gen_range(0..12) == 0 {
                edges.push(EdgeId(5));
            }
            let cost = COSTS[rng.gen_range(0..COSTS.len())];
            Request::new(EdgeSet::new(edges), cost)
        })
        .collect();
    (caps, requests)
}

/// Drive `policy` through a session and `oracle` directly over one
/// trace; assert equal outcomes and a consistent live index after every
/// arrival. Returns the preemption count.
fn differential<P: Censused>(
    policy: P,
    mut oracle: impl OnlineAdmission,
    caps: &[u32],
    requests: &[Request],
) -> usize {
    let cell = RefCell::new(policy);
    let mut session = Session::new(Probe(&cell), caps);
    let mut preemptions = 0;
    for (i, request) in requests.iter().enumerate() {
        let id = RequestId(i as u32);
        let event = session.push(request).expect("referee accepts the policy");
        let got = Outcome {
            accepted: event.accepted,
            preempted: event.preempted,
        };
        let want = oracle.on_request(id, request);
        let name = cell.borrow().name();
        assert_eq!(got, want, "{name}: arrival {i} diverges from the oracle");
        preemptions += got.preempted.len();
        let census = cell.borrow().census();
        assert_eq!(census.live, session.stats().currently_accepted, "{name}");
        for (e, &(listed, load, cap)) in census.edges.iter().enumerate() {
            assert_eq!(listed, load as usize, "{name}: edge {e} list vs load");
            assert!(load <= cap, "{name}: edge {e} over capacity");
        }
    }
    preemptions
}

const SEEDS: std::ops::Range<u64> = 0..24;

#[test]
fn preemptors_reject_through_a_zero_capacity_edge() {
    // Edge 1 can never be freed, however cheap the victim on edge 0.
    let caps = [1u32, 0];
    let fp = |edges: &[u32]| EdgeSet::new(edges.iter().map(|&e| EdgeId(e)).collect());
    let requests = [
        Request::new(fp(&[0]), 1.0),
        Request::new(fp(&[0, 1]), 100.0),
    ];
    let policies: [Box<dyn OnlineAdmission>; 3] = [
        Box::new(PreemptCheapest::new(&caps)),
        Box::new(Buyback::new(&caps, 0.5)),
        Box::new(LpResolve::new(&caps, 8, 0.05)),
    ];
    for policy in policies {
        let mut session = Session::new(policy, &caps);
        assert!(session.push(&requests[0]).unwrap().accepted);
        let event = session.push(&requests[1]).unwrap();
        assert!(!event.accepted && event.preempted.is_empty());
    }
}

#[test]
fn preempt_cheapest_matches_the_history_scan() {
    let mut preemptions = 0;
    for seed in SEEDS {
        let (caps, requests) = trace(seed);
        let oracle = OldSwap {
            history: History::new(&caps),
            delta: None,
        };
        preemptions += differential(PreemptCheapest::new(&caps), oracle, &caps, &requests);
    }
    assert!(preemptions > 0, "the traces must force preemptions");
}

#[test]
fn buyback_matches_the_history_scan_across_factors() {
    for factor in [0.0, 0.5, 2.0] {
        let mut preemptions = 0;
        for seed in SEEDS {
            let (caps, requests) = trace(seed);
            let policy = Buyback::new(&caps, factor);
            let oracle = OldSwap {
                history: History::new(&caps),
                delta: Some(policy.delta()),
            };
            preemptions += differential(policy, oracle, &caps, &requests);
        }
        assert!(preemptions > 0, "factor {factor}: no preemptions");
    }
}

#[test]
fn lp_resolve_matches_the_history_scan_on_both_routes() {
    let mut plan_swaps = 0;
    for seed in SEEDS {
        let (caps, requests) = trace(seed);
        let mut oracle = OldLpResolve::new(&caps, 8, 0.05);
        differential(
            LpResolve::new(&caps, 8, 0.05),
            &mut oracle,
            &caps,
            &requests,
        );
        plan_swaps += oracle.plan_swaps;
    }
    assert!(plan_swaps > 0, "plan enforcement never ran");
}

#[test]
fn lp_resolve_plan_route_breaks_density_ties_by_id() {
    // Window 1 (period 4) leaves two squatters on edge 0 (capacity 2)
    // at density 0.5: #0 costs 1.5 over three edges, #1 costs 1 over
    // two. Window 2 holds only the newcomer's class, so the second plan
    // zeroes both squatters' classes. The newcomer (cost 0.9 on edge 0)
    // fails the cost gate against #1 and takes the plan route, where
    // the tie goes to the lower id: #0, though #1 is cheaper.
    let caps = [2u32, 1, 1, 1, 2, 4];
    let fp = |edges: &[u32]| EdgeSet::new(edges.iter().map(|&e| EdgeId(e)).collect());
    let mut requests = vec![
        Request::new(fp(&[0, 1, 2]), 1.5),
        Request::new(fp(&[0, 3]), 1.0),
        Request::new(fp(&[4]), 8.0),
        Request::new(fp(&[4]), 8.0),
    ];
    requests.extend((0..4).map(|_| Request::new(fp(&[5]), 0.9)));
    requests.push(Request::new(fp(&[0]), 0.9));
    let mut oracle = OldLpResolve::new(&caps, 4, 0.0);
    differential(LpResolve::new(&caps, 4, 0.0), &mut oracle, &caps, &requests);
    assert_eq!(oracle.plan_swaps, 1);
    let mut policy = LpResolve::new(&caps, 4, 0.0);
    let last = requests
        .iter()
        .enumerate()
        .map(|(i, r)| policy.on_request(RequestId(i as u32), r))
        .last();
    assert_eq!(last.unwrap().preempted, vec![RequestId(0)]);
}

#[test]
fn random_preempt_matches_the_history_scan_draw_for_draw() {
    let mut preemptions = 0;
    for seed in SEEDS {
        let (caps, requests) = trace(seed);
        let oracle = OldRandom {
            history: History::new(&caps),
            rng: StdRng::seed_from_u64(seed),
        };
        let policy = RandomPreempt::new(&caps, StdRng::seed_from_u64(seed));
        preemptions += differential(policy, oracle, &caps, &requests);
    }
    assert!(preemptions > 0, "the traces must force preemptions");
}
