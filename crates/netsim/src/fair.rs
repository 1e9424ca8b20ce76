//! Max-min fair bandwidth allocation.
//!
//! The fluid abstraction of TCP used by flow-level simulators: at any
//! instant, active flows receive the max-min fair allocation over the
//! links they traverse, computed by progressive filling. This is the
//! bandwidth-sharing model under which the replay experiments run.
//!
//! Two entry points share the arithmetic:
//!
//! * [`max_min_rates`] — the pure from-scratch solver over one flow set;
//! * [`FairShareState`] — an incremental allocator that keeps per-link
//!   flow adjacency between events and, on each [`insert_flow`] /
//!   [`remove_flow`], re-solves only the *affected component*: the flows
//!   transitively connected to the mutated flow through shared links.
//!   Its rates are **bit-for-bit identical** to [`max_min_rates`] over
//!   the full active set after every mutation (see the module's
//!   equivalence argument below), which is what keeps same-seed replays
//!   byte-identical whichever path runs.
//!
//! # Why component-scoped re-solving is exact
//!
//! Progressive filling over a union of link-disjoint flow components
//! performs, per component, the same floating-point operations as
//! filling each component alone:
//!
//! * a link's `remaining` capacity is only ever decremented by flows
//!   crossing that link, i.e. flows of its own component;
//! * the bottleneck selection order *within* a component depends only on
//!   that component's shares plus the global link index used to break
//!   ties, never on other components' links;
//! * within one freeze round every frozen flow subtracts the *same*
//!   share value, so the order of subtractions (and `.max(0.0)` clamps)
//!   on any given link cannot change the result.
//!
//! Hence a flow's rate is a function of its component only, and cached
//! rates of untouched components remain exactly what a from-scratch
//! solve would produce. The property test
//! `incremental_fair_share_matches_full` pins this with exact (bitwise)
//! equality, well inside the 1e-9 budget.
//!
//! # Weighted entries (flow bundles)
//!
//! [`insert_weighted`] registers one entry standing for `w` identical
//! flows — same links, same (per-member) rate. The weighted solve is
//! bit-identical to inserting the `w` members individually:
//!
//! * members of a bundle share one link set, so in the per-flow solve
//!   they are symmetric: all freeze in the same round at the same share;
//! * a link's unfrozen count under weights is the sum of member counts —
//!   the same integer the per-flow solve divides by;
//! * freezing a weight-`w` entry performs `w` literal
//!   `(remaining - share).max(0.0)` subtractions per crossed link — the
//!   member-wise rounding sequence — and within one freeze round every
//!   subtraction uses the *same* share value, so interleaving members of
//!   different bundles (as the per-flow solve may) cannot change any
//!   intermediate, let alone the result.
//!
//! The only shortcut taken: when a freeze drops a link's unfrozen count
//! to zero, its `remaining` is never read again this solve, so the
//! member-wise drain is skipped. That makes single-bundle components
//! O(links) instead of O(members), which is what keeps million-flow
//! bundles solvable per event. The `aggregated_rates_match_per_flow`
//! proptest pins the bitwise equivalence.
//!
//! # The cached component
//!
//! Shuffle traffic forms one component spanning the fabric, so most
//! walks would re-collect the component the previous walk found. Only
//! [`remove_flow`] can split a component. So when a walk finds exactly
//! one component, the state keeps its links and entry count, and:
//!
//! * an [`insert_weighted`] whose links are each in that component or
//!   carry only the new entry, and at least one is in it, extends the
//!   cached links by its fresh ones and fills with no walk;
//! * [`add_weight`](FairShareState::add_weight),
//!   [`sub_weight`](FairShareState::sub_weight) and
//!   [`set_capacity`](FairShareState::set_capacity) on its links fill
//!   with no walk;
//! * a removal, full recompute, or any mutation touching another
//!   component drops the cache and walks, re-caching when the walk
//!   finds exactly one component.
//!
//! The cached set is always exactly one link-connected component, and
//! the fill depends neither on the order of its links (ties break on
//! the global link id) nor on that of its entries (freezes follow link
//! adjacency). A cached fill therefore performs a walked fill's
//! floating-point operations in the same order, and [`solves`] and
//! [`solved_flows`] count what the walk would have. Per-link weight
//! sums are kept current on every mutation, and the scratch lives in
//! the state, so a solve allocates nothing and writes rates in place.
//! Debug builds re-walk the component on every cached fill and assert
//! the same link set and entry count.
//!
//! # One sequential fill
//!
//! A mutation whose dirty set spans several components (every
//! component, under full recompute) fills them one after another with
//! the same scratch. Components are link-disjoint, so each fill writes
//! only its own entries' rates; no solve fans out over threads, and the
//! rates depend on the flow set alone, never on the host.
//!
//! [`insert_flow`]: FairShareState::insert_flow
//! [`insert_weighted`]: FairShareState::insert_weighted
//! [`remove_flow`]: FairShareState::remove_flow
//! [`solves`]: FairShareState::solves
//! [`solved_flows`]: FairShareState::solved_flows

/// Computes max-min fair rates (bits/s) for a set of flows.
///
/// `flow_links[i]` lists the directed link indices flow `i` traverses
/// (an empty list means the flow never leaves its host and is allocated
/// `local_bps`). `capacities[l]` is link `l`'s capacity in bits/s.
///
/// Runs progressive filling: repeatedly find the most-constrained link
/// (smallest capacity share per unfrozen flow), freeze its flows at that
/// share, remove the consumed capacity, and continue until every flow is
/// frozen.
///
/// # Panics
///
/// Panics in debug builds if a flow references an out-of-range link.
///
/// # Examples
///
/// ```
/// use keddah_netsim::fair::max_min_rates;
///
/// // Two flows share link 0 (10 bps); flow 1 also crosses link 1 (2 bps).
/// let rates = max_min_rates(&[vec![0], vec![0, 1]], &[10.0, 2.0], 100.0);
/// assert!((rates[1] - 2.0).abs() < 1e-9); // bottlenecked on link 1
/// assert!((rates[0] - 8.0).abs() < 1e-9); // picks up the slack
/// ```
#[must_use]
pub fn max_min_rates(flow_links: &[Vec<u32>], capacities: &[f64], local_bps: f64) -> Vec<f64> {
    let n = flow_links.len();
    let mut rates = vec![0.0f64; n];
    if n == 0 {
        return rates;
    }
    let mut frozen = vec![false; n];
    let mut remaining: Vec<f64> = capacities.to_vec();
    // Flows on each link, and per-link unfrozen counts.
    let mut link_flows: Vec<Vec<u32>> = vec![Vec::new(); capacities.len()];
    for (i, links) in flow_links.iter().enumerate() {
        for &l in links {
            debug_assert!((l as usize) < capacities.len(), "link out of range");
            link_flows[l as usize].push(i as u32);
        }
        if links.is_empty() {
            rates[i] = local_bps;
            frozen[i] = true;
        }
    }
    let mut unfrozen_on: Vec<u32> = link_flows
        .iter()
        .enumerate()
        .map(|(l, flows)| {
            let _ = l;
            flows.iter().filter(|&&f| !frozen[f as usize]).count() as u32
        })
        .collect();

    loop {
        // Find the bottleneck link: smallest fair share among links with
        // unfrozen flows.
        let mut best: Option<(usize, f64)> = None;
        for (l, &count) in unfrozen_on.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let share = (remaining[l] / count as f64).max(0.0);
            match best {
                Some((_, s)) if s <= share => {}
                _ => best = Some((l, share)),
            }
        }
        let Some((bottleneck, share)) = best else {
            break; // all flows frozen
        };
        // Freeze every unfrozen flow crossing the bottleneck at `share`,
        // and charge that rate to every link each flow crosses.
        let flows_here: Vec<u32> = link_flows[bottleneck]
            .iter()
            .copied()
            .filter(|&f| !frozen[f as usize])
            .collect();
        for f in flows_here {
            if frozen[f as usize] {
                // A flow that crosses the bottleneck twice appears twice
                // in the collected list; freeze it only once.
                continue;
            }
            frozen[f as usize] = true;
            rates[f as usize] = share;
            for &l in &flow_links[f as usize] {
                remaining[l as usize] = (remaining[l as usize] - share).max(0.0);
                unfrozen_on[l as usize] -= 1;
            }
        }
    }
    rates
}

/// Handle to a flow registered with a [`FairShareState`].
///
/// Handles are arena slots: stable while the flow is active, recycled
/// after [`FairShareState::remove_flow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FairFlowId(pub u32);

#[derive(Debug, Clone, Default)]
struct FlowSlot {
    /// The entry's links; kept after removal until the slot is reused.
    links: Vec<u32>,
    /// Member flows this entry stands for (1 = a plain flow; >1 = a
    /// bundle of identical flows sharing the link set and the rate).
    weight: u32,
    alive: bool,
}

/// Everything a fill reads: link capacities and the entry/link
/// incidence, kept current by every mutation.
#[derive(Debug)]
struct Incidence {
    capacities: Vec<f64>,
    slots: Vec<FlowSlot>,
    /// link -> active entries crossing it, one entry per crossing (an
    /// entry listing a link twice appears twice).
    link_flows: Vec<Vec<u32>>,
    /// link -> summed weight of its crossings: the member count a fill
    /// starts the link's unfrozen count at.
    link_weight: Vec<u32>,
}

/// Where a walk starts.
#[derive(Debug, Clone, Copy)]
enum Seeds {
    /// One entry (an insert or a weight change).
    Entry(u32),
    /// The entries crossing one link (a capacity change).
    Link(u32),
    /// The entries sharing a link with a removed entry.
    Neighbours(u32),
    /// Every live entry (full recompute).
    Every,
}

/// Solver scratch for the component walk, and the cached component.
///
/// A walk stamps the entries and links it reaches, so per-walk clearing
/// is O(touched), not O(total). When a walk finds exactly one component,
/// `links` holds exactly that component's links (`link_local` indexes
/// them, their marks equal `stamp`) and `cached` its entry count. Only a
/// removal can split a component, so until the next removal or walk an
/// insert on it, or a re-weighting or capacity change of it, changes
/// what gets filled but not which links and entries belong together:
/// the cache is extended in place instead of re-walked.
#[derive(Debug, Default)]
struct Walk {
    stamp: u64,
    flow_mark: Vec<u64>,
    link_mark: Vec<u64>,
    link_local: Vec<u32>,
    /// Members of the walked components, flattened (the BFS queue).
    members: Vec<u32>,
    /// Links of the walked components, flattened.
    links: Vec<u32>,
    /// `links` range of each walked component.
    comps: Vec<std::ops::Range<usize>>,
    /// Entry count of the cached component, if the cache is valid.
    cached: Option<usize>,
}

impl Walk {
    /// Collects the link-connected components reachable from `seeds`.
    /// Caches the result when it is exactly one component.
    fn run(&mut self, inc: &Incidence, seeds: Seeds) {
        self.stamp += 1;
        self.members.clear();
        self.links.clear();
        self.comps.clear();
        match seeds {
            Seeds::Entry(id) => self.component_from(inc, id),
            Seeds::Link(l) => {
                for &f in &inc.link_flows[l as usize] {
                    self.component_from(inc, f);
                }
            }
            Seeds::Neighbours(id) => {
                for &l in &inc.slots[id as usize].links {
                    for &f in &inc.link_flows[l as usize] {
                        self.component_from(inc, f);
                    }
                }
            }
            Seeds::Every => {
                for f in 0..inc.slots.len() as u32 {
                    self.component_from(inc, f);
                }
            }
        }
        self.cached = (self.comps.len() == 1).then_some(self.members.len());
    }

    /// BFS from `start` unless it is dead, local or already walked,
    /// writing each link's component-relative index into `link_local`.
    fn component_from(&mut self, inc: &Incidence, start: u32) {
        let stamp = self.stamp;
        let s = start as usize;
        if !inc.slots[s].alive || inc.slots[s].links.is_empty() || self.flow_mark[s] == stamp {
            return;
        }
        let ls = self.links.len();
        self.flow_mark[s] = stamp;
        self.members.push(start);
        let mut head = self.members.len() - 1;
        while head < self.members.len() {
            let f = self.members[head] as usize;
            head += 1;
            for &l in &inc.slots[f].links {
                let l = l as usize;
                if self.link_mark[l] == stamp {
                    continue;
                }
                self.link_mark[l] = stamp;
                self.link_local[l] = (self.links.len() - ls) as u32;
                self.links.push(l as u32);
                for &g in &inc.link_flows[l] {
                    if self.flow_mark[g as usize] != stamp {
                        self.flow_mark[g as usize] = stamp;
                        self.members.push(g);
                    }
                }
            }
        }
        self.comps.push(ls..self.links.len());
    }

    /// True when `link` belongs to the cached component.
    fn caches(&self, link: u32) -> bool {
        self.cached.is_some() && self.link_mark[link as usize] == self.stamp
    }

    /// Adds new entry `id` to the cached component if that is all it
    /// changes: each of its links is cached or carries only `id`, and
    /// at least one is cached. The fresh links join the cached set.
    fn absorb(&mut self, inc: &Incidence, id: u32) -> bool {
        let links = &inc.slots[id as usize].links;
        let mut joins = false;
        for &l in links {
            if self.caches(l) {
                joins = true;
            } else if inc.link_flows[l as usize].iter().any(|&g| g != id) {
                return false; // merges another component
            }
        }
        if !joins {
            return false;
        }
        for &l in links {
            if !self.caches(l) {
                self.link_mark[l as usize] = self.stamp;
                self.link_local[l as usize] = self.links.len() as u32;
                self.links.push(l);
            }
        }
        self.cached = self.cached.map(|n| n + 1);
        true
    }

    /// Debug oracle: a from-scratch walk of the cached component must
    /// find the same link set and entry count the cache holds.
    #[cfg(debug_assertions)]
    fn check(&self, inc: &Incidence) {
        let Some(cached) = self.cached else { return };
        let mut link_seen = vec![false; inc.link_flows.len()];
        let mut flow_seen = vec![false; inc.slots.len()];
        let first = self.links[0];
        let mut entries = 0;
        let mut walked: Vec<u32> = vec![first];
        link_seen[first as usize] = true;
        let mut head = 0;
        while head < walked.len() {
            let l = walked[head] as usize;
            head += 1;
            for &f in &inc.link_flows[l] {
                if flow_seen[f as usize] {
                    continue;
                }
                flow_seen[f as usize] = true;
                entries += 1;
                for &m in &inc.slots[f as usize].links {
                    if !link_seen[m as usize] {
                        link_seen[m as usize] = true;
                        walked.push(m);
                    }
                }
            }
        }
        debug_assert_eq!(entries, cached, "cached component entry count");
        let mut have = self.links.clone();
        have.sort_unstable();
        walked.sort_unstable();
        debug_assert_eq!(have, walked, "cached component link set");
        for (j, &l) in self.links.iter().enumerate() {
            debug_assert_eq!(self.link_local[l as usize] as usize, j, "cached link index");
        }
    }
}

/// Scratch for one component's progressive fill, reused across solves.
#[derive(Debug, Default)]
struct Fill {
    remaining: Vec<f64>,
    unfrozen: Vec<u32>,
    /// Per-entry fill stamps: an entry is frozen iff its stamp equals
    /// `pass`, so a fill never clears them.
    frozen: Vec<u64>,
    pass: u64,
}

impl Fill {
    /// Weighted progressive filling over one link-connected component
    /// whose links are `comp_links` (`link_local` maps each to its
    /// position there), writing each member entry's per-member rate into
    /// `rates` in place.
    ///
    /// The arithmetic is [`max_min_rates`]'s exactly, with each weight-`w`
    /// entry standing for `w` interleaved member freezes (see the module's
    /// weighted-entries section for why that is bit-identical).
    fn run(&mut self, inc: &Incidence, link_local: &[u32], comp_links: &[u32], rates: &mut [f64]) {
        self.pass += 1;
        let pass = self.pass;
        let (remaining, unfrozen, frozen) =
            (&mut self.remaining, &mut self.unfrozen, &mut self.frozen);
        remaining.clear();
        remaining.extend(comp_links.iter().map(|&l| inc.capacities[l as usize]));
        // All entries crossing a component link are members by closure, so
        // the unfrozen count starts at the link's full weight.
        unfrozen.clear();
        unfrozen.extend(comp_links.iter().map(|&l| inc.link_weight[l as usize]));

        loop {
            // Bottleneck: smallest share; ties break on the smallest global
            // link id, exactly like the full solver's ascending link scan.
            let mut best: Option<(f64, u32, usize)> = None;
            for (j, (&count, &global)) in unfrozen.iter().zip(comp_links).enumerate() {
                if count == 0 {
                    continue;
                }
                let share = (remaining[j] / f64::from(count)).max(0.0);
                match best {
                    Some((s, g, _)) if s < share || (s == share && g < global) => {}
                    _ => best = Some((share, global, j)),
                }
            }
            let Some((share, _, bottleneck)) = best else {
                break;
            };
            for &f in &inc.link_flows[comp_links[bottleneck] as usize] {
                // An entry crossing the bottleneck twice is listed twice;
                // it freezes once.
                if frozen[f as usize] == pass {
                    continue;
                }
                frozen[f as usize] = pass;
                rates[f as usize] = share;
                let slot = &inc.slots[f as usize];
                let w = slot.weight;
                for &l in &slot.links {
                    let lj = link_local[l as usize] as usize;
                    unfrozen[lj] -= w;
                    if unfrozen[lj] == 0 {
                        // This freeze emptied the link: its `remaining` is
                        // never read again, so the member-wise drain below
                        // would be dead work — O(links), not O(members).
                        continue;
                    }
                    // The member-wise rounding sequence, one literal
                    // subtract-and-clamp per member crossing.
                    let mut rem = remaining[lj];
                    for _ in 0..w {
                        rem = (rem - share).max(0.0);
                    }
                    remaining[lj] = rem;
                }
            }
        }
    }
}

/// Incremental max-min fair allocator.
///
/// Maintains the active flow set, per-link flow adjacency and weight
/// sums, and per-flow rates across mutations. Every mutation re-solves
/// only the affected components (entries transitively sharing links with
/// the mutated one), each with the same weighted progressive fill;
/// forcing full recompute re-solves every component instead, with
/// identical rates.
///
/// # Examples
///
/// ```
/// use keddah_netsim::fair::{max_min_rates, FairShareState};
///
/// let mut state = FairShareState::new(vec![10.0, 2.0], 100.0);
/// let a = state.insert_flow(&[0]);
/// let b = state.insert_flow(&[0, 1]);
/// assert!((state.rate(b) - 2.0).abs() < 1e-12); // bottlenecked on link 1
/// assert!((state.rate(a) - 8.0).abs() < 1e-12); // picks up the slack
/// // Exactly the from-scratch allocation:
/// let full = max_min_rates(&[vec![0], vec![0, 1]], &[10.0, 2.0], 100.0);
/// assert_eq!(vec![state.rate(a), state.rate(b)], full);
/// state.remove_flow(b);
/// assert_eq!(state.rate(a), 10.0);
/// ```
#[derive(Debug)]
pub struct FairShareState {
    inc: Incidence,
    local_bps: f64,
    full_recompute: bool,
    rates: Vec<f64>,
    free: Vec<u32>,
    /// Active member flows (weights summed), local (link-less) included.
    active: usize,
    walk: Walk,
    fill: Fill,

    // Instrumentation for benches and the DESIGN ablation.
    solves: u64,
    solved_flows: u64,
}

impl FairShareState {
    /// Creates an empty allocator over links with the given capacities;
    /// flows with no links are allocated `local_bps`.
    #[must_use]
    pub fn new(capacities: Vec<f64>, local_bps: f64) -> Self {
        let n_links = capacities.len();
        FairShareState {
            inc: Incidence {
                capacities,
                slots: Vec::new(),
                link_flows: vec![Vec::new(); n_links],
                link_weight: vec![0; n_links],
            },
            local_bps,
            full_recompute: false,
            rates: Vec::new(),
            free: Vec::new(),
            active: 0,
            walk: Walk {
                link_mark: vec![0; n_links],
                link_local: vec![0; n_links],
                ..Walk::default()
            },
            fill: Fill::default(),
            solves: 0,
            solved_flows: 0,
        }
    }

    /// Forces full progressive filling on every mutation (the
    /// pre-incremental engine's behaviour). Rates are identical either
    /// way; this is the correctness oracle and the perf baseline the
    /// `flow_scaling` bench measures against.
    #[must_use]
    pub fn with_full_recompute(mut self, full: bool) -> Self {
        self.full_recompute = full;
        self
    }

    /// Registers a flow crossing `links` and re-solves the affected
    /// component. An empty link list is a host-local flow, allocated the
    /// local rate immediately.
    ///
    /// # Panics
    ///
    /// Panics if a link index is out of range.
    pub fn insert_flow(&mut self, links: &[u32]) -> FairFlowId {
        self.insert_weighted(links, 1)
    }

    /// Registers a *bundle*: one entry standing for `weight` identical
    /// flows crossing `links`. The entry's rate is the **per-member**
    /// rate, bit-identical to inserting the members individually (see
    /// the module's weighted-entries section).
    ///
    /// # Panics
    ///
    /// Panics if a link index is out of range or `weight` is zero.
    pub fn insert_weighted(&mut self, links: &[u32], weight: u32) -> FairFlowId {
        assert!(weight > 0, "a fair-share entry needs at least one member");
        for &l in links {
            assert!(
                (l as usize) < self.inc.capacities.len(),
                "link {l} out of range"
            );
        }
        let id = if let Some(slot) = self.free.pop() {
            let s = &mut self.inc.slots[slot as usize];
            s.links.clear();
            s.links.extend_from_slice(links);
            s.weight = weight;
            s.alive = true;
            slot
        } else {
            self.inc.slots.push(FlowSlot {
                links: links.to_vec(),
                weight,
                alive: true,
            });
            self.rates.push(0.0);
            self.fill.frozen.push(0);
            self.walk.flow_mark.push(0);
            (self.inc.slots.len() - 1) as u32
        };
        self.active += weight as usize;
        if links.is_empty() {
            self.rates[id as usize] = self.local_bps;
            return FairFlowId(id);
        }
        for &l in links {
            self.inc.link_flows[l as usize].push(id);
            self.inc.link_weight[l as usize] += weight;
        }
        if !self.full_recompute && self.walk.absorb(&self.inc, id) {
            self.fill_cached();
        } else {
            self.resolve(Seeds::Entry(id));
        }
        FairFlowId(id)
    }

    /// Adds `dw` members to a bundle and re-solves its component —
    /// equivalent to `dw` individual [`insert_flow`](Self::insert_flow)
    /// calls with the bundle's link set.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale or `dw` is zero.
    pub fn add_weight(&mut self, id: FairFlowId, dw: u32) {
        self.assert_alive(id, "add_weight on");
        assert!(dw > 0, "weight delta must be positive");
        self.reweight(id.0, |w| w + dw);
    }

    /// Removes `dw` members from a bundle and re-solves its component.
    /// The last member must leave via [`remove_flow`](Self::remove_flow)
    /// instead, which retires the entry.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale, `dw` is zero, or `dw` is not
    /// strictly less than the current weight.
    pub fn sub_weight(&mut self, id: FairFlowId, dw: u32) {
        self.assert_alive(id, "sub_weight on");
        let w = self.inc.slots[id.0 as usize].weight;
        assert!(
            dw > 0 && dw < w,
            "sub_weight({dw}) must leave at least one of {w} members"
        );
        self.reweight(id.0, |w| w - dw);
    }

    /// Sets entry `slot`'s weight to `new(weight)`, applying the same
    /// change to its links' weight sums, and re-solves its component.
    fn reweight(&mut self, slot: u32, new: impl Fn(u32) -> u32) {
        let s = &mut self.inc.slots[slot as usize];
        self.active = self.active - s.weight as usize + new(s.weight) as usize;
        s.weight = new(s.weight);
        for &l in &s.links {
            let lw = &mut self.inc.link_weight[l as usize];
            *lw = new(*lw);
        }
        if let Some(&first) = self.inc.slots[slot as usize].links.first() {
            self.resolve_at(first, Seeds::Entry(slot));
        }
    }

    /// Member count of an active entry (1 for plain flows).
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    #[must_use]
    pub fn weight(&self, id: FairFlowId) -> u32 {
        self.assert_alive(id, "weight of");
        self.inc.slots[id.0 as usize].weight
    }

    /// Unregisters a flow and re-solves the component it left behind
    /// (which may have split into several; solving their union is
    /// equivalent). A removal is the only mutation that can split a
    /// component, so it always walks.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale (already removed).
    pub fn remove_flow(&mut self, id: FairFlowId) {
        self.assert_alive(id, "remove_flow on");
        let slot = id.0 as usize;
        let s = &mut self.inc.slots[slot];
        s.alive = false;
        self.active -= s.weight as usize;
        let w = std::mem::take(&mut s.weight);
        self.rates[slot] = 0.0;
        self.free.push(id.0);
        if s.links.is_empty() {
            return;
        }
        let mut orphans = false;
        for &l in &s.links {
            let l = l as usize;
            self.inc.link_flows[l].retain(|&f| f != id.0);
            self.inc.link_weight[l] -= w;
            orphans |= !self.inc.link_flows[l].is_empty();
        }
        self.walk.cached = None;
        // The orphaned neighbours seed the walk; repeats are skipped there.
        if orphans {
            self.resolve(Seeds::Neighbours(id.0));
        }
    }

    /// Changes one link's capacity (a degraded or repaired optic, a
    /// downed link at 0) and re-solves only the component sharing it:
    /// the link's flows seed the dirty set exactly like an arrival on
    /// that link would, so the incremental allocator absorbs fault
    /// events without a full refill. With no flows on the link this is
    /// a pure bookkeeping update.
    ///
    /// # Panics
    ///
    /// Panics if the link id is out of range or the capacity is not a
    /// finite non-negative number.
    pub fn set_capacity(&mut self, link: u32, bps: f64) {
        assert!(
            (link as usize) < self.inc.capacities.len(),
            "link {link} out of range"
        );
        assert!(
            bps.is_finite() && bps >= 0.0,
            "capacity must be finite and non-negative, got {bps}"
        );
        self.inc.capacities[link as usize] = bps;
        if !self.inc.link_flows[link as usize].is_empty() {
            self.resolve_at(link, Seeds::Link(link));
        }
    }

    /// The current **per-member** rate of an active entry, bits/s (for
    /// weight-1 entries this is simply the flow's rate).
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    #[must_use]
    pub fn rate(&self, id: FairFlowId) -> f64 {
        self.assert_alive(id, "rate of");
        self.rates[id.0 as usize]
    }

    /// Rates of every active flow, sorted by handle.
    #[must_use]
    pub fn rates(&self) -> Vec<(FairFlowId, f64)> {
        self.inc
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(i, _)| (FairFlowId(i as u32), self.rates[i]))
            .collect()
    }

    /// Number of active member flows (weights summed, local included).
    #[must_use]
    pub fn active_flows(&self) -> usize {
        self.active
    }

    /// Total solves performed: one per mutation that had linked entries
    /// to re-rate.
    #[must_use]
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Total entry rates written across all solves — the work metric
    /// (under full recompute every active entry is re-written on every
    /// mutation).
    #[must_use]
    pub fn solved_flows(&self) -> u64 {
        self.solved_flows
    }

    fn assert_alive(&self, id: FairFlowId, what: &str) {
        assert!(
            self.inc.slots.get(id.0 as usize).is_some_and(|s| s.alive),
            "{what} stale handle {id:?}"
        );
    }

    /// Re-solves the component holding `link`: a fill of the cached
    /// component when it is the one, a walk from `seeds` otherwise.
    fn resolve_at(&mut self, link: u32, seeds: Seeds) {
        if !self.full_recompute && self.walk.caches(link) {
            self.fill_cached();
        } else {
            self.resolve(seeds);
        }
    }

    /// Fills the cached component with no walk. It is exactly one
    /// link-connected component, so the fill and the instrumentation are
    /// what a walk from any of its entries would have led to.
    fn fill_cached(&mut self) {
        #[cfg(debug_assertions)]
        self.walk.check(&self.inc);
        let entries = self.walk.cached.expect("a cached component");
        self.solves += 1;
        self.solved_flows += entries as u64;
        self.fill_in_place(0..self.walk.links.len());
    }

    /// Re-solves every link-connected component reachable from `seeds`,
    /// or from every live entry under full recompute. A BFS from each
    /// unvisited start collects one component, and each is filled in
    /// turn. Per the module's equivalence argument the rates are
    /// bit-identical to [`max_min_rates`] over the active set, and
    /// untouched components keep theirs.
    fn resolve(&mut self, seeds: Seeds) {
        self.solves += 1;
        let seeds = if self.full_recompute {
            Seeds::Every
        } else {
            seeds
        };
        self.walk.run(&self.inc, seeds);
        self.solved_flows += self.walk.members.len() as u64;
        for ci in 0..self.walk.comps.len() {
            self.fill_in_place(self.walk.comps[ci].clone());
        }
    }

    /// Fills the component whose links are `walk.links[range]`, writing
    /// the rates in place.
    fn fill_in_place(&mut self, range: std::ops::Range<usize>) {
        self.fill.run(
            &self.inc,
            &self.walk.link_local,
            &self.walk.links[range],
            &mut self.rates,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + b.abs())
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let rates = max_min_rates(&[vec![0, 1]], &[5.0, 3.0], 100.0);
        assert!(close(rates[0], 3.0));
    }

    #[test]
    fn equal_flows_split_evenly() {
        let rates = max_min_rates(&[vec![0], vec![0], vec![0], vec![0]], &[8.0], 100.0);
        assert!(rates.iter().all(|&r| close(r, 2.0)));
    }

    #[test]
    fn classic_three_flow_example() {
        // Links: A (cap 10), B (cap 10).
        // f0: A; f1: A,B; f2: B.
        // Max-min: f1 = 5 (both links), f0 = 5, f2 = 5.
        let rates = max_min_rates(&[vec![0], vec![0, 1], vec![1]], &[10.0, 10.0], 100.0);
        assert!(rates.iter().all(|&r| close(r, 5.0)), "{rates:?}");
    }

    #[test]
    fn slack_reallocation() {
        // f0 bottlenecked at 1 on link 1; f1 then gets 9 on link 0.
        let rates = max_min_rates(&[vec![0, 1], vec![0]], &[10.0, 1.0], 100.0);
        assert!(close(rates[0], 1.0));
        assert!(close(rates[1], 9.0));
    }

    #[test]
    fn local_flows_bypass_links() {
        let rates = max_min_rates(&[vec![], vec![0]], &[4.0], 77.0);
        assert!(close(rates[0], 77.0));
        assert!(close(rates[1], 4.0));
    }

    #[test]
    fn empty_input() {
        assert!(max_min_rates(&[], &[1.0], 1.0).is_empty());
    }

    #[test]
    fn set_capacity_rescales_only_the_affected_component() {
        // Two links, two isolated flows. Degrading link 0 must re-rate
        // its flow and leave the other component untouched, both
        // incrementally and under the full-recompute oracle.
        for full in [false, true] {
            let mut state = FairShareState::new(vec![10.0, 6.0], 100.0).with_full_recompute(full);
            let f0 = state.insert_flow(&[0]);
            let f1 = state.insert_flow(&[1]);
            assert!(close(state.rate(f0), 10.0));
            assert!(close(state.rate(f1), 6.0));
            state.set_capacity(0, 2.5);
            assert!(close(state.rate(f0), 2.5), "full={full}");
            assert!(close(state.rate(f1), 6.0), "full={full}");
            // Repair restores the original allocation.
            state.set_capacity(0, 10.0);
            assert!(close(state.rate(f0), 10.0), "full={full}");
        }
    }

    #[test]
    fn set_capacity_on_an_empty_link_is_pure_bookkeeping() {
        let mut state = FairShareState::new(vec![10.0, 6.0], 100.0);
        let f0 = state.insert_flow(&[0]);
        let solves_before = state.solves();
        state.set_capacity(1, 1.0);
        assert_eq!(state.solves(), solves_before, "no flows, no re-solve");
        // The new capacity still takes effect for later arrivals.
        let f1 = state.insert_flow(&[1]);
        assert!(close(state.rate(f1), 1.0));
        assert!(close(state.rate(f0), 10.0));
    }

    #[test]
    fn flow_crossing_a_link_twice_charged_twice() {
        // A degenerate path listing link 0 twice consumes double capacity
        // but must not be frozen twice (regression caught by proptest).
        let rates = max_min_rates(&[vec![0, 0], vec![0]], &[9.0], 100.0);
        // Bottleneck share: 9 / 3 slots = 3; flow 0 holds two slots.
        assert!(close(rates[0], 3.0), "{rates:?}");
        assert!(close(rates[1], 3.0) || rates[1] > 3.0, "{rates:?}");
        let used = 2.0 * rates[0] + rates[1];
        assert!(used <= 9.0 + 1e-9, "over capacity: {used}");
    }

    #[test]
    fn allocation_respects_capacities() {
        // Random-ish mesh: verify sum of rates on every link <= capacity.
        let flows = vec![
            vec![0, 2],
            vec![0, 3],
            vec![1, 2],
            vec![1, 3],
            vec![0],
            vec![3],
        ];
        let caps = [10.0, 7.0, 4.0, 6.0];
        let rates = max_min_rates(&flows, &caps, 100.0);
        let mut used = [0.0f64; 4];
        for (i, links) in flows.iter().enumerate() {
            assert!(rates[i] > 0.0, "flow {i} starved");
            for &l in links {
                used[l as usize] += rates[i];
            }
        }
        for (l, &u) in used.iter().enumerate() {
            assert!(u <= caps[l] + 1e-9, "link {l} over capacity: {u}");
        }
    }

    /// Drives a state and a from-scratch shadow in lockstep, asserting
    /// bitwise-equal rates after every mutation.
    fn assert_state_tracks_full(caps: &[f64], script: &[(bool, Vec<u32>)]) {
        let mut state = FairShareState::new(caps.to_vec(), 1e10);
        let mut alive: Vec<(FairFlowId, Vec<u32>)> = Vec::new();
        for (step, (remove, links)) in script.iter().enumerate() {
            if *remove && !alive.is_empty() {
                let (id, _) =
                    alive.remove(links.first().copied().unwrap_or(0) as usize % alive.len());
                state.remove_flow(id);
            } else {
                let id = state.insert_flow(links);
                alive.push((id, links.clone()));
            }
            let shadow: Vec<Vec<u32>> = alive.iter().map(|(_, l)| l.clone()).collect();
            let expect = max_min_rates(&shadow, caps, 1e10);
            for ((id, _), want) in alive.iter().zip(&expect) {
                let got = state.rate(*id);
                assert!(
                    got == *want,
                    "step {step}: flow {id:?} rate {got} != full recompute {want}"
                );
            }
        }
    }

    #[test]
    fn state_matches_full_on_mixed_script() {
        let caps = [10.0, 7.0, 4.0, 6.0, 9.0, 2.0];
        let script = vec![
            (false, vec![0, 2]),
            (false, vec![0, 3]),
            (false, vec![]), // local flow
            (false, vec![1, 4]),
            (false, vec![5, 5]),    // crosses link 5 twice
            (false, vec![1, 2, 3]), // merges two components
            (true, vec![1]),
            (false, vec![4]),
            (true, vec![0]),
            (true, vec![2]),
            (false, vec![0, 1, 2, 3, 4, 5]),
            (true, vec![0]),
            (true, vec![0]),
            (true, vec![0]),
        ];
        assert_state_tracks_full(&caps, &script);
    }

    #[test]
    fn state_matches_full_under_forced_full_recompute() {
        // Two disjoint components: under the oracle every mutation is one
        // solve that re-rates every active entry, not just the dirty one.
        let caps = [8.0, 3.0, 5.0];
        let mut state = FairShareState::new(caps.to_vec(), 50.0).with_full_recompute(true);
        let mut ids = Vec::new();
        for links in [vec![0], vec![0, 1], vec![2]] {
            let (solves, solved) = (state.solves(), state.solved_flows());
            ids.push(state.insert_flow(&links));
            assert_eq!(state.solves() - solves, 1);
            assert_eq!(state.solved_flows() - solved, ids.len() as u64);
        }
        let full = max_min_rates(&[vec![0], vec![0, 1], vec![2]], &caps, 50.0);
        let rates: Vec<f64> = ids.iter().map(|&id| state.rate(id)).collect();
        assert_eq!(rates, full);
        let solved = state.solved_flows();
        state.remove_flow(ids[0]);
        assert_eq!(state.solved_flows() - solved, 2, "both survivors re-rated");
    }

    #[test]
    fn state_reuses_slots_and_tracks_active() {
        let mut state = FairShareState::new(vec![5.0], 1.0);
        let a = state.insert_flow(&[0]);
        assert_eq!(state.active_flows(), 1);
        state.remove_flow(a);
        assert_eq!(state.active_flows(), 0);
        let b = state.insert_flow(&[0]);
        assert_eq!(b, a, "freed slot is recycled");
        assert_eq!(state.rates(), vec![(b, 5.0)]);
    }

    #[test]
    #[should_panic(expected = "stale handle")]
    fn state_rejects_stale_handles() {
        let mut state = FairShareState::new(vec![5.0], 1.0);
        let a = state.insert_flow(&[0]);
        state.remove_flow(a);
        state.remove_flow(a);
    }

    #[test]
    fn local_flows_are_singleton_components() {
        let mut state = FairShareState::new(vec![4.0], 77.0);
        let a = state.insert_flow(&[]);
        let b = state.insert_flow(&[0]);
        assert_eq!(state.rate(a), 77.0);
        assert_eq!(state.rate(b), 4.0);
        let solves = state.solves();
        state.remove_flow(a); // no links: nothing to re-solve
        assert_eq!(state.solves(), solves);
        assert_eq!(state.rate(b), 4.0);
    }

    #[test]
    fn disjoint_components_do_not_resolve_each_other() {
        // Two independent links: mutating one side must not re-solve the
        // other (solved_flows counts rate writes).
        let mut state = FairShareState::new(vec![10.0, 10.0], 1e10);
        let _left = state.insert_flow(&[0]);
        let before = state.solved_flows();
        let right = state.insert_flow(&[1]);
        assert_eq!(
            state.solved_flows() - before,
            1,
            "inserting into an empty link touches one flow"
        );
        state.remove_flow(right);
        assert_eq!(
            state.solved_flows() - before,
            1,
            "removal left no neighbours"
        );
    }

    #[test]
    fn only_the_dirty_component_is_solved_however_large() {
        // The dirty component is 71 of 81 linked entries after the insert,
        // yet the untouched component on link 1 is not re-solved.
        let mut state = FairShareState::new(vec![10.0, 10.0], 1e10);
        for _ in 0..70 {
            state.insert_flow(&[0]);
        }
        for _ in 0..10 {
            state.insert_flow(&[1]);
        }
        let before = state.solved_flows();
        let id = state.insert_flow(&[0]);
        assert_eq!(state.solved_flows() - before, 71);
        assert_eq!(state.rate(id), 10.0 / 71.0);
    }

    #[test]
    fn is_max_min_fair_no_flow_can_grow() {
        // A flow could only grow by taking from an equal-or-smaller flow
        // on some saturated link. Verify each flow has a saturated link
        // where it is among the largest.
        let flows = vec![vec![0, 1], vec![1], vec![0], vec![1, 2]];
        let caps = [6.0, 9.0, 2.0];
        let rates = max_min_rates(&flows, &caps, 100.0);
        let mut used = [0.0f64; 3];
        for (i, links) in flows.iter().enumerate() {
            for &l in links {
                used[l as usize] += rates[i];
            }
        }
        for (i, links) in flows.iter().enumerate() {
            let has_tight_link = links.iter().any(|&l| {
                let saturated = used[l as usize] >= caps[l as usize] - 1e-9;
                let is_max = flows
                    .iter()
                    .enumerate()
                    .filter(|(_, ls)| ls.contains(&l))
                    .all(|(j, _)| rates[j] <= rates[i] + 1e-9);
                saturated && is_max
            });
            assert!(has_tight_link, "flow {i} could grow: {rates:?}");
        }
    }

    /// Builds one state from weighted bundles and one from the same
    /// members inserted individually, asserting bitwise-equal per-member
    /// rates for every bundle.
    fn assert_weighted_matches_singletons(caps: &[f64], bundles: &[(Vec<u32>, u32)]) {
        for full in [false, true] {
            let mut grouped = FairShareState::new(caps.to_vec(), 1e10).with_full_recompute(full);
            let mut single = FairShareState::new(caps.to_vec(), 1e10).with_full_recompute(full);
            let mut gids = Vec::new();
            let mut sids = Vec::new();
            for (links, w) in bundles {
                gids.push(grouped.insert_weighted(links, *w));
                sids.push(
                    (0..*w)
                        .map(|_| single.insert_flow(links))
                        .collect::<Vec<_>>(),
                );
            }
            for (bi, (gid, members)) in gids.iter().zip(&sids).enumerate() {
                let want = single.rate(members[0]);
                for &m in members {
                    assert!(
                        single.rate(m) == want,
                        "bundle {bi} members diverge (full={full})"
                    );
                }
                assert!(
                    grouped.rate(*gid) == want,
                    "bundle {bi}: grouped {} != singleton {} (full={full})",
                    grouped.rate(*gid),
                    want
                );
            }
        }
    }

    #[test]
    fn weighted_entries_match_singleton_members() {
        assert_weighted_matches_singletons(
            &[10.0, 7.0, 4.0, 6.0],
            &[
                (vec![0, 2], 3),
                (vec![0, 3], 1),
                (vec![1, 2], 5),
                (vec![3], 2),
                (vec![0, 0], 2), // crosses link 0 twice
                (vec![], 4),     // local bundle
            ],
        );
    }

    #[test]
    fn weight_mutation_matches_member_churn() {
        // add_weight / sub_weight track individual insert/remove exactly.
        let caps = [9.0, 5.0];
        let mut grouped = FairShareState::new(caps.to_vec(), 1e10);
        let mut single = FairShareState::new(caps.to_vec(), 1e10);
        let b = grouped.insert_weighted(&[0, 1], 2);
        let mut members = vec![single.insert_flow(&[0, 1]), single.insert_flow(&[0, 1])];
        let lone_g = grouped.insert_flow(&[0]);
        let lone_s = single.insert_flow(&[0]);
        assert_eq!(grouped.rate(b), single.rate(members[0]));
        assert_eq!(grouped.rate(lone_g), single.rate(lone_s));

        grouped.add_weight(b, 3);
        for _ in 0..3 {
            members.push(single.insert_flow(&[0, 1]));
        }
        assert_eq!(grouped.weight(b), 5);
        assert_eq!(grouped.active_flows(), 6);
        assert_eq!(grouped.rate(b), single.rate(members[0]));
        assert_eq!(grouped.rate(lone_g), single.rate(lone_s));

        grouped.sub_weight(b, 4);
        for m in members.drain(1..) {
            single.remove_flow(m);
        }
        assert_eq!(grouped.rate(b), single.rate(members[0]));
        assert_eq!(grouped.rate(lone_g), single.rate(lone_s));

        // The last member retires the entry.
        grouped.remove_flow(b);
        single.remove_flow(members[0]);
        assert_eq!(grouped.rate(lone_g), single.rate(lone_s));
        assert_eq!(grouped.active_flows(), 1);
    }

    #[test]
    #[should_panic(expected = "must leave at least one")]
    fn sub_weight_rejects_emptying_the_entry() {
        let mut state = FairShareState::new(vec![5.0], 1.0);
        let b = state.insert_weighted(&[0], 2);
        state.sub_weight(b, 2);
    }

    /// Member-expanded `max_min_rates` over weighted entries: the
    /// per-member rate of each entry.
    fn expanded_rates(caps: &[f64], entries: &[(Vec<u32>, u32)]) -> Vec<f64> {
        let members: Vec<Vec<u32>> = entries
            .iter()
            .flat_map(|(links, w)| (0..*w).map(move |_| links.clone()))
            .collect();
        let rates = max_min_rates(&members, caps, 1e10);
        let mut first = 0;
        entries
            .iter()
            .map(|(_, w)| {
                let r = rates[first];
                first += *w as usize;
                r
            })
            .collect()
    }

    #[test]
    fn multi_component_solves_match_full_recompute() {
        // Two-link bridges join the links into one ring as they arrive
        // and split it into many components as they leave, so both
        // directions pass through multi-component solves. Incremental and
        // full recompute must both match the from-scratch solve, bit for
        // bit, after every step.
        let n_links = 40usize;
        let caps: Vec<f64> = (0..n_links).map(|l| 1e9 + l as f64 * 3.7e7).collect();
        for full in [false, true] {
            let mut state = FairShareState::new(caps.clone(), 1e10).with_full_recompute(full);
            let mut live: Vec<(FairFlowId, (Vec<u32>, u32))> = Vec::new();
            let check = |state: &FairShareState, live: &[(FairFlowId, (Vec<u32>, u32))]| {
                let entries: Vec<_> = live.iter().map(|(_, e)| e.clone()).collect();
                let got: Vec<f64> = live.iter().map(|&(id, _)| state.rate(id)).collect();
                assert!(
                    got == expanded_rates(&caps, &entries),
                    "full recompute {full}: solve diverged with {} entries",
                    live.len()
                );
            };
            for i in 0..128u32 {
                let l = (i as usize * 7) % n_links;
                let links = if i % 3 == 0 {
                    vec![l as u32, ((l + 1) % n_links) as u32]
                } else {
                    vec![l as u32]
                };
                let w = 1 + i % 4;
                live.push((state.insert_weighted(&links, w), (links, w)));
                check(&state, &live);
            }
            let bridges: Vec<FairFlowId> = live.iter().step_by(3).map(|&(id, _)| id).collect();
            for bridge in bridges {
                state.remove_flow(bridge);
                live.retain(|&(id, _)| id != bridge);
                check(&state, &live);
            }
        }

        // Forty copies of one component: links of capacity 10 and 4, an
        // entry crossing both, one on the first and three on the second.
        // The crossing entry freezes at the capacity-4 link's share (1.0)
        // and must keep it when the capacity-10 link freezes the rest at
        // 9.0; re-stamping it at 9.0 would load the small link with 12.
        let mut caps = Vec::new();
        let mut entries = Vec::new();
        for c in 0..40u32 {
            caps.extend([10.0, 4.0]);
            let (a, b) = (2 * c, 2 * c + 1);
            entries.extend([vec![a, b], vec![a], vec![b], vec![b], vec![b]].map(|l| (l, 1)));
        }
        let want = expanded_rates(&caps, &entries);
        assert_eq!((want[0], want[1]), (1.0, 9.0));
        for full in [false, true] {
            let mut state = FairShareState::new(caps.clone(), 1e10).with_full_recompute(full);
            let ids: Vec<FairFlowId> = entries.iter().map(|(l, _)| state.insert_flow(l)).collect();
            let got: Vec<f64> = ids.iter().map(|&id| state.rate(id)).collect();
            assert!(got == want, "full recompute {full}: {:?}", &got[..5]);
        }
    }
}
