//! Fluid-flow network model with max-min fair bandwidth sharing.
//!
//! Each video transfer is a *flow*: a fixed volume of data moving along a
//! route of links. At any instant every link's residual capacity (capacity
//! minus background traffic) is shared **max-min fairly** among the flows
//! crossing it — the classic progressive-filling allocation. Between
//! events the allocation is constant, so flow completion times can be
//! predicted exactly, which is what makes the discrete-event simulation
//! both fast and deterministic.
//!
//! Flows with an *empty* route model a client served from its home
//! server's disks; they progress at a configurable local rate instead of
//! competing for network bandwidth.
//!
//! # Kernels
//!
//! Two interchangeable accounting kernels implement the same model (see
//! [`FlowKernel`]):
//!
//! * **Lazy** (the default): each flow stores its remaining volume as of
//!   its own last rate change (a per-flow sync epoch) and completions are
//!   predicted into a bounded min-heap with lazy invalidation. Advancing
//!   time touches only the flows that actually finish in the window, so a
//!   simulation event costs `O(touched flows + log F)` instead of `O(F)`.
//!   Progressive filling runs over *route classes* (flows sharing one
//!   link sequence share one max-min rate), not over individual flows.
//! * **Reference**: the naive lockstep kernel — every advance rescans and
//!   decrements every flow, and filling walks every network flow. Retained
//!   as the differential-testing oracle and as the "before" baseline for
//!   kernel benchmarks.
//!
//! The lazy kernel keeps its flows in a slot-reusing slab, so memory
//! follows the live flow count, not the number of flows ever created.
//! The reference kernel keeps the original `BTreeMap` keyed by id, so it
//! is an independent oracle for the slab as well as for the filling.
//! Both mint ids the same way, so the same calls yield the same ids.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use vod_net::{LinkId, Mbps, Topology, TrafficSnapshot};

use crate::time::SimDuration;

/// Volume below which a flow counts as complete (megabits). Guards against
/// floating-point dust after many `advance` calls.
pub const COMPLETION_EPSILON_MBIT: f64 = 1e-9;

/// Scheduling slack a service should add to a predicted completion
/// instant.
///
/// [`FlowNetwork::next_completion`] rounds the continuous finish time *up*
/// to the clock's microsecond resolution; scheduling the completion check
/// this one extra microsecond later guarantees the check fires at or
/// after the true finish instant for every representable rate, so the
/// flow is observed complete (remaining ≤ [`COMPLETION_EPSILON_MBIT`])
/// exactly once — no double-fire, no miss. See the
/// `completion_rounding_contract` regression test.
pub const COMPLETION_CHECK_SLACK: SimDuration = SimDuration::from_micros(1);

/// Margin (seconds) when popping predicted completions off the heap:
/// entries within this distance of "now" are candidates. The heap is only
/// a *filter* — the definitive completion test is the remaining volume —
/// so the margin merely absorbs f64 rounding between a stored absolute
/// finish time and the integer-microsecond clock.
const POP_SLACK_SECS: f64 = 1e-9;

/// Low bits of a [`FlowId`] that hold the flow's slab slot; the high
/// bits hold its creation sequence number.
const SLOT_BITS: u32 = 24;

/// Mask selecting the slot bits of a [`FlowId`].
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// Most flows a network holds at once (one per slab slot).
pub const MAX_LIVE_FLOWS: usize = 1 << SLOT_BITS;

/// Route-class index of a local (empty-route) lazy flow.
const LOCAL: u32 = u32::MAX;

/// Heap entries allowed per live flow before the completion heap is
/// compacted (see [`FlowNetwork::stats`]).
const HEAP_SLACK_FACTOR: usize = 2;

/// Heap entries allowed on top of the per-flow allowance.
const HEAP_SLACK_FLOOR: usize = 64;

/// Identifier of a flow within a [`FlowNetwork`].
///
/// Ids order by creation: the creation sequence number sits in the high
/// bits and the slab slot in the low bits. A slot is reused once its
/// flow is gone, but the sequence number never repeats, so a stale id
/// never aliases the slot's new occupant.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
#[serde(transparent)]
pub struct FlowId(u64);

impl FlowId {
    fn new(seq: u64, slot: usize) -> Self {
        FlowId((seq << SLOT_BITS) | slot as u64)
    }

    /// Slab slot the flow occupies while it is live.
    fn slot(self) -> usize {
        (self.0 & SLOT_MASK) as usize
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0 >> SLOT_BITS)
    }
}

/// Errors produced by the flow network.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlowError {
    /// The flow id is unknown (never existed or already completed/removed).
    UnknownFlow(FlowId),
    /// A route referenced a link that is not in the topology.
    UnknownLink(LinkId),
    /// The requested volume was not a positive finite number.
    InvalidVolume(f64),
    /// The network already holds [`MAX_LIVE_FLOWS`] flows.
    TooManyFlows,
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::UnknownFlow(id) => write!(f, "unknown flow {id}"),
            FlowError::UnknownLink(id) => write!(f, "unknown link {id}"),
            FlowError::InvalidVolume(v) => write!(f, "invalid flow volume {v} Mbit"),
            FlowError::TooManyFlows => write!(f, "more than {MAX_LIVE_FLOWS} live flows"),
        }
    }
}

impl Error for FlowError {}

/// Which flow-accounting kernel a [`FlowNetwork`] runs.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlowKernel {
    /// Lazy anchored accounting with an epoch-invalidated completion
    /// heap: `O(touched flows + log F)` per event.
    #[default]
    Lazy,
    /// The naive lockstep kernel (`O(F)` per event), kept as the
    /// differential-testing oracle and benchmark baseline.
    Reference,
}

/// Counters describing the flow kernel's work so far; see
/// [`FlowNetwork::stats`]. The heap and re-rate counters only move
/// under [`FlowKernel::Lazy`].
#[derive(Debug, Copy, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowStats {
    /// Max-min reallocations run.
    pub reallocations: u64,
    /// Progressive-filling rounds across all reallocations (each round
    /// saturates at least one link).
    pub filling_rounds: u64,
    /// Route classes (distinct link sequences) with at least one live
    /// flow right now.
    pub route_classes: u64,
    /// Rate transitions applied to individual flows.
    pub flows_rerated: u64,
    /// Completion predictions pushed onto the heap.
    pub heap_pushes: u64,
    /// Times the heap was rebuilt without its stale entries.
    pub heap_compactions: u64,
    /// Completion-heap entries right now, stale ones included.
    pub heap_len: u64,
    /// Largest completion-heap length seen.
    pub peak_heap_len: u64,
    /// Largest number of flows live at once.
    pub peak_live_flows: u64,
}

#[derive(Debug, Clone)]
struct Flow {
    id: FlowId,
    /// Route-class index, or [`LOCAL`] for an empty route.
    class: u32,
    /// Position of the flow in its class's member list.
    member_pos: u32,
    /// Remaining volume as of `synced_at` — **not** necessarily "now".
    /// Use [`Flow::remaining_at`] for the current value.
    remaining_mbit: f64,
    /// Clock reading (µs) at which `remaining_mbit` was last materialized
    /// (creation or the flow's most recent rate change).
    synced_at: u64,
    rate: Mbps,
    /// Bumped on every rate change; completion-heap entries carrying an
    /// older epoch are stale and skipped when popped.
    epoch: u64,
    /// For local (empty-route) flows: a per-flow rate replacing the
    /// network-wide default (e.g. derived from a disk model).
    local_rate_override: Option<Mbps>,
}

impl Flow {
    /// Remaining volume at clock reading `clock_us`, extrapolated from
    /// the flow's own sync point at its current (constant) rate.
    fn remaining_at(&self, clock_us: u64) -> f64 {
        let elapsed = clock_us.saturating_sub(self.synced_at) as f64 / 1e6;
        self.remaining_mbit - self.rate.as_f64() * elapsed
    }

    fn is_local(&self) -> bool {
        self.class == LOCAL
    }
}

/// A flow of the reference kernel. Its lockstep advance re-materializes
/// every flow on every call, so `remaining_mbit` is always current.
#[derive(Debug, Clone)]
struct RefFlow {
    links: Vec<LinkId>,
    remaining_mbit: f64,
    rate: Mbps,
    local_rate_override: Option<Mbps>,
}

/// The live flows sharing one link sequence. Max-min filling gives every
/// member the same rate, so the lazy kernel fills per class, with each
/// link's count weighted by the member count.
#[derive(Debug, Clone, Default)]
struct RouteClass {
    /// The shared route; empty while the class slot is free.
    links: Vec<LinkId>,
    /// Live members, in no particular order.
    members: Vec<FlowId>,
    /// The rate every member holds (lazy kernel).
    rate: Mbps,
    /// Filling scratch: the level the class froze at in the current
    /// reallocation.
    fill: Mbps,
}

/// A predicted completion: absolute finish time in seconds since the
/// network's creation, plus the flow identity *at prediction time*. An
/// entry whose `epoch` no longer matches the flow's is stale.
#[derive(Copy, Clone, Debug)]
struct HeapEntry {
    finish_secs: f64,
    id: FlowId,
    epoch: u64,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.finish_secs
            .total_cmp(&other.finish_secs)
            .then_with(|| self.id.cmp(&other.id))
            .then_with(|| self.epoch.cmp(&other.epoch))
    }
}

/// A set of concurrent flows over a topology, with max-min fair rates.
///
/// # Examples
///
/// Two flows share a 2 Mbps link fairly:
///
/// ```
/// use vod_net::{Mbps, TopologyBuilder};
/// use vod_sim::flow::FlowNetwork;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = TopologyBuilder::new();
/// let a = b.add_node("a");
/// let c = b.add_node("b");
/// let l = b.add_link(a, c, Mbps::new(2.0))?;
/// let mut net = FlowNetwork::new(b.build());
///
/// let f1 = net.add_flow(vec![l], 10.0)?; // 10 Mbit
/// let f2 = net.add_flow(vec![l], 10.0)?;
/// assert_eq!(net.rate(f1)?, Mbps::new(1.0));
/// assert_eq!(net.rate(f2)?, Mbps::new(1.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    topology: Topology,
    background: Vec<Mbps>,
    /// Vacant id slots, reused last-freed first (both kernels).
    free_slots: Vec<u32>,
    /// Id slots ever handed out (both kernels).
    slot_count: usize,
    /// Creation sequence number of the next flow (both kernels).
    next_seq: u64,
    /// Slab of live lazy flows, indexed by [`FlowId::slot`].
    slots: Vec<Option<Flow>>,
    /// Occupied slab slots.
    live: usize,
    /// Route classes, indexed by `Flow::class`; empty ones are free.
    classes: Vec<RouteClass>,
    free_classes: Vec<u32>,
    /// Class of every live route.
    class_index: BTreeMap<Vec<LinkId>, u32>,
    local_rate: Mbps,
    /// Allocated flow rate per link, maintained by `reallocate`.
    link_loads: Vec<f64>,
    /// Administratively-down links (fault injection): zero residual
    /// capacity, so crossing flows freeze at rate zero until re-routed.
    admin_down: Vec<bool>,
    /// Deliverable-capacity fraction per link (soft degradation); `1.0`
    /// is a healthy link.
    capacity_scale: Vec<f64>,
    /// Which accounting kernel this network runs.
    kernel: FlowKernel,
    /// Internal clock: microseconds advanced since creation.
    clock_us: u64,
    /// Predicted completions, min-ordered by finish time, with lazy
    /// epoch invalidation (Lazy kernel only). Compacted once it holds
    /// more than `2 × live + 64` entries.
    completions: BinaryHeap<Reverse<HeapEntry>>,
    /// Flows with a non-empty route and their classes, ascending by id
    /// (= creation order). Local flows never contend for links, so
    /// allocation only ever walks this subset.
    network_flows: Vec<(FlowId, u32)>,
    /// Running integral of each link's *total* load (background + flows)
    /// in megabits — the SNMP byte-counter source, maintained
    /// incrementally in `advance` over the active links only.
    link_cumulative_mbit: Vec<f64>,
    /// Links whose total load is currently non-zero (the only ones whose
    /// integral can grow); refreshed whenever the allocation changes.
    active_links: Vec<u32>,
    /// Reusable buffer for heap verify-and-requeue passes.
    requeue_scratch: Vec<HeapEntry>,
    /// Reusable per-link residual-capacity buffer for the allocation
    /// kernels — without it every `reallocate` would allocate (and
    /// drop) a fresh `Vec<f64>`, the same churn `requeue_scratch`
    /// eliminates on the heap side.
    residual_scratch: Vec<f64>,
    /// Reusable per-link unfrozen-flow counts (lazy filling).
    count_scratch: Vec<usize>,
    /// Reusable list of the classes still unfrozen (lazy filling).
    open_scratch: Vec<u32>,
    /// The reference kernel's flows.
    reference_flows: BTreeMap<FlowId, RefFlow>,
    /// Ids of the reference kernel's network flows, ascending.
    reference_network: Vec<FlowId>,
    stats: FlowStats,
}

impl FlowNetwork {
    /// Creates a flow network over `topology` with zero background
    /// traffic and a 100 Mbps local-serve rate, running the default
    /// [`FlowKernel::Lazy`] kernel.
    pub fn new(topology: Topology) -> Self {
        Self::with_kernel(topology, FlowKernel::Lazy)
    }

    /// Creates a flow network running the given accounting kernel.
    pub fn with_kernel(topology: Topology, kernel: FlowKernel) -> Self {
        let links = topology.link_count();
        FlowNetwork {
            topology,
            background: vec![Mbps::ZERO; links],
            free_slots: Vec::new(),
            slot_count: 0,
            next_seq: 0,
            slots: Vec::new(),
            live: 0,
            classes: Vec::new(),
            free_classes: Vec::new(),
            class_index: BTreeMap::new(),
            local_rate: Mbps::new(100.0),
            link_loads: vec![0.0; links],
            admin_down: vec![false; links],
            capacity_scale: vec![1.0; links],
            kernel,
            clock_us: 0,
            completions: BinaryHeap::new(),
            network_flows: Vec::new(),
            link_cumulative_mbit: vec![0.0; links],
            active_links: Vec::new(),
            requeue_scratch: Vec::new(),
            residual_scratch: Vec::new(),
            count_scratch: Vec::new(),
            open_scratch: Vec::new(),
            reference_flows: BTreeMap::new(),
            reference_network: Vec::new(),
            stats: FlowStats::default(),
        }
    }

    /// The accounting kernel this network runs.
    pub fn kernel(&self) -> FlowKernel {
        self.kernel
    }

    /// The topology this network runs over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The kernel's work counters so far.
    ///
    /// Under [`FlowKernel::Lazy`] the completion heap never holds more
    /// than `2 × live flows + 64` entries, so
    /// `peak_heap_len ≤ 2 × peak_live_flows + 64`.
    pub fn stats(&self) -> FlowStats {
        FlowStats {
            route_classes: self.class_index.len() as u64,
            heap_len: self.completions.len() as u64,
            ..self.stats
        }
    }

    /// Sets the rate at which local (empty-route) flows progress.
    pub fn set_local_rate(&mut self, rate: Mbps) {
        self.local_rate = rate;
        match self.kernel {
            FlowKernel::Reference => self.reallocate(),
            FlowKernel::Lazy => {
                // Only local flows without a per-flow override change
                // rate; network flows and link loads are untouched.
                for slot in 0..self.slots.len() {
                    let follows_default = matches!(
                        &self.slots[slot],
                        Some(f) if f.is_local() && f.local_rate_override.is_none()
                    );
                    if follows_default {
                        self.apply_rate(slot, rate);
                    }
                }
            }
        }
    }

    /// Sets the background (non-VoD) traffic occupying `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn set_background(&mut self, link: LinkId, load: Mbps) {
        self.background[link.index()] = load;
        self.reallocate();
    }

    /// The background traffic on `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn background(&self, link: LinkId) -> Mbps {
        self.background[link.index()]
    }

    /// Sets the administrative state of `link`. A down link has zero
    /// residual capacity: flows crossing it freeze at rate zero until
    /// the caller re-routes them or the link comes back up.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn set_link_admin_down(&mut self, link: LinkId, down: bool) {
        if self.admin_down[link.index()] != down {
            self.admin_down[link.index()] = down;
            self.reallocate();
        }
    }

    /// Whether `link` is administratively down.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn link_admin_down(&self, link: LinkId) -> bool {
        self.admin_down[link.index()]
    }

    /// Scales the deliverable capacity of `link` to `scale` × nominal
    /// (soft degradation, `0.0 ≤ scale ≤ 1.0`); `1.0` restores full
    /// health.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range or `scale` is not in `[0, 1]`.
    pub fn set_link_capacity_scale(&mut self, link: LinkId, scale: f64) {
        assert!(
            scale.is_finite() && (0.0..=1.0).contains(&scale),
            "capacity scale must be in [0, 1]"
        );
        self.capacity_scale[link.index()] = scale;
        self.reallocate();
    }

    /// The current deliverable-capacity fraction of `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn link_capacity_scale(&self, link: LinkId) -> f64 {
        self.capacity_scale[link.index()]
    }

    /// Ids of the flows whose route crosses `link`, in creation order —
    /// the set a service must re-route when the link goes down. The lazy
    /// kernel visits only the members of route classes containing
    /// `link` (local flows cross nothing), and no rates are recomputed.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn flows_crossing(&self, link: LinkId) -> impl Iterator<Item = FlowId> + '_ {
        assert!(link.index() < self.topology.link_count(), "unknown link");
        let mut ids: Vec<FlowId> = match self.kernel {
            FlowKernel::Reference => self
                .reference_network
                .iter()
                .copied()
                .filter(|id| {
                    self.reference_flows
                        .get(id)
                        .is_some_and(|f| f.links.contains(&link))
                })
                .collect(),
            FlowKernel::Lazy => self
                .classes
                .iter()
                .filter(|c| c.links.contains(&link))
                .flat_map(|c| c.members.iter().copied())
                .collect(),
        };
        ids.sort_unstable();
        ids.into_iter()
    }

    /// Starts a flow of `volume_mbit` megabits along `route_links` and
    /// returns its id. An empty route is a local serve.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownLink`] for a foreign link id,
    /// [`FlowError::InvalidVolume`] for a non-positive or non-finite
    /// volume, or [`FlowError::TooManyFlows`] when the network is full.
    pub fn add_flow(
        &mut self,
        route_links: Vec<LinkId>,
        volume_mbit: f64,
    ) -> Result<FlowId, FlowError> {
        if !volume_mbit.is_finite() || volume_mbit <= 0.0 {
            return Err(FlowError::InvalidVolume(volume_mbit));
        }
        for &l in &route_links {
            if l.index() >= self.topology.link_count() {
                return Err(FlowError::UnknownLink(l));
            }
        }
        let network = !route_links.is_empty();
        let id = self.mint_id()?;
        let slot = id.slot();
        match self.kernel {
            FlowKernel::Reference => {
                self.insert_reference(id, route_links, volume_mbit, None);
                self.reallocate();
            }
            FlowKernel::Lazy => {
                self.insert_flow(id, route_links, volume_mbit, None);
                // A newborn holds rate zero: its class's rate reaches it
                // here whether or not the reallocation moved that rate.
                let rate = if network {
                    self.reallocate();
                    self.class_rate_of(slot)
                } else {
                    self.local_rate
                };
                self.apply_rate(slot, rate);
                if rate == Mbps::ZERO {
                    // Zero-rate birth (oversubscribed route, or a zero
                    // local rate): a float-dust volume must still get
                    // collected on the next advance.
                    self.push_entry_for(slot);
                }
            }
        }
        Ok(id)
    }

    /// Starts a *local* flow (empty route) progressing at its own fixed
    /// rate instead of the network-wide local default — e.g. the striped
    /// disk throughput of the title being served.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidVolume`] for a non-positive or
    /// non-finite volume, or [`FlowError::TooManyFlows`] when the
    /// network is full.
    pub fn add_local_flow(&mut self, volume_mbit: f64, rate: Mbps) -> Result<FlowId, FlowError> {
        if !volume_mbit.is_finite() || volume_mbit <= 0.0 {
            return Err(FlowError::InvalidVolume(volume_mbit));
        }
        let id = self.mint_id()?;
        match self.kernel {
            FlowKernel::Reference => {
                self.insert_reference(id, Vec::new(), volume_mbit, Some(rate));
                self.reallocate();
            }
            FlowKernel::Lazy => {
                self.insert_flow(id, Vec::new(), volume_mbit, Some(rate));
                self.apply_rate(id.slot(), rate);
                if rate == Mbps::ZERO {
                    self.push_entry_for(id.slot());
                }
            }
        }
        Ok(id)
    }

    /// Removes a flow (e.g. a cancelled download). Returns the unfinished
    /// volume in megabits.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownFlow`] if the flow does not exist.
    pub fn remove_flow(&mut self, id: FlowId) -> Result<f64, FlowError> {
        match self.kernel {
            FlowKernel::Reference => {
                let flow = self.take_reference(id).ok_or(FlowError::UnknownFlow(id))?;
                self.reallocate();
                Ok(flow.remaining_mbit)
            }
            FlowKernel::Lazy => {
                let clock = self.clock_us;
                let flow = self.take_flow(id).ok_or(FlowError::UnknownFlow(id))?;
                // A local flow holds no link bandwidth: nothing to
                // redistribute.
                if !flow.is_local() {
                    self.reallocate();
                }
                Ok(flow.remaining_at(clock))
            }
        }
    }

    /// The current max-min fair rate of `id`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownFlow`] if the flow does not exist.
    pub fn rate(&self, id: FlowId) -> Result<Mbps, FlowError> {
        let rate = match self.kernel {
            FlowKernel::Reference => self.reference_flows.get(&id).map(|f| f.rate),
            FlowKernel::Lazy => self.flow(id).map(|f| f.rate),
        };
        rate.ok_or(FlowError::UnknownFlow(id))
    }

    /// Remaining volume of `id` in megabits, as of the network's current
    /// clock.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownFlow`] if the flow does not exist.
    pub fn remaining_mbit(&self, id: FlowId) -> Result<f64, FlowError> {
        let remaining = match self.kernel {
            FlowKernel::Reference => self.reference_flows.get(&id).map(|f| f.remaining_mbit),
            FlowKernel::Lazy => self.flow(id).map(|f| f.remaining_at(self.clock_us)),
        };
        remaining.ok_or(FlowError::UnknownFlow(id))
    }

    /// The route links of `id`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownFlow`] if the flow does not exist.
    pub fn flow_links(&self, id: FlowId) -> Result<&[LinkId], FlowError> {
        let links = match self.kernel {
            FlowKernel::Reference => self.reference_flows.get(&id).map(|f| f.links.as_slice()),
            FlowKernel::Lazy => self.flow(id).map(|f| self.route_of(f)),
        };
        links.ok_or(FlowError::UnknownFlow(id))
    }

    /// Number of active flows.
    pub fn flow_count(&self) -> usize {
        match self.kernel {
            FlowKernel::Reference => self.reference_flows.len(),
            FlowKernel::Lazy => self.live,
        }
    }

    /// Ids of all active flows, in creation order.
    pub fn flow_ids(&self) -> impl Iterator<Item = FlowId> + '_ {
        let mut ids: Vec<FlowId> = match self.kernel {
            FlowKernel::Reference => self.reference_flows.keys().copied().collect(),
            FlowKernel::Lazy => self.slots.iter().flatten().map(|f| f.id).collect(),
        };
        ids.sort_unstable();
        ids.into_iter()
    }

    /// Time until the next flow completes at current rates, with its id.
    ///
    /// The duration is rounded *up* to the clock's microsecond
    /// resolution, so `advance(next_completion_duration)` is guaranteed
    /// to complete (at least) the returned flow; schedule the follow-up
    /// check [`COMPLETION_CHECK_SLACK`] later to absorb the rounding.
    ///
    /// Returns `None` when there are no flows or none of them makes
    /// progress (all rates zero).
    ///
    /// Takes `&mut self` because the lazy kernel garbage-collects stale
    /// heap entries it encounters; the model state is unchanged.
    pub fn next_completion(&mut self) -> Option<(FlowId, SimDuration)> {
        match self.kernel {
            FlowKernel::Reference => self
                .reference_flows
                .iter()
                .filter(|(_, f)| f.rate.as_f64() > 0.0)
                .map(|(&id, f)| (id, f.remaining_mbit / f.rate.as_f64()))
                .min_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)))
                .map(|(id, secs)| (id, SimDuration::from_micros((secs * 1e6).ceil() as u64))),
            FlowKernel::Lazy => {
                let mut result = None;
                let mut dust = std::mem::take(&mut self.requeue_scratch);
                dust.clear();
                while let Some(&Reverse(top)) = self.completions.peek() {
                    match self.flow(top.id) {
                        Some(f) if f.epoch == top.epoch => {
                            if f.rate.as_f64() > 0.0 {
                                let secs = f.remaining_at(self.clock_us) / f.rate.as_f64();
                                let dt = SimDuration::from_micros((secs * 1e6).ceil() as u64);
                                result = Some((top.id, dt));
                                break;
                            }
                            // A zero-rate dust entry is collected by
                            // `advance` but makes no progress, so it does
                            // not drive the completion schedule (the
                            // reference scan filters rate > 0 the same
                            // way). Stash it aside and keep looking.
                            dust.push(top);
                            self.completions.pop();
                        }
                        // Stale: flow gone or re-rated since the entry was
                        // pushed. Drop it for good.
                        _ => {
                            self.completions.pop();
                        }
                    }
                }
                for e in dust.drain(..) {
                    self.completions.push(Reverse(e));
                }
                self.requeue_scratch = dust;
                result
            }
        }
    }

    /// Advances all flows by `dt` at their current rates and removes the
    /// ones that finish, returning their ids in deterministic (creation)
    /// order.
    ///
    /// Allocating convenience wrapper around [`FlowNetwork::advance_into`].
    pub fn advance(&mut self, dt: SimDuration) -> Vec<FlowId> {
        let mut done = Vec::new();
        self.advance_into(dt, &mut done);
        done
    }

    /// Advances all flows by `dt`, filling `done` (cleared first) with
    /// the ids of the flows that finished, in creation order. Callers
    /// driving the simulation loop reuse one buffer across events
    /// instead of allocating per call.
    pub fn advance_into(&mut self, dt: SimDuration, done: &mut Vec<FlowId>) {
        done.clear();
        // Integrate link volumes over the window *before* moving the
        // clock: the allocation is constant across it by construction.
        self.integrate(dt);
        self.clock_us += dt.as_micros();
        match self.kernel {
            FlowKernel::Reference => self.advance_reference(dt, done),
            FlowKernel::Lazy => self.advance_lazy(done),
        }
    }

    /// Lockstep advance: decrement every flow, collect the finished.
    fn advance_reference(&mut self, dt: SimDuration, done: &mut Vec<FlowId>) {
        let secs = dt.as_secs_f64();
        for (&id, flow) in self.reference_flows.iter_mut() {
            flow.remaining_mbit -= flow.rate.as_f64() * secs;
            if flow.remaining_mbit <= COMPLETION_EPSILON_MBIT {
                done.push(id);
            }
        }
        for &id in done.iter() {
            self.take_reference(id);
        }
        if !done.is_empty() {
            self.reallocate();
        }
    }

    /// Lazy advance: pop predicted completions due by now, verify each
    /// against its flow's extrapolated remaining volume, and only touch
    /// the flows that actually finish. Stale entries (epoch mismatch or
    /// flow gone) are discarded; early entries are requeued.
    fn advance_lazy(&mut self, done: &mut Vec<FlowId>) {
        let now_secs = self.clock_us as f64 / 1e6;
        let mut requeue = std::mem::take(&mut self.requeue_scratch);
        requeue.clear();
        while let Some(&Reverse(entry)) = self.completions.peek() {
            if entry.finish_secs > now_secs + POP_SLACK_SECS {
                break;
            }
            self.completions.pop();
            match self.flow(entry.id) {
                Some(f) if f.epoch == entry.epoch => {
                    if f.remaining_at(self.clock_us) <= COMPLETION_EPSILON_MBIT {
                        done.push(entry.id);
                    } else {
                        // Predicted a hair early (f64 rounding): keep the
                        // entry, the flow finishes on a later advance.
                        requeue.push(entry);
                    }
                }
                _ => {} // stale
            }
        }
        for e in requeue.drain(..) {
            self.completions.push(Reverse(e));
        }
        self.requeue_scratch = requeue;
        done.sort_unstable();
        done.dedup();
        let mut network_done = false;
        for &id in done.iter() {
            network_done |= self.take_flow(id).is_some_and(|f| !f.is_local());
        }
        // Only a network completion releases link bandwidth; local
        // completions never perturb the allocation.
        if network_done {
            self.reallocate();
        }
    }

    /// Total VoD flow traffic currently allocated on `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn link_flow_load(&self, link: LinkId) -> Mbps {
        let raw = self.link_loads[link.index()];
        // The running sums are rebuilt from scratch on every reallocation
        // (and zeroed exactly when no network flow remains), so they can
        // never drift negative; the clamp below is release-mode armor
        // only.
        debug_assert!(
            raw >= -1e-9,
            "link {link} flow load drifted negative: {raw}"
        );
        Mbps::new(raw.max(0.0))
    }

    /// Background plus flow traffic on `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn link_total_load(&self, link: LinkId) -> Mbps {
        self.background(link) + self.link_flow_load(link)
    }

    /// Running integral of `link`'s total load (background + flows) in
    /// megabits since the network's creation — the source feeding SNMP
    /// byte counters, maintained incrementally by `advance`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn link_cumulative_mbit(&self, link: LinkId) -> f64 {
        self.link_cumulative_mbit[link.index()]
    }

    /// Builds a [`TrafficSnapshot`] of the current total loads — exactly
    /// what the SNMP module reads and the Virtual Routing Algorithm
    /// consumes.
    pub fn snapshot(&self) -> TrafficSnapshot {
        let mut snap = TrafficSnapshot::zero(&self.topology);
        self.snapshot_into(&mut snap);
        snap
    }

    /// Refreshes an existing snapshot with the current total loads
    /// instead of allocating a new one. Because the snapshot *instance*
    /// is preserved, its epoch token stays stable and only the mutated
    /// links advance its version — epoch-keyed consumers (see
    /// `vod_net::engine`) can then patch their caches incrementally
    /// rather than rebuilding per call. Links whose load is unchanged
    /// are left untouched (no journal noise).
    ///
    /// # Panics
    ///
    /// Panics if `snap` was built for a different topology.
    pub fn snapshot_into(&self, snap: &mut TrafficSnapshot) {
        assert_eq!(
            snap.link_count(),
            self.topology.link_count(),
            "snapshot must match the flow network's topology"
        );
        for link in self.topology.link_ids() {
            let load = self.link_total_load(link);
            if snap.used(link) != load {
                snap.set_used(link, load);
            }
        }
    }

    /// Accumulates `dt` of the current total load into the per-link
    /// volume integrals. Only the active links (non-zero total load) are
    /// visited; adding `0.0 × dt` to the others would not change their
    /// counters anyway, so skipping them is bit-exact.
    fn integrate(&mut self, dt: SimDuration) {
        let secs = dt.as_secs_f64();
        for k in 0..self.active_links.len() {
            let raw = self.active_links[k];
            let load = self.link_total_load(LinkId::new(raw)).as_f64();
            self.link_cumulative_mbit[raw as usize] += load * secs;
        }
    }

    /// Recomputes which links carry any traffic at all. `O(links)`, run
    /// after every allocation or background change.
    fn refresh_active_links(&mut self) {
        self.active_links.clear();
        for i in 0..self.topology.link_count() {
            if self.link_total_load(LinkId::new(i as u32)).as_f64() > 0.0 {
                self.active_links.push(i as u32);
            }
        }
    }

    /// The live flow `id`, if any. A stale id (its slot since freed or
    /// reused) finds nothing.
    fn flow(&self, id: FlowId) -> Option<&Flow> {
        self.slots
            .get(id.slot())
            .and_then(Option::as_ref)
            .filter(|f| f.id == id)
    }

    /// The route of `flow` (empty for a local flow).
    fn route_of(&self, flow: &Flow) -> &[LinkId] {
        self.classes
            .get(flow.class as usize)
            .map_or(&[], |c| c.links.as_slice())
    }

    /// The class rate of the network flow in `slot`.
    fn class_rate_of(&self, slot: usize) -> Mbps {
        self.slots
            .get(slot)
            .and_then(Option::as_ref)
            .and_then(|f| self.classes.get(f.class as usize))
            .map_or(Mbps::ZERO, |c| c.rate)
    }

    /// Hands out the id of a new flow: the next sequence number and the
    /// most recently freed slot, or a fresh one.
    fn mint_id(&mut self) -> Result<FlowId, FlowError> {
        let slot = match self.free_slots.pop() {
            Some(slot) => slot as usize,
            None if self.slot_count < MAX_LIVE_FLOWS => {
                self.slot_count += 1;
                self.slot_count - 1
            }
            None => return Err(FlowError::TooManyFlows),
        };
        let id = FlowId::new(self.next_seq, slot);
        self.next_seq += 1;
        Ok(id)
    }

    /// Stores a new zero-rate reference flow under `id`.
    fn insert_reference(
        &mut self,
        id: FlowId,
        links: Vec<LinkId>,
        volume_mbit: f64,
        local_rate_override: Option<Mbps>,
    ) {
        if !links.is_empty() {
            // Ids are strictly increasing, so pushing keeps the vec sorted.
            self.reference_network.push(id);
        }
        self.reference_flows.insert(
            id,
            RefFlow {
                links,
                remaining_mbit: volume_mbit,
                rate: Mbps::ZERO,
                local_rate_override,
            },
        );
        let live = self.reference_flows.len() as u64;
        self.stats.peak_live_flows = self.stats.peak_live_flows.max(live);
    }

    /// Removes reference flow `id`, freeing its id slot.
    fn take_reference(&mut self, id: FlowId) -> Option<RefFlow> {
        let flow = self.reference_flows.remove(&id)?;
        self.free_slots.push(id.slot() as u32);
        if !flow.links.is_empty() {
            if let Ok(pos) = self.reference_network.binary_search(&id) {
                self.reference_network.remove(pos);
            }
        }
        Some(flow)
    }

    /// Stores a new zero-rate lazy flow under `id` (joining its route
    /// class, for a network flow).
    fn insert_flow(
        &mut self,
        id: FlowId,
        route: Vec<LinkId>,
        volume_mbit: f64,
        local_rate_override: Option<Mbps>,
    ) {
        let slot = id.slot();
        if self.slots.len() <= slot {
            self.slots.resize(slot + 1, None);
        }
        let (class, member_pos) = if route.is_empty() {
            (LOCAL, 0)
        } else {
            let joined = self.join_class(route, id);
            // Ids are strictly increasing, so pushing keeps the vec sorted.
            self.network_flows.push((id, joined.0));
            joined
        };
        self.slots[slot] = Some(Flow {
            id,
            class,
            member_pos,
            remaining_mbit: volume_mbit,
            synced_at: self.clock_us,
            rate: Mbps::ZERO,
            epoch: 0,
            local_rate_override,
        });
        self.live += 1;
        self.stats.peak_live_flows = self.stats.peak_live_flows.max(self.live as u64);
    }

    /// Adds `id` to the class of `route` (opening the class if the route
    /// is new); returns the class index and the member position.
    fn join_class(&mut self, route: Vec<LinkId>, id: FlowId) -> (u32, u32) {
        let class = match self.class_index.get(route.as_slice()) {
            Some(&class) => class,
            None => {
                let class = match self.free_classes.pop() {
                    Some(class) => class,
                    None => {
                        self.classes.push(RouteClass::default());
                        (self.classes.len() - 1) as u32
                    }
                };
                self.class_index.insert(route.clone(), class);
                self.classes[class as usize] = RouteClass {
                    links: route,
                    ..RouteClass::default()
                };
                class
            }
        };
        let members = &mut self.classes[class as usize].members;
        members.push(id);
        (class, (members.len() - 1) as u32)
    }

    /// Removes member `pos` from `class`, closing the class when it
    /// empties.
    fn leave_class(&mut self, class: u32, pos: u32) {
        let Some(c) = self.classes.get_mut(class as usize) else {
            return;
        };
        let pos = pos as usize;
        c.members.swap_remove(pos);
        let moved = c.members.get(pos).copied();
        if c.members.is_empty() {
            let links = std::mem::take(&mut c.links);
            c.rate = Mbps::ZERO;
            self.class_index.remove(&links);
            self.free_classes.push(class);
        }
        if let Some(moved) = moved {
            if let Some(f) = self.slots.get_mut(moved.slot()).and_then(Option::as_mut) {
                f.member_pos = pos as u32;
            }
        }
    }

    /// Removes lazy flow `id` from the slab, the network-flow index and
    /// its route class, freeing its slot for reuse.
    fn take_flow(&mut self, id: FlowId) -> Option<Flow> {
        self.flow(id)?;
        let slot = id.slot();
        let flow = self.slots.get_mut(slot)?.take()?;
        self.free_slots.push(slot as u32);
        self.live -= 1;
        if !flow.is_local() {
            if let Ok(pos) = self.network_flows.binary_search_by(|&(f, _)| f.cmp(&id)) {
                self.network_flows.remove(pos);
            }
            self.leave_class(flow.class, flow.member_pos);
        }
        self.maybe_compact_heap();
        Some(flow)
    }

    /// Transitions the flow in `slot` to `rate`: materializes the
    /// remaining volume at the current clock, bumps the flow's epoch
    /// (invalidating any predicted completion in flight) and pushes a
    /// fresh prediction. A bitwise-identical rate is a no-op, keeping the
    /// existing prediction valid.
    fn apply_rate(&mut self, slot: usize, rate: Mbps) {
        let clock = self.clock_us;
        let Some(flow) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if flow.rate == rate {
            return;
        }
        flow.remaining_mbit = flow.remaining_at(clock);
        flow.synced_at = clock;
        flow.rate = rate;
        flow.epoch += 1;
        self.stats.flows_rerated += 1;
        self.push_entry_for(slot);
    }

    /// Pushes a completion prediction for the flow in `slot` at its
    /// current rate: the instant its extrapolated remaining volume
    /// reaches the completion epsilon. Zero-rate flows never finish —
    /// except ones already at the epsilon (float dust), which get an
    /// immediate entry so the next advance collects them like the
    /// reference kernel would.
    fn push_entry_for(&mut self, slot: usize) {
        let Some(flow) = self.slots.get(slot).and_then(Option::as_ref) else {
            return;
        };
        let sync_secs = flow.synced_at as f64 / 1e6;
        let rate = flow.rate.as_f64();
        let finish_secs = if rate > 0.0 {
            sync_secs + (flow.remaining_mbit - COMPLETION_EPSILON_MBIT) / rate
        } else if flow.remaining_mbit <= COMPLETION_EPSILON_MBIT {
            sync_secs
        } else {
            return;
        };
        self.completions.push(Reverse(HeapEntry {
            finish_secs,
            id: flow.id,
            epoch: flow.epoch,
        }));
        self.stats.heap_pushes += 1;
        self.maybe_compact_heap();
        let len = self.completions.len() as u64;
        self.stats.peak_heap_len = self.stats.peak_heap_len.max(len);
    }

    /// Rebuilds the completion heap without its stale entries once it
    /// holds more than `2 × live + 64` entries. Every live flow has at
    /// most one current entry, so a rebuild drops over half the heap and
    /// its cost amortizes to O(1) per push. Pop order among the kept
    /// entries is unchanged: `HeapEntry`'s order is total.
    fn maybe_compact_heap(&mut self) {
        if self.completions.len() <= HEAP_SLACK_FACTOR * self.live + HEAP_SLACK_FLOOR {
            return;
        }
        let slots = &self.slots;
        self.completions.retain(|Reverse(e)| {
            matches!(
                slots.get(e.id.slot()),
                Some(Some(f)) if f.id == e.id && f.epoch == e.epoch
            )
        });
        self.stats.heap_compactions += 1;
    }

    /// Recomputes max-min fair rates (progressive filling) and refreshes
    /// the active-link index.
    fn reallocate(&mut self) {
        self.stats.reallocations += 1;
        match self.kernel {
            FlowKernel::Reference => self.reallocate_reference(),
            FlowKernel::Lazy => self.reallocate_lazy(),
        }
        self.refresh_active_links();
        debug_assert!(
            self.completions.len() <= HEAP_SLACK_FACTOR * self.live + HEAP_SLACK_FLOOR,
            "completion heap exceeds its bound: {} entries for {} flows",
            self.completions.len(),
            self.live
        );
        debug_assert_eq!(
            self.classes.iter().map(|c| c.members.len()).sum::<usize>(),
            self.network_flows.len(),
            "route-class members disagree with the network flows"
        );
    }

    /// Residual capacity per link after degradation, outages and
    /// background traffic.
    ///
    /// The buffer is taken from (and handed back to) `residual_scratch`
    /// by the allocation kernels, so steady-state reallocation never
    /// allocates — mirroring the `requeue_scratch` idiom on the heap
    /// side.
    fn residual_capacities(&mut self) -> Vec<f64> {
        let mut cap = std::mem::take(&mut self.residual_scratch);
        cap.clear();
        cap.extend((0..self.topology.link_count()).map(|i| {
            if self.admin_down[i] {
                return 0.0;
            }
            let link = self.topology.link(LinkId::new(i as u32));
            let deliverable = link.capacity().as_f64() * self.capacity_scale[i];
            (deliverable - self.background[i].as_f64()).max(0.0)
        }));
        cap
    }

    /// The original lockstep allocation: resets every flow's rate and
    /// rebuilds the link loads from the full flow map, one flow at a
    /// time.
    ///
    /// Each iteration of the filling loop saturates at least one link, so
    /// the loop runs at most `link_count` times; the total cost is
    /// `O(link_count × (link_count + Σ route lengths))`.
    fn reallocate_reference(&mut self) {
        let n_links = self.topology.link_count();
        let mut cap = self.residual_capacities();

        // Dense view of network flows: (id, frozen?); local flows get the
        // fixed local rate immediately.
        let local_rate = self.local_rate;
        let mut network: Vec<(FlowId, bool)> = Vec::with_capacity(self.reference_flows.len());
        for (&id, f) in self.reference_flows.iter_mut() {
            if f.links.is_empty() {
                f.rate = f.local_rate_override.unwrap_or(local_rate);
            } else {
                f.rate = Mbps::ZERO;
                network.push((id, false));
            }
        }

        // Crossing counts for unfrozen flows.
        let mut count = vec![0usize; n_links];
        for (id, _) in &network {
            for l in self.reference_flows.get(id).map_or(&[][..], |f| &f.links) {
                count[l.index()] += 1;
            }
        }

        let mut remaining = network.len();
        let mut level = 0.0f64;
        while remaining > 0 {
            self.stats.filling_rounds += 1;
            // Smallest per-flow increment any crossed link can afford.
            let mut inc = f64::INFINITY;
            for i in 0..n_links {
                if count[i] > 0 {
                    inc = inc.min(cap[i] / count[i] as f64);
                }
            }
            // Freeze invariant: `remaining > 0` means some unfrozen flow
            // still counts on every link of its route, and capacities,
            // scales and background loads are all finite — so the
            // minimum can only be non-finite if every unfrozen flow lost
            // its last counted link, a state the freeze step below makes
            // unreachable. Coerce defensively so a violated invariant
            // freezes the filling level instead of poisoning every
            // remaining rate with `inf`/`NaN`.
            if !inc.is_finite() {
                debug_assert!(
                    count.iter().all(|&c| c == 0),
                    "non-finite fill increment with live counted links"
                );
                inc = 0.0;
            }
            level += inc;
            for i in 0..n_links {
                if count[i] > 0 {
                    cap[i] -= inc * count[i] as f64;
                }
            }
            // Flows crossing a saturated link freeze at the current level.
            let mut froze_any = false;
            for entry in network.iter_mut() {
                let (id, frozen) = *entry;
                if frozen {
                    continue;
                }
                let Some(flow) = self.reference_flows.get_mut(&id) else {
                    continue;
                };
                if flow.links.iter().any(|l| cap[l.index()] <= 1e-12) {
                    entry.1 = true;
                    froze_any = true;
                    remaining -= 1;
                    for l in &flow.links {
                        count[l.index()] -= 1;
                    }
                    flow.rate = Mbps::new(level.max(0.0));
                }
            }
            if !froze_any {
                // Cannot happen with finite capacities; guard against an
                // infinite loop by freezing everything at the level.
                for entry in network.iter_mut() {
                    if !entry.1 {
                        if let Some(flow) = self.reference_flows.get_mut(&entry.0) {
                            flow.rate = Mbps::new(level.max(0.0));
                        }
                        entry.1 = true;
                    }
                }
                break;
            }
        }

        // Refresh the per-link allocation cache.
        self.link_loads.iter_mut().for_each(|l| *l = 0.0);
        for f in self.reference_flows.values() {
            for l in &f.links {
                self.link_loads[l.index()] += f.rate.as_f64();
            }
        }
        self.residual_scratch = cap;
    }

    /// The lazy allocation: the reference kernel's progressive-filling
    /// arithmetic, run over route classes instead of flows.
    ///
    /// Each link's count is the member-weighted sum over its unfrozen
    /// classes — the same integer the reference kernel reaches one flow
    /// at a time — and a round's freeze test reads only the residual
    /// capacities, which the freeze pass does not touch, so every class
    /// freezes in the round and at the level each of its members would.
    /// Rates are therefore bitwise equal to the reference kernel's. Rate
    /// transitions go through `apply_rate` only for the members of
    /// classes whose rate moved: the rest keep their anchor and their
    /// predicted completion, and local flows are never touched.
    fn reallocate_lazy(&mut self) {
        let n_links = self.topology.link_count();
        if self.network_flows.is_empty() {
            // Flow-count zero: rebuild the running link sums from
            // scratch instead of trusting incremental float arithmetic.
            self.link_loads.iter_mut().for_each(|l| *l = 0.0);
            return;
        }
        let mut cap = self.residual_capacities();
        let mut count = std::mem::take(&mut self.count_scratch);
        count.clear();
        count.resize(n_links, 0);
        let mut open = std::mem::take(&mut self.open_scratch);
        open.clear();
        for (class, c) in self.classes.iter().enumerate() {
            let members = c.members.len();
            if members > 0 {
                open.push(class as u32);
                for l in &c.links {
                    count[l.index()] += members;
                }
            }
        }

        let mut level = 0.0f64;
        while !open.is_empty() {
            self.stats.filling_rounds += 1;
            let mut inc = f64::INFINITY;
            for i in 0..n_links {
                if count[i] > 0 {
                    inc = inc.min(cap[i] / count[i] as f64);
                }
            }
            // Same freeze invariant (and defensive coercion) as the
            // reference kernel — see `reallocate_reference`.
            if !inc.is_finite() {
                debug_assert!(
                    count.iter().all(|&c| c == 0),
                    "non-finite fill increment with live counted links"
                );
                inc = 0.0;
            }
            level += inc;
            for i in 0..n_links {
                if count[i] > 0 {
                    cap[i] -= inc * count[i] as f64;
                }
            }
            let rate = Mbps::new(level.max(0.0));
            let before = open.len();
            let classes = &mut self.classes;
            open.retain(|&class| {
                let Some(c) = classes.get_mut(class as usize) else {
                    return false;
                };
                if !c.links.iter().any(|l| cap[l.index()] <= 1e-12) {
                    return true;
                }
                let members = c.members.len();
                for l in &c.links {
                    count[l.index()] -= members;
                }
                c.fill = rate;
                false
            });
            if open.len() == before {
                // No link saturated (see the reference kernel): freeze
                // everything at the level.
                for &class in &open {
                    if let Some(c) = classes.get_mut(class as usize) {
                        c.fill = rate;
                    }
                }
                open.clear();
            }
        }

        // Apply the new rates; only classes whose rate moved re-anchor
        // and re-predict their members.
        for class in 0..self.classes.len() {
            let c = &mut self.classes[class];
            if c.members.is_empty() || c.rate == c.fill {
                continue;
            }
            c.rate = c.fill;
            let rate = c.rate;
            for k in 0..self.classes[class].members.len() {
                let slot = self.classes[class].members[k].slot();
                self.apply_rate(slot, rate);
            }
        }

        // Refresh the per-link allocation cache flow by flow, in creation
        // order — the reference kernel's summation order, so the sums
        // are bitwise equal (a member-count product would round
        // differently).
        self.link_loads.iter_mut().for_each(|l| *l = 0.0);
        for &(_, class) in &self.network_flows {
            let c = &self.classes[class as usize];
            let rate = c.rate.as_f64();
            for l in &c.links {
                self.link_loads[l.index()] += rate;
            }
        }
        self.residual_scratch = cap;
        self.count_scratch = count;
        self.open_scratch = open;
    }

    /// Sets the background traffic on several links at once, recomputing
    /// the allocation a single time.
    ///
    /// # Panics
    ///
    /// Panics if any link is out of range.
    pub fn set_background_many<I>(&mut self, loads: I)
    where
        I: IntoIterator<Item = (LinkId, Mbps)>,
    {
        for (link, load) in loads {
            self.background[link.index()] = load;
        }
        self.reallocate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_net::TopologyBuilder;

    /// a --l0-- b --l1-- c, capacities 2 and 18 Mbps.
    fn two_hop() -> (Topology, LinkId, LinkId) {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let m = b.add_node("b");
        let c = b.add_node("c");
        let l0 = b.add_link(a, m, Mbps::new(2.0)).unwrap();
        let l1 = b.add_link(m, c, Mbps::new(18.0)).unwrap();
        (b.build(), l0, l1)
    }

    const BOTH_KERNELS: [FlowKernel; 2] = [FlowKernel::Lazy, FlowKernel::Reference];

    #[test]
    fn single_flow_gets_bottleneck_capacity() {
        let (t, l0, l1) = two_hop();
        let mut net = FlowNetwork::new(t);
        let f = net.add_flow(vec![l0, l1], 20.0).unwrap();
        assert_eq!(net.rate(f).unwrap(), Mbps::new(2.0));
        assert_eq!(net.link_flow_load(l0), Mbps::new(2.0));
        assert_eq!(net.link_flow_load(l1), Mbps::new(2.0));
    }

    #[test]
    fn snapshot_into_keeps_instance_and_journals_only_changes() {
        let (t, l0, l1) = two_hop();
        let mut net = FlowNetwork::new(t);
        let mut snap = net.snapshot();
        let token = snap.epoch().token;
        let before = snap.epoch();

        // Load one link only: the refresh touches just that link.
        net.add_flow(vec![l0], 10.0).unwrap();
        net.snapshot_into(&mut snap);
        assert_eq!(snap.epoch().token, token, "instance is preserved");
        assert_eq!(snap.used(l0), Mbps::new(2.0));
        assert_eq!(snap.used(l1), Mbps::ZERO);
        let dirty: Vec<LinkId> = snap.dirty_links_since(before).unwrap().collect();
        assert_eq!(dirty, vec![l0]);

        // An unchanged network refreshes with zero journal noise.
        let quiet = snap.epoch();
        net.snapshot_into(&mut snap);
        assert_eq!(snap.epoch(), quiet);
        // Refreshing matches a freshly-built snapshot's data.
        assert_eq!(snap, net.snapshot());
    }

    #[test]
    fn fair_share_on_shared_bottleneck() {
        let (t, l0, _) = two_hop();
        let mut net = FlowNetwork::new(t);
        let f1 = net.add_flow(vec![l0], 10.0).unwrap();
        let f2 = net.add_flow(vec![l0], 10.0).unwrap();
        assert_eq!(net.rate(f1).unwrap(), Mbps::new(1.0));
        assert_eq!(net.rate(f2).unwrap(), Mbps::new(1.0));
    }

    #[test]
    fn max_min_gives_leftover_to_unconstrained_flow() {
        let (t, l0, l1) = two_hop();
        let mut net = FlowNetwork::new(t);
        // f1 crosses both links, f2 only the fat one.
        let f1 = net.add_flow(vec![l0, l1], 100.0).unwrap();
        let f2 = net.add_flow(vec![l1], 100.0).unwrap();
        // f1 is capped at 2 by l0; f2 takes the rest of l1.
        assert!((net.rate(f1).unwrap().as_f64() - 2.0).abs() < 1e-9);
        assert!((net.rate(f2).unwrap().as_f64() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn background_reduces_residual_capacity() {
        let (t, l0, _) = two_hop();
        let mut net = FlowNetwork::new(t);
        net.set_background(l0, Mbps::new(1.5));
        let f = net.add_flow(vec![l0], 10.0).unwrap();
        assert!((net.rate(f).unwrap().as_f64() - 0.5).abs() < 1e-9);
        assert_eq!(net.link_total_load(l0), Mbps::new(2.0));
    }

    #[test]
    fn oversubscribed_background_gives_zero_rate() {
        let (t, l0, _) = two_hop();
        let mut net = FlowNetwork::new(t);
        net.set_background(l0, Mbps::new(5.0));
        let f = net.add_flow(vec![l0], 10.0).unwrap();
        assert_eq!(net.rate(f).unwrap(), Mbps::ZERO);
        assert_eq!(net.next_completion(), None);
    }

    #[test]
    fn local_flows_use_local_rate() {
        let (t, ..) = two_hop();
        let mut net = FlowNetwork::new(t);
        net.set_local_rate(Mbps::new(50.0));
        let f = net.add_flow(vec![], 100.0).unwrap();
        assert_eq!(net.rate(f).unwrap(), Mbps::new(50.0));
        let (id, dt) = net.next_completion().unwrap();
        assert_eq!(id, f);
        assert_eq!(dt, SimDuration::from_secs(2));
    }

    #[test]
    fn local_flow_rate_override() {
        let (t, ..) = two_hop();
        let mut net = FlowNetwork::new(t);
        net.set_local_rate(Mbps::new(50.0));
        let slow_disk = net.add_local_flow(100.0, Mbps::new(10.0)).unwrap();
        let default = net.add_flow(vec![], 100.0).unwrap();
        assert_eq!(net.rate(slow_disk).unwrap(), Mbps::new(10.0));
        assert_eq!(net.rate(default).unwrap(), Mbps::new(50.0));
        assert!(net.add_local_flow(-1.0, Mbps::new(1.0)).is_err());
    }

    #[test]
    fn set_local_rate_rerates_live_default_flows() {
        for kernel in BOTH_KERNELS {
            let (t, ..) = two_hop();
            let mut net = FlowNetwork::with_kernel(t, kernel);
            net.set_local_rate(Mbps::new(50.0));
            let pinned = net.add_local_flow(100.0, Mbps::new(10.0)).unwrap();
            let floating = net.add_flow(vec![], 100.0).unwrap();
            net.set_local_rate(Mbps::new(25.0));
            assert_eq!(net.rate(pinned).unwrap(), Mbps::new(10.0));
            assert_eq!(net.rate(floating).unwrap(), Mbps::new(25.0));
            let (_, dt) = net.next_completion().unwrap();
            assert_eq!(dt, SimDuration::from_secs(4), "{kernel:?}");
        }
    }

    #[test]
    fn completion_prediction_matches_advance() {
        let (t, l0, l1) = two_hop();
        let mut net = FlowNetwork::new(t);
        let f1 = net.add_flow(vec![l0, l1], 4.0).unwrap(); // 2 Mbps → 2 s
        let f2 = net.add_flow(vec![l1], 64.0).unwrap(); // 16 Mbps → 4 s
        let (first, dt) = net.next_completion().unwrap();
        assert_eq!(first, f1);
        assert_eq!(dt, SimDuration::from_secs(2));
        let done = net.advance(dt);
        assert_eq!(done, vec![f1]);
        // f2 now gets the full 18 Mbps for its remaining 32 Mbit.
        assert!((net.rate(f2).unwrap().as_f64() - 18.0).abs() < 1e-9);
        let (second, dt2) = net.next_completion().unwrap();
        assert_eq!(second, f2);
        assert!((dt2.as_secs_f64() - 32.0 / 18.0).abs() < 1e-5);
    }

    #[test]
    fn advance_partial_keeps_flow() {
        let (t, l0, _) = two_hop();
        let mut net = FlowNetwork::new(t);
        let f = net.add_flow(vec![l0], 4.0).unwrap();
        let done = net.advance(SimDuration::from_secs(1));
        assert!(done.is_empty());
        assert!((net.remaining_mbit(f).unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn remove_flow_returns_unfinished_volume() {
        let (t, l0, _) = two_hop();
        let mut net = FlowNetwork::new(t);
        let f = net.add_flow(vec![l0], 4.0).unwrap();
        net.advance(SimDuration::from_secs(1));
        let left = net.remove_flow(f).unwrap();
        assert!((left - 2.0).abs() < 1e-9);
        assert_eq!(net.flow_count(), 0);
        assert_eq!(net.remove_flow(f), Err(FlowError::UnknownFlow(f)));
    }

    #[test]
    fn invalid_inputs_rejected() {
        let (t, ..) = two_hop();
        let mut net = FlowNetwork::new(t);
        assert!(matches!(
            net.add_flow(vec![], 0.0),
            Err(FlowError::InvalidVolume(_))
        ));
        assert!(matches!(
            net.add_flow(vec![], f64::NAN),
            Err(FlowError::InvalidVolume(_))
        ));
        assert!(matches!(
            net.add_flow(vec![LinkId::new(99)], 1.0),
            Err(FlowError::UnknownLink(_))
        ));
    }

    #[test]
    fn snapshot_reflects_total_load() {
        let (t, l0, l1) = two_hop();
        let mut net = FlowNetwork::new(t);
        net.set_background(l1, Mbps::new(3.0));
        net.add_flow(vec![l0, l1], 100.0).unwrap();
        let snap = net.snapshot();
        assert_eq!(snap.used(l0), Mbps::new(2.0));
        assert_eq!(snap.used(l1), Mbps::new(5.0));
        let topo = net.topology().clone();
        assert!((snap.utilization(&topo, l0).get() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rates_never_exceed_capacity() {
        let (t, l0, l1) = two_hop();
        let mut net = FlowNetwork::new(t);
        for i in 0..20 {
            let links = if i % 3 == 0 {
                vec![l0]
            } else if i % 3 == 1 {
                vec![l1]
            } else {
                vec![l0, l1]
            };
            net.add_flow(links, 100.0).unwrap();
        }
        let load0 = net.link_flow_load(l0).as_f64();
        let load1 = net.link_flow_load(l1).as_f64();
        assert!(load0 <= 2.0 + 1e-9, "l0 overloaded: {load0}");
        assert!(load1 <= 18.0 + 1e-9, "l1 overloaded: {load1}");
        // Work-conserving: the bottleneck links are fully used.
        assert!(load0 >= 2.0 - 1e-9);
        assert!(load1 >= 18.0 - 1e-9);
    }

    #[test]
    fn bulk_background_updates_match_individual_ones() {
        let (t, l0, l1) = two_hop();
        let mut a = FlowNetwork::new(t.clone());
        let mut b = FlowNetwork::new(t);
        let fa = a.add_flow(vec![l0, l1], 10.0).unwrap();
        let fb = b.add_flow(vec![l0, l1], 10.0).unwrap();
        a.set_background(l0, Mbps::new(0.5));
        a.set_background(l1, Mbps::new(2.0));
        b.set_background_many([(l0, Mbps::new(0.5)), (l1, Mbps::new(2.0))]);
        assert_eq!(a.rate(fa).unwrap(), b.rate(fb).unwrap());
        assert_eq!(a.link_total_load(l0), b.link_total_load(l0));
    }

    #[test]
    fn admin_down_link_freezes_crossing_flows() {
        let (t, l0, l1) = two_hop();
        let mut net = FlowNetwork::new(t);
        let crossing = net.add_flow(vec![l0, l1], 10.0).unwrap();
        let spared = net.add_flow(vec![l1], 10.0).unwrap();
        assert!(net.rate(crossing).unwrap().as_f64() > 0.0);

        net.set_link_admin_down(l0, true);
        assert!(net.link_admin_down(l0));
        assert_eq!(net.rate(crossing).unwrap(), Mbps::ZERO);
        // Flows avoiding the dead link keep (and inherit) its bandwidth.
        assert_eq!(net.rate(spared).unwrap(), Mbps::new(18.0));
        assert_eq!(net.flows_crossing(l0).collect::<Vec<_>>(), vec![crossing]);

        net.set_link_admin_down(l0, false);
        assert_eq!(net.rate(crossing).unwrap(), Mbps::new(2.0));
    }

    #[test]
    fn capacity_scale_degrades_throughput() {
        let (t, l0, _) = two_hop();
        let mut net = FlowNetwork::new(t);
        let f = net.add_flow(vec![l0], 10.0).unwrap();
        assert_eq!(net.rate(f).unwrap(), Mbps::new(2.0));
        net.set_link_capacity_scale(l0, 0.25);
        assert!((net.rate(f).unwrap().as_f64() - 0.5).abs() < 1e-9);
        assert!((net.link_capacity_scale(l0) - 0.25).abs() < 1e-12);
        net.set_link_capacity_scale(l0, 1.0);
        assert_eq!(net.rate(f).unwrap(), Mbps::new(2.0));
    }

    #[test]
    #[should_panic(expected = "capacity scale")]
    fn capacity_scale_rejects_out_of_range() {
        let (t, l0, _) = two_hop();
        let mut net = FlowNetwork::new(t);
        net.set_link_capacity_scale(l0, 1.5);
    }

    #[test]
    fn flow_ids_are_stable_and_ordered() {
        let (t, l0, _) = two_hop();
        let mut net = FlowNetwork::new(t);
        let a = net.add_flow(vec![l0], 1.0).unwrap();
        let b = net.add_flow(vec![l0], 1.0).unwrap();
        assert!(a < b);
        let ids: Vec<FlowId> = net.flow_ids().collect();
        assert_eq!(ids, vec![a, b]);
    }

    #[test]
    fn advance_into_reuses_caller_buffer() {
        let (t, l0, _) = two_hop();
        let mut net = FlowNetwork::new(t);
        let f = net.add_flow(vec![l0], 4.0).unwrap();
        let mut done = Vec::with_capacity(4);
        net.advance_into(SimDuration::from_secs(1), &mut done);
        assert!(done.is_empty());
        net.advance_into(SimDuration::from_secs(1), &mut done);
        assert_eq!(done, vec![f]);
        // The buffer is cleared, not re-allocated, on the next call.
        net.advance_into(SimDuration::from_secs(1), &mut done);
        assert!(done.is_empty());
        assert!(done.capacity() >= 4);
    }

    #[test]
    fn zero_rate_dust_flow_is_collected_on_next_advance() {
        for kernel in BOTH_KERNELS {
            let (t, l0, _) = two_hop();
            let mut net = FlowNetwork::with_kernel(t, kernel);
            net.set_background(l0, Mbps::new(5.0)); // oversubscribed → rate 0
            let f = net.add_flow(vec![l0], 1e-10).unwrap(); // below the epsilon
            assert_eq!(net.rate(f).unwrap(), Mbps::ZERO);
            assert_eq!(net.next_completion(), None, "{kernel:?}");
            let done = net.advance(SimDuration::from_secs(1));
            assert_eq!(done, vec![f], "{kernel:?}");
        }
    }

    #[test]
    fn frozen_flow_resumes_with_valid_prediction() {
        for kernel in BOTH_KERNELS {
            let (t, l0, _) = two_hop();
            let mut net = FlowNetwork::with_kernel(t, kernel);
            let f = net.add_flow(vec![l0], 4.0).unwrap(); // 2 Mbps → 2 s
            net.advance(SimDuration::from_secs(1)); // 2 Mbit left
            net.set_link_admin_down(l0, true); // freeze at rate 0
            assert_eq!(net.next_completion(), None, "{kernel:?}");
            net.advance(SimDuration::from_secs(10)); // no progress
            assert!((net.remaining_mbit(f).unwrap() - 2.0).abs() < 1e-9);
            net.set_link_admin_down(l0, false); // thaw
            let (id, dt) = net.next_completion().unwrap();
            assert_eq!(id, f);
            assert_eq!(dt, SimDuration::from_secs(1), "{kernel:?}");
            assert_eq!(net.advance(dt), vec![f], "{kernel:?}");
        }
    }

    #[test]
    fn link_integrals_match_load_history() {
        for kernel in BOTH_KERNELS {
            let (t, l0, l1) = two_hop();
            let mut net = FlowNetwork::with_kernel(t, kernel);
            net.set_background(l1, Mbps::new(3.0));
            net.add_flow(vec![l0], 10.0).unwrap(); // 2 Mbps, done at t=5
            net.advance(SimDuration::from_secs(2));
            assert!((net.link_cumulative_mbit(l0) - 4.0).abs() < 1e-9);
            assert!((net.link_cumulative_mbit(l1) - 6.0).abs() < 1e-9);
            net.advance(SimDuration::from_secs(3));
            net.advance(SimDuration::from_secs(2));
            // l0 stops growing once its flow completes; l1's background
            // keeps integrating.
            assert!(
                (net.link_cumulative_mbit(l0) - 10.0).abs() < 1e-9,
                "{kernel:?}"
            );
            assert!(
                (net.link_cumulative_mbit(l1) - 21.0).abs() < 1e-9,
                "{kernel:?}"
            );
        }
    }

    /// The satellite regression for the rounding contract: across extreme
    /// rates and volumes, the `ceil`-to-µs prediction plus
    /// [`COMPLETION_CHECK_SLACK`] fires at-or-after the true finish
    /// instant — advancing by the prediction completes the flow exactly
    /// once (no miss), and stopping 2 µs short never completes it early
    /// (no double-fire window).
    #[test]
    fn completion_rounding_contract() {
        let rates = [1e-3, 0.9, 2.0, 1234.5678, 1e9];
        let volumes = [1e-6, 0.7, 42.0, 9876.5];
        for kernel in BOTH_KERNELS {
            for &rate in &rates {
                for &volume in &volumes {
                    let (t, ..) = two_hop();
                    let mut net = FlowNetwork::with_kernel(t, kernel);
                    let f = net.add_local_flow(volume, Mbps::new(rate)).unwrap();
                    let (id, dt) = net.next_completion().unwrap();
                    assert_eq!(id, f);
                    let true_secs = volume / rate;
                    let ctx = format!("{kernel:?} rate={rate} vol={volume}");
                    // At-or-after the true finish, by less than 1 µs + fp.
                    assert!(
                        dt.as_secs_f64() >= true_secs * (1.0 - 1e-12),
                        "prediction fires early: {ctx}"
                    );
                    assert!(
                        dt.as_secs_f64() - true_secs <= 2e-6 + true_secs * 1e-12,
                        "prediction overshoots: {ctx}"
                    );
                    // No early fire: 2 µs before the prediction the flow
                    // is still live (when 2 µs of progress is resolvable
                    // above the completion epsilon).
                    if dt > SimDuration::from_micros(2)
                        && rate * 2e-6 > 10.0 * COMPLETION_EPSILON_MBIT
                    {
                        let early = dt - SimDuration::from_micros(2);
                        assert!(net.advance(early).is_empty(), "fired early: {ctx}");
                        let done = net.advance(dt - early + COMPLETION_CHECK_SLACK);
                        assert_eq!(done, vec![f], "missed completion: {ctx}");
                    } else {
                        let done = net.advance(dt + COMPLETION_CHECK_SLACK);
                        assert_eq!(done, vec![f], "missed completion: {ctx}");
                    }
                    // No double-fire: nothing left to complete.
                    assert!(net.advance(SimDuration::from_secs(1)).is_empty(), "{ctx}");
                    assert_eq!(net.next_completion(), None);
                }
            }
        }
    }

    /// Fully saturated regime: one route link is scaled to zero and the
    /// other is drowned in background traffic above its deliverable
    /// capacity, so the progressive filling's first increment is zero
    /// and every flow freezes at rate zero immediately. Both kernels
    /// agree bitwise, frozen flows make no progress across an arbitrary
    /// advance, and the lazy kernel never enqueues a completion
    /// prediction for them — the heap stays empty instead of spinning
    /// zero-rate entries through the verify-and-requeue pass. Lifting
    /// the saturation thaws the flow identically in both kernels.
    #[test]
    fn saturated_network_freezes_flows_without_heap_spin() {
        let (t, l0, l1) = two_hop();
        let mut lazy = FlowNetwork::with_kernel(t.clone(), FlowKernel::Lazy);
        let mut reference = FlowNetwork::with_kernel(t, FlowKernel::Reference);
        for net in [&mut lazy, &mut reference] {
            net.set_link_capacity_scale(l0, 0.0);
            net.set_background(l1, Mbps::new(1e6)); // ≫ the 18 Mbps deliverable
        }
        let a = lazy.add_flow(vec![l0, l1], 10.0).unwrap();
        let b = reference.add_flow(vec![l0, l1], 10.0).unwrap();
        assert_eq!(a, b);

        for net in [&mut lazy, &mut reference] {
            assert_eq!(net.rate(a).unwrap(), Mbps::ZERO);
            assert_eq!(net.next_completion(), None);
            // A frozen flow neither completes nor progresses.
            assert!(net.advance(SimDuration::from_secs(3_600)).is_empty());
            assert!((net.remaining_mbit(a).unwrap() - 10.0).abs() < 1e-12);
        }
        // The frozen flow never entered the completion heap, so the
        // hour-long advance had nothing to verify-and-requeue.
        assert_eq!(lazy.stats().heap_len, 0);

        // Lifting the saturation thaws the flow identically: both
        // kernels settle on the 2 Mbps bottleneck and predict the same
        // completion.
        for net in [&mut lazy, &mut reference] {
            net.set_link_capacity_scale(l0, 1.0);
            net.set_background(l1, Mbps::ZERO);
        }
        assert_eq!(lazy.rate(a).unwrap(), reference.rate(a).unwrap());
        assert_eq!(lazy.rate(a).unwrap(), Mbps::new(2.0));
        assert_eq!(lazy.stats().heap_len, 1);
        let (fa, dta) = lazy.next_completion().unwrap();
        let (fb, dtb) = reference.next_completion().unwrap();
        assert_eq!((fa, dta), (fb, dtb));
        assert_eq!(lazy.advance(dta), vec![a]);
        assert_eq!(reference.advance(dtb), vec![a]);
    }

    #[test]
    fn freed_slots_are_reused_and_stale_ids_stay_unknown() {
        for kernel in BOTH_KERNELS {
            let (t, l0, l1) = two_hop();
            let mut net = FlowNetwork::with_kernel(t, kernel);
            let a = net.add_flow(vec![l0, l1], 10.0).unwrap();
            let b = net.add_flow(vec![l1], 10.0).unwrap();
            net.remove_flow(a).unwrap();
            let c = net.add_flow(vec![l0, l1], 10.0).unwrap();
            // The new flow takes the freed slot but a fresh, larger id.
            assert_eq!(c.slot(), a.slot(), "{kernel:?}");
            assert!(a < b && b < c, "{kernel:?}");
            assert_eq!(net.rate(a), Err(FlowError::UnknownFlow(a)));
            assert_eq!(net.remaining_mbit(a), Err(FlowError::UnknownFlow(a)));
            assert_eq!(net.flow_links(a), Err(FlowError::UnknownFlow(a)));
            assert_eq!(net.remove_flow(a), Err(FlowError::UnknownFlow(a)));
            // The stale removal left the slot's new occupant alone.
            assert_eq!(net.flow_count(), 2);
            assert_eq!(net.flow_links(c).unwrap(), &[l0, l1]);
            assert_eq!(net.flow_ids().collect::<Vec<_>>(), vec![b, c]);
            assert_eq!(a.to_string(), "f0");
            assert_eq!(c.to_string(), "f2");
        }
    }

    /// Memory follows the live flows, not the flows ever created: a
    /// long churn through two live flows keeps the slab at two slots,
    /// the route classes at two, and the completion heap within its
    /// `2 × live + 64` bound although every reallocation re-rates and
    /// re-predicts both flows.
    #[test]
    fn churn_keeps_slab_classes_and_heap_bounded() {
        let (t, l0, l1) = two_hop();
        let mut net = FlowNetwork::new(t);
        let mut held = net.add_flow(vec![l0, l1], 1e6).unwrap();
        for i in 0..5_000 {
            let route = if i % 2 == 0 { vec![l0] } else { vec![l0, l1] };
            let fresh = net.add_flow(route, 1e6).unwrap();
            net.advance(SimDuration::from_millis(1));
            net.remove_flow(held).unwrap();
            held = fresh;
        }
        let stats = net.stats();
        assert_eq!(net.slots.len(), 2);
        assert!(net.classes.len() <= 2);
        assert_eq!(stats.route_classes, 1);
        assert_eq!(stats.peak_live_flows, 2);
        assert!(stats.heap_compactions > 0);
        assert!(stats.peak_heap_len <= 2 * stats.peak_live_flows + 64);
        assert!(stats.heap_pushes > stats.peak_heap_len);
        assert_eq!(stats.reallocations, 10_001);
    }

    #[test]
    fn flows_on_one_route_share_a_class() {
        let (t, l0, l1) = two_hop();
        let mut net = FlowNetwork::new(t);
        let a = net.add_flow(vec![l0, l1], 10.0).unwrap();
        let b = net.add_flow(vec![l0, l1], 10.0).unwrap();
        let c = net.add_flow(vec![l1], 10.0).unwrap();
        net.add_flow(vec![], 10.0).unwrap();
        assert_eq!(net.stats().route_classes, 2);
        assert_eq!(net.rate(a).unwrap(), Mbps::new(1.0));
        assert_eq!(net.rate(b).unwrap(), Mbps::new(1.0));
        assert_eq!(net.rate(c).unwrap(), Mbps::new(16.0));
        assert_eq!(net.flows_crossing(l0).collect::<Vec<_>>(), vec![a, b]);
        assert_eq!(net.flows_crossing(l1).collect::<Vec<_>>(), vec![a, b, c]);
        // Emptying a class closes it; the route re-opens on demand.
        net.remove_flow(a).unwrap();
        net.remove_flow(b).unwrap();
        assert_eq!(net.stats().route_classes, 1);
        assert_eq!(net.flows_crossing(l0).count(), 0);
        let d = net.add_flow(vec![l0, l1], 10.0).unwrap();
        assert_eq!(net.stats().route_classes, 2);
        assert_eq!(net.rate(d).unwrap(), Mbps::new(2.0));
        assert_eq!(net.rate(c).unwrap(), Mbps::new(16.0));
    }

    mod max_min_properties {
        use super::*;
        use proptest::prelude::*;
        use vod_net::topologies::patterns::line;

        proptest! {
            /// On a random line network with random flows and background
            /// loads, the max-min allocation (a) never oversubscribes a
            /// link, and (b) bottlenecks every flow: each network flow
            /// crosses at least one saturated link.
            #[test]
            fn allocation_is_feasible_and_bottlenecked(
                nodes in 3usize..8,
                caps in proptest::collection::vec(1.0f64..20.0, 7),
                backgrounds in proptest::collection::vec(0.0f64..10.0, 7),
                flows in proptest::collection::vec((0usize..7, 1usize..7), 1..15),
            ) {
                let topo = line(nodes, Mbps::new(1.0));
                // Rebuild with per-link capacities via a fresh topology.
                let mut b = vod_net::TopologyBuilder::new();
                let ids: Vec<_> = (0..nodes).map(|i| b.add_node(format!("n{i}"))).collect();
                let mut links = Vec::new();
                for i in 1..nodes {
                    links.push(
                        b.add_link(ids[i - 1], ids[i], Mbps::new(caps[i - 1])).unwrap(),
                    );
                }
                let topo2 = b.build();
                drop(topo);
                let mut net = FlowNetwork::new(topo2.clone());
                for (i, &l) in links.iter().enumerate() {
                    net.set_background(l, Mbps::new(backgrounds[i].min(caps[i])));
                }
                let mut flow_ids = Vec::new();
                for &(start, len) in &flows {
                    let s = start % links.len();
                    let e = (s + len).min(links.len());
                    let route: Vec<LinkId> = links[s..e].to_vec();
                    if !route.is_empty() {
                        flow_ids.push((net.add_flow(route.clone(), 100.0).unwrap(), route));
                    }
                }

                // (a) feasibility.
                for (i, &l) in links.iter().enumerate() {
                    let residual = (caps[i] - net.background(l).as_f64()).max(0.0);
                    prop_assert!(
                        net.link_flow_load(l).as_f64() <= residual + 1e-6,
                        "link {} oversubscribed", l
                    );
                }
                // (b) every flow is bottlenecked by a saturated link.
                for (id, route) in &flow_ids {
                    let _rate = net.rate(*id).unwrap();
                    let bottlenecked = route.iter().any(|&l| {
                        let i = l.index();
                        let residual = (caps[i] - net.background(l).as_f64()).max(0.0);
                        net.link_flow_load(l).as_f64() >= residual - 1e-6
                    });
                    prop_assert!(bottlenecked, "flow {} is not bottlenecked", id);
                }
            }

            /// advance() and next_completion() agree: advancing by the
            /// predicted time completes exactly the predicted flow first.
            #[test]
            fn completion_prediction_is_consistent(
                volumes in proptest::collection::vec(0.5f64..50.0, 1..8),
            ) {
                let topo = line(3, Mbps::new(2.0));
                let links: Vec<LinkId> = topo.link_ids().collect();
                let mut net = FlowNetwork::new(topo);
                for (i, &v) in volumes.iter().enumerate() {
                    net.add_flow(vec![links[i % 2]], v).unwrap();
                }
                if let Some((first, dt)) = net.next_completion() {
                    let done = net.advance(dt);
                    prop_assert!(done.contains(&first), "{} predicted, got {:?}", first, done);
                }
            }
        }
    }

    mod kernel_parity {
        use super::*;
        use proptest::prelude::*;
        use vod_net::topologies::patterns::{line, star};

        /// Asserts that the two kernels agree after an operation: rates,
        /// link loads and SNMP volume integrals bitwise, routes and
        /// crossing sets exactly, flow counts, and next-completion
        /// predictions to the µs-rounding of the contract. Also holds the
        /// lazy completion heap to its `2 × live + 64` bound.
        fn assert_parity(
            lazy: &mut FlowNetwork,
            reference: &mut FlowNetwork,
            live: &[FlowId],
            links: &[LinkId],
        ) -> Result<(), TestCaseError> {
            for &id in live {
                prop_assert_eq!(
                    lazy.rate(id).unwrap().as_f64().to_bits(),
                    reference.rate(id).unwrap().as_f64().to_bits(),
                    "rate of {} diverged",
                    id
                );
                prop_assert_eq!(
                    lazy.flow_links(id).unwrap(),
                    reference.flow_links(id).unwrap()
                );
            }
            for &l in links {
                prop_assert_eq!(
                    lazy.link_flow_load(l).as_f64().to_bits(),
                    reference.link_flow_load(l).as_f64().to_bits(),
                    "load of {} diverged",
                    l
                );
                prop_assert_eq!(
                    lazy.link_cumulative_mbit(l).to_bits(),
                    reference.link_cumulative_mbit(l).to_bits(),
                    "SNMP integral of {} diverged",
                    l
                );
                prop_assert!(lazy.flows_crossing(l).eq(reference.flows_crossing(l)));
            }
            prop_assert_eq!(lazy.flow_count(), reference.flow_count());
            prop_assert_eq!(lazy.flow_count(), live.len());
            let stats = lazy.stats();
            prop_assert!(stats.heap_len <= 2 * live.len() as u64 + 64);
            prop_assert!(stats.peak_heap_len <= 2 * stats.peak_live_flows + 64);
            match (lazy.next_completion(), reference.next_completion()) {
                (None, None) => {}
                (Some((_, da)), Some((_, db))) => {
                    let diff = da.as_micros() as i128 - db.as_micros() as i128;
                    prop_assert!(
                        diff.abs() <= 1,
                        "predictions {} vs {} µs",
                        da.as_micros(),
                        db.as_micros()
                    );
                }
                other => prop_assert!(false, "prediction disagreement: {:?}", other),
            }
            Ok(())
        }

        /// Drives a Lazy and a Reference network through the same random
        /// schedule of adds, removes, background changes, capacity
        /// degradations, administrative outages and advances,
        /// asserting after every operation that rates and link loads are
        /// *bitwise* equal, SNMP volume integrals are bitwise equal, and
        /// completions happen in the same order at the same events.
        fn drive(ops: &[(u8, usize, f64)]) -> Result<(), TestCaseError> {
            let topo = line(4, Mbps::new(4.0));
            let links: Vec<LinkId> = topo.link_ids().collect();
            let mut lazy = FlowNetwork::with_kernel(topo.clone(), FlowKernel::Lazy);
            let mut reference = FlowNetwork::with_kernel(topo, FlowKernel::Reference);
            let mut live: Vec<FlowId> = Vec::new();
            for &(op, sel, val) in ops {
                match op {
                    0 => {
                        let s = sel % links.len();
                        let e = (s + 1 + sel % 2).min(links.len());
                        let route: Vec<LinkId> = links[s..e].to_vec();
                        let a = lazy.add_flow(route.clone(), val).unwrap();
                        let b = reference.add_flow(route, val).unwrap();
                        prop_assert_eq!(a, b);
                        live.push(a);
                    }
                    1 => {
                        let a = lazy.add_local_flow(val, Mbps::new(val)).unwrap();
                        let b = reference.add_local_flow(val, Mbps::new(val)).unwrap();
                        prop_assert_eq!(a, b);
                        live.push(a);
                    }
                    2 if !live.is_empty() => {
                        let id = live.remove(sel % live.len());
                        let ra = lazy.remove_flow(id).unwrap();
                        let rb = reference.remove_flow(id).unwrap();
                        // Anchored vs stepwise remaining may differ at ulp.
                        prop_assert!((ra - rb).abs() <= 1e-6, "remove {}: {} vs {}", id, ra, rb);
                    }
                    3 => {
                        let l = links[sel % links.len()];
                        let bg = Mbps::new(val * 0.08); // residual ≥ 0.8 Mbps
                        lazy.set_background(l, bg);
                        reference.set_background(l, bg);
                    }
                    4 => {
                        if let Some((_, dt)) = lazy.next_completion() {
                            let da = lazy.advance(dt);
                            let db = reference.advance(dt);
                            prop_assert_eq!(&da, &db, "advance-to-completion disagrees");
                            live.retain(|id| !da.contains(id));
                        }
                    }
                    6 => {
                        // Soft degradation; every fourth draw is a full
                        // outage (zero deliverable capacity).
                        let l = links[sel % links.len()];
                        let scale = if sel % 4 == 0 {
                            0.0
                        } else {
                            (val / 40.0).min(1.0)
                        };
                        lazy.set_link_capacity_scale(l, scale);
                        reference.set_link_capacity_scale(l, scale);
                    }
                    7 => {
                        let l = links[sel % links.len()];
                        let down = sel % 2 == 0;
                        lazy.set_link_admin_down(l, down);
                        reference.set_link_admin_down(l, down);
                    }
                    _ => {
                        let dt = SimDuration::from_millis((sel as u64 % 900) + 100);
                        let da = lazy.advance(dt);
                        let db = reference.advance(dt);
                        prop_assert_eq!(&da, &db, "timed advance disagrees");
                        live.retain(|id| !da.contains(id));
                    }
                }
                assert_parity(&mut lazy, &mut reference, &live, &links)?;
            }
            Ok(())
        }

        /// Routes over the 4-spoke star (link `i` joins the hub to leaf
        /// `i + 1`): spoke-only and leaf-to-leaf paths, few enough that
        /// most flows share their route class with others.
        const STAR_ROUTES: [&[usize]; 6] = [&[0], &[1], &[0, 1], &[1, 2], &[2, 3], &[3, 0]];

        /// The route-class driver: a branching topology with a small
        /// route pool, so classes gain and lose many members. Besides the
        /// random adds, removes, capacity changes and advances it empties
        /// whole classes and re-opens them, and removes flows so that
        /// their slab slots get reused — then checks that every stale id
        /// stays `UnknownFlow` in both kernels and that new ids keep
        /// increasing.
        fn drive_classes(ops: &[(u8, usize, f64)]) -> Result<(), TestCaseError> {
            let topo = star(5, Mbps::new(4.0));
            let links: Vec<LinkId> = topo.link_ids().collect();
            let route_of = |sel: usize| -> Vec<LinkId> {
                STAR_ROUTES[sel % STAR_ROUTES.len()]
                    .iter()
                    .map(|&i| links[i])
                    .collect()
            };
            let mut lazy = FlowNetwork::with_kernel(topo.clone(), FlowKernel::Lazy);
            let mut reference = FlowNetwork::with_kernel(topo, FlowKernel::Reference);
            let mut live: Vec<FlowId> = Vec::new();
            let mut gone: Vec<FlowId> = Vec::new();
            let mut last: Option<FlowId> = None;
            for &(op, sel, val) in ops {
                let mut added = Vec::new();
                match op {
                    0 | 1 => {
                        let route = route_of(sel);
                        let a = lazy.add_flow(route.clone(), val).unwrap();
                        let b = reference.add_flow(route, val).unwrap();
                        prop_assert_eq!(a, b);
                        added.push(a);
                    }
                    2 if !live.is_empty() => {
                        let id = live.remove(sel % live.len());
                        let ra = lazy.remove_flow(id).unwrap();
                        let rb = reference.remove_flow(id).unwrap();
                        prop_assert!((ra - rb).abs() <= 1e-6, "remove {}: {} vs {}", id, ra, rb);
                        gone.push(id);
                    }
                    3 => {
                        // Empty a whole class, then re-open its route.
                        let route = route_of(sel);
                        let members: Vec<FlowId> = live
                            .iter()
                            .copied()
                            .filter(|&id| lazy.flow_links(id).unwrap() == route.as_slice())
                            .collect();
                        for id in members {
                            lazy.remove_flow(id).unwrap();
                            reference.remove_flow(id).unwrap();
                            live.retain(|&l| l != id);
                            gone.push(id);
                        }
                        prop_assert!(lazy
                            .flows_crossing(route[0])
                            .all(|id| { lazy.flow_links(id).unwrap() != route.as_slice() }));
                        let a = lazy.add_flow(route.clone(), val).unwrap();
                        let b = reference.add_flow(route, val).unwrap();
                        prop_assert_eq!(a, b);
                        added.push(a);
                    }
                    4 => {
                        if let Some((_, dt)) = lazy.next_completion() {
                            let da = lazy.advance(dt);
                            let db = reference.advance(dt);
                            prop_assert_eq!(&da, &db, "advance-to-completion disagrees");
                            live.retain(|id| !da.contains(id));
                            gone.extend(da);
                        }
                    }
                    5 => {
                        let l = links[sel % links.len()];
                        let bg = Mbps::new(val * 0.08);
                        lazy.set_background(l, bg);
                        reference.set_background(l, bg);
                    }
                    6 => {
                        let l = links[sel % links.len()];
                        let scale = if sel % 4 == 0 {
                            0.0
                        } else {
                            (val / 40.0).min(1.0)
                        };
                        lazy.set_link_capacity_scale(l, scale);
                        lazy.set_link_admin_down(l, sel % 3 == 0);
                        reference.set_link_capacity_scale(l, scale);
                        reference.set_link_admin_down(l, sel % 3 == 0);
                    }
                    7 if !live.is_empty() => {
                        // Free a slot and refill it at once: the newcomer
                        // reuses the slot under a fresh id.
                        let id = live.remove(sel % live.len());
                        lazy.remove_flow(id).unwrap();
                        reference.remove_flow(id).unwrap();
                        gone.push(id);
                        let a = if sel % 2 == 0 {
                            lazy.add_local_flow(val, Mbps::new(val)).unwrap()
                        } else {
                            lazy.add_flow(route_of(sel / 2), val).unwrap()
                        };
                        let b = if sel % 2 == 0 {
                            reference.add_local_flow(val, Mbps::new(val)).unwrap()
                        } else {
                            reference.add_flow(route_of(sel / 2), val).unwrap()
                        };
                        prop_assert_eq!(a, b);
                        prop_assert_eq!(a.slot(), id.slot(), "freed slot not reused");
                        added.push(a);
                    }
                    _ => {
                        let dt = SimDuration::from_millis((sel as u64 % 900) + 100);
                        let da = lazy.advance(dt);
                        let db = reference.advance(dt);
                        prop_assert_eq!(&da, &db, "timed advance disagrees");
                        live.retain(|id| !da.contains(id));
                        gone.extend(da);
                    }
                }
                for id in added {
                    prop_assert!(last < Some(id), "ids must keep increasing");
                    last = Some(id);
                    live.push(id);
                }
                for &id in &gone {
                    for net in [&mut lazy, &mut reference] {
                        prop_assert_eq!(net.rate(id), Err(FlowError::UnknownFlow(id)));
                        prop_assert_eq!(net.remaining_mbit(id), Err(FlowError::UnknownFlow(id)));
                        prop_assert_eq!(net.remove_flow(id), Err(FlowError::UnknownFlow(id)));
                    }
                }
                assert_parity(&mut lazy, &mut reference, &live, &links)?;
                // Memory follows the live flows.
                prop_assert!(lazy.slots.len() as u64 <= lazy.stats().peak_live_flows);
            }
            Ok(())
        }

        proptest! {
            #[test]
            fn lazy_and_reference_kernels_agree(
                ops in proptest::collection::vec((0u8..8, 0usize..100, 0.5f64..40.0), 1..60),
            ) {
                drive(&ops)?;
            }

            #[test]
            fn lazy_and_reference_kernels_agree_on_shared_route_classes(
                ops in proptest::collection::vec((0u8..9, 0usize..100, 0.5f64..40.0), 1..80),
            ) {
                drive_classes(&ops)?;
            }
        }
    }
}
