//! The three serve-mix workloads and the inputs each one is built from.
//!
//! Every workload is [`Scenario::scale_stress`] on GRNET (20 equal
//! 150 MB titles, Zipf 0.8 demand, a flat 600 s arrival window) served
//! by [`Vra::default`](vod_core::vra::Vra) on the `Lazy` flow kernel
//! with a 2 Mbps local streaming ceiling. They differ in how many
//! copies of each title are seeded, which fixes the serve mix, and in
//! whether a fault plan runs.
//!
//! A workload's seed names a fixed set of [`Workload::scenario_count`]
//! scenarios, the first generated from the seed itself. Contended runs
//! swing with the arrival draw, so the remote and chaos workloads pool
//! several independent scenarios per seed to keep their figures steady
//! from one seed to the next. For the same reason the chaos fault plans
//! do not follow the seed: scenario `i` always runs fault plan `i`, and
//! the seed only draws the arrivals.

use vod_core::service::{RetryPolicy, ServiceConfig};
use vod_net::{LinkId, Mbps, Topology};
use vod_sim::fault::{FaultKind, FaultPlan};
use vod_sim::{FlowKernel, SimDuration, SimTime};
use vod_workload::scenario::Scenario;

/// Fault windows drawn for `chaos-mixed`.
const CHAOS_FAULTS: usize = 12;

/// Retry budget of `chaos-mixed` sessions.
const CHAOS_RETRIES: u32 = 3;

/// The arrival window of [`Scenario::scale_stress`], over which the
/// chaos faults are drawn.
const ARRIVAL_WINDOW: SimDuration = SimDuration::from_secs(600);

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Six replicas of every title: every serve is local.
    Local,
    /// One replica of every title: most cluster fetches cross the
    /// backbone and contend for it.
    Remote,
    /// Four replicas plus a random fault plan and session retries.
    Chaos,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Local, Workload::Remote, Workload::Chaos];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Local => "local-100k",
            Workload::Remote => "remote-1k",
            Workload::Chaos => "chaos-mixed",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Target number of sessions per scenario (Poisson arrivals, so the
    /// actual count varies a little with the seed).
    pub fn default_sessions(self) -> usize {
        match self {
            Workload::Local => 100_000,
            Workload::Remote => 1_000,
            Workload::Chaos => 3_000,
        }
    }

    /// Independent scenarios one seed stands for.
    pub fn scenario_count(self) -> usize {
        match self {
            Workload::Local => 1,
            Workload::Remote => 16,
            Workload::Chaos => 6,
        }
    }

    /// Copies of each title seeded round-robin across the servers.
    pub fn initial_replicas(self) -> usize {
        match self {
            Workload::Local => 6,
            Workload::Remote => 1,
            Workload::Chaos => 4,
        }
    }

    /// Generates scenario `index` (below [`Workload::scenario_count`])
    /// of `seed`. Scenario 0 is generated from `seed` itself.
    pub fn scenario(self, seed: u64, index: usize, sessions: usize) -> Scenario {
        let seed = seed.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Scenario::scale_stress(seed, sessions)
    }

    /// The service configuration the workload runs its scenario `index`
    /// under.
    pub fn config(self, scenario: &Scenario, index: usize) -> ServiceConfig {
        let mut config = ServiceConfig {
            initial_replicas: self.initial_replicas(),
            local_rate: Mbps::new(2.0),
            flow_kernel: FlowKernel::Lazy,
            ..ServiceConfig::default()
        };
        if self == Workload::Chaos {
            config.fault_plan = chaos_plan(scenario, self.initial_replicas(), index);
            config.retry = RetryPolicy::with_attempts(CHAOS_RETRIES);
        }
        config
    }
}

/// Which of the four fault kinds a plan contains, in the order server
/// outage, link outage, link degradation, SNMP outage.
pub fn fault_kinds(plan: &FaultPlan) -> [bool; 4] {
    let mut seen = [false; 4];
    for window in plan.windows() {
        seen[kind_index(&window.kind)] = true;
    }
    seen
}

fn kind_index(kind: &FaultKind) -> usize {
    match kind {
        FaultKind::ServerOutage { .. } => 0,
        FaultKind::LinkOutage { .. } => 1,
        FaultKind::LinkDegrade { .. } => 2,
        FaultKind::SnmpOutage => 3,
    }
}

/// True when, at the start of some link outage no earlier than `after`,
/// every server is up but the links down at that instant cut the
/// network so that some title has no replica on one side. Clients there
/// streaming that title lose every route to it, the case that sends
/// sessions into the retry path. (GRNET survives any single link
/// outage, so only overlapping outages can do this.)
///
/// Replicas are placed as the service seeds them: title `j` on servers
/// `j, j + 1, ..., j + replicas - 1` (mod the server count) in
/// [`Topology::video_server_nodes`] order.
fn strands_titles(
    plan: &FaultPlan,
    topology: &Topology,
    titles: usize,
    replicas: usize,
    after: SimTime,
) -> bool {
    let windows = plan.windows();
    let covering = |at: SimTime| windows.iter().filter(move |w| w.start <= at && at < w.end);
    let servers = topology.video_server_nodes();
    if servers.is_empty() {
        return false;
    }
    let replicas = replicas.clamp(1, servers.len());
    windows
        .iter()
        .filter(|w| matches!(w.kind, FaultKind::LinkOutage { .. }) && w.start >= after)
        .any(|outage| {
            let at = outage.start;
            if covering(at).any(|w| matches!(w.kind, FaultKind::ServerOutage { .. })) {
                return false;
            }
            let down: Vec<LinkId> = covering(at)
                .filter_map(|w| match w.kind {
                    FaultKind::LinkOutage { link } => Some(link),
                    _ => None,
                })
                .collect();
            let side = components_without(topology, &down);
            (0..titles).any(|j| {
                let holders: Vec<usize> = (0..replicas)
                    .map(|k| side[servers[(j + k) % servers.len()].index()])
                    .collect();
                servers.iter().any(|s| !holders.contains(&side[s.index()]))
            })
        })
}

/// Component label of every node over the links not in `down`.
fn components_without(topology: &Topology, down: &[LinkId]) -> Vec<usize> {
    fn root(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut parent: Vec<usize> = (0..topology.node_count()).collect();
    for id in topology.link_ids().filter(|id| !down.contains(id)) {
        let link = topology.link(id);
        let a = root(&mut parent, link.a().index());
        let b = root(&mut parent, link.b().index());
        parent[a] = b;
    }
    (0..parent.len()).map(|x| root(&mut parent, x)).collect()
}

/// Fault plan `index` of `chaos-mixed`: [`FaultPlan::random`] over the
/// arrival window. A draw that leaves out a fault kind, or never
/// strands a title (cuts the network so that some title is unreachable
/// from one side while every server is up) once a tenth of the window
/// has passed, is replaced by the next draw. So every fault kind and
/// the retry path are exercised, and an index always gives the same
/// plan.
///
/// # Panics
///
/// Panics if no such plan turns up in 10 000 draws, which would take a
/// topology without two disjoint paths to cut.
pub fn chaos_plan(scenario: &Scenario, replicas: usize, index: usize) -> FaultPlan {
    let start = SimTime::ZERO;
    let end = start + ARRIVAL_WINDOW;
    let after = start + SimDuration::from_micros(ARRIVAL_WINDOW.as_micros() / 10);
    let topology = scenario.topology();
    let titles = scenario.library().len();
    (0..10_000)
        .map(|k| (index as u64) * 10_000 + k)
        .map(|draw| FaultPlan::random(draw, topology, start, end, CHAOS_FAULTS))
        .find(|plan| {
            fault_kinds(plan).iter().all(|&seen| seen)
                && strands_titles(plan, topology, titles, replicas, after)
        })
        .expect("a fault plan covering every kind and stranding a title")
}
