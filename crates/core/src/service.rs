//! The end-to-end VoD service simulation.
//!
//! [`VodService`] wires every substrate together the way the paper's
//! architecture diagram does:
//!
//! * a [`FlowNetwork`] carries video transfers and diurnal background
//!   traffic over the topology;
//! * an [`SnmpSystem`] periodically averages link counters into the
//!   limited-access [`Database`] (so the routing application always works
//!   from *slightly stale* state, as in the real service);
//! * one [`DmaCache`] per video server runs the Disk Manipulation
//!   Algorithm on every incoming request;
//! * a pluggable [`ServerSelector`] (the VRA or a baseline) picks the
//!   source server — re-evaluated before *every cluster* when dynamic
//!   re-routing is on, which is the paper's headline feature;
//! * [`Session`]s track playout, stalls and switches, producing
//!   [`QosRecord`]s aggregated into a [`ServiceReport`].
//!
//! The simulation is a deterministic discrete-event program: same
//! scenario + same selector + same config → identical report.
//!
//! The service is additionally generic over an [`EventSink`]: with the
//! default [`NullSink`] every emission site folds away at compile time;
//! with a recording sink ([`vod_obs::RingRecorder`],
//! [`vod_obs::JsonlWriter`]) each DMA decision, VRA selection, session
//! incident and SNMP poll produces a typed, sim-time-stamped
//! [`vod_obs::Event`]. Traces inherit the determinism guarantee: same
//! inputs → byte-identical JSONL.

use std::collections::{BTreeMap, BTreeSet};

use vod_db::{AdminCredential, Database, LimitedAccess};
use vod_net::{LinkId, Mbps, NodeId, Route, Topology};
use vod_obs::{Event as ObsEvent, EventSink, MetricsRegistry, NullSink, RunReport, RunSummary};
use vod_sim::engine::{Model, Simulation};
use vod_sim::fault::{FaultKind, FaultPlan};
use vod_sim::flow::{FlowId, FlowKernel, FlowNetwork, FlowStats, COMPLETION_CHECK_SLACK};
use vod_sim::metrics::{Summary, TimeSeries};
use vod_sim::scheduler::Scheduler;
use vod_sim::traffic::BackgroundModel;
use vod_sim::{SimDuration, SimTime};
use vod_snmp::SnmpSystem;
use vod_storage::cluster::ClusterSize;
use vod_storage::dma::{DmaCache, DmaConfig, DmaDecision, DmaStats, EvictionMode};
use vod_storage::prefix::{PrefixConfig, PrefixDecision, PrefixStats, PrefixStore};
use vod_storage::video::{Megabytes, VideoId, VideoMeta};
use vod_workload::scenario::Scenario;
use vod_workload::trace::RequestTrace;

use crate::error::CoreError;
use crate::qos::{PrefixTierReport, QosRecord, ServiceReport};
use crate::selection::{SelectionContext, ServerSelector};
use crate::session::{Session, SessionId};

/// The service's administrative view of the shared database. The
/// credential is registered at construction and never revoked, so the
/// access check cannot fail for a live model; this is the one documented
/// `expect` behind every catalog mutation (allowlisted for `vod-check
/// lint`).
fn catalog<'a>(db: &'a mut Database, admin: &AdminCredential) -> LimitedAccess<'a> {
    db.limited_access(admin)
        .expect("service admin is registered")
}

/// Session retry policy: how a session survives a transient fetch
/// failure (dead source, unreachable replica) instead of aborting on the
/// spot.
///
/// With `max_attempts = 0` (the default) every fetch failure aborts the
/// session immediately — the pre-retry behaviour. With a nonzero budget
/// the session re-runs the selector after a deterministic sim-time
/// backoff (`attempt × backoff`, linear), aborting only when the attempt
/// budget is exhausted or the next re-attempt would overrun the stall
/// budget measured from the first failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Bounded number of re-attempts per failure episode (0 = abort
    /// instantly).
    pub max_attempts: u32,
    /// Base backoff; attempt `n` waits `n × backoff` before re-selecting.
    pub backoff: SimDuration,
    /// Ceiling on the whole episode: a re-attempt that would land after
    /// `first_failure + stall_budget` aborts instead.
    pub stall_budget: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 0,
            backoff: SimDuration::from_secs(2),
            stall_budget: SimDuration::from_mins(5),
        }
    }
}

impl RetryPolicy {
    /// A policy that retries up to `max_attempts` times with the default
    /// backoff and stall budget.
    pub fn with_attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        }
    }
}

/// Tunables of the regional prefix-caching tier: every video-server
/// node doubles as a regional proxy holding popularity-sized title
/// *prefixes*. A request whose prefix is resident streams its leading
/// clusters from the proxy at local rate while the VRA concurrently
/// fetches the suffix from the selected origin — startup no longer
/// waits on the backbone, and the prefix volume never crosses it.
///
/// Disabled (`ServiceConfig::prefix_tier = None`) the service is
/// byte-identical to the paper-exact pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefixTierConfig {
    /// Prefix space per proxy.
    pub capacity: Megabytes,
    /// Points a title must *exceed* before its prefix is admitted.
    pub admit_threshold: u64,
    /// Prefix length granted at admission, in clusters.
    pub base_clusters: u32,
    /// Popularity-driven ceiling on any prefix length, in clusters.
    pub max_clusters: u32,
    /// Additional points per additional cluster of prefix (0 = prefixes
    /// never grow past `base_clusters`).
    pub growth_points: u64,
    /// Rate at which a proxy streams prefix clusters to its clients
    /// (the regional access loop, not the backbone).
    pub proxy_rate: Mbps,
}

impl Default for PrefixTierConfig {
    fn default() -> Self {
        let store = PrefixConfig::default();
        PrefixTierConfig {
            capacity: store.capacity,
            admit_threshold: store.admit_threshold,
            base_clusters: store.base_clusters,
            max_clusters: store.max_clusters,
            growth_points: store.growth_points,
            proxy_rate: Mbps::new(100.0),
        }
    }
}

impl PrefixTierConfig {
    /// The per-proxy store configuration (the service's cluster size is
    /// also the prefix granularity).
    fn store_config(&self, cluster: ClusterSize) -> PrefixConfig {
        PrefixConfig {
            capacity: self.capacity,
            cluster_size: cluster,
            admit_threshold: self.admit_threshold,
            base_clusters: self.base_clusters,
            max_clusters: self.max_clusters,
            growth_points: self.growth_points,
        }
    }
}

/// Tunables of a service run.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The common cluster size `c` (also the DMA stripe cluster).
    pub cluster: ClusterSize,
    /// Re-run the selector before every cluster (the paper's dynamic
    /// mid-stream switching); `false` = select once per session.
    pub dynamic_rerouting: bool,
    /// SNMP polling interval (the paper suggests 1–2 minutes).
    pub snmp_interval: SimDuration,
    /// How often diurnal background traffic is re-applied to the network.
    pub background_interval: SimDuration,
    /// Ceiling on the rate at which a home server streams from its own
    /// disks (bus/NIC bound); the actual local rate is the smaller of
    /// this and the striped disk throughput of the title's layout.
    pub local_rate: Mbps,
    /// Per-disk seek/transfer model used to derive local serve rates
    /// from each title's stripe layout (Figure 3's parallelism).
    pub disk_io: vod_storage::io_model::DiskIoModel,
    /// Disks per video server.
    pub disk_count: usize,
    /// VoD space per disk.
    pub disk_capacity: Megabytes,
    /// DMA admission threshold (0 = Figure 2 verbatim).
    pub dma_admit_threshold: u64,
    /// DMA eviction mode.
    pub dma_eviction: EvictionMode,
    /// Initial copies of each title, placed round-robin across servers.
    pub initial_replicas: usize,
    /// Optional admission control enforcing the paper's "minimum QoS"
    /// floor: a request is only admitted when the selected route has
    /// bitrate headroom (`None` = admit everything, as the paper's
    /// routing-only design does).
    pub admission: Option<crate::admission::AdmissionPolicy>,
    /// Optional EWMA smoothing of the SNMP view the selector sees
    /// (`Some(alpha)`, `alpha ∈ (0, 1]`): routing decisions use the
    /// moving average of each link's reading history instead of the
    /// latest poll — an anti-thrash ablation for the staleness problem.
    pub snmp_smoothing: Option<f64>,
    /// Scheduled server outages, `(down_at, up_at, node)`. While down, a
    /// server provides no titles (its catalog entries are withdrawn, its
    /// cache is cold on recovery) and in-flight transfers from it are
    /// re-routed — the "dynamic adjustment to server configuration
    /// changes" the paper advertises.
    pub failures: Vec<(SimTime, SimTime, NodeId)>,
    /// Deterministic fault-injection plan (link outages and flaps,
    /// bandwidth degradation, SNMP-poller outages, server crashes).
    /// [`ServiceConfig::failures`] entries are folded into this plan as
    /// [`FaultKind::ServerOutage`] windows at construction, so both
    /// knobs share one scheduling and accounting path.
    pub fault_plan: FaultPlan,
    /// How sessions respond to transient fetch failures (default:
    /// instant abort, the pre-retry behaviour).
    pub retry: RetryPolicy,
    /// Hard stop for recurring events after the last arrival (stalled
    /// zero-rate sessions past this point are reported as unfinished).
    pub drain_grace: SimDuration,
    /// Which flow-accounting kernel the fluid network runs
    /// ([`FlowKernel::Lazy`] by default; [`FlowKernel::Reference`] keeps
    /// the naive `O(flows)`-per-event kernel for baselining).
    pub flow_kernel: FlowKernel,
    /// Optional regional prefix-caching tier (`None` = paper-exact:
    /// every cluster comes from the selected origin server).
    pub prefix_tier: Option<PrefixTierConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cluster: ClusterSize::default(),
            dynamic_rerouting: true,
            snmp_interval: SimDuration::from_mins(2),
            background_interval: SimDuration::from_mins(1),
            local_rate: Mbps::new(100.0),
            disk_io: vod_storage::io_model::DiskIoModel::default(),
            disk_count: 4,
            disk_capacity: Megabytes::new(20_000.0),
            dma_admit_threshold: 0,
            dma_eviction: EvictionMode::SingleAttempt,
            initial_replicas: 1,
            admission: None,
            snmp_smoothing: None,
            failures: Vec::new(),
            fault_plan: FaultPlan::new(),
            retry: RetryPolicy::default(),
            drain_grace: SimDuration::from_secs(24 * 3600),
            flow_kernel: FlowKernel::Lazy,
            prefix_tier: None,
        }
    }
}

/// Events driving the service simulation.
#[derive(Debug)]
enum Event {
    /// The `idx`-th request of the trace arrives.
    Arrival(usize),
    /// Re-check flow completions at the next predicted finish instant.
    /// Stale checks are harmless no-ops (`advance_to` has already
    /// collected anything due), so the event carries no version.
    FlowCheck,
    /// A session finished playing its current cluster.
    PlayoutTick(SessionId),
    /// Periodic SNMP poll.
    SnmpPoll,
    /// Periodic background-traffic refresh.
    BackgroundUpdate,
    /// A video server goes down.
    ServerDown(NodeId),
    /// A failed video server comes back (with a cold cache).
    ServerUp(NodeId),
    /// A link outage window opens.
    LinkDown(LinkId),
    /// A link outage window closes.
    LinkUp(LinkId),
    /// A link degradation window opens (remaining capacity fraction).
    DegradeStart(LinkId, f64),
    /// A link degradation window closes (carries the factor it applied).
    DegradeEnd(LinkId, f64),
    /// The SNMP poller goes dark: scheduled polls are skipped.
    SnmpOutageStart,
    /// The SNMP poller recovers.
    SnmpOutageEnd,
    /// A session re-attempts a failed cluster fetch after backoff.
    RetryFetch(SessionId),
}

/// Per-session retry bookkeeping for the current failure episode.
#[derive(Debug, Clone, Copy)]
struct RetryState {
    /// Re-attempts consumed so far.
    attempts: u32,
    /// When the episode began (anchors the stall budget).
    first_failure: SimTime,
}

/// Progress of one session's proxy-streamed prefix phase. Lives in
/// `ServiceModel::prefix_progress` exactly while prefix clusters are
/// still in flight; its removal is what re-opens the suffix chain.
#[derive(Debug, Clone, Copy)]
struct PrefixProgress {
    /// Clusters the proxy committed to stream (the session's home is
    /// the proxy, so a home-server failure tears the phase down with
    /// the session itself).
    served: usize,
    /// Prefix clusters fully delivered so far.
    fetched: usize,
}

/// The simulation model (internal state of a [`VodService`] run).
struct ServiceModel<S: EventSink> {
    topology: Topology,
    config: ServiceConfig,
    flows: FlowNetwork,
    snmp: SnmpSystem,
    db: Database,
    admin: AdminCredential,
    caches: BTreeMap<NodeId, DmaCache>,
    selector: Box<dyn ServerSelector>,
    background: BackgroundModel,
    trace: RequestTrace,
    sessions: BTreeMap<SessionId, Session>,
    session_routes: BTreeMap<SessionId, Route>,
    flow_sessions: BTreeMap<FlowId, SessionId>,
    cache_on_complete: BTreeMap<SessionId, bool>,
    /// Per-proxy prefix stores (empty when the tier is disabled; a
    /// store vanishes with its server and rejoins cold, like the DMA).
    prefix_stores: BTreeMap<NodeId, PrefixStore>,
    /// Local flows carrying prefix clusters, keyed back to sessions.
    prefix_flows: BTreeMap<FlowId, SessionId>,
    /// Sessions whose prefix phase is still streaming.
    prefix_progress: BTreeMap<SessionId, PrefixProgress>,
    /// Sessions whose concurrent suffix cluster landed *before* the
    /// prefix drained: accounting is deferred until the prefix
    /// completes, because playout needs contiguous clusters.
    suffix_deferred: BTreeSet<SessionId>,
    /// Outage depth per down server: overlapping windows nest, and a
    /// server only revives when its depth returns to zero.
    down: BTreeMap<NodeId, u32>,
    /// Outage depth per admin-down link (absent = up).
    link_down: BTreeMap<LinkId, u32>,
    /// Active degradation factors per link; the effective capacity scale
    /// is the minimum of the open windows (1.0 when none).
    degrade: BTreeMap<LinkId, Vec<f64>>,
    /// Open SNMP-poller outage windows; polls are skipped while nonzero.
    snmp_outages: u32,
    /// Bumped whenever a link's admin state changes, so the cached
    /// selector snapshot is rebuilt with the new overlay.
    link_admin_epoch: u64,
    /// Sessions mid-retry, keyed by session.
    retry: BTreeMap<SessionId, RetryState>,
    /// The database snapshot the selector sees, cached per
    /// ([`Database::traffic_version`], link-admin epoch). Requests
    /// between SNMP polls reuse the same snapshot *instance*, so its
    /// epoch token stays stable and the VRA's routing engine serves them
    /// from its weight and shortest-path caches.
    db_snap_cache: Option<((u64, u64), vod_net::TrafficSnapshot)>,
    /// Reused buffer for the instantaneous utilization samples taken at
    /// each SNMP poll (avoids one snapshot allocation per poll).
    live_snap: vod_net::TrafficSnapshot,
    retired_dma: DmaStats,
    /// Stats of prefix stores retired by server failures.
    retired_prefix: PrefixStats,
    /// Clusters streamed by the proxies over the whole run.
    prefix_served_clusters: u64,
    /// Megabits the proxies streamed — volume the backbone never saw.
    prefix_served_mbit: f64,
    /// Sessions fully covered by a resident prefix (no origin fetch).
    full_prefix_sessions: u64,
    records: Vec<QosRecord>,
    failed_requests: u64,
    rejected_requests: u64,
    aborted_sessions: u64,
    arrivals_remaining: usize,
    next_session: u64,
    last_sync: SimTime,
    /// The instant of the already-scheduled pending flow check, if any —
    /// lets `schedule_flow_check` skip duplicate events when the
    /// prediction is unchanged (every handler re-checks, but between
    /// completions the predicted instant rarely moves).
    scheduled_check: Option<SimTime>,
    /// Reused buffer for flow completions per `advance_to` call.
    done_scratch: Vec<FlowId>,
    /// High-water mark of concurrently live sessions.
    peak_sessions: usize,
    recurring_deadline: SimTime,
    max_util_series: TimeSeries,
    mean_util_series: TimeSeries,
    seed: u64,
    /// Where trace events go; [`NullSink`] compiles the emission sites
    /// away entirely.
    sink: S,
    /// Always-on distribution bookkeeping feeding [`RunReport`].
    registry: MetricsRegistry,
}

impl<S: EventSink> ServiceModel<S> {
    /// Advances the fluid network and SNMP counters to `now`, processing
    /// any flow completions that occurred in between.
    fn advance_to(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        // Events scheduled before the trace window opens (e.g. an outage
        // configured ahead of the first arrival) fire while `last_sync`
        // still sits at the window start; no fluid time has passed.
        if now <= self.last_sync {
            return;
        }
        let dt = now.duration_since(self.last_sync);
        if dt.is_zero() {
            return;
        }
        // The flow network maintains the SNMP volume integrals itself;
        // completions land in a reused scratch buffer.
        let mut done = std::mem::take(&mut self.done_scratch);
        self.flows.advance_into(dt, &mut done);
        self.last_sync = now;
        for &flow in &done {
            self.on_flow_complete(now, flow, sched);
        }
        done.clear();
        self.done_scratch = done;
    }

    /// Schedules a flow-completion check just after the next predicted
    /// completion (skipped when that exact check is already pending —
    /// stale checks are no-ops, so duplicates are only queue noise).
    fn schedule_flow_check(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        if let Some((_, dt)) = self.flows.next_completion() {
            // The slack absorbs the prediction's µs rounding,
            // guaranteeing the completion has happened by the time the
            // check fires (see `COMPLETION_CHECK_SLACK`).
            let at = now + dt + COMPLETION_CHECK_SLACK;
            if self.scheduled_check != Some(at) {
                self.scheduled_check = Some(at);
                sched.schedule(at, Event::FlowCheck);
            }
        }
    }

    fn has_pending_work(&self) -> bool {
        self.arrivals_remaining > 0 || !self.sessions.is_empty()
    }

    fn reschedule_recurring(
        &self,
        now: SimTime,
        interval: SimDuration,
        make: impl FnOnce() -> Event,
        sched: &mut Scheduler<Event>,
    ) {
        let at = now + interval;
        if at <= self.recurring_deadline && self.has_pending_work() {
            sched.schedule(at, make());
        }
    }

    /// Ensures the cached database snapshot matches the database's
    /// current traffic version, rebuilding it only after an SNMP poll
    /// actually recorded new readings. The cached *instance* is what
    /// makes the routing engine's epoch cache effective: every request
    /// between two polls sees the same snapshot token and version.
    fn refresh_db_snapshot(&mut self, now: SimTime) {
        let key = (self.db.traffic_version(), self.link_admin_epoch);
        if matches!(&self.db_snap_cache, Some((k, _)) if *k == key) {
            return;
        }
        let la = catalog(&mut self.db, &self.admin);
        let mut snap = match self.config.snmp_smoothing {
            Some(alpha) => la.smoothed_snapshot(&self.topology, alpha),
            None => la.snapshot(&self.topology),
        };
        // Overlay the links the service knows to be down: SNMP readings
        // lag the outage, but routing must detour immediately.
        for &link in self.link_down.keys() {
            snap.set_admin_down(link, true);
        }
        // Every rebuild is traced: the auditor reconstructs exactly the
        // view the selector works from until the next rebuild.
        if self.sink.enabled() {
            let links = self.topology.link_count();
            let mut used = Vec::with_capacity(links);
            let mut utilization = Vec::with_capacity(links);
            for link in self.topology.link_ids() {
                used.push(snap.used(link).as_f64());
                utilization.push(snap.utilization(&self.topology, link).get());
            }
            let down: Vec<u64> = self.link_down.keys().map(|l| l.index() as u64).collect();
            self.sink.record(
                now,
                &ObsEvent::LinkState {
                    used,
                    utilization,
                    down,
                },
            );
        }
        self.db_snap_cache = Some((key, snap));
    }

    /// Runs the selector for `video` on behalf of a client homed at
    /// `home`. The second element reports whether the selector's routing
    /// engine answered from cache (always `false` for engine-less
    /// baselines) — it tags the `vra_select` trace events.
    fn select_source(
        &mut self,
        now: SimTime,
        home: NodeId,
        video: VideoId,
    ) -> Option<(crate::selection::Selection, bool)> {
        let candidates = self.db.full_access().servers_with_title(video);
        if candidates.is_empty() {
            return None;
        }
        self.refresh_db_snapshot(now);
        let ServiceModel {
            topology,
            selector,
            db_snap_cache,
            ..
        } = self;
        let (_, snapshot) = db_snap_cache.as_ref()?;
        let ctx = SelectionContext {
            topology,
            snapshot,
            home,
            candidates: &candidates,
        };
        let before = selector.engine_stats();
        let selection = selector.select(&ctx).ok()?;
        let cache_hit = match (before, selector.engine_stats()) {
            (Some(b), Some(a)) => {
                a.path_cache_hits > b.path_cache_hits || a.local_hits > b.local_hits
            }
            _ => false,
        };
        Some((selection, cache_hit))
    }

    /// Starts fetching the next cluster of `sid`, re-running the selector
    /// when dynamic re-routing is enabled. A fetch failure (no reachable
    /// replica, dead source) goes through the retry policy instead of
    /// aborting unconditionally.
    fn start_cluster_fetch(&mut self, now: SimTime, sid: SessionId, sched: &mut Scheduler<Event>) {
        let (home, video, idx) = {
            let sess = match self.sessions.get(&sid) {
                Some(s) => s,
                None => return,
            };
            match sess.next_cluster() {
                Some(idx) => (sess.home(), sess.video(), idx),
                None => return,
            }
        };

        let route = if self.config.dynamic_rerouting || !self.session_routes.contains_key(&sid) {
            match self.select_source(now, home, video) {
                Some((sel, cache_hit)) => {
                    if self.sink.enabled() {
                        self.sink.record(
                            now,
                            &ObsEvent::VraSelect {
                                session: sid.0,
                                cluster: idx as u64,
                                video,
                                home,
                                server: sel.server,
                                cost: sel.route.cost(),
                                cache_hit,
                                local: sel.is_local(),
                            },
                        );
                    }
                    sel.route
                }
                None => {
                    // Mid-stream loss of every replica: retry (transient
                    // outages heal) or abort once the budget is spent.
                    self.handle_fetch_failure(now, sid, sched);
                    return;
                }
            }
        } else {
            self.session_routes[&sid].clone()
        };

        self.registry.record_fetch_cost(route.cost());
        let volume = {
            let Some(sess) = self.sessions.get_mut(&sid) else {
                return;
            };
            let from = sess.current_server();
            let switched = sess.assign_server(route.target(), route.hops() == 0);
            if switched {
                self.registry.record_switch();
                if self.sink.enabled() {
                    // `from` is always present here: a first assignment is
                    // not reported as a switch.
                    if let Some(from) = from {
                        self.sink.record(
                            now,
                            &ObsEvent::Switch {
                                session: sid.0,
                                cluster: idx as u64,
                                from,
                                to: route.target(),
                            },
                        );
                    }
                }
            }
            sess.cluster_volume_mbit(idx)
        };
        match self.launch_flow(home, video, &route, volume) {
            Some(flow) => {
                self.flow_sessions.insert(flow, sid);
                self.session_routes.insert(sid, route);
                // A successful launch closes the failure episode.
                self.retry.remove(&sid);
            }
            None => self.handle_fetch_failure(now, sid, sched),
        }
    }

    /// Applies the retry policy to a failed cluster fetch: schedule a
    /// backed-off re-attempt while budget remains, abort otherwise with
    /// the exact exhaustion reason.
    fn handle_fetch_failure(&mut self, now: SimTime, sid: SessionId, sched: &mut Scheduler<Event>) {
        let policy = self.config.retry;
        if policy.max_attempts == 0 {
            self.abort_session(now, sid, "no_source");
            return;
        }
        let state = self.retry.get(&sid).copied().unwrap_or(RetryState {
            attempts: 0,
            first_failure: now,
        });
        if state.attempts >= policy.max_attempts {
            self.abort_session(now, sid, "retry_exhausted");
            return;
        }
        let attempt = state.attempts + 1;
        let backoff =
            SimDuration::from_micros(policy.backoff.as_micros().saturating_mul(attempt as u64));
        let resume_at = now + backoff;
        if resume_at.duration_since(state.first_failure) > policy.stall_budget {
            self.abort_session(now, sid, "stall_budget");
            return;
        }
        self.retry.insert(
            sid,
            RetryState {
                attempts: attempt,
                first_failure: state.first_failure,
            },
        );
        if self.sink.enabled() {
            self.sink.record(
                now,
                &ObsEvent::SessionRetry {
                    session: sid.0,
                    attempt,
                    backoff,
                },
            );
        }
        sched.schedule(resume_at, Event::RetryFetch(sid));
    }

    /// A backed-off re-attempt fires: re-run the selector for the
    /// session's pending cluster (a no-op when the session ended in the
    /// meantime).
    fn on_retry_fetch(&mut self, now: SimTime, sid: SessionId, sched: &mut Scheduler<Event>) {
        if !self.sessions.contains_key(&sid) {
            self.retry.remove(&sid);
            return;
        }
        self.start_cluster_fetch(now, sid, sched);
    }

    /// Drops a session mid-stream, counting and tracing the abort with
    /// its cause (`home_down`, `no_source`, `retry_exhausted` or
    /// `stall_budget`).
    fn abort_session(&mut self, now: SimTime, sid: SessionId, reason: &str) {
        self.drop_session(sid);
        self.retry.remove(&sid);
        self.aborted_sessions += 1;
        if self.sink.enabled() {
            self.sink.record(
                now,
                &ObsEvent::SessionAborted {
                    session: sid.0,
                    reason: reason.to_string(),
                },
            );
        }
    }

    /// Withdraws titles from the shared catalog (evictions, failures),
    /// tracing each entry that was actually removed.
    fn withdraw_titles(&mut self, now: SimTime, server: NodeId, victims: &[VideoId]) {
        for &victim in victims {
            let removed = catalog(&mut self.db, &self.admin).remove_title(server, victim);
            if matches!(removed, Ok(true)) && self.sink.enabled() {
                self.sink.record(
                    now,
                    &ObsEvent::CatalogRemove {
                        server,
                        video: victim,
                    },
                );
            }
        }
    }

    /// Starts the transfer of one cluster: a network flow along `route`,
    /// or a disk-limited local flow when the home serves itself. `None`
    /// (an empty cluster or a route foreign to the flow network — neither
    /// arises for sessions built from library titles) aborts the session
    /// at the caller.
    fn launch_flow(
        &mut self,
        home: NodeId,
        video: VideoId,
        route: &Route,
        volume_mbit: f64,
    ) -> Option<FlowId> {
        if route.hops() == 0 {
            let rate = self.local_serve_rate(home, video);
            self.flows.add_local_flow(volume_mbit, rate).ok()
        } else {
            self.flows
                .add_flow(route.links().to_vec(), volume_mbit)
                .ok()
        }
    }

    /// Local serve rate: striped disk throughput of the title's layout
    /// (converted MB/s → Mbps), capped by the configured ceiling. Falls
    /// back to the ceiling when the layout is unknown (title still being
    /// assembled).
    fn local_serve_rate(&self, home: NodeId, video: vod_storage::video::VideoId) -> Mbps {
        let ceiling = self.config.local_rate.as_f64();
        let disk_mbps = self
            .caches
            .get(&home)
            .and_then(|c| c.array().layout(video).cloned())
            .and_then(|layout| {
                self.db.library().get(video).map(|meta| {
                    self.config
                        .disk_io
                        .striped_throughput_mb_per_s(&layout, meta.size())
                        * 8.0
                })
            })
            .unwrap_or(ceiling);
        Mbps::new(disk_mbps.min(ceiling).max(0.0))
    }

    /// One cluster finished transferring.
    fn on_flow_complete(&mut self, now: SimTime, flow: FlowId, sched: &mut Scheduler<Event>) {
        if let Some(sid) = self.prefix_flows.remove(&flow) {
            self.on_prefix_cluster_done(now, sid, sched);
            return;
        }
        let sid = match self.flow_sessions.remove(&flow) {
            Some(s) => s,
            None => return,
        };
        if self.prefix_progress.contains_key(&sid) {
            // The concurrent suffix cluster landed while the prefix is
            // still streaming. Playout needs contiguous clusters, so
            // its accounting waits for the prefix to drain.
            self.suffix_deferred.insert(sid);
            return;
        }
        let Some(fetch_complete) = self.account_cluster_fetched(now, sid, sched) else {
            return;
        };
        if fetch_complete {
            self.advertise_assembled_title(now, sid);
        } else {
            self.start_cluster_fetch(now, sid, sched);
        }
    }

    /// Books one delivered cluster on the session: playout start on the
    /// first cluster, stall resume otherwise, plus their trace events.
    /// Returns whether the session's fetch phase is now complete
    /// (`None` when the session no longer exists).
    fn account_cluster_fetched(
        &mut self,
        now: SimTime,
        sid: SessionId,
        sched: &mut Scheduler<Event>,
    ) -> Option<bool> {
        let (first, stalled, played, fetch_complete) = {
            let sess = self.sessions.get_mut(&sid)?;
            let first = sess.on_cluster_fetched(now);
            (
                first,
                sess.is_stalled(),
                sess.clusters_played(),
                sess.fetch_complete(),
            )
        };

        if first {
            if let Some(sess) = self.sessions.get_mut(&sid) {
                sess.start_playing();
                let startup = sess.startup_delay().unwrap_or(SimDuration::ZERO);
                let dt = sess.cluster_play_time(0);
                sched.schedule(now + dt, Event::PlayoutTick(sid));
                self.registry.record_startup(startup);
                if self.sink.enabled() {
                    self.sink.record(
                        now,
                        &ObsEvent::SessionStart {
                            session: sid.0,
                            startup,
                        },
                    );
                }
            }
        } else if stalled {
            if let Some(sess) = self.sessions.get_mut(&sid) {
                let stalled_for = sess.resume(now);
                let dt = sess.cluster_play_time(played);
                sched.schedule(now + dt, Event::PlayoutTick(sid));
                self.registry.record_stall(stalled_for);
                if self.sink.enabled() {
                    self.sink.record(
                        now,
                        &ObsEvent::SessionResume {
                            session: sid.0,
                            stalled: stalled_for,
                        },
                    );
                }
            }
        }

        Some(fetch_complete)
    }

    /// The home server finished assembling the title; if the DMA
    /// admitted it at request time, it is now advertised.
    fn advertise_assembled_title(&mut self, now: SimTime, sid: SessionId) {
        if self.cache_on_complete.remove(&sid).unwrap_or(false) {
            let home_video = self.sessions.get(&sid).map(|s| (s.home(), s.video()));
            if let Some((home, video)) = home_video {
                if self
                    .caches
                    .get(&home)
                    .map(|c| c.contains(video))
                    .unwrap_or(false)
                {
                    let added = catalog(&mut self.db, &self.admin).add_title(home, video);
                    if matches!(added, Ok(true)) && self.sink.enabled() {
                        self.sink.record(
                            now,
                            &ObsEvent::CatalogAdd {
                                server: home,
                                video,
                            },
                        );
                    }
                }
            }
        }
    }

    /// One proxy-streamed prefix cluster was delivered: account it,
    /// stream the next reserved cluster, and when the prefix drains
    /// release any suffix cluster whose accounting was deferred.
    fn on_prefix_cluster_done(
        &mut self,
        now: SimTime,
        sid: SessionId,
        sched: &mut Scheduler<Event>,
    ) {
        let Some(fetch_complete) = self.account_cluster_fetched(now, sid, sched) else {
            self.prefix_progress.remove(&sid);
            self.suffix_deferred.remove(&sid);
            return;
        };
        let Some(prog) = self.prefix_progress.get_mut(&sid) else {
            return;
        };
        prog.fetched += 1;
        if prog.fetched < prog.served {
            let next = prog.fetched;
            self.launch_prefix_cluster(now, sid, next);
            return;
        }
        // Prefix phase drained: the suffix chain owns the session again.
        self.prefix_progress.remove(&sid);
        if fetch_complete {
            // The prefix covered the whole title; nothing left to fetch.
            self.advertise_assembled_title(now, sid);
        } else if self.suffix_deferred.remove(&sid) {
            match self.account_cluster_fetched(now, sid, sched) {
                Some(true) => self.advertise_assembled_title(now, sid),
                Some(false) => self.start_cluster_fetch(now, sid, sched),
                None => {}
            }
        }
        // Otherwise the concurrent suffix cluster is still in flight;
        // its completion resumes the normal sequential chain.
    }

    /// Starts the local flow streaming prefix cluster `index` from the
    /// session's proxy. A launch failure is a dead proxy disk in
    /// disguise and aborts the session like any unreachable source.
    fn launch_prefix_cluster(&mut self, now: SimTime, sid: SessionId, index: usize) {
        let volume = {
            let Some(sess) = self.sessions.get_mut(&sid) else {
                return;
            };
            if index > 0 {
                // Cluster 0 was counted by the arrival-time proxy
                // assignment; later prefix clusters are still local.
                sess.count_local_cluster();
            }
            sess.cluster_volume_mbit(index)
        };
        let rate = self
            .config
            .prefix_tier
            .map(|t| t.proxy_rate)
            .unwrap_or(self.config.local_rate);
        match self.flows.add_local_flow(volume, rate) {
            Ok(flow) => {
                self.prefix_flows.insert(flow, sid);
                self.prefix_served_clusters += 1;
                self.prefix_served_mbit += volume;
            }
            Err(_) => self.abort_session(now, sid, "no_source"),
        }
    }

    /// Runs the prefix store at `server` for one request, emitting the
    /// decision's trace events (mirroring `emit_dma_decision`), and
    /// returns how many leading clusters the proxy will stream for this
    /// session (0 = prefix miss or tier disabled).
    fn prefix_decision(&mut self, now: SimTime, server: NodeId, meta: &VideoMeta) -> usize {
        let Some(store) = self.prefix_stores.get_mut(&server) else {
            return 0;
        };
        let traced = self.sink.enabled();
        // Victim sizes must be read before the store mutates: the evict
        // events report exactly the megabytes each deletion freed.
        let pre_sizes: BTreeMap<VideoId, f64> = if traced {
            store
                .resident_ids()
                .map(|id| (id, store.resident_mb(id)))
                .collect()
        } else {
            BTreeMap::new()
        };
        let decision = store.on_request(meta);
        let occupancy_mb = store.occupied_mb();
        let stored_mb = store.resident_mb(meta.id());
        let serve = decision.serve_clusters() as usize;
        if !traced {
            return serve;
        }
        use vod_obs::DmaRejectKind;
        use vod_storage::prefix::PrefixRejectReason;
        let video = meta.id();
        match &decision {
            PrefixDecision::Hit { clusters } => {
                self.sink.record(
                    now,
                    &ObsEvent::PrefixHit {
                        server,
                        video,
                        clusters: *clusters as u64,
                    },
                );
            }
            PrefixDecision::HitExtended {
                from_clusters,
                to_clusters,
            } => {
                // The hit reports the served (pre-extension) length; the
                // extension itself is a separate, auditable event.
                self.sink.record(
                    now,
                    &ObsEvent::PrefixHit {
                        server,
                        video,
                        clusters: *from_clusters as u64,
                    },
                );
                self.sink.record(
                    now,
                    &ObsEvent::PrefixExtend {
                        server,
                        video,
                        from_clusters: *from_clusters as u64,
                        to_clusters: *to_clusters as u64,
                        occupancy_mb,
                    },
                );
            }
            PrefixDecision::Admitted { clusters } => {
                self.sink.record(
                    now,
                    &ObsEvent::PrefixAdmit {
                        server,
                        video,
                        after_eviction: false,
                        clusters: *clusters as u64,
                        size_mb: stored_mb,
                        occupancy_mb,
                    },
                );
            }
            PrefixDecision::AdmittedAfterEviction { evicted, clusters } => {
                for &victim in evicted {
                    let freed_mb = pre_sizes.get(&victim).copied().unwrap_or(0.0);
                    self.sink.record(
                        now,
                        &ObsEvent::PrefixEvict {
                            server,
                            victim,
                            freed_mb,
                        },
                    );
                }
                self.sink.record(
                    now,
                    &ObsEvent::PrefixAdmit {
                        server,
                        video,
                        after_eviction: true,
                        clusters: *clusters as u64,
                        size_mb: stored_mb,
                        occupancy_mb,
                    },
                );
            }
            PrefixDecision::NotAdmitted { reason } => {
                let kind = match reason {
                    PrefixRejectReason::BelowThreshold => DmaRejectKind::BelowThreshold,
                    PrefixRejectReason::NotPopularEnough => DmaRejectKind::NotPopularEnough,
                    PrefixRejectReason::DoesNotFit => DmaRejectKind::DoesNotFit,
                    // PrefixRejectReason is #[non_exhaustive].
                    _ => return serve,
                };
                self.sink.record(
                    now,
                    &ObsEvent::PrefixReject {
                        server,
                        video,
                        reason: kind,
                    },
                );
            }
            // PrefixDecision is #[non_exhaustive].
            _ => {}
        }
        serve
    }

    /// Opens a session whose title is fully covered by the proxy's
    /// resident prefix: every cluster streams locally, the origin (and
    /// the backbone) are never involved.
    fn start_full_prefix_session(
        &mut self,
        now: SimTime,
        home: NodeId,
        meta: &VideoMeta,
        cache_later: bool,
        clusters: usize,
    ) {
        let sid = SessionId(self.next_session);
        self.next_session += 1;
        if self.sink.enabled() {
            self.sink.record(
                now,
                &ObsEvent::PrefixServe {
                    session: sid.0,
                    server: home,
                    video: meta.id(),
                    clusters: clusters as u64,
                },
            );
        }
        let mut session = Session::new(sid, meta, home, self.config.cluster, now);
        session.set_prefix_reserved(clusters);
        session.assign_server(home, true);
        self.sessions.insert(sid, session);
        self.peak_sessions = self.peak_sessions.max(self.sessions.len());
        self.cache_on_complete.insert(sid, cache_later);
        self.full_prefix_sessions += 1;
        self.prefix_progress.insert(
            sid,
            PrefixProgress {
                served: clusters,
                fetched: 0,
            },
        );
        self.launch_prefix_cluster(now, sid, 0);
    }

    fn on_arrival(&mut self, now: SimTime, idx: usize, sched: &mut Scheduler<Event>) {
        self.arrivals_remaining = self.arrivals_remaining.saturating_sub(1);
        let request = self.trace.requests()[idx];
        if self.sink.enabled() {
            self.sink.record(
                now,
                &ObsEvent::RequestArrival {
                    request: idx as u64,
                    client: request.client,
                    video: request.video,
                },
            );
        }
        // A client whose home server is down cannot reach the service.
        if self.down.contains_key(&request.client) {
            self.fail_request(now, idx, request.client);
            return;
        }
        let meta: VideoMeta = match self.db.library().get(request.video) {
            Some(m) => m.clone(),
            None => {
                self.fail_request(now, idx, request.client);
                return;
            }
        };

        // The Disk Manipulation Algorithm runs at the home server on
        // every request.
        let mut cache_later = false;
        let decision = self
            .caches
            .get_mut(&request.client)
            .map(|cache| cache.on_request(&meta));
        if let Some(decision) = decision {
            if self.sink.enabled() {
                self.emit_dma_decision(now, request.client, &meta, &decision);
            }
            match decision {
                DmaDecision::Hit => {}
                DmaDecision::Admitted { .. } => {
                    cache_later = true;
                }
                DmaDecision::AdmittedAfterEviction { evicted, .. } => {
                    cache_later = true;
                    self.withdraw_titles(now, request.client, &evicted);
                }
                DmaDecision::NotAdmitted {
                    reason: vod_storage::dma::RejectReason::DoesNotFit { evicted },
                } => {
                    self.withdraw_titles(now, request.client, &evicted);
                }
                DmaDecision::NotAdmitted { .. } => {}
                // DmaDecision is #[non_exhaustive]; future variants are
                // treated as "no catalog change".
                _ => {}
            }
        }

        // The regional proxy's prefix store also sees every request
        // (only when the tier is enabled — the map is empty otherwise).
        let prefix_serve = self.prefix_decision(now, request.client, &meta);

        // A prefix covering the whole title streams entirely from the
        // proxy: no origin selection, no backbone dependency at all.
        let total_clusters = self.config.cluster.parts(meta.size());
        if prefix_serve >= total_clusters {
            self.start_full_prefix_session(now, request.client, &meta, cache_later, total_clusters);
            return;
        }

        let Some((selection, cache_hit)) = self.select_source(now, request.client, meta.id())
        else {
            self.fail_request(now, idx, request.client);
            return;
        };

        // "Minimum QoS" admission: reject rather than degrade everyone.
        if let Some(policy) = self.config.admission {
            self.refresh_db_snapshot(now);
            if let Some((_, snapshot)) = &self.db_snap_cache {
                if !policy
                    .check(
                        &self.topology,
                        snapshot,
                        &selection.route,
                        meta.bitrate_mbps(),
                    )
                    .is_admit()
                {
                    self.rejected_requests += 1;
                    if self.sink.enabled() {
                        self.sink.record(
                            now,
                            &ObsEvent::RequestRejected {
                                request: idx as u64,
                                client: request.client,
                                video: request.video,
                            },
                        );
                    }
                    return;
                }
            }
        }

        let sid = SessionId(self.next_session);
        self.next_session += 1;
        if prefix_serve > 0 {
            // Split start: the proxy streams the resident prefix at
            // local rate while the suffix's first cluster fetches
            // concurrently from the selected origin. The serve event
            // precedes the suffix selection, and the proxy→origin
            // handoff is an ordinary mid-stream switch.
            let proxy = request.client;
            if self.sink.enabled() {
                self.sink.record(
                    now,
                    &ObsEvent::PrefixServe {
                        session: sid.0,
                        server: proxy,
                        video: meta.id(),
                        clusters: prefix_serve as u64,
                    },
                );
                self.sink.record(
                    now,
                    &ObsEvent::VraSelect {
                        session: sid.0,
                        cluster: prefix_serve as u64,
                        video: meta.id(),
                        home: proxy,
                        server: selection.server,
                        cost: selection.route.cost(),
                        cache_hit,
                        local: selection.is_local(),
                    },
                );
            }
            self.registry.record_fetch_cost(selection.route.cost());
            let route = selection.route;
            let mut session = Session::new(sid, &meta, proxy, self.config.cluster, now);
            session.set_prefix_reserved(prefix_serve);
            // The prefix's first cluster streams locally from the proxy;
            // assigning the origin next reports the handoff switch.
            session.assign_server(proxy, true);
            let switched = session.assign_server(route.target(), route.hops() == 0);
            if switched {
                self.registry.record_switch();
                if self.sink.enabled() {
                    self.sink.record(
                        now,
                        &ObsEvent::Switch {
                            session: sid.0,
                            cluster: prefix_serve as u64,
                            from: proxy,
                            to: route.target(),
                        },
                    );
                }
            }
            let suffix_volume = session.cluster_volume_mbit(prefix_serve);
            self.sessions.insert(sid, session);
            self.peak_sessions = self.peak_sessions.max(self.sessions.len());
            self.cache_on_complete.insert(sid, cache_later);
            self.session_routes.insert(sid, route.clone());
            self.prefix_progress.insert(
                sid,
                PrefixProgress {
                    served: prefix_serve,
                    fetched: 0,
                },
            );
            self.launch_prefix_cluster(now, sid, 0);
            match self.launch_flow(proxy, meta.id(), &route, suffix_volume) {
                Some(flow) => {
                    self.flow_sessions.insert(flow, sid);
                }
                None => self.handle_fetch_failure(now, sid, sched),
            }
            return;
        }
        if self.sink.enabled() {
            self.sink.record(
                now,
                &ObsEvent::VraSelect {
                    session: sid.0,
                    cluster: 0,
                    video: meta.id(),
                    home: request.client,
                    server: selection.server,
                    cost: selection.route.cost(),
                    cache_hit,
                    local: selection.is_local(),
                },
            );
        }
        self.registry.record_fetch_cost(selection.route.cost());
        // Fetch cluster 0 along the arrival-time route (also under dynamic
        // re-routing: the arrival-time selection is the freshest there is).
        let route = selection.route;
        let mut session = Session::new(sid, &meta, request.client, self.config.cluster, now);
        session.assign_server(route.target(), route.hops() == 0);
        let volume = session.cluster_volume_mbit(0);
        self.sessions.insert(sid, session);
        self.peak_sessions = self.peak_sessions.max(self.sessions.len());
        self.cache_on_complete.insert(sid, cache_later);
        self.session_routes.insert(sid, route.clone());
        match self.launch_flow(request.client, meta.id(), &route, volume) {
            Some(flow) => {
                self.flow_sessions.insert(flow, sid);
            }
            None => self.handle_fetch_failure(now, sid, sched),
        }
    }

    /// Counts and traces an unservable request.
    fn fail_request(&mut self, now: SimTime, idx: usize, client: NodeId) {
        self.failed_requests += 1;
        if self.sink.enabled() {
            self.sink.record(
                now,
                &ObsEvent::RequestFailed {
                    request: idx as u64,
                    client,
                },
            );
        }
    }

    /// Translates a DMA decision into its trace events (hit, admit with
    /// per-victim evictions, or reject). Only called when the sink is
    /// enabled.
    fn emit_dma_decision(
        &mut self,
        now: SimTime,
        server: NodeId,
        meta: &VideoMeta,
        decision: &DmaDecision,
    ) {
        use vod_obs::DmaRejectKind;
        use vod_storage::dma::RejectReason;
        use vod_storage::striping::StripeLayout;
        let video = meta.id();
        // Post-decision occupancy and the admitted stripe, auditable
        // against the cache's capacity and Figure 3's `i mod n` rule.
        let occupancy_mb = |model: &Self| {
            model
                .caches
                .get(&server)
                .map(|c| c.array().total_capacity().as_f64() - c.array().total_free().as_f64())
                .unwrap_or(0.0)
        };
        let stripe_of = |layout: &StripeLayout| -> Vec<u32> {
            (0..layout.parts())
                .map(|i| layout.disk_of_part(i) as u32)
                .collect()
        };
        match decision {
            DmaDecision::Hit => {
                self.sink.record(now, &ObsEvent::DmaHit { server, video });
            }
            DmaDecision::Admitted { layout } => {
                let event = ObsEvent::DmaAdmit {
                    server,
                    video,
                    after_eviction: false,
                    size_mb: meta.size().as_f64(),
                    parts: layout.parts() as u64,
                    stripe: stripe_of(layout),
                    occupancy_mb: occupancy_mb(self),
                };
                self.sink.record(now, &event);
            }
            DmaDecision::AdmittedAfterEviction { evicted, layout } => {
                for &victim in evicted {
                    self.sink
                        .record(now, &ObsEvent::DmaEvict { server, victim });
                }
                let event = ObsEvent::DmaAdmit {
                    server,
                    video,
                    after_eviction: true,
                    size_mb: meta.size().as_f64(),
                    parts: layout.parts() as u64,
                    stripe: stripe_of(layout),
                    occupancy_mb: occupancy_mb(self),
                };
                self.sink.record(now, &event);
            }
            DmaDecision::NotAdmitted { reason } => {
                let kind = match reason {
                    RejectReason::BelowThreshold => DmaRejectKind::BelowThreshold,
                    RejectReason::NotPopularEnough => DmaRejectKind::NotPopularEnough,
                    RejectReason::DoesNotFit { evicted } => {
                        for &victim in evicted {
                            self.sink
                                .record(now, &ObsEvent::DmaEvict { server, victim });
                        }
                        DmaRejectKind::DoesNotFit
                    }
                    // RejectReason is #[non_exhaustive].
                    _ => return,
                };
                self.sink.record(
                    now,
                    &ObsEvent::DmaReject {
                        server,
                        video,
                        reason: kind,
                    },
                );
            }
            // DmaDecision is #[non_exhaustive].
            _ => {}
        }
    }

    fn on_playout_tick(&mut self, now: SimTime, sid: SessionId, sched: &mut Scheduler<Event>) {
        let Some(sess) = self.sessions.get_mut(&sid) else {
            return;
        };
        sess.on_cluster_played();
        if sess.playback_complete() {
            let record = sess.finish(now);
            if self.sink.enabled() {
                self.sink.record(
                    now,
                    &ObsEvent::SessionComplete {
                        session: sid.0,
                        stalls: record.stall_count,
                        stall_time: record.stall_time,
                        switches: record.switches,
                    },
                );
            }
            self.records.push(record);
            self.sessions.remove(&sid);
            self.session_routes.remove(&sid);
            self.cache_on_complete.remove(&sid);
        } else if sess.buffered() > 0 {
            let dt = sess.cluster_play_time(sess.clusters_played());
            sched.schedule(now + dt, Event::PlayoutTick(sid));
        } else {
            sess.stall(now);
            if self.sink.enabled() {
                self.sink
                    .record(now, &ObsEvent::SessionStall { session: sid.0 });
            }
        }
    }

    /// A server dies: its catalog entries are withdrawn, its cache is
    /// lost, sessions homed there are dropped, and transfers sourced from
    /// it are re-routed to surviving replicas. Overlapping outage windows
    /// nest: only the first opens the outage.
    fn on_server_down(&mut self, now: SimTime, node: NodeId, sched: &mut Scheduler<Event>) {
        let depth = self.down.entry(node).or_insert(0);
        *depth += 1;
        if *depth > 1 {
            return; // already down; deepen the outage only
        }
        if self.sink.enabled() {
            self.sink
                .record(now, &ObsEvent::ServerDown { server: node });
        }
        // Withdraw the catalog and retire the cache.
        if let Some(cache) = self.caches.remove(&node) {
            let s = cache.stats();
            self.retired_dma.requests += s.requests;
            self.retired_dma.hits += s.hits;
            self.retired_dma.admissions += s.admissions;
            self.retired_dma.evictions += s.evictions;
            self.retired_dma.rejections += s.rejections;
            self.withdraw_titles(now, node, &cache.resident_ids());
        }
        // The co-located prefix store dies with the server; its stats
        // fold into the retired bucket and it rejoins cold.
        if let Some(store) = self.prefix_stores.remove(&node) {
            let s = store.stats();
            self.retired_prefix.requests += s.requests;
            self.retired_prefix.hits += s.hits;
            self.retired_prefix.admissions += s.admissions;
            self.retired_prefix.evictions += s.evictions;
            self.retired_prefix.rejections += s.rejections;
            self.retired_prefix.extensions += s.extensions;
        }
        // Also withdraw titles listed in the DB but not in the cache
        // (initial seeding differences).
        let listed = self.db.full_access().titles_at(node).unwrap_or_default();
        self.withdraw_titles(now, node, &listed);

        // Sessions homed at the dead server lose their client connection.
        let homed: Vec<SessionId> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.home() == node)
            .map(|(&sid, _)| sid)
            .collect();
        for sid in homed {
            // The client itself is gone: no retry can save the session.
            self.abort_session(now, sid, "home_down");
        }

        // Transfers sourced from the dead server re-route mid-cluster.
        let rerouted: Vec<(FlowId, SessionId)> = self
            .flow_sessions
            .iter()
            .filter(|(_, sid)| {
                self.session_routes
                    .get(sid)
                    .map(|r| r.target() == node)
                    .unwrap_or(false)
            })
            .map(|(&f, &sid)| (f, sid))
            .collect();
        for (flow, sid) in rerouted {
            let _ = self.flows.remove_flow(flow);
            self.flow_sessions.remove(&flow);
            self.session_routes.remove(&sid);
            // Re-select a source for the same cluster; retries or aborts
            // if no replica survives.
            self.start_cluster_fetch(now, sid, sched);
        }
    }

    /// A failed server rejoins with empty disks; the DMA repopulates it
    /// from future demand. With nested outage windows the server only
    /// revives when the last window closes.
    fn on_server_up(&mut self, now: SimTime, node: NodeId) {
        let Some(depth) = self.down.get_mut(&node) else {
            return;
        };
        *depth -= 1;
        if *depth > 0 {
            return; // an enclosing outage window is still open
        }
        self.down.remove(&node);
        if self.sink.enabled() {
            self.sink.record(now, &ObsEvent::ServerUp { server: node });
        }
        // The configuration was validated at construction (disk_count is
        // positive), so recreation cannot fail.
        if let Ok(cache) = DmaCache::new(DmaConfig {
            disk_count: self.config.disk_count,
            disk_capacity: self.config.disk_capacity,
            cluster_size: self.config.cluster,
            admit_threshold: self.config.dma_admit_threshold,
            eviction: self.config.dma_eviction,
        }) {
            self.caches.insert(node, cache);
        }
        if let Some(tier) = self.config.prefix_tier {
            if let Ok(store) = PrefixStore::new(tier.store_config(self.config.cluster)) {
                self.prefix_stores.insert(node, store);
            }
        }
    }

    /// A link goes administratively down: it carries no traffic, routing
    /// masks it to infinite weight, and transfers crossing it re-route
    /// (or retry) immediately. Overlapping windows nest.
    fn on_link_down(&mut self, now: SimTime, link: LinkId, sched: &mut Scheduler<Event>) {
        let depth = self.link_down.entry(link).or_insert(0);
        *depth += 1;
        if *depth > 1 {
            return;
        }
        self.link_admin_epoch += 1;
        self.flows.set_link_admin_down(link, true);
        if self.sink.enabled() {
            self.sink.record(now, &ObsEvent::LinkDown { link });
        }
        // Transfers frozen on the dead link re-route mid-cluster, exactly
        // like transfers sourced from a dead server.
        let severed: Vec<(FlowId, SessionId)> = self
            .flows
            .flows_crossing(link)
            .filter_map(|f| self.flow_sessions.get(&f).map(|&sid| (f, sid)))
            .collect();
        for (flow, sid) in severed {
            let _ = self.flows.remove_flow(flow);
            self.flow_sessions.remove(&flow);
            self.session_routes.remove(&sid);
            self.start_cluster_fetch(now, sid, sched);
        }
    }

    /// A link outage window closes; the link rejoins the routing view
    /// when the last nested window ends.
    fn on_link_up(&mut self, now: SimTime, link: LinkId) {
        let Some(depth) = self.link_down.get_mut(&link) else {
            return;
        };
        *depth -= 1;
        if *depth > 0 {
            return;
        }
        self.link_down.remove(&link);
        self.link_admin_epoch += 1;
        self.flows.set_link_admin_down(link, false);
        if self.sink.enabled() {
            self.sink.record(now, &ObsEvent::LinkUp { link });
        }
    }

    /// A degradation window opens: the link's deliverable capacity drops
    /// to the minimum factor over all open windows. Routing still sees
    /// the nominal capacity — a soft failure surfaces through SNMP
    /// readings and stalls, not through the admin state.
    fn on_degrade_start(&mut self, now: SimTime, link: LinkId, factor: f64) {
        self.degrade.entry(link).or_default().push(factor);
        self.apply_degrade(link);
        if self.sink.enabled() {
            self.sink
                .record(now, &ObsEvent::LinkDegradeStart { link, factor });
        }
    }

    /// A degradation window closes (removes one instance of `factor`).
    fn on_degrade_end(&mut self, now: SimTime, link: LinkId, factor: f64) {
        if let Some(factors) = self.degrade.get_mut(&link) {
            if let Some(pos) = factors.iter().position(|&f| f == factor) {
                factors.remove(pos);
            }
            if factors.is_empty() {
                self.degrade.remove(&link);
            }
        }
        self.apply_degrade(link);
        if self.sink.enabled() {
            self.sink
                .record(now, &ObsEvent::LinkDegradeEnd { link, factor });
        }
    }

    /// Re-applies the effective capacity scale of `link` to the fluid
    /// network.
    fn apply_degrade(&mut self, link: LinkId) {
        let scale = self
            .degrade
            .get(&link)
            .map(|f| f.iter().copied().fold(1.0, f64::min))
            .unwrap_or(1.0);
        self.flows.set_link_capacity_scale(link, scale);
    }

    /// The SNMP poller goes dark: scheduled polls are skipped until the
    /// window closes, so the selector keeps routing on its last-known-
    /// good view (flagged per skipped poll in the trace).
    fn on_snmp_outage_start(&mut self, now: SimTime) {
        self.snmp_outages += 1;
        if self.snmp_outages == 1 && self.sink.enabled() {
            self.sink.record(now, &ObsEvent::SnmpOutageStart);
        }
    }

    /// The SNMP poller recovers; the next scheduled poll refreshes the
    /// routing view.
    fn on_snmp_outage_end(&mut self, now: SimTime) {
        self.snmp_outages = self.snmp_outages.saturating_sub(1);
        if self.snmp_outages == 0 && self.sink.enabled() {
            self.sink.record(now, &ObsEvent::SnmpOutageEnd);
        }
    }

    /// Removes a session and everything attached to it.
    fn drop_session(&mut self, sid: SessionId) {
        self.sessions.remove(&sid);
        self.session_routes.remove(&sid);
        self.cache_on_complete.remove(&sid);
        self.prefix_progress.remove(&sid);
        self.suffix_deferred.remove(&sid);
        let flows: Vec<FlowId> = self
            .flow_sessions
            .iter()
            .filter(|(_, s)| **s == sid)
            .map(|(&f, _)| f)
            .chain(
                self.prefix_flows
                    .iter()
                    .filter(|(_, s)| **s == sid)
                    .map(|(&f, _)| f),
            )
            .collect();
        for f in flows {
            let _ = self.flows.remove_flow(f);
            self.flow_sessions.remove(&f);
            self.prefix_flows.remove(&f);
        }
    }

    fn on_snmp_poll(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        // Age of the traffic view this poll replaces — the staleness
        // every routing decision since the previous poll worked with.
        let staleness = now.duration_since(self.snmp.last_poll_at());
        if self.snmp_outages > 0 {
            // Poller outage: skip the poll. The database's traffic
            // version stalls, so the selector keeps its last-known-good
            // snapshot; the trace flags the growing staleness.
            if self.sink.enabled() {
                self.sink
                    .record(now, &ObsEvent::SnmpStaleView { staleness });
            }
        } else {
            // Pull the incrementally-maintained volume integrals into the
            // SNMP counters; between polls nothing iterates the links.
            self.snmp.sync_counters(&self.flows);
            // The SNMP system is constructed from the same topology, so
            // every link is registered and a poll cannot fail.
            let readings = self
                .snmp
                .poll(&self.topology, &mut self.db, now)
                .unwrap_or_default();
            if self.sink.enabled() {
                self.sink.record(
                    now,
                    &ObsEvent::SnmpPoll {
                        readings: readings as u64,
                        staleness,
                    },
                );
            }
        }
        // Sample true instantaneous utilization for the report, reusing
        // the buffer instead of allocating a snapshot per poll.
        self.flows.snapshot_into(&mut self.live_snap);
        if let Some((_, max)) = self.live_snap.max_utilization(&self.topology) {
            self.max_util_series.push(now, max.get());
        }
        self.mean_util_series
            .push(now, self.live_snap.mean_utilization(&self.topology).get());
        self.reschedule_recurring(now, self.config.snmp_interval, || Event::SnmpPoll, sched);
    }

    fn on_background_update(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        self.background.apply(&mut self.flows, now);
        if self.sink.enabled() {
            self.sink.record(now, &ObsEvent::BackgroundUpdate);
        }
        self.reschedule_recurring(
            now,
            self.config.background_interval,
            || Event::BackgroundUpdate,
            sched,
        );
    }

    /// Builds the final [`ServiceReport`] and hands back the metric
    /// registry and the sink for callers that want the full picture
    /// ([`VodService::run_full`]).
    fn into_report_full(self) -> (ServiceReport, MetricsRegistry, S) {
        let mut dma = self.retired_dma;
        let per_server_dma: Vec<(NodeId, DmaStats)> = self
            .caches
            .iter()
            .map(|(&node, cache)| (node, cache.stats()))
            .collect();
        for (_, s) in &per_server_dma {
            dma.requests += s.requests;
            dma.hits += s.hits;
            dma.admissions += s.admissions;
            dma.evictions += s.evictions;
            dma.rejections += s.rejections;
        }
        let prefix = self.config.prefix_tier.map(|_| {
            let mut stats = self.retired_prefix;
            for store in self.prefix_stores.values() {
                let s = store.stats();
                stats.requests += s.requests;
                stats.hits += s.hits;
                stats.admissions += s.admissions;
                stats.evictions += s.evictions;
                stats.rejections += s.rejections;
                stats.extensions += s.extensions;
            }
            PrefixTierReport {
                stats,
                served_clusters: self.prefix_served_clusters,
                served_mbit: self.prefix_served_mbit,
                full_prefix_sessions: self.full_prefix_sessions,
            }
        });
        let report = ServiceReport {
            selector: self.selector.name().to_string(),
            seed: self.seed,
            completed: self.records,
            failed_requests: self.failed_requests,
            aborted_sessions: self.aborted_sessions,
            rejected_requests: self.rejected_requests,
            unfinished_sessions: self.sessions.len(),
            max_link_utilization: Summary::from_values(
                self.max_util_series.samples().iter().map(|&(_, v)| v),
            ),
            mean_link_utilization: Summary::from_values(
                self.mean_util_series.samples().iter().map(|&(_, v)| v),
            ),
            dma,
            per_server_dma,
            engine: self.selector.engine_stats(),
            snmp_polls: self.snmp.polls(),
            prefix,
        };
        (report, self.registry, self.sink)
    }

    fn into_report(self) -> ServiceReport {
        self.into_report_full().0
    }
}

impl<S: EventSink> Model for ServiceModel<S> {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<Event>) {
        self.advance_to(now, sched);
        match event {
            Event::Arrival(idx) => self.on_arrival(now, idx, sched),
            Event::FlowCheck => {
                // Completions were already processed by advance_to.
            }
            Event::PlayoutTick(sid) => self.on_playout_tick(now, sid, sched),
            Event::SnmpPoll => self.on_snmp_poll(now, sched),
            Event::BackgroundUpdate => self.on_background_update(now, sched),
            Event::ServerDown(node) => self.on_server_down(now, node, sched),
            Event::ServerUp(node) => self.on_server_up(now, node),
            Event::LinkDown(link) => self.on_link_down(now, link, sched),
            Event::LinkUp(link) => self.on_link_up(now, link),
            Event::DegradeStart(link, factor) => self.on_degrade_start(now, link, factor),
            Event::DegradeEnd(link, factor) => self.on_degrade_end(now, link, factor),
            Event::SnmpOutageStart => self.on_snmp_outage_start(now),
            Event::SnmpOutageEnd => self.on_snmp_outage_end(now),
            Event::RetryFetch(sid) => self.on_retry_fetch(now, sid, sched),
        }
        self.schedule_flow_check(now, sched);
    }
}

/// A configured, runnable VoD service experiment.
///
/// # Examples
///
/// ```no_run
/// use vod_core::service::{ServiceConfig, VodService};
/// use vod_core::vra::Vra;
/// use vod_workload::scenario::Scenario;
///
/// let scenario = Scenario::grnet_case_study(42);
/// let service = VodService::new(&scenario, Box::new(Vra::default()), ServiceConfig::default());
/// let report = service.run();
/// println!("{} sessions completed", report.completed.len());
/// ```
///
/// With a recording sink the same run additionally yields a trace and a
/// [`RunReport`]:
///
/// ```no_run
/// use vod_core::service::{ServiceConfig, VodService};
/// use vod_core::vra::Vra;
/// use vod_obs::RingRecorder;
/// use vod_workload::scenario::Scenario;
///
/// let scenario = Scenario::grnet_case_study(42);
/// let service = VodService::with_sink(
///     &scenario,
///     Box::new(Vra::default()),
///     ServiceConfig::default(),
///     RingRecorder::new(4096),
/// );
/// let (report, run_report, recorder) = service.run_full();
/// println!("{} events retained", recorder.len());
/// println!("{}", run_report.to_prometheus());
/// # let _ = report;
/// ```
pub struct VodService<S: EventSink = NullSink> {
    sim: Simulation<ServiceModel<S>>,
}

impl VodService {
    /// Builds an untraced service (the [`NullSink`] compiles every
    /// emission site away) over a scenario with the given selector
    /// policy.
    ///
    /// # Panics
    ///
    /// Panics if the scenario's topology has no video servers, or if the
    /// configured per-server disk space cannot hold the seeded titles.
    /// Use [`VodService::try_new`] for fallible construction.
    pub fn new(
        scenario: &Scenario,
        selector: Box<dyn ServerSelector>,
        config: ServiceConfig,
    ) -> Self {
        VodService::with_sink(scenario, selector, config, NullSink)
    }

    /// Fallible variant of [`VodService::new`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an unusable scenario or
    /// configuration, [`CoreError::Db`] for database seeding failures.
    pub fn try_new(
        scenario: &Scenario,
        selector: Box<dyn ServerSelector>,
        config: ServiceConfig,
    ) -> Result<Self, CoreError> {
        VodService::try_with_sink(scenario, selector, config, NullSink)
    }
}

impl<S: EventSink> VodService<S> {
    /// Builds a service over a scenario with the given selector policy,
    /// recording trace events into `sink`.
    ///
    /// # Panics
    ///
    /// Panics if the scenario's topology has no video servers, or if the
    /// configured per-server disk space cannot hold the seeded titles.
    /// Use [`VodService::try_with_sink`] for fallible construction.
    pub fn with_sink(
        scenario: &Scenario,
        selector: Box<dyn ServerSelector>,
        config: ServiceConfig,
        sink: S,
    ) -> Self {
        match VodService::try_with_sink(scenario, selector, config, sink) {
            Ok(service) => service,
            Err(e) => panic!("invalid service setup: {e}"),
        }
    }

    /// Builds a service over a scenario with the given selector policy,
    /// recording trace events into `sink`.
    ///
    /// Titles are seeded round-robin ([`ServiceConfig::initial_replicas`]
    /// copies each) across the video servers — the paper's service
    /// initialization, where each participant contributes its available
    /// titles — and both the DMA caches and the database start from that
    /// placement.
    ///
    /// With an enabled sink the trace opens with replay metadata (the
    /// topology, the run knobs, each server's cache sizing and the seeded
    /// placement), making it self-contained for `vod-check audit`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the topology has no
    /// video servers, a DMA cache cannot be built, the seeded titles do
    /// not fit the configured disks, or the failure schedule is
    /// malformed; [`CoreError::Db`] when database seeding fails.
    pub fn try_with_sink(
        scenario: &Scenario,
        selector: Box<dyn ServerSelector>,
        config: ServiceConfig,
        mut sink: S,
    ) -> Result<Self, CoreError> {
        let topology = scenario.topology().clone();
        let servers = topology.video_server_nodes();
        if servers.is_empty() {
            return Err(CoreError::InvalidConfig(
                "topology has no video servers".into(),
            ));
        }

        let start = scenario
            .trace()
            .requests()
            .first()
            .map(|r| r.at)
            .unwrap_or(SimTime::ZERO);
        let end = scenario
            .trace()
            .requests()
            .last()
            .map(|r| r.at)
            .unwrap_or(SimTime::ZERO);

        // Trace preamble: everything an auditor needs to replay the run's
        // decisions without the scenario object.
        if sink.enabled() {
            let nodes: Vec<(String, bool)> = topology
                .nodes()
                .map(|n| (n.name().to_string(), n.is_video_server()))
                .collect();
            let links: Vec<(NodeId, NodeId, f64)> = topology
                .links()
                .map(|l| (l.a(), l.b(), l.capacity().as_f64()))
                .collect();
            sink.record(start, &ObsEvent::TopologySnapshot { nodes, links });
            sink.record(
                start,
                &ObsEvent::RunConfig {
                    selector: selector.name().to_string(),
                    dynamic_rerouting: config.dynamic_rerouting,
                    snmp_smoothing: config.snmp_smoothing,
                    lvn_normalization: selector.lvn_params().map(|p| p.normalization_constant),
                    retry_max_attempts: config.retry.max_attempts,
                    retry_backoff_us: config.retry.backoff.as_micros(),
                    retry_stall_budget_us: config.retry.stall_budget.as_micros(),
                },
            );
            for &server in &servers {
                sink.record(
                    start,
                    &ObsEvent::CacheConfig {
                        server,
                        disks: config.disk_count as u64,
                        capacity_mb: config.disk_capacity.as_f64(),
                        cluster_mb: config.cluster.megabytes().as_f64(),
                        admit_threshold: config.dma_admit_threshold,
                    },
                );
            }
            if let Some(tier) = &config.prefix_tier {
                for &server in &servers {
                    sink.record(
                        start,
                        &ObsEvent::PrefixCacheConfig {
                            server,
                            capacity_mb: tier.capacity.as_f64(),
                            cluster_mb: config.cluster.megabytes().as_f64(),
                            admit_threshold: tier.admit_threshold,
                            base_clusters: tier.base_clusters as u64,
                            max_clusters: tier.max_clusters as u64,
                            growth_points: tier.growth_points,
                        },
                    );
                }
            }
        }

        let mut db = Database::from_topology(&topology, scenario.library().clone());
        let admin = AdminCredential::new("root");

        // Per-server DMA caches.
        let mut caches: BTreeMap<NodeId, DmaCache> = BTreeMap::new();
        for &n in &servers {
            let cache = DmaCache::new(DmaConfig {
                disk_count: config.disk_count,
                disk_capacity: config.disk_capacity,
                cluster_size: config.cluster,
                admit_threshold: config.dma_admit_threshold,
                eviction: config.dma_eviction,
            })
            .map_err(|e| CoreError::InvalidConfig(format!("unusable DMA configuration: {e}")))?;
            caches.insert(n, cache);
        }

        // Per-proxy prefix stores (tier enabled only; starts cold —
        // prefixes are earned by demand, never seeded).
        let mut prefix_stores: BTreeMap<NodeId, PrefixStore> = BTreeMap::new();
        if let Some(tier) = &config.prefix_tier {
            for &n in &servers {
                let store = PrefixStore::new(tier.store_config(config.cluster)).map_err(|e| {
                    CoreError::InvalidConfig(format!("unusable prefix tier configuration: {e}"))
                })?;
                prefix_stores.insert(n, store);
            }
        }

        // Service initialization: seed titles round-robin.
        {
            let mut la = catalog(&mut db, &admin);
            let videos: Vec<VideoMeta> = scenario.library().iter().cloned().collect();
            let replicas = config.initial_replicas.clamp(1, servers.len());
            for (i, video) in videos.iter().enumerate() {
                for k in 0..replicas {
                    let server = servers[(i + k) % servers.len()];
                    let Some(cache) = caches.get_mut(&server) else {
                        continue;
                    };
                    let layout = cache.preload(video).map_err(|e| {
                        CoreError::InvalidConfig(format!(
                            "seeded titles must fit the configured disks: {e}"
                        ))
                    })?;
                    la.add_title(server, video.id())?;
                    if sink.enabled() {
                        sink.record(
                            start,
                            &ObsEvent::DmaSeed {
                                server,
                                video: video.id(),
                                size_mb: video.size().as_f64(),
                                parts: layout.parts() as u64,
                            },
                        );
                    }
                }
            }
        }

        let mut flows = FlowNetwork::with_kernel(topology.clone(), config.flow_kernel);
        flows.set_local_rate(config.local_rate);
        scenario.background().apply(&mut flows, start);

        let mut snmp = SnmpSystem::new(&topology, config.snmp_interval);
        snmp.reset_epoch(start);

        // Bootstrap reading: the service has been polling before our
        // window opens, so seed the database with the instantaneous state.
        {
            let mut la = catalog(&mut db, &admin);
            for link in topology.link_ids() {
                let load = flows.link_total_load(link);
                let capacity = topology.link(link).capacity();
                let util = if capacity.is_zero() {
                    vod_net::units::Fraction::ZERO
                } else {
                    vod_net::units::Fraction::new(load / capacity)
                };
                la.record_reading(link, start, load, util)?;
            }
        }

        let live_snap = flows.snapshot();
        let model = ServiceModel {
            recurring_deadline: end + config.drain_grace,
            arrivals_remaining: scenario.trace().len(),
            topology,
            flows,
            db_snap_cache: None,
            live_snap,
            snmp,
            db,
            admin,
            caches,
            selector,
            background: scenario.background().clone(),
            trace: scenario.trace().clone(),
            sessions: BTreeMap::new(),
            session_routes: BTreeMap::new(),
            flow_sessions: BTreeMap::new(),
            cache_on_complete: BTreeMap::new(),
            prefix_stores,
            prefix_flows: BTreeMap::new(),
            prefix_progress: BTreeMap::new(),
            suffix_deferred: BTreeSet::new(),
            down: BTreeMap::new(),
            link_down: BTreeMap::new(),
            degrade: BTreeMap::new(),
            snmp_outages: 0,
            link_admin_epoch: 0,
            retry: BTreeMap::new(),
            retired_dma: DmaStats::default(),
            retired_prefix: PrefixStats::default(),
            prefix_served_clusters: 0,
            prefix_served_mbit: 0.0,
            full_prefix_sessions: 0,
            records: Vec::new(),
            failed_requests: 0,
            rejected_requests: 0,
            aborted_sessions: 0,
            next_session: 0,
            last_sync: start,
            scheduled_check: None,
            done_scratch: Vec::new(),
            peak_sessions: 0,
            max_util_series: TimeSeries::new(),
            mean_util_series: TimeSeries::new(),
            seed: scenario.seed(),
            config,
            sink,
            registry: MetricsRegistry::new(),
        };

        let mut sim = Simulation::new(model);
        // Seed all events.
        for (i, r) in scenario.trace().iter().enumerate() {
            sim.scheduler_mut().schedule(r.at, Event::Arrival(i));
        }
        let (snmp_next, bg_next) = {
            let m = sim.model();
            (
                start + m.config.snmp_interval,
                start + m.config.background_interval,
            )
        };
        sim.scheduler_mut().schedule(snmp_next, Event::SnmpPoll);
        sim.scheduler_mut()
            .schedule(bg_next, Event::BackgroundUpdate);
        // Scheduled faults. Legacy `failures` entries are folded into the
        // fault plan as server-outage windows (after their historical
        // validation), so one path schedules and accounts for everything.
        let mut plan = sim.model().config.fault_plan.clone();
        for &(down_at, up_at, node) in &sim.model().config.failures {
            if down_at >= up_at {
                return Err(CoreError::InvalidConfig(
                    "a failure must end after it starts".into(),
                ));
            }
            if !sim.model().caches.contains_key(&node) {
                return Err(CoreError::InvalidConfig(
                    "only video servers can fail".into(),
                ));
            }
            plan = plan.server_outage(down_at, up_at, node);
        }
        plan.validate(&sim.model().topology)
            .map_err(|e| CoreError::InvalidConfig(format!("invalid fault plan: {e}")))?;
        for window in plan.windows() {
            let (start_ev, end_ev) = match window.kind {
                FaultKind::ServerOutage { node } => {
                    if !sim.model().caches.contains_key(&node) {
                        return Err(CoreError::InvalidConfig(
                            "only video servers can fail".into(),
                        ));
                    }
                    (Event::ServerDown(node), Event::ServerUp(node))
                }
                FaultKind::LinkOutage { link } => (Event::LinkDown(link), Event::LinkUp(link)),
                FaultKind::LinkDegrade { link, factor } => (
                    Event::DegradeStart(link, factor),
                    Event::DegradeEnd(link, factor),
                ),
                FaultKind::SnmpOutage => (Event::SnmpOutageStart, Event::SnmpOutageEnd),
            };
            sim.scheduler_mut().schedule(window.start, start_ev);
            sim.scheduler_mut().schedule(window.end, end_ev);
        }
        Ok(VodService { sim })
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(mut self) -> ServiceReport {
        self.sim.run();
        self.sim.into_model().into_report()
    }

    /// Runs the simulation to completion and returns the report, the
    /// aggregated [`RunReport`] (histograms + every subsystem's
    /// counters), and the sink with its recorded trace.
    pub fn run_full(mut self) -> (ServiceReport, RunReport, S) {
        self.sim.run();
        let (report, registry, sink) = self.sim.into_model().into_report_full();
        let run_report = registry.finish(RunSummary {
            selector: report.selector.clone(),
            seed: report.seed,
            completed: report.completed.len() as u64,
            failed_requests: report.failed_requests,
            rejected_requests: report.rejected_requests,
            aborted_sessions: report.aborted_sessions,
            unfinished_sessions: report.unfinished_sessions as u64,
            snmp_polls: report.snmp_polls,
            dma_total: report.dma,
            per_server_dma: report.per_server_dma.clone(),
            engine: report.engine,
        });
        (report, run_report, sink)
    }

    /// Runs until `deadline` only (for incremental inspection in tests).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.sim.run_until(deadline);
    }

    /// Runs until the event queue drains, keeping the service
    /// inspectable (unlike [`VodService::run`], which consumes it).
    pub fn run_to_end(&mut self) {
        self.sim.run();
    }

    /// The instant of the earliest pending event, or `None` once the
    /// run has drained.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.sim.peek_time()
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.sim.processed()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Number of currently live sessions.
    pub fn live_sessions(&self) -> usize {
        self.sim.model().sessions.len()
    }

    /// High-water mark of concurrently live sessions so far.
    pub fn peak_sessions(&self) -> usize {
        self.sim.model().peak_sessions
    }

    /// The flow kernel's work counters so far (reallocations, filling
    /// rounds, route classes, completion-heap size), the flow-side
    /// counterpart of the routing engine's `EngineStats`.
    pub fn flow_stats(&self) -> FlowStats {
        self.sim.model().flows.stats()
    }

    /// Finishes immediately with whatever has completed (for tests).
    pub fn into_report(self) -> ServiceReport {
        self.sim.into_model().into_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::{FirstCandidate, HopCountNearest, RandomReplica};
    use crate::vra::Vra;

    fn quick_scenario(seed: u64) -> Scenario {
        use vod_sim::traffic::BackgroundModel;
        use vod_workload::arrivals::HourlyShape;
        use vod_workload::library::{LibraryConfig, LibraryGenerator};
        use vod_workload::trace::TraceConfig;
        let grnet = vod_net::topologies::grnet::Grnet::new();
        let library = LibraryGenerator::new(LibraryConfig {
            titles: 12,
            min_size_mb: 50.0,
            max_size_mb: 120.0,
            bitrate_mbps: 1.5,
        })
        .generate(seed);
        let trace = TraceConfig {
            start: SimTime::from_secs(8 * 3600),
            duration: SimDuration::from_secs(1800),
            rate_per_sec: 0.01,
            shape: HourlyShape::flat(),
            zipf_skew: 0.9,
            client_weights: None,
        }
        .generate(grnet.topology(), &library, seed);
        Scenario::new(
            "quick",
            grnet.topology().clone(),
            library,
            trace,
            BackgroundModel::grnet_table2(&grnet),
            seed,
        )
    }

    fn quick_config() -> ServiceConfig {
        ServiceConfig {
            cluster: ClusterSize::new(Megabytes::new(25.0)),
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn vra_run_completes_all_sessions() {
        let scenario = quick_scenario(1);
        let n = scenario.trace().len();
        assert!(n > 0);
        let report = VodService::new(&scenario, Box::new(Vra::default()), quick_config()).run();
        assert_eq!(report.selector, "vra");
        assert_eq!(report.completed.len() + report.unfinished_sessions, n);
        assert_eq!(report.failed_requests, 0);
        assert!(report.completed.len() >= n * 9 / 10, "most sessions finish");
        for r in &report.completed {
            assert!(r.startup_delay.as_secs_f64() >= 0.0);
            assert!(r.clusters > 0);
        }
        // The DMA saw every request.
        assert_eq!(report.dma.requests, n as u64);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = VodService::new(&quick_scenario(7), Box::new(Vra::default()), quick_config()).run();
        let b = VodService::new(&quick_scenario(7), Box::new(Vra::default()), quick_config()).run();
        assert_eq!(a, b);
    }

    #[test]
    fn baselines_also_run_to_completion() {
        let scenario = quick_scenario(3);
        let selectors: Vec<Box<dyn ServerSelector>> = vec![
            Box::new(HopCountNearest),
            Box::new(FirstCandidate),
            Box::new(RandomReplica::new(3)),
        ];
        for selector in selectors {
            let name = selector.name().to_string();
            let report = VodService::new(&scenario, selector, quick_config()).run();
            assert!(!report.completed.is_empty(), "{name} completed no sessions");
        }
    }

    #[test]
    fn static_mode_never_switches() {
        let scenario = quick_scenario(5);
        let config = ServiceConfig {
            dynamic_rerouting: false,
            ..quick_config()
        };
        let report = VodService::new(&scenario, Box::new(Vra::default()), config).run();
        for r in &report.completed {
            assert_eq!(r.switches, 0);
        }
    }

    #[test]
    fn local_requests_have_zero_network_cost() {
        // Seed every title everywhere: every request is a local hit.
        let scenario = quick_scenario(9);
        let config = ServiceConfig {
            initial_replicas: 6,
            disk_capacity: Megabytes::new(100_000.0),
            ..quick_config()
        };
        let report = VodService::new(&scenario, Box::new(Vra::default()), config).run();
        assert!(!report.completed.is_empty());
        for r in &report.completed {
            assert_eq!(r.local_clusters, r.clusters, "all clusters local");
            assert_eq!(r.switches, 0);
        }
        // Startup = first 25 MB cluster at 100 Mbps = 2 s.
        let startup = report.startup_summary();
        assert!((startup.mean - 2.0).abs() < 0.2, "mean = {}", startup.mean);
    }

    #[test]
    fn popular_titles_get_replicated_by_the_dma() {
        let scenario = quick_scenario(11);
        let report = VodService::new(&scenario, Box::new(Vra::default()), quick_config()).run();
        // With Zipf skew and per-request DMA admission, remote fetches
        // admit titles into home caches.
        assert!(report.dma.admissions > 0, "DMA never admitted anything");
        assert!(report.dma.hits > 0, "DMA never hit");
    }

    #[test]
    fn admission_control_protects_the_floor() {
        use crate::admission::AdmissionPolicy;
        // A congested flash crowd: without admission everything is
        // admitted and stalls; with it, some requests are turned away and
        // the admitted remote sessions stall less.
        let scenario = Scenario::flash_crowd(21);
        let open = VodService::new(
            &scenario,
            Box::new(Vra::default()),
            ServiceConfig::default(),
        )
        .run();
        let gated = VodService::new(
            &scenario,
            Box::new(Vra::default()),
            ServiceConfig {
                admission: Some(AdmissionPolicy::new(1.0)),
                ..ServiceConfig::default()
            },
        )
        .run();
        assert_eq!(open.rejected_requests, 0);
        assert!(
            gated.rejected_requests > 0,
            "congestion must trigger rejections"
        );
        assert!(
            gated.mean_stall_ratio() <= open.mean_stall_ratio(),
            "admission control should not worsen stalls: {} vs {}",
            gated.mean_stall_ratio(),
            open.mean_stall_ratio()
        );
        // Conservation including rejections.
        assert_eq!(
            gated.completed.len()
                + gated.unfinished_sessions
                + gated.failed_requests as usize
                + gated.aborted_sessions as usize
                + gated.rejected_requests as usize,
            scenario.trace().len()
        );
    }

    #[test]
    fn smoothed_snapshots_run_and_differ_from_raw() {
        let scenario = quick_scenario(23);
        let raw = VodService::new(&scenario, Box::new(Vra::default()), quick_config()).run();
        let smoothed = VodService::new(
            &scenario,
            Box::new(Vra::default()),
            ServiceConfig {
                snmp_smoothing: Some(0.3),
                ..quick_config()
            },
        )
        .run();
        // Both complete the workload; smoothing is a view change, not a
        // correctness change.
        assert_eq!(
            raw.completed.len() + raw.unfinished_sessions,
            smoothed.completed.len() + smoothed.unfinished_sessions
        );
    }

    #[test]
    fn server_failure_reroutes_and_service_recovers() {
        let scenario = quick_scenario(17);
        let n = scenario.trace().len();
        let start = scenario.trace().requests().first().unwrap().at;
        let victim = scenario.topology().video_server_nodes()[0];
        // With 2 replicas per title, every title survives one failure.
        let config = ServiceConfig {
            initial_replicas: 2,
            failures: vec![(
                start + SimDuration::from_secs(300),
                start + SimDuration::from_secs(2_400),
                victim,
            )],
            ..quick_config()
        };
        let report = VodService::new(&scenario, Box::new(Vra::default()), config).run();
        // Conservation still holds.
        assert_eq!(
            report.completed.len()
                + report.unfinished_sessions
                + report.failed_requests as usize
                + report.aborted_sessions as usize
                + report.rejected_requests as usize,
            n
        );
        // The service kept serving: most sessions completed despite the
        // outage (only clients homed at the victim are lost).
        assert!(
            report.completed.len() * 2 > n,
            "{} of {n} completed",
            report.completed.len()
        );
        // No completed session was served its last cluster by a ghost:
        // every record is internally consistent.
        for r in &report.completed {
            assert!(r.local_clusters <= r.clusters);
        }
    }

    #[test]
    fn failure_of_sole_replica_aborts_cleanly() {
        let scenario = quick_scenario(19);
        let start = scenario.trace().requests().first().unwrap().at;
        let victim = scenario.topology().video_server_nodes()[0];
        // Single-copy seeding: titles on the victim vanish with it.
        let config = ServiceConfig {
            initial_replicas: 1,
            failures: vec![(
                start + SimDuration::from_secs(60),
                start + SimDuration::from_secs(30_000),
                victim,
            )],
            ..quick_config()
        };
        let n = scenario.trace().len();
        let report = VodService::new(&scenario, Box::new(Vra::default()), config).run();
        // Requests for vanished titles fail rather than hang.
        assert!(report.failed_requests > 0);
        assert_eq!(
            report.completed.len()
                + report.unfinished_sessions
                + report.failed_requests as usize
                + report.aborted_sessions as usize
                + report.rejected_requests as usize,
            n
        );
    }

    #[test]
    fn overlapping_outage_windows_nest_instead_of_reviving_early() {
        use vod_obs::RingRecorder;
        let scenario = quick_scenario(19);
        let start = scenario.trace().requests().first().unwrap().at;
        let victim = scenario.topology().video_server_nodes()[0];
        // Two overlapping windows: the first `up` (at +600) must NOT
        // revive the server — the enclosing window runs to +900.
        let config = ServiceConfig {
            initial_replicas: 2,
            failures: vec![
                (
                    start + SimDuration::from_secs(60),
                    start + SimDuration::from_secs(600),
                    victim,
                ),
                (
                    start + SimDuration::from_secs(120),
                    start + SimDuration::from_secs(900),
                    victim,
                ),
            ],
            ..quick_config()
        };
        let service = VodService::with_sink(
            &scenario,
            Box::new(Vra::default()),
            config,
            RingRecorder::new(65_536),
        );
        let (_, _, recorder) = service.run_full();
        let mut downs = Vec::new();
        let mut ups = Vec::new();
        for (at, ev) in recorder.iter() {
            match ev.kind() {
                "server_down" => downs.push(at),
                "server_up" => ups.push(at),
                _ => {}
            }
        }
        assert_eq!(downs, vec![start + SimDuration::from_secs(60)]);
        assert_eq!(ups, vec![start + SimDuration::from_secs(900)]);
    }

    /// A denser workload for fault tests: enough concurrent sessions that
    /// a mid-run outage always catches transfers in flight.
    fn chaos_scenario(seed: u64) -> Scenario {
        use vod_sim::traffic::BackgroundModel;
        use vod_workload::arrivals::HourlyShape;
        use vod_workload::library::{LibraryConfig, LibraryGenerator};
        use vod_workload::trace::TraceConfig;
        let grnet = vod_net::topologies::grnet::Grnet::new();
        let library = LibraryGenerator::new(LibraryConfig {
            titles: 12,
            min_size_mb: 50.0,
            max_size_mb: 120.0,
            bitrate_mbps: 1.5,
        })
        .generate(seed);
        let trace = TraceConfig {
            start: SimTime::from_secs(8 * 3600),
            duration: SimDuration::from_secs(1800),
            rate_per_sec: 0.05,
            shape: HourlyShape::flat(),
            zipf_skew: 0.9,
            client_weights: None,
        }
        .generate(grnet.topology(), &library, seed);
        Scenario::new(
            "chaos",
            grnet.topology().clone(),
            library,
            trace,
            BackgroundModel::grnet_table2(&grnet),
            seed,
        )
    }

    #[test]
    fn retry_budget_bounds_reattempts_and_heals_transients() {
        use vod_net::topologies::grnet::{Grnet, GrnetLink};
        use vod_sim::fault::FaultPlan;
        // Sever both of Heraklio's links mid-run: sessions streaming to
        // or from the island lose every route. Instant abort kills them;
        // a retry budget generous enough to outlast the outage saves
        // them, because the links come back (unlike a crashed server,
        // which rejoins with a cold cache).
        let grnet = Grnet::new();
        let scenario = chaos_scenario(19);
        let start = scenario.trace().requests().first().unwrap().at;
        let outage_start = start + SimDuration::from_secs(300);
        let outage_end = start + SimDuration::from_secs(1200);
        let plan = FaultPlan::new()
            .link_outage(
                outage_start,
                outage_end,
                grnet.link(GrnetLink::AthensHeraklio),
            )
            .link_outage(
                outage_start,
                outage_end,
                grnet.link(GrnetLink::XanthiHeraklio),
            );
        let base = ServiceConfig {
            initial_replicas: 1,
            fault_plan: plan,
            ..quick_config()
        };
        let instant = VodService::new(&scenario, Box::new(Vra::default()), base.clone()).run();
        assert!(
            instant.aborted_sessions > 0,
            "the severed island must abort sessions under instant abort"
        );
        let patient = VodService::new(
            &scenario,
            Box::new(Vra::default()),
            ServiceConfig {
                retry: RetryPolicy {
                    max_attempts: 5,
                    backoff: SimDuration::from_secs(120),
                    stall_budget: SimDuration::from_secs(1500),
                },
                ..base.clone()
            },
        )
        .run();
        assert!(
            patient.aborted_sessions < instant.aborted_sessions,
            "retry must save sessions: {} vs {}",
            patient.aborted_sessions,
            instant.aborted_sessions
        );
        // A budget too small to outlast the outage still aborts — the
        // retry loop is bounded, not infinite.
        let bounded = VodService::new(
            &scenario,
            Box::new(Vra::default()),
            ServiceConfig {
                retry: RetryPolicy {
                    max_attempts: 2,
                    backoff: SimDuration::from_secs(1),
                    stall_budget: SimDuration::from_secs(10),
                },
                ..base
            },
        )
        .run();
        assert!(bounded.aborted_sessions > 0, "bounded retry still aborts");
        for report in [&instant, &patient, &bounded] {
            assert_eq!(
                report.completed.len()
                    + report.unfinished_sessions
                    + report.failed_requests as usize
                    + report.aborted_sessions as usize
                    + report.rejected_requests as usize,
                scenario.trace().len()
            );
        }
    }

    #[test]
    fn link_outage_reroutes_or_retries() {
        use vod_obs::RingRecorder;
        use vod_sim::fault::FaultPlan;
        let scenario = quick_scenario(17);
        let start = scenario.trace().requests().first().unwrap().at;
        // Take a backbone link down for 10 minutes mid-run.
        let link = scenario.topology().link_ids().next().unwrap();
        let plan = FaultPlan::new().link_outage(
            start + SimDuration::from_secs(300),
            start + SimDuration::from_secs(900),
            link,
        );
        let config = ServiceConfig {
            initial_replicas: 2,
            fault_plan: plan,
            retry: RetryPolicy::with_attempts(4),
            ..quick_config()
        };
        let service = VodService::with_sink(
            &scenario,
            Box::new(Vra::default()),
            config,
            RingRecorder::new(65_536),
        );
        let (report, _, recorder) = service.run_full();
        let kinds: Vec<&str> = recorder.iter().map(|(_, e)| e.kind()).collect();
        assert!(kinds.contains(&"link_down"), "outage must be traced");
        assert!(kinds.contains(&"link_up"), "recovery must be traced");
        assert_eq!(
            report.completed.len()
                + report.unfinished_sessions
                + report.failed_requests as usize
                + report.aborted_sessions as usize
                + report.rejected_requests as usize,
            scenario.trace().len()
        );
    }

    #[test]
    fn snmp_outage_freezes_the_view_and_flags_staleness() {
        use vod_obs::RingRecorder;
        use vod_sim::fault::FaultPlan;
        let scenario = quick_scenario(13);
        let start = scenario.trace().requests().first().unwrap().at;
        let plan = FaultPlan::new().snmp_outage(
            start + SimDuration::from_secs(300),
            start + SimDuration::from_mins(10),
        );
        let config = ServiceConfig {
            fault_plan: plan,
            ..quick_config()
        };
        let service = VodService::with_sink(
            &scenario,
            Box::new(Vra::default()),
            config,
            RingRecorder::new(65_536),
        );
        let (report, _, recorder) = service.run_full();
        let mut stale = 0u32;
        let mut max_staleness = SimDuration::ZERO;
        for (_, ev) in recorder.iter() {
            if let vod_obs::Event::SnmpStaleView { staleness } = ev {
                stale += 1;
                if *staleness > max_staleness {
                    max_staleness = *staleness;
                }
            }
        }
        assert!(stale >= 2, "each skipped poll is flagged, got {stale}");
        // Staleness grows while the poller is dark (interval is 2 min).
        assert!(max_staleness >= SimDuration::from_mins(4));
        // The run itself is unharmed: the last-known-good view routes on.
        assert!(report.completed.len() + report.unfinished_sessions > 0);
        assert_eq!(report.failed_requests, 0);
    }

    #[test]
    #[should_panic(expected = "only video servers can fail")]
    fn failing_a_non_server_is_rejected() {
        let scenario = quick_scenario(1);
        let config = ServiceConfig {
            failures: vec![(SimTime::ZERO, SimTime::from_secs(1), NodeId::new(99))],
            ..quick_config()
        };
        let _ = VodService::new(&scenario, Box::new(Vra::default()), config);
    }

    #[test]
    fn prefix_tier_disabled_changes_nothing() {
        // The tier knob defaults to off; the report must say so and the
        // run must match a config that never mentions the tier.
        let scenario = quick_scenario(7);
        let plain = VodService::new(&scenario, Box::new(Vra::default()), quick_config()).run();
        assert!(plain.prefix.is_none());
        let explicit = VodService::new(
            &scenario,
            Box::new(Vra::default()),
            ServiceConfig {
                prefix_tier: None,
                ..quick_config()
            },
        )
        .run();
        assert_eq!(plain, explicit);
    }

    #[test]
    fn prefix_tier_serves_hot_titles_and_offloads_the_origin() {
        let scenario = chaos_scenario(31);
        let n = scenario.trace().len();
        let config = ServiceConfig {
            prefix_tier: Some(PrefixTierConfig::default()),
            ..quick_config()
        };
        let report = VodService::new(&scenario, Box::new(Vra::default()), config).run();
        let prefix = report.prefix.expect("tier enabled");
        // Every serviceable request consulted its regional store.
        assert_eq!(prefix.stats.requests, n as u64);
        assert!(prefix.stats.admissions > 0, "hot prefixes must be stored");
        assert!(prefix.stats.hits > 0, "repeat requests must hit");
        assert!(prefix.served_clusters > 0, "hits must stream clusters");
        assert!(prefix.served_mbit > 0.0);
        // Proxy-streamed clusters show up as locally served ones.
        assert!(
            report.completed.iter().any(|r| r.local_clusters > 0),
            "prefix clusters count as local service"
        );
        assert_eq!(
            report.completed.len()
                + report.unfinished_sessions
                + report.failed_requests as usize
                + report.aborted_sessions as usize
                + report.rejected_requests as usize,
            n
        );
    }

    #[test]
    fn prefix_runs_are_deterministic() {
        let config = || ServiceConfig {
            prefix_tier: Some(PrefixTierConfig::default()),
            ..quick_config()
        };
        let a = VodService::new(&chaos_scenario(33), Box::new(Vra::default()), config()).run();
        let b = VodService::new(&chaos_scenario(33), Box::new(Vra::default()), config()).run();
        assert_eq!(a, b);
    }

    #[test]
    fn full_prefix_sessions_never_touch_the_backbone() {
        // A base grant larger than any title (5 clusters max at 25 MB
        // against 120 MB titles) makes the second request of each title
        // store it whole; later requests stream everything locally.
        let scenario = chaos_scenario(37);
        let config = ServiceConfig {
            prefix_tier: Some(PrefixTierConfig {
                base_clusters: 8,
                max_clusters: 8,
                ..PrefixTierConfig::default()
            }),
            ..quick_config()
        };
        let report = VodService::new(&scenario, Box::new(Vra::default()), config).run();
        let prefix = report.prefix.expect("tier enabled");
        assert!(
            prefix.full_prefix_sessions > 0,
            "whole-title prefixes must produce origin-free sessions"
        );
        // An origin-free session fetches every cluster locally and
        // never switches servers.
        assert!(report
            .completed
            .iter()
            .any(|r| { r.local_clusters == r.clusters && r.switches == 0 }));
    }

    #[test]
    fn snmp_metrics_are_sampled() {
        let scenario = quick_scenario(13);
        let report = VodService::new(&scenario, Box::new(Vra::default()), quick_config()).run();
        assert!(report.max_link_utilization.count > 0);
        assert!(report.max_link_utilization.max <= 1.0 + 1e-9);
    }
}
