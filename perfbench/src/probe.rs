//! Outside-in probes: a [`ServerSelector`] and an [`EventSink`] that
//! forward to the real layer and time each call with the host clock.
//!
//! The library crates may not read the wall clock (lint rule L001), so
//! layer time is taken here, at the public boundary of each layer. Both
//! probes are transparent: the service sees the same selections and the
//! inner sink the same events as without them, which the benchmark
//! checks by comparing the traced run's simulated outcome with the
//! untraced one.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use vod_core::selection::{Selection, SelectionContext, ServerSelector};
use vod_core::vra::Vra;
use vod_core::CoreError;
use vod_net::{EngineStats, LinkId, NodeId};
use vod_obs::{Event, EventSink, TimeSeriesSink};
use vod_sim::SimTime;
use vod_storage::video::VideoId;

/// What the selector probe saw.
#[derive(Debug, Default)]
pub struct SelectLog {
    /// Host time of every `select` call, in nanoseconds, in call order.
    pub call_ns: Vec<u64>,
    /// The route of every successful selection, in call order.
    pub routes: Vec<SelectedRoute>,
}

/// One successful selection as the selector returned it.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectedRoute {
    /// The client's home server.
    pub home: NodeId,
    /// The chosen source server.
    pub server: NodeId,
    /// Links the cluster crosses (empty for a local serve).
    pub links: Vec<LinkId>,
}

/// A [`Vra`] whose `select` calls are timed and whose routes are kept.
pub struct TimedSelector {
    inner: Vra,
    log: Rc<RefCell<SelectLog>>,
}

impl TimedSelector {
    /// Wraps `Vra::default()`; the returned log fills in as the service
    /// runs.
    pub fn new() -> (TimedSelector, Rc<RefCell<SelectLog>>) {
        let log = Rc::new(RefCell::new(SelectLog::default()));
        let selector = TimedSelector {
            inner: Vra::default(),
            log: Rc::clone(&log),
        };
        (selector, log)
    }
}

impl ServerSelector for TimedSelector {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn select(&mut self, ctx: &SelectionContext<'_>) -> Result<Selection, CoreError> {
        let start = Instant::now();
        let result = self.inner.select(ctx);
        let took = start.elapsed();
        let mut log = self.log.borrow_mut();
        log.call_ns.push(took.as_nanos() as u64);
        if let Ok(selection) = &result {
            log.routes.push(SelectedRoute {
                home: ctx.home,
                server: selection.server,
                links: selection.route.links().to_vec(),
            });
        }
        result
    }

    fn engine_stats(&self) -> Option<EngineStats> {
        self.inner.engine_stats()
    }

    fn lvn_params(&self) -> Option<vod_net::lvn::LvnParams> {
        self.inner.lvn_params()
    }
}

/// One `vra_select` event: when and for which cluster a source was
/// chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectEvent {
    /// Simulated time of the selection (the cluster fetch starts then).
    pub at: SimTime,
    /// The client's home server.
    pub home: NodeId,
    /// The chosen source server.
    pub server: NodeId,
    /// The title being fetched.
    pub video: VideoId,
    /// Index of the cluster being fetched.
    pub cluster: u64,
}

/// A [`TimeSeriesSink`] whose `record` calls are timed, keeping the
/// `vra_select` stream for the flow replay and counting the fault and
/// retry events the chaos workload must show.
#[derive(Debug, Default)]
pub struct ProbeSink {
    inner: TimeSeriesSink,
    /// Events recorded.
    pub records: u64,
    /// Total host time inside [`TimeSeriesSink`]'s `record`.
    pub record_time: Duration,
    /// Every `vra_select` event, in emission order.
    pub selects: Vec<SelectEvent>,
    /// Fault windows that opened during the run, counted per kind in
    /// the order server outage, link outage, link degradation, SNMP
    /// outage.
    pub faults_fired: [u64; 4],
    /// `session_retry` events.
    pub retries: u64,
}

impl EventSink for ProbeSink {
    fn record(&mut self, at: SimTime, event: &Event) {
        let start = Instant::now();
        self.inner.record(at, event);
        self.record_time += start.elapsed();
        self.records += 1;
        match *event {
            Event::VraSelect {
                cluster,
                video,
                home,
                server,
                ..
            } => self.selects.push(SelectEvent {
                at,
                home,
                server,
                video,
                cluster,
            }),
            Event::ServerDown { .. } => self.faults_fired[0] += 1,
            Event::LinkDown { .. } => self.faults_fired[1] += 1,
            Event::LinkDegradeStart { .. } => self.faults_fired[2] += 1,
            Event::SnmpOutageStart => self.faults_fired[3] += 1,
            Event::SessionRetry { .. } => self.retries += 1,
            _ => {}
        }
    }
}
