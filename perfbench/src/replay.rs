//! Open-loop replay of a traced run's cluster fetches through a fresh
//! [`FlowNetwork`], timing each call into the flow kernel.
//!
//! The traced run yields one [`ReplayFlow`] per selection: when the
//! fetch started, which links it crosses and how many megabits it
//! carries. The replay adds the flows at those instants, completing
//! whatever finishes in between, then drains the network. It does not
//! feed completions back into the arrival schedule, so its flow
//! population follows the traced run's rather than reacting to its own
//! rates; it measures the add/advance/completion path of the kernel the
//! service drives, not the service.

use std::time::{Duration, Instant};

use vod_net::{LinkId, Mbps, Topology};
use vod_sim::flow::{FlowId, FlowKernel, FlowNetwork};
use vod_sim::metrics::Summary;
use vod_sim::{SimDuration, SimTime};

/// One cluster fetch to replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayFlow {
    /// When the fetch started.
    pub at: SimTime,
    /// Links it crosses (empty for a local serve).
    pub links: Vec<LinkId>,
    /// Volume in megabits.
    pub volume_mbit: f64,
}

/// Host time spent in each flow-kernel call of a replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayStats {
    /// `add_flow` calls made.
    pub adds: u64,
    /// Total host time in `add_flow`.
    pub add: Duration,
    /// 99th-percentile `add_flow` call, in microseconds.
    pub add_p99_us: f64,
    /// Total host time in `advance_into`.
    pub advance: Duration,
    /// Total host time in `next_completion`.
    pub next_completion: Duration,
    /// Host time of the whole replay.
    pub total: Duration,
    /// Most flows live at once.
    pub peak_flows: usize,
    /// Flows still live after the drain (zero for a sound kernel).
    pub live_at_end: usize,
}

/// Replays `flows` (sorted by start time) on `topology` with the given
/// local streaming rate.
///
/// # Errors
///
/// Fails when the kernel rejects a flow, when the flows are not sorted
/// by start time, or when advancing to a predicted completion finishes
/// no flow (the kernel's completion contract).
pub fn replay(
    topology: &Topology,
    local_rate: Mbps,
    flows: Vec<ReplayFlow>,
) -> Result<ReplayStats, String> {
    let start = Instant::now();
    let mut net = FlowNetwork::with_kernel(topology.clone(), FlowKernel::Lazy);
    net.set_local_rate(local_rate);
    let mut clock = Clock {
        net,
        now: SimTime::ZERO,
        done: Vec::new(),
        advance: Duration::ZERO,
        next_completion: Duration::ZERO,
    };
    let mut add_us = Vec::with_capacity(flows.len());
    let mut add = Duration::ZERO;
    let mut peak_flows = 0;
    for flow in flows {
        if flow.at < clock.now {
            return Err(format!(
                "replay input out of order at {:?} (clock {:?})",
                flow.at, clock.now
            ));
        }
        clock.complete_until(Some(flow.at))?;
        clock.advance_to(flow.at);
        let t = Instant::now();
        let added = clock.net.add_flow(flow.links, flow.volume_mbit);
        let took = t.elapsed();
        added.map_err(|e| format!("add_flow rejected a traced fetch: {e}"))?;
        add += took;
        add_us.push(took.as_secs_f64() * 1e6);
        peak_flows = peak_flows.max(clock.net.flow_count());
    }
    clock.complete_until(None)?;
    Ok(ReplayStats {
        adds: add_us.len() as u64,
        add,
        add_p99_us: Summary::from_values(add_us).p99,
        advance: clock.advance,
        next_completion: clock.next_completion,
        total: start.elapsed(),
        peak_flows,
        live_at_end: clock.net.flow_count(),
    })
}

/// The replay network with its simulated clock and per-call timers.
struct Clock {
    net: FlowNetwork,
    now: SimTime,
    done: Vec<FlowId>,
    advance: Duration,
    next_completion: Duration,
}

impl Clock {
    fn advance_by(&mut self, dt: SimDuration) {
        let t = Instant::now();
        self.net.advance_into(dt, &mut self.done);
        self.advance += t.elapsed();
        self.now += dt;
    }

    fn advance_to(&mut self, at: SimTime) {
        if at > self.now {
            self.advance_by(at - self.now);
        }
    }

    /// Steps from completion to completion while the next one falls at
    /// or before `until` (`None`: until no flow is left in progress).
    fn complete_until(&mut self, until: Option<SimTime>) -> Result<(), String> {
        loop {
            let t = Instant::now();
            let next = self.net.next_completion();
            self.next_completion += t.elapsed();
            let Some((_, dt)) = next else {
                return Ok(());
            };
            if until.is_some_and(|until| self.now + dt > until) {
                return Ok(());
            }
            self.advance_by(dt);
            if self.done.is_empty() {
                return Err(format!(
                    "advancing {dt:?} to a predicted completion finished no flow"
                ));
            }
        }
    }
}
