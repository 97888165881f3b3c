//! Deterministic discrete-event simulation for the distributed VoD service.
//!
//! The ICDCS 2000 paper evaluated its Virtual Routing Algorithm against
//! live SNMP readings of the GRNET backbone; to reproduce (and extend) that
//! evaluation without the 1999 Greek research network, this crate provides
//! the simulation substrate the rest of the workspace runs on:
//!
//! * [`time`] — integer-microsecond simulated time ([`SimTime`],
//!   [`SimDuration`]);
//! * [`scheduler`] + [`engine`] — a classic event-queue discrete-event
//!   engine: a [`Model`] implementation handles its own event type and
//!   schedules follow-ups;
//! * [`flow`] — a fluid-flow network model over a
//!   [`Topology`](vod_net::Topology): each video transfer is a flow along
//!   a route, links share bandwidth **max-min fairly** among flows after
//!   subtracting background traffic, and flow completions are predicted
//!   exactly;
//! * [`traffic`] — diurnal background-traffic profiles (piecewise-linear
//!   in hour-of-day), including profiles fitted to the paper's Table 2
//!   readings;
//! * [`fault`] — deterministic fault-injection plans (link outages and
//!   flaps, bandwidth degradation, SNMP-poller outages, server
//!   crashes), replayable from a seed;
//! * [`metrics`] — counters, time series and summary statistics used by
//!   the experiment harness.
//!
//! Everything is deterministic: no wall-clock, no threads, no global RNG.
//!
//! # Example
//!
//! ```
//! use vod_sim::time::{SimDuration, SimTime};
//! use vod_sim::engine::{Model, Simulation};
//! use vod_sim::scheduler::Scheduler;
//!
//! struct Ping { count: u32 }
//! #[derive(Debug)]
//! enum Ev { Tick }
//!
//! impl Model for Ping {
//!     type Event = Ev;
//!     fn handle(&mut self, now: SimTime, _ev: Ev, sched: &mut Scheduler<Ev>) {
//!         self.count += 1;
//!         if self.count < 3 {
//!             sched.schedule(now + SimDuration::from_secs(1), Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Ping { count: 0 });
//! sim.scheduler_mut().schedule(SimTime::ZERO, Ev::Tick);
//! sim.run();
//! assert_eq!(sim.model().count, 3);
//! assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(2));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod fault;
pub mod flow;
pub mod metrics;
pub mod scheduler;
pub mod time;
pub mod traffic;

pub use engine::{Model, Simulation};
pub use fault::{FaultKind, FaultPlan, FaultWindow};
pub use flow::{FlowId, FlowKernel, FlowNetwork, FlowStats, COMPLETION_CHECK_SLACK};
pub use scheduler::Scheduler;
pub use time::{SimDuration, SimTime};
