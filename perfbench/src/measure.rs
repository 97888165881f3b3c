//! One benchmark invocation: timed untraced runs, one traced run with
//! the probes attached, the output and fidelity checks, and the metrics.

use std::time::{Duration, Instant};

use vod_core::selection::ServerSelector;
use vod_core::service::VodService;
use vod_core::vra::Vra;
use vod_net::EngineStats;
use vod_obs::{EventSink, NullSink};
use vod_sim::metrics::Summary;
use vod_storage::cluster::ClusterSize;
use vod_storage::dma::DmaStats;
use vod_workload::scenario::Scenario;

use crate::host::HostSpeed;
use crate::probe::{ProbeSink, SelectLog, TimedSelector};
use crate::replay::{replay, ReplayFlow, ReplayStats};
use crate::workload::Workload;

/// Set-ups timed for `setup_s` (each builds a scenario and its service,
/// then drops them unrun).
pub const SETUP_SAMPLES: usize = 21;

/// Event instants a paced run processes between two readings of the
/// host clock.
const INSTANTS_PER_SLICE: u32 = 64;

/// What one invocation measures.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed naming the workload's scenarios (and chaos fault plans).
    pub seed: u64,
    /// Target session count per scenario.
    pub sessions: usize,
    /// Host time to keep repeating untraced runs for.
    pub seconds: f64,
    /// Also replay the traced run's fetches through the flow kernel and
    /// compute the per-layer metrics.
    pub per_layer: bool,
}

/// A named metric value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The simulated outcome of one service run. Host timing plays no part
/// in it, so it repeats exactly for a scenario.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    /// Requests in the trace.
    arrivals: u64,
    /// Sessions that played to the end.
    completed: u64,
    /// Requests that could not be served at admission.
    failed: u64,
    /// Requests turned away by admission control.
    rejected: u64,
    /// Sessions dropped mid-stream.
    aborted: u64,
    /// Sessions still live when the run stopped.
    unfinished: u64,
    /// True when no event was left pending.
    drained: bool,
    /// Events processed.
    events: u64,
    /// Most sessions live at once.
    peak_sessions: u64,
    /// Simulated time at the end of the run, in seconds.
    sim_s: f64,
    /// Startup delay of every completed session, simulated seconds.
    startups: Vec<f64>,
    /// Mean stall ratio over completed sessions.
    stall_ratio: f64,
    /// Mean mid-stream switches per completed session.
    switches_per_session: f64,
    /// DMA decisions summed over servers.
    dma: DmaStats,
    /// SNMP polling rounds.
    snmp_polls: u64,
    /// Routing-engine counters.
    engine: EngineStats,
}

impl Outcome {
    /// Arrivals that reached a terminal state: completed, failed,
    /// rejected or aborted.
    fn terminal(&self) -> u64 {
        self.completed + self.failed + self.rejected + self.aborted
    }
}

/// One service run.
struct Run<S> {
    /// Host time of the run itself, calibration left out.
    wall: Duration,
    /// The calibration interleaved with a paced run.
    host: Option<HostSpeed>,
    outcome: Outcome,
    sink: S,
    scenario: Scenario,
}

/// Generates scenario `index` of the workload and builds its service:
/// the benchmark's set-up.
fn set_up<S: EventSink>(
    opts: &Options,
    index: usize,
    selector: Box<dyn ServerSelector>,
    sink: S,
) -> (Scenario, VodService<S>) {
    let scenario = opts.workload.scenario(opts.seed, index, opts.sessions);
    let config = opts.workload.config(&scenario, index);
    let service = VodService::with_sink(&scenario, selector, config, sink);
    (scenario, service)
}

/// Runs the service to the end one event instant at a time, so that
/// host-speed calibration can be interleaved with it (see
/// [`crate::host`]). The events run in the same order as under
/// `run_to_end`, and the clock stops on the last of them.
fn run_paced<S: EventSink>(service: &mut VodService<S>) -> HostSpeed {
    let mut host = HostSpeed::new();
    let mut instants = 0;
    let mut start = Instant::now();
    while let Some(next) = service.next_event_at() {
        service.run_until(next);
        instants += 1;
        if instants % INSTANTS_PER_SLICE == 0 {
            host.add_work(start.elapsed());
            start = Instant::now();
        }
    }
    host.add_work(start.elapsed());
    host
}

/// Sets scenario `index` up, runs it to the end (timed as the run) and
/// reads its outcome. A paced run interleaves host-speed calibration
/// with the run; an unpaced one is a single timed `run_to_end`.
fn run_service<S: EventSink>(
    opts: &Options,
    index: usize,
    selector: Box<dyn ServerSelector>,
    sink: S,
    paced: bool,
) -> Run<S> {
    let (scenario, mut service) = set_up(opts, index, selector, sink);
    let (wall, host) = if paced {
        let host = run_paced(&mut service);
        (Duration::from_secs_f64(host.work_s()), Some(host))
    } else {
        let start = Instant::now();
        service.run_to_end();
        (start.elapsed(), None)
    };

    let drained = service.next_event_at().is_none();
    let events = service.events_processed();
    let peak_sessions = service.peak_sessions() as u64;
    let sim_s = service.now().as_secs_f64();
    let (report, _, sink) = service.run_full();
    let outcome = Outcome {
        arrivals: scenario.trace().len() as u64,
        completed: report.completed.len() as u64,
        failed: report.failed_requests,
        rejected: report.rejected_requests,
        aborted: report.aborted_sessions,
        unfinished: report.unfinished_sessions as u64,
        drained,
        events,
        peak_sessions,
        sim_s,
        startups: report
            .completed
            .iter()
            .map(|r| r.startup_delay.as_secs_f64())
            .collect(),
        stall_ratio: report.mean_stall_ratio(),
        switches_per_session: report.mean_switches(),
        dma: report.dma,
        snmp_polls: report.snmp_polls,
        engine: report.engine.unwrap_or_default(),
    };
    Run {
        wall,
        host,
        outcome,
        sink,
        scenario,
    }
}

/// The output checks every run must pass.
fn check_outcome(outcome: &Outcome) -> Vec<String> {
    let mut problems = Vec::new();
    let accounted = outcome.terminal() + outcome.unfinished;
    if accounted != outcome.arrivals {
        problems.push(format!(
            "arrivals not conserved: {} completed + {} failed + {} rejected + {} aborted \
             + {} unfinished = {accounted} != {} arrivals",
            outcome.completed,
            outcome.failed,
            outcome.rejected,
            outcome.aborted,
            outcome.unfinished,
            outcome.arrivals
        ));
    }
    if !outcome.drained {
        problems.push("the event queue was not drained at the end of the run".into());
    }
    problems
}

/// The serve-mix checks that keep `local-100k` local and `remote-1k`
/// remote.
fn check_serve_mix(workload: Workload, outcome: &Outcome) -> Vec<String> {
    let engine = &outcome.engine;
    let remote = engine.requests - engine.local_hits;
    match workload {
        Workload::Local if remote != 0 || engine.dijkstra_runs != 0 => vec![format!(
            "local-100k must serve everything locally: {} local hits of {} selections, \
             {} Dijkstra runs",
            engine.local_hits, engine.requests, engine.dijkstra_runs
        )],
        Workload::Remote if remote * 2 < engine.requests => vec![format!(
            "remote-1k must select remotely at least half the time: {remote} of {}",
            engine.requests
        )],
        _ => Vec::new(),
    }
}

/// The `chaos-mixed` checks, on what the probe sink saw: every fault
/// kind fired and at least one session retried a fetch.
fn check_chaos(sink: &ProbeSink) -> Vec<String> {
    let names = [
        "server outage",
        "link outage",
        "link degradation",
        "SNMP outage",
    ];
    let mut problems: Vec<String> = names
        .iter()
        .zip(&sink.faults_fired)
        .filter(|(_, &fired)| fired == 0)
        .map(|(name, _)| format!("chaos-mixed: no {name} fired"))
        .collect();
    if sink.retries == 0 {
        problems.push("chaos-mixed: no session retried a fetch".into());
    }
    problems
}

/// Everything one invocation produced.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// End-to-end metrics, from the untraced runs.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, from the traced run (empty unless
    /// [`Options::per_layer`]).
    pub per_layer: Vec<Metric>,
    /// Host time of each scenario's untraced runs, in seconds.
    pub run_walls: Vec<Vec<f64>>,
    /// Host speed during each of those runs, relative to the reference
    /// (see [`crate::host`]).
    pub run_speeds: Vec<Vec<f64>>,
    /// Completed sessions the startup percentiles are taken over.
    pub startup_samples: u64,
    /// Service runs made (untraced and traced).
    pub runs: u64,
    /// Runs that failed a check. A check across runs (traced against
    /// untraced, the flow replay) counts against the traced run.
    pub failed_runs: u64,
    /// Output and fidelity checks that failed.
    pub problems: Vec<String>,
}

/// Runs one invocation of the benchmark.
///
/// [`SETUP_SAMPLES`] timed set-ups come first, for `setup_s`. Untraced
/// runs (`NullSink`, plain VRA) of the workload's scenarios follow in
/// turn, each at least once and on until `opts.seconds` of host time
/// have passed. They give the end-to-end metrics: time per scenario as
/// the median of its runs in reference seconds, simulated figures pooled
/// over the scenarios. Set-ups and untraced runs are paced: host-speed
/// calibration is interleaved with them and their host time restated in
/// reference seconds (see [`crate::host`]). Peak RSS is read right after the first of them, so it
/// is the peak of one scenario's run (scenario 0) rather than the worst
/// of several, which a single scenario with an unusual flow history
/// would set. One traced run of scenario 0 with the probes follows;
/// with [`Options::per_layer`] its fetches are then replayed through the
/// flow kernel for the per-layer metrics.
pub fn measure(opts: &Options) -> Measurement {
    let scenarios = opts.workload.scenario_count();
    let setup_s: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|i| {
            let start = Instant::now();
            let built = set_up(opts, i % scenarios, Box::new(Vra::default()), NullSink);
            let took = start.elapsed();
            drop(built);
            let mut host = HostSpeed::new();
            host.add_work(took);
            host.reference_s()
        })
        .collect();

    let mut problems = Vec::new();
    let mut failed_runs = 0;
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); scenarios];
    let mut speeds: Vec<Vec<f64>> = vec![Vec::new(); scenarios];
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(scenarios);
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut runs = 0;
    let mut peak_rss = None;
    while runs < scenarios || start.elapsed() < budget {
        let index = runs % scenarios;
        let run = run_service(opts, index, Box::new(Vra::default()), NullSink, true);
        let mut found = check_outcome(&run.outcome);
        match outcomes.get(index) {
            Some(earlier) if *earlier != run.outcome => found.push(format!(
                "untraced runs of scenario {index} disagree on the simulated outcome"
            )),
            Some(_) => {}
            None => {
                found.extend(check_serve_mix(opts.workload, &run.outcome));
                outcomes.push(run.outcome);
            }
        }
        failed_runs += u64::from(!found.is_empty());
        problems.extend(found);
        walls[index].push(run.wall.as_secs_f64());
        speeds[index].push(run.host.map_or(1.0, |host| host.speed()));
        if runs == 0 {
            peak_rss = peak_rss_mb();
        }
        runs += 1;
    }
    let peak_rss_mb = peak_rss.unwrap_or_else(|| {
        problems.push("peak RSS unreadable: no VmHWM in /proc/self/status".into());
        0.0
    });
    let untraced_problems = problems.len();

    let (selector, log) = TimedSelector::new();
    let traced = run_service(opts, 0, Box::new(selector), ProbeSink::default(), false);
    problems.extend(check_outcome(&traced.outcome));
    if traced.outcome != outcomes[0] {
        problems.push(
            "traced and untraced runs of scenario 0 disagree on the simulated outcome".into(),
        );
    }
    if opts.workload == Workload::Chaos {
        problems.extend(check_chaos(&traced.sink));
    }
    let log = log.take();
    let config = opts.workload.config(&traced.scenario, 0);
    let flows = match replay_input(&traced, &log, config.cluster) {
        Ok(flows) => flows,
        Err(problem) => {
            problems.push(problem);
            Vec::new()
        }
    };

    // Runs of one scenario do identical, deterministic work, so they
    // differ only by the host: its speed, which the calibration tracks,
    // and interference it misses, which the median sets aside.
    let reference_s: Vec<f64> = walls
        .iter()
        .zip(&speeds)
        .map(|(w, v)| Summary::from_values(w.iter().zip(v).map(|(w, v)| w * v)).p50)
        .collect();
    let terminal: u64 = outcomes.iter().map(Outcome::terminal).sum();
    let arrivals: u64 = outcomes.iter().map(|o| o.arrivals).sum();
    let completed: u64 = outcomes.iter().map(|o| o.completed).sum();
    let startup = Summary::from_values(outcomes.iter().flat_map(|o| o.startups.iter().copied()));
    let stall_sum: f64 = outcomes
        .iter()
        .map(|o| o.stall_ratio * o.completed as f64)
        .sum();
    let end_to_end = vec![
        metric(
            "sessions_per_s",
            "1/s",
            terminal as f64 / reference_s.iter().sum::<f64>(),
        ),
        metric("peak_rss_mb", "MB", peak_rss_mb),
        metric("setup_s", "s", Summary::from_values(setup_s).p50),
        metric("startup_p50_s", "sim_s", startup.p50),
        metric("startup_p99_s", "sim_s", startup.p99),
        metric(
            "playout_stretch",
            "ratio",
            1.0 + stall_sum / completed.max(1) as f64,
        ),
        metric(
            "completed_frac",
            "ratio",
            completed as f64 / arrivals.max(1) as f64,
        ),
    ];

    let mut per_layer = Vec::new();
    if opts.per_layer {
        match replay(traced.scenario.topology(), config.local_rate, flows) {
            Ok(stats) => {
                if stats.live_at_end != 0 {
                    problems.push(format!(
                        "flow replay ended with {} live flows",
                        stats.live_at_end
                    ));
                }
                let untraced_s = Summary::from_values(walls[0].iter().copied()).p50;
                per_layer = layer_metrics(&traced, &log, &stats, untraced_s);
            }
            Err(problem) => problems.push(format!("flow replay failed: {problem}")),
        }
    }

    for m in end_to_end.iter().chain(&per_layer) {
        if !m.value.is_finite() {
            problems.push(format!("metric {} is not finite: {}", m.name, m.value));
        }
    }
    if problems.len() > untraced_problems {
        failed_runs += 1;
    }
    Measurement {
        end_to_end,
        per_layer,
        run_walls: walls,
        run_speeds: speeds,
        startup_samples: startup.count as u64,
        runs: runs as u64 + 1,
        failed_runs,
        problems,
    }
}

/// Pairs each selection the selector probe returned with the
/// `vra_select` event the service emitted for it, giving the fetches to
/// replay. The two streams must agree one to one.
fn replay_input(
    traced: &Run<ProbeSink>,
    log: &SelectLog,
    cluster: ClusterSize,
) -> Result<Vec<ReplayFlow>, String> {
    let selects = &traced.sink.selects;
    if selects.len() != log.routes.len() {
        return Err(format!(
            "{} vra_select events but {} successful selections",
            selects.len(),
            log.routes.len()
        ));
    }
    let library = traced.scenario.library();
    selects
        .iter()
        .zip(&log.routes)
        .map(|(event, route)| {
            if (event.home, event.server) != (route.home, route.server) {
                return Err(format!(
                    "vra_select at {:?} names {:?}->{:?} but the selector chose {:?}->{:?}",
                    event.at, event.home, event.server, route.home, route.server
                ));
            }
            let meta = library
                .get(event.video)
                .ok_or_else(|| format!("vra_select names unknown title {:?}", event.video))?;
            Ok(ReplayFlow {
                at: event.at,
                links: route.links.clone(),
                volume_mbit: cluster
                    .part_size(meta.size(), event.cluster as usize)
                    .as_megabits(),
            })
        })
        .collect()
}

fn layer_metrics(
    traced: &Run<ProbeSink>,
    log: &SelectLog,
    flow: &ReplayStats,
    untraced_run_s: f64,
) -> Vec<Metric> {
    let outcome = &traced.outcome;
    let engine = &outcome.engine;
    let sink = &traced.sink;
    let select_us = Summary::from_values(log.call_ns.iter().map(|&ns| ns as f64 / 1e3));
    let select_s = log.call_ns.iter().sum::<u64>() as f64 / 1e9;
    let record_s = sink.record_time.as_secs_f64();
    let traced_s = traced.wall.as_secs_f64();
    let remote = engine.requests - engine.local_hits;
    vec![
        metric("flow.add_calls", "count", flow.adds as f64),
        metric("flow.add_s", "s", flow.add.as_secs_f64()),
        metric("flow.add_p99_us", "us", flow.add_p99_us),
        metric("flow.advance_s", "s", flow.advance.as_secs_f64()),
        metric(
            "flow.next_completion_s",
            "s",
            flow.next_completion.as_secs_f64(),
        ),
        metric("flow.replay_s", "s", flow.total.as_secs_f64()),
        metric("flow.peak_flows", "count", flow.peak_flows as f64),
        metric("routing.select_calls", "count", select_us.count as f64),
        metric("routing.select_s", "s", select_s),
        metric("routing.select_p50_us", "us", select_us.p50),
        metric("routing.select_p99_us", "us", select_us.p99),
        metric(
            "routing.local_frac",
            "ratio",
            ratio(engine.local_hits, engine.requests),
        ),
        metric(
            "routing.path_cache_hit_ratio",
            "ratio",
            ratio(engine.path_cache_hits, remote),
        ),
        metric(
            "routing.dijkstra_runs",
            "count",
            engine.dijkstra_runs as f64,
        ),
        metric(
            "routing.full_rebuilds",
            "count",
            engine.full_rebuilds as f64,
        ),
        metric("routing.tree_repairs", "count", engine.tree_repairs as f64),
        metric("sim.events", "count", outcome.events as f64),
        metric(
            "sim.us_per_event",
            "us",
            untraced_run_s * 1e6 / outcome.events.max(1) as f64,
        ),
        metric("sim.peak_sessions", "count", outcome.peak_sessions as f64),
        metric("sim.sim_s", "sim_s", outcome.sim_s),
        metric("service.untimed_s", "s", traced_s - select_s - record_s),
        metric("obs.records", "count", sink.records as f64),
        metric("obs.record_s", "s", record_s),
        metric(
            "obs.ns_per_record",
            "ns",
            record_s * 1e9 / sink.records.max(1) as f64,
        ),
        metric("trace.overhead", "ratio", traced_s / untraced_run_s),
        metric("dma.hits", "count", outcome.dma.hits as f64),
        metric("dma.admits", "count", outcome.dma.admissions as f64),
        metric("dma.evictions", "count", outcome.dma.evictions as f64),
        metric("snmp.polls", "count", outcome.snmp_polls as f64),
        metric(
            "session.switches_per_session",
            "count",
            outcome.switches_per_session,
        ),
    ]
}

/// The benchmark's result line: one JSON object whose `metrics` maps
/// each name to `{"value", "unit"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The process's peak resident set (`VmHWM`) in MB, `None` where
/// `/proc/self/status` does not report it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}
