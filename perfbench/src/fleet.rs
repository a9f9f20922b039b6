//! The `fleet` workload: [`Scenario::run_with`] on a two-tier topology
//! of about a million clients, with every 1000th client driven through
//! the real journaled stack by [`FleetStackHook`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use utp_core::verifier::VerifierConfig;
use utp_journal::Journal;
use utp_netsim::{
    AdmissionConfig, ArrivalCurve, FleetReport, FullStackHook, HookOutcome, LinkConfig,
    LinkProfile, Scenario, Topology,
};
use utp_server::flow::FleetStackHook;
use utp_server::provider::ServiceProvider;

use crate::report::{end_to_end, metric, repeated_setup, spread_note, Metric, Outcome, Tally};
use crate::settle::{self, journal_config};
use crate::stats::{median, ms, now, us};
use crate::world::World;

/// The account [`FleetStackHook`] draws every sampled order from, and
/// the balance it opens with.
const FLEET_ACCOUNT: &str = "fleet";
const FLEET_OPENING: i64 = i64::MAX / 2;

/// How big the fleet is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSize {
    /// Hubs on the core tier.
    pub hubs: u32,
    /// Clients per hub on the leaf tier.
    pub clients_per_hub: u32,
}

impl FleetSize {
    /// The benchmark's size: 100 hubs × 10 000 clients.
    pub const STANDARD: FleetSize = FleetSize {
        hubs: 100,
        clients_per_hub: 10_000,
    };
    /// A size for the benchmark's own tests and for side probes.
    pub const SMALL: FleetSize = FleetSize {
        hubs: 10,
        clients_per_hub: 2_000,
    };

    /// Clients in the fleet.
    pub fn clients(&self) -> u64 {
        u64::from(self.hubs) * u64::from(self.clients_per_hub)
    }
}

/// Modeled verification workers.
pub const WORKERS: u32 = 4;
/// Modeled cost of one verification.
pub const VERIFY_COST: Duration = Duration::from_micros(120);
/// Offered load as a share of the modeled pool's capacity.
pub const LOAD: f64 = 0.9;
/// Loss on the leaf links, in parts per million.
pub const LEAF_LOSS_PPM: u32 = 10_000;
/// Every n-th client runs the real stack.
pub const FULL_STACK_EVERY: u32 = 1000;

/// Goodput bound of the modeled pool, `workers ÷ verify_cost`, worked
/// out here rather than read from the simulator.
pub fn capacity_per_sec(workers: u32, verify_cost: Duration) -> f64 {
    f64::from(workers) / verify_cost.as_secs_f64()
}

/// The scenario: steady arrivals at [`LOAD`] of capacity, 1% leaf loss,
/// admission control on.
pub fn scenario(size: FleetSize, seed: u64) -> Scenario {
    let core = LinkProfile::clean(LinkConfig::fixed_rtt_bw(
        Duration::from_millis(4),
        50_000_000,
    ));
    let leaf = LinkProfile::clean(LinkConfig::broadband()).with_loss_ppm(LEAF_LOSS_PPM);
    let topology = Topology::two_tier(size.hubs, size.clients_per_hub, core, leaf);
    let offered = capacity_per_sec(WORKERS, VERIFY_COST) * LOAD;
    let horizon = Duration::from_secs_f64(size.clients() as f64 / offered);
    let mut sc = Scenario::new(topology, ArrivalCurve::Steady, horizon, seed);
    sc.provider.workers = WORKERS;
    sc.provider.verify_cost = VERIFY_COST;
    sc.provider.queue_limit = 4_096;
    sc.provider.admission = Some(AdmissionConfig::for_service_time(
        256,
        VERIFY_COST / WORKERS,
    ));
    // Eight attempts: with four, about 1% loss on each leaf crossing
    // leaves a few clients per million out of attempts, so whether every
    // client settles would depend on the seed.
    sc.retry.max_attempts = 8;
    sc.full_stack_every = FULL_STACK_EVERY;
    sc.tag_run("perfbench-fleet");
    sc
}

/// Times every call into the real stack, and the simulation between
/// two calls.
pub struct TimedHook {
    /// The real stack.
    pub inner: FleetStackHook,
    /// Host µs of each `FleetStackHook::submit`.
    pub calls_us: Vec<f64>,
    /// Host µs the simulator spent between the end of one call and the
    /// start of the next: the events of about [`FULL_STACK_EVERY`] clients.
    pub slices_us: Vec<f64>,
    last_return: Option<Instant>,
}

impl TimedHook {
    /// Wraps `inner` with empty timings.
    pub fn new(inner: FleetStackHook) -> TimedHook {
        TimedHook {
            inner,
            calls_us: Vec::new(),
            slices_us: Vec::new(),
            last_return: None,
        }
    }
}

impl FullStackHook for TimedHook {
    fn submit(&mut self, fleet_index: u32, replay: bool, at: Duration) -> HookOutcome {
        let t = now();
        if let Some(last) = self.last_return {
            self.slices_us.push(us(t - last));
        }
        let outcome = self.inner.submit(fleet_index, replay, at);
        self.calls_us.push(us(t.elapsed()));
        self.last_return = Some(now());
        outcome
    }
}

/// Checks a fleet report against properties the method must have:
/// every client settles but those the real stack rejected, terminal
/// states partition the fleet, goodput stays under the pool's capacity,
/// and the sampled provider debited each settled order exactly once.
///
/// A sampled client is rejected, rightly, when its simulated human fails
/// the confirmation code three times; `FleetStackHook` fixes its humans,
/// and about one session in 590 000 ends so.
pub fn check_report(
    report: &FleetReport,
    fleet: u64,
    capacity_per_sec: f64,
    debited_cents: i64,
) -> Vec<Result<(), String>> {
    let terminal = report.settled + report.gave_up + report.abandoned + report.rejected;
    let once = report.full_stack.settled as i64 * FleetStackHook::spend_per_order() as i64;
    vec![
        (report.settled + report.full_stack.rejected == fleet
            && report.rejected == report.full_stack.rejected)
            .then_some(())
            .ok_or_else(|| {
                format!(
                    "{} of {fleet} clients settled, {} rejected, {} of them by the real stack",
                    report.settled, report.rejected, report.full_stack.rejected
                )
            }),
        (terminal == fleet)
            .then_some(())
            .ok_or_else(|| format!("terminal states sum to {terminal}, fleet is {fleet}")),
        (report.goodput_per_sec() <= capacity_per_sec)
            .then_some(())
            .ok_or_else(|| {
                format!(
                    "goodput {:.1}/s exceeds the pool's {capacity_per_sec:.1}/s",
                    report.goodput_per_sec()
                )
            }),
        (debited_cents == once)
            .then_some(())
            .ok_or_else(|| format!("sampled provider debited {debited_cents}, expected {once}")),
    ]
}

/// Per-layer detail of one traced round.
#[derive(Debug, Clone, Default)]
pub struct RoundTrace {
    /// `events_processed` of the report.
    pub events: u64,
    /// `verify_jobs` of the report.
    pub verify_jobs: u64,
    /// Durable log bytes of the sampled provider's journal.
    pub log_bytes: u64,
    /// Log-device flushes of the sampled provider's journal.
    pub flushes: u64,
    /// Hook submissions.
    pub hook_submissions: u64,
    /// Host ms of `Journal::replay` on the sampled provider's log.
    pub replay_ms: f64,
}

/// What one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Settled simulated transactions.
    pub settled: u64,
    /// Host time of `run_with`.
    pub run_time: Duration,
    /// Host µs of each hook call.
    pub hook_us: Vec<f64>,
    /// Host µs of each slice of simulation between two hook calls.
    pub slices_us: Vec<f64>,
    /// Host ms of each recovery of the sampled provider.
    pub recover_ms: Vec<f64>,
    /// Checks of the round, the known fault among them (see
    /// [`check_recovered_debit`]).
    pub tally: Tally,
    /// Layer detail, when traced.
    pub trace: Option<RoundTrace>,
}

/// The seed of the sampled stack, and so of its privacy CA and
/// machines: fixed, like [`crate::world::KEY_SEED`], so that its key
/// generation in set-up is the same work on every workload seed.
const HOOK_SEED: u64 = crate::world::KEY_SEED ^ 0xF00D;

/// The sampled real stack of one round: a fresh [`FleetStackHook`] with
/// a journal attached.
pub fn sampled_stack() -> (FleetStackHook, Arc<Journal>) {
    let journal = Arc::new(Journal::new(journal_config()));
    let mut hook = FleetStackHook::new(HOOK_SEED);
    hook.attach_journal(Arc::clone(&journal));
    (hook, journal)
}

/// Checks the debit of the recovered sampled provider, `None` when it
/// has no fleet account. That is a known fault, counted in `failed`
/// every round: [`FleetStackHook::new`] opens the fleet account before a
/// journal can be attached, so the opening never reaches the log and
/// recovery rebuilds no account to debit. Any other debit than `once`
/// fails the check as a new fault.
pub fn check_recovered_debit(tally: &mut Tally, debited: Option<i64>, once: i64) {
    match debited {
        None => tally.known_fault(Err(format!(
            "recovered provider has no {FLEET_ACCOUNT} account, expected a debit of {once}"
        ))),
        Some(d) => tally.expect(d == once, || {
            format!("recovered provider debited {d}, expected {once}")
        }),
    }
}

/// Runs the scenario once through `stack` (from [`sampled_stack`]),
/// checks the report, then crashes and recovers the sampled provider and
/// checks it again.
pub fn run_round(
    sc: &Scenario,
    stack: (FleetStackHook, Arc<Journal>),
    ca_key: &utp_crypto::rsa::RsaPublicKey,
    traced: bool,
) -> Round {
    let mut round = Round::default();
    let (inner, journal) = stack;
    let mut hook = TimedHook::new(inner);

    let t = now();
    let report = sc.run_with(&mut hook);
    round.run_time = t.elapsed();
    round.settled = report.settled;

    let fleet = sc.topology.clients().count() as u64;
    let capacity = capacity_per_sec(sc.provider.workers, sc.provider.verify_cost);
    let debit = |p: &ServiceProvider| {
        p.store()
            .account(FLEET_ACCOUNT)
            .map(|a| FLEET_OPENING - a.balance_cents)
    };
    let live = debit(hook.inner.provider()).unwrap_or(0);
    for check in check_report(&report, fleet, capacity, live) {
        round.tally.check(check);
    }
    let submissions = report.full_stack.submitted;
    round.hook_us = std::mem::take(&mut hook.calls_us);
    round.slices_us = std::mem::take(&mut hook.slices_us);
    drop(hook);

    journal.crash();
    let mut trace = RoundTrace {
        events: report.events_processed,
        verify_jobs: report.verify_jobs,
        log_bytes: journal.durable_log_bytes().len() as u64,
        flushes: journal.log_counters().flushes,
        hook_submissions: submissions,
        replay_ms: 0.0,
    };
    if traced {
        let t = now();
        let replayed = journal.replay();
        trace.replay_ms = ms(t.elapsed());
        drop(replayed);
    }
    let recover = || {
        ServiceProvider::recover(
            ca_key.clone(),
            VerifierConfig::default(),
            // The provider seed `FleetStackHook::new` derives.
            HOOK_SEED ^ 0x5052_4f56,
            Arc::clone(&journal),
        )
        .0
    };
    let recovered = settle::timed_recoveries(recover, &mut round.recover_ms);
    let once = report.full_stack.settled as i64 * FleetStackHook::spend_per_order() as i64;
    let confirmed = recovered
        .store()
        .orders()
        .filter(|(_, o)| matches!(o.status, utp_server::store::OrderStatus::Confirmed))
        .count() as u64;
    round
        .tally
        .expect(confirmed == report.full_stack.settled, || {
            format!(
                "recovered {confirmed} confirmed orders, {} settled",
                report.full_stack.settled
            )
        });
    check_recovered_debit(&mut round.tally, debit(&recovered), once);
    if traced {
        round.trace = Some(trace);
    }
    round
}

/// The CA key of the sampled stack: [`FleetStackHook::new`] builds a
/// 512-bit privacy CA from its seed, and so does this.
pub fn hook_ca_key() -> utp_crypto::rsa::RsaPublicKey {
    utp_core::ca::PrivacyCa::new(512, HOOK_SEED)
        .public_key()
        .clone()
}

/// Set-ups per run; a set-up takes tens of milliseconds, so more of them.
pub const SETUP_REPEATS: usize = 9;

/// The `netsim.*` metrics of a set of rounds.
fn netsim_layer(rounds: &[Round]) -> Vec<Metric> {
    let traces: Vec<&RoundTrace> = rounds.iter().filter_map(|r| r.trace.as_ref()).collect();
    let events: u64 = traces.iter().map(|t| t.events).sum();
    let jobs: u64 = traces.iter().map(|t| t.verify_jobs).sum();
    let settled: u64 = rounds.iter().map(|r| r.settled).sum();
    let busy: f64 = rounds.iter().map(|r| r.run_time.as_secs_f64()).sum();
    let hook: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.hook_us.iter().copied())
        .collect();
    vec![
        metric("netsim.events_per_s", "1/s", events as f64 / busy),
        metric(
            "netsim.events_per_txn",
            "count",
            events as f64 / settled as f64,
        ),
        metric(
            "netsim.verify_jobs_per_txn",
            "count",
            jobs as f64 / settled as f64,
        ),
        metric("netsim.hook_us", "us", median(&hook)),
    ]
}

/// The netsim probe of the workloads that do not simulate a fleet: one
/// traced round of the small fleet.
pub fn probe(seed: u64, tally: &mut Tally) -> Vec<Metric> {
    let sc = scenario(FleetSize::SMALL, seed);
    let round = run_round(&sc, sampled_stack(), &hook_ca_key(), true);
    tally.absorb(round.tally.clone());
    netsim_layer(&[round])
}

/// Runs the workload: set up [`SETUP_REPEATS`] times (the topology and
/// scenario, and the first round's sampled stack: its key generation and
/// enrolment), then whole `run_with` rounds until `seconds` have passed.
///
/// # Errors
///
/// When the traced run's side probes cannot build their inputs.
pub fn run(size: FleetSize, seed: u64, seconds: Duration, traced: bool) -> Result<Outcome, String> {
    let ((sc, ca_key, first), setup) = repeated_setup(SETUP_REPEATS, || {
        Ok((scenario(size, seed), hook_ca_key(), sampled_stack()))
    })?;
    let start = now();
    let mut rounds = vec![run_round(&sc, first, &ca_key, traced)];
    while start.elapsed() < seconds {
        rounds.push(run_round(&sc, sampled_stack(), &ca_key, traced));
    }

    let mut out = Outcome::default();
    let settled: u64 = rounds.iter().map(|r| r.settled).sum();
    let busy: f64 = rounds.iter().map(|r| r.run_time.as_secs_f64()).sum();
    let recover: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.recover_ms.iter().copied())
        .collect();
    let slices: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.slices_us.iter().copied())
        .collect();
    out.end_to_end = end_to_end(&setup, settled as f64, busy, &slices, &recover);
    out.notes.push(format!(
        "rounds={} clients={} hook_calls_per_round={} setup_s={setup:?}",
        rounds.len(),
        size.clients(),
        rounds[0].hook_us.len()
    ));
    out.notes.push(spread_note(
        "round throughput_per_s",
        &rounds
            .iter()
            .map(|r| r.settled as f64 / r.run_time.as_secs_f64())
            .collect::<Vec<_>>(),
    ));
    for r in &rounds {
        out.tally.absorb(r.tally.clone());
    }

    if traced {
        let traces: Vec<&RoundTrace> = rounds.iter().filter_map(|r| r.trace.as_ref()).collect();
        let replay: Vec<f64> = traces.iter().map(|t| t.replay_ms).collect();
        // The sampled stack's own configuration: a 512-bit CA and
        // test-speed machines, as `FleetStackHook::new` builds them.
        let mut per_layer = settle::side_probes(World::small(2), 512, seed, &mut out.probes)?;
        per_layer.push(metric(
            "server.recover_rebuild_ms",
            "ms",
            median(&recover) - median(&replay),
        ));
        per_layer.extend(settle::journal_layer(
            traces.iter().map(|t| t.log_bytes).sum(),
            traces.iter().map(|t| t.flushes).sum(),
            traces.iter().map(|t| t.hook_submissions).sum(),
            &replay,
        ));
        per_layer.extend(netsim_layer(&rounds));
        out.per_layer = per_layer;
    }
    Ok(out)
}
