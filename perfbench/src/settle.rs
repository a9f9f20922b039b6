//! The `settle` workload: the provider's back end alone.
//!
//! A journaled [`ServiceProvider`] with a one-worker [`VerifierService`]
//! settles evidence fed in a closed loop through
//! [`ServiceProvider::submit_evidence`]. The evidence is signed once, in
//! set-up, by enrolled machines. A provider built again from the same
//! seed issues byte-identical challenges, so the same evidence settles
//! again in every round; each round ends with a crash and
//! [`ServiceProvider::recover`].
//!
//! [`VerifierService`]: utp_server::service::VerifierService

use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use utp_core::ca::AikCertificate;
use utp_core::operator::Intent;
use utp_core::protocol::{Evidence, TransactionRequest, Verdict};
use utp_core::verifier::{VerifierConfig, VerifyError};
use utp_crypto::rsa::RsaPublicKey;
use utp_journal::{DeviceProfile, Journal, JournalConfig, JournalRecord};
use utp_server::provider::ServiceProvider;
use utp_server::store::OrderStatus;
use utp_tpm::quote::quote_info_bytes;

use crate::layers;
use crate::report::{end_to_end, metric, repeated_setup, spread_note, Metric, Outcome, Tally};
use crate::stats::{median, ms, now, us, SplitMix};
use crate::world::World;

/// Settlement shards of the attached service.
pub const SHARDS: usize = 4;
/// Worker threads of the attached service (one, beside the caller's).
pub const WORKERS: usize = 1;
/// Opening balance of every account, in cents.
pub const OPENING_CENTS: i64 = 1_000_000_000;
/// Virtual time at which orders are placed and evidence is submitted.
const NOW: Duration = Duration::from_secs(1);

/// The journal every provider in the benchmark writes: an NVMe-class
/// device with group commit of 8 records.
pub fn journal_config() -> JournalConfig {
    JournalConfig::new(DeviceProfile::nvme(), 8)
}

/// How big the set-up is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SettleSize {
    /// Enrolled machines signing evidence.
    pub machines: usize,
    /// Orders per round, each with one piece of signed evidence.
    pub orders: usize,
    /// Realistic machines and a 1024-bit CA; otherwise 512-bit test keys.
    pub realistic: bool,
}

impl SettleSize {
    /// The benchmark's size.
    pub const STANDARD: SettleSize = SettleSize {
        machines: 8,
        orders: 2048,
        realistic: true,
    };
    /// A size for the benchmark's own tests.
    pub const SMALL: SettleSize = SettleSize {
        machines: 2,
        orders: 32,
        realistic: false,
    };
}

/// The outcome class set-up assigns to a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Genuine evidence, first submission: settles.
    Settled,
    /// Evidence that already settled, sent again.
    Replayed,
    /// Evidence delivered against another order.
    TokenMismatch,
    /// Evidence with one signature bit flipped.
    BadQuote,
    /// Evidence of a session the human rejected.
    NotConfirmed,
}

impl Class {
    /// The class of a provider answer.
    pub fn of(outcome: &Result<utp_server::provider::Receipt, VerifyError>) -> Option<Class> {
        match outcome {
            Ok(_) => Some(Class::Settled),
            Err(VerifyError::Replayed) => Some(Class::Replayed),
            Err(VerifyError::TokenMismatch) => Some(Class::TokenMismatch),
            Err(VerifyError::BadQuote) => Some(Class::BadQuote),
            Err(VerifyError::NotConfirmed(_)) => Some(Class::NotConfirmed),
            Err(_) => None,
        }
    }
}

/// One scheduled call of `submit_evidence`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submission {
    /// Index of the order the evidence is delivered against.
    pub order: usize,
    /// Index into [`SettleKit::evidence`].
    pub evidence: usize,
    /// The class the answer must have.
    pub expect: Class,
}

/// One order of a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderSpec {
    /// Index into [`SettleKit::accounts`].
    pub account: usize,
    /// Payee shown to the human.
    pub payee: String,
    /// Amount in cents.
    pub amount_cents: u64,
}

/// Everything set-up produces: the world, the orders, their challenges,
/// the signed evidence and the submission schedule.
#[derive(Debug)]
pub struct SettleKit {
    /// The CA and the machines that signed the evidence.
    pub world: World,
    /// The CA key providers pin.
    pub ca_key: RsaPublicKey,
    /// Seed of every provider built for a round.
    pub provider_seed: u64,
    /// Account names, each opened with [`OPENING_CENTS`].
    pub accounts: Vec<String>,
    /// Orders, placed in this order in every round.
    pub orders: Vec<OrderSpec>,
    /// Order ids the provider assigned in set-up.
    pub order_ids: Vec<u64>,
    /// Challenges the provider issued in set-up.
    pub requests: Vec<TransactionRequest>,
    /// Whether the human approved each order.
    pub approved: Vec<bool>,
    /// Evidence pool: one per order (same index), then tampered copies.
    pub evidence: Vec<Evidence>,
    /// The submissions of one round, in order.
    pub schedule: Vec<Submission>,
}

/// A provider as every round builds it: journal first, then accounts,
/// then the one-worker service.
pub fn fresh_provider(kit: &SettleKit) -> (ServiceProvider, Arc<Journal>) {
    let journal = Arc::new(Journal::new(journal_config()));
    let mut provider = ServiceProvider::with_config(
        kit.ca_key.clone(),
        VerifierConfig::default(),
        kit.provider_seed,
    );
    provider.attach_journal(Arc::clone(&journal));
    for name in &kit.accounts {
        provider.open_account(name, OPENING_CENTS);
    }
    provider.attach_service(WORKERS, SHARDS);
    (provider, journal)
}

fn place_order(
    provider: &mut ServiceProvider,
    kit: &SettleKit,
    i: usize,
) -> (u64, TransactionRequest) {
    let o = &kit.orders[i];
    provider.place_order(
        &kit.accounts[o.account],
        &o.payee,
        o.amount_cents,
        "EUR",
        "settle",
        NOW,
    )
}

impl SettleKit {
    /// Builds the world, places every order once on a reference
    /// provider, has the machines sign evidence for each challenge, and
    /// draws the submission schedule. Keys come from
    /// [`crate::world::KEY_SEED`]; everything else derives from `seed`.
    ///
    /// # Errors
    ///
    /// When a simulated session fails or a human's verdict is not the
    /// one set-up asked for.
    pub fn build(size: SettleSize, seed: u64) -> Result<SettleKit, String> {
        let world = if size.realistic {
            World::realistic(1024, size.machines)
        } else {
            World::small(size.machines)
        };
        SettleKit::with_world(world, size.orders, seed)
    }

    /// Like [`SettleKit::build`], on machines already enrolled.
    ///
    /// # Errors
    ///
    /// As [`SettleKit::build`].
    pub fn with_world(world: World, orders: usize, seed: u64) -> Result<SettleKit, String> {
        let mut rng = SplitMix::new(seed ^ 0x5e77_1e00);
        let machines = world.parties.len();
        let accounts: Vec<String> = (0..machines).map(|i| format!("acct-{i}")).collect();
        let specs: Vec<OrderSpec> = (0..orders)
            .map(|i| OrderSpec {
                account: i % machines,
                payee: format!("shop-{}", rng.below(1000)),
                amount_cents: 100 + rng.below(100_000),
            })
            .collect();
        let mut kit = SettleKit {
            ca_key: world.ca.public_key().clone(),
            world,
            provider_seed: seed ^ 0x5052_4f56,
            accounts,
            orders: specs,
            order_ids: Vec::new(),
            requests: Vec::new(),
            approved: Vec::new(),
            evidence: Vec::new(),
            schedule: Vec::new(),
        };
        let (mut provider, _journal) = fresh_provider(&kit);
        for i in 0..orders {
            let (id, request) = place_order(&mut provider, &kit, i);
            kit.order_ids.push(id);
            kit.requests.push(request);
        }
        drop(provider);

        // The mix: one order in eight is rejected by its human; of the
        // approved ones, one in sixteen (of all orders) first arrives
        // tampered, one in sixteen is first hit by another order's
        // evidence, and one in eight is resent after it settled.
        let n = orders;
        let mut idx: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut idx);
        let (rejected, rest) = idx.split_at(n / 8);
        let (tampered, rest) = rest.split_at(n / 16);
        let (mismatched, _) = rest.split_at(n / 16);
        kit.approved = vec![true; n];
        for &i in rejected {
            kit.approved[i] = false;
        }
        for i in 0..n {
            let party = &mut kit.world.parties[i % machines];
            let request = &kit.requests[i];
            let intent = if kit.approved[i] {
                Intent::approving(&request.transaction)
            } else {
                Intent::rejecting()
            };
            let mut human = crate::world::human(intent, seed ^ ((i as u64) << 8));
            let evidence = party
                .client
                .confirm(&mut party.machine, request, &mut human)
                .map_err(|e| format!("session for order {i} failed: {e:?}"))?;
            let verdict = evidence.token().map_err(|e| format!("{e:?}"))?.verdict;
            let want = if kit.approved[i] {
                Verdict::Confirmed
            } else {
                Verdict::Rejected
            };
            if verdict != want {
                return Err(format!(
                    "order {i}: human gave {verdict:?}, set-up asked for {want:?}"
                ));
            }
            kit.evidence.push(evidence);
        }

        let mut tampered_of = vec![None; n];
        for &i in tampered {
            let mut e = kit.evidence[i].clone();
            let bits = e.quote.signature.len() * 8;
            let bit = rng.below(bits as u64) as usize;
            e.quote.signature[bit / 8] ^= 1 << (bit % 8);
            tampered_of[i] = Some(kit.evidence.len());
            kit.evidence.push(e);
        }
        let mut mismatched_with = vec![None; n];
        for &i in mismatched {
            // Any other order's evidence: it binds a different transaction.
            mismatched_with[i] = Some((i + 1 + rng.below(n as u64 - 1) as usize) % n);
        }

        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        for &i in &order {
            if let Some(other) = mismatched_with[i] {
                kit.schedule.push(Submission {
                    order: i,
                    evidence: other,
                    expect: Class::TokenMismatch,
                });
            }
            if let Some(bad) = tampered_of[i] {
                kit.schedule.push(Submission {
                    order: i,
                    evidence: bad,
                    expect: Class::BadQuote,
                });
            }
            let expect = if kit.approved[i] {
                Class::Settled
            } else {
                Class::NotConfirmed
            };
            kit.schedule.push(Submission {
                order: i,
                evidence: i,
                expect,
            });
        }
        let mut settled: Vec<usize> = (0..n).filter(|&i| kit.approved[i]).collect();
        rng.shuffle(&mut settled);
        for &i in settled.iter().take(n / 8) {
            kit.schedule.push(Submission {
                order: i,
                evidence: i,
                expect: Class::Replayed,
            });
        }
        Ok(kit)
    }

    /// Each account's balance once every approved order has settled,
    /// summed by the benchmark itself.
    pub fn expected_balances(&self) -> Vec<i64> {
        let mut balances = vec![OPENING_CENTS; self.accounts.len()];
        for (o, &ok) in self.orders.iter().zip(&self.approved) {
            if ok {
                balances[o.account] -= o.amount_cents as i64;
            }
        }
        balances
    }
}

/// Per-layer timings and counts gathered inside a traced round.
#[derive(Debug, Clone, Default)]
pub struct RoundTrace {
    /// Host µs of each `place_order` (journal attached).
    pub place_order_us: Vec<f64>,
    /// Host µs of each genuine first submission.
    pub genuine_us: Vec<f64>,
    /// Host µs of each resend of settled evidence.
    pub replay_us: Vec<f64>,
    /// Host µs of each submission delivered against another order.
    pub mismatched_us: Vec<f64>,
    /// Host µs of each submission with a tampered quote.
    pub tampered_us: Vec<f64>,
    /// Per genuine submission: its host µs less, timed right after it
    /// on the same evidence, three token parses, one quote verify and
    /// one journal append+sync. What remains is the facade and the
    /// queue hand-off.
    pub unaccounted_us: Vec<f64>,
    /// Certificate-cache hits of the round's service.
    pub cache_hits: u64,
    /// Certificate-cache misses of the round's service.
    pub cache_misses: u64,
    /// Durable log bytes the round left behind.
    pub log_bytes: u64,
    /// Log-device flushes of the round.
    pub flushes: u64,
    /// Host ms of `Journal::replay` on the round's log.
    pub replay_ms: f64,
}

/// What one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Host µs of each `submit_evidence` call.
    pub latencies_us: Vec<f64>,
    /// Host time of the submission phase.
    pub submit_time: Duration,
    /// Host ms of each `ServiceProvider::recover`.
    pub recover_ms: Vec<f64>,
    /// Checks of the round.
    pub tally: Tally,
    /// Layer detail, when traced.
    pub trace: Option<RoundTrace>,
}

/// Host µs of what a genuine submission is known to contain, each part
/// timed on its own: three `Evidence::token` parses, the RSA verify of
/// the quote, and a journal append plus `sync_to` of one `Settle` record.
fn settle_parts(evidence: &Evidence, journal: &Journal, order_id: u64) -> f64 {
    let t = now();
    for _ in 0..3 {
        let _ = black_box(black_box(evidence).token());
    }
    let parse = t.elapsed();
    let aik = AikCertificate::from_bytes(&evidence.aik_cert)
        .and_then(|c| RsaPublicKey::from_bytes(&c.aik_pub));
    let info = quote_info_bytes(
        &evidence.quote.composite_digest(),
        &evidence.quote.external_data,
    );
    let t = now();
    let _ = aik.map(|k| black_box(k.verify_pkcs1_sha1(&info, &evidence.quote.signature)));
    let verify = t.elapsed();
    let record = JournalRecord::Settle {
        order_id,
        nonce: [0; 20],
        at: NOW,
        outcome: Ok(()),
    };
    let t = now();
    let receipt = journal.append_record(&record);
    journal.sync_to(receipt.seq);
    us(parse + verify + t.elapsed())
}

/// Recoveries per round. Recovery only reads the crashed journal, so
/// the same log is recovered several times and each is timed.
pub const RECOVERIES_PER_ROUND: usize = 3;

/// Runs `recover` [`RECOVERIES_PER_ROUND`] times, pushing each host time
/// in ms, and returns the last recovered provider.
pub fn timed_recoveries(
    recover: impl Fn() -> ServiceProvider,
    times_ms: &mut Vec<f64>,
) -> ServiceProvider {
    let mut last = None;
    for _ in 0..RECOVERIES_PER_ROUND {
        drop(last.take());
        let t = now();
        let provider = recover();
        times_ms.push(ms(t.elapsed()));
        last = Some(provider);
    }
    last.expect("RECOVERIES_PER_ROUND is not zero")
}

/// Checks that every account holds the expected balance.
pub fn check_balances(
    provider: &ServiceProvider,
    accounts: &[String],
    expected: &[i64],
    when: &str,
) -> Result<(), String> {
    for (name, want) in accounts.iter().zip(expected) {
        let got = provider.store().account(name).map(|a| a.balance_cents);
        if got != Some(*want) {
            return Err(format!("{when}: {name} holds {got:?}, expected {want}"));
        }
    }
    Ok(())
}

/// Runs one round: fresh provider, every order placed, the schedule
/// submitted, balances checked, then a crash, recovery and the checks
/// again on the recovered provider.
pub fn run_round(kit: &SettleKit, traced: bool) -> Round {
    let mut round = Round::default();
    let mut trace = RoundTrace::default();
    let (mut provider, journal) = fresh_provider(kit);

    let mut same = true;
    for i in 0..kit.orders.len() {
        let t = now();
        let (id, request) = place_order(&mut provider, kit, i);
        if traced {
            trace.place_order_us.push(us(t.elapsed()));
        }
        same &= id == kit.order_ids[i] && request == kit.requests[i];
    }
    round
        .tally
        .expect(same, || "challenges differ from set-up".to_string());

    let side_journal = Journal::new(journal_config());
    round.latencies_us.reserve(kit.schedule.len());
    for s in &kit.schedule {
        let evidence = &kit.evidence[s.evidence];
        let t = now();
        let outcome = provider.submit_evidence(kit.order_ids[s.order], evidence, NOW);
        let dt = t.elapsed();
        round.submit_time += dt;
        round.latencies_us.push(us(dt));
        if traced {
            match s.expect {
                Class::Settled => {
                    trace.genuine_us.push(us(dt));
                    let parts = settle_parts(evidence, &side_journal, kit.order_ids[s.order]);
                    trace.unaccounted_us.push(us(dt) - parts);
                }
                Class::Replayed => trace.replay_us.push(us(dt)),
                Class::TokenMismatch => trace.mismatched_us.push(us(dt)),
                Class::BadQuote => trace.tampered_us.push(us(dt)),
                Class::NotConfirmed => {}
            }
        }
        let got = Class::of(&outcome);
        round.tally.expect(got == Some(s.expect), || {
            format!(
                "order {}: expected {:?}, got {:?}",
                s.order,
                s.expect,
                outcome.as_ref().err()
            )
        });
    }

    let expected = kit.expected_balances();
    round.tally.check(check_balances(
        &provider,
        &kit.accounts,
        &expected,
        "after round",
    ));
    if let Some(stats) = provider.detach_service() {
        trace.cache_hits = stats.cert_cache_hits;
        trace.cache_misses = stats.cert_cache_misses;
    }
    drop(provider);
    journal.crash();
    trace.log_bytes = journal.durable_log_bytes().len() as u64;
    trace.flushes = journal.log_counters().flushes;
    if traced {
        let t = now();
        let replayed = journal.replay();
        trace.replay_ms = ms(t.elapsed());
        drop(replayed);
    }

    let recover = || {
        ServiceProvider::recover(
            kit.ca_key.clone(),
            VerifierConfig::default(),
            kit.provider_seed,
            Arc::clone(&journal),
        )
        .0
    };
    let recovered = timed_recoveries(recover, &mut round.recover_ms);
    round.tally.check(check_balances(
        &recovered,
        &kit.accounts,
        &expected,
        "after recovery",
    ));
    let approved: BTreeSet<u64> = (0..kit.orders.len())
        .filter(|&i| kit.approved[i])
        .map(|i| kit.order_ids[i])
        .collect();
    round
        .tally
        .check(check_confirmed(&recovered, kit.orders.len(), &approved));
    if traced {
        round.trace = Some(trace);
    }
    round
}

/// Checks that the provider knows exactly `orders` orders and that the
/// confirmed ones are exactly `confirmed`.
pub fn check_confirmed(
    provider: &ServiceProvider,
    orders: usize,
    confirmed: &BTreeSet<u64>,
) -> Result<(), String> {
    let known = provider.store().orders().count();
    if known != orders {
        return Err(format!("recovered {known} orders, placed {orders}"));
    }
    let got: BTreeSet<u64> = provider
        .store()
        .orders()
        .filter(|(_, o)| matches!(o.status, OrderStatus::Confirmed))
        .map(|(id, _)| *id)
        .collect();
    if &got != confirmed {
        let wrong: Vec<_> = got.symmetric_difference(confirmed).take(4).collect();
        return Err(format!(
            "confirmed orders differ from the approved ones at {wrong:?}"
        ));
    }
    Ok(())
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Server-layer figures gathered from traced rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerLayer {
    /// Median host µs of `place_order`.
    pub place_order_us: f64,
    /// Median host µs of a genuine first submission.
    pub genuine_us: f64,
    /// Median host µs of a resend of settled evidence.
    pub replay_us: f64,
    /// Mean of two medians: that of a submission against another order,
    /// refused before the queue in a few µs, and that of a tampered
    /// quote, which costs a failed RSA verify. The schedule holds as many
    /// of each; a median over both together would fall in either group.
    pub rejected_us: f64,
    /// Certificate-cache hits ÷ lookups.
    pub cache_hit_ratio: f64,
    /// Median of the per-submission unaccounted host µs.
    pub unaccounted_us: f64,
}

/// Folds traced rounds into [`ServerLayer`] figures.
pub fn server_layer(rounds: &[Round]) -> ServerLayer {
    let traces: Vec<&RoundTrace> = rounds.iter().filter_map(|r| r.trace.as_ref()).collect();
    let all = |f: fn(&RoundTrace) -> &Vec<f64>| -> Vec<f64> {
        traces.iter().flat_map(|t| f(t).iter().copied()).collect()
    };
    let hits: u64 = traces.iter().map(|t| t.cache_hits).sum();
    let misses: u64 = traces.iter().map(|t| t.cache_misses).sum();
    ServerLayer {
        place_order_us: median(&all(|t| &t.place_order_us)),
        genuine_us: median(&all(|t| &t.genuine_us)),
        replay_us: median(&all(|t| &t.replay_us)),
        rejected_us: (median(&all(|t| &t.mismatched_us)) + median(&all(|t| &t.tampered_us))) / 2.0,
        cache_hit_ratio: hits as f64 / (hits + misses) as f64,
        unaccounted_us: median(&all(|t| &t.unaccounted_us)),
    }
}

impl ServerLayer {
    /// The `server.*` metrics but `server.recover_rebuild_ms`.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("server.place_order_us", "us", self.place_order_us),
            metric("server.submit_genuine_us", "us", self.genuine_us),
            metric("server.submit_replay_us", "us", self.replay_us),
            metric("server.submit_rejected_us", "us", self.rejected_us),
            metric("server.cert_cache_hit_ratio", "ratio", self.cache_hit_ratio),
            metric("server.unaccounted_us", "us", self.unaccounted_us),
        ]
    }
}

/// A small settle kit on a workload's own machines, run for a few
/// traced rounds: the server-layer probe of the workloads that do not
/// call `submit_evidence` themselves.
///
/// # Errors
///
/// As [`SettleKit::build`].
pub fn server_probe(world: World, seed: u64) -> Result<(SettleKit, Vec<Round>), String> {
    let kit = SettleKit::with_world(world, 64, seed)?;
    let rounds = (0..4).map(|_| run_round(&kit, true)).collect();
    Ok((kit, rounds))
}

impl SettleKit {
    /// The approved orders' challenges and evidence.
    pub fn genuine(&self) -> (Vec<TransactionRequest>, Vec<Evidence>) {
        (0..self.orders.len())
            .filter(|&i| self.approved[i])
            .map(|i| (self.requests[i].clone(), self.evidence[i].clone()))
            .unzip()
    }
}

/// Journal figures of a set of rounds: `(bytes, flushes)` per operation
/// and the median replay time.
pub fn journal_layer(
    log_bytes: u64,
    flushes: u64,
    operations: u64,
    replay_ms: &[f64],
) -> Vec<Metric> {
    vec![
        metric(
            "journal.bytes_per_submission",
            "B",
            log_bytes as f64 / operations as f64,
        ),
        metric(
            "journal.flushes_per_submission",
            "count",
            flushes as f64 / operations as f64,
        ),
        metric("journal.replay_ms", "ms", median(replay_ms)),
    ]
}

/// The per-layer probes of a workload that neither calls
/// `submit_evidence` itself nor keeps its evidence: a small settle kit on
/// the workload's own machines gives the `server.*` figures and the
/// evidence the crypto and core probes run on. `place_order` is timed on
/// a journaled provider without a service, as these workloads run it.
///
/// # Errors
///
/// As [`SettleKit::build`].
pub fn side_probes(
    world: World,
    session_bits: usize,
    seed: u64,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let (mut kit, rounds) = server_probe(world, seed)?;
    for r in &rounds {
        tally.absorb(r.tally.clone());
    }
    let mut server = server_layer(&rounds);
    server.place_order_us = layers::place_order_us(&kit.ca_key, seed);
    let (requests, evidence) = kit.genuine();
    let ca_key = kit.ca_key.clone();
    let inputs = layers::CommonInputs {
        ca_key: &ca_key,
        evidence: &evidence,
        requests: &requests,
        session_bits,
        seed,
    };
    let mut per_layer = layers::common(&inputs, &mut kit.world, tally);
    per_layer.extend(server.metrics());
    Ok(per_layer)
}

/// Runs the workload: set-up [`SETUP_REPEATS`] times, then whole rounds
/// until `seconds` have passed.
///
/// # Errors
///
/// When set-up cannot produce the inputs it is asked for.
pub fn run(
    size: SettleSize,
    seed: u64,
    seconds: Duration,
    traced: bool,
) -> Result<Outcome, String> {
    let (mut kit, setup) = repeated_setup(SETUP_REPEATS, || SettleKit::build(size, seed))?;
    let start = now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed() < seconds {
        rounds.push(run_round(&kit, traced));
    }

    let mut out = Outcome::default();
    let latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies_us.iter().copied())
        .collect();
    let busy: f64 = rounds.iter().map(|r| r.submit_time.as_secs_f64()).sum();
    let recover: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.recover_ms.iter().copied())
        .collect();
    out.end_to_end = end_to_end(&setup, latencies.len() as f64, busy, &latencies, &recover);
    out.notes.push(format!(
        "rounds={} submissions_per_round={} orders_per_round={} machines={} setup_s={setup:?}",
        rounds.len(),
        kit.schedule.len(),
        kit.orders.len(),
        kit.world.parties.len()
    ));
    out.notes.push(spread_note(
        "round throughput_per_s",
        &rounds
            .iter()
            .map(|r| r.latencies_us.len() as f64 / r.submit_time.as_secs_f64())
            .collect::<Vec<_>>(),
    ));
    for r in &rounds {
        out.tally.absorb(r.tally.clone());
    }

    if traced {
        let server = server_layer(&rounds);
        let traces: Vec<&RoundTrace> = rounds.iter().filter_map(|r| r.trace.as_ref()).collect();
        let replay: Vec<f64> = traces.iter().map(|t| t.replay_ms).collect();
        let (requests, evidence) = kit.genuine();
        let ca_key = kit.ca_key.clone();
        let inputs = layers::CommonInputs {
            ca_key: &ca_key,
            evidence: &evidence,
            requests: &requests,
            session_bits: if size.realistic { 1024 } else { 512 },
            seed,
        };
        let mut per_layer = layers::common(&inputs, &mut kit.world, &mut out.probes);
        per_layer.extend(server.metrics());
        per_layer.push(metric(
            "server.recover_rebuild_ms",
            "ms",
            median(&recover) - median(&replay),
        ));
        per_layer.extend(journal_layer(
            traces.iter().map(|t| t.log_bytes).sum(),
            traces.iter().map(|t| t.flushes).sum(),
            (kit.schedule.len() * traces.len()) as u64,
            &replay,
        ));
        per_layer.extend(crate::fleet::probe(seed, &mut out.probes));
        out.per_layer = per_layer;
    }
    Ok(out)
}
