//! The `confirm` workload: whole transactions through
//! [`run_transaction`], round-robin over realistic machines across a
//! broadband link, settled by a journaled provider on the serial
//! verifier.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use utp_core::operator::Intent;
use utp_core::verifier::{VerifierConfig, VerifyError};
use utp_crypto::rsa::RsaPublicKey;
use utp_journal::Journal;
use utp_netsim::{Link, LinkConfig};
use utp_server::flow::{run_transaction, E2eReport};
use utp_server::provider::ServiceProvider;

use crate::report::{end_to_end, metric, repeated_setup, spread_note, Outcome, Tally};
use crate::settle::{self, check_balances, check_confirmed, journal_config};
use crate::stats::{median, ms, now, us, SplitMix};
use crate::world::World;

/// The account every order draws on.
pub const ACCOUNT: &str = "alice";
/// Its opening balance, in cents.
pub const OPENING_CENTS: i64 = 1_000_000_000;

/// How big the set-up and a round are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfirmSize {
    /// Enrolled machines, used round-robin.
    pub machines: usize,
    /// Transactions per round (a multiple of 8).
    pub per_round: usize,
    /// Realistic machines and a 1024-bit CA; otherwise 512-bit test keys.
    pub realistic: bool,
}

impl ConfirmSize {
    /// The benchmark's size.
    pub const STANDARD: ConfirmSize = ConfirmSize {
        machines: 4,
        per_round: 1024,
        realistic: true,
    };
    /// A size for the benchmark's own tests.
    pub const SMALL: ConfirmSize = ConfirmSize {
        machines: 2,
        per_round: 16,
        realistic: false,
    };
}

/// One order of a round: what the human meant to buy and, for one
/// order in eight, the substitute malware places instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Order {
    /// The payee the human intends.
    pub payee: String,
    /// The amount the human intends, in cents.
    pub amount_cents: u64,
    /// Malware's substitute `(payee, amount)`, placed in place of the
    /// intended order.
    pub substitute: Option<(String, u64)>,
}

impl Order {
    /// The payee and amount actually placed with the provider.
    pub fn placed(&self) -> (&str, u64) {
        match &self.substitute {
            Some((p, a)) => (p, *a),
            None => (&self.payee, self.amount_cents),
        }
    }
}

/// Set-up: the world, the link and the orders of every round.
#[derive(Debug)]
pub struct ConfirmKit {
    /// The CA and machines.
    pub world: World,
    /// The CA key providers pin.
    pub ca_key: RsaPublicKey,
    /// The client–provider link.
    pub link: Link,
    /// The orders of one round; every round places them again.
    pub orders: Vec<Order>,
    /// Seed of each round's provider and humans.
    pub seed: u64,
}

impl ConfirmKit {
    /// Builds the world (its keys from [`crate::world::KEY_SEED`]) and
    /// draws the orders from `seed`.
    pub fn build(size: ConfirmSize, seed: u64) -> ConfirmKit {
        let world = if size.realistic {
            World::realistic(1024, size.machines)
        } else {
            World::small(size.machines)
        };
        let mut rng = SplitMix::new(seed ^ 0xC0F1_7200);
        let bad = rng.below(8) as usize;
        let orders = (0..size.per_round)
            .map(|i| Order {
                payee: format!("shop-{}", rng.below(1000)),
                amount_cents: 100 + rng.below(100_000),
                substitute: (i % 8 == bad).then(|| {
                    (
                        format!("mule-{}", rng.below(1000)),
                        100 + rng.below(100_000),
                    )
                }),
            })
            .collect();
        ConfirmKit {
            ca_key: world.ca.public_key().clone(),
            world,
            link: Link::new(LinkConfig::broadband(), seed ^ 0x11),
            orders,
            seed,
        }
    }

    /// The balance once every genuine order of a round has settled.
    pub fn expected_balance(&self) -> i64 {
        OPENING_CENTS
            - self
                .orders
                .iter()
                .filter(|o| o.substitute.is_none())
                .map(|o| o.amount_cents as i64)
                .sum::<i64>()
    }
}

/// Checks one transaction's report: a genuine order settles for exactly
/// what the human meant, a substitute is refused as not confirmed, and
/// the virtual total covers the network, session and journal parts.
pub fn check_report(order: &Order, report: &E2eReport) -> Result<(), String> {
    let parts = report.network + report.session.total() + report.durability;
    if report.total < parts {
        return Err(format!("total {:?} < parts {parts:?}", report.total));
    }
    match (&order.substitute, &report.outcome) {
        (None, Ok(receipt)) => {
            let t = &receipt.transaction;
            if t.payee == order.payee && t.amount_cents == order.amount_cents {
                Ok(())
            } else {
                Err(format!(
                    "settled {} {} for {} {}",
                    t.payee, t.amount_cents, order.payee, order.amount_cents
                ))
            }
        }
        (Some(_), Err(VerifyError::NotConfirmed(_))) => Ok(()),
        (_, outcome) => Err(format!(
            "substituted={} got {:?}",
            order.substitute.is_some(),
            outcome.as_ref().err()
        )),
    }
}

/// What one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Host µs of each `run_transaction`.
    pub latencies_us: Vec<f64>,
    /// Host time of all `run_transaction` calls.
    pub busy: Duration,
    /// Host ms of each `ServiceProvider::recover`.
    pub recover_ms: Vec<f64>,
    /// Host ms of `Journal::replay` (traced rounds only).
    pub replay_ms: f64,
    /// Durable log bytes the round left behind.
    pub log_bytes: u64,
    /// Log-device flushes of the round.
    pub flushes: u64,
    /// Checks of the round.
    pub tally: Tally,
}

fn fresh_provider(kit: &ConfirmKit, round: u64) -> (ServiceProvider, Arc<Journal>, u64) {
    let seed = kit.seed ^ round.wrapping_mul(0x9e37_79b9);
    let journal = Arc::new(Journal::new(journal_config()));
    let mut provider =
        ServiceProvider::with_config(kit.ca_key.clone(), VerifierConfig::default(), seed);
    provider.attach_journal(Arc::clone(&journal));
    provider.open_account(ACCOUNT, OPENING_CENTS);
    (provider, journal, seed)
}

/// Runs one round of transactions on a fresh provider, then crashes and
/// recovers it and checks balance and confirmed orders again.
pub fn run_round(kit: &mut ConfirmKit, round_no: u64, traced: bool) -> Round {
    let mut round = Round::default();
    let (mut provider, journal, provider_seed) = fresh_provider(kit, round_no);
    let machines = kit.world.parties.len();
    let mut settled = BTreeSet::new();
    for (i, order) in kit.orders.iter().enumerate() {
        let party = &mut kit.world.parties[i % machines];
        let mut human = crate::world::human(
            Intent {
                payee: order.payee.clone(),
                amount: format!(
                    "{}.{:02} EUR",
                    order.amount_cents / 100,
                    order.amount_cents % 100
                ),
                approve: true,
            },
            kit.seed ^ (round_no << 20) ^ i as u64,
        );
        let (payee, amount) = order.placed();
        let before = balance(&provider);
        let t = now();
        let result = run_transaction(
            &mut party.machine,
            &mut party.client,
            &mut provider,
            &mut kit.link,
            ACCOUNT,
            payee,
            amount,
            "confirm",
            &mut human,
        );
        let dt = t.elapsed();
        round.busy += dt;
        round.latencies_us.push(us(dt));
        match result {
            Ok(report) => {
                round.tally.check(check_report(order, &report));
                if let Ok(receipt) = &report.outcome {
                    settled.insert(receipt.order_id);
                }
                if order.substitute.is_some() {
                    let after = balance(&provider);
                    round.tally.expect(after == before, || {
                        format!("substitute debited {} cents", before - after)
                    });
                }
            }
            Err(e) => round
                .tally
                .check(Err(format!("transaction {i} failed: {e:?}"))),
        }
    }

    let expected = [kit.expected_balance()];
    let accounts = [ACCOUNT.to_string()];
    round.tally.check(check_balances(
        &provider,
        &accounts,
        &expected,
        "after round",
    ));
    drop(provider);
    journal.crash();
    round.log_bytes = journal.durable_log_bytes().len() as u64;
    round.flushes = journal.log_counters().flushes;
    if traced {
        let t = now();
        let replayed = journal.replay();
        round.replay_ms = ms(t.elapsed());
        drop(replayed);
    }
    let recover = || {
        ServiceProvider::recover(
            kit.ca_key.clone(),
            VerifierConfig::default(),
            provider_seed,
            Arc::clone(&journal),
        )
        .0
    };
    let recovered = settle::timed_recoveries(recover, &mut round.recover_ms);
    round.tally.check(check_balances(
        &recovered,
        &accounts,
        &expected,
        "after recovery",
    ));
    round
        .tally
        .check(check_confirmed(&recovered, kit.orders.len(), &settled));
    round
}

fn balance(provider: &ServiceProvider) -> i64 {
    provider
        .store()
        .account(ACCOUNT)
        .map_or(0, |a| a.balance_cents)
}

/// Runs the workload: set-up [`settle::SETUP_REPEATS`] times, then whole
/// rounds until `seconds` have passed.
///
/// # Errors
///
/// When the traced run's side probes cannot build their inputs.
pub fn run(
    size: ConfirmSize,
    seed: u64,
    seconds: Duration,
    traced: bool,
) -> Result<Outcome, String> {
    let (mut kit, setup) =
        repeated_setup(settle::SETUP_REPEATS, || Ok(ConfirmKit::build(size, seed)))?;
    let start = now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed() < seconds {
        let round = run_round(&mut kit, rounds.len() as u64, traced);
        rounds.push(round);
    }

    let mut out = Outcome::default();
    let latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies_us.iter().copied())
        .collect();
    let busy: f64 = rounds.iter().map(|r| r.busy.as_secs_f64()).sum();
    let recover: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.recover_ms.iter().copied())
        .collect();
    out.end_to_end = end_to_end(&setup, latencies.len() as f64, busy, &latencies, &recover);
    out.notes.push(format!(
        "rounds={} transactions_per_round={} machines={} setup_s={setup:?}",
        rounds.len(),
        kit.orders.len(),
        kit.world.parties.len()
    ));
    out.notes.push(spread_note(
        "round throughput_per_s",
        &rounds
            .iter()
            .map(|r| r.latencies_us.len() as f64 / r.busy.as_secs_f64())
            .collect::<Vec<_>>(),
    ));
    for r in &rounds {
        out.tally.absorb(r.tally.clone());
    }

    if traced {
        let replay: Vec<f64> = rounds.iter().map(|r| r.replay_ms).collect();
        let bits = if size.realistic { 1024 } else { 512 };
        let mut per_layer = settle::side_probes(kit.world, bits, seed, &mut out.probes)?;
        per_layer.push(metric(
            "server.recover_rebuild_ms",
            "ms",
            median(&recover) - median(&replay),
        ));
        per_layer.extend(settle::journal_layer(
            rounds.iter().map(|r| r.log_bytes).sum(),
            rounds.iter().map(|r| r.flushes).sum(),
            latencies.len() as u64,
            &replay,
        ));
        per_layer.extend(crate::fleet::probe(seed, &mut out.probes));
        out.per_layer = per_layer;
    }
    Ok(out)
}
