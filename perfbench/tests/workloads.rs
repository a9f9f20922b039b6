//! Every workload at a small size, and each output check firing on a
//! deliberately wrong input.

use std::time::Duration;

use perfbench::confirm::{self, ConfirmKit, ConfirmSize};
use perfbench::fleet::{self, FleetSize};
use perfbench::layers::{in_order, END_TO_END, PER_LAYER};
use perfbench::report::{Outcome, Tally};
use perfbench::settle::{self, Class, SettleKit, SettleSize};
use utp_core::operator::Intent;
use utp_server::flow::run_transaction;

fn assert_complete(out: Outcome) {
    assert_eq!(
        out.probes.failed, out.probes.known,
        "{:?}",
        out.probes.reasons
    );
    assert!(out.probes.attempted > 0);
    in_order(out.end_to_end, &END_TO_END).expect("every end-to-end metric");
    let per_layer = in_order(out.per_layer, &PER_LAYER).expect("every per-layer metric");
    for m in &per_layer {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
}

#[test]
fn settle_round_passes_every_check() {
    let kit = SettleKit::build(SettleSize::SMALL, 5).unwrap();
    let round = settle::run_round(&kit, true);
    assert_eq!(round.tally.failed, 0, "{:?}", round.tally.reasons);
    // Submissions, plus the challenge check and three balance/order checks.
    assert_eq!(round.tally.attempted, kit.schedule.len() as u64 + 4);
    let classes = |c| kit.schedule.iter().filter(|s| s.expect == c).count();
    for c in [
        Class::Settled,
        Class::Replayed,
        Class::TokenMismatch,
        Class::BadQuote,
        Class::NotConfirmed,
    ] {
        assert!(classes(c) > 0, "the mix has no {c:?}");
    }
}

#[test]
fn settle_rounds_repeat_exactly() {
    let kit = SettleKit::build(SettleSize::SMALL, 6).unwrap();
    let a = settle::run_round(&kit, true).trace.unwrap();
    let b = settle::run_round(&kit, true).trace.unwrap();
    assert_eq!(
        (a.log_bytes, a.flushes, a.cache_hits, a.cache_misses),
        (b.log_bytes, b.flushes, b.cache_hits, b.cache_misses)
    );
}

#[test]
fn tampered_evidence_labelled_genuine_is_one_failed_operation() {
    let mut kit = SettleKit::build(SettleSize::SMALL, 7).unwrap();
    let tampered = kit
        .schedule
        .iter()
        .position(|s| s.expect == Class::BadQuote)
        .unwrap();
    kit.schedule[tampered].expect = Class::Settled;
    let round = settle::run_round(&kit, false);
    assert_eq!(round.tally.failed, 1, "{:?}", round.tally.reasons);
}

#[test]
fn an_order_miscounted_as_rejected_fails_the_balance_and_order_checks() {
    let mut kit = SettleKit::build(SettleSize::SMALL, 8).unwrap();
    let approved = kit.approved.iter().position(|&a| a).unwrap();
    // The provider still settles it; the benchmark's own sum now misses
    // its amount, so the live balance, the recovered balance and the
    // recovered set of confirmed orders all disagree.
    kit.approved[approved] = false;
    let round = settle::run_round(&kit, false);
    assert_eq!(round.tally.failed, 3, "{:?}", round.tally.reasons);
}

#[test]
fn settle_run_reports_every_metric() {
    let out = settle::run(SettleSize::SMALL, 9, Duration::ZERO, true).unwrap();
    assert_eq!(out.tally.failed, 0, "{:?}", out.tally.reasons);
    assert_complete(out);
}

#[test]
fn confirm_round_passes_every_check() {
    let mut kit = ConfirmKit::build(ConfirmSize::SMALL, 3);
    assert!(kit.orders.iter().any(|o| o.substitute.is_some()));
    let round = confirm::run_round(&mut kit, 0, true);
    assert_eq!(round.tally.failed, 0, "{:?}", round.tally.reasons);
}

#[test]
fn confirm_report_checks_fire() {
    let mut kit = ConfirmKit::build(ConfirmSize::SMALL, 4);
    let ca = kit.ca_key.clone();
    let mut provider = utp_server::provider::ServiceProvider::new(ca, 1);
    provider.open_account(confirm::ACCOUNT, confirm::OPENING_CENTS);
    let order = kit
        .orders
        .iter()
        .find(|o| o.substitute.is_none())
        .unwrap()
        .clone();
    let party = &mut kit.world.parties[0];
    let mut human = perfbench::world::human(
        Intent {
            payee: order.payee.clone(),
            amount: format!(
                "{}.{:02} EUR",
                order.amount_cents / 100,
                order.amount_cents % 100
            ),
            approve: true,
        },
        1,
    );
    let report = run_transaction(
        &mut party.machine,
        &mut party.client,
        &mut provider,
        &mut kit.link,
        confirm::ACCOUNT,
        &order.payee,
        order.amount_cents,
        "test",
        &mut human,
    )
    .unwrap();
    assert_eq!(confirm::check_report(&order, &report), Ok(()));

    let mut short = report.clone();
    short.total = short.network;
    assert!(
        confirm::check_report(&order, &short).is_err(),
        "total below its parts"
    );

    let mut mislabelled = order.clone();
    mislabelled.substitute = Some(("mule-1".into(), 1));
    assert!(
        confirm::check_report(&mislabelled, &report).is_err(),
        "a settled substitute"
    );

    let mut wrong_amount = order;
    wrong_amount.amount_cents += 1;
    assert!(confirm::check_report(&wrong_amount, &report).is_err());
}

#[test]
fn confirm_run_reports_every_metric() {
    let out = confirm::run(ConfirmSize::SMALL, 10, Duration::ZERO, true).unwrap();
    assert_eq!(out.tally.failed, 0, "{:?}", out.tally.reasons);
    assert_complete(out);
}

#[test]
fn fleet_round_passes_every_check_but_the_known_fault() {
    let sc = fleet::scenario(FleetSize::SMALL, 11);
    let round = fleet::run_round(&sc, fleet::sampled_stack(), &fleet::hook_ca_key(), true);
    // The one miss is the recovered provider's missing fleet account.
    assert_eq!(
        (round.tally.failed, round.tally.known),
        (1, 1),
        "{:?}",
        round.tally.reasons
    );
    assert_eq!(round.settled, FleetSize::SMALL.clients());
    let trace = round.trace.unwrap();
    assert!(trace.hook_submissions > 0 && trace.verify_jobs > round.settled);
}

#[test]
fn fleet_report_checks_fire() {
    let sc = fleet::scenario(FleetSize::SMALL, 12);
    let mut hook = fleet::TimedHook::new(utp_server::flow::FleetStackHook::new(12));
    let report = sc.run_with(&mut hook);
    let n = FleetSize::SMALL.clients();
    let capacity = fleet::capacity_per_sec(fleet::WORKERS, fleet::VERIFY_COST);
    let spend = utp_server::flow::FleetStackHook::spend_per_order() as i64;
    let debit = report.full_stack.settled as i64 * spend;
    let failures = |fleet, capacity, debit| {
        fleet::check_report(&report, fleet, capacity, debit)
            .into_iter()
            .filter(Result::is_err)
            .count()
    };
    assert_eq!(failures(n, capacity, debit), 0);
    // A capacity bound below what the modeled pool delivered: one worker
    // at four times the verify cost is slower than the goodput this small
    // fleet reaches, retry tail included.
    let slow_pool = fleet::capacity_per_sec(1, fleet::VERIFY_COST * 4);
    assert!(
        slow_pool < report.goodput_per_sec(),
        "{}",
        report.goodput_per_sec()
    );
    assert_eq!(failures(n, slow_pool, debit), 1);
    // One order debited twice.
    assert_eq!(failures(n, capacity, debit + spend), 1);
    // A client the report does not account for.
    assert_eq!(failures(n + 1, capacity, debit), 2);
}

#[test]
fn only_a_missing_fleet_account_is_the_known_fault() {
    let spend = utp_server::flow::FleetStackHook::spend_per_order() as i64;
    let once = 7 * spend;
    let outcome = |debited| {
        let mut t = Tally::default();
        fleet::check_recovered_debit(&mut t, debited, once);
        (t.attempted, t.failed, t.known)
    };
    assert_eq!(outcome(Some(once)), (1, 0, 0));
    assert_eq!(outcome(None), (1, 1, 1));
    // A recovery that debits twice, or loses every debit of an account
    // it did rebuild, is a new fault and makes the run incorrect.
    assert_eq!(outcome(Some(once + spend)), (1, 1, 0));
    assert_eq!(outcome(Some(0)), (1, 1, 0));
}

#[test]
fn fleet_run_reports_every_metric() {
    let out = fleet::run(FleetSize::SMALL, 13, Duration::ZERO, true).unwrap();
    assert_eq!(out.tally.failed, out.tally.known, "{:?}", out.tally.reasons);
    assert_complete(out);
}
