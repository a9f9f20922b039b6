//! Per-layer probes: each one times a public call of one layer, from the
//! benchmark's own code, on the workload's own inputs.
//!
//! A traced run fills the per-layer metrics from two places: timers the
//! workload's rounds put around the calls they make (see each workload),
//! and these probes, run after the timed window for calls a round makes
//! only from inside the program.

use std::hint::black_box;
use std::time::Duration;

use utp_core::ca::AikCertificate;
use utp_core::operator::Intent;
use utp_core::protocol::{ConfirmMode, Evidence, Transaction, TransactionRequest};
use utp_core::verifier::{Verifier, VerifierConfig, VerifyError};
use utp_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use utp_crypto::sha1::Sha1;
use utp_crypto::sha256::Sha256;
use utp_flicker::marshal::{put_bytes, put_u64};
use utp_journal::{Journal, JournalRecord};
use utp_server::provider::ServiceProvider;
use utp_tpm::quote::quote_info_bytes;

use crate::report::{metric, Metric, Tally};
use crate::settle::journal_config;
use crate::stats::{median, ms, now, us, SplitMix};
use crate::world::World;

/// Virtual time the probes issue and verify at.
const NOW: Duration = Duration::from_secs(1);
/// Fixed key-generation seeds, so every run generates the same keys.
const KEYGEN_SEEDS: [u64; 4] = [0x6b65_7901, 0x6b65_7902, 0x6b65_7903, 0x6b65_7904];
/// Buffer the hash probes digest.
const HASH_BYTES: usize = 16 * 1024;

/// The two RSA verifications a provider makes per evidence: the CA's
/// SHA-256 signature over the AIK certificate and the AIK's SHA-1
/// signature over the quote. Each verify is timed on its own.
pub fn rsa_verify_us(ca_key: &RsaPublicKey, evidence: &[Evidence], tally: &mut Tally) -> f64 {
    let mut samples = Vec::new();
    let mut pass = true;
    while samples.len() < 400 {
        for e in evidence.iter().take(200) {
            let Some(cert) = AikCertificate::from_bytes(&e.aik_cert) else {
                pass = false;
                continue;
            };
            let Some(aik) = RsaPublicKey::from_bytes(&cert.aik_pub) else {
                pass = false;
                continue;
            };
            let mut body = Vec::new();
            put_u64(&mut body, cert.serial);
            put_bytes(&mut body, &cert.aik_pub);
            let info = quote_info_bytes(&e.quote.composite_digest(), &e.quote.external_data);
            let t = now();
            let ok_cert = ca_key.verify_pkcs1_sha256(black_box(&body), &cert.signature);
            samples.push(us(t.elapsed()));
            let t = now();
            let ok_quote = aik.verify_pkcs1_sha1(black_box(&info), &e.quote.signature);
            samples.push(us(t.elapsed()));
            pass &= ok_cert && ok_quote;
        }
    }
    tally.expect(pass, || {
        "a genuine certificate or quote failed to verify".into()
    });
    median(&samples)
}

/// `RsaKeyPair::generate` over fixed seeds (mean ms per key), and the
/// last key generated.
pub fn keygen_ms(bits: usize) -> (f64, RsaKeyPair) {
    let start = now();
    let mut key = None;
    for seed in KEYGEN_SEEDS {
        key = Some(RsaKeyPair::generate(bits, seed));
    }
    let total = ms(start.elapsed());
    let key = key.expect("KEYGEN_SEEDS is not empty");
    (total / KEYGEN_SEEDS.len() as f64, key)
}

/// `RsaKeyPair::sign_pkcs1_sha1` over the workload's quote bodies.
pub fn rsa_sign_us(key: &RsaKeyPair, evidence: &[Evidence], tally: &mut Tally) -> f64 {
    let mut samples = Vec::new();
    let mut pass = true;
    while samples.len() < 100 {
        for e in evidence.iter().take(100) {
            let info = quote_info_bytes(&e.quote.composite_digest(), &e.quote.external_data);
            let t = now();
            let sig = key.sign_pkcs1_sha1(black_box(&info));
            samples.push(us(t.elapsed()));
            pass &= sig.is_ok_and(|s| key.public().verify_pkcs1_sha1(&info, &s));
        }
    }
    tally.expect(pass, || "a fresh signature failed to verify".into());
    median(&samples)
}

/// Hash throughput in MiB/s over a 16 KiB buffer: the median of 16
/// batches of 64 digests each.
pub fn hash_mib_s(seed: u64, digest: fn(&[u8]) -> Vec<u8>) -> f64 {
    let mut rng = SplitMix::new(seed);
    let buf: Vec<u8> = (0..HASH_BYTES).map(|_| rng.next_u64() as u8).collect();
    let batch = 64;
    let rates: Vec<f64> = (0..16)
        .map(|_| {
            let t = now();
            for _ in 0..batch {
                black_box(digest(black_box(&buf)));
            }
            (batch * HASH_BYTES) as f64 / (1024.0 * 1024.0) / t.elapsed().as_secs_f64()
        })
        .collect();
    median(&rates)
}

/// SHA-1 as a byte vector, for [`hash_mib_s`].
pub fn sha1(data: &[u8]) -> Vec<u8> {
    Sha1::digest(data).as_bytes().to_vec()
}

/// SHA-256 as a byte vector, for [`hash_mib_s`].
pub fn sha256(data: &[u8]) -> Vec<u8> {
    Sha256::digest(data).as_bytes().to_vec()
}

/// `Client::confirm_with_report` on the workload's machines, on fresh
/// challenges the human approves.
pub fn session_us(world: &mut World, seed: u64, tally: &mut Tally) -> f64 {
    let mut samples = Vec::new();
    let n = world.parties.len();
    for i in 0..16 {
        let party = &mut world.parties[i % n];
        let request = TransactionRequest {
            transaction: Transaction::new(
                1_000_000 + i as u64,
                "probe-shop",
                4_200,
                "EUR",
                "probe",
            ),
            nonce: Sha1::digest(&(seed ^ i as u64).to_be_bytes()),
            mode: ConfirmMode::TypeCode,
        };
        let mut human = crate::world::human(
            Intent::approving(&request.transaction),
            seed ^ 0x5e55 ^ i as u64,
        );
        let t = now();
        let result = party
            .client
            .confirm_with_report(&mut party.machine, &request, &mut human);
        samples.push(us(t.elapsed()));
        tally.expect(result.is_ok(), || format!("probe session {i} failed"));
    }
    median(&samples)
}

/// `Evidence::token` in batches of 1000 calls (µs per call).
pub fn token_parse_us(evidence: &[Evidence], tally: &mut Tally) -> f64 {
    let mut pass = true;
    let per_call: Vec<f64> = (0..16)
        .map(|_| {
            let t = now();
            for e in evidence.iter().cycle().take(1000) {
                pass &= black_box(e.token()).is_ok();
            }
            us(t.elapsed()) / 1000.0
        })
        .collect();
    tally.expect(pass, || "a genuine token failed to parse".into());
    median(&per_call)
}

/// `Verifier::verify` on genuine evidence, then again on the same
/// evidence, whose nonce is now used: `(verify_us, replay_reject_us)`.
pub fn verify_us(
    ca_key: &RsaPublicKey,
    requests: &[TransactionRequest],
    evidence: &[Evidence],
    tally: &mut Tally,
) -> (f64, f64) {
    let mut verifier = Verifier::with_config(ca_key.clone(), VerifierConfig::default(), 7);
    for r in requests.iter().take(256) {
        verifier.import_request(r, NOW);
    }
    let mut genuine = Vec::new();
    let mut replay = Vec::new();
    let mut pass = true;
    for e in evidence.iter().take(256) {
        let t = now();
        let first = verifier.verify(e, NOW);
        genuine.push(us(t.elapsed()));
        let t = now();
        let again = verifier.verify(e, NOW);
        replay.push(us(t.elapsed()));
        pass &= first.is_ok() && again == Err(VerifyError::Replayed);
    }
    tally.expect(pass, || {
        "serial verifier misjudged genuine or replayed evidence".into()
    });
    (median(&genuine), median(&replay))
}

/// `ServiceProvider::place_order` on a fresh journaled provider.
pub fn place_order_us(ca_key: &RsaPublicKey, seed: u64) -> f64 {
    let journal = std::sync::Arc::new(Journal::new(journal_config()));
    let mut provider =
        ServiceProvider::with_config(ca_key.clone(), VerifierConfig::default(), seed);
    provider.attach_journal(journal);
    provider.open_account("probe", 1_000_000_000);
    let samples: Vec<f64> = (0..256)
        .map(|i| {
            let t = now();
            black_box(provider.place_order("probe", "probe-shop", 100 + i, "EUR", "probe", NOW));
            us(t.elapsed())
        })
        .collect();
    median(&samples)
}

/// `Journal::append_record` plus `sync_to` of one `Settle` record.
pub fn append_sync_us() -> f64 {
    let journal = Journal::new(journal_config());
    let samples: Vec<f64> = (0..2048u64)
        .map(|i| {
            let record = JournalRecord::Settle {
                order_id: i + 1,
                nonce: *Sha1::digest(&i.to_be_bytes()).as_bytes(),
                at: NOW,
                outcome: Ok(()),
            };
            let t = now();
            let receipt = journal.append_record(&record);
            journal.sync_to(receipt.seq);
            us(t.elapsed())
        })
        .collect();
    median(&samples)
}

/// The probes every workload runs, on its own CA key, evidence and
/// machines.
pub struct CommonInputs<'a> {
    /// The CA key the provider pins.
    pub ca_key: &'a RsaPublicKey,
    /// Genuine evidence.
    pub evidence: &'a [Evidence],
    /// The challenges that evidence answers.
    pub requests: &'a [TransactionRequest],
    /// RSA key size of the machines the session probe runs on.
    pub session_bits: usize,
    /// The workload seed.
    pub seed: u64,
}

/// Runs the crypto, flicker and core probes and the journal
/// append+sync probe. `flicker.session_non_rsa_us` subtracts a signature
/// made with a key of the session machines' size.
pub fn common(inputs: &CommonInputs<'_>, world: &mut World, tally: &mut Tally) -> Vec<Metric> {
    let verify = rsa_verify_us(inputs.ca_key, inputs.evidence, tally);
    let (keygen, key) = keygen_ms(1024);
    let sign = rsa_sign_us(&key, inputs.evidence, tally);
    let session_sign = if inputs.session_bits == 1024 {
        sign
    } else {
        let key = RsaKeyPair::generate(inputs.session_bits, KEYGEN_SEEDS[0]);
        rsa_sign_us(&key, inputs.evidence, tally)
    };
    let session = session_us(world, inputs.seed, tally);
    let (core_verify, replay) = verify_us(inputs.ca_key, inputs.requests, inputs.evidence, tally);
    vec![
        metric("crypto.rsa_verify_us", "us", verify),
        metric("crypto.rsa_sign_us", "us", sign),
        metric("crypto.keygen_ms", "ms", keygen),
        metric("crypto.sha1_mib_s", "MiB/s", hash_mib_s(inputs.seed, sha1)),
        metric(
            "crypto.sha256_mib_s",
            "MiB/s",
            hash_mib_s(inputs.seed, sha256),
        ),
        metric("flicker.session_us", "us", session),
        metric("flicker.session_non_rsa_us", "us", session - session_sign),
        metric(
            "core.token_parse_us",
            "us",
            token_parse_us(inputs.evidence, tally),
        ),
        metric("core.verify_us", "us", core_verify),
        metric("core.replay_reject_us", "us", replay),
        metric("journal.append_sync_us", "us", append_sync_us()),
    ]
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
pub const PER_LAYER: [&str; 25] = [
    "crypto.rsa_verify_us",
    "crypto.rsa_sign_us",
    "crypto.keygen_ms",
    "crypto.sha1_mib_s",
    "crypto.sha256_mib_s",
    "flicker.session_us",
    "flicker.session_non_rsa_us",
    "core.token_parse_us",
    "core.verify_us",
    "core.replay_reject_us",
    "server.place_order_us",
    "server.submit_genuine_us",
    "server.submit_replay_us",
    "server.submit_rejected_us",
    "server.cert_cache_hit_ratio",
    "server.unaccounted_us",
    "server.recover_rebuild_ms",
    "journal.append_sync_us",
    "journal.bytes_per_submission",
    "journal.flushes_per_submission",
    "journal.replay_ms",
    "netsim.events_per_s",
    "netsim.events_per_txn",
    "netsim.verify_jobs_per_txn",
    "netsim.hook_us",
];

/// Every end-to-end metric, in the order `BENCHMARK.json` lists them.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "throughput_per_s",
    "latency_p50_us",
    "latency_p90_us",
    "recover_ms",
];

/// Puts `metrics` in the order of `names`, or says which name is
/// missing or extra.
pub fn in_order(mut metrics: Vec<Metric>, names: &[&str]) -> Result<Vec<Metric>, String> {
    let mut ordered = Vec::with_capacity(names.len());
    for name in names {
        let at = metrics
            .iter()
            .position(|m| m.name == *name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        ordered.push(metrics.swap_remove(at));
    }
    match metrics.first() {
        Some(extra) => Err(format!("metric {} is not listed", extra.name)),
        None => Ok(ordered),
    }
}
