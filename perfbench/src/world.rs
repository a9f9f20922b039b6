//! The enrolled client machines and privacy CA a workload starts from.

use utp_core::ca::PrivacyCa;
use utp_core::client::{Client, ClientConfig};
use utp_core::operator::{ConfirmingHuman, Intent};
use utp_platform::human::HumanConfig;
use utp_platform::machine::{Machine, MachineConfig};
use utp_tpm::VendorProfile;

/// One enrolled client: its simulated machine and the client half of the
/// protocol bound to the machine's AIK.
#[derive(Debug)]
pub struct Party {
    /// The simulated machine (TPM, late launch, keyboard, display).
    pub machine: Machine,
    /// The client orchestrator holding the AIK certificate.
    pub client: Client,
}

/// A privacy CA and the machines it enrolled.
#[derive(Debug)]
pub struct World {
    /// The privacy CA whose key the provider pins.
    pub ca: PrivacyCa,
    /// Enrolled machines, in enrolment order.
    pub parties: Vec<Party>,
}

/// The TPM vendors the realistic machines cycle through.
const VENDORS: [VendorProfile; 4] = [
    VendorProfile::Infineon,
    VendorProfile::Broadcom,
    VendorProfile::Atmel,
    VendorProfile::StMicro,
];

/// The seed of every world's CA and machines. Generating an RSA key is a
/// search for primes whose length depends on the seed: with keys drawn
/// from the workload seed, `setup_s` moved by a third between seeds.
/// Keys come from this fixed seed instead, so set-up does the same work
/// on every seed; orders, humans, schedules and links still derive from
/// the workload seed.
pub const KEY_SEED: u64 = 0x6b65_7973;

impl World {
    /// A CA with a `ca_bits` key and `machines` machines built with
    /// [`MachineConfig::realistic`] (1024-bit TPM keys, calibrated
    /// latencies), each enrolled once, all from [`KEY_SEED`].
    pub fn realistic(ca_bits: usize, machines: usize) -> World {
        let ca = PrivacyCa::new(ca_bits, KEY_SEED ^ 0xCA);
        let parties = (0..machines)
            .map(|i| {
                let config = MachineConfig::realistic(
                    VENDORS[i % VENDORS.len()],
                    KEY_SEED.wrapping_add(0x1000 + i as u64),
                );
                enrol(&ca, Machine::new(config))
            })
            .collect();
        World { ca, parties }
    }

    /// A CA and machines with the small keys of the test configuration
    /// (512-bit, zero device latency), from [`KEY_SEED`]: for the
    /// benchmark's own tests and for side probes.
    pub fn small(machines: usize) -> World {
        let ca = PrivacyCa::new(512, KEY_SEED ^ 0xCA);
        let parties = (0..machines)
            .map(|i| {
                let config =
                    MachineConfig::fast_for_tests(KEY_SEED.wrapping_add(0x1000 + i as u64));
                enrol(&ca, Machine::new(config))
            })
            .collect();
        World { ca, parties }
    }
}

fn enrol(ca: &PrivacyCa, mut machine: Machine) -> Party {
    let enrollment = ca.enroll(&mut machine);
    Party {
        machine,
        client: Client::new(ClientConfig::fast_for_tests(), enrollment),
    }
}

/// A vigilant human with the default reading and typing speed who
/// corrects every mistyped digit. With the default 10% of typos left
/// uncorrected, about one session in 590 000 fails all three code
/// attempts, and whether an approved order settles would then depend on
/// the seed.
pub fn human(intent: Intent, seed: u64) -> ConfirmingHuman {
    let config = HumanConfig {
        correction_rate: 1.0,
        ..HumanConfig::default()
    };
    ConfirmingHuman::with_config(intent, 1.0, config, seed)
}
