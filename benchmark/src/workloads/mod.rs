//! The four workloads. Each is a value holding its inputs' parameters and
//! a `rep` method: build fresh state (the set-up section), run the
//! measured section, check the outputs, return what was counted.

pub mod ae_swim_churn;
pub mod events_churn;
pub mod paper_chain;
pub mod udp_relay;

use crate::spans::Tracer;

/// What one rep measured and counted.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Wall time of the set-up section.
    pub setup_s: f64,
    /// Wall time of the measured section.
    pub work_s: f64,
    /// Units of work in the measured section (the workload states which).
    pub units: u64,
    /// Protocol messages sent in the measured section.
    pub msgs: u64,
    /// Bytes sent in the measured section (modelled in the simulators,
    /// real over UDP).
    pub bytes: u64,
    /// What `msgs` and `bytes` are divided by: n, or hosts over UDP.
    pub nodes: u64,
    /// Hash of the outputs; equal in every rep of one workload and seed on
    /// the simulators.
    pub fingerprint: u64,
    /// Operations attempted and failed (the workload states which).
    pub attempted: u64,
    pub failed: u64,
    /// Protocol time to the goal, in the workload's own clock. Taken in
    /// counting reps only, NaN otherwise.
    pub rounds: f64,
    /// Heap allocations in the measured section and the high-water mark of
    /// live heap bytes from the rep's start to the end of the measured
    /// section. Zero unless the counting allocator is on.
    pub allocs_work: u64,
    pub peak_heap_bytes: u64,
    /// Readings of single layers taken from this rep's state (getters and
    /// the program's own counters), by per-layer metric name.
    pub layer: Vec<(&'static str, f64)>,
}

/// One of the four workloads, with its inputs' parameters.
#[derive(Clone, Debug)]
pub enum Workload {
    PaperChain(paper_chain::PaperChain),
    EventsChurn(events_churn::EventsChurn),
    AeSwimChurn(ae_swim_churn::AeSwimChurn),
    UdpRelay(udp_relay::UdpRelay),
}

pub const NAMES: [&str; 4] = [
    paper_chain::NAME,
    events_churn::NAME,
    ae_swim_churn::NAME,
    udp_relay::NAME,
];

/// Why each workload exists, in [`NAMES`]' order.
pub const WHYS: [&str; 4] = [
    paper_chain::WHY,
    events_churn::WHY,
    ae_swim_churn::WHY,
    udp_relay::WHY,
];

impl Workload {
    /// The workload called `name` at full or toy size, with every input
    /// derived from `seed`.
    pub fn by_name(name: &str, seed: u64, toy: bool) -> Option<Workload> {
        Some(match name {
            paper_chain::NAME => Workload::PaperChain(paper_chain::PaperChain::new(seed, toy)),
            events_churn::NAME => Workload::EventsChurn(events_churn::EventsChurn::new(seed, toy)),
            ae_swim_churn::NAME => {
                Workload::AeSwimChurn(ae_swim_churn::AeSwimChurn::new(seed, toy))
            }
            udp_relay::NAME => Workload::UdpRelay(udp_relay::UdpRelay::new(seed, toy)),
            _ => return None,
        })
    }

    pub fn name(&self) -> &'static str {
        match self {
            Workload::PaperChain(_) => paper_chain::NAME,
            Workload::EventsChurn(_) => events_churn::NAME,
            Workload::AeSwimChurn(_) => ae_swim_churn::NAME,
            Workload::UdpRelay(_) => udp_relay::NAME,
        }
    }

    /// What one unit of `work_per_s` is.
    pub fn unit(&self) -> &'static str {
        match self {
            Workload::PaperChain(_) => "messages",
            Workload::EventsChurn(_) | Workload::AeSwimChurn(_) => "events",
            Workload::UdpRelay(_) => "datagrams",
        }
    }

    /// Whether every count repeats bit for bit at one seed (the seeded,
    /// single-threaded simulators), or only the protocol counts do (UDP,
    /// whose heap figures may move with poll timing).
    pub fn is_simulator(&self) -> bool {
        !matches!(self, Workload::UdpRelay(_))
    }

    /// One rep. `counting` asks for the checks and counts that cost extra
    /// time (`rounds`, the operations tally on a longer horizon); the
    /// caller switches the counting allocator on around such a rep.
    pub fn rep(&self, counting: bool, tr: &mut Tracer) -> Rep {
        match self {
            Workload::PaperChain(w) => w.rep(tr),
            Workload::EventsChurn(w) => w.rep(counting, tr),
            Workload::AeSwimChurn(w) => w.rep(tr),
            Workload::UdpRelay(w) => w.rep(tr),
        }
    }
}

/// FNV-1a over 64-bit words: the output fingerprints.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}
