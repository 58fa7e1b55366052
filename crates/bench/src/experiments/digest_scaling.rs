//! E20 — digest scaling: dense flat digests vs Merkle digest trees.
//!
//! The motivating defect (ROADMAP: "O(log n) digests for anti-entropy"):
//! E17's msgs/node/tick is flat, but its *bits* grow linearly with n,
//! because every exchange opens with a flat per-origin digest — O(n)
//! stamps **even when nothing changed**, and beyond n ≈ 10,000 known
//! origins the digest no longer fits one UDP datagram at all, so the
//! socket host cannot run anti-entropy at the scales the sharded engine
//! simulates. Two measurements:
//!
//! * **Per-exchange bytes, in vitro** — two replicas at arity
//!   n ∈ {10³, 10⁴, 10⁵} differing in exactly k entries run one full
//!   reconciliation through the real engine (`gossip_ae::reconcile`),
//!   summing the exact wire payload of every leg
//!   (`gossip_ae::payload_bytes`, the property-pinned size twin of the
//!   codec). Dense cost is O(n) regardless of k; Merkle cost is
//!   O(k·log n) — and the **max single message** column shows why only
//!   Merkle mode is deployable at scale: its widest leg is bounded by the
//!   probe batch and the fallback range, while a dense digest crosses the
//!   65,000-byte datagram ceiling.
//! * **Population run** — the full event-driven layer under churn
//!   (rejoiners restarting empty), static signal — the "nothing changed"
//!   steady state the flat digest taxes hardest — measuring steady-state
//!   digest traffic per node·tick after a warmup, plus E17's rejoin
//!   recovery measurement, in both modes: the digest tax disappears
//!   (≈10× at n = 2¹⁰, growing with n — what remains in Merkle mode is
//!   the irreducible churn-repair data movement both modes pay) while
//!   recovery stays within a few ticks. A third table splits each mode's
//!   modelled bytes by leg (`AeNodeStats::leg_bits`), which says where
//!   the remaining traffic goes.
//!
//! A hot-update workload (every entry re-stamped every few ticks) erodes
//! the Merkle advantage — with most leaves dirty the descent degenerates
//! toward per-range dense exchanges; that is what `AeConfig::digest_mode`
//! stays a switch for.

use super::ExperimentOptions;
use gossip_ae::{
    ae_driver, payload_bytes, reconcile, AeConfig, AeMsg, DigestMode, DigestTree, Entry,
    RecoveryOutcome, RecoveryTracker, Store, RECOVERY_BOUND_TICKS,
};
use gossip_analysis::{fmt_mean_or_dash, Table};
use gossip_net::{NodeId, SimConfig, MAX_PAYLOAD_BYTES};
use gossip_runtime::{AsyncConfig, ChurnModel, LatencyModel, SweepRunner};

/// Store arities for the in-vitro per-exchange measurement.
const VITRO_SIZES: [usize; 3] = [1_000, 10_000, 100_000];
/// Stale-entry counts per in-vitro exchange (`0` = replicas identical).
const VITRO_STALE: [usize; 3] = [0, 1, 64];
/// Merkle fallback/leaf span for the in-vitro exchanges.
const FALLBACK_SLOTS: usize = 32;

/// Fallback span for the population run: churn scatters single fresh
/// entries across the key space, so tight leaves (8 slots) keep the
/// range-stamp overhead of repairing one entry small; wide leaves shine
/// when diffs are clustered (bulk loads, rejoin catch-up).
const POPULATION_FALLBACK_SLOTS: usize = 8;

/// Population-run churn: crash rate per tick (rejoin fixed at 25%).
const POPULATION_CRASH_RATE: f64 = 0.005;

/// One replica: a store plus its tree when in Merkle mode.
struct Replica {
    store: Store,
    tree: Option<DigestTree>,
}

impl Replica {
    fn full(n: usize, mode: DigestMode) -> Self {
        let mut store = Store::new(n);
        for i in 0..n {
            store.merge(
                NodeId::new(i),
                Entry {
                    stamp: 2,
                    value: i as f64,
                },
            );
        }
        let tree = match mode {
            DigestMode::Dense => None,
            DigestMode::Merkle => Some(DigestTree::new(&store, FALLBACK_SLOTS)),
        };
        Replica { store, tree }
    }

    /// Re-stamp `k` entries spread across the key space (stride keeps
    /// them in distinct leaves — the Merkle-friendly layout; clustered
    /// updates would be cheaper still).
    fn freshen(&mut self, k: usize) {
        let n = self.store.n();
        for j in 0..k {
            let origin = NodeId::new((j * n / k.max(1)) % n);
            self.store.merge(
                origin,
                Entry {
                    stamp: 3,
                    value: origin.index() as f64 + 0.5,
                },
            );
            if let Some(tree) = &mut self.tree {
                tree.refresh(origin, &self.store);
            }
        }
    }

    fn opener(&self) -> AeMsg {
        match &self.tree {
            None => AeMsg::SynReq {
                n: self.store.n() as u32,
                digest: self.store.sparse_digest(),
            },
            Some(tree) => AeMsg::MerkleSyn {
                n: self.store.n() as u32,
                root: tree.root(),
            },
        }
    }
}

struct ExchangeCost {
    total_bytes: usize,
    max_msg_bytes: usize,
    legs: usize,
}

/// Run one full reconciliation (initiator `a`, responder `b`) to
/// quiescence, summing exact wire payload bytes over every leg.
fn one_exchange(a: &mut Replica, b: &mut Replica) -> ExchangeCost {
    let mut queue: Vec<(bool, AeMsg)> = vec![(false, a.opener())];
    let mut cost = ExchangeCost {
        total_bytes: 0,
        max_msg_bytes: 0,
        legs: 0,
    };
    while let Some((to_a, msg)) = queue.pop() {
        let bytes = payload_bytes(&msg);
        cost.total_bytes += bytes;
        cost.max_msg_bytes = cost.max_msg_bytes.max(bytes);
        cost.legs += 1;
        let target = if to_a { &mut *a } else { &mut *b };
        let handled = reconcile(
            &mut target.store,
            target.tree.as_mut(),
            FALLBACK_SLOTS,
            &msg,
        );
        debug_assert_eq!(handled.invalid, 0);
        queue.extend(handled.replies.into_iter().map(|m| (!to_a, m)));
    }
    cost
}

fn vitro_cost(n: usize, mode: DigestMode, stale: usize) -> ExchangeCost {
    let mut a = Replica::full(n, mode);
    let mut b = Replica::full(n, mode);
    a.freshen(stale);
    let cost = one_exchange(&mut a, &mut b);
    debug_assert_eq!(a.store, b.store, "exchange must converge the pair");
    cost
}

/// Outcome of one population trial (see E17 for the recovery yardstick).
struct TrialOutcome {
    steady_bytes_node_tick: f64,
    msgs_node_tick: f64,
    rejoins: f64,
    recovered_fraction: f64,
    mean_recovery_ticks: f64,
    max_recovery_ticks: f64,
    /// Modelled bits sent per leg over the whole run, summed over every
    /// node's current incarnation (a rejoiner's tally restarts with it).
    leg_bits: [u64; AeMsg::LEGS],
}

fn population_trial(n: usize, mode: DigestMode, seed: u64, ticks: u64) -> TrialOutcome {
    // Static signal: the steady state where nothing changes but churn —
    // exactly the case the flat digest taxes at O(n) per exchange.
    let ae = AeConfig::default()
        .with_update_us(0)
        .with_expiry_us(0)
        .with_digest_mode(mode)
        .with_merkle_fallback_slots(POPULATION_FALLBACK_SLOTS);
    let engine = AsyncConfig::new(
        SimConfig::new(n)
            .with_seed(seed)
            .with_loss_prob(0.02)
            .with_value_range(10_000.0),
    )
    .with_latency(LatencyModel::LogNormal {
        median_us: 800.0,
        sigma: 0.7,
    })
    .with_link_spread(0.2)
    .with_churn(ChurnModel::per_round(POPULATION_CRASH_RATE, 0.25).with_min_alive(n / 2));
    // One shard per trial: the sweep already fans trials out over the cores.
    let mut driver = ae_driver(engine, ae, 1);
    let mut tracker = RecoveryTracker::new(0.01, ae.expiry_us);

    // Warmup: initial reconciliation from empty stores is a bulk
    // transfer in either mode; "steady state" starts after it.
    let warmup = ticks / 4;
    let mut steady_bits_base = 0u64;
    for k in 1..=ticks {
        driver.run_until(k * ae.tick_us);
        tracker.observe(&driver);
        if k == warmup {
            steady_bits_base = driver.net_metrics().total_bits();
        }
    }
    let steady_bits = driver.net_metrics().total_bits() - steady_bits_base;
    let steady_ticks = (ticks - warmup) as f64;
    let mut leg_bits = [0u64; AeMsg::LEGS];
    for (_, node) in driver.iter_handlers() {
        for (sum, bits) in leg_bits.iter_mut().zip(node.stats.leg_bits) {
            *sum += bits;
        }
    }

    let records = tracker.finish();
    let mut recovery_ticks: Vec<f64> = Vec::new();
    let mut unrecovered = 0usize;
    for record in &records {
        match record.outcome {
            RecoveryOutcome::Recovered { ticks } => recovery_ticks.push(ticks as f64),
            RecoveryOutcome::CrashedAgain { .. } => {}
            RecoveryOutcome::Unresolved { ticks_observed } => {
                if ticks_observed >= RECOVERY_BOUND_TICKS {
                    unrecovered += 1;
                }
            }
        }
    }
    let measurable = recovery_ticks.len() + unrecovered;
    let mean_recovery = if recovery_ticks.is_empty() {
        f64::NAN
    } else {
        recovery_ticks.iter().sum::<f64>() / recovery_ticks.len() as f64
    };

    TrialOutcome {
        steady_bytes_node_tick: steady_bits as f64 / 8.0 / (n as f64 * steady_ticks),
        msgs_node_tick: driver.net_metrics().total_messages() as f64 / (n as f64 * ticks as f64),
        rejoins: records.len() as f64,
        recovered_fraction: if measurable == 0 {
            f64::NAN
        } else {
            recovery_ticks.len() as f64 / measurable as f64
        },
        mean_recovery_ticks: mean_recovery,
        max_recovery_ticks: recovery_ticks.iter().copied().fold(f64::NAN, f64::max),
        leg_bits,
    }
}

fn mode_name(mode: DigestMode) -> &'static str {
    match mode {
        DigestMode::Dense => "dense",
        DigestMode::Merkle => "merkle",
    }
}

/// Run E20.
pub fn run(options: &ExperimentOptions) -> Vec<Table> {
    // Table 1: exact per-exchange wire bytes, in vitro.
    let mut vitro = Table::new(
        format!(
            "E20 — digest bytes per exchange, steady state (two full replicas, k stale \
             entries, fallback = {FALLBACK_SLOTS} slots, exact wire payload bytes)"
        ),
        &[
            "n",
            "mode",
            "k=0 bytes",
            "k=1 bytes",
            "k=64 bytes",
            "max msg bytes (k=64)",
            "one datagram?",
        ],
    );
    for &n in &VITRO_SIZES {
        for mode in [DigestMode::Dense, DigestMode::Merkle] {
            let costs: Vec<ExchangeCost> = VITRO_STALE
                .iter()
                .map(|&k| vitro_cost(n, mode, k))
                .collect();
            let max_msg = costs.last().expect("three stale levels").max_msg_bytes;
            vitro.push_row(vec![
                n.to_string(),
                mode_name(mode).to_string(),
                costs[0].total_bytes.to_string(),
                costs[1].total_bytes.to_string(),
                costs[2].total_bytes.to_string(),
                max_msg.to_string(),
                if max_msg <= MAX_PAYLOAD_BYTES {
                    "yes".to_string()
                } else {
                    format!("NO (> {MAX_PAYLOAD_BYTES})")
                },
            ]);
        }
    }
    vitro.push_note(
        "bytes = sum of exact encoded payloads over every leg of one full reconciliation \
         (openers included); dense pays O(n) digest pairs even at k = 0, merkle pays one \
         13-byte root exchange at k = 0 and O(k·log n) probes + fallback ranges otherwise",
    );
    vitro.push_note(
        "max msg bytes is the widest single leg at k = 64: beyond the 65,000-byte frame \
         ceiling the socket host cannot ship it at all (NodeStats::send_oversize) — the \
         dense rows cross it between 10⁴ and 10⁵ (these replicas' equal stamps take 1-byte \
         codes, the stamp runs' best case), the merkle legs stay bounded at any n",
    );

    // Table 2: the population run — steady-state traffic + rejoin recovery.
    let n = if options.quick { 1 << 8 } else { 1 << 10 };
    let ticks = if options.quick { 60 } else { 120 };
    let seeds = SweepRunner::trial_seeds(0xE20_5EED, options.trials() as usize);
    let runner = SweepRunner::new();
    let modes = [DigestMode::Dense, DigestMode::Merkle];
    let outcomes = runner.run_grid(&modes, &seeds, |&mode, seed| {
        population_trial(n, mode, seed, ticks)
    });
    let mut population = Table::new(
        format!(
            "E20 — anti-entropy under churn, dense vs merkle digests (n = {n}, {ticks} \
             ticks, static signal, crash {}%/tick, rejoin 25%/tick, fallback = \
             {POPULATION_FALLBACK_SLOTS} slots, log-normal latency)",
            POPULATION_CRASH_RATE * 100.0
        ),
        &[
            "mode",
            "steady B/node/tick",
            "msgs/node/tick",
            "rejoins",
            "recovered",
            "ticks mean",
            "ticks max",
        ],
    );
    for (mi, &mode) in modes.iter().enumerate() {
        let cell = &outcomes[mi * seeds.len()..(mi + 1) * seeds.len()];
        let mean = |f: &dyn Fn(&TrialOutcome) -> f64| fmt_mean_or_dash(cell.iter().map(f));
        population.push_row(vec![
            mode_name(mode).to_string(),
            mean(&|t| t.steady_bytes_node_tick),
            mean(&|t| t.msgs_node_tick),
            mean(&|t| t.rejoins),
            mean(&|t| t.recovered_fraction),
            mean(&|t| t.mean_recovery_ticks),
            mean(&|t| t.max_recovery_ticks),
        ]);
    }
    population.push_note(
        "steady B/node/tick = modelled anti-entropy traffic (bytes) per node per tick after \
         a 25% warmup — the steady state is static, so dense rows pay the O(n) digest tax \
         on every exchange while merkle rows pay root exchanges plus rejoin repairs only",
    );
    population.push_note(
        "recovery columns exactly as E17: ticks for a churn-produced rejoiner (restarting \
         with an empty store — and in merkle mode a blank tree) to re-enter the 1% band \
         around the fully-synced reference estimate",
    );

    // Table 3: where each mode's bytes go, leg by leg.
    let mut header = vec!["mode"];
    header.extend(AeMsg::LEG_NAMES);
    let mut legs = Table::new(
        format!(
            "E20 — share of modelled bytes by leg, population run (n = {n}, {ticks} ticks, \
             whole run)"
        ),
        &header,
    );
    for (mi, &mode) in modes.iter().enumerate() {
        let mut bits = [0u64; AeMsg::LEGS];
        for trial in &outcomes[mi * seeds.len()..(mi + 1) * seeds.len()] {
            for (sum, leg) in bits.iter_mut().zip(trial.leg_bits) {
                *sum += leg;
            }
        }
        let total = bits.iter().sum::<u64>().max(1) as f64;
        let mut row = vec![mode_name(mode).to_string()];
        row.extend(
            bits.iter()
                .map(|&b| format!("{:.1}%", 100.0 * b as f64 / total)),
        );
        legs.push_row(row);
    }
    legs.push_note(
        "share = the leg's modelled bits over all legs' (AeNodeStats::leg_bits, exported \
         as ae_leg_bits_total{leg}), summed over trials and over every node's current \
         incarnation: warmup included, a crashed incarnation's tally lost with it",
    );
    vec![vitro, population, legs]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merkle_steady_state_is_sublinear_and_dense_is_linear() {
        // The acceptance criterion on the in-vitro measurement: dense
        // per-exchange bytes grow ~10× per decade of n; merkle k=0 bytes
        // are constant and k=64 bytes grow only with log n.
        let dense: Vec<usize> = VITRO_SIZES
            .iter()
            .map(|&n| vitro_cost(n, DigestMode::Dense, 0).total_bytes)
            .collect();
        assert!(
            dense[1] > dense[0] * 8 && dense[2] > dense[1] * 8,
            "dense digests are linear in n: {dense:?}"
        );
        let merkle: Vec<usize> = VITRO_SIZES
            .iter()
            .map(|&n| vitro_cost(n, DigestMode::Merkle, 0).total_bytes)
            .collect();
        assert!(
            merkle.iter().all(|&b| b == merkle[0]),
            "identical replicas cost one constant root exchange: {merkle:?}"
        );
        let merkle_stale: Vec<usize> = VITRO_SIZES
            .iter()
            .map(|&n| vitro_cost(n, DigestMode::Merkle, 1).total_bytes)
            .collect();
        assert!(
            merkle_stale[2] < merkle_stale[0] * 4,
            "one stale entry costs O(log n), not O(n): {merkle_stale:?}"
        );
        // And the deployability cliff: at n = 10⁵ the widest dense leg
        // exceeds a datagram, the widest merkle leg does not.
        assert!(vitro_cost(100_000, DigestMode::Dense, 64).max_msg_bytes > MAX_PAYLOAD_BYTES);
        assert!(vitro_cost(100_000, DigestMode::Merkle, 64).max_msg_bytes <= MAX_PAYLOAD_BYTES);
    }

    #[test]
    fn acceptance_population_run_cuts_bytes_and_keeps_recovery() {
        // One grid point of the population table, at an n where the O(n)
        // digest tax dominates the dense rows (at very small n the
        // irreducible churn-repair data movement — which both modes pay —
        // blurs the ratio): merkle steady-state bytes collapse, with
        // rejoin recovery still within a few ticks in both modes.
        // Stamp runs shrank dense digest pairs from `id_bits + 32` bits to
        // `id_bits` plus a code as wide as the stamps' spread: dense
        // 10 415 → 6 719 B/node/tick here, merkle 1 783 → 1 531, so the
        // ratio fell from 5.8× to 4.4×. It still grows with n.
        let n = 1 << 10;
        let dense = population_trial(n, DigestMode::Dense, 17, 48);
        let merkle = population_trial(n, DigestMode::Merkle, 17, 48);
        assert!(
            merkle.steady_bytes_node_tick * 4.0 < dense.steady_bytes_node_tick,
            "merkle steady bytes must collapse (merkle {} vs dense {})",
            merkle.steady_bytes_node_tick,
            dense.steady_bytes_node_tick
        );
        for (name, t) in [("dense", &dense), ("merkle", &merkle)] {
            assert!(t.rejoins > 0.0, "{name}: churn produced rejoins");
            assert!(
                t.recovered_fraction > 0.99,
                "{name}: recovered = {}",
                t.recovered_fraction
            );
            assert!(
                t.mean_recovery_ticks <= 6.0,
                "{name}: mean recovery {} ticks",
                t.mean_recovery_ticks
            );
            assert!(
                t.max_recovery_ticks <= RECOVERY_BOUND_TICKS as f64,
                "{name}: max recovery {} ticks",
                t.max_recovery_ticks
            );
        }
    }

    #[test]
    fn trials_are_deterministic() {
        let fingerprint = |t: &TrialOutcome| {
            (
                t.steady_bytes_node_tick.to_bits(),
                t.msgs_node_tick.to_bits(),
                t.rejoins.to_bits(),
                t.mean_recovery_ticks.to_bits(),
            )
        };
        let a = population_trial(1 << 7, DigestMode::Merkle, 5, 40);
        let b = population_trial(1 << 7, DigestMode::Merkle, 5, 40);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn quick_tables_render() {
        let tables = run(&ExperimentOptions {
            quick: true,
            markdown: false,
        });
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[0].num_rows(), VITRO_SIZES.len() * 2);
        assert_eq!(tables[1].num_rows(), 2);
        assert_eq!(tables[2].num_rows(), 2);
    }
}
