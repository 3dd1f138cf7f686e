//! Deterministic, seedable fault injection for simulated devices.
//!
//! A [`FaultPlan`] is a list of rules consulted by the disk models at
//! service time. Every decision is a pure function of the plan's seed,
//! the device identity, the request's sector range and direction, and a
//! per-rule occurrence counter — so a failing run reproduces exactly
//! from `(seed, workload)`, with no wall-clock or global randomness.
//!
//! Rule vocabulary (mirroring the failure modes real disks exhibit):
//!
//! * **Transient EIO** — a request fails this time but would succeed if
//!   retried. Probabilistic ([`FaultPlan::transient_eio`]) or pinned to
//!   the first N accesses of one sector ([`FaultPlan::transient_eio_at`]).
//! * **Permanent bad block** — every request covering the sector fails
//!   ([`FaultPlan::bad_block`]). Retries cannot help; the caller must
//!   abort and report a partial transfer.
//! * **Torn write** — the first write covering the sector persists only
//!   a prefix of the request before erroring ([`FaultPlan::torn_write`]),
//!   modelling power loss mid-transfer.
//! * **Latency spike** — the request succeeds but takes extra service
//!   time ([`FaultPlan::latency_spike`]), modelling thermal recalibration
//!   or internal retry loops.

use ksim::{Dur, IdMap};

/// Which I/O direction a fault rule applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOp {
    /// Reads only.
    Read,
    /// Writes only.
    Write,
    /// Both directions.
    Both,
}

impl FaultOp {
    fn matches(self, write: bool) -> bool {
        match self {
            FaultOp::Read => !write,
            FaultOp::Write => write,
            FaultOp::Both => true,
        }
    }
}

#[derive(Clone, Debug)]
enum Rule {
    TransientEio {
        op: FaultOp,
        rate_ppm: u32,
    },
    TransientEioAt {
        op: FaultOp,
        sector: u64,
        times: u64,
    },
    BadBlock {
        op: FaultOp,
        sector: u64,
    },
    TornWrite {
        sector: u64,
        keep_sectors: u64,
    },
    LatencySpike {
        op: FaultOp,
        rate_ppm: u32,
        extra: Dur,
    },
}

/// What the plan decided for one device request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultDecision {
    /// The request fails with an I/O error.
    pub error: bool,
    /// Extra service latency to add (independent of `error`).
    pub extra_latency: Dur,
    /// For torn writes: how many *leading sectors of this request* hit
    /// the medium before the error. `None` for clean or fully-failed
    /// requests.
    pub torn_sectors: Option<u64>,
}

impl FaultDecision {
    /// A decision that injects nothing.
    pub const CLEAN: FaultDecision = FaultDecision {
        error: false,
        extra_latency: Dur::ZERO,
        torn_sectors: None,
    };
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn rate_ppm(rate: f64) -> u32 {
    assert!((0.0..=1.0).contains(&rate), "fault rate out of [0,1]");
    (rate * 1_000_000.0).round() as u32
}

/// A deterministic fault schedule for one device.
///
/// Build with [`FaultPlan::new`], chain rule constructors, then install
/// on a disk model. Each request is matched against every rule; the
/// decisions combine (latency spikes stack with errors). Probabilistic
/// rules draw from a hash of `(seed, device, sector, op, occurrence)`,
/// so re-running the same workload replays the same failures.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    device: u64,
    rules: Vec<Rule>,
    /// Per-rule count of matching requests seen so far, keying the
    /// nth-occurrence semantics of every rule kind.
    occurrences: IdMap<usize, u64>,
    injected: u64,
}

impl FaultPlan {
    /// A plan with no rules, drawing from `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            device: 0,
            rules: Vec::new(),
            occurrences: IdMap::default(),
            injected: 0,
        }
    }

    /// Sets the device identity mixed into every probability draw, so
    /// two disks sharing one seed still fail independently.
    pub fn device(mut self, device: u64) -> FaultPlan {
        self.device = device;
        self
    }

    /// Each matching request independently fails with probability
    /// `rate` (transient: an immediate retry of the same sector may
    /// succeed).
    pub fn transient_eio(mut self, op: FaultOp, rate: f64) -> FaultPlan {
        self.rules.push(Rule::TransientEio {
            op,
            rate_ppm: rate_ppm(rate),
        });
        self
    }

    /// The first `times` requests covering `sector` fail; later ones
    /// succeed. The deterministic transient-then-recovery rule.
    pub fn transient_eio_at(mut self, op: FaultOp, sector: u64, times: u64) -> FaultPlan {
        self.rules.push(Rule::TransientEioAt { op, sector, times });
        self
    }

    /// Every request covering `sector` fails, forever.
    pub fn bad_block(mut self, op: FaultOp, sector: u64) -> FaultPlan {
        self.rules.push(Rule::BadBlock { op, sector });
        self
    }

    /// The first write covering `sector` persists only the request's
    /// first `keep_sectors` sectors, then fails; later writes succeed.
    pub fn torn_write(mut self, sector: u64, keep_sectors: u64) -> FaultPlan {
        self.rules.push(Rule::TornWrite {
            sector,
            keep_sectors,
        });
        self
    }

    /// Each matching request independently takes `extra` additional
    /// service time with probability `rate`.
    pub fn latency_spike(mut self, op: FaultOp, rate: f64, extra: Dur) -> FaultPlan {
        self.rules.push(Rule::LatencySpike {
            op,
            rate_ppm: rate_ppm(rate),
            extra,
        });
        self
    }

    /// Total faults injected so far (errors, tears, and spikes).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    fn draw(&self, rule: usize, sector: u64, write: bool, occ: u64) -> u64 {
        let mut h = self.seed;
        for v in [self.device, rule as u64, sector, write as u64, occ] {
            h = splitmix64(h ^ v);
        }
        h
    }

    /// Decides the fate of one request covering sectors
    /// `[sector, sector + nsec)`. Mutates occurrence counters, so call
    /// exactly once per device request.
    pub fn decide(&mut self, write: bool, sector: u64, nsec: u64) -> FaultDecision {
        let covers = |s: u64| s >= sector && s < sector + nsec;
        let mut d = FaultDecision::CLEAN;
        for i in 0..self.rules.len() {
            let rule = self.rules[i].clone();
            let matched = match rule {
                Rule::TransientEio { op, rate_ppm } => {
                    if !op.matches(write) {
                        continue;
                    }
                    let occ = self.bump_occ(i);
                    self.draw(i, sector, write, occ) % 1_000_000 < rate_ppm as u64 && {
                        d.error = true;
                        true
                    }
                }
                Rule::TransientEioAt {
                    op,
                    sector: s,
                    times,
                } => {
                    if !op.matches(write) || !covers(s) {
                        continue;
                    }
                    let occ = self.bump_occ(i);
                    occ < times && {
                        d.error = true;
                        true
                    }
                }
                Rule::BadBlock { op, sector: s } => {
                    op.matches(write) && covers(s) && {
                        d.error = true;
                        true
                    }
                }
                Rule::TornWrite {
                    sector: s,
                    keep_sectors,
                } => {
                    if !write || !covers(s) {
                        continue;
                    }
                    let occ = self.bump_occ(i);
                    occ == 0 && {
                        d.error = true;
                        d.torn_sectors = Some(keep_sectors.min(nsec));
                        true
                    }
                }
                Rule::LatencySpike {
                    op,
                    rate_ppm,
                    extra,
                } => {
                    if !op.matches(write) {
                        continue;
                    }
                    let occ = self.bump_occ(i);
                    self.draw(i, sector, write, occ) % 1_000_000 < rate_ppm as u64 && {
                        d.extra_latency += extra;
                        true
                    }
                }
            };
            if matched {
                self.injected += 1;
            }
        }
        d
    }

    fn bump_occ(&mut self, rule: usize) -> u64 {
        let c = self.occurrences.entry(rule).or_insert(0);
        let occ = *c;
        *c += 1;
        occ
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_clean() {
        let mut p = FaultPlan::new(1);
        assert_eq!(p.decide(false, 0, 16), FaultDecision::CLEAN);
        assert_eq!(p.injected(), 0);
    }

    #[test]
    fn transient_eio_at_fails_exactly_n_times_then_recovers() {
        let mut p = FaultPlan::new(7).transient_eio_at(FaultOp::Read, 32, 2);
        assert!(p.decide(false, 32, 16).error);
        assert!(p.decide(false, 16, 32).error); // range covers sector 32
        assert!(!p.decide(false, 32, 16).error);
        assert!(!p.decide(false, 0, 16).error); // never matched at all
        assert!(!p.decide(true, 32, 16).error); // wrong direction
        assert_eq!(p.injected(), 2);
    }

    #[test]
    fn bad_block_is_permanent_and_direction_scoped() {
        let mut p = FaultPlan::new(7).bad_block(FaultOp::Write, 8);
        for _ in 0..5 {
            assert!(p.decide(true, 0, 16).error);
        }
        assert!(!p.decide(false, 0, 16).error);
    }

    #[test]
    fn torn_write_tears_once_with_bounded_prefix() {
        let mut p = FaultPlan::new(7).torn_write(4, 3);
        let d = p.decide(true, 0, 16);
        assert!(d.error);
        assert_eq!(d.torn_sectors, Some(3));
        assert_eq!(p.decide(true, 0, 16), FaultDecision::CLEAN);
        // The prefix is clamped to the request size.
        let mut p = FaultPlan::new(7).torn_write(0, 99);
        assert_eq!(p.decide(true, 0, 2).torn_sectors, Some(2));
    }

    #[test]
    fn probabilistic_rules_are_deterministic_per_seed() {
        let run = |seed| {
            let mut p = FaultPlan::new(seed)
                .transient_eio(FaultOp::Read, 0.3)
                .latency_spike(FaultOp::Both, 0.2, Dur::from_us(500));
            (0..64)
                .map(|i| {
                    let d = p.decide(i % 2 == 0, i * 16, 16);
                    (d.error, d.extra_latency)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn rate_one_always_fires_and_rate_zero_never_does() {
        let mut p = FaultPlan::new(9).transient_eio(FaultOp::Both, 1.0);
        assert!(p.decide(false, 0, 16).error);
        assert!(p.decide(true, 800, 16).error);
        let mut p = FaultPlan::new(9).transient_eio(FaultOp::Both, 0.0);
        assert!(!(0..100).any(|i| p.decide(false, i * 16, 16).error));
    }

    #[test]
    fn device_identity_decorrelates_draws() {
        let sample = |dev| {
            let mut p = FaultPlan::new(11)
                .device(dev)
                .transient_eio(FaultOp::Read, 0.5);
            (0..64)
                .map(|i| p.decide(false, i * 16, 16).error)
                .collect::<Vec<_>>()
        };
        assert_ne!(sample(0), sample(1));
    }
}
