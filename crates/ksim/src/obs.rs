//! Scale-aware request observability: sampled request spans with
//! tail retention, an SLO burn-rate monitor, and a flight recorder.
//!
//! At million-connection scale the bounded [`Trace`](crate::Trace) ring
//! either drops the events you needed or dominates the run, so request
//! telemetry cannot be trace-everything-or-nothing. This module keeps a
//! *resident* per-request pipeline with a bounded, measured cost:
//!
//! 1. **Stage** — every accepted connection opens a small scratch entry
//!    ([`note_accept`](Observability::note_accept)), because tail
//!    retention needs the accept timestamp even for requests that will
//!    not be kept.
//! 2. **Commit or discard at close** — when the connection closes
//!    ([`note_close`](Observability::note_close)) the scratch either
//!    becomes a committed [`ReqSpan`] or vanishes. A span commits iff
//!    it was **head-sampled** (a deterministic seeded keep-1-in-N draw
//!    on the connection id, decided at accept) or **tail-retained**
//!    (the request errored or exceeded the SLO latency target —
//!    decidable only at close, which is why staging exists). Nothing
//!    commits mid-flight.
//! 3. **Monitor** — every close feeds a sliding-window burn-rate
//!    computation over the end-to-end latency objective. Crossing the
//!    alert threshold emits a typed alert; the kernel reacts by
//!    freezing the last K trace-ring records into a [`FlightDump`].
//!
//! Both the sampling draw and the burn-rate arithmetic are pure integer
//! functions of the run's inputs, so committed-span sets, alerts, and
//! flight dumps replay byte-identically under a fixed seed.

use std::collections::VecDeque;

use crate::hash::IdMap;
use crate::hist::Hist;
use crate::json::Json;
use crate::time::{Dur, SimTime};
use crate::trace::TraceRecord;

/// The latency objective the burn-rate monitor guards.
#[derive(Clone, Copy, Debug)]
pub struct SloConfig {
    /// A request is a violation if its end-to-end latency exceeds this
    /// (or it errored).
    pub latency_target: Dur,
    /// Objective in thousandths: 999 means "99.9% of requests within
    /// target", leaving an error budget of 0.1%.
    pub objective_milli: u32,
    /// Sliding window over which the violation fraction is measured.
    pub window: Dur,
    /// Alert when the burn rate — (window violation fraction) divided
    /// by the error budget — reaches this many thousandths. 1000 means
    /// "burning exactly at budget"; the conventional fast-burn page is
    /// well above (e.g. 10_000 = 10x budget).
    pub burn_threshold_milli: u32,
    /// No alerts until the window holds at least this many requests
    /// (one early violation is not an incident).
    pub min_window_requests: u64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            latency_target: Dur::from_ms(500),
            objective_milli: 999,
            window: Dur::from_secs(10),
            burn_threshold_milli: 10_000,
            min_window_requests: 64,
        }
    }
}

/// Configuration for the resident observability layer.
#[derive(Clone, Copy, Debug)]
pub struct ObsConfig {
    /// Master switch: when false, every hook is a no-op costing one
    /// branch and no simulated CPU.
    pub enabled: bool,
    /// Head-sampling period: keep 1-in-N connections (1 = keep all).
    pub sample_period: u32,
    /// Seed for the deterministic per-connection sampling draw.
    pub seed: u64,
    /// The latency objective and alerting policy.
    pub slo: SloConfig,
    /// Committed-span ring capacity; the oldest span drops (and is
    /// counted) once full.
    pub committed_capacity: usize,
    /// Simulated CPU charged at accept to stage the scratch entry —
    /// paid by *every* connection, so it must stay far below the
    /// per-request service cost.
    pub stage_cost: Dur,
    /// Simulated CPU charged at close for a span that commits.
    pub commit_cost: Dur,
    /// Trace-ring records frozen into the flight dump on alert.
    pub flight_k: usize,
}

impl ObsConfig {
    /// The resident default: head-sample 1-in-64 with a generous SLO.
    pub fn on() -> Self {
        ObsConfig {
            enabled: true,
            sample_period: 64,
            seed: 0x0b5e11ab1e,
            slo: SloConfig::default(),
            committed_capacity: 65_536,
            stage_cost: Dur::from_us(2),
            commit_cost: Dur::from_us(60),
            flight_k: 256,
        }
    }

    /// Fully disabled: hooks cost one branch, no staging, no monitor.
    pub fn off() -> Self {
        ObsConfig {
            enabled: false,
            ..Self::on()
        }
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self::on()
    }
}

/// One committed request span: the accept→close lifetime of a served
/// connection, with its outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReqSpan {
    /// Connection (socket) id.
    pub conn: u32,
    /// When the server accepted the connection.
    pub accepted: SimTime,
    /// When the connection closed.
    pub closed: SimTime,
    /// End-to-end latency in nanoseconds (`closed - accepted`).
    pub latency_ns: u64,
    /// Payload bytes moved to the connection.
    pub bytes: u64,
    /// Errno name if the request failed.
    pub error: Option<&'static str>,
    /// True if latency exceeded the SLO target.
    pub over_slo: bool,
    /// True if the deterministic head-sampling draw kept this
    /// connection (false for spans that exist only via tail retention).
    pub head_sampled: bool,
    /// Trace sequence number at accept — the exemplar link from a
    /// histogram bucket back into the trace ring.
    pub accept_seq: u64,
}

/// A burn-rate alert: the monitor's window state at the crossing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SloAlertInfo {
    /// Burn rate in thousandths of the error budget.
    pub burn_milli: u32,
    /// Violations in the window.
    pub window_viol: u32,
    /// Requests in the window.
    pub window_req: u32,
}

/// What [`Observability::note_close`] decided.
#[derive(Clone, Copy, Debug, Default)]
pub struct CloseOutcome {
    /// Simulated CPU to charge the closing syscall.
    pub cost: Dur,
    /// Set when this close pushed the burn rate over the alert
    /// threshold (first crossing only; re-arms when the burn subsides).
    pub alert: Option<SloAlertInfo>,
}

/// Monotone counters the metrics snapshot surfaces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsCounters {
    /// Requests observed (staged connections that closed).
    pub requests: u64,
    /// Requests that errored or exceeded the SLO target.
    pub violations: u64,
    /// Requests that errored.
    pub errors: u64,
    /// Burn-rate alerts fired.
    pub alerts: u64,
    /// Peak simultaneously-staged scratch entries.
    pub staged_peak: u64,
    /// Spans committed (head-sampled or tail-retained).
    pub committed: u64,
    /// Committed spans kept by the head-sampling draw.
    pub head_sampled: u64,
    /// Committed spans kept only because they errored or ran over SLO.
    pub tail_retained: u64,
    /// Committed spans evicted from the bounded ring.
    pub spans_dropped: u64,
}

/// The last K trace-ring records, frozen at the moment an SLO alert
/// fired — the post-incident "what was the kernel doing" artifact.
#[derive(Clone, Debug)]
pub struct FlightDump {
    /// When the alert fired.
    pub at: SimTime,
    /// The monitor state that triggered the freeze.
    pub alert: SloAlertInfo,
    /// The frozen records, oldest first.
    pub records: Vec<TraceRecord>,
}

impl FlightDump {
    /// Serializes the dump as a deterministic artifact document
    /// (`FLIGHT_<workload>.json`): schema-versioned, with each record's
    /// stable event name and args.
    pub fn to_json(&self, workload: &str) -> Json {
        let recs: Vec<Json> = self
            .records
            .iter()
            .map(|r| {
                Json::obj()
                    .with("seq", Json::Num(r.seq as f64))
                    .with("at_ns", Json::Num(r.at.as_ns() as f64))
                    .with("name", Json::Str(r.ev.name().into()))
                    .with("args", r.ev.args_json())
            })
            .collect();
        Json::obj()
            .with("schema_version", Json::Num(1.0))
            .with("workload", Json::Str(workload.into()))
            .with("at_ns", Json::Num(self.at.as_ns() as f64))
            .with(
                "alert",
                Json::obj()
                    .with("burn_milli", Json::Num(self.alert.burn_milli as f64))
                    .with("window_viol", Json::Num(self.alert.window_viol as f64))
                    .with("window_req", Json::Num(self.alert.window_req as f64)),
            )
            .with("records", Json::Arr(recs))
    }
}

/// Scratch for one in-flight connection (stage → commit/discard).
#[derive(Clone, Copy, Debug)]
struct Staged {
    accepted: SimTime,
    bytes: u64,
    error: Option<&'static str>,
    head_sampled: bool,
    accept_seq: u64,
}

/// The resident observability pipeline; owned by the kernel, driven
/// from its accept / transfer-completion / close paths.
pub struct Observability {
    cfg: ObsConfig,
    staged: IdMap<u32, Staged>,
    committed: VecDeque<ReqSpan>,
    /// End-to-end request latency over *all* requests (the ground truth
    /// the sampled spans are audited against), with per-bucket
    /// exemplars linking tail buckets to their trace spans.
    latency: Hist,
    /// Sliding window of (close time, was-violation) request outcomes.
    window: VecDeque<(SimTime, bool)>,
    /// Alert hysteresis: armed fires once, then re-arms below threshold.
    alerting: bool,
    counters: ObsCounters,
    flight: Option<FlightDump>,
}

/// SplitMix64 — the deterministic per-connection sampling draw.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl Observability {
    /// Creates the pipeline; a disabled config makes every hook a no-op.
    pub fn new(cfg: ObsConfig) -> Self {
        Observability {
            cfg,
            staged: IdMap::default(),
            committed: VecDeque::new(),
            latency: Hist::new(),
            window: VecDeque::new(),
            alerting: false,
            counters: ObsCounters::default(),
            flight: None,
        }
    }

    /// The active configuration.
    pub fn cfg(&self) -> &ObsConfig {
        &self.cfg
    }

    /// The deterministic head-sampling draw for a connection id: keep
    /// 1-in-`sample_period`, decided entirely by (seed, conn).
    pub fn head_keeps(&self, conn: u32) -> bool {
        let period = self.cfg.sample_period.max(1) as u64;
        splitmix64(self.cfg.seed ^ conn as u64).is_multiple_of(period)
    }

    /// Stage a scratch entry for an accepted connection. Returns the
    /// simulated CPU to charge the accept path.
    pub fn note_accept(&mut self, now: SimTime, conn: u32, trace_seq: u64) -> Dur {
        if !self.cfg.enabled {
            return Dur::ZERO;
        }
        self.staged.insert(
            conn,
            Staged {
                accepted: now,
                bytes: 0,
                error: None,
                head_sampled: self.head_keeps(conn),
                accept_seq: trace_seq,
            },
        );
        self.counters.staged_peak = self.counters.staged_peak.max(self.staged.len() as u64);
        self.cfg.stage_cost
    }

    /// Accumulate a completed transfer onto the staged span: bytes
    /// moved toward the connection and, if it failed, the errno. The
    /// first error wins (later retries do not clear it).
    pub fn note_transfer(&mut self, conn: u32, bytes: u64, error: Option<&'static str>) {
        if !self.cfg.enabled {
            return;
        }
        if let Some(s) = self.staged.get_mut(&conn) {
            s.bytes += bytes;
            if s.error.is_none() {
                s.error = error;
            }
        }
    }

    /// Close the connection's span: commit or discard the scratch, feed
    /// the SLO monitor, and report the CPU cost plus any alert. A conn
    /// that was never staged (client sockets, listeners) is a no-op.
    pub fn note_close(&mut self, now: SimTime, conn: u32) -> CloseOutcome {
        if !self.cfg.enabled {
            return CloseOutcome::default();
        }
        let Some(s) = self.staged.remove(&conn) else {
            return CloseOutcome::default();
        };
        let latency_ns = now.since(s.accepted).as_ns();
        let over_slo = latency_ns > self.cfg.slo.latency_target.as_ns();
        let violation = over_slo || s.error.is_some();

        self.counters.requests += 1;
        if violation {
            self.counters.violations += 1;
        }
        if s.error.is_some() {
            self.counters.errors += 1;
        }
        self.latency
            .record_with_exemplar(latency_ns, s.accept_seq, conn);

        // Commit iff head-sampled or tail-retained; never mid-flight.
        let mut cost = Dur::ZERO;
        if s.head_sampled || violation {
            if self.committed.len() == self.cfg.committed_capacity {
                self.committed.pop_front();
                self.counters.spans_dropped += 1;
            }
            self.committed.push_back(ReqSpan {
                conn,
                accepted: s.accepted,
                closed: now,
                latency_ns,
                bytes: s.bytes,
                error: s.error,
                over_slo,
                head_sampled: s.head_sampled,
                accept_seq: s.accept_seq,
            });
            self.counters.committed += 1;
            if s.head_sampled {
                self.counters.head_sampled += 1;
            } else {
                self.counters.tail_retained += 1;
            }
            cost = self.cfg.commit_cost;
        }

        CloseOutcome {
            cost,
            alert: self.monitor(now, violation),
        }
    }

    /// Slide the window, recompute the burn rate, and fire on a
    /// threshold crossing (with hysteresis: one alert per excursion).
    fn monitor(&mut self, now: SimTime, violation: bool) -> Option<SloAlertInfo> {
        self.window.push_back((now, violation));
        while let Some(&(t, _)) = self.window.front() {
            if now.since(t) > self.cfg.slo.window {
                self.window.pop_front();
            } else {
                break;
            }
        }
        let req = self.window.len() as u64;
        let viol = self.window.iter().filter(|&&(_, v)| v).count() as u64;
        let budget_milli = (1000 - self.cfg.slo.objective_milli.min(999)) as u64;
        let burn_milli = (viol * 1_000_000) / (req.max(1) * budget_milli);
        let over = req >= self.cfg.slo.min_window_requests
            && burn_milli >= self.cfg.slo.burn_threshold_milli as u64;
        if !over {
            self.alerting = false;
            return None;
        }
        if self.alerting {
            return None;
        }
        self.alerting = true;
        self.counters.alerts += 1;
        Some(SloAlertInfo {
            burn_milli: burn_milli.min(u32::MAX as u64) as u32,
            window_viol: viol.min(u32::MAX as u64) as u32,
            window_req: req.min(u32::MAX as u64) as u32,
        })
    }

    /// Freeze a flight dump (first alert wins; later alerts keep the
    /// original freeze).
    pub fn freeze_flight(&mut self, at: SimTime, alert: SloAlertInfo, records: Vec<TraceRecord>) {
        if self.flight.is_none() {
            self.flight = Some(FlightDump { at, alert, records });
        }
    }

    /// The frozen flight dump, if an alert fired.
    pub fn flight(&self) -> Option<&FlightDump> {
        self.flight.as_ref()
    }

    /// The committed spans, oldest first.
    pub fn committed_spans(&self) -> impl Iterator<Item = &ReqSpan> + '_ {
        self.committed.iter()
    }

    /// Scratch entries currently staged (in-flight connections).
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// The full end-to-end request latency histogram (every request,
    /// sampled or not), with exemplars.
    pub fn latency(&self) -> &Hist {
        &self.latency
    }

    /// Monotone counter snapshot.
    pub fn counters(&self) -> ObsCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + Dur::from_us(us)
    }

    fn keep_all() -> ObsConfig {
        ObsConfig {
            sample_period: 1,
            ..ObsConfig::on()
        }
    }

    #[test]
    fn disabled_hooks_cost_nothing_and_stage_nothing() {
        let mut o = Observability::new(ObsConfig::off());
        assert_eq!(o.note_accept(t(0), 1, 0), Dur::ZERO);
        o.note_transfer(1, 100, None);
        let out = o.note_close(t(10), 1);
        assert_eq!(out.cost, Dur::ZERO);
        assert!(out.alert.is_none());
        assert_eq!(o.counters(), ObsCounters::default());
        assert_eq!(o.committed_spans().count(), 0);
    }

    #[test]
    fn span_stages_accumulates_and_commits_at_close() {
        let mut o = Observability::new(keep_all());
        let cost = o.note_accept(t(0), 7, 42);
        assert_eq!(cost, Dur::from_us(2));
        assert_eq!(o.staged_len(), 1);
        o.note_transfer(7, 4096, None);
        o.note_transfer(7, 4096, None);
        // Nothing commits mid-flight.
        assert_eq!(o.committed_spans().count(), 0);
        let out = o.note_close(t(1500), 7);
        assert_eq!(out.cost, Dur::from_us(60));
        assert_eq!(o.staged_len(), 0);
        let spans: Vec<_> = o.committed_spans().collect();
        assert_eq!(spans.len(), 1);
        let s = spans[0];
        assert_eq!(
            (s.conn, s.bytes, s.latency_ns, s.accept_seq),
            (7, 8192, 1_500_000, 42)
        );
        assert!(s.head_sampled && !s.over_slo && s.error.is_none());
        // The full hist saw it, with the exemplar pointing back.
        assert_eq!(o.latency().count(), 1);
        let e = o.latency().exemplar_at(0.999).unwrap();
        assert_eq!((e.conn, e.trace_seq), (7, 42));
    }

    #[test]
    fn unsampled_clean_span_discards_but_still_counts() {
        let mut o = Observability::new(ObsConfig {
            sample_period: u32::MAX, // head-sampling keeps ~nothing
            ..ObsConfig::on()
        });
        for conn in 0..50u32 {
            o.note_accept(t(conn as u64), conn, 0);
            let out = o.note_close(t(conn as u64 + 10), conn);
            assert_eq!(out.cost, Dur::ZERO, "discard must not charge commit");
        }
        let c = o.counters();
        assert_eq!(c.requests, 50, "every request feeds the monitor");
        assert_eq!(o.latency().count(), 50, "full hist sees every request");
        assert_eq!(c.committed, o.committed_spans().count() as u64);
        assert_eq!(c.head_sampled, c.committed, "no violations to retain");
    }

    #[test]
    fn error_and_over_slo_spans_are_tail_retained_at_any_rate() {
        let mut o = Observability::new(ObsConfig {
            sample_period: u32::MAX,
            ..ObsConfig::on()
        });
        // An errored request: fast, but it failed.
        o.note_accept(t(0), 1, 0);
        o.note_transfer(1, 100, Some("EIO"));
        o.note_close(t(5), 1);
        // An over-SLO request: clean bytes, too slow (target 500ms).
        o.note_accept(t(10), 2, 0);
        o.note_transfer(2, 8192, None);
        o.note_close(t(10 + 600_000), 2);
        let spans: Vec<_> = o.committed_spans().cloned().collect();
        assert_eq!(spans.len(), 2, "both violations commit");
        assert_eq!(spans[0].error, Some("EIO"));
        assert!(!spans[0].head_sampled && !spans[0].over_slo);
        assert!(spans[1].over_slo && spans[1].error.is_none());
        let c = o.counters();
        assert_eq!((c.violations, c.errors, c.tail_retained), (2, 1, 2));
    }

    #[test]
    fn head_sampling_is_deterministic_and_near_rate() {
        let o = Observability::new(ObsConfig::on()); // 1-in-64
        let kept: Vec<u32> = (0..64_000u32).filter(|&c| o.head_keeps(c)).collect();
        let o2 = Observability::new(ObsConfig::on());
        let kept2: Vec<u32> = (0..64_000u32).filter(|&c| o2.head_keeps(c)).collect();
        assert_eq!(kept, kept2, "same seed, same draw");
        // ~1000 expected; a fair hash stays well within 3x bounds.
        assert!(
            (500..=2000).contains(&kept.len()),
            "1-in-64 draw kept {} of 64000",
            kept.len()
        );
        // A different seed keeps a different set.
        let o3 = Observability::new(ObsConfig {
            seed: 1234,
            ..ObsConfig::on()
        });
        let kept3: Vec<u32> = (0..64_000u32).filter(|&c| o3.head_keeps(c)).collect();
        assert_ne!(kept, kept3);
    }

    #[test]
    fn burn_rate_alert_fires_once_per_excursion_and_freezes_flight() {
        let mut o = Observability::new(ObsConfig {
            sample_period: 1,
            slo: SloConfig {
                latency_target: Dur::from_us(100),
                objective_milli: 999,
                window: Dur::from_secs(10),
                burn_threshold_milli: 10_000,
                min_window_requests: 8,
            },
            ..ObsConfig::on()
        });
        // 7 fast requests: under min_window_requests, no alert.
        for conn in 0..7u32 {
            o.note_accept(t(conn as u64 * 10), conn, 0);
            let out = o.note_close(t(conn as u64 * 10 + 5), conn);
            assert!(out.alert.is_none());
        }
        // The 8th is over SLO: window = 8 reqs / 1 viol -> burn 125x.
        o.note_accept(t(100), 100, 0);
        let out = o.note_close(t(100 + 200), 100);
        let alert = out.alert.expect("threshold crossing fires");
        assert_eq!(alert.window_req, 8);
        assert_eq!(alert.window_viol, 1);
        assert_eq!(alert.burn_milli, 125_000);
        // Still burning: no re-fire while the excursion lasts.
        o.note_accept(t(300), 101, 0);
        let again = o.note_close(t(300 + 200), 101);
        assert!(again.alert.is_none(), "hysteresis holds");
        assert_eq!(o.counters().alerts, 1);

        // The kernel freezes flight on the first alert; later freezes
        // are ignored.
        o.freeze_flight(t(300), alert, Vec::new());
        o.freeze_flight(
            t(400),
            SloAlertInfo {
                burn_milli: 1,
                window_viol: 1,
                window_req: 1,
            },
            Vec::new(),
        );
        assert_eq!(o.flight().unwrap().at, t(300));
        assert_eq!(o.flight().unwrap().alert, alert);
    }

    #[test]
    fn committed_ring_bounds_and_counts_drops() {
        let mut o = Observability::new(ObsConfig {
            sample_period: 1,
            committed_capacity: 4,
            ..ObsConfig::on()
        });
        for conn in 0..10u32 {
            o.note_accept(t(conn as u64), conn, 0);
            o.note_close(t(conn as u64 + 1), conn);
        }
        assert_eq!(o.committed_spans().count(), 4);
        let c = o.counters();
        assert_eq!(c.committed, 10);
        assert_eq!(c.spans_dropped, 6);
        // Oldest dropped: the survivors are the newest four.
        let conns: Vec<u32> = o.committed_spans().map(|s| s.conn).collect();
        assert_eq!(conns, vec![6, 7, 8, 9]);
    }

    #[test]
    fn flight_dump_json_is_schema_versioned_and_parses() {
        let alert = SloAlertInfo {
            burn_milli: 125_000,
            window_viol: 1,
            window_req: 8,
        };
        let records = vec![TraceRecord {
            seq: 9,
            at: t(5),
            ev: crate::trace::TraceEvent::SloAlert {
                burn_milli: 125_000,
                window_viol: 1,
                window_req: 8,
            },
        }];
        let dump = FlightDump {
            at: t(5),
            alert,
            records,
        };
        let doc = dump.to_json("server");
        let parsed = Json::parse(&doc.render()).expect("flight json parses");
        assert_eq!(parsed, doc);
        assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some("server"));
        let recs = doc.get("records").and_then(Json::as_arr).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(
            recs[0].get("name").and_then(Json::as_str),
            Some("slo.alert")
        );
    }
}
