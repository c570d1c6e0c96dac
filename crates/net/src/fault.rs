//! Deterministic fault injection on the fabric.
//!
//! A [`FaultInjector`] holds a schedule of fault *windows* in virtual time:
//! flaky spells where verbs against a server fail with
//! [`NetError::Transient`], slow spells that add latency to every transfer,
//! link partitions between server pairs, and blackouts modelling a donor
//! crash→restart cycle ([`NetError::ServerDown`] for the window's length).
//!
//! Every per-operation decision (does *this* verb fail inside a flaky
//! window?) is a pure hash of `(seed, servers, offset, virtual now)` — no
//! shared mutable RNG — so the schedule replays byte-identically no matter
//! how workers interleave, which is what the chaos determinism test asserts.

use std::sync::Arc;

use remem_sim::fault::{FaultLog, FaultOrigin};
use remem_sim::rng::SimRng;
use remem_sim::{SimDuration, SimTime};

use crate::error::NetError;
use crate::server::ServerId;

#[derive(Debug, Clone)]
enum Spec {
    /// Verbs touching `server` fail with probability `prob`.
    Flaky {
        server: ServerId,
        from: SimTime,
        until: SimTime,
        prob: f64,
    },
    /// Verbs touching `server` take `extra` longer (congested donor).
    Slow {
        server: ServerId,
        from: SimTime,
        until: SimTime,
        extra: SimDuration,
    },
    /// All traffic between `a` and `b` fails (link partition).
    Partition {
        a: ServerId,
        b: ServerId,
        from: SimTime,
        until: SimTime,
    },
    /// `server` is unreachable — a crash→restart pair as one window.
    Blackout {
        server: ServerId,
        from: SimTime,
        until: SimTime,
    },
}

fn window(from: SimTime, until: SimTime, now: SimTime) -> bool {
    from <= now && now < until
}

/// A seeded, replayable fault schedule attached to a `Fabric`.
pub struct FaultInjector {
    seed: u64,
    specs: Vec<Spec>,
    log: Arc<FaultLog>,
}

impl FaultInjector {
    pub fn new(seed: u64) -> FaultInjector {
        FaultInjector::with_log(seed, Arc::new(FaultLog::new()))
    }

    pub fn with_log(seed: u64, log: Arc<FaultLog>) -> FaultInjector {
        FaultInjector {
            seed,
            specs: Vec::new(),
            log,
        }
    }

    /// The shared log injected and observed events are recorded into.
    pub fn log(&self) -> &Arc<FaultLog> {
        &self.log
    }

    pub fn flaky_window(
        mut self,
        server: ServerId,
        from: SimTime,
        until: SimTime,
        prob: f64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&prob));
        self.log.record(
            from,
            FaultOrigin::Injected,
            "net.flaky",
            format!("{server:?} p={prob} [{},{})", from.0, until.0),
        );
        self.specs.push(Spec::Flaky {
            server,
            from,
            until,
            prob,
        });
        self
    }

    pub(crate) fn slow_window(
        mut self,
        server: ServerId,
        from: SimTime,
        until: SimTime,
        extra: SimDuration,
    ) -> Self {
        self.log.record(
            from,
            FaultOrigin::Injected,
            "net.slow",
            format!("{server:?} +{extra} [{},{})", from.0, until.0),
        );
        self.specs.push(Spec::Slow {
            server,
            from,
            until,
            extra,
        });
        self
    }

    pub fn partition(mut self, a: ServerId, b: ServerId, from: SimTime, until: SimTime) -> Self {
        self.log.record(
            from,
            FaultOrigin::Injected,
            "net.partition",
            format!("{a:?}<->{b:?} [{},{})", from.0, until.0),
        );
        self.specs.push(Spec::Partition { a, b, from, until });
        self
    }

    pub fn blackout(mut self, server: ServerId, from: SimTime, until: SimTime) -> Self {
        self.log.record(
            from,
            FaultOrigin::Injected,
            "net.blackout",
            format!("{server:?} [{},{})", from.0, until.0),
        );
        self.specs.push(Spec::Blackout {
            server,
            from,
            until,
        });
        self
    }

    /// A randomized-but-seeded schedule over `[0, horizon)`: a couple of
    /// flaky windows and one slow window per server, drawn from `SimRng` so
    /// the same seed always yields the same schedule. Crash/restart cycles
    /// involve broker state and are driven by the caller (e.g.
    /// `Cluster::crash_memory_server`), not by the schedule.
    pub fn randomized(seed: u64, servers: &[ServerId], horizon: SimTime) -> FaultInjector {
        let log = Arc::new(FaultLog::new());
        FaultInjector::randomized_with_log(seed, servers, SimTime::ZERO, horizon, log)
    }

    /// [`FaultInjector::randomized`] over `[start, horizon)`, recording into
    /// a caller-shared log so injected events interleave with the
    /// observers' (rfile, buffer pool). Every window opens inside the
    /// interval and lasts 1–10 % of it, so one that opens late may run past
    /// `horizon`. From [`SimTime::ZERO`] this is the
    /// [`FaultInjector::randomized`] schedule; from any other start it is
    /// that schedule shifted by `start`.
    pub fn randomized_with_log(
        seed: u64,
        servers: &[ServerId],
        start: SimTime,
        horizon: SimTime,
        log: Arc<FaultLog>,
    ) -> FaultInjector {
        // audit: allow(seeded-rng, this IS the seeded chaos entry point - the schedule stream derives from the caller's seed)
        let mut rng = SimRng::seeded(seed);
        let mut inj = FaultInjector::with_log(seed, log);
        let span = horizon.0.saturating_sub(start.0).max(1);
        let open = |rng: &mut SimRng| SimTime(start.0 + rng.uniform(0, span));
        for &s in servers {
            for _ in 0..2 {
                let from = open(&mut rng);
                let len = rng.uniform(span / 100 + 1, span / 10 + 2);
                let prob = 0.2 + rng.unit() * 0.6;
                inj = inj.flaky_window(s, from, SimTime(from.0.saturating_add(len)), prob);
            }
            let from = open(&mut rng);
            let len = rng.uniform(span / 100 + 1, span / 10 + 2);
            let extra = SimDuration::from_micros(rng.uniform(20, 200));
            inj = inj.slow_window(s, from, SimTime(from.0.saturating_add(len)), extra);
        }
        inj
    }

    /// Pure decision hash: uniform in `[0, 1)` for this (op, instant).
    fn roll(&self, a: ServerId, b: ServerId, offset: u64, now: SimTime) -> f64 {
        let mut z = self
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(a.0 as u64 + 1))
            .wrapping_add(0x94d0_49bb_1331_11ebu64.wrapping_mul(b.0 as u64 + 1))
            .wrapping_add(offset.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(now.0);
        // SplitMix64 finalizer
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Evaluate the schedule for one verb at virtual `now`. Returns the
    /// extra latency to charge, or the injected failure.
    pub(crate) fn inject(
        &self,
        now: SimTime,
        local: ServerId,
        remote: ServerId,
        offset: u64,
    ) -> Result<SimDuration, NetError> {
        let mut extra = SimDuration::ZERO;
        for spec in &self.specs {
            match *spec {
                Spec::Blackout {
                    server,
                    from,
                    until,
                } if window(from, until, now) && (server == remote || server == local) => {
                    self.log.record(
                        now,
                        FaultOrigin::Observed,
                        "net.blackout",
                        format!("verb to {remote:?} hit blackout"),
                    );
                    return Err(NetError::ServerDown(server));
                }
                Spec::Partition { a, b, from, until }
                    if window(from, until, now)
                        && ((a == local && b == remote) || (a == remote && b == local)) =>
                {
                    self.log.record(
                        now,
                        FaultOrigin::Observed,
                        "net.partition",
                        format!("{local:?}<->{remote:?} partitioned"),
                    );
                    return Err(NetError::Transient {
                        server: remote,
                        reason: "link partition",
                    });
                }
                Spec::Flaky {
                    server,
                    from,
                    until,
                    prob,
                } if window(from, until, now)
                    && (server == remote || server == local)
                    && self.roll(local, remote, offset, now) < prob =>
                {
                    self.log.record(
                        now,
                        FaultOrigin::Observed,
                        "net.flaky",
                        format!("verb to {remote:?} @{offset} dropped"),
                    );
                    return Err(NetError::Transient {
                        server,
                        reason: "flaky window",
                    });
                }
                Spec::Slow {
                    server,
                    from,
                    until,
                    extra: e,
                } if window(from, until, now) && (server == remote || server == local) => {
                    extra += e;
                }
                _ => {}
            }
        }
        if !extra.is_zero() {
            self.log.record(
                now,
                FaultOrigin::Observed,
                "net.slow",
                format!("verb to {remote:?} delayed {extra}"),
            );
        }
        Ok(extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ServerId = ServerId(0);
    const B: ServerId = ServerId(1);
    const C: ServerId = ServerId(2);

    #[test]
    fn blackout_and_partition_windows_apply_only_inside() {
        let inj = FaultInjector::new(7)
            .blackout(B, SimTime(100), SimTime(200))
            .partition(A, C, SimTime(50), SimTime(60));
        assert!(inj.inject(SimTime(99), A, B, 0).is_ok());
        assert_eq!(
            inj.inject(SimTime(150), A, B, 0),
            Err(NetError::ServerDown(B))
        );
        assert!(
            inj.inject(SimTime(200), A, B, 0).is_ok(),
            "until is exclusive"
        );
        assert!(matches!(
            inj.inject(SimTime(55), A, C, 0),
            Err(NetError::Transient { server: C, .. })
        ));
        assert!(
            inj.inject(SimTime(55), A, B, 0).is_ok(),
            "partition is pairwise"
        );
    }

    #[test]
    fn flaky_decisions_are_pure_and_probabilistic() {
        let inj = FaultInjector::new(42).flaky_window(B, SimTime(0), SimTime(1 << 30), 0.5);
        let fails = (0..1000)
            .filter(|&i| inj.inject(SimTime(i * 997), A, B, i).is_err())
            .count();
        assert!(
            (300..700).contains(&fails),
            "p=0.5 gave {fails}/1000 failures"
        );
        // identical (time, offset) → identical outcome, every time
        for i in 0..100u64 {
            let x = inj.inject(SimTime(i), A, B, i).is_err();
            let y = inj.inject(SimTime(i), A, B, i).is_err();
            assert_eq!(x, y);
        }
    }

    #[test]
    fn slow_windows_accumulate_latency() {
        let inj = FaultInjector::new(1)
            .slow_window(B, SimTime(0), SimTime(100), SimDuration::from_micros(10))
            .slow_window(B, SimTime(0), SimTime(100), SimDuration::from_micros(5));
        assert_eq!(
            inj.inject(SimTime(50), A, B, 0),
            Ok(SimDuration::from_micros(15))
        );
        assert_eq!(inj.inject(SimTime(150), A, B, 0), Ok(SimDuration::ZERO));
    }

    /// The windows of a schedule as `(server, from, until)`.
    fn windows(inj: &FaultInjector) -> Vec<(ServerId, u64, u64)> {
        inj.specs
            .iter()
            .map(|spec| match *spec {
                Spec::Flaky {
                    server,
                    from,
                    until,
                    ..
                }
                | Spec::Slow {
                    server,
                    from,
                    until,
                    ..
                } => (server, from.0, until.0),
                _ => unreachable!("a randomized schedule draws flaky and slow windows only"),
            })
            .collect()
    }

    #[test]
    fn randomized_windows_open_inside_start_horizon() {
        let servers = [A, B, C];
        let (start, horizon) = (SimTime(6_400_000_000), SimTime(6_450_000_000));
        let log = Arc::new(FaultLog::new());
        let late = FaultInjector::randomized_with_log(9, &servers, start, horizon, log);
        let span = horizon.0 - start.0;
        let late = windows(&late);
        assert_eq!(late.len(), 3 * servers.len());
        for &(server, from, until) in &late {
            assert!(
                (start.0..horizon.0).contains(&from),
                "{server:?} window opens at {from}, outside [{}, {})",
                start.0,
                horizon.0
            );
            assert!(until > from && until - from <= span / 10 + 2);
        }
        // the same seed over [0, span) is the same schedule, unshifted
        let early = windows(&FaultInjector::randomized(9, &servers, SimTime(span)));
        let shifted: Vec<_> = early
            .iter()
            .map(|&(s, from, until)| (s, from + start.0, until + start.0))
            .collect();
        assert_eq!(late, shifted);
    }

    #[test]
    fn randomized_schedules_replay_identically() {
        let servers = [A, B, C];
        let x = FaultInjector::randomized(9, &servers, SimTime(1_000_000_000));
        let y = FaultInjector::randomized(9, &servers, SimTime(1_000_000_000));
        assert_eq!(x.log().fingerprint(), y.log().fingerprint());
        let z = FaultInjector::randomized(10, &servers, SimTime(1_000_000_000));
        assert_ne!(x.log().fingerprint(), z.log().fingerprint());
    }
}
