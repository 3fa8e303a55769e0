//! A discrete-event queueing simulator of one search server.
//!
//! Validates the analytic [`crate::LatencyModel`]: requests arrive
//! Poisson, service times are exponential, and up to `threads` requests
//! run concurrently (the paper's Lucene setup "uses more threads (up to
//! 12) with higher load"). Harvested cores reduce the thread pool.

use std::collections::VecDeque;

use harvest_sim::engine::EventQueue;
use harvest_sim::metrics::{Percentiles, SortedSamples};
use harvest_sim::obs::{HistogramId, Recorder, StateTrackId};
use harvest_sim::{dist, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One simulated search server.
#[derive(Debug, Clone)]
pub struct SearchServer {
    /// Worker threads (cores) available to the service.
    pub threads: u32,
    /// Mean service time of one query.
    pub mean_service: SimDuration,
}

/// Measured latency distribution from a [`SearchServer`] run.
///
/// The samples are frozen (sorted once at the end of the run), so every
/// quantile read is `&self` — callers can share a run's stats without
/// re-sorting or needing mutable access.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Completed requests.
    pub completed: u64,
    /// Response-time samples (sojourn time: queueing + service), sorted.
    samples: SortedSamples,
}

impl ServiceStats {
    /// The p99 response time in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.samples.p99().unwrap_or(0.0) * 1_000.0
    }

    /// The mean response time in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.samples.mean().unwrap_or(0.0) * 1_000.0
    }
}

enum Ev {
    Arrival,
    Departure { arrived: SimTime, req: u64 },
}

/// Metric ids registered when a run's recorder is on.
struct ServiceObs {
    /// Wait-state track `service/request` (entity = arrival index):
    /// `queued` from arrival to dispatch — zero-length when a thread
    /// is free — then `running` until departure.
    states: StateTrackId,
    sojourn_secs: HistogramId,
}

impl SearchServer {
    /// A 12-thread server with a 100 ms mean query (Lucene-scale).
    pub fn lucene_like() -> Self {
        SearchServer {
            threads: 12,
            mean_service: SimDuration::from_millis(100),
        }
    }

    /// Runs the server at offered utilization `rho` (fraction of total
    /// thread-seconds demanded) for `n_requests` requests, recording
    /// into `rec` ([`Recorder::off`] records nothing): each request's
    /// wait states land on the `service/request` state track (see
    /// `ServiceObs::states`) and sojourn times are sampled into
    /// `service/sojourn_secs`. Recording never changes the run: the
    /// returned stats are identical with the recorder on or off
    /// (pinned by tests), and nothing is printed.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is not positive or the server has no threads.
    pub fn run(&self, rho: f64, n_requests: u64, seed: u64, rec: &mut Recorder) -> ServiceStats {
        assert!(rho > 0.0, "offered load must be positive");
        assert!(self.threads > 0, "server has no threads");
        let mut rng = StdRng::seed_from_u64(seed);
        let service_rate = 1.0 / self.mean_service.as_secs_f64();
        let arrival_rate = rho * self.threads as f64 * service_rate;
        let obs = rec.is_on().then(|| ServiceObs {
            states: rec.state_track("service/request"),
            sojourn_secs: rec.histogram("service/sojourn_secs"),
        });

        let mut queue: EventQueue<Ev> = EventQueue::new();
        let mut waiting: VecDeque<(SimTime, u64)> = VecDeque::new();
        let mut busy = 0u32;
        let mut completed = 0u64;
        let mut next_req = 0u64;
        let mut percentiles = Percentiles::new();

        let first = SimDuration::from_secs_f64(dist::exponential(&mut rng, arrival_rate));
        queue.push(SimTime::ZERO + first, Ev::Arrival);
        let mut arrivals_left = n_requests;

        while let Some((now, ev)) = queue.pop() {
            match ev {
                Ev::Arrival => {
                    arrivals_left -= 1;
                    if arrivals_left > 0 {
                        let gap =
                            SimDuration::from_secs_f64(dist::exponential(&mut rng, arrival_rate));
                        queue.push(now + gap, Ev::Arrival);
                    }
                    let req = next_req;
                    next_req += 1;
                    if let Some(obs) = &obs {
                        rec.state_enter(obs.states, req, "queued", now);
                    }
                    if busy < self.threads {
                        busy += 1;
                        if let Some(obs) = &obs {
                            rec.state_enter(obs.states, req, "running", now);
                        }
                        let s =
                            SimDuration::from_secs_f64(dist::exponential(&mut rng, service_rate));
                        queue.push(now + s, Ev::Departure { arrived: now, req });
                    } else {
                        waiting.push_back((now, req));
                    }
                }
                Ev::Departure { arrived, req } => {
                    completed += 1;
                    percentiles.push(now.since(arrived).as_secs_f64());
                    if let Some(obs) = &obs {
                        rec.observe(obs.sojourn_secs, now.since(arrived).as_secs_f64());
                        rec.state_exit(obs.states, req, now);
                    }
                    match waiting.pop_front() {
                        Some((arrived_next, req_next)) => {
                            if let Some(obs) = &obs {
                                rec.state_enter(obs.states, req_next, "running", now);
                            }
                            let s = SimDuration::from_secs_f64(dist::exponential(
                                &mut rng,
                                service_rate,
                            ));
                            queue.push(
                                now + s,
                                Ev::Departure {
                                    arrived: arrived_next,
                                    req: req_next,
                                },
                            );
                        }
                        None => busy -= 1,
                    }
                }
            }
        }
        ServiceStats {
            completed,
            samples: percentiles.freeze(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completes_all_requests() {
        let s = SearchServer::lucene_like();
        let stats = s.run(0.3, 5_000, 1, &mut Recorder::off());
        assert_eq!(stats.completed, 5_000);
    }

    #[test]
    fn latency_grows_with_load() {
        let s = SearchServer::lucene_like();
        let lo = s.run(0.2, 20_000, 2, &mut Recorder::off());
        let mid = s.run(0.6, 20_000, 2, &mut Recorder::off());
        let hi = s.run(0.9, 20_000, 2, &mut Recorder::off());
        // Below saturation the p99 is dominated by the service-time tail
        // and is flat to within a millisecond at this sample count;
        // approaching saturation it must climb decisively.
        assert!(lo.p99_ms() <= mid.p99_ms() + 1.0);
        assert!(mid.p99_ms() < hi.p99_ms());
        assert!(lo.p99_ms() * 1.05 < hi.p99_ms());
    }

    #[test]
    fn fewer_threads_hurt_at_same_demand() {
        // The same *absolute* demand on fewer threads (harvest pressure).
        let full = SearchServer::lucene_like();
        let cut = SearchServer {
            threads: 6,
            mean_service: full.mean_service,
        };
        // Demand = 0.4 × 12 threads; on 6 threads that is rho = 0.8 —
        // noticeable, and near-saturation on 5 threads it blows up.
        let p_full = full.run(0.4, 20_000, 3, &mut Recorder::off());
        let p_cut = cut.run(0.8, 20_000, 3, &mut Recorder::off());
        assert!(
            p_cut.p99_ms() > p_full.p99_ms(),
            "cut {} vs full {}",
            p_cut.p99_ms(),
            p_full.p99_ms()
        );
        let squeezed = SearchServer {
            threads: 5,
            mean_service: full.mean_service,
        };
        let p_squeezed = squeezed.run(0.4 * 12.0 / 5.0, 20_000, 3, &mut Recorder::off());
        assert!(
            p_squeezed.p99_ms() > p_full.p99_ms() * 1.5,
            "squeezed {} vs full {}",
            p_squeezed.p99_ms(),
            p_full.p99_ms()
        );
    }

    #[test]
    fn analytic_model_matches_queueing_shape() {
        // The analytic model and the simulator should rank load levels
        // identically and keep low-load latency near the service floor.
        let s = SearchServer::lucene_like();
        let model = crate::LatencyModel {
            base_ms: 100.0,
            kappa: 0.6,
            cap_ms: 10_000.0,
            noise_ms: 0.0,
        };
        // Multi-server queues stay flat until near saturation, so probe
        // the congested regime where ordering is meaningful.
        let mut prev_sim = 0.0;
        let mut prev_model = 0.0;
        for rho in [0.5, 0.9, 0.97] {
            let sim = s.run(rho, 30_000, 4, &mut Recorder::off());
            let sim_p99 = sim.p99_ms();
            let model_p99 = model.p99_ms(rho, 0);
            assert!(sim_p99 > prev_sim && model_p99 > prev_model);
            prev_sim = sim_p99;
            prev_model = model_p99;
        }
    }

    #[test]
    fn recording_does_not_change_the_run() {
        let s = SearchServer::lucene_like();
        let plain = s.run(0.9, 5_000, 7, &mut Recorder::off());
        let mut rec = Recorder::new("svc");
        let recorded = s.run(0.9, 5_000, 7, &mut rec);
        assert_eq!(plain.completed, recorded.completed);
        assert_eq!(plain.p99_ms(), recorded.p99_ms());
        assert_eq!(plain.mean_ms(), recorded.mean_ms());
        let trace = rec.chrome_trace_json();
        assert!(trace.contains("service/request"), "state track exported");
    }

    #[test]
    fn low_load_latency_near_service_time() {
        let s = SearchServer::lucene_like();
        let stats = s.run(0.05, 20_000, 5, &mut Recorder::off());
        // Essentially no queueing: p99 ≈ p99 of Exp(100ms) ≈ 460 ms.
        let p99 = stats.p99_ms();
        assert!((300.0..600.0).contains(&p99), "p99 {p99}");
        assert!((stats.mean_ms() - 100.0).abs() < 10.0);
    }
}
