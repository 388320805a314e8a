//! Seeded multi-tenant traffic generation for the DES engine.
//!
//! A [`TrafficGen`] compiles per-tenant query mixes (vectors of
//! [`Workflow`] templates, typically built by `fusion-core`'s executors)
//! into an open-loop job stream for [`Engine::run_jobs`]: Poisson
//! arrivals at an offered rate (exponential inter-arrival times),
//! independent of completions, until a horizon.
//!
//! Tenants receive traffic shares drawn from a Zipf distribution
//! (`share_i ∝ 1/(i+1)^θ`): θ = 0 is uniform, θ ≈ 1 gives the heavy skew
//! typical of multi-tenant analytics front ends. Generation is fully
//! deterministic in [`TrafficConfig::seed`].
//!
//! [`Engine::run_jobs`]: crate::engine::Engine::run_jobs

use crate::engine::{Job, Workflow};
use crate::time::Nanos;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration for a [`TrafficGen`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// RNG seed: identical configs + seeds generate identical traffic.
    pub seed: u64,
    /// Number of tenants (≥ 1).
    pub tenants: usize,
    /// Zipf skew across tenants: 0.0 = uniform shares, larger = more
    /// skew toward tenant 0.
    pub zipf_theta: f64,
    /// Aggregate offered load across all tenants, in queries per second
    /// of virtual time.
    pub rate_qps: f64,
    /// Arrivals are generated until the horizon is reached.
    pub horizon: Nanos,
}

/// A seeded multi-tenant traffic generator (see module docs).
#[derive(Debug, Clone)]
pub struct TrafficGen {
    cfg: TrafficConfig,
    /// Cumulative tenant share distribution for sampling.
    cdf: Vec<f64>,
}

impl TrafficGen {
    /// Builds a generator.
    ///
    /// # Panics
    ///
    /// Panics when `tenants` is 0, the rate is non-positive or
    /// non-finite, or `zipf_theta` is negative.
    pub fn new(cfg: TrafficConfig) -> TrafficGen {
        assert!(cfg.tenants >= 1, "need at least one tenant");
        assert!(
            cfg.zipf_theta >= 0.0 && cfg.zipf_theta.is_finite(),
            "zipf_theta must be finite and non-negative"
        );
        assert!(
            cfg.rate_qps > 0.0 && cfg.rate_qps.is_finite(),
            "open-loop rate must be finite and positive"
        );
        let shares = zipf_shares(cfg.tenants, cfg.zipf_theta);
        let mut acc = 0.0;
        let cdf = shares
            .iter()
            .map(|s| {
                acc += s;
                acc
            })
            .collect();
        TrafficGen { cfg, cdf }
    }

    /// Per-tenant traffic shares (sum to 1.0, non-increasing in tenant
    /// id).
    pub fn shares(&self) -> Vec<f64> {
        let mut prev = 0.0;
        self.cdf
            .iter()
            .map(|&c| {
                let s = c - prev;
                prev = c;
                s
            })
            .collect()
    }

    /// Generates the job stream, in arrival order. `mixes[t]` is tenant
    /// `t`'s query mix: each job picks one template uniformly at random
    /// from its tenant's mix. A single shared mix (`mixes.len() == 1`)
    /// is used for all tenants. Each tenant is one client whose jobs
    /// number from 0.
    ///
    /// # Panics
    ///
    /// Panics when `mixes` is neither length 1 nor length `tenants`, or
    /// when any used mix is empty.
    pub fn generate(&self, mixes: &[Vec<Workflow>]) -> Vec<Job> {
        assert!(
            mixes.len() == 1 || mixes.len() == self.cfg.tenants,
            "need one shared mix or one per tenant"
        );
        let mut rng = SmallRng::seed_from_u64(self.cfg.seed ^ 0x7261_6666_6963); // "raffic"
        let horizon = self.cfg.horizon.as_secs_f64();
        let mut seq_of_tenant = vec![0usize; self.cfg.tenants];
        let mut jobs = Vec::new();
        let mut t = 0.0f64; // seconds
        loop {
            t += exponential(&mut rng, self.cfg.rate_qps);
            if t >= horizon {
                break;
            }
            let tenant = self.sample_tenant(&mut rng);
            let mix = &mixes[if mixes.len() == 1 { 0 } else { tenant }];
            assert!(!mix.is_empty(), "tenant {tenant} has an empty query mix");
            let workflow = mix[rng.gen_range(0..mix.len())].clone();
            let seq = seq_of_tenant[tenant];
            seq_of_tenant[tenant] += 1;
            jobs.push(Job {
                client: tenant,
                seq,
                tenant,
                arrival: Nanos::from_secs_f64(t),
                workflow,
            });
        }
        jobs
    }

    fn sample_tenant(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cfg.tenants - 1)
    }
}

/// Zipf shares: `share_i ∝ 1/(i+1)^θ`, normalized to sum to 1.
fn zipf_shares(n: usize, theta: f64) -> Vec<f64> {
    let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(theta)).collect();
    let total: f64 = weights.iter().sum();
    weights.into_iter().map(|w| w / total).collect()
}

/// One exponential inter-arrival sample with the given rate (events/sec).
fn exponential(rng: &mut SmallRng, rate: f64) -> f64 {
    let u: f64 = rng.gen(); // [0, 1)
    -(1.0 - u).ln() / rate
}

/// Finds the saturation knee in a load sweep: the first offered load at
/// which p99 latency reaches `factor ×` the lowest-load p99 (the p99
/// inflection as the system saturates). `points` are
/// `(offered_load, p99)` pairs, assumed sorted by load. Returns `None`
/// when no point crosses the threshold (the sweep never saturated).
pub fn saturation_knee(points: &[(f64, Nanos)], factor: f64) -> Option<f64> {
    let (_, base) = *points.first()?;
    let threshold = (base.0 as f64 * factor).min(u64::MAX as f64) as u64;
    points
        .iter()
        .find(|&&(_, p99)| p99.0 >= threshold.max(1))
        .map(|&(load, _)| load)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CostClass, ResourceKey};

    fn mix() -> Vec<Vec<Workflow>> {
        let mut wf = Workflow::new();
        wf.step(ResourceKey::Disk(0), Nanos(1000), CostClass::DiskRead, &[]);
        vec![vec![wf]]
    }

    fn open_cfg() -> TrafficConfig {
        TrafficConfig {
            seed: 7,
            tenants: 4,
            zipf_theta: 0.9,
            rate_qps: 10_000.0,
            horizon: Nanos::from_millis(100),
        }
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let a = TrafficGen::new(open_cfg()).generate(&mix());
        let b = TrafficGen::new(open_cfg()).generate(&mix());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.tenant, x.seq, x.arrival), (y.tenant, y.seq, y.arrival));
        }
        // A different seed moves the stream.
        let c = TrafficGen::new(TrafficConfig {
            seed: 8,
            ..open_cfg()
        })
        .generate(&mix());
        assert!(
            a.len() != c.len() || a.iter().zip(&c).any(|(x, y)| x.arrival != y.arrival),
            "different seeds must differ"
        );
    }

    #[test]
    fn open_loop_respects_horizon_and_rate() {
        let jobs = TrafficGen::new(open_cfg()).generate(&mix());
        // 10k qps over 100ms ≈ 1000 arrivals; Poisson σ ≈ 32.
        assert!(
            (800..1200).contains(&jobs.len()),
            "got {} arrivals",
            jobs.len()
        );
        for j in &jobs {
            assert!(j.arrival < Nanos::from_millis(100));
        }
        // Arrivals are nondecreasing in time.
        assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn zipf_skews_tenant_shares() {
        let gen = TrafficGen::new(open_cfg());
        let shares = gen.shares();
        assert_eq!(shares.len(), 4);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(
            shares.windows(2).all(|w| w[0] >= w[1]),
            "shares non-increasing"
        );
        // And the sampled stream roughly follows them.
        let jobs = gen.generate(&mix());
        let mut counts = [0usize; 4];
        for j in &jobs {
            counts[j.tenant] += 1;
        }
        assert!(counts[0] > counts[3], "tenant 0 dominates tenant 3");
        let frac0 = counts[0] as f64 / jobs.len() as f64;
        assert!(
            (frac0 - shares[0]).abs() < 0.1,
            "sampled {frac0:.2} vs share {:.2}",
            shares[0]
        );
    }

    #[test]
    fn uniform_theta_balances_tenants() {
        let shares = TrafficGen::new(TrafficConfig {
            zipf_theta: 0.0,
            ..open_cfg()
        })
        .shares();
        for s in shares {
            assert!((s - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn per_tenant_mixes_are_respected() {
        // Tenant t's one template takes 10(t+1) ns: verify the mapping.
        let mixes: Vec<Vec<Workflow>> = (0..4u64)
            .map(|t| {
                let mut wf = Workflow::new();
                wf.step(
                    ResourceKey::Disk(0),
                    Nanos(10 * (t + 1)),
                    CostClass::DiskRead,
                    &[],
                );
                vec![wf]
            })
            .collect();
        let jobs = TrafficGen::new(open_cfg()).generate(&mixes);
        for j in &jobs {
            assert_eq!(j.workflow.total_work(), Nanos(10 * (j.tenant as u64 + 1)));
        }
    }

    #[test]
    fn knee_detection() {
        let ms = Nanos::from_millis;
        let points = vec![
            (0.2, ms(10)),
            (0.5, ms(11)),
            (0.8, ms(14)),
            (1.0, ms(35)),
            (1.2, ms(90)),
        ];
        assert_eq!(saturation_knee(&points, 3.0), Some(1.0));
        assert_eq!(saturation_knee(&points, 100.0), None);
        assert_eq!(saturation_knee(&[], 3.0), None);
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn zero_tenants_panics() {
        TrafficGen::new(TrafficConfig {
            tenants: 0,
            ..open_cfg()
        });
    }
}
