//! The 8 DeathStarBench-SocialNet-like microservice profiles.
//!
//! The paper picks 8 representative Alibaba production services and mimics
//! them with DeathStarBench services matched by execution time; requests
//! run for hundreds of microseconds, block on 1–3 synchronous RPCs to
//! backends (Memcached/Redis/MongoDB on dedicated servers), and have small
//! working sets split into cross-invocation *shared* pages and
//! per-invocation *private* pages (Sections 2.1, 3, 4.2.2).

use hh_sim::LogNormal;
use serde::{Deserialize, Serialize};

/// Index of a microservice in the catalog.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct ServiceId(pub u8);

impl ServiceId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Which application composition the Primary VMs run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CatalogKind {
    /// The 8 SocialNet services the paper evaluates (default).
    #[default]
    SocialNet,
}

/// Static description of one microservice.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServiceProfile {
    /// Short name used in the paper's figures.
    pub name: &'static str,
    /// Total on-CPU execution time of one invocation on warm structures,
    /// excluding memory stalls added by the simulator, in microseconds.
    pub compute_us: f64,
    /// Relative jitter (lognormal sigma) of per-invocation compute time.
    pub compute_sigma: f64,
    /// Number of synchronous blocking RPCs per invocation (splits the
    /// computation into `io_calls + 1` phases).
    pub io_calls: usize,
    /// Median backend service time per RPC, in microseconds (profiled on a
    /// real server in the paper; injected, not simulated).
    pub backend_us: f64,
    /// Backend latency shape (lognormal sigma).
    pub backend_sigma: f64,
    /// Shared footprint (code + libraries + read-only data) in KiB.
    pub shared_kb: usize,
    /// Private per-invocation footprint in KiB.
    pub private_kb: usize,
    /// Fraction of references that are instruction fetches.
    pub ifetch_frac: f64,
    /// Of the data references, the fraction touching shared pages.
    pub shared_data_frac: f64,
    /// Request payload size in bytes (deposited to the LLC by DDIO).
    pub payload_bytes: u32,
}

impl ServiceProfile {
    /// Number of compute phases (`io_calls + 1`).
    pub fn phases(&self) -> usize {
        self.io_calls + 1
    }

    /// Backend latency distribution for this service's RPCs.
    pub fn backend_dist(&self) -> LogNormal {
        LogNormal::with_median(self.backend_us, self.backend_sigma)
    }

    /// Shared footprint in cache lines.
    pub fn shared_lines(&self) -> u64 {
        (self.shared_kb * 1024 / 64) as u64
    }

    /// Private footprint in cache lines.
    pub fn private_lines(&self) -> u64 {
        (self.private_kb * 1024 / 64) as u64
    }
}

/// The catalog of evaluated services.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServiceCatalog {
    services: Vec<ServiceProfile>,
}

impl ServiceCatalog {
    /// The 8 SocialNet services used throughout the evaluation, in the
    /// order the figures list them: Text, SGraph, User, PstStr, UsrMnt,
    /// HomeT, CPost, UrlShort.
    ///
    /// Parameters are calibrated so that (i) invocations run for hundreds
    /// of microseconds, (ii) HomeT is dominated by shared pages and User by
    /// frequent I/O — the two behaviours Section 6.1 calls out — and
    /// (iii) working sets are small relative to the hierarchy (Figure 7).
    pub fn socialnet() -> Self {
        let s = |name,
                 compute_us,
                 io_calls,
                 backend_us,
                 shared_kb,
                 private_kb,
                 shared_data_frac| ServiceProfile {
            name,
            compute_us,
            compute_sigma: 0.18,
            io_calls,
            backend_us,
            backend_sigma: 0.35,
            shared_kb,
            private_kb,
            ifetch_frac: 0.35,
            shared_data_frac,
            payload_bytes: 1024,
        };
        ServiceCatalog {
            services: vec![
                s("Text", 360.0, 1, 90.0, 96, 24, 0.55),
                s("SGraph", 500.0, 2, 110.0, 128, 32, 0.55),
                s("User", 280.0, 3, 120.0, 80, 16, 0.60),
                s("PstStr", 600.0, 2, 140.0, 160, 48, 0.50),
                s("UsrMnt", 400.0, 2, 100.0, 96, 24, 0.55),
                s("HomeT", 700.0, 3, 150.0, 224, 16, 0.80),
                s("CPost", 800.0, 3, 130.0, 192, 64, 0.50),
                s("UrlShort", 220.0, 1, 80.0, 64, 16, 0.60),
            ],
        }
    }

    /// Builds a catalog by kind.
    pub fn of(kind: CatalogKind) -> Self {
        match kind {
            CatalogKind::SocialNet => Self::socialnet(),
        }
    }

    /// Number of services.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }

    /// Profile by id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn get(&self, id: ServiceId) -> &ServiceProfile {
        &self.services[id.index()]
    }

    /// Iterates `(ServiceId, &ServiceProfile)`.
    pub fn iter(&self) -> impl Iterator<Item = (ServiceId, &ServiceProfile)> {
        self.services
            .iter()
            .enumerate()
            .map(|(i, p)| (ServiceId(i as u8), p))
    }

    /// Looks a service up by its figure name.
    pub fn by_name(&self, name: &str) -> Option<(ServiceId, &ServiceProfile)> {
        self.iter().find(|(_, p)| p.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_eight_services_in_figure_order() {
        let c = ServiceCatalog::socialnet();
        assert_eq!(c.len(), 8);
        let names: Vec<&str> = c.iter().map(|(_, p)| p.name).collect();
        assert_eq!(
            names,
            ["Text", "SGraph", "User", "PstStr", "UsrMnt", "HomeT", "CPost", "UrlShort"]
        );
        assert!(!c.is_empty());
    }

    #[test]
    fn invocations_run_hundreds_of_microseconds() {
        for (_, p) in ServiceCatalog::socialnet().iter() {
            assert!((100.0..=900.0).contains(&p.compute_us), "{}", p.name);
            assert!(p.io_calls >= 1, "every service blocks at least once");
            assert_eq!(p.phases(), p.io_calls + 1);
        }
    }

    #[test]
    fn working_sets_are_small() {
        // Section 3: microservices fit comfortably in half the hierarchy.
        for (_, p) in ServiceCatalog::socialnet().iter() {
            let total_kb = p.shared_kb + p.private_kb;
            assert!(total_kb <= 512, "{} footprint {total_kb} KB", p.name);
        }
    }

    #[test]
    fn homet_is_shared_heavy_and_user_is_io_heavy() {
        let c = ServiceCatalog::socialnet();
        let (_, homet) = c.by_name("HomeT").unwrap();
        let (_, user) = c.by_name("User").unwrap();
        assert!(homet.shared_data_frac >= 0.75);
        assert!(homet.shared_kb > 10 * homet.private_kb);
        assert_eq!(user.io_calls, 3);
        assert!(user.compute_us < 400.0, "User blocks often relative to work");
    }

    #[test]
    fn line_counts_match_kb() {
        let c = ServiceCatalog::socialnet();
        let (_, text) = c.by_name("Text").unwrap();
        assert_eq!(text.shared_lines(), 96 * 16);
        assert_eq!(text.private_lines(), 24 * 16);
    }

    #[test]
    fn backend_distribution_median() {
        let c = ServiceCatalog::socialnet();
        let (_, t) = c.by_name("Text").unwrap();
        let d = t.backend_dist();
        assert!(d.mean() >= 90.0, "lognormal mean exceeds median");
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(ServiceCatalog::socialnet().by_name("Nope").is_none());
    }

    #[test]
    fn catalog_of_kind_dispatches() {
        assert_eq!(ServiceCatalog::of(CatalogKind::SocialNet).len(), 8);
        assert_eq!(CatalogKind::default(), CatalogKind::SocialNet);
    }
}
