//! Per-iteration timing with freezing and cached-FP.

use crate::allreduce::ring_allreduce_time;
use crate::arch::ArchSpec;
use crate::device::ClusterSpec;
use crate::schedule::{simulate_iteration, CommOutcome};
pub use crate::schedule::CommPolicy;

/// The state of one training iteration.
#[derive(Debug, Clone, Copy)]
pub struct IterationSetting {
    /// Frozen-prefix length.
    pub frozen_prefix: usize,
    /// Whether the frozen prefix's forward pass is served from the cache.
    pub fp_cached: bool,
    /// Per-worker mini-batch size.
    pub batch_size: usize,
}

/// Where the iteration's time went.
#[derive(Debug, Clone, Copy)]
pub struct TimeBreakdown {
    /// Forward compute (seconds).
    pub fwd: f64,
    /// Backward compute.
    pub bwd: f64,
    /// Communication not hidden behind compute.
    pub comm_exposed: f64,
    /// Cache prefetch time not hidden behind compute.
    pub prefetch_exposed: f64,
    /// Total iteration time.
    pub total: f64,
}

/// Computes one iteration's time for a given freezing state.
///
/// Backward compute is modeled at 2× forward FLOPs (the standard
/// grad-weight + grad-input accounting).
pub fn iteration_time(
    arch: &ArchSpec,
    cluster: &ClusterSpec,
    setting: IterationSetting,
    policy: CommPolicy,
) -> TimeBreakdown {
    let n = arch.num_modules();
    let prefix = setting.frozen_prefix.min(n.saturating_sub(1));
    let b = setting.batch_size as f64;
    let gpu = cluster.gpu.flops_per_sec;
    let workers = cluster.workers();
    let net = cluster.sync_network();
    let mut fwd = vec![0.0f64; n];
    let mut bwd = vec![0.0f64; n];
    let mut comm = vec![0.0f64; n];
    for (i, m) in arch.modules.iter().enumerate() {
        let f = m.flops_fwd * b / gpu;
        let skip_fwd = setting.fp_cached && i < prefix;
        fwd[i] = if skip_fwd { 0.0 } else { f };
        if i >= prefix {
            bwd[i] = 2.0 * f;
            comm[i] = ring_allreduce_time(m.param_bytes, workers, net);
        }
    }
    let outcome: CommOutcome = simulate_iteration(&fwd, &bwd, &comm, prefix, policy);
    let t_fwd: f64 = fwd.iter().sum();
    let t_bwd: f64 = bwd.iter().sum();
    // Prefetch: the boundary activation streams from disk, overlapped with
    // the active compute; only the excess is exposed.
    let prefetch_exposed = if setting.fp_cached && prefix > 0 {
        let boundary = &arch.modules[prefix - 1];
        let bytes = boundary.act_bytes * b;
        let t_disk = bytes / cluster.disk.read_bps;
        (t_disk - (t_fwd + t_bwd)).max(0.0)
    } else {
        0.0
    };
    let comm_exposed = (outcome.iteration_time - t_fwd - t_bwd).max(0.0);
    TimeBreakdown {
        fwd: t_fwd,
        bwd: t_bwd,
        comm_exposed,
        prefetch_exposed,
        total: outcome.iteration_time + prefetch_exposed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{ArchSpec, FlopsModel, PaperScale};

    fn spec() -> ArchSpec {
        ArchSpec::scaled(
            "resnet50",
            &[100, 200, 400, 800],
            Some(&[4, 4, 4, 4]),
            FlopsModel::PerBlockUniform,
            PaperScale::resnet50_imagenet(),
        )
    }

    fn base_setting() -> IterationSetting {
        IterationSetting {
            frozen_prefix: 0,
            fp_cached: false,
            batch_size: 32,
        }
    }

    #[test]
    fn single_node_iteration_is_compute_dominated() {
        let cluster = ClusterSpec::v100_cluster(1);
        let t = iteration_time(&spec(), &cluster, base_setting(), CommPolicy::Vanilla);
        assert!(t.total > 0.0);
        assert!(t.bwd > t.fwd * 1.9 && t.bwd < t.fwd * 2.1);
        // ResNet-50 at batch 32 on a V100: tens of milliseconds.
        assert!(t.total > 0.01 && t.total < 1.0, "total {}", t.total);
    }

    #[test]
    fn freezing_reduces_iteration_time() {
        let cluster = ClusterSpec::v100_cluster(3);
        let full = iteration_time(&spec(), &cluster, base_setting(), CommPolicy::Vanilla);
        let frozen = iteration_time(
            &spec(),
            &cluster,
            IterationSetting {
                frozen_prefix: 2,
                ..base_setting()
            },
            CommPolicy::Vanilla,
        );
        assert!(frozen.total < full.total);
    }

    #[test]
    fn cached_fp_further_reduces_time() {
        let cluster = ClusterSpec::v100_cluster(1);
        let frozen = iteration_time(
            &spec(),
            &cluster,
            IterationSetting {
                frozen_prefix: 2,
                ..base_setting()
            },
            CommPolicy::Vanilla,
        );
        let cached = iteration_time(
            &spec(),
            &cluster,
            IterationSetting {
                frozen_prefix: 2,
                fp_cached: true,
                ..base_setting()
            },
            CommPolicy::Vanilla,
        );
        assert!(cached.total < frozen.total);
        assert!(cached.fwd < frozen.fwd);
    }

    #[test]
    fn multi_node_adds_exposed_communication() {
        let single = iteration_time(
            &spec(),
            &ClusterSpec::v100_cluster(1),
            base_setting(),
            CommPolicy::Vanilla,
        );
        let multi = iteration_time(
            &spec(),
            &ClusterSpec::v100_cluster(5),
            base_setting(),
            CommPolicy::Vanilla,
        );
        assert!(multi.comm_exposed >= single.comm_exposed);
    }

    #[test]
    fn frozen_modules_do_not_sync() {
        // Freezing removes the frozen prefix's gradient synchronization:
        // the iteration gets faster even though the surviving deep-module
        // transfer now has less backward compute to hide behind (its
        // *exposed* share may grow while the total shrinks).
        let cluster = ClusterSpec::v100_cluster(5);
        let full = iteration_time(&spec(), &cluster, base_setting(), CommPolicy::Vanilla);
        let frozen = iteration_time(
            &spec(),
            &cluster,
            IterationSetting {
                frozen_prefix: 3,
                ..base_setting()
            },
            CommPolicy::Vanilla,
        );
        assert!(frozen.total < full.total);
        assert!(frozen.bwd < full.bwd);
    }
}
