//! Immutable, versioned model snapshots and the registry that publishes
//! them.
//!
//! The trainer publishes a new snapshot whenever the reference model is
//! regenerated (`EgeriaConfig::reference_update_every`); the registry
//! assigns a monotonically increasing version and swaps the shared
//! `Arc<ModelSnapshot>` atomically, so concurrently admitted requests
//! either see the old snapshot or the new one — never a half-published
//! model. In-flight requests pin the `Arc` they were admitted under and
//! keep executing against that version even across a publish.
//!
//! A snapshot's parameters are never mutated after publish. Because
//! `Model::capture_activation` takes `&mut self` (models keep scratch
//! buffers), execution goes through [`ModelSnapshot::clone_executor`]:
//! workers clone the model once per (worker, version) and reuse the clone,
//! leaving the published master untouched.

use crate::error::{ServeError, ServeResult};
use egeria_models::model::Model;
use egeria_quant::model::{quantize_reference, Precision};
use egeria_resil::clock::Clock;
use std::sync::{Arc, Mutex};

/// One published, immutable version of the reference model.
pub struct ModelSnapshot {
    version: u64,
    precision: Precision,
    published_at_us: u64,
    // The master copy. Only locked briefly to clone an executor; capture
    // runs on the clones, never on the master.
    master: Mutex<Box<dyn Model>>,
}

impl ModelSnapshot {
    /// The registry-assigned version (1-based, monotonically increasing).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The numeric precision the snapshot was quantized to.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// When the snapshot was published (µs on the engine clock).
    pub fn published_at_us(&self) -> u64 {
        self.published_at_us
    }

    /// Clones the master into a private executor a worker may mutate
    /// (scratch state) without affecting the published snapshot.
    pub fn clone_executor(&self) -> Box<dyn Model> {
        self.master
            .lock()
            .expect("snapshot master poisoned")
            .clone_boxed()
    }
}

impl std::fmt::Debug for ModelSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelSnapshot")
            .field("version", &self.version)
            .field("precision", &self.precision)
            .field("published_at_us", &self.published_at_us)
            .finish()
    }
}

/// The publish/subscribe point between the trainer and the serve engine.
///
/// `latest()` is wait-free for practical purposes (one short mutex-guarded
/// `Arc` clone); `publish` quantizes outside the lock and swaps inside it.
pub struct SnapshotRegistry {
    current: Mutex<Option<Arc<ModelSnapshot>>>,
    next_version: Mutex<u64>,
}

impl SnapshotRegistry {
    /// An empty registry: requests admitted now fail with
    /// [`ServeError::NoSnapshot`].
    pub fn new() -> Self {
        SnapshotRegistry {
            current: Mutex::new(None),
            next_version: Mutex::new(1),
        }
    }

    /// Quantizes `model` to `precision` and publishes it as the next
    /// version. Returns the assigned version.
    pub fn publish(
        &self,
        model: &dyn Model,
        precision: Precision,
        clock: &dyn Clock,
    ) -> ServeResult<u64> {
        let quantized = quantize_reference(model, precision).map_err(ServeError::Model)?;
        Ok(self.publish_prequantized(quantized, precision, clock))
    }

    /// Publishes a model that is already at its serving precision (e.g.
    /// the trainer's freshly generated reference copy). Returns the
    /// assigned version.
    pub fn publish_prequantized(
        &self,
        model: Box<dyn Model>,
        precision: Precision,
        clock: &dyn Clock,
    ) -> u64 {
        let version = {
            let mut next = self.next_version.lock().expect("registry poisoned");
            let v = *next;
            *next += 1;
            v
        };
        let snapshot = Arc::new(ModelSnapshot {
            version,
            precision,
            published_at_us: clock.now_us(),
            master: Mutex::new(model),
        });
        *self.current.lock().expect("registry poisoned") = Some(snapshot);
        version
    }

    /// The latest published snapshot, if any. The caller holds the `Arc`
    /// and is isolated from later publishes.
    pub fn latest(&self) -> Option<Arc<ModelSnapshot>> {
        self.current.lock().expect("registry poisoned").clone()
    }

    /// The latest published version, or 0 if nothing was published yet.
    pub fn version(&self) -> u64 {
        self.latest().map(|s| s.version()).unwrap_or(0)
    }
}

impl Default for SnapshotRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egeria_resil::clock::VirtualClock;
    use egeria_models::resnet::{resnet_cifar, ResNetCifarConfig};

    fn model() -> Box<dyn Model> {
        Box::new(resnet_cifar(
            ResNetCifarConfig { n: 2, width: 4, classes: 4, ..Default::default() },
            99,
        ))
    }

    #[test]
    fn empty_registry_has_no_snapshot() {
        let r = SnapshotRegistry::new();
        assert!(r.latest().is_none());
        assert_eq!(r.version(), 0);
    }

    #[test]
    fn publish_assigns_monotonic_versions() {
        let clock = VirtualClock::new();
        let r = SnapshotRegistry::new();
        let m = model();
        let v1 = r.publish(m.as_ref(), Precision::F32, &clock).unwrap();
        clock.advance_us(10);
        let v2 = r.publish(m.as_ref(), Precision::Int8, &clock).unwrap();
        assert_eq!((v1, v2), (1, 2));
        let latest = r.latest().unwrap();
        assert_eq!(latest.version(), 2);
        assert_eq!(latest.precision(), Precision::Int8);
        assert_eq!(latest.published_at_us(), 10);
    }

    #[test]
    fn inflight_arc_survives_a_publish() {
        let clock = VirtualClock::new();
        let r = SnapshotRegistry::new();
        let m = model();
        r.publish(m.as_ref(), Precision::F32, &clock).unwrap();
        let pinned = r.latest().unwrap();
        r.publish(m.as_ref(), Precision::F32, &clock).unwrap();
        // The pinned snapshot still answers with its own version and can
        // still hand out executors.
        assert_eq!(pinned.version(), 1);
        let _executor = pinned.clone_executor();
        assert_eq!(r.version(), 2);
    }
}
