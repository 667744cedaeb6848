//! Scene loader handles: where a scene id's data comes from.

use std::path::PathBuf;
use std::sync::Arc;

use gcc_parallel::available_threads;
use gcc_scene::{Scene, SceneConfig, ScenePreset};

use crate::fault::{FaultPlan, LoadFault};

/// A classified load failure: the message that fans out to every waiter,
/// plus whether retrying the same load could plausibly succeed (see
/// [`gcc_scene::io::SceneIoError::is_retryable`] for the I/O-side
/// classification). The service's retry loop only re-attempts retryable
/// failures; fatal ones quarantine the scene immediately.
#[derive(Debug, Clone)]
pub struct LoadError {
    /// Human-readable cause.
    pub message: String,
    /// Whether a retry could plausibly succeed.
    pub retryable: bool,
}

impl LoadError {
    fn fatal(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            retryable: false,
        }
    }
}

/// A loadable scene: the registry value behind a scene id. Loading is
/// performed by cache-miss workers with no service lock held, so sources
/// must be usable from any thread (`Sync` via shared references only).
#[derive(Debug, Clone)]
pub enum SceneSource {
    /// Synthesize an in-tree preset at a count scale (deterministic —
    /// a pure function of `(preset, scale)`).
    Preset {
        /// The paper scene preset.
        preset: ScenePreset,
        /// Count scale in `(0, 100]` (see [`SceneConfig::with_scale`]).
        scale: f32,
    },
    /// Load from a scene file, sniffing the binary DRAM-image format vs
    /// JSON by content ([`gcc_scene::io::load_scene_file_on`]).
    File(PathBuf),
    /// An already-built scene (embedders, tests). Loading is a cheap
    /// `Arc` clone — note the cache still accounts its full byte size.
    Memory(Arc<Scene>),
    /// Fault-injection wrapper ([`SceneSource::faulty`]): consults a
    /// [`FaultPlan`] before each load attempt and fails, panics or
    /// stalls as drawn; a clean draw delegates to the inner source.
    Faulty {
        /// Label the plan draws under (conventionally the scene id).
        label: String,
        /// The real source behind the faults.
        inner: Box<SceneSource>,
        /// The shared fault schedule.
        plan: Arc<FaultPlan>,
    },
    /// Test-only: panics when loaded, exercising the service's
    /// load-panic containment.
    #[cfg(test)]
    PanicsOnLoad,
}

impl SceneSource {
    /// Wraps `inner` with fault injection under `plan` (the chaos tests,
    /// `tests/serve_chaos.rs`). The `label` keys the plan's per-scene
    /// attempt counter — pass the id the source is registered under.
    pub fn faulty(label: impl Into<String>, inner: SceneSource, plan: Arc<FaultPlan>) -> Self {
        Self::Faulty {
            label: label.into(),
            inner: Box::new(inner),
            plan,
        }
    }

    /// Loads the scene on every hardware thread: [`Self::load_on`] for a
    /// caller with nothing else running.
    pub fn load(&self) -> Result<Arc<Scene>, LoadError> {
        self.load_on(available_threads())
    }

    /// Loads the scene on up to `threads` threads — what a preset's
    /// synthesis and a JSON file's decode spread over; the scene loaded
    /// is the same, bit for bit, at every count. This is the form a
    /// service worker calls, with the threads it is lent; the error says
    /// whether its retry loop should try again.
    pub fn load_on(&self, threads: usize) -> Result<Arc<Scene>, LoadError> {
        match self {
            Self::Preset { preset, scale } => {
                if !(*scale > 0.0 && *scale <= 100.0) {
                    // A property of the registration, not of the moment.
                    return Err(LoadError::fatal(format!(
                        "preset scale {scale} out of range (0, 100]"
                    )));
                }
                let config = SceneConfig::with_scale(*scale);
                Ok(Arc::new(preset.build_on(&config, threads)))
            }
            Self::File(path) => gcc_scene::io::load_scene_file_on(path, threads)
                .map(Arc::new)
                .map_err(|e| LoadError {
                    retryable: e.is_retryable(),
                    message: e.to_string(),
                }),
            Self::Memory(scene) => Ok(Arc::clone(scene)),
            Self::Faulty { label, inner, plan } => match plan.next_load_fault(label) {
                Some(LoadFault::FailRetryable) => Err(LoadError {
                    message: format!("injected transient load failure for '{label}'"),
                    retryable: true,
                }),
                Some(LoadFault::FailFatal) => Err(LoadError::fatal(format!(
                    "injected fatal load failure for '{label}'"
                ))),
                Some(LoadFault::Panic) => panic!("injected load panic for '{label}'"),
                Some(LoadFault::Slow(delay)) => {
                    std::thread::sleep(delay);
                    inner.load_on(threads)
                }
                None => inner.load_on(threads),
            },
            #[cfg(test)]
            Self::PanicsOnLoad => panic!("scene load blew up"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_source_loads_deterministically() {
        let src = SceneSource::Preset {
            preset: ScenePreset::Lego,
            scale: 0.02,
        };
        let a = src.load().unwrap();
        let b = src.load_on(1).unwrap();
        assert_eq!(a.gaussians, b.gaussians);
        assert!(!a.is_empty());
    }

    #[test]
    fn bad_scale_is_an_error_not_a_panic() {
        let src = SceneSource::Preset {
            preset: ScenePreset::Lego,
            scale: 0.0,
        };
        assert!(src.load_on(2).is_err());
    }

    #[test]
    fn memory_source_shares_the_same_scene() {
        let scene = Arc::new(ScenePreset::Palace.build(&SceneConfig::with_scale(0.02)));
        let src = SceneSource::Memory(Arc::clone(&scene));
        let loaded = src.load_on(2).unwrap();
        assert!(Arc::ptr_eq(&scene, &loaded));
    }

    #[test]
    fn classification_matches_the_failure_kind() {
        // Missing file: fatal (the path will be just as absent on retry).
        let src = SceneSource::File(PathBuf::from("/nonexistent/scene.bin"));
        let err = src.load_on(2).unwrap_err();
        assert!(err.message.contains("i/o error"), "{}", err.message);
        assert!(!err.retryable, "{}", err.message);
        // Bad preset scale: fatal misconfiguration.
        let src = SceneSource::Preset {
            preset: ScenePreset::Lego,
            scale: -1.0,
        };
        assert!(!src.load_on(2).unwrap_err().retryable);
    }

    #[test]
    fn faulty_source_follows_its_script_then_delegates() {
        use crate::fault::{FaultPlan, LoadFault};
        let scene = Arc::new(ScenePreset::Lego.build(&SceneConfig::with_scale(0.02)));
        let plan = Arc::new(FaultPlan::new(1).script_loads(
            "s",
            [
                Some(LoadFault::FailRetryable),
                Some(LoadFault::FailFatal),
                None,
            ],
        ));
        let src = SceneSource::faulty("s", SceneSource::Memory(Arc::clone(&scene)), plan);
        let e = src.load_on(2).unwrap_err();
        assert!(e.retryable);
        let e = src.load_on(2).unwrap_err();
        assert!(!e.retryable);
        let loaded = src.load_on(2).unwrap();
        assert!(Arc::ptr_eq(&scene, &loaded));
    }

    #[test]
    fn disarmed_faulty_source_is_transparent() {
        use crate::fault::FaultPlan;
        let scene = Arc::new(ScenePreset::Lego.build(&SceneConfig::with_scale(0.02)));
        let plan = Arc::new(FaultPlan::new(2).with_retryable_load_failures(1000));
        let src = SceneSource::faulty("s", SceneSource::Memory(Arc::clone(&scene)), plan.clone());
        assert!(src.load_on(2).is_err());
        plan.disarm();
        assert!(src.load_on(2).is_ok());
    }
}
