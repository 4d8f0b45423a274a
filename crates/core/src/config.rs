//! iGQ engine configuration: the [`IgqConfig`] tunables, the validating
//! [`IgqConfigBuilder`], and the typed [`ConfigError`] the builder (and
//! engine construction) reports.
//!
//! Invalid combinations — a zero window, a window larger than the cache —
//! used to be clamped silently; they are now rejected with a
//! [`ConfigError`] at [`IgqConfigBuilder::build`] time and again at engine
//! construction, so a misconfigured deployment fails loudly instead of
//! misbehaving.

use crate::policy::ReplacementPolicy;
use igq_features::PathConfig;

/// A rejected [`IgqConfig`] combination. Returned by
/// [`IgqConfigBuilder::build`], [`IgqConfig::validate`], and engine
/// construction ([`crate::IgqEngine::new`] / [`crate::IgqSuperEngine::new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `window == 0`: maintenance would never run and nothing would ever
    /// be cached.
    ZeroWindow,
    /// `window > cache_capacity`: a window of admissions could never fit,
    /// violating the paper's `W ≤ C` invariant.
    WindowExceedsCapacity {
        /// The configured window `W`.
        window: usize,
        /// The configured cache capacity `C`.
        cache_capacity: usize,
    },
    /// [`PersistenceConfig::checkpoint_every_windows`] `== 0`: the
    /// auto-checkpoint cadence would never fire, silently degrading the
    /// store to WAL-only growth. Disable auto-checkpointing explicitly
    /// with [`PersistenceConfig::manual`] instead.
    ZeroCheckpointInterval,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroWindow => {
                write!(f, "window must be >= 1 (0 would never trigger maintenance)")
            }
            ConfigError::WindowExceedsCapacity {
                window,
                cache_capacity,
            } => write!(
                f,
                "window ({window}) must not exceed cache_capacity ({cache_capacity})"
            ),
            ConfigError::ZeroCheckpointInterval => write!(
                f,
                "checkpoint_every_windows must be >= 1 (use PersistenceConfig::manual \
                 to disable auto-checkpointing explicitly)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Durability cadence for engines attached to a
/// [`CacheStore`](crate::persist::CacheStore) via
/// [`Engine::open`](crate::Engine::open). Ignored by engines constructed
/// with `new` (no store, nothing to persist to).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistenceConfig {
    /// Write a checkpoint automatically after this many window flips (WAL
    /// records) since the last checkpoint; the WAL is compacted to the
    /// post-checkpoint tail each time, bounding both recovery replay and
    /// log size. `None` disables auto-checkpointing — durability then
    /// rides on WAL appends plus explicit
    /// [`checkpoint`](crate::Engine::checkpoint) calls. `Some(0)` is
    /// rejected ([`ConfigError::ZeroCheckpointInterval`]).
    ///
    /// Cost model: the auto-checkpoint runs on the thread whose query
    /// crossed the cadence — off the engine's state lock (other callers
    /// keep serving), but that one caller pays the O(cache) snapshot and
    /// the storage writes in its wall-clock. Lower cadences shorten
    /// recovery replay; higher cadences shrink that periodic latency
    /// blip. (A dedicated checkpoint thread is a noted follow-on.)
    pub checkpoint_every_windows: Option<usize>,
}

impl Default for PersistenceConfig {
    /// Checkpoint every 8 windows: frequent enough that recovery replays
    /// at most a handful of flips, rare enough that the O(cache) snapshot
    /// cost stays a small fraction of window work.
    fn default() -> Self {
        PersistenceConfig {
            checkpoint_every_windows: Some(8),
        }
    }
}

impl PersistenceConfig {
    /// Auto-checkpoint every `windows` flips (must be ≥ 1).
    pub fn every(windows: usize) -> PersistenceConfig {
        PersistenceConfig {
            checkpoint_every_windows: Some(windows),
        }
    }

    /// Explicit-checkpoint-only operation: the engine appends WAL records
    /// at every flip but never snapshots on its own.
    pub fn manual() -> PersistenceConfig {
        PersistenceConfig {
            checkpoint_every_windows: None,
        }
    }
}

/// Tunables of the iGQ engine (paper Sections 5 and 7.1).
///
/// Construct one with [`IgqConfig::builder`] (validating) or a struct
/// literal over [`IgqConfig::default`]; either way the engines re-validate
/// at construction, so an invalid combination cannot reach a running
/// engine.
#[derive(Debug, Clone, Copy)]
pub struct IgqConfig {
    /// Cache size `C`: maximum number of cached query graphs (paper default
    /// for AIDS/PDBS experiments: 500).
    pub cache_capacity: usize,
    /// Query window size `W ≤ C`: maintenance batch size (paper default:
    /// 100).
    pub window: usize,
    /// Path-feature configuration for the query indexes (`Isub`/`Isuper`).
    /// Matches the dataset methods' default (≤ 4 edges).
    pub path_config: PathConfig,
    /// Label-universe size `L` for the replacement policy's cost model.
    /// `0` = derive from the dataset at engine construction.
    pub label_universe: usize,
    /// Cache-replacement policy (default: the paper's utility policy;
    /// alternatives exist for the `ablation_replacement` reproduction).
    pub policy: ReplacementPolicy,
    /// Worker threads used by [`crate::QueryEngine::query_batch`] to fan a
    /// batch of queries across one shared engine. `0` (the default) means
    /// "use the machine's available parallelism"; `1` degenerates to a
    /// sequential loop.
    pub batch_threads: usize,
    /// Durability cadence for store-attached engines (see
    /// [`PersistenceConfig`]); inert without a store.
    pub persistence: PersistenceConfig,
    /// Ignored: engine state is one cache behind one lock. Kept only
    /// because the frozen `benchmark/` ladder sets it; delete with the
    /// next `benchmark` PR.
    pub shards: usize,
}

impl Default for IgqConfig {
    fn default() -> Self {
        IgqConfig {
            cache_capacity: 500,
            window: 100,
            path_config: PathConfig::default(),
            label_universe: 0,
            policy: ReplacementPolicy::Utility,
            batch_threads: 0,
            persistence: PersistenceConfig::default(),
            shards: 1,
        }
    }
}

impl IgqConfig {
    /// A validating builder initialized with the paper defaults.
    pub fn builder() -> IgqConfigBuilder {
        IgqConfigBuilder {
            config: IgqConfig::default(),
        }
    }

    /// The paper's dense-dataset configuration (PPI/Synthetic experiments):
    /// `W = 20`, with the cache size chosen per figure (100/200/300).
    pub fn dense(cache_capacity: usize) -> Self {
        IgqConfig {
            cache_capacity,
            window: 20,
            ..Default::default()
        }
    }

    /// Checks the `1 ≤ W ≤ C` and checkpoint-cadence invariants,
    /// reporting the first violation. Engine construction
    /// calls this, so a hand-built struct literal gets the same scrutiny
    /// as a [`builder`](IgqConfig::builder) config.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.window == 0 {
            return Err(ConfigError::ZeroWindow);
        }
        if self.window > self.cache_capacity {
            return Err(ConfigError::WindowExceedsCapacity {
                window: self.window,
                cache_capacity: self.cache_capacity,
            });
        }
        if self.persistence.checkpoint_every_windows == Some(0) {
            return Err(ConfigError::ZeroCheckpointInterval);
        }
        Ok(())
    }
}

/// Builder for [`IgqConfig`] whose [`build`](IgqConfigBuilder::build)
/// validates the result — the supported way to construct an engine config:
///
/// ```
/// use igq_core::IgqConfig;
///
/// let config = IgqConfig::builder()
///     .cache_capacity(100)
///     .window(10)
///     .build()
///     .expect("valid config");
/// assert_eq!(config.window, 10);
/// assert!(IgqConfig::builder().window(0).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct IgqConfigBuilder {
    config: IgqConfig,
}

impl IgqConfigBuilder {
    /// Sets the cache size `C` (see [`IgqConfig::cache_capacity`]).
    pub fn cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.config.cache_capacity = cache_capacity;
        self
    }

    /// Sets the window size `W` (see [`IgqConfig::window`]).
    pub fn window(mut self, window: usize) -> Self {
        self.config.window = window;
        self
    }

    /// Sets the path-feature configuration (see [`IgqConfig::path_config`]).
    pub fn path_config(mut self, path_config: PathConfig) -> Self {
        self.config.path_config = path_config;
        self
    }

    /// Sets the label-universe size (see [`IgqConfig::label_universe`]).
    pub fn label_universe(mut self, label_universe: usize) -> Self {
        self.config.label_universe = label_universe;
        self
    }

    /// Sets the cache-replacement policy (see [`IgqConfig::policy`]).
    pub fn policy(mut self, policy: ReplacementPolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Sets the batch fan-out width (see [`IgqConfig::batch_threads`]).
    pub fn batch_threads(mut self, batch_threads: usize) -> Self {
        self.config.batch_threads = batch_threads;
        self
    }

    /// Sets the durability cadence for store-attached engines (see
    /// [`IgqConfig::persistence`] and [`PersistenceConfig`]).
    pub fn persistence(mut self, persistence: PersistenceConfig) -> Self {
        self.config.persistence = persistence;
        self
    }

    /// Validates and returns the config.
    pub fn build(self) -> Result<IgqConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = IgqConfig::default();
        assert_eq!(c.cache_capacity, 500);
        assert_eq!(c.window, 100);
        c.validate().expect("paper defaults are valid");
    }

    #[test]
    fn dense_preset() {
        let c = IgqConfig::dense(200);
        assert_eq!(c.cache_capacity, 200);
        assert_eq!(c.window, 20);
    }

    #[test]
    fn builder_round_trips_every_field() {
        let c = IgqConfig::builder()
            .cache_capacity(64)
            .window(8)
            .label_universe(7)
            .policy(ReplacementPolicy::Lru)
            .batch_threads(4)
            .build()
            .expect("valid");
        assert_eq!(c.cache_capacity, 64);
        assert_eq!(c.window, 8);
        assert_eq!(c.label_universe, 7);
        assert_eq!(c.policy, ReplacementPolicy::Lru);
        assert_eq!(c.batch_threads, 4);
    }

    #[test]
    fn zero_window_is_rejected() {
        assert_eq!(
            IgqConfig::builder().window(0).build().unwrap_err(),
            ConfigError::ZeroWindow
        );
    }

    #[test]
    fn oversized_window_is_rejected() {
        assert_eq!(
            IgqConfig::builder()
                .cache_capacity(10)
                .window(50)
                .build()
                .unwrap_err(),
            ConfigError::WindowExceedsCapacity {
                window: 50,
                cache_capacity: 10
            }
        );
    }

    #[test]
    fn persistence_cadence_validates_and_round_trips() {
        let c = IgqConfig::builder()
            .persistence(PersistenceConfig::every(3))
            .build()
            .expect("valid");
        assert_eq!(c.persistence.checkpoint_every_windows, Some(3));
        let manual = IgqConfig::builder()
            .persistence(PersistenceConfig::manual())
            .build()
            .expect("manual is valid");
        assert_eq!(manual.persistence.checkpoint_every_windows, None);
        assert_eq!(
            IgqConfig::builder()
                .persistence(PersistenceConfig::every(0))
                .build()
                .unwrap_err(),
            ConfigError::ZeroCheckpointInterval
        );
        assert!(ConfigError::ZeroCheckpointInterval
            .to_string()
            .contains("checkpoint_every_windows"));
    }

    #[test]
    fn errors_render_helpfully() {
        let e = ConfigError::WindowExceedsCapacity {
            window: 50,
            cache_capacity: 10,
        };
        let msg = e.to_string();
        assert!(msg.contains("50") && msg.contains("10"), "{msg}");
        assert!(ConfigError::ZeroWindow.to_string().contains("window"));
    }
}
