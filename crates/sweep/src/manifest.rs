//! Sweep manifests: the schema-versioned JSON contract between the
//! process that *plans* a mega-sweep and the shard processes that
//! *execute* it.
//!
//! A manifest fixes everything that determines the sweep's output —
//! the grid, the per-point trial count, the master seed — plus the
//! shard partition, which determines only *who runs what*, never the
//! result. Its [`digest`](Manifest::digest) is embedded in every
//! checkpoint so shards from a different (or edited) manifest can
//! never be merged by accident.

use sim_observe::{fmt_f64, fnv1a64, Json};

/// Schema identifier of the manifest JSON document.
pub const MANIFEST_SCHEMA: &str = "vlsi-sync/sweep-manifest";
/// Current manifest schema version.
pub const MANIFEST_SCHEMA_VERSION: u64 = 1;

/// One grid point of the design space: a synchronization scheme on a
/// topology at an array size under a fault rate.
#[derive(Debug, Clone, PartialEq)]
pub struct GridPoint {
    /// Synchronization scheme name (e.g. `"global"`, `"hybrid"`).
    pub scheme: String,
    /// Clock/communication topology name (e.g. `"htree"`, `"mesh"`).
    pub topology: String,
    /// Array side length `k` (the array is `k × k` or a length-`k²`
    /// chain, scheme-dependent).
    pub size: u64,
    /// Per-site fault probability for the trial's fault plan.
    pub fault_rate: f64,
}

impl GridPoint {
    /// Builds a grid point.
    #[must_use]
    pub fn new(
        scheme: impl Into<String>,
        topology: impl Into<String>,
        size: u64,
        fault_rate: f64,
    ) -> GridPoint {
        GridPoint {
            scheme: scheme.into(),
            topology: topology.into(),
            size,
            fault_rate,
        }
    }

    /// Compact human/report label, e.g. `global/htree/k=8@r=0.01`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}/{}/k={}@r={}",
            self.scheme,
            self.topology,
            self.size,
            fmt_f64(self.fault_rate)
        )
    }

    /// The point as a deterministic JSON object (fixed key order).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("scheme", Json::Str(self.scheme.clone())),
            ("topology", Json::Str(self.topology.clone())),
            ("size", Json::UInt(self.size)),
            ("fault_rate", Json::Float(self.fault_rate)),
        ])
    }

    /// Parses a point from its JSON object form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn from_json(value: &Json) -> Result<GridPoint, String> {
        Ok(GridPoint {
            scheme: req_str(value, "scheme")?,
            topology: req_str(value, "topology")?,
            size: req_u64(value, "size")?,
            fault_rate: req_f64(value, "fault_rate")?,
        })
    }
}

/// The full sweep description: grid, trial counts, seed, and shard
/// partition. Construct with [`Manifest::new`] (validating) or
/// [`Manifest::from_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Human name of the sweep (reporting only; part of the digest).
    pub name: String,
    /// Master seed. Trial `g`'s RNG stream is `SimRng::for_trial(seed,
    /// g)` regardless of which shard runs it.
    pub seed: u64,
    /// Monte-Carlo trials per grid point.
    pub trials_per_point: u64,
    /// Number of shards the global trial range is partitioned into.
    pub shards: u64,
    /// Checkpoint after every this-many completed trials per shard.
    pub checkpoint_every: u64,
    /// The grid, in sweep order. Global trial index `g` belongs to
    /// point `g / trials_per_point`.
    pub points: Vec<GridPoint>,
}

impl Manifest {
    /// Builds and validates a manifest.
    ///
    /// # Errors
    ///
    /// Rejects an empty grid, zero trial/shard/checkpoint counts, and a
    /// total trial count that overflows `usize`.
    pub fn new(
        name: impl Into<String>,
        seed: u64,
        trials_per_point: u64,
        shards: u64,
        checkpoint_every: u64,
        points: Vec<GridPoint>,
    ) -> Result<Manifest, String> {
        let m = Manifest {
            name: name.into(),
            seed,
            trials_per_point,
            shards,
            checkpoint_every,
            points,
        };
        m.validate()?;
        Ok(m)
    }

    fn validate(&self) -> Result<(), String> {
        if self.points.is_empty() {
            return Err("manifest has an empty grid".to_owned());
        }
        if self.trials_per_point == 0 {
            return Err("`trials_per_point` must be positive".to_owned());
        }
        if self.shards == 0 {
            return Err("`shards` must be positive".to_owned());
        }
        if self.checkpoint_every == 0 {
            return Err("`checkpoint_every` must be positive".to_owned());
        }
        let total = usize::try_from(self.trials_per_point)
            .ok()
            .and_then(|tpp| self.points.len().checked_mul(tpp));
        if total.is_none() {
            return Err(format!(
                "{} points x {} trials per point overflows the trial count",
                self.points.len(),
                self.trials_per_point
            ));
        }
        Ok(())
    }

    /// Total trials across the whole grid.
    #[must_use]
    pub fn total_trials(&self) -> usize {
        self.points.len() * self.trials_per_point as usize
    }

    /// The contiguous global-trial range shard `shard` owns. Ranges
    /// are near-equal (the first `total % shards` shards get one extra
    /// trial), disjoint, and concatenate — in shard order — to
    /// `0..total_trials()`. A shard index past the count, or a shard
    /// beyond the trial supply, owns an empty range.
    #[must_use]
    pub fn shard_range(&self, shard: u64) -> std::ops::Range<usize> {
        let total = self.total_trials();
        let shards = self.shards as usize;
        let s = shard as usize;
        if s >= shards {
            return total..total;
        }
        let base = total / shards;
        let extra = total % shards;
        let lo = s * base + s.min(extra);
        let len = base + usize::from(s < extra);
        lo..(lo + len).min(total)
    }

    /// Maps a global trial index to `(point_index, trial_within_point)`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is outside `0..total_trials()`.
    #[must_use]
    pub fn point_of(&self, g: usize) -> (usize, u64) {
        assert!(g < self.total_trials(), "trial index {g} out of range");
        let tpp = self.trials_per_point as usize;
        (g / tpp, (g % tpp) as u64)
    }

    /// A per-point seed derived from the master seed and the point's
    /// canonical JSON — convenient for fault-plan derivation that
    /// should not collide across points sharing a size.
    #[must_use]
    pub fn point_seed(&self, point: usize) -> u64 {
        let canon = self.points[point].to_json().to_compact();
        self.seed ^ fnv1a64(canon.as_bytes())
    }

    /// The manifest as its deterministic JSON document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Str(MANIFEST_SCHEMA.to_owned())),
            ("schema_version", Json::UInt(MANIFEST_SCHEMA_VERSION)),
            ("name", Json::Str(self.name.clone())),
            ("seed", Json::UInt(self.seed)),
            ("trials_per_point", Json::UInt(self.trials_per_point)),
            ("shards", Json::UInt(self.shards)),
            ("checkpoint_every", Json::UInt(self.checkpoint_every)),
            (
                "points",
                Json::Array(self.points.iter().map(GridPoint::to_json).collect()),
            ),
        ])
    }

    /// Parses and validates a manifest document.
    ///
    /// # Errors
    ///
    /// Rejects wrong schema/version, missing or mistyped fields, and
    /// anything [`Manifest::new`] rejects.
    pub fn from_json(value: &Json) -> Result<Manifest, String> {
        let schema = req_str(value, "schema")?;
        if schema != MANIFEST_SCHEMA {
            return Err(format!("not a sweep manifest: schema `{schema}`"));
        }
        let version = req_u64(value, "schema_version")?;
        if version != MANIFEST_SCHEMA_VERSION {
            return Err(format!("unsupported manifest schema version {version}"));
        }
        let points_json = value
            .get("points")
            .ok_or("missing field `points`")?
            .as_array()
            .ok_or("`points` must be an array")?;
        let points = points_json
            .iter()
            .map(GridPoint::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let m = Manifest {
            name: req_str(value, "name")?,
            seed: req_u64(value, "seed")?,
            trials_per_point: req_u64(value, "trials_per_point")?,
            shards: req_u64(value, "shards")?,
            checkpoint_every: req_u64(value, "checkpoint_every")?,
            points,
        };
        m.validate()?;
        Ok(m)
    }

    /// Content digest (16 hex digits) of the manifest's
    /// *result identity*: name, seed, trial count, and grid — the
    /// fields that determine the sweep's output. The shard partition
    /// and checkpoint cadence are deliberately excluded: they are
    /// execution details, and a 1-shard, 4-shard, and 7-shard run of
    /// the same sweep must merge to byte-identical reports. Checkpoints
    /// and merged reports carry this digest so artifacts from sweeps
    /// with *different results* can never be mixed; partition mismatches
    /// are caught separately by the per-shard range checks.
    #[must_use]
    pub fn digest(&self) -> String {
        Json::obj(vec![
            ("schema", Json::Str(MANIFEST_SCHEMA.to_owned())),
            ("schema_version", Json::UInt(MANIFEST_SCHEMA_VERSION)),
            ("name", Json::Str(self.name.clone())),
            ("seed", Json::UInt(self.seed)),
            ("trials_per_point", Json::UInt(self.trials_per_point)),
            (
                "points",
                Json::Array(self.points.iter().map(GridPoint::to_json).collect()),
            ),
        ])
        .digest()
    }

    /// Writes the manifest (pretty JSON) to `path` with
    /// [`sim_runtime::write_atomic`], so a reader sees the old file or
    /// the new one, never a torn mix.
    ///
    /// # Errors
    ///
    /// Propagates the I/O failure.
    pub fn save(&self, path: &str) -> std::io::Result<()> {
        sim_runtime::write_atomic(path, &self.to_json().to_pretty())
    }

    /// Reads and parses a manifest file.
    ///
    /// # Errors
    ///
    /// Returns a message for an unreadable file, malformed JSON, or an
    /// invalid document.
    pub fn load(path: &str) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read manifest `{path}`: {e}"))?;
        let value = sim_observe::parse(&text)
            .map_err(|e| format!("manifest `{path}` is not valid JSON: {e}"))?;
        Manifest::from_json(&value)
    }
}

pub(crate) fn req_str(value: &Json, name: &str) -> Result<String, String> {
    value
        .get(name)
        .ok_or_else(|| format!("missing field `{name}`"))?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("`{name}` must be a string"))
}

pub(crate) fn req_u64(value: &Json, name: &str) -> Result<u64, String> {
    match value.get(name) {
        Some(Json::UInt(v)) => Ok(*v),
        Some(_) => Err(format!("`{name}` must be a non-negative integer")),
        None => Err(format!("missing field `{name}`")),
    }
}

pub(crate) fn req_f64(value: &Json, name: &str) -> Result<f64, String> {
    value
        .get(name)
        .ok_or_else(|| format!("missing field `{name}`"))?
        .as_f64()
        .ok_or_else(|| format!("`{name}` must be a number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Manifest {
        Manifest::new(
            "demo",
            42,
            5,
            4,
            2,
            vec![
                GridPoint::new("global", "spine", 4, 0.0),
                GridPoint::new("hybrid", "mesh", 8, 0.01),
            ],
        )
        .expect("valid manifest")
    }

    #[test]
    fn json_round_trips_and_digest_is_stable() {
        let m = demo();
        let j = m.to_json();
        let back = Manifest::from_json(&j).expect("round trip");
        assert_eq!(back, m);
        assert_eq!(back.digest(), m.digest());
        assert_eq!(m.digest().len(), 16);
    }

    #[test]
    fn shard_ranges_partition_the_trial_range() {
        let m = demo(); // 10 trials, 4 shards -> 3,3,2,2
        let mut covered = Vec::new();
        for s in 0..m.shards {
            let r = m.shard_range(s);
            assert_eq!(r.start, covered.len());
            covered.extend(r);
        }
        assert_eq!(covered, (0..10).collect::<Vec<_>>());
        assert_eq!(m.shard_range(0).len(), 3);
        assert_eq!(m.shard_range(3).len(), 2);
        assert!(m.shard_range(99).is_empty());
    }

    #[test]
    fn more_shards_than_trials_leaves_trailing_shards_empty() {
        let m = Manifest::new("tiny", 1, 1, 7, 1, vec![GridPoint::new("a", "b", 2, 0.0)])
            .expect("valid");
        let lens: Vec<usize> = (0..7).map(|s| m.shard_range(s).len()).collect();
        assert_eq!(lens.iter().sum::<usize>(), 1);
        assert_eq!(lens[0], 1);
    }

    #[test]
    fn point_of_maps_global_trials() {
        let m = demo();
        assert_eq!(m.point_of(0), (0, 0));
        assert_eq!(m.point_of(4), (0, 4));
        assert_eq!(m.point_of(5), (1, 0));
        assert_eq!(m.point_of(9), (1, 4));
    }

    #[test]
    fn point_seeds_differ_across_points() {
        let m = demo();
        assert_ne!(m.point_seed(0), m.point_seed(1));
    }

    #[test]
    fn digest_ignores_the_execution_partition() {
        let m = demo();
        let mut repartitioned = m.clone();
        repartitioned.shards = 7;
        repartitioned.checkpoint_every = 1;
        assert_eq!(m.digest(), repartitioned.digest());
        let mut reseeded = m.clone();
        reseeded.seed += 1;
        assert_ne!(m.digest(), reseeded.digest());
    }

    #[test]
    fn validation_rejects_degenerate_manifests() {
        assert!(Manifest::new("x", 0, 0, 1, 1, vec![GridPoint::new("a", "b", 1, 0.0)]).is_err());
        assert!(Manifest::new("x", 0, 1, 0, 1, vec![GridPoint::new("a", "b", 1, 0.0)]).is_err());
        assert!(Manifest::new("x", 0, 1, 1, 0, vec![GridPoint::new("a", "b", 1, 0.0)]).is_err());
        assert!(Manifest::new("x", 0, 1, 1, 1, vec![]).is_err());
        let two = vec![GridPoint::new("a", "b", 1, 0.0); 2];
        let err = Manifest::new("x", 0, u64::MAX, 1, 1, two).expect_err("overflow");
        assert!(err.contains("overflows"), "{err}");
        let mut j = demo().to_json();
        if let Json::Object(pairs) = &mut j {
            pairs[0].1 = Json::Str("something/else".to_owned());
        }
        assert!(Manifest::from_json(&j).is_err());
    }

    #[test]
    fn every_truncation_of_a_saved_manifest_loads_whole_or_not_at_all() {
        let path = std::env::temp_dir()
            .join(format!("sim_sweep_manifest_{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned();
        demo().save(&path).expect("save");
        let full = std::fs::read(&path).expect("saved manifest");
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).expect("truncated manifest");
            match Manifest::load(&path) {
                Ok(m) => assert_eq!(m, demo(), "offset {cut}"),
                Err(_) => assert!(cut < full.len(), "the whole file loads"),
            }
        }
        assert!(!std::path::Path::new(&format!("{path}.tmp")).exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn labels_are_compact() {
        assert_eq!(
            GridPoint::new("global", "htree", 8, 0.01).label(),
            "global/htree/k=8@r=0.01"
        );
    }
}
