//! Atomic shard checkpoints.
//!
//! A checkpoint is the full prefix of a shard's results, written after
//! every `checkpoint_every` trials. Writes go to `<path>.tmp` and are
//! renamed into place: on POSIX the rename is atomic, so readers (and
//! a resuming shard) only ever see either the previous complete
//! checkpoint or the new complete checkpoint — never a truncation. A
//! leftover `.tmp` from a kill mid-write is garbage by construction
//! and is simply overwritten by the next save.

use crate::manifest::{req_str, req_u64};
use sim_observe::Json;

/// Schema identifier of the checkpoint JSON document.
pub const CHECKPOINT_SCHEMA: &str = "vlsi-sync/sweep-checkpoint";
/// Current checkpoint schema version.
pub const CHECKPOINT_SCHEMA_VERSION: u64 = 1;

/// One shard's persisted progress: identity (which manifest, which
/// shard, which global range) plus the ordered result prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// [`Manifest::digest`](crate::Manifest::digest) of the sweep this
    /// shard belongs to. A digest mismatch at resume or merge time is
    /// an error, never silently mixed.
    pub manifest_digest: String,
    /// Shard index within the manifest's partition.
    pub shard: u64,
    /// First global trial index this shard owns (inclusive).
    pub lo: u64,
    /// One past the last global trial index this shard owns.
    pub hi: u64,
    /// Trials completed so far; always equals `results.len()`.
    pub completed: u64,
    /// Wall-clock milliseconds spent so far — volatile, excluded from
    /// the merged report.
    pub wall_ms: f64,
    /// Per-trial results for global trials `lo .. lo + completed`, in
    /// global-trial order.
    pub results: Vec<Json>,
}

impl Checkpoint {
    /// Whether the shard has finished its whole range.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.lo + self.completed == self.hi
    }

    /// The checkpoint as its deterministic JSON document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Str(CHECKPOINT_SCHEMA.to_owned())),
            ("schema_version", Json::UInt(CHECKPOINT_SCHEMA_VERSION)),
            ("manifest_digest", Json::Str(self.manifest_digest.clone())),
            ("shard", Json::UInt(self.shard)),
            ("lo", Json::UInt(self.lo)),
            ("hi", Json::UInt(self.hi)),
            ("completed", Json::UInt(self.completed)),
            ("wall_ms", Json::Float(self.wall_ms)),
            ("results", Json::Array(self.results.clone())),
        ])
    }

    /// Parses and validates a checkpoint document.
    ///
    /// # Errors
    ///
    /// Rejects wrong schema/version, missing or mistyped fields, a
    /// result count that disagrees with `completed`, and a `completed`
    /// past the range end.
    pub fn from_json(value: &Json) -> Result<Checkpoint, String> {
        let schema = req_str(value, "schema")?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(format!("not a sweep checkpoint: schema `{schema}`"));
        }
        let version = req_u64(value, "schema_version")?;
        if version != CHECKPOINT_SCHEMA_VERSION {
            return Err(format!("unsupported checkpoint schema version {version}"));
        }
        let results = value
            .get("results")
            .ok_or("missing field `results`")?
            .as_array()
            .ok_or("`results` must be an array")?
            .to_vec();
        let cp = Checkpoint {
            manifest_digest: req_str(value, "manifest_digest")?,
            shard: req_u64(value, "shard")?,
            lo: req_u64(value, "lo")?,
            hi: req_u64(value, "hi")?,
            completed: req_u64(value, "completed")?,
            wall_ms: value.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0),
            results,
        };
        if cp.results.len() as u64 != cp.completed {
            return Err(format!(
                "checkpoint claims {} completed trials but holds {} results",
                cp.completed,
                cp.results.len()
            ));
        }
        if cp.lo + cp.completed > cp.hi {
            return Err(format!(
                "checkpoint progress {}+{} overruns range end {}",
                cp.lo, cp.completed, cp.hi
            ));
        }
        Ok(cp)
    }

    /// Writes the checkpoint atomically with
    /// [`sim_runtime::write_atomic`]: serialize to `<path>.tmp`, then
    /// rename over `path`. Creates missing parent directories.
    ///
    /// # Errors
    ///
    /// Propagates the write or rename failure.
    pub fn save_atomic(&self, path: &str) -> std::io::Result<()> {
        sim_runtime::write_atomic(path, &self.to_json().to_pretty())
    }

    /// Reads and parses a checkpoint file.
    ///
    /// # Errors
    ///
    /// Returns a message for an unreadable file, malformed JSON, or an
    /// invalid document.
    pub fn load(path: &str) -> Result<Checkpoint, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read checkpoint `{path}`: {e}"))?;
        let value = sim_observe::parse(&text)
            .map_err(|e| format!("checkpoint `{path}` is not valid JSON: {e}"))?;
        Checkpoint::from_json(&value)
    }

    /// Best-effort load for resume: `None` when the file is absent
    /// *or* unusable (corrupt JSON, wrong digest would be caught by
    /// the caller). A shard that cannot trust its checkpoint restarts
    /// from scratch rather than dying — the atomic-save protocol makes
    /// corruption unreachable in normal operation, so this path only
    /// fires on external damage.
    #[must_use]
    pub fn recover(path: &str) -> Option<Checkpoint> {
        if !std::path::Path::new(path).exists() {
            return None;
        }
        match Checkpoint::load(path) {
            Ok(cp) => Some(cp),
            Err(err) => {
                eprintln!("warning: discarding unusable checkpoint: {err}");
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("sim_sweep_cp_{}_{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    fn demo() -> Checkpoint {
        Checkpoint {
            manifest_digest: "00aa11bb22cc33dd".to_owned(),
            shard: 1,
            lo: 10,
            hi: 20,
            completed: 3,
            wall_ms: 12.5,
            results: vec![Json::UInt(10), Json::UInt(11), Json::UInt(12)],
        }
    }

    #[test]
    fn save_atomic_round_trips_and_leaves_no_tmp() {
        let path = tmp_path("roundtrip");
        demo().save_atomic(&path).expect("save");
        assert!(!std::path::Path::new(&format!("{path}.tmp")).exists());
        let back = Checkpoint::load(&path).expect("load");
        assert_eq!(back, demo());
        assert!(!back.is_complete());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_writes_are_invisible_to_readers() {
        // A kill mid-write leaves garbage in `.tmp`; the real
        // checkpoint keeps its previous complete contents.
        let path = tmp_path("torn");
        demo().save_atomic(&path).expect("save");
        std::fs::write(format!("{path}.tmp"), "{\"schema\":\"vlsi-sync/swee").expect("torn tmp");
        let back = Checkpoint::load(&path).expect("load survives torn tmp");
        assert_eq!(back, demo());
        // The next atomic save simply overwrites the garbage.
        let mut cp = demo();
        cp.completed = 4;
        cp.results.push(Json::UInt(13));
        cp.save_atomic(&path).expect("save over torn tmp");
        assert_eq!(Checkpoint::load(&path).expect("load").completed, 4);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(format!("{path}.tmp"));
    }

    #[test]
    fn truncated_checkpoint_is_recovered_as_absent() {
        let path = tmp_path("truncated");
        std::fs::write(&path, "{\"schema\":\"vlsi-sync/sweep-checkpoint\",\"res").expect("write");
        assert!(Checkpoint::load(&path).is_err());
        assert!(Checkpoint::recover(&path).is_none());
        let _ = std::fs::remove_file(&path);
        assert!(Checkpoint::recover(&path).is_none(), "absent file is None");
    }

    #[test]
    fn validation_rejects_inconsistent_documents() {
        let mut lying = demo();
        lying.completed = 5; // holds 3 results
        assert!(Checkpoint::from_json(&lying.to_json()).is_err());
        let mut overrun = demo();
        overrun.completed = 11; // lo 10 + 11 > hi 20
        overrun.results = (0..11).map(Json::UInt).collect();
        assert!(Checkpoint::from_json(&overrun.to_json()).is_err());
    }
}
