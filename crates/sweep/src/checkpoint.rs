//! Append-only shard checkpoints.
//!
//! A checkpoint is the prefix of a shard's results, kept at
//! `shard-N.json` as a journal (schema version 2):
//!
//! ```text
//! {"schema":"vlsi-sync/sweep-checkpoint","schema_version":2,"manifest_digest":"…","shard":1,"lo":10,"hi":20}
//! 5d0e6a1c9f3b2e47 {"pi":0,"size":2,"t":0,"draw":531.0}
//! …
//! ```
//!
//! The header line names the sweep and the shard's global range. Each
//! further line is one result, in global-trial order: the 16-hex
//! [`fnv1a64`] of its compact JSON, a space, and the JSON. At every
//! boundary the shard runner appends the results that arrived since
//! the previous boundary in one write, so each result is written once
//! and a checkpoint costs what it adds, not the whole prefix.
//!
//! The file is safe against a killed writer, not against power loss:
//! nothing is fsynced. A kill mid-append leaves a last line that is
//! unterminated or fails its checksum. [`Checkpoint::load`] drops that
//! torn line, and a resuming shard truncates the file to its intact
//! lines before appending. A bad line with more lines after it cannot
//! come from a torn append: it is damage, and the file is refused.
//!
//! Version-1 files (one pretty-printed document, rewritten whole at
//! every boundary) are refused like any other unsupported version: a
//! resuming shard discards one and restarts.

use crate::manifest::{req_str, req_u64};
use sim_observe::{fnv1a64, Json};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write as _;

/// Schema identifier of the checkpoint header.
pub const CHECKPOINT_SCHEMA: &str = "vlsi-sync/sweep-checkpoint";
/// Current checkpoint schema version: 2, the append-only journal.
pub const CHECKPOINT_SCHEMA_VERSION: u64 = 2;

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
    /// Per-trial results for global trials `lo .. lo + completed`, in
    /// global-trial order.
    pub results: Vec<Json>,
}

impl Checkpoint {
    /// Whether the shard has finished its whole range.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.hi.checked_sub(self.lo) == Some(self.completed)
    }

    /// The exact bytes of a journal holding this checkpoint: the
    /// header line, then one checksummed line per result.
    #[must_use]
    pub fn to_journal(&self) -> String {
        let mut out = header_line(&self.manifest_digest, self.shard, self.lo, self.hi);
        for result in &self.results {
            push_line(&mut out, result);
        }
        out
    }

    /// Reads a checkpoint journal. A torn last line is dropped, so
    /// `completed` counts the intact lines.
    ///
    /// # Errors
    ///
    /// Returns a message for an unreadable file, a torn or malformed
    /// header, a damaged line with lines after it, a wrong schema or
    /// version, and progress past the range end.
    pub fn load(path: &str) -> Result<Checkpoint, String> {
        read(path).map(|(cp, _)| cp)
    }
}

/// Reads and validates the checkpoint at `path`, with the byte length
/// of its intact lines.
fn read(path: &str) -> Result<(Checkpoint, u64), String> {
    let bytes =
        std::fs::read(path).map_err(|e| format!("cannot read checkpoint `{path}`: {e}"))?;
    let header_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| format!("checkpoint `{path}` has a torn header"))?;
    let json = |b: &[u8]| std::str::from_utf8(b).ok().and_then(|t| sim_observe::parse(t).ok());
    let Some(header) = json(&bytes[..header_end]) else {
        // A whole pretty-printed document, as version 1 wrote, is
        // refused by its own schema fields.
        let refusal = json(&bytes).and_then(|doc| check_schema(&doc).err());
        return Err(
            refusal.unwrap_or_else(|| format!("checkpoint `{path}` has a malformed header")),
        );
    };
    check_schema(&header)?;
    let (results, intact) = decode_lines(&bytes[header_end + 1..])
        .map_err(|n| format!("checkpoint `{path}` is damaged at result line {n}"))?;
    let cp = Checkpoint {
        manifest_digest: req_str(&header, "manifest_digest")?,
        shard: req_u64(&header, "shard")?,
        lo: req_u64(&header, "lo")?,
        hi: req_u64(&header, "hi")?,
        completed: results.len() as u64,
        results,
    };
    check_progress("checkpoint", cp.lo, cp.completed, cp.hi)?;
    Ok((cp, (header_end + 1 + intact) as u64))
}

fn check_schema(value: &Json) -> Result<(), String> {
    let schema = req_str(value, "schema")?;
    if schema != CHECKPOINT_SCHEMA {
        return Err(format!("not a sweep checkpoint: schema `{schema}`"));
    }
    let version = req_u64(value, "schema_version")?;
    if version != CHECKPOINT_SCHEMA_VERSION {
        return Err(format!("unsupported checkpoint schema version {version}"));
    }
    Ok(())
}

/// Refuses `completed` trials from `lo` that run past `hi`, without
/// overflowing on a hostile `lo`.
pub(crate) fn check_progress(what: &str, lo: u64, completed: u64, hi: u64) -> Result<(), String> {
    if lo.checked_add(completed).is_none_or(|end| end > hi) {
        return Err(format!(
            "{what} progress {lo}+{completed} overruns range end {hi}"
        ));
    }
    Ok(())
}

/// The journal header: the checkpoint's identity, compact, on one line.
fn header_line(digest: &str, shard: u64, lo: u64, hi: u64) -> String {
    let mut line = Json::obj(vec![
        ("schema", Json::Str(CHECKPOINT_SCHEMA.to_owned())),
        ("schema_version", Json::UInt(CHECKPOINT_SCHEMA_VERSION)),
        ("manifest_digest", Json::Str(digest.to_owned())),
        ("shard", Json::UInt(shard)),
        ("lo", Json::UInt(lo)),
        ("hi", Json::UInt(hi)),
    ])
    .to_compact();
    line.push('\n');
    line
}

/// Appends one journal line: checksum, space, compact JSON, newline.
pub(crate) fn push_line(out: &mut String, result: &Json) {
    let json = result.to_compact();
    let _ = writeln!(out, "{:016x} {json}", fnv1a64(json.as_bytes()));
}

/// Decodes a run of checksummed lines under the journal's torn-line
/// rule, for checkpoints and vitals alike. A bad last line,
/// unterminated or failing its checksum, is a torn append and is
/// dropped. Returns the decoded lines and the byte length of the
/// intact ones, or the 1-based number of a bad line with lines after
/// it, which no torn append leaves.
pub(crate) fn decode_lines(bytes: &[u8]) -> Result<(Vec<Json>, usize), usize> {
    let mut lines = Vec::new();
    let mut intact = 0;
    while intact < bytes.len() {
        let rest = &bytes[intact..];
        let newline = rest.iter().position(|&b| b == b'\n');
        let line = &rest[..newline.unwrap_or(rest.len())];
        match newline.and_then(|_| decode_line(line)) {
            Some(value) => {
                lines.push(value);
                intact += line.len() + 1;
            }
            None if intact + line.len() + 1 >= bytes.len() => break,
            None => return Err(lines.len() + 1),
        }
    }
    Ok((lines, intact))
}

/// The value on a journal line (its newline stripped), or `None` when
/// the checksum or the JSON does not hold.
fn decode_line(line: &[u8]) -> Option<Json> {
    let text = std::str::from_utf8(line).ok()?;
    let (sum, json) = (text.get(..16)?, text.get(16..)?.strip_prefix(' ')?);
    if !sum.bytes().all(|b| b.is_ascii_hexdigit())
        || u64::from_str_radix(sum, 16).ok()? != fnv1a64(json.as_bytes())
    {
        return None;
    }
    sim_observe::parse(json).ok()
}

/// Best-effort read for resume: `None` when the file is absent or
/// unusable (a torn header, damage, a wrong schema or version). A torn
/// header only means the shard's first append was cut short, and
/// anything else is external damage or a format this reader no longer
/// takes: either way the shard restarts from scratch rather than dying.
fn recover(path: &str) -> Option<(Checkpoint, u64)> {
    if !std::path::Path::new(path).exists() {
        return None;
    }
    match read(path) {
        Ok(found) => Some(found),
        Err(err) => {
            eprintln!("warning: discarding unusable checkpoint: {err}");
            None
        }
    }
}

/// An append-only journal file: the lines pushed since the last
/// [`flush`](Journal::flush), and the file they go to. Checkpoints and
/// vitals both write through one. Nothing is written on drop, so a
/// shard that stops between boundaries leaves the last boundary's
/// lines.
#[derive(Debug)]
pub(crate) struct Journal {
    path: String,
    /// `None` until the first flush of a fresh journal creates the file.
    file: Option<File>,
    pending: String,
}

impl Journal {
    /// A journal that replaces whatever is at `path` at its first
    /// flush, which writes `head` first.
    pub(crate) fn fresh(path: &str, head: String) -> Journal {
        Journal {
            path: path.to_owned(),
            file: None,
            pending: head,
        }
    }

    /// Reopens the journal at `path` for appending, cut to its first
    /// `intact` bytes.
    ///
    /// # Errors
    ///
    /// Propagates the open or truncate failure.
    pub(crate) fn resume(path: &str, intact: u64) -> std::io::Result<Journal> {
        let file = OpenOptions::new().append(true).open(path)?;
        file.set_len(intact)?;
        Ok(Journal {
            path: path.to_owned(),
            file: Some(file),
            pending: String::new(),
        })
    }

    /// Opens shard `shard`'s checkpoint at `path` for appending and
    /// returns it with the number of results already on disk. An
    /// intact prefix is resumed, truncated to its intact lines. A
    /// missing or unusable file starts a fresh journal, which replaces
    /// it at the first flush.
    ///
    /// # Errors
    ///
    /// Refuses a checkpoint of another manifest, shard or range, and
    /// reports a failure to reopen the file.
    pub(crate) fn open_checkpoint(
        path: &str,
        digest: &str,
        shard: u64,
        lo: u64,
        hi: u64,
    ) -> Result<(Journal, u64), String> {
        let Some((cp, intact)) = recover(path) else {
            return Ok((Journal::fresh(path, header_line(digest, shard, lo, hi)), 0));
        };
        if cp.manifest_digest != digest {
            return Err(format!(
                "checkpoint `{path}` belongs to manifest {}, not {digest}",
                cp.manifest_digest
            ));
        }
        if cp.shard != shard || cp.lo != lo || cp.hi != hi {
            return Err(format!(
                "checkpoint `{path}` covers shard {} range {}..{}, expected shard {shard} range {lo}..{hi}",
                cp.shard, cp.lo, cp.hi
            ));
        }
        let journal = Journal::resume(path, intact)
            .map_err(|e| format!("cannot write checkpoint `{path}`: {e}"))?;
        Ok((journal, cp.completed))
    }

    /// Queues one line for the next flush.
    pub(crate) fn push(&mut self, value: &Json) {
        push_line(&mut self.pending, value);
    }

    /// Appends every queued line in one write. The first flush of a
    /// fresh journal creates the file, and any missing parent
    /// directories.
    ///
    /// # Errors
    ///
    /// Propagates the create or write failure; the queued lines are
    /// dropped either way.
    pub(crate) fn flush(&mut self) -> std::io::Result<()> {
        let pending = std::mem::take(&mut self.pending);
        let file = match &mut self.file {
            Some(file) => file,
            None => {
                let path = std::path::Path::new(&self.path);
                if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                    std::fs::create_dir_all(dir)?;
                }
                self.file.insert(File::create(path)?)
            }
        };
        file.write_all(pending.as_bytes())
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

    fn demo_with(completed: u64) -> Checkpoint {
        Checkpoint {
            manifest_digest: "00aa11bb22cc33dd".to_owned(),
            shard: 1,
            lo: 10,
            hi: 20,
            completed,
            results: (0..completed)
                .map(|i| Json::obj(vec![("g", Json::UInt(10 + i)), ("x", Json::Float(0.5))]))
                .collect(),
        }
    }

    fn demo() -> Checkpoint {
        demo_with(3)
    }

    fn open(path: &str) -> (Journal, u64) {
        let cp = demo();
        Journal::open_checkpoint(path, &cp.manifest_digest, cp.shard, cp.lo, cp.hi).expect("open")
    }

    #[test]
    fn journal_round_trips_and_appends_only_new_lines() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let (mut journal, done) = open(&path);
        assert_eq!(done, 0);
        assert!(!std::path::Path::new(&path).exists(), "created at the first flush");
        let all = demo();
        for (n, result) in all.results.iter().enumerate() {
            journal.push(result);
            journal.flush().expect("flush");
            let want = demo_with(n as u64 + 1);
            assert_eq!(std::fs::read_to_string(&path).expect("read"), want.to_journal());
            assert_eq!(Checkpoint::load(&path).expect("load"), want);
        }
        // No temp file is involved in the append protocol.
        assert!(!std::path::Path::new(&format!("{path}.tmp")).exists());
        let back = Checkpoint::load(&path).expect("load");
        assert_eq!(back, demo());
        assert!(!back.is_complete());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_appends_are_invisible_to_readers() {
        // A kill mid-append leaves a partial last line; readers see the
        // previous boundary's prefix.
        let path = tmp_path("torn");
        let text = demo().to_journal();
        std::fs::write(&path, format!("{text}0123abcd {{\"g\":1")).expect("torn journal");
        assert_eq!(Checkpoint::load(&path).expect("load survives a torn line"), demo());
        // A terminated last line with a bad checksum is torn too.
        std::fs::write(&path, format!("{text}0000000000000000 {{\"g\":13}}\n")).expect("bad sum");
        assert_eq!(Checkpoint::load(&path).expect("load"), demo());
        // Resuming truncates the torn line away before appending.
        let (mut journal, done) = open(&path);
        assert_eq!(done, 3);
        let next = demo_with(4);
        journal.push(&next.results[3]);
        journal.flush().expect("append over torn tail");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), next.to_journal());
        assert_eq!(Checkpoint::load(&path).expect("load"), next);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_checkpoint_is_recovered_as_absent() {
        let path = tmp_path("truncated");
        std::fs::write(&path, "{\"schema\":\"vlsi-sync/sweep-checkpoint\",\"res").expect("write");
        assert!(Checkpoint::load(&path).is_err());
        assert!(recover(&path).is_none());
        let _ = std::fs::remove_file(&path);
        assert!(recover(&path).is_none(), "absent file is None");
    }

    #[test]
    fn validation_rejects_inconsistent_documents() {
        let path = tmp_path("inconsistent");
        let overrun = Checkpoint {
            hi: 12, // lo 10 + 3 > 12
            ..demo()
        };
        std::fs::write(&path, overrun.to_journal()).expect("write");
        assert!(Checkpoint::load(&path).expect_err("overrun").contains("overruns"));
        // A hostile `lo` is refused, not added into an overflow.
        let hostile = demo_with(1)
            .to_journal()
            .replacen("\"lo\":10", &format!("\"lo\":{}", u64::MAX), 1);
        std::fs::write(&path, hostile).expect("write");
        assert!(Checkpoint::load(&path).expect_err("lo overflow").contains("overruns"));
        let wrapped = Checkpoint {
            lo: u64::MAX,
            hi: 0,
            ..demo_with(1)
        };
        assert!(!wrapped.is_complete());
        let foreign = demo().to_journal().replace("sweep-checkpoint", "sweep-manifest");
        std::fs::write(&path, foreign).expect("write");
        assert!(Checkpoint::load(&path).expect_err("schema").contains("not a sweep checkpoint"));
        let _ = std::fs::remove_file(&path);
    }
}
