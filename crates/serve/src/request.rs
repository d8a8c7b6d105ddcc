//! [`Request`]: the normalized experiment request and its content
//! address.
//!
//! Correctness of the whole serving layer hangs on one property:
//! **semantically identical requests must hash identically**. The
//! cache, the single-flight table, and the hot/cold split of the load
//! generator all key on the canonical form produced here, so
//! normalization happens in exactly one place:
//!
//! * absent fields are default-filled (`seed` 1, `trials` null,
//!   `params.fast` false), so
//!   `{"experiment":"e2"}` and `{"experiment":"e2","seed":1}` are the
//!   same request;
//! * field order is fixed by [`Request::canonical_json`] regardless of
//!   the order the client sent them in;
//! * unknown fields are rejected rather than ignored — a typo like
//!   `"sead"` must not silently address a different cache entry.
//!
//! The content address is the FNV-1a hash of the canonical bytes. The
//! cache stores full canonical strings and compares them on lookup, so
//! a hash collision can never serve the wrong body — the hex key is a
//! compact handle, not a trusted identity.

use sim_observe::Json;
use sim_runtime::ExpConfig;

/// Version of the request wire schema, embedded in the canonical form
/// (bump on any incompatible change — old and new requests must not
/// collide in a shared cache). Version 2 dropped the reserved
/// fault-rate override field.
pub const REQUEST_SCHEMA_VERSION: u64 = 2;

/// A validated, default-filled experiment request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Registry name of the experiment (`"e1"`…`"e12"`).
    pub experiment: String,
    /// Root RNG seed (default 1, matching the CLI).
    pub seed: u64,
    /// Monte-Carlo trial override; `None` → the experiment default.
    pub trials: Option<usize>,
    /// Reduced-size smoke mode (the CLI's `--fast`).
    pub fast: bool,
}

impl Request {
    /// A request for `experiment` with every other field defaulted.
    #[must_use]
    pub fn new(experiment: &str) -> Self {
        Request {
            experiment: experiment.to_owned(),
            seed: 1,
            trials: None,
            fast: false,
        }
    }

    /// Parses and normalizes a request object (the payload of a `run`
    /// op). Ignores the routing field `op`; rejects every other
    /// unknown key.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending field on
    /// missing/unknown keys, wrong types, or out-of-range values.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let pairs = doc
            .as_object()
            .ok_or_else(|| "request must be a JSON object".to_owned())?;
        // First pass: the experiment name (required, and needed before
        // the defaults make sense).
        let experiment = pairs
            .iter()
            .find(|(k, _)| k == "experiment")
            .map(|(_, v)| v)
            .ok_or_else(|| "request is missing the `experiment` field".to_owned())?
            .as_str()
            .ok_or_else(|| "`experiment` must be a string".to_owned())?;
        if experiment.is_empty() {
            return Err("`experiment` must be a non-empty string".to_owned());
        }
        let mut req = Request::new(experiment);
        for (key, value) in pairs {
            match key.as_str() {
                "op" | "experiment" => {}
                "seed" => req.seed = uint_field("seed", value)?,
                "trials" => {
                    req.trials = match value {
                        Json::Null => None,
                        _ => {
                            let t = uint_field("trials", value)?;
                            if t == 0 {
                                return Err("`trials` must be at least 1".to_owned());
                            }
                            Some(usize::try_from(t).map_err(|_| {
                                "`trials` exceeds the platform limit".to_owned()
                            })?)
                        }
                    };
                }
                "params" => {
                    let params = value
                        .as_object()
                        .ok_or_else(|| "`params` must be a JSON object".to_owned())?;
                    for (pk, pv) in params {
                        match (pk.as_str(), pv) {
                            ("fast", Json::Bool(b)) => req.fast = *b,
                            ("fast", _) => {
                                return Err("`params.fast` must be a boolean".to_owned())
                            }
                            (other, _) => {
                                return Err(format!(
                                    "unknown params field `{other}` (known: fast)"
                                ))
                            }
                        }
                    }
                }
                other => {
                    return Err(format!(
                        "unknown request field `{other}` \
                         (known: experiment, seed, trials, params)"
                    ))
                }
            }
        }
        Ok(req)
    }

    /// The canonical JSON form: schema version first, then every field
    /// in fixed order with defaults filled in. Two requests are the
    /// same cache entry iff these trees serialize to the same bytes.
    #[must_use]
    pub fn canonical_json(&self) -> Json {
        Json::obj(vec![
            ("v", Json::UInt(REQUEST_SCHEMA_VERSION)),
            ("experiment", Json::from(self.experiment.as_str())),
            ("seed", Json::UInt(self.seed)),
            (
                "trials",
                self.trials.map_or(Json::Null, |t| Json::UInt(t as u64)),
            ),
            ("params", Json::obj(vec![("fast", Json::Bool(self.fast))])),
        ])
    }

    /// The canonical compact serialization — the cache's true key.
    #[must_use]
    pub fn canonical(&self) -> String {
        self.canonical_json().to_compact()
    }

    /// The content address: FNV-1a 64 over the canonical bytes, as 16
    /// hex digits. Compact handle for logs and response headers; the
    /// cache always verifies the full canonical string.
    #[must_use]
    pub fn key(&self) -> String {
        format!("{:016x}", fnv1a64(self.canonical().as_bytes()))
    }

    /// The [`ExpConfig`] this request prescribes. `threads` is the
    /// server's per-job parallelism — a *volatile* execution detail
    /// that deliberately does not participate in the canonical form,
    /// because reports are byte-identical across thread counts.
    #[must_use]
    pub fn exp_config(&self, threads: usize) -> ExpConfig {
        ExpConfig {
            trials: self.trials,
            seed: self.seed,
            threads,
            fast: self.fast,
            ..ExpConfig::default()
        }
    }
}

fn uint_field(name: &str, value: &Json) -> Result<u64, String> {
    match value {
        Json::UInt(v) => Ok(*v),
        _ => Err(format!("`{name}` must be a non-negative integer")),
    }
}

/// A validated, default-filled `frontier` request: serve the Pareto
/// frontier of the design-space sweep (scheme × topology × size ×
/// fault-rate) at a given seed and trial count.
///
/// Normalized exactly like [`Request`]: absent fields default-fill
/// (`seed` 1, `trials` null → the server default, `fast` false),
/// unknown fields are rejected, and the canonical form fixes the field
/// order — so the frontier body is cached and single-flighted under
/// the same discipline as experiment reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontierRequest {
    /// Root RNG seed of the sweep (default 1).
    pub seed: u64,
    /// Trials per grid point; `None` → [`FrontierRequest::DEFAULT_TRIALS`].
    pub trials: Option<u64>,
    /// Use the reduced fast grid (fewer array sizes).
    pub fast: bool,
}

impl Default for FrontierRequest {
    fn default() -> Self {
        FrontierRequest {
            seed: 1,
            trials: None,
            fast: false,
        }
    }
}

impl FrontierRequest {
    /// Trials per grid point when the request leaves `trials` null.
    pub const DEFAULT_TRIALS: u64 = 40;

    /// Parses and normalizes a `frontier` op payload. Ignores the
    /// routing field `op`; rejects every other unknown key.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending field on
    /// unknown keys, wrong types, or zero `trials`.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let pairs = doc
            .as_object()
            .ok_or_else(|| "request must be a JSON object".to_owned())?;
        let mut req = FrontierRequest::default();
        for (key, value) in pairs {
            match key.as_str() {
                "op" => {}
                "seed" => req.seed = uint_field("seed", value)?,
                "trials" => {
                    req.trials = match value {
                        Json::Null => None,
                        _ => {
                            let t = uint_field("trials", value)?;
                            if t == 0 {
                                return Err("`trials` must be at least 1".to_owned());
                            }
                            Some(t)
                        }
                    };
                }
                "fast" => {
                    req.fast = match value {
                        Json::Bool(b) => *b,
                        _ => return Err("`fast` must be a boolean".to_owned()),
                    };
                }
                other => {
                    return Err(format!(
                        "unknown frontier field `{other}` (known: seed, trials, fast)"
                    ))
                }
            }
        }
        Ok(req)
    }

    /// The canonical JSON form; carries the op tag so frontier bodies
    /// can never collide with experiment reports in a shared cache.
    #[must_use]
    pub fn canonical_json(&self) -> Json {
        Json::obj(vec![
            ("v", Json::UInt(REQUEST_SCHEMA_VERSION)),
            ("op", Json::from("frontier")),
            ("seed", Json::UInt(self.seed)),
            ("trials", self.trials.map_or(Json::Null, Json::UInt)),
            ("fast", Json::Bool(self.fast)),
        ])
    }

    /// The canonical compact serialization — the cache's true key.
    #[must_use]
    pub fn canonical(&self) -> String {
        self.canonical_json().to_compact()
    }

    /// The content address: FNV-1a 64 over the canonical bytes, as 16
    /// hex digits.
    #[must_use]
    pub fn key(&self) -> String {
        format!("{:016x}", fnv1a64(self.canonical().as_bytes()))
    }
}

// The hash itself now lives in sim-observe (manifests and checkpoints
// digest with the same function); re-exported here so existing callers
// of `sim_serve::request::fnv1a64` keep compiling.
pub use sim_observe::fnv1a64;

#[cfg(test)]
mod tests {
    use super::*;
    use sim_observe::json::parse;

    fn req(doc: &str) -> Result<Request, String> {
        Request::from_json(&parse(doc).expect("test doc is valid JSON"))
    }

    #[test]
    fn defaults_fill_and_explicit_defaults_normalize_identically() {
        let minimal = req(r#"{"experiment":"e2"}"#).unwrap();
        let spelled = req(
            r#"{"experiment":"e2","seed":1,"trials":null,"params":{"fast":false}}"#,
        )
        .unwrap();
        assert_eq!(minimal, spelled);
        assert_eq!(minimal.canonical(), spelled.canonical());
        assert_eq!(minimal.key(), spelled.key());
    }

    #[test]
    fn field_order_does_not_matter() {
        let a = req(r#"{"experiment":"e3","seed":9,"params":{"fast":true}}"#).unwrap();
        let b = req(r#"{"params":{"fast":true},"seed":9,"experiment":"e3"}"#).unwrap();
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn semantically_different_requests_hash_differently() {
        let base = req(r#"{"experiment":"e2","seed":42}"#).unwrap();
        for other in [
            r#"{"experiment":"e2","seed":43}"#,
            r#"{"experiment":"e3","seed":42}"#,
            r#"{"experiment":"e2","seed":42,"trials":5}"#,
            r#"{"experiment":"e2","seed":42,"params":{"fast":true}}"#,
        ] {
            let o = req(other).unwrap();
            assert_ne!(base.canonical(), o.canonical(), "{other}");
            assert_ne!(base.key(), o.key(), "{other}");
        }
    }

    #[test]
    fn canonical_form_is_stable_bytes() {
        let r = req(r#"{"experiment":"e2","seed":42,"params":{"fast":true}}"#).unwrap();
        assert_eq!(
            r.canonical(),
            r#"{"v":2,"experiment":"e2","seed":42,"trials":null,"params":{"fast":true}}"#
        );
        // The canonical form is a wire format, not a request: its `v`
        // marker is rejected if fed straight back in...
        let err = req(&r.canonical()).unwrap_err();
        assert!(err.contains("unknown request field `v`"), "{err}");
        // ...but with the marker stripped it round-trips to an equal
        // request.
        let back = req(&r.canonical().replace(r#""v":2,"#, "")).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn malformed_requests_are_rejected_with_field_names() {
        for (doc, needle) in [
            (r#"{}"#, "missing the `experiment`"),
            (r#"{"experiment":""}"#, "non-empty"),
            (r#"{"experiment":7}"#, "`experiment` must be a string"),
            (r#"{"experiment":"e2","seed":-1}"#, "`seed` must be"),
            (r#"{"experiment":"e2","seed":1.5}"#, "`seed` must be"),
            (r#"{"experiment":"e2","trials":0}"#, "`trials` must be at least 1"),
            (r#"{"experiment":"e2","trials":"many"}"#, "`trials` must be"),
            (r#"{"experiment":"e2","params":{"fast":1}}"#, "`params.fast`"),
            (r#"{"experiment":"e2","params":{"threads":4}}"#, "unknown params field"),
            (r#"{"experiment":"e2","sead":1}"#, "unknown request field `sead`"),
            (r#"[1]"#, "must be a JSON object"),
        ] {
            let err = req(doc).expect_err(&format!("{doc} must be rejected"));
            assert!(err.contains(needle), "{doc}: got `{err}`");
        }
        // `op` is routing metadata, not an unknown field.
        assert!(req(r#"{"op":"run","experiment":"e2"}"#).is_ok());
    }

    #[test]
    fn exp_config_mirrors_the_request_but_not_threads() {
        let r = req(r#"{"experiment":"e5","seed":7,"trials":12,"params":{"fast":true}}"#)
            .unwrap();
        let cfg = r.exp_config(3);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.trials, Some(12));
        assert!(cfg.fast);
        assert_eq!(cfg.threads, 3);
        // threads is volatile: same canonical form for any value.
        assert_eq!(r.canonical(), r.clone().canonical());
    }

    #[test]
    fn frontier_requests_normalize_and_hash_like_runs() {
        let freq = |doc: &str| {
            FrontierRequest::from_json(&parse(doc).expect("valid test doc"))
        };
        let minimal = freq(r#"{"op":"frontier"}"#).unwrap();
        let spelled = freq(r#"{"op":"frontier","seed":1,"trials":null,"fast":false}"#).unwrap();
        assert_eq!(minimal, spelled);
        assert_eq!(
            minimal.canonical(),
            r#"{"v":2,"op":"frontier","seed":1,"trials":null,"fast":false}"#
        );
        assert_eq!(minimal.key(), spelled.key());
        // Different parameters address different cache entries.
        let other = freq(r#"{"op":"frontier","seed":2}"#).unwrap();
        assert_ne!(minimal.canonical(), other.canonical());
        // And a frontier request never collides with a run request.
        assert!(!minimal.canonical().starts_with(r#"{"v":2,"experiment""#));
        // Malformed payloads name the offending field.
        for (doc, needle) in [
            (r#"{"op":"frontier","trials":0}"#, "at least 1"),
            (r#"{"op":"frontier","fast":1}"#, "`fast` must be a boolean"),
            (r#"{"op":"frontier","experiment":"e2"}"#, "unknown frontier field"),
        ] {
            let err = freq(doc).expect_err(doc);
            assert!(err.contains(needle), "{doc}: got `{err}`");
        }
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        let k = Request::new("e1").key();
        assert_eq!(k.len(), 16);
        assert!(k.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
