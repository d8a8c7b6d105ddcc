//! SDF-subset parser and delay-annotation importer.
//!
//! Standard Delay Format is how real tool flows hand timing back to a
//! netlist: per-cell `IOPATH` delays and per-net `INTERCONNECT` delays,
//! each a `min:typ:max` triple. This module parses the small subset we
//! need and maps the delays onto edges of a generated
//! [`QuadrantTopology`] by
//! hierarchical instance path, producing per-corner edge delays that
//! feed straight into `clock_tree::skew::ArrivalTimes::from_rates`.
//!
//! The accepted grammar (order is fixed — this keeps the canonical
//! emitter [`Sdf::to_text`] an exact inverse of [`parse`], which the
//! round-trip tests pin byte-for-byte):
//!
//! ```text
//! (DELAYFILE
//!   (SDFVERSION "3.0")
//!   (DESIGN "quad8")
//!   (TIMESCALE 1ns)
//!   (CELL
//!     (CELLTYPE "HUBBUF")
//!     (INSTANCE he)
//!     (DELAY (ABSOLUTE
//!       (IOPATH I O (2.4:3.0:3.6))
//!       (INTERCONNECT he/O qse/I (0.2:0.25:0.3))
//!     ))
//!   )
//! )
//! ```
//!
//! The parser is hardened the same way `sim-observe`'s JSON parser is:
//! an optional byte cap, a nesting-depth cap, and structured
//! [`SdfError`]s carrying the byte offset of the offending token.
//! Delays must be finite, non-negative, and monotone (`min ≤ typ ≤
//! max`); duplicate `CELL` instances are rejected.

use clock_tree::tree::{ClockTree, NodeId};
use sim_observe::fmt_f64;

use crate::quadrant::QuadrantTopology;

/// Resource limits for [`parse_with_limits`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdfLimits {
    /// Reject inputs longer than this many bytes (`None` = unlimited).
    pub max_bytes: Option<usize>,
    /// Reject inputs whose parenthesis nesting exceeds this depth.
    pub max_depth: usize,
}

impl Default for SdfLimits {
    fn default() -> Self {
        SdfLimits {
            max_bytes: None,
            max_depth: 64,
        }
    }
}

impl SdfLimits {
    /// Conservative limits for untrusted inputs: 64 KiB, depth 16.
    #[must_use]
    pub fn strict() -> Self {
        SdfLimits {
            max_bytes: Some(64 * 1024),
            max_depth: 16,
        }
    }
}

/// A structured parse/validation error with the byte offset where the
/// problem was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SdfError {
    pub message: String,
    pub offset: usize,
}

impl std::fmt::Display for SdfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SDF parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for SdfError {}

/// A `min:typ:max` delay triple. Always finite, non-negative, and
/// monotone after parsing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triple {
    pub min: f64,
    pub typ: f64,
    pub max: f64,
}

impl Triple {
    /// The delay at the given corner.
    #[must_use]
    pub fn corner(&self, c: Corner) -> f64 {
        match c {
            Corner::Min => self.min,
            Corner::Typ => self.typ,
            Corner::Max => self.max,
        }
    }
}

/// A timing corner of a [`Triple`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corner {
    Min,
    Typ,
    Max,
}

/// One delay entry inside a `CELL`'s `(DELAY (ABSOLUTE ...))` block.
#[derive(Debug, Clone, PartialEq)]
pub enum SdfDelay {
    /// Cell-internal input-to-output path delay. One triple (rise) or
    /// two (rise/fall); the importer uses the first.
    IoPath {
        input: String,
        output: String,
        triples: Vec<Triple>,
    },
    /// Net delay between two ports, written `<instance>/<port>`.
    Interconnect {
        from: String,
        to: String,
        triple: Triple,
    },
}

/// One `(CELL ...)` block.
#[derive(Debug, Clone, PartialEq)]
pub struct SdfCell {
    pub celltype: String,
    pub instance: String,
    pub delays: Vec<SdfDelay>,
}

/// A parsed delay file.
#[derive(Debug, Clone, PartialEq)]
pub struct Sdf {
    pub version: String,
    pub design: String,
    pub timescale: String,
    pub cells: Vec<SdfCell>,
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Token {
    LParen,
    RParen,
    Str(String),
    Atom(String),
}

struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Lexer { bytes, pos: 0 }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\r' || b == b'\n' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    /// Next token, or `Ok(None)` at end of input. The returned offset
    /// is where the token starts.
    fn next(&mut self) -> Result<Option<(Token, usize)>, SdfError> {
        self.skip_ws();
        let start = self.pos;
        let Some(&b) = self.bytes.get(self.pos) else {
            return Ok(None);
        };
        match b {
            b'(' => {
                self.pos += 1;
                Ok(Some((Token::LParen, start)))
            }
            b')' => {
                self.pos += 1;
                Ok(Some((Token::RParen, start)))
            }
            b'"' => {
                self.pos += 1;
                let mut s = String::new();
                loop {
                    match self.bytes.get(self.pos) {
                        None => {
                            return Err(SdfError {
                                message: "unterminated string".to_owned(),
                                offset: start,
                            })
                        }
                        Some(b'"') => {
                            self.pos += 1;
                            return Ok(Some((Token::Str(s), start)));
                        }
                        Some(&c) if c < 0x20 => {
                            return Err(SdfError {
                                message: "control byte inside string".to_owned(),
                                offset: self.pos,
                            })
                        }
                        Some(&c) => {
                            s.push(c as char);
                            self.pos += 1;
                        }
                    }
                }
            }
            _ => {
                let mut end = self.pos;
                while let Some(&c) = self.bytes.get(end) {
                    if c == b'(' || c == b')' || c == b'"' || c.is_ascii_whitespace() {
                        break;
                    }
                    end += 1;
                }
                let text = std::str::from_utf8(&self.bytes[self.pos..end])
                    .map_err(|_| SdfError {
                        message: "non-UTF-8 atom".to_owned(),
                        offset: start,
                    })?
                    .to_owned();
                self.pos = end;
                Ok(Some((Token::Atom(text), start)))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    lexer: Lexer<'a>,
    peeked: Option<Option<(Token, usize)>>,
}

impl<'a> Parser<'a> {
    fn next(&mut self) -> Result<Option<(Token, usize)>, SdfError> {
        match self.peeked.take() {
            Some(t) => Ok(t),
            None => self.lexer.next(),
        }
    }

    fn peek(&mut self) -> Result<&Option<(Token, usize)>, SdfError> {
        if self.peeked.is_none() {
            self.peeked = Some(self.lexer.next()?);
        }
        Ok(self.peeked.as_ref().expect("just filled"))
    }

    fn err<T>(&self, message: impl Into<String>, offset: usize) -> Result<T, SdfError> {
        Err(SdfError {
            message: message.into(),
            offset,
        })
    }

    fn eof_offset(&self) -> usize {
        self.lexer.bytes.len()
    }

    fn expect_lparen(&mut self, what: &str) -> Result<usize, SdfError> {
        match self.next()? {
            Some((Token::LParen, o)) => Ok(o),
            Some((t, o)) => self.err(format!("expected `(` before {what}, found {t:?}"), o),
            None => self.err(
                format!("unexpected end of input (expected `(` before {what})"),
                self.eof_offset(),
            ),
        }
    }

    fn expect_rparen(&mut self, what: &str) -> Result<(), SdfError> {
        match self.next()? {
            Some((Token::RParen, _)) => Ok(()),
            Some((t, o)) => self.err(format!("expected `)` closing {what}, found {t:?}"), o),
            None => self.err(
                format!("unexpected end of input (expected `)` closing {what})"),
                self.eof_offset(),
            ),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), SdfError> {
        match self.next()? {
            Some((Token::Atom(a), o)) => {
                if a == kw {
                    Ok(())
                } else {
                    self.err(format!("expected keyword `{kw}`, found `{a}`"), o)
                }
            }
            Some((t, o)) => self.err(format!("expected keyword `{kw}`, found {t:?}"), o),
            None => self.err(
                format!("unexpected end of input (expected keyword `{kw}`)"),
                self.eof_offset(),
            ),
        }
    }

    fn expect_atom(&mut self, what: &str) -> Result<(String, usize), SdfError> {
        match self.next()? {
            Some((Token::Atom(a), o)) => Ok((a, o)),
            Some((t, o)) => self.err(format!("expected {what}, found {t:?}"), o),
            None => self.err(
                format!("unexpected end of input (expected {what})"),
                self.eof_offset(),
            ),
        }
    }

    fn expect_string(&mut self, what: &str) -> Result<String, SdfError> {
        match self.next()? {
            Some((Token::Str(s), _)) => Ok(s),
            Some((t, o)) => self.err(format!("expected quoted {what}, found {t:?}"), o),
            None => self.err(
                format!("unexpected end of input (expected quoted {what})"),
                self.eof_offset(),
            ),
        }
    }

    /// `(min:typ:max)` — finite, non-negative, monotone.
    fn triple(&mut self) -> Result<Triple, SdfError> {
        self.expect_lparen("a delay triple")?;
        let (text, off) = self.expect_atom("a `min:typ:max` delay triple")?;
        let parts: Vec<&str> = text.split(':').collect();
        if parts.len() != 3 {
            return self.err(
                format!("delay triple must be `min:typ:max`, found `{text}`"),
                off,
            );
        }
        let mut vals = [0.0f64; 3];
        for (i, p) in parts.iter().enumerate() {
            let v: f64 = p.parse().map_err(|_| SdfError {
                message: format!("`{p}` is not a number"),
                offset: off,
            })?;
            if !v.is_finite() {
                return self.err(format!("delay `{p}` is not finite"), off);
            }
            if v < 0.0 {
                return self.err(format!("delay `{p}` is negative"), off);
            }
            vals[i] = v;
        }
        if !(vals[0] <= vals[1] && vals[1] <= vals[2]) {
            return self.err(
                format!("non-monotone delay triple `{text}` (need min <= typ <= max)"),
                off,
            );
        }
        self.expect_rparen("the delay triple")?;
        Ok(Triple {
            min: vals[0],
            typ: vals[1],
            max: vals[2],
        })
    }

    /// A port reference `<instance>/<port>` for INTERCONNECT entries.
    fn port_ref(&mut self, what: &str) -> Result<String, SdfError> {
        let (text, off) = self.expect_atom(what)?;
        let Some((inst, port)) = text.rsplit_once('/') else {
            return self.err(
                format!("port reference `{text}` must be `<instance>/<port>`"),
                off,
            );
        };
        if inst.is_empty() || port.is_empty() {
            return self.err(
                format!("port reference `{text}` must be `<instance>/<port>`"),
                off,
            );
        }
        Ok(text)
    }

    fn cell(&mut self) -> Result<(SdfCell, usize), SdfError> {
        self.expect_lparen("CELLTYPE")?;
        self.expect_keyword("CELLTYPE")?;
        let celltype = self.expect_string("cell type")?;
        self.expect_rparen("CELLTYPE")?;

        self.expect_lparen("INSTANCE")?;
        self.expect_keyword("INSTANCE")?;
        let (instance, inst_off) = self.expect_atom("an instance path")?;
        self.expect_rparen("INSTANCE")?;

        self.expect_lparen("DELAY")?;
        self.expect_keyword("DELAY")?;
        self.expect_lparen("ABSOLUTE")?;
        self.expect_keyword("ABSOLUTE")?;

        let mut delays = Vec::new();
        loop {
            match self.peek()? {
                Some((Token::RParen, _)) => {
                    self.next()?;
                    break;
                }
                Some((Token::LParen, _)) => {
                    self.next()?;
                    let (kw, kw_off) = self.expect_atom("IOPATH or INTERCONNECT")?;
                    match kw.as_str() {
                        "IOPATH" => {
                            let (input, _) = self.expect_atom("an input port")?;
                            let (output, _) = self.expect_atom("an output port")?;
                            let mut triples = vec![self.triple()?];
                            if matches!(self.peek()?, Some((Token::LParen, _))) {
                                triples.push(self.triple()?);
                            }
                            self.expect_rparen("IOPATH")?;
                            delays.push(SdfDelay::IoPath {
                                input,
                                output,
                                triples,
                            });
                        }
                        "INTERCONNECT" => {
                            let from = self.port_ref("a source port reference")?;
                            let to = self.port_ref("a destination port reference")?;
                            let triple = self.triple()?;
                            self.expect_rparen("INTERCONNECT")?;
                            delays.push(SdfDelay::Interconnect { from, to, triple });
                        }
                        other => {
                            return self.err(
                                format!("unsupported delay entry `{other}` (subset: IOPATH, INTERCONNECT)"),
                                kw_off,
                            )
                        }
                    }
                }
                Some((t, o)) => {
                    let (t, o) = (t.clone(), *o);
                    return self.err(format!("expected a delay entry or `)`, found {t:?}"), o);
                }
                None => {
                    return self.err(
                        "unexpected end of input inside (DELAY (ABSOLUTE ...))".to_owned(),
                        self.eof_offset(),
                    )
                }
            }
        }
        self.expect_rparen("DELAY")?;
        self.expect_rparen("CELL")?;
        Ok((
            SdfCell {
                celltype,
                instance,
                delays,
            },
            inst_off,
        ))
    }

    fn file(&mut self) -> Result<Sdf, SdfError> {
        self.expect_lparen("DELAYFILE")?;
        self.expect_keyword("DELAYFILE")?;

        self.expect_lparen("SDFVERSION")?;
        self.expect_keyword("SDFVERSION")?;
        let version = self.expect_string("SDF version")?;
        self.expect_rparen("SDFVERSION")?;

        self.expect_lparen("DESIGN")?;
        self.expect_keyword("DESIGN")?;
        let design = self.expect_string("design name")?;
        self.expect_rparen("DESIGN")?;

        self.expect_lparen("TIMESCALE")?;
        self.expect_keyword("TIMESCALE")?;
        let (timescale, _) = self.expect_atom("a timescale")?;
        self.expect_rparen("TIMESCALE")?;

        let mut cells: Vec<SdfCell> = Vec::new();
        loop {
            match self.next()? {
                Some((Token::RParen, _)) => break,
                Some((Token::LParen, _)) => {
                    self.expect_keyword("CELL")?;
                    let (cell, inst_off) = self.cell()?;
                    if cells.iter().any(|c| c.instance == cell.instance) {
                        return self.err(
                            format!("duplicate CELL instance `{}`", cell.instance),
                            inst_off,
                        );
                    }
                    cells.push(cell);
                }
                Some((t, o)) => {
                    return self.err(format!("expected `(CELL ...)` or `)`, found {t:?}"), o)
                }
                None => {
                    return self.err(
                        "unexpected end of input (DELAYFILE not closed)".to_owned(),
                        self.eof_offset(),
                    )
                }
            }
        }
        if let Some((t, o)) = self.next()? {
            return self.err(format!("trailing garbage after DELAYFILE: {t:?}"), o);
        }
        Ok(Sdf {
            version,
            design,
            timescale,
            cells,
        })
    }
}

/// Parses with [`SdfLimits::default`].
///
/// # Errors
///
/// Returns a structured [`SdfError`] on any syntax or validation
/// problem.
pub fn parse(input: &str) -> Result<Sdf, SdfError> {
    parse_with_limits(input, SdfLimits::default())
}

/// Parses with explicit resource limits.
///
/// # Errors
///
/// Returns a structured [`SdfError`] on any syntax or validation
/// problem, or when a limit is exceeded.
pub fn parse_with_limits(input: &str, limits: SdfLimits) -> Result<Sdf, SdfError> {
    if let Some(max) = limits.max_bytes {
        if input.len() > max {
            return Err(SdfError {
                message: format!("input is {} bytes, limit is {max}", input.len()),
                offset: max,
            });
        }
    }
    // Depth pre-scan: a nesting bomb must produce a structured error,
    // never deep recursion.
    let mut depth = 0usize;
    for (i, &b) in input.as_bytes().iter().enumerate() {
        if b == b'(' {
            depth += 1;
            if depth > limits.max_depth {
                return Err(SdfError {
                    message: format!("nesting depth exceeds limit {}", limits.max_depth),
                    offset: i,
                });
            }
        } else if b == b')' {
            depth = depth.saturating_sub(1);
        }
    }
    let mut p = Parser {
        lexer: Lexer::new(input.as_bytes()),
        peeked: None,
    };
    p.file()
}

// ---------------------------------------------------------------------------
// Canonical emitter
// ---------------------------------------------------------------------------

fn fmt_delay(v: f64) -> String {
    fmt_f64(v)
}

impl Sdf {
    /// Canonical text form. [`parse`] ∘ [`Sdf::to_text`] is the
    /// identity, and for files already in canonical form (all committed
    /// fixtures are) the reverse composition is byte-identical too —
    /// the round-trip tests pin both directions.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("(DELAYFILE\n");
        out.push_str(&format!("  (SDFVERSION \"{}\")\n", self.version));
        out.push_str(&format!("  (DESIGN \"{}\")\n", self.design));
        out.push_str(&format!("  (TIMESCALE {})\n", self.timescale));
        for cell in &self.cells {
            out.push_str("  (CELL\n");
            out.push_str(&format!("    (CELLTYPE \"{}\")\n", cell.celltype));
            out.push_str(&format!("    (INSTANCE {})\n", cell.instance));
            out.push_str("    (DELAY (ABSOLUTE\n");
            for d in &cell.delays {
                match d {
                    SdfDelay::IoPath {
                        input,
                        output,
                        triples,
                    } => {
                        let ts: Vec<String> = triples
                            .iter()
                            .map(|t| {
                                format!(
                                    "({}:{}:{})",
                                    fmt_delay(t.min),
                                    fmt_delay(t.typ),
                                    fmt_delay(t.max)
                                )
                            })
                            .collect();
                        out.push_str(&format!(
                            "      (IOPATH {input} {output} {})\n",
                            ts.join(" ")
                        ));
                    }
                    SdfDelay::Interconnect { from, to, triple } => {
                        out.push_str(&format!(
                            "      (INTERCONNECT {from} {to} ({}:{}:{}))\n",
                            fmt_delay(triple.min),
                            fmt_delay(triple.typ),
                            fmt_delay(triple.max)
                        ));
                    }
                }
            }
            out.push_str("    ))\n");
            out.push_str("  )\n");
        }
        out.push_str(")\n");
        out
    }
}

// ---------------------------------------------------------------------------
// Importer: delays onto tree edges
// ---------------------------------------------------------------------------

/// Per-corner delay of every tree edge (indexed by child `NodeId`),
/// produced by [`annotate`]. Unannotated edges carry the `m ± ε` wire
/// model default; annotated edges carry exactly the file's delays
/// (IOPATH cell delay + INTERCONNECT wire delay).
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeDelays {
    min: Vec<f64>,
    typ: Vec<f64>,
    max: Vec<f64>,
    annotated: Vec<bool>,
}

impl EdgeDelays {
    /// The delay of the edge into `node` at `corner`.
    #[must_use]
    pub fn delay(&self, node: NodeId, corner: Corner) -> f64 {
        match corner {
            Corner::Min => self.min[node.index()],
            Corner::Typ => self.typ[node.index()],
            Corner::Max => self.max[node.index()],
        }
    }

    /// Whether the edge into `node` was explicitly annotated.
    #[must_use]
    pub fn is_annotated(&self, node: NodeId) -> bool {
        self.annotated[node.index()]
    }

    /// Number of explicitly annotated edges.
    #[must_use]
    pub fn annotated_count(&self) -> usize {
        self.annotated.iter().filter(|&&a| a).count()
    }

    /// Per-node delay *rates* (delay per unit wire length) at `corner`,
    /// in the form `ArrivalTimes::from_rates` consumes. Zero-length
    /// edges (only the root has one) get rate 0.
    #[must_use]
    pub fn rates(&self, tree: &ClockTree, corner: Corner) -> Vec<f64> {
        tree.nodes()
            .map(|n| {
                let len = tree.wire_length(n);
                if len > 0.0 {
                    self.delay(n, corner) / len
                } else {
                    0.0
                }
            })
            .collect()
    }
}

fn port_instance(port: &str) -> &str {
    port.rsplit_once('/').map_or(port, |(inst, _)| inst)
}

/// Maps a parsed delay file onto the edges of a generated topology.
///
/// * `IOPATH` in cell `X` annotates the tree edge into node `X` (the
///   cell's internal delay); the first triple (rise) is used.
/// * `INTERCONNECT a/O b/I` annotates the same edge with the net delay
///   and requires `a` to be the tree parent of `b`.
/// * Edges without annotations default to the `nominal ± epsilon` wire
///   model (delay = rate × length per corner).
///
/// # Errors
///
/// Unknown instance paths, annotations on the root or on a zero-length
/// edge, interconnects that do not follow a tree edge, and duplicate
/// annotations of the same edge are all structured errors.
pub fn annotate(
    topo: &QuadrantTopology,
    sdf: &Sdf,
    nominal: f64,
    epsilon: f64,
) -> Result<EdgeDelays, String> {
    assert!(nominal > 0.0 && epsilon >= 0.0 && epsilon <= nominal);
    let tree = topo.tree();
    let n = tree.node_count();
    let (mut min, mut typ, mut max) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let mut annotated = vec![false; n];
    let mut seen_iopath = vec![false; n];
    let mut seen_inter = vec![false; n];

    let resolve = |inst: &str| -> Result<NodeId, String> {
        let node = topo
            .node(inst)
            .ok_or_else(|| format!("unknown instance `{inst}` (not in the generated topology)"))?;
        if tree.parent(node).is_none() {
            return Err(format!(
                "cannot annotate the root `{inst}` (it has no incoming edge)"
            ));
        }
        if tree.wire_length(node) <= 0.0 {
            return Err(format!(
                "instance `{inst}` sits on a zero-length edge; its delay is not expressible as a wire rate"
            ));
        }
        Ok(node)
    };

    for cell in &sdf.cells {
        for d in &cell.delays {
            match d {
                SdfDelay::IoPath { triples, .. } => {
                    let node = resolve(&cell.instance)?;
                    if seen_iopath[node.index()] {
                        return Err(format!(
                            "duplicate IOPATH annotation for instance `{}`",
                            cell.instance
                        ));
                    }
                    seen_iopath[node.index()] = true;
                    annotated[node.index()] = true;
                    let t = triples[0];
                    min[node.index()] += t.min;
                    typ[node.index()] += t.typ;
                    max[node.index()] += t.max;
                }
                SdfDelay::Interconnect { from, to, triple } => {
                    let to_inst = port_instance(to);
                    let from_inst = port_instance(from);
                    let node = resolve(to_inst)?;
                    let parent = tree.parent(node).expect("resolve rejects the root");
                    if topo.instance(parent) != from_inst {
                        return Err(format!(
                            "INTERCONNECT {from} -> {to} does not follow a tree edge \
                             (parent of `{to_inst}` is `{}`)",
                            topo.instance(parent)
                        ));
                    }
                    if seen_inter[node.index()] {
                        return Err(format!(
                            "duplicate INTERCONNECT annotation for instance `{to_inst}`"
                        ));
                    }
                    seen_inter[node.index()] = true;
                    annotated[node.index()] = true;
                    min[node.index()] += triple.min;
                    typ[node.index()] += triple.typ;
                    max[node.index()] += triple.max;
                }
            }
        }
    }

    // Wire-model defaults for everything the file did not touch.
    for node in tree.nodes() {
        let i = node.index();
        if !annotated[i] {
            let len = tree.wire_length(node);
            min[i] = (nominal - epsilon) * len;
            typ[i] = nominal * len;
            max[i] = (nominal + epsilon) * len;
        }
    }

    Ok(EdgeDelays {
        min,
        typ,
        max,
        annotated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadrant::{quadrant_spine, QuadrantParams};
    use array_layout::graph::CommGraph;
    use array_layout::layout::Layout;

    fn topo8() -> QuadrantTopology {
        let comm = CommGraph::mesh(8, 8);
        let layout = Layout::grid(&comm);
        quadrant_spine(&comm, &layout, &QuadrantParams::new(8, 1, 2))
    }

    const MINI: &str = "(DELAYFILE\n  (SDFVERSION \"3.0\")\n  (DESIGN \"quad8\")\n  (TIMESCALE 1ns)\n  (CELL\n    (CELLTYPE \"HUBBUF\")\n    (INSTANCE he)\n    (DELAY (ABSOLUTE\n      (IOPATH I O (2.4:3.0:3.6))\n    ))\n  )\n)\n";

    #[test]
    fn parses_and_round_trips_the_minimal_file() {
        let sdf = parse(MINI).expect("parses");
        assert_eq!(sdf.design, "quad8");
        assert_eq!(sdf.cells.len(), 1);
        assert_eq!(sdf.to_text(), MINI, "canonical emit is byte-identical");
    }

    #[test]
    fn annotation_overrides_only_the_named_edges() {
        let topo = topo8();
        let sdf = parse(MINI).expect("parses");
        let ed = annotate(&topo, &sdf, 1.0, 0.1).expect("imports");
        assert_eq!(ed.annotated_count(), 1);
        let he = topo.node("he").expect("he exists");
        assert_eq!(ed.delay(he, Corner::Typ), 3.0);
        // An untouched edge keeps the m ± ε default.
        let hw = topo.node("hw").expect("hw exists");
        let len = topo.tree().wire_length(hw);
        assert!((ed.delay(hw, Corner::Typ) - len).abs() < 1e-12);
        assert!((ed.delay(hw, Corner::Max) - 1.1 * len).abs() < 1e-12);
    }

    #[test]
    fn unknown_instances_and_non_tree_interconnects_are_rejected() {
        let topo = topo8();
        let bad_inst = MINI.replace("INSTANCE he", "INSTANCE nosuch");
        let sdf = parse(&bad_inst).expect("syntactically fine");
        let err = annotate(&topo, &sdf, 1.0, 0.1).expect_err("unknown instance");
        assert!(err.contains("unknown instance"), "got: {err}");

        let inter = MINI.replace(
            "(IOPATH I O (2.4:3.0:3.6))",
            "(INTERCONNECT hw/O qse/I (0.1:0.2:0.3))",
        );
        let sdf = parse(&inter).expect("syntactically fine");
        let err = annotate(&topo, &sdf, 1.0, 0.1).expect_err("hw is not qse's parent");
        assert!(err.contains("does not follow a tree edge"), "got: {err}");
    }

    #[test]
    fn root_annotation_is_rejected() {
        let topo = topo8();
        let sdf = parse(&MINI.replace("INSTANCE he", "INSTANCE center")).expect("parses");
        let err = annotate(&topo, &sdf, 1.0, 0.1).expect_err("root has no incoming edge");
        assert!(err.contains("root"), "got: {err}");
    }

    #[test]
    fn errors_carry_byte_offsets() {
        let err = parse("(DELAYFILE").expect_err("truncated");
        assert_eq!(err.offset, 10);
        assert!(err.to_string().starts_with("SDF parse error at byte 10:"));
    }
}
