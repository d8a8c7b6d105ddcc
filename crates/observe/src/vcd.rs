//! Value-change-dump (VCD) export, for inspecting waveforms in
//! standard viewers (GTKWave etc.).
//!
//! [`VcdWriter`] takes `(name, initial value, transitions)` triples
//! from any source: the netlist engine's watched wires, or analytic
//! models with no simulator behind them (clock-tap arrival times
//! computed from a tree), side by side in one document.

use std::fmt::Write as _;

/// One registered VCD signal: display name, initial value, and
/// `(time_ps, new_value)` transitions.
#[derive(Debug, Clone, PartialEq, Eq)]
struct VcdSignal {
    name: String,
    initial: bool,
    transitions: Vec<(u64, bool)>,
}

/// Builds a VCD document (1 ps timescale) from registered signals.
///
/// # Examples
///
/// Dumping a synthetic signal with no simulator behind it:
///
/// ```
/// use sim_observe::VcdWriter;
///
/// let mut w = VcdWriter::new();
/// w.add_signal("tap0", false, [(100, true), (600, false)]);
/// let vcd = w.render();
/// assert!(vcd.contains("$var wire 1 ! tap0 $end"));
/// assert!(vcd.contains("#100"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VcdWriter {
    signals: Vec<VcdSignal>,
}

/// The identifier code of signal `i`: bijective base 94 over the
/// printable ASCII range `!`..=`~`, so signals 0–93 get the
/// single-character codes `!`, `"`, … and later ones grow a digit.
fn id_code(mut i: usize) -> String {
    let mut code = String::new();
    loop {
        code.push(char::from(b'!' + (i % 94) as u8));
        i /= 94;
        if i == 0 {
            return code;
        }
        i -= 1;
    }
}

impl VcdWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        VcdWriter::default()
    }

    /// Registers one signal from raw transitions (`time_ps`,
    /// `new_value`).
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty, contains whitespace, or duplicates a
    /// registered signal.
    pub fn add_signal(
        &mut self,
        name: &str,
        initial: bool,
        transitions: impl IntoIterator<Item = (u64, bool)>,
    ) {
        assert!(
            !name.is_empty() && !name.contains(char::is_whitespace),
            "invalid VCD signal name {name:?}"
        );
        assert!(
            self.signals.iter().all(|s| s.name != name),
            "duplicate VCD signal name {name:?}"
        );
        self.signals.push(VcdSignal {
            name: name.to_owned(),
            initial,
            transitions: transitions.into_iter().collect(),
        });
    }

    /// Number of registered signals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.signals.len()
    }

    /// Whether no signal has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.signals.is_empty()
    }

    /// Renders the VCD document.
    #[must_use]
    pub fn render(&self) -> String {
        let ids: Vec<String> = (0..self.signals.len()).map(id_code).collect();
        let mut out = String::new();
        out.push_str("$timescale 1ps $end\n$scope module top $end\n");
        for (id, sig) in ids.iter().zip(&self.signals) {
            let _ = writeln!(out, "$var wire 1 {id} {} $end", sig.name);
        }
        out.push_str("$upscope $end\n$enddefinitions $end\n");
        out.push_str("$dumpvars\n");
        for (id, sig) in ids.iter().zip(&self.signals) {
            let _ = writeln!(out, "{}{id}", u8::from(sig.initial));
        }
        out.push_str("$end\n");
        // Merge all transitions, time-ordered (stable by signal order).
        let mut events: Vec<(u64, usize, bool)> = Vec::new();
        for (i, sig) in self.signals.iter().enumerate() {
            for &(t, v) in &sig.transitions {
                events.push((t, i, v));
            }
        }
        events.sort_by_key(|&(t, i, _)| (t, i));
        let mut last_time = None;
        for (t, i, v) in events {
            if last_time != Some(t) {
                let _ = writeln!(out, "#{t}");
                last_time = Some(t);
            }
            let _ = writeln!(out, "{}{}", u8::from(v), ids[i]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_dumpvars_and_merged_events() {
        let mut w = VcdWriter::new();
        w.add_signal("req", false, [(100, true), (200, false)]);
        w.add_signal("req_n", true, [(120, false), (200, true)]);
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
        assert_eq!(
            w.render(),
            "$timescale 1ps $end\n$scope module top $end\n\
             $var wire 1 ! req $end\n$var wire 1 \" req_n $end\n\
             $upscope $end\n$enddefinitions $end\n\
             $dumpvars\n0!\n1\"\n$end\n\
             #100\n1!\n#120\n0\"\n#200\n0!\n1\"\n"
        );
    }

    #[test]
    fn signal_without_transitions_dumps_its_initial_value_only() {
        let mut w = VcdWriter::new();
        w.add_signal("idle", false, []);
        let vcd = w.render();
        assert!(vcd.contains("0!"));
        assert!(!vcd.contains('#'));
    }

    #[test]
    fn ids_stay_printable_and_unique_past_94_signals() {
        let mut w = VcdWriter::new();
        for i in 0..200u64 {
            w.add_signal(&format!("s{i}"), false, [(i, true)]);
        }
        let vcd = w.render();
        let ids: Vec<&str> = vcd
            .lines()
            .filter_map(|l| l.strip_prefix("$var wire 1 "))
            .map(|rest| rest.split(' ').next().expect("id field"))
            .collect();
        assert_eq!(ids.len(), 200);
        for id in &ids {
            assert!(
                !id.is_empty() && id.bytes().all(|b| (33..=126).contains(&b)),
                "id {id:?} leaves printable ASCII"
            );
        }
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "duplicate VCD ids");
        // The first 94 keep the single-character codes.
        assert_eq!(ids[0], "!");
        assert_eq!(ids[93], "~");
        assert_eq!(ids[94].len(), 2);
        // Every value change references a declared id.
        assert!(vcd.contains(&format!("#199\n1{}\n", ids[199])));
    }

    #[test]
    #[should_panic(expected = "duplicate VCD signal name")]
    fn rejects_duplicate_names() {
        let mut w = VcdWriter::new();
        w.add_signal("x", false, []);
        w.add_signal("x", true, []);
    }

    #[test]
    #[should_panic(expected = "invalid VCD signal name")]
    fn rejects_whitespace_names() {
        VcdWriter::new().add_signal("bad name", false, []);
    }
}
