//! The streaming **skew-field** layer: windowed per-edge local-skew
//! aggregates as `gcs-skewfield/v1` JSONL.
//!
//! A skew *field* is the map `edge ↦ |L_a − L_b|` — the quantity the
//! paper's gradient property (Theorem 5.10) bounds. The writer consumes the
//! engine's post-event clock snapshots, tracks each edge's worst skew
//! within fixed simulated-time windows, and emits one `window`
//! record per closed window plus a final `summary`:
//!
//! ```json
//! {"schema":"gcs-skewfield/v1","kind":"window","seq":0,"t0":0,"t1":5,
//!  "samples":812,"edges":7,"max":0.31,"max_edge":[2,3],"p99":0.31,"mean":0.12}
//! {"schema":"gcs-skewfield/v1","kind":"summary","windows":8,"samples":6496,
//!  "worst":0.42,"worst_edge":[2,3],"worst_t":31.25}
//! ```
//!
//! `max`/`p99`/`mean` aggregate over the *per-edge window maxima* (not raw
//! samples), so a window line answers "how bad was the worst edge, and how
//! bad was the typical edge, during this slice of the run". All statistics
//! are exact and deterministic — no wall-clock fields at all.

use std::io::{self, Write};

use gcs_analysis::json;

/// The schema tag stamped on every record.
pub const SCHEMA: &str = "gcs-skewfield/v1";

/// Streams `gcs-skewfield/v1` records to a writer.
///
/// I/O errors are sticky: the first error stops further writing and is
/// surfaced by [`SkewFieldWriter::finish`] (observation runs inside an
/// engine sink, which cannot return errors).
#[derive(Debug)]
pub struct SkewFieldWriter<W: Write> {
    out: W,
    error: Option<io::Error>,
    /// Undirected edges as `(a, b)` node-index pairs.
    edges: Vec<(usize, usize)>,
    window: f64,
    window_start: f64,
    seq: u64,
    /// Per-edge worst `|L_a − L_b|` within the open window.
    edge_max: Vec<f64>,
    samples: u64,
    total_samples: u64,
    worst: f64,
    worst_edge: (usize, usize),
    worst_t: f64,
    /// Scratch buffer for the window quantile sort.
    scratch: Vec<f64>,
}

impl<W: Write> SkewFieldWriter<W> {
    /// Creates a writer over the given undirected edge list, closing one
    /// window every `window` units of simulated time starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is not strictly positive and finite, or if
    /// `edges` is empty (a skew field needs at least one edge).
    pub fn new(out: W, edges: Vec<(usize, usize)>, window: f64, start: f64) -> Self {
        assert!(
            window > 0.0 && window.is_finite(),
            "invalid skew-field window {window}"
        );
        assert!(!edges.is_empty(), "skew field needs at least one edge");
        let n = edges.len();
        SkewFieldWriter {
            out,
            error: None,
            edges,
            window,
            window_start: start,
            seq: 0,
            edge_max: vec![0.0; n],
            samples: 0,
            total_samples: 0,
            worst: 0.0,
            worst_edge: (0, 0),
            worst_t: start,
            scratch: Vec::with_capacity(n),
        }
    }

    /// Observes one post-event clock snapshot. Closes (and emits) any
    /// windows that `t` has moved past before folding the snapshot in.
    pub fn observe(&mut self, t: f64, clocks: &[f64]) {
        while t >= self.window_start + self.window {
            self.close_window();
        }
        self.samples += 1;
        self.total_samples += 1;
        for (i, &(a, b)) in self.edges.iter().enumerate() {
            let skew = (clocks[a] - clocks[b]).abs();
            if skew > self.edge_max[i] {
                self.edge_max[i] = skew;
            }
            if skew > self.worst {
                self.worst = skew;
                self.worst_edge = (a, b);
                self.worst_t = t;
            }
        }
    }

    /// Closes the still-open window (if it saw any samples) and emits the
    /// final `summary` record. Consumes the writer and returns the
    /// underlying output.
    ///
    /// # Errors
    ///
    /// The first I/O error of the stream.
    pub fn finish(mut self) -> io::Result<W> {
        if self.samples > 0 {
            self.close_window();
        }
        if let Some(e) = self.error {
            return Err(e);
        }
        let mut line = format!(
            "{{\"schema\":\"{SCHEMA}\",\"kind\":\"summary\",\"windows\":{},\"samples\":{},\
             \"worst\":",
            self.seq, self.total_samples
        );
        json::push_f64(&mut line, self.worst);
        line.push_str(&format!(
            ",\"worst_edge\":[{},{}],\"worst_t\":",
            self.worst_edge.0, self.worst_edge.1
        ));
        json::push_f64(&mut line, self.worst_t);
        line.push_str("}\n");
        self.out.write_all(line.as_bytes())?;
        self.out.flush()?;
        Ok(self.out)
    }

    fn close_window(&mut self) {
        let t0 = self.window_start;
        let t1 = t0 + self.window;
        self.window_start = t1;
        if self.samples == 0 {
            // Nothing observed in this slice (e.g. the first snapshot
            // arrived windows later): emit nothing, keep the cadence.
            return;
        }
        let mut max = 0.0f64;
        let mut max_edge = self.edges[0];
        let mut sum = 0.0;
        for (i, &m) in self.edge_max.iter().enumerate() {
            sum += m;
            if m > max {
                max = m;
                max_edge = self.edges[i];
            }
        }
        let mean = sum / self.edge_max.len() as f64;
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.edge_max);
        self.scratch.sort_unstable_by(f64::total_cmp);
        // Nearest-rank p99 over the per-edge maxima.
        let rank = ((0.99 * self.scratch.len() as f64).ceil() as usize).max(1);
        let p99 = self.scratch[rank - 1];

        let mut line = format!(
            "{{\"schema\":\"{SCHEMA}\",\"kind\":\"window\",\"seq\":{},\"t0\":",
            self.seq
        );
        json::push_f64(&mut line, t0);
        line.push_str(",\"t1\":");
        json::push_f64(&mut line, t1);
        line.push_str(&format!(
            ",\"samples\":{},\"edges\":{},\"max\":",
            self.samples,
            self.edges.len()
        ));
        json::push_f64(&mut line, max);
        line.push_str(&format!(
            ",\"max_edge\":[{},{}],\"p99\":",
            max_edge.0, max_edge.1
        ));
        json::push_f64(&mut line, p99);
        line.push_str(",\"mean\":");
        json::push_f64(&mut line, mean);
        line.push_str("}\n");
        self.seq += 1;
        self.samples = 0;
        self.edge_max.fill(0.0);
        if self.error.is_none() {
            let written = self.out.write_all(line.as_bytes());
            self.error = written.and_then(|()| self.out.flush()).err();
        }
    }
}

/// A parsed `window` record.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewWindow {
    /// Window index within the stream, starting at 0.
    pub seq: u64,
    /// Window start (simulated time, inclusive).
    pub t0: f64,
    /// Window end (simulated time, exclusive).
    pub t1: f64,
    /// Clock snapshots folded into the window.
    pub samples: u64,
    /// Edges in the field.
    pub edges: u64,
    /// Worst per-edge skew in the window.
    pub max: f64,
    /// The edge that attained `max`.
    pub max_edge: (usize, usize),
    /// Nearest-rank p99 over the per-edge window maxima.
    pub p99: f64,
    /// Mean of the per-edge window maxima.
    pub mean: f64,
}

/// A parsed `summary` record.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewSummary {
    /// Windows emitted.
    pub windows: u64,
    /// Snapshots observed over the whole run.
    pub samples: u64,
    /// Worst skew over the whole run.
    pub worst: f64,
    /// The edge that attained `worst`.
    pub worst_edge: (usize, usize),
    /// Simulated time at which `worst` was first attained.
    pub worst_t: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_aggregate_per_edge_maxima() {
        let edges = vec![(0, 1), (1, 2)];
        let mut w = SkewFieldWriter::new(Vec::new(), edges, 1.0, 0.0);
        w.observe(0.25, &[0.0, 0.1, 0.1]); // edge (0,1): 0.1
        w.observe(0.75, &[0.0, 0.05, 0.35]); // edge (1,2): 0.3
        w.observe(1.5, &[0.0, 0.02, 0.04]); // second window
        let text = String::from_utf8(w.finish().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "two windows + summary: {text}");
        assert!(lines[0].contains("\"kind\":\"window\""));
        assert!(lines[0].contains("\"t0\":0,\"t1\":1"));
        assert!(lines[0].contains("\"max\":0.3"));
        assert!(lines[0].contains("\"max_edge\":[1,2]"));
        assert!(lines[2].contains("\"kind\":\"summary\""));
        assert!(lines[2].contains("\"worst\":0.3"));
        assert!(lines[2].contains("\"worst_t\":0.75"));
    }

    #[test]
    fn empty_windows_are_skipped_but_cadence_holds() {
        let mut w = SkewFieldWriter::new(Vec::new(), vec![(0, 1)], 1.0, 0.0);
        w.observe(5.5, &[0.0, 0.25]); // five empty windows skipped
        let text = String::from_utf8(w.finish().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"t0\":5,\"t1\":6"), "{text}");
    }

    #[test]
    fn stream_is_deterministic() {
        let run = || {
            let mut w = SkewFieldWriter::new(Vec::new(), vec![(0, 1), (1, 2)], 0.5, 0.0);
            for i in 0..40 {
                let t = i as f64 * 0.1;
                w.observe(t, &[0.0, (t * 0.7).sin() * 0.1, 0.05]);
            }
            String::from_utf8(w.finish().unwrap()).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn records_are_valid_json() {
        let mut w = SkewFieldWriter::new(Vec::new(), vec![(0, 1)], 1.0, 0.0);
        w.observe(0.5, &[0.0, 0.125]);
        let text = String::from_utf8(w.finish().unwrap()).unwrap();
        for line in text.lines() {
            gcs_forensics::parse_json(line).expect("valid JSON");
        }
    }
}
