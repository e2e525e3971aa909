//! Correctness checks on `gcs` output, failure accounting, and the output
//! digest that pins an invocation's bytes.
//!
//! One operation is a `gcs run` invocation or one sweep job. An operation
//! fails on a non-zero exit, a sweep row whose status is not `completed`, a
//! skew above its bound (Thm 5.5 global 𝒢, Thm 5.10 local), a tripped
//! watchdog, a missing "all invariants held" line when the watchdog is on,
//! or a missing row. A digest that differs from the workload's first one is
//! checked by the caller.

/// What the checks found in one invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// Operations the invocation performed.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Delivered messages: the run table's count, or the sweep CSV's sum.
    pub deliveries: u64,
    /// FNV-1a digest of stdout without its timing line, then the CSV and
    /// JSONL bytes.
    pub digest: u64,
    /// For `gcs run`: the printed worst global and local skew.
    pub run_skews: Option<(String, String)>,
    /// One line per failed check.
    pub problems: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, problem: String) {
        self.failed = (self.failed + 1).min(self.attempted);
        self.problems.push(problem);
    }
}

/// FNV-1a, 64-bit, continued from `hash`.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The FNV-1a offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Hashes stdout minus the sweep's elapsed-time line, then `files`.
fn digest(stdout: &str, files: &[&[u8]]) -> u64 {
    let mut hash = FNV_START;
    for line in stdout.lines().filter(|l| !l.starts_with("completed ")) {
        hash = fnv1a(hash, line.as_bytes());
        hash = fnv1a(hash, b"\n");
    }
    for file in files {
        hash = fnv1a(hash, file);
    }
    hash
}

/// The first number after `label` on the table line that holds it.
fn table_value<'a>(stdout: &'a str, label: &str) -> Option<&'a str> {
    let line = stdout.lines().find(|l| l.trim_start().starts_with(label))?;
    line.trim_start()[label.len()..].split_whitespace().next()
}

/// Checks a `gcs run` invocation from its exit code and stdout.
pub fn check_run(code: Option<i32>, stdout: &str, watchdog: bool) -> Verdict {
    let mut v = Verdict {
        attempted: 1,
        digest: digest(stdout, &[]),
        ..Verdict::default()
    };
    if code != Some(0) {
        v.fail(format!("exit status {code:?}"));
    }
    let num = |label: &str| table_value(stdout, label).and_then(|s| s.parse::<f64>().ok());
    let global = table_value(stdout, "worst global skew");
    let local = table_value(stdout, "worst local skew");
    let bounds = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("A^opt bounds"))
        .and_then(|l| {
            let mut it = l.rsplit('/');
            let local = it.next()?.trim().parse::<f64>().ok()?;
            let global = it.next()?.split_whitespace().last()?.parse::<f64>().ok()?;
            Some((global, local))
        });
    match (
        global,
        local,
        num("worst global skew"),
        num("worst local skew"),
        bounds,
    ) {
        (Some(gs), Some(ls), Some(g), Some(l), Some((g_bound, l_bound))) => {
            if g > g_bound {
                v.fail(format!("global skew {g} above 𝒢 = {g_bound}"));
            }
            if l > l_bound {
                v.fail(format!("local skew {l} above the local bound {l_bound}"));
            }
            v.run_skews = Some((gs.to_string(), ls.to_string()));
        }
        _ => v.fail("run table lacks skews or bounds".into()),
    }
    match num("deliveries / dropped") {
        Some(d) => v.deliveries = d as u64,
        None => v.fail("run table lacks deliveries".into()),
    }
    if watchdog && !stdout.contains("watchdog: all invariants held") {
        v.fail("watchdog did not report all invariants held".into());
    }
    v
}

/// Checks a `gcs sweep` invocation from its exit code, stdout, and per-job
/// CSV (plus the JSONL bytes, which only enter the digest).
pub fn check_sweep(
    code: Option<i32>,
    stdout: &str,
    csv: &str,
    jsonl: &[u8],
    expected_jobs: usize,
) -> Verdict {
    let mut v = Verdict {
        attempted: expected_jobs as u64,
        digest: digest(stdout, &[csv.as_bytes(), jsonl]),
        ..Verdict::default()
    };
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().unwrap_or_default().split(',').collect();
    let col = |name: &str| header.iter().position(|h| *h == name);
    let cols = [
        "status",
        "global_skew",
        "local_skew",
        "global_bound",
        "local_bound",
        "deliveries",
        "watchdog_tripped",
    ]
    .map(col);
    let [Some(status), Some(gs), Some(ls), Some(gb), Some(lb), Some(del), Some(trip)] = cols else {
        v.failed = v.attempted;
        v.problems
            .push("sweep CSV header lacks a checked column".into());
        return v;
    };
    let mut rows = 0usize;
    for row in lines {
        rows += 1;
        // Generated specs hold no quoted fields, so a plain split is exact.
        let f: Vec<&str> = row.split(',').collect();
        let num = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok());
        let bad = if f.get(status) != Some(&"completed") {
            Some("status is not completed".to_string())
        } else if f.get(trip) != Some(&"false") {
            Some("watchdog tripped".to_string())
        } else {
            match (num(gs), num(gb), num(ls), num(lb), num(del)) {
                (Some(g), Some(g_bound), Some(l), Some(l_bound), Some(d)) => {
                    v.deliveries += d as u64;
                    if g > g_bound {
                        Some(format!("global skew {g} above 𝒢 = {g_bound}"))
                    } else if l > l_bound {
                        Some(format!("local skew {l} above the local bound {l_bound}"))
                    } else {
                        None
                    }
                }
                _ => Some("unparsable row".to_string()),
            }
        };
        if let Some(problem) = bad {
            v.fail(format!("job row {rows}: {problem}"));
        }
    }
    if rows != expected_jobs {
        let missing = expected_jobs.abs_diff(rows) as u64;
        v.failed = (v.failed + missing).min(v.attempted);
        v.problems
            .push(format!("{rows} job rows, expected {expected_jobs}"));
    }
    let summary = format!("completed {expected_jobs} / failed 0 / watchdog trips 0 in ");
    if !stdout.lines().any(|l| l.starts_with(&summary)) {
        v.problems
            .push("sweep summary line is not all-completed".into());
        v.failed = v.failed.max(1);
    }
    if code != Some(0) {
        v.problems.push(format!("exit status {code:?}"));
        v.failed = v.failed.max(1);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN_TABLE: &str = "\
                     quantity                              value
----------------------------------------------------------------
                    algorithm                               aopt
             nodes / diameter                           144 / 22
            worst global skew  0.120000  (v16 − v40 at t = 3.00)
             worst local skew    0.050000  (v8 − v7 at t = 2.00)
     A^opt bounds (𝒢 / local)                2.236003 / 2.064831
                  send events                                144
         deliveries / dropped                            1234 / 0
delivery imbalance (max/mean)                              1.000


watchdog: all invariants held
";

    #[test]
    fn run_table_is_parsed_and_checked() {
        let v = check_run(Some(0), RUN_TABLE, true);
        assert_eq!((v.attempted, v.failed, v.deliveries), (1, 0, 1234));
        assert_eq!(
            v.run_skews,
            Some(("0.120000".to_string(), "0.050000".to_string()))
        );
        let over = RUN_TABLE.replace("0.050000", "3.000000");
        assert_eq!(check_run(Some(0), &over, true).failed, 1);
        let quiet = RUN_TABLE.replace("watchdog: all invariants held", "");
        assert_eq!(check_run(Some(0), &quiet, true).failed, 1);
        assert_eq!(check_run(Some(0), &quiet, false).failed, 0);
        assert_eq!(check_run(Some(1), RUN_TABLE, false).failed, 1);
    }

    #[test]
    fn sweep_rows_are_checked_one_by_one() {
        let header = "job,status,global_skew,local_skew,global_bound,local_bound,deliveries,watchdog_tripped,error";
        let ok = "0,completed,0.1,0.05,1.0,0.5,10,false,";
        let stdout = "sweep: 3 jobs\ncompleted 3 / failed 0 / watchdog trips 0 in 1ms\n";
        let csv = format!("{header}\n{ok}\n{ok}\n{ok}\n");
        let v = check_sweep(Some(0), stdout, &csv, b"", 3);
        assert_eq!((v.attempted, v.failed, v.deliveries), (3, 0, 30));
        let tripped = csv.replacen("false", "true", 1);
        assert_eq!(check_sweep(Some(0), stdout, &tripped, b"", 3).failed, 1);
        let over = csv.replacen("0.1,", "2.0,", 1);
        assert_eq!(check_sweep(Some(0), stdout, &over, b"", 3).failed, 1);
        let short = format!("{header}\n{ok}\n");
        assert_eq!(check_sweep(Some(0), stdout, &short, b"", 3).failed, 2);
        // The elapsed time is not part of the digest; the CSV is.
        let later = stdout.replace("1ms", "2ms");
        assert_eq!(check_sweep(Some(0), &later, &csv, b"", 3).digest, v.digest);
        assert_ne!(check_sweep(Some(0), stdout, &csv, b"x", 3).digest, v.digest);
    }
}
