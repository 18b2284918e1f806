//! The output check. At the default seed a body's canonical output must
//! hash to the digest committed in `digests.txt`; at every seed it must
//! equal the run the repository promises it equals (1 worker == 2
//! workers, resumed == straight run) and repeat exactly from run to run.
//! Every mismatch, and every job whose outcome carries an error or
//! requests other bytes than its generated dataset, counts as a failure.

use crate::workloads::{Kind, Output, DEFAULT_SEED};

/// `workload digest` lines for the default seed.
const COMMITTED: &str = include_str!("../digests.txt");

/// 64-bit FNV-1a: a stable, dependency-free digest of a report.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The committed default-seed digest of `kind`, if any.
pub fn committed(kind: Kind) -> Option<u64> {
    committed_in(COMMITTED, kind)
}

fn committed_in(table: &str, kind: Kind) -> Option<u64> {
    table.lines().find_map(|line| {
        let mut words = line.split_whitespace();
        (words.next() == Some(kind.name()))
            .then(|| words.next())
            .flatten()
            .and_then(|hex| u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok())
    })
}

/// Mismatches found by the checks, with a line describing each.
#[derive(Debug, Default)]
pub struct Verdict {
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Verdict {
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(note);
    }

    /// Counts jobs that carry an error or request other bytes than the
    /// dataset set-up generated for them.
    pub fn jobs(&mut self, out: &Output, requested: &[u64]) {
        if out.jobs.len() != requested.len() {
            self.fail(format!(
                "{} job outcomes for {} jobs",
                out.jobs.len(),
                requested.len()
            ));
        }
        for (i, ((bytes, error), want)) in out.jobs.iter().zip(requested).enumerate() {
            if *error {
                self.fail(format!("job {i} ended in an error"));
            } else if bytes != want {
                self.fail(format!(
                    "job {i} requested {bytes} bytes, its dataset holds {want}"
                ));
            }
        }
    }

    /// Counts one mismatch unless `got == want`.
    pub fn same(&mut self, what: &str, got: &str, want: &str) {
        if got != want {
            self.fail(format!(
                "{what}: digest {:#018x} != {:#018x}",
                digest(got),
                digest(want)
            ));
        }
    }

    /// Compares with the committed digest at the default seed.
    pub fn committed(&mut self, kind: Kind, seed: u64, text: &str) {
        if seed != DEFAULT_SEED {
            return;
        }
        let got = digest(text);
        match committed(kind) {
            Some(want) if want == got => {}
            Some(want) => self.fail(format!(
                "{}: digest {got:#018x} != committed {want:#018x}",
                kind.name()
            )),
            None => self.fail(format!(
                "{}: no committed digest (got {got:#018x})",
                kind.name()
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output(text: &str, jobs: Vec<(u64, bool)>) -> Output {
        Output {
            text: text.to_string(),
            jobs,
            failures: 0,
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn committed_table_parses_and_skips_unknown_lines() {
        let table = "# comment\nfigures-batch 0x00000000000000ff\nserve-contended 10\n";
        assert_eq!(committed_in(table, Kind::Figures), Some(0xff));
        assert_eq!(committed_in(table, Kind::Serve), Some(0x10));
        assert_eq!(committed_in(table, Kind::Turbulent), None);
    }

    #[test]
    fn every_workload_has_a_committed_digest() {
        for kind in Kind::ALL {
            assert!(committed(kind).is_some(), "{}", kind.name());
        }
    }

    #[test]
    fn a_corrupted_report_is_caught() {
        let report = "{\"jobs\": [{\"moved_bytes\": 1000}]}\n";
        let corrupted = report.replace("1000", "1001");
        let mut v = Verdict::default();
        v.same("resumed == straight", report, report);
        assert_eq!(v.failed, 0);
        v.same("resumed == straight", &corrupted, report);
        assert_eq!(v.failed, 1);

        // At the default seed the committed digest catches it on its own.
        let kind = Kind::Figures;
        let mut v = Verdict::default();
        v.committed(kind, DEFAULT_SEED + 1, &corrupted);
        assert_eq!(v.failed, 0, "other seeds are checked by invariants only");
        v.committed(kind, DEFAULT_SEED, &corrupted);
        assert_eq!(v.failed, 1);
    }

    #[test]
    fn job_errors_and_byte_mismatches_count_once_each() {
        let mut v = Verdict::default();
        v.jobs(
            &output("", vec![(10, false), (20, true), (31, false)]),
            &[10, 20, 30],
        );
        assert_eq!(v.failed, 2);
        let mut v = Verdict::default();
        v.jobs(&output("", vec![(10, false)]), &[10, 20]);
        assert_eq!(v.failed, 1, "a missing outcome is a mismatch");
    }
}
