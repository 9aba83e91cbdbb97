//! Correctness checks and the simulated-statistics digest.

use smtsim_rob2::journal::fingerprint_str;
use smtsim_rob2::CellOutcome;
use std::fmt::Write as _;

/// Running count of checked items (cells, solo runs, comparisons) and
/// of those that failed, with a note per failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }
}

/// The row label of a rendered figure line (`render_figure` left-aligns
/// it in a 10-character column).
fn row_label(line: &str) -> &str {
    line.get(..10).unwrap_or(line).trim_end()
}

/// Compares the per-mix rows of `rendered` against the rows of the same
/// mixes in the committed `golden` figure. Returns one `(mix name,
/// equal)` pair per mix; a row missing on either side is unequal.
pub fn compare_rows(golden: &str, rendered: &str, mix_names: &[String]) -> Vec<(String, bool)> {
    let find = |text: &str, name: &str| {
        text.lines()
            .find(|l| row_label(l) == name)
            .map(str::to_owned)
    };
    mix_names
        .iter()
        .map(|name| {
            let g = find(golden, name);
            let ok = g.is_some() && g == find(rendered, name);
            (name.clone(), ok)
        })
        .collect()
}

/// Hash over every cell's simulated cycles, per-thread committed
/// instructions and L2 misses, and two-level allocator statistics, in
/// cell order. Equal digests mean the simulation produced the same
/// counts; failed cells hash their error text.
pub fn digest(outcomes: &[CellOutcome]) -> String {
    let mut canon = String::new();
    for o in outcomes {
        match &o.result {
            Ok(r) => {
                let _ = write!(canon, "{}|{}|{}", r.mix, r.config, r.stats.cycles);
                for t in &r.stats.threads {
                    let _ = write!(canon, "|{},{}", t.committed, t.l2_misses);
                }
                let _ = writeln!(canon, "|{:?}", r.twolevel);
            }
            Err(e) => {
                let _ = writeln!(canon, "error|{e}");
            }
        }
    }
    fingerprint_str(&canon)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLDEN: &str = "\
Figure 2: FT with 2-Level R-ROB
               Baseline_32    Baseline_128 2-Level R-ROB16
Mix 1               0.9939          1.1261          1.1243
Mix 2               0.9167          1.0832          1.0253
Mix 10              0.5762          0.6282          0.5762
Average             0.8775          0.6996          0.9213
";

    fn names(ms: &[&str]) -> Vec<String> {
        ms.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn identical_rows_pass_and_a_perturbed_row_is_caught() {
        let mixes = names(&["Mix 1", "Mix 2", "Mix 10"]);
        assert!(compare_rows(GOLDEN, GOLDEN, &mixes)
            .iter()
            .all(|(_, ok)| *ok));

        let perturbed = GOLDEN.replace("1.0253", "1.0254");
        let result = compare_rows(GOLDEN, &perturbed, &mixes);
        let bad: Vec<&str> = result
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|(m, _)| m.as_str())
            .collect();
        assert_eq!(bad, ["Mix 2"]);

        let mut tally = Tally::default();
        for (m, ok) in result {
            tally.check(ok, || format!("{m} differs"));
        }
        assert_eq!((tally.attempted, tally.failed), (3, 1));
    }

    #[test]
    fn mix_1_does_not_match_the_mix_10_row_and_missing_rows_fail() {
        let only_ten = "Mix 10              0.5762          0.6282          0.5762\n";
        let result = compare_rows(GOLDEN, only_ten, &names(&["Mix 1", "Mix 10"]));
        assert_eq!(
            result,
            [("Mix 1".to_string(), false), ("Mix 10".to_string(), true)]
        );
    }
}
