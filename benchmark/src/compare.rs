//! `compare A B`: holds result set B (the change) against result set A
//! (the parent) under the bounds the benchmark fixed. Each side is one
//! result document or a directory of them (one document per run).

use crate::metrics::{self, Metric};
use crate::report::{Document, WorkloadResult};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

/// How one workload × metric pairing came out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Regression,
    /// Worse than the bound, but a side's own run-to-run spread is wider
    /// than the bound, so the difference cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Loads one side: a document, or every `*.json` document in a directory.
pub fn load(path: &Path) -> Result<Vec<Document>, String> {
    let read = |p: &Path| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Document::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    if !path.is_dir() {
        return Ok(vec![read(path)?]);
    }
    let mut files: Vec<_> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no .json result documents", path.display()));
    }
    files.iter().map(|p| read(p)).collect()
}

/// One workload's results, grouped by the seed they ran under.
fn by_seed<'a>(docs: &'a [Document], workload: &str) -> BTreeMap<u64, Vec<&'a WorkloadResult>> {
    let mut out: BTreeMap<u64, Vec<&WorkloadResult>> = BTreeMap::new();
    for d in docs {
        if let Some(r) = d.workloads.get(workload) {
            out.entry(d.seed).or_default().push(r);
        }
    }
    out
}

/// Classifies B against A for one metric. `a` and `b` are the per-run
/// values of each side.
pub fn classify(m: &Metric, a: &[f64], b: &[f64]) -> Option<Verdict> {
    let (ma, mb) = (stats::median(a)?, stats::median(b)?);
    // Share by which B is worse than A, in the metric's own direction.
    let worse = if m.higher { (ma - mb) / ma.abs() } else { (mb - ma) / ma.abs() };
    if worse <= m.bound {
        return Some(if worse < -m.bound { Verdict::Better } else { Verdict::WithinBound });
    }
    let noisy = [a, b].iter().any(|side| stats::spread(side).is_some_and(|s| s > m.bound));
    Some(if noisy { Verdict::Unresolved } else { Verdict::Regression })
}

fn fmt(v: f64) -> String {
    if v == 0.0 || (1e-3..1e6).contains(&v.abs()) {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

fn quartile_cell(v: &[f64]) -> String {
    match stats::quartiles(v) {
        Some((q1, _, q3)) => format!("[{}..{}]", fmt(q1), fmt(q3)),
        None => "[n=1]".into(),
    }
}

/// Runs the comparison, printing one row per workload × end-to-end
/// metric. `Ok(true)` means B holds every bound and every exact check.
pub fn compare(a: &[Document], b: &[Document]) -> Result<bool, String> {
    let mut ok = true;
    let mode = &a[0].mode;
    if a.iter().chain(b).any(|d| &d.mode != mode) {
        return Err("result sets mix end_to_end and per_layer documents".into());
    }
    if a.iter().chain(b).any(|d| d.quick) {
        println!("NOTE: a side holds --quick results; they are NOT comparable with full runs");
    }
    let names: Vec<&String> = a[0].workloads.keys().collect();
    for w in &names {
        let side = |docs: &[Document], metric: &str| -> Vec<f64> {
            docs.iter().filter_map(|d| d.workloads.get(*w)?.metrics.get(metric).copied()).collect()
        };
        if !b.iter().any(|d| d.workloads.contains_key(*w)) {
            println!("{w}: missing from B");
            ok = false;
            continue;
        }
        if mode == "end_to_end" {
            for m in metrics::END_TO_END {
                let (va, vb) = (side(a, m.name), side(b, m.name));
                let Some(verdict) = classify(m, &va, &vb) else {
                    println!("{w:<12} {:<22} missing on a side", m.name);
                    ok = false;
                    continue;
                };
                let (ma, mb) =
                    (stats::median(&va).unwrap_or(0.0), stats::median(&vb).unwrap_or(0.0));
                println!(
                    "{w:<12} {:<22} A {:>11} {:<25} B {:>11} {:<25} B/A {:.4} (base {} {}, bound {:.0}%)  {}",
                    m.name,
                    fmt(ma),
                    quartile_cell(&va),
                    fmt(mb),
                    quartile_cell(&vb),
                    mb / ma,
                    fmt(ma),
                    m.unit,
                    m.bound * 100.0,
                    verdict.label()
                );
                ok &= verdict != Verdict::Regression;
            }
        }
        // Same seed, same inputs: the program's counts agree, and digests
        // and store sizes agree cycle for cycle over the cycles both sides
        // ran. A seed only one side ran has nothing to be held against.
        let counts: &[&str] = if mode == "per_layer" { metrics::EXACT_COUNTS } else { &[] };
        let (sa, sb) = (by_seed(a, w), by_seed(b, w));
        for (seed, ra) in &sa {
            let Some(rb) = sb.get(seed) else {
                continue;
            };
            let reference = ra[0];
            for r in ra[1..].iter().chain(rb) {
                for name in counts {
                    let (x, y) = (reference.metrics.get(*name), r.metrics.get(*name));
                    if x != y {
                        println!("{w:<12} {name:<22} differs at seed {seed}: {x:?} vs {y:?}");
                        ok = false;
                    }
                }
                let n = reference.commit_digest.len().min(r.commit_digest.len());
                if reference.commit_digest[..n] != r.commit_digest[..n] {
                    println!("{w:<12} commit_digest differs at seed {seed}: outputs changed");
                    ok = false;
                }
                let n = reference.store_bytes.len().min(r.store_bytes.len());
                if reference.store_bytes[..n] != r.store_bytes[..n] {
                    println!(
                        "{w:<12} store_bytes differs at seed {seed}: {:?} vs {:?}",
                        &reference.store_bytes[..n],
                        &r.store_bytes[..n]
                    );
                    ok = false;
                }
            }
        }
        let fail_rate = |docs: &[Document]| {
            let (f, n) = docs
                .iter()
                .filter_map(|d| d.workloads.get(*w))
                .fold((0, 0), |acc, r| (acc.0 + r.failed, acc.1 + r.attempted));
            f as f64 / n.max(1) as f64
        };
        let (fa, fb) = (fail_rate(a), fail_rate(b));
        if fb > fa {
            println!("{w:<12} ops_failed/ops_attempted rose: A {fa:.6} B {fb:.6}");
            ok = false;
        }
    }
    println!("{}", if ok { "compare: B holds every bound" } else { "compare: FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Metric = Metric { name: "t", unit: "s", higher: false, bound: 0.1 };
    const HIGHER: Metric = Metric { name: "r", unit: "1/s", higher: true, bound: 0.1 };

    #[test]
    fn classify_by_hand() {
        assert_eq!(classify(&LOWER, &[1.0], &[1.05]), Some(Verdict::WithinBound));
        assert_eq!(classify(&LOWER, &[1.0], &[0.95]), Some(Verdict::WithinBound));
        assert_eq!(classify(&LOWER, &[1.0], &[0.8]), Some(Verdict::Better));
        assert_eq!(classify(&LOWER, &[1.0], &[1.2]), Some(Verdict::Regression));
        assert_eq!(classify(&HIGHER, &[100.0], &[80.0]), Some(Verdict::Regression));
        assert_eq!(classify(&HIGHER, &[100.0], &[130.0]), Some(Verdict::Better));
        assert_eq!(classify(&LOWER, &[], &[1.0]), None);
    }

    /// A per-layer document of one workload whose counts all read `count`.
    fn layers_doc(seed: u64, count: f64) -> Document {
        let result = WorkloadResult {
            correct: true,
            attempted: 10,
            cycles: 1,
            commit_digest: vec![format!("{seed:016x}")],
            store_bytes: vec![1000 + seed],
            metrics: metrics::EXACT_COUNTS.iter().map(|n| (n.to_string(), count)).collect(),
            ..WorkloadResult::default()
        };
        Document {
            mode: "per_layer".into(),
            seed,
            seconds: 1.0,
            workloads: BTreeMap::from([("rb-quiet".to_string(), result)]),
            ..Document::default()
        }
    }

    #[test]
    fn exact_checks_hold_each_seed_against_itself_across_directories() {
        // Two directories of per-layer results, two seeds each: counts,
        // digests and store sizes differ from seed to seed, as they do.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("target/compare-test-{}", std::process::id()));
        let write = |side: &str, docs: &[Document]| {
            let dir = root.join(side);
            std::fs::create_dir_all(&dir).expect("test directory");
            for d in docs {
                std::fs::write(dir.join(format!("seed{}.json", d.seed)), d.to_json())
                    .expect("write");
            }
            load(&dir).expect("loads")
        };
        let a = write("a", &[layers_doc(1, 7.0), layers_doc(2, 9.0)]);
        let same = write("b", &[layers_doc(1, 7.0), layers_doc(2, 9.0)]);
        let moved = write("c", &[layers_doc(1, 7.0), layers_doc(2, 10.0)]);
        let mut redone = layers_doc(2, 9.0);
        redone.workloads.get_mut("rb-quiet").unwrap().commit_digest = vec!["changed".into()];
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(a.len(), 2);
        assert_eq!(compare(&a, &same), Ok(true));
        assert_eq!(compare(&a, &moved), Ok(false), "a count moved at seed 2");
        assert_eq!(compare(&a, &[redone]), Ok(false), "outputs changed at seed 2");
        // A seed only B ran is held against nothing.
        assert_eq!(compare(&a, &[layers_doc(3, 1.0)]), Ok(true));
    }

    #[test]
    fn a_noisy_side_makes_a_loss_unresolved() {
        // A's quartiles span 0.6..1.4 of its median: far wider than 10 %.
        let a = [0.5, 0.8, 1.0, 1.2, 1.5];
        let b = [1.0, 1.1, 1.2, 1.3, 1.4];
        assert_eq!(classify(&LOWER, &a, &b), Some(Verdict::Unresolved));
        // A tight pair of sides resolves to a regression.
        let a = [1.0, 1.01, 1.02];
        let b = [1.2, 1.21, 1.22];
        assert_eq!(classify(&LOWER, &a, &b), Some(Verdict::Regression));
    }
}
