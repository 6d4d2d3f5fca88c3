//! What the benchmark prints and writes: the per-run table, the driver's
//! one-line result, and the multi-workload result document `compare`
//! reads back (parsed with the repo's own `defined::obs::json`).

use crate::metrics::{self, Metric, Values};
use crate::workload::Outcome;
use defined::obs::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One workload's result, as stored in a result document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub cycles: u64,
    pub commit_digest: Vec<String>,
    pub store_bytes: Vec<u64>,
    pub metrics: Values,
}

/// A whole run of the benchmark: every workload under one seed and mode.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Document {
    /// `"end_to_end"` or `"per_layer"`.
    pub mode: String,
    pub quick: bool,
    pub seed: u64,
    pub seconds: f64,
    pub workloads: BTreeMap<String, WorkloadResult>,
}

/// The metric table of a mode.
pub fn table(trace: bool) -> &'static [Metric] {
    if trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    }
}

fn num(v: f64) -> String {
    // Rust prints the shortest decimal that round-trips, never an
    // exponent: every digit measured, nothing padded.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(values: &Values, trace: bool) -> String {
    let body: Vec<String> = table(trace)
        .iter()
        .filter_map(|m| {
            // A per-layer metric this workload does not exercise reads 0.
            let v = values.get(m.name).copied().or(trace.then_some(0.0))?;
            Some(format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, num(v), m.unit))
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Whether the run may be reported as correct: nothing failed and every
/// metric of the mode has a finite value.
pub fn correct(o: &Outcome, trace: bool) -> bool {
    o.failed == 0
        && table(trace).iter().all(|m| match o.values.get(m.name) {
            Some(v) => v.is_finite(),
            None => trace,
        })
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_line(o: &Outcome, trace: bool) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        correct(o, trace),
        o.attempted.max(1),
        o.failed,
        metrics_json(&o.values, trace)
    )
}

/// The `detail` line a parent harness reads beside the result line.
pub fn detail_line(o: &Outcome) -> String {
    let digests: Vec<String> = o.digests.iter().map(|d| format!("\"{d:016x}\"")).collect();
    let sizes: Vec<String> = o.store_bytes.iter().map(u64::to_string).collect();
    format!(
        "detail {{\"cycles\":{},\"commit_digest\":[{}],\"store_bytes\":[{}]}}",
        o.cycles,
        digests.join(","),
        sizes.join(",")
    )
}

/// The human table: every metric by name with its unit.
pub fn render(workload: &str, o: &Outcome, trace: bool, quick: bool) -> String {
    let mut out = String::new();
    if quick {
        let _ = writeln!(out, "QUICK MODE: smoke-test sizes, NOT comparable with full runs");
    }
    let _ = writeln!(
        out,
        "{workload}: {} cycle(s), {} op(s) attempted, {} failed",
        o.cycles, o.attempted, o.failed
    );
    for f in &o.failures {
        let _ = writeln!(out, "  FAILED {f}");
    }
    let counts: BTreeMap<&str, &str> = o.samples.iter().map(|(k, n)| (*k, n.as_str())).collect();
    for m in table(trace) {
        let value = match o.values.get(m.name) {
            Some(v) => num(*v),
            None if trace => "0".into(),
            None => "missing".into(),
        };
        let n = counts.get(m.name).map_or(String::new(), |n| format!("  (n={n})"));
        let _ = writeln!(out, "  {:<34} {:>22} {}{}", m.name, value, m.unit, n);
    }
    for (i, d) in o.digests.iter().enumerate() {
        let _ = writeln!(out, "  commit_digest[{i}] {d:016x}");
    }
    if !o.span_table.is_empty() {
        let _ = writeln!(
            out,
            "  harness spans: name, count, total s, self s (total minus child spans)"
        );
        for (name, n, total, own) in &o.span_table {
            let _ = writeln!(out, "    {name:<28} {n:>7} {total:>12.6} {own:>12.6}");
        }
    }
    out
}

impl Document {
    /// Serialises the document; the last member is `"claim": null` — this
    /// benchmark measures, it does not claim.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"benchmark\": \"defined\",");
        let _ = writeln!(out, "  \"mode\": \"{}\",", self.mode);
        let _ = writeln!(out, "  \"quick\": {},", self.quick);
        let _ = writeln!(out, "  \"comparable\": {},", !self.quick);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"seconds\": {},", num(self.seconds));
        let _ = writeln!(out, "  \"workloads\": {{");
        let trace = self.mode == "per_layer";
        let n = self.workloads.len();
        for (i, (name, w)) in self.workloads.iter().enumerate() {
            let digests: Vec<String> = w.commit_digest.iter().map(|d| format!("\"{d}\"")).collect();
            let sizes: Vec<String> = w.store_bytes.iter().map(u64::to_string).collect();
            let _ = writeln!(out, "    \"{name}\": {{");
            let _ = writeln!(out, "      \"correct\": {},", w.correct);
            let _ = writeln!(out, "      \"ops_attempted\": {},", w.attempted);
            let _ = writeln!(out, "      \"ops_failed\": {},", w.failed);
            let _ = writeln!(out, "      \"cycles\": {},", w.cycles);
            let _ = writeln!(out, "      \"commit_digest\": [{}],", digests.join(", "));
            let _ = writeln!(out, "      \"store_bytes\": [{}],", sizes.join(", "));
            let _ = writeln!(out, "      \"metrics\": {}", metrics_json(&w.metrics, trace));
            let _ = writeln!(out, "    }}{}", if i + 1 < n { "," } else { "" });
        }
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"claim\": null");
        out.push_str("}\n");
        out
    }

    /// Parses a document written by [`Document::to_json`].
    pub fn parse(text: &str) -> Result<Document, String> {
        let v = json::parse(text)?;
        let str_of = |k: &str| match v.get(k) {
            Some(Value::Str(s)) => Ok(s.clone()),
            _ => Err(format!("missing string `{k}`")),
        };
        if str_of("benchmark")? != "defined" {
            return Err("not a defined-benchmark result".into());
        }
        let Some(Value::Obj(ws)) = v.get("workloads") else {
            return Err("missing `workloads`".into());
        };
        let mut workloads = BTreeMap::new();
        for (name, w) in ws {
            workloads.insert(name.clone(), parse_workload(w).map_err(|e| format!("{name}: {e}"))?);
        }
        Ok(Document {
            mode: str_of("mode")?,
            quick: v.get("quick") == Some(&Value::Bool(true)),
            seed: v.get("seed").and_then(Value::as_u64).ok_or("missing `seed`")?,
            seconds: match v.get("seconds") {
                Some(Value::Num(n)) => *n,
                _ => return Err("missing `seconds`".into()),
            },
            workloads,
        })
    }
}

fn parse_workload(w: &Value) -> Result<WorkloadResult, String> {
    let u = |k: &str| w.get(k).and_then(Value::as_u64).ok_or(format!("missing `{k}`"));
    let list = |k: &str| match w.get(k) {
        Some(Value::Arr(items)) => Ok(items.clone()),
        _ => Err(format!("missing `{k}`")),
    };
    let Some(Value::Obj(ms)) = w.get("metrics") else {
        return Err("missing `metrics`".into());
    };
    let mut metrics = Values::new();
    for (name, m) in ms {
        if let Some(Value::Num(v)) = m.get("value") {
            metrics.insert(name.clone(), *v);
        }
    }
    Ok(WorkloadResult {
        correct: w.get("correct") == Some(&Value::Bool(true)),
        attempted: u("ops_attempted")?,
        failed: u("ops_failed")?,
        cycles: u("cycles")?,
        commit_digest: list("commit_digest")?
            .into_iter()
            .filter_map(|d| match d {
                Value::Str(s) => Some(s),
                _ => None,
            })
            .collect(),
        store_bytes: list("store_bytes")?.iter().filter_map(Value::as_u64).collect(),
        metrics,
    })
}

/// Reads a child run's stdout back: its `detail` line and result line.
pub fn parse_child(stdout: &str) -> Result<WorkloadResult, String> {
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty()).ok_or("no output")?;
    let r = json::parse(last).map_err(|e| format!("result line: {e}"))?;
    let detail =
        stdout.lines().rev().find_map(|l| l.strip_prefix("detail ")).ok_or("no detail line")?;
    let d = json::parse(detail).map_err(|e| format!("detail line: {e}"))?;
    // Same shape as a document entry, under the driver's key names.
    let merged = Value::Obj(BTreeMap::from([
        ("correct".to_string(), r.get("correct").cloned().unwrap_or(Value::Null)),
        ("ops_attempted".to_string(), r.get("attempted").cloned().unwrap_or(Value::Null)),
        ("ops_failed".to_string(), r.get("failed").cloned().unwrap_or(Value::Null)),
        ("metrics".to_string(), r.get("metrics").cloned().unwrap_or(Value::Null)),
        ("cycles".to_string(), d.get("cycles").cloned().unwrap_or(Value::Null)),
        ("commit_digest".to_string(), d.get("commit_digest").cloned().unwrap_or(Value::Null)),
        ("store_bytes".to_string(), d.get("store_bytes").cloned().unwrap_or(Value::Null)),
    ]));
    parse_workload(&merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(trace: bool) -> Outcome {
        let mut o = Outcome { attempted: 42, cycles: 3, ..Outcome::default() };
        for (i, m) in table(trace).iter().enumerate() {
            o.values.insert(m.name.to_string(), 0.001234567 * (i + 1) as f64);
        }
        o.digests = vec![0xdead_beef, 7];
        o.store_bytes = vec![1000, 1001];
        o
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        for trace in [false, true] {
            let o = outcome(trace);
            let v = json::parse(&result_line(&o, trace)).expect("parses");
            let Value::Obj(top) = &v else { panic!("not an object") };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
            let Some(Value::Obj(ms)) = v.get("metrics") else { panic!("no metrics") };
            assert_eq!(ms.len(), table(trace).len());
            for m in table(trace) {
                let entry = ms.get(m.name).unwrap_or_else(|| panic!("{} missing", m.name));
                assert_eq!(entry.get("unit"), Some(&Value::Str(m.unit.into())));
                assert!(matches!(entry.get("value"), Some(Value::Num(_))));
            }
        }
    }

    #[test]
    fn a_missing_end_to_end_metric_or_a_failure_is_not_correct() {
        let mut o = outcome(false);
        o.values.remove("replay_wall_s");
        assert!(!correct(&o, false));
        let mut o = outcome(false);
        o.failed = 1;
        assert!(!correct(&o, false));
        // Per-layer metrics a workload does not exercise read 0.
        let mut o = outcome(true);
        o.values.remove("routing.bgp.ns_per_event");
        assert!(correct(&o, true));
        assert!(result_line(&o, true).contains("\"routing.bgp.ns_per_event\":{\"value\":0,"));
    }

    #[test]
    fn documents_round_trip_and_end_with_a_null_claim() {
        let o = outcome(false);
        let child = format!(
            "{}{}\n{}\n",
            render("w", &o, false, false),
            detail_line(&o),
            result_line(&o, false)
        );
        let w = parse_child(&child).expect("child output parses");
        assert_eq!((w.attempted, w.failed, w.cycles), (42, 0, 3));
        assert_eq!(w.commit_digest, ["00000000deadbeef", "0000000000000007"]);
        assert_eq!(w.store_bytes, [1000, 1001]);
        assert_eq!(w.metrics, o.values);
        let doc = Document {
            mode: "end_to_end".into(),
            quick: false,
            seed: 11,
            seconds: 10.0,
            workloads: BTreeMap::from([
                ("rb-churn".to_string(), w.clone()),
                ("rb-quiet".to_string(), w),
            ]),
        };
        let text = doc.to_json();
        assert!(text.trim_end().ends_with("\"claim\": null\n}"), "{text}");
        assert_eq!(Document::parse(&text).expect("round-trips"), doc);
    }

    #[test]
    fn emitted_metrics_cover_benchmark_json() {
        // The checked-in contract file and the tables here list the same
        // names, units, directions and bounds, in the same order.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v =
            json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses");
        for (key, tab) in [("end_to_end", metrics::END_TO_END), ("per_layer", metrics::PER_LAYER)] {
            let Some(Value::Arr(items)) = v.get(key) else { panic!("{key} missing") };
            assert_eq!(items.len(), tab.len(), "{key}");
            for (item, m) in items.iter().zip(tab) {
                assert_eq!(item.get("name"), Some(&Value::Str(m.name.into())));
                assert_eq!(item.get("unit"), Some(&Value::Str(m.unit.into())), "{}", m.name);
                let better = if m.higher { "higher" } else { "lower" };
                assert_eq!(item.get("better"), Some(&Value::Str(better.into())), "{}", m.name);
                if key == "end_to_end" {
                    assert_eq!(item.get("bound"), Some(&Value::Num(m.bound)), "{}", m.name);
                }
            }
        }
        let Some(Value::Arr(ws)) = v.get("workloads") else { panic!("workloads missing") };
        let names: Vec<_> = ws.iter().filter_map(|w| w.get("name")).collect();
        let expected: Vec<Value> =
            crate::gen::WORKLOADS.iter().map(|w| Value::Str(w.to_string())).collect();
        assert_eq!(names, expected.iter().collect::<Vec<_>>());
    }
}
