//! Runs the benchmark binary on tiny worlds and checks what it prints
//! against the contract in `BENCHMARK.json`: the last line is one JSON
//! object with exactly `correct`, `attempted`, `failed` and `metrics`,
//! and `metrics` holds exactly the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`), each with its declared unit.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// A parsed JSON value (just what these tests need).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes in {text}");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(kv);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    kv.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(kv),
                        c => panic!("unexpected {:?}", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(items),
                        c => panic!("unexpected {:?}", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not expected here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

/// `BENCHMARK.json`'s metric declarations: name → (unit, section).
fn declared() -> (Json, BTreeMap<String, (String, &'static str)>) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let bench = Parser::parse(&text);
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        let Some(Json::Arr(items)) = bench.get(section) else {
            panic!("{section} must be a list")
        };
        for m in items {
            let name = m.get("name").expect("name").str().to_string();
            let unit = m.get("unit").expect("unit").str().to_string();
            assert!(
                out.insert(name.clone(), (unit, section)).is_none(),
                "{name} twice"
            );
        }
    }
    (bench, out)
}

fn run(workload: &str, trace: u8) -> (Json, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let result = Parser::parse(lines.last().expect("a result line"));
    let meta = Parser::parse(lines[lines.len() - 2]);
    (result, meta)
}

#[test]
fn every_workload_prints_the_declared_metrics() {
    let (bench, declared) = declared();
    let Some(Json::Arr(workloads)) = bench.get("workloads") else {
        panic!("workloads must be a list")
    };
    assert_eq!(workloads.len(), 4);
    for w in workloads {
        let name = w.get("name").expect("workload name").str();
        for (trace, section) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let (result, meta) = run(name, trace);
            assert_eq!(result.keys(), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{name}");
            let attempted = result.get("attempted").expect("attempted").num();
            let failed = result.get("failed").expect("failed").num();
            assert!(attempted >= 1.0 && attempted.fract() == 0.0);
            assert_eq!(failed, 0.0, "{name}");
            let metrics = result.get("metrics").expect("metrics");
            let want: Vec<&str> = declared
                .iter()
                .filter(|(_, (_, s))| *s == section)
                .map(|(n, _)| n.as_str())
                .collect();
            let mut got = metrics.keys();
            got.sort_unstable();
            assert_eq!(got, want, "{name} --trace {trace}");
            for n in got {
                let m = metrics.get(n).expect("metric");
                assert_eq!(m.keys(), ["value", "unit"], "{n}");
                assert_eq!(m.get("unit").expect("unit").str(), declared[n].0, "{n}");
                assert!(m.get("value").expect("value").num().is_finite(), "{n}");
            }
            let meta = meta.get("meta").expect("meta record");
            for key in [
                "nproc",
                "cpu",
                "threads",
                "seed",
                "world",
                "op_ms_tail_pct",
                "setup_s_probes",
            ] {
                assert!(meta.get(key).is_some(), "meta lacks {key}");
            }
            // The untraced run's `setup_s` is the median of three probes.
            let Some(Json::Arr(probes)) = meta.get("setup_s_probes") else {
                panic!("setup_s_probes must be a list")
            };
            assert_eq!(probes.len(), if trace == 0 { 3 } else { 0 }, "{name}");
        }
    }
}

#[test]
fn same_seed_gives_the_same_quality_and_counts() {
    let (a, _) = run("active-feedback", 1);
    let (b, _) = run("active-feedback", 1);
    for n in [
        "count.nnz",
        "featurize.cells",
        "delta.applied",
        "converge.inner_iters",
    ] {
        let v = |r: &Json| {
            r.get("metrics")
                .and_then(|m| m.get(n))
                .expect(n)
                .get("value")
                .cloned()
        };
        assert_eq!(v(&a), v(&b), "{n}");
    }
    let (a, _) = run("align-sharded", 0);
    let (b, _) = run("align-sharded", 0);
    let f1 = |r: &Json| r.get("metrics").and_then(|m| m.get("f1")).cloned();
    assert_eq!(f1(&a), f1(&b));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "serve-mix",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "7",
        ],
        vec![],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("run perfbench");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
