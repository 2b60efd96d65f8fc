//! Every metric the benchmark prints must be declared in
//! `BENCHMARK.json` under the same name and unit, and vice versa.

use std::process::Command;

/// Just enough JSON for `BENCHMARK.json` and the result line.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => {
                &fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no `{key}`"))
                    .1
            }
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string"),
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
        assert_eq!(p.i, p.s.len(), "trailing text");
        v
    }

    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        let hit = self.s.get(self.i) == Some(&c);
        self.i += usize::from(hit);
        hit
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                while !self.eat(b'}') {
                    self.eat(b',');
                    let key = self.string();
                    assert!(self.eat(b':'));
                    fields.push((key, self.value()));
                }
                Json::Obj(fields)
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                while !self.eat(b']') {
                    self.eat(b',');
                    items.push(self.value());
                }
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            b't' | b'f' | b'n' => {
                let word: String = self.s[self.i..]
                    .iter()
                    .take_while(|c| c.is_ascii_alphabetic())
                    .map(|&c| c as char)
                    .collect();
                self.i += word.len();
                match word.as_str() {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    "null" => Json::Null,
                    _ => panic!("bad literal {word}"),
                }
            }
            _ => {
                let num: String = self.s[self.i..]
                    .iter()
                    .take_while(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                    .map(|&c| c as char)
                    .collect();
                self.i += num.len();
                Json::Num(num.parse().unwrap_or_else(|_| panic!("bad number {num}")))
            }
        }
    }

    fn string(&mut self) -> String {
        self.ws();
        assert_eq!(self.s[self.i], b'"');
        self.i += 1;
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "escapes are not expected here");
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8")
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn declared(section: &str) -> Vec<(String, String)> {
    match benchmark_json().get(section) {
        Json::Arr(items) => items
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_owned(),
                    m.get("unit").str().to_owned(),
                )
            })
            .collect(),
        _ => panic!("`{section}` is not a list"),
    }
}

fn printed(trace: &str) -> Vec<(String, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "poisson_stream",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--tiny",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let result = Parser::parse(stdout.lines().last().expect("a result line"));
    assert_eq!(result.get("correct"), &Json::Bool(true));
    assert!(matches!(result.get("attempted"), Json::Num(n) if *n >= 1.0));
    match result.get("metrics") {
        Json::Obj(metrics) => metrics
            .iter()
            .map(|(name, m)| {
                assert!(
                    matches!(m.get("value"), Json::Num(_)),
                    "{name} has no numeric value"
                );
                (name.clone(), m.get("unit").str().to_owned())
            })
            .collect(),
        _ => panic!("metrics is not an object"),
    }
}

#[test]
fn end_to_end_metrics_match_the_declaration() {
    assert_eq!(printed("0"), declared("end_to_end"));
}

#[test]
fn per_layer_metrics_match_the_declaration() {
    assert_eq!(printed("1"), declared("per_layer"));
}

/// `paper_batch` is runnable but not declared: see the README.
#[test]
fn declared_workloads_exist() {
    let names: Vec<String> = match benchmark_json().get("workloads") {
        Json::Arr(items) => items
            .iter()
            .map(|w| w.get("name").str().to_owned())
            .collect(),
        _ => panic!("`workloads` is not a list"),
    };
    assert!(!names.is_empty());
    for name in &names {
        assert!(
            cloudqc_perfbench::workload::Kind::parse(name).is_some(),
            "declared workload `{name}` does not exist"
        );
    }
}
