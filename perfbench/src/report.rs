//! What the benchmark reports and how: the metric tables `BENCHMARK.json`
//! is generated from, the sample statistics, a small JSON value (the
//! container has no serde), the result file and `compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the system sees, with the share
/// of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

/// Every end-to-end metric is lower-is-better and is printed for every
/// workload. `failed_share` is not in this table: it is 0 on a correct
/// build, which the result line's `attempted` / `failed` / `correct`
/// carry instead.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd { name: "setup_s", unit: "s", bound: 0.25 },
    EndToEnd { name: "online_ms_p50", unit: "ms", bound: 0.15 },
    EndToEnd { name: "online_ms_tail", unit: "ms", bound: 0.15 },
    EndToEnd { name: "offline_ms_per_query", unit: "ms", bound: 0.15 },
    EndToEnd { name: "query_wall_ms", unit: "ms", bound: 0.12 },
    EndToEnd { name: "wire_bytes_per_query", unit: "bytes", bound: 0.001 },
    EndToEnd { name: "wire_flights_per_query", unit: "count", bound: 0.001 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", bound: 0.10 },
];

/// The two metrics that are counts made by the program: `compare` allows
/// them no tolerance at all.
pub const EXACT: [&str; 2] = ["wire_bytes_per_query", "wire_flights_per_query"];

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

/// One per-layer metric of the traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// The modular kernels probed at the resolved tier and at `Scalar`.
pub const KERNELS: [&str; 8] = [
    "mul_mod",
    "add_mul_mod",
    "butterfly_fwd",
    "butterfly_inv",
    "ks_accumulate",
    "extract_digit",
    "gather",
    "scale_combine",
];

/// The HE operations probed one call at a time.
pub const HE_OPS: [&str; 11] = [
    "encode",
    "decode",
    "encrypt",
    "decrypt",
    "add",
    "add_plain",
    "mul_plain",
    "prepare_mul_plain",
    "rotate",
    "hoist",
    "rotate_hoisted",
];

/// Server-side HE op counts per query, per phase.
pub const HE_COUNTS: [&str; 8] =
    ["rotations", "ntt", "mask_prep", "mul_plain", "add", "add_plain", "encrypt", "decrypt"];

/// Table II step categories, in `StepCategory::all()` order.
pub const STEPS: [&str; 6] = ["embed", "qkv", "qxk", "softmax", "attn_value", "others"];

/// Every per-layer metric, in the order the traced run prints them.
pub fn per_layer() -> Vec<Layer> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    let mut push = |name: String, unit: &'static str, better: Better| {
        out.push(Layer { name, unit, better });
    };
    push("he.simd.tier".into(), "lanes", Higher);
    for k in KERNELS {
        push(format!("he.simd.{k}_ns_per_elem"), "ns", Lower);
        push(format!("he.simd.{k}_scalar_ns_per_elem"), "ns", Lower);
    }
    push("he.ntt.forward_us".into(), "us", Lower);
    push("he.ntt.inverse_us".into(), "us", Lower);
    for op in HE_OPS {
        push(format!("he.op.{op}_us"), "us", Lower);
    }
    push("he.keygen_ms".into(), "ms", Lower);
    push("he.galois_keygen_ms".into(), "ms", Lower);
    push("he.galois_keys_bytes".into(), "bytes", Lower);
    for c in HE_COUNTS {
        push(format!("he.count.{c}.offline"), "count", Lower);
        push(format!("he.count.{c}.online"), "count", Lower);
    }
    push("gc.garble_ns_per_and".into(), "ns", Lower);
    push("gc.eval_ns_per_and".into(), "ns", Lower);
    push("gc.ot.base_ms".into(), "ms", Lower);
    push("gc.ot.iknp_ns_per_ot".into(), "ns", Lower);
    push("gc.circuits_build_ms".into(), "ms", Lower);
    push("gc.and_gates_per_query".into(), "count", Lower);
    for s in STEPS {
        push(format!("core.step.{s}.offline_ms"), "ms", Lower);
        push(format!("core.step.{s}.online_ms"), "ms", Lower);
        push(format!("core.step.{s}.bytes"), "bytes", Lower);
    }
    push("core.step.online_coverage".into(), "share", Higher);
    push("core.step.offline_coverage".into(), "share", Higher);
    for p in ["hgs", "fhgs", "chgs"] {
        push(format!("core.{p}.offline_ms"), "ms", Lower);
        push(format!("core.{p}.online_ms"), "ms", Lower);
    }
    push("core.packing.feature_based_matmul_ms".into(), "ms", Lower);
    push("core.packing.tokens_first_matmul_ms".into(), "ms", Lower);
    for m in ["sim", "garbled"] {
        push(format!("core.gcmod.softmax4x4.{m}.offline_ms"), "ms", Lower);
        push(format!("core.gcmod.softmax4x4.{m}.online_ms"), "ms", Lower);
    }
    push("core.plane.build_ms".into(), "ms", Lower);
    push("core.plane.mask_bytes".into(), "bytes", Lower);
    push("core.costmodel.drift.offline".into(), "ratio", Lower);
    push("core.costmodel.drift.online".into(), "ratio", Lower);
    for party in ["client", "server"] {
        push(format!("net.{party}.send_ms_per_query"), "ms", Lower);
        push(format!("net.{party}.recv_wait_ms_per_query"), "ms", Lower);
    }
    push("net.mem.roundtrip_us".into(), "us", Lower);
    push("net.mem.copy_gbps".into(), "GB/s", Higher);
    push("net.tcp.roundtrip_us".into(), "us", Lower);
    push("net.tcp.gbps".into(), "GB/s", Higher);
    push("net.shaped.lan_drift".into(), "ratio", Lower);
    push("net.lan_residual_ms".into(), "ms", Lower);
    push("serve.bind_ms".into(), "ms", Lower);
    push("serve.handshake_ms".into(), "ms", Lower);
    push("serve.open_ms.cold".into(), "ms", Lower);
    push("serve.open_ms.warm".into(), "ms", Lower);
    push("serve.plane_cache.hit_share".into(), "share", Higher);
    push("serve.stats_poll_ms".into(), "ms", Lower);
    push("serve.suspend_ms".into(), "ms", Lower);
    push("serve.resume_ms".into(), "ms", Lower);
    push("serve.suspend_image_bytes".into(), "bytes", Lower);
    push("nn.fixed_logits_us".into(), "us", Lower);
    push("math.matz_matmul_us".into(), "us", Lower);
    push("ss.share_vec_ns_per_elem".into(), "ns", Lower);
    push("obs.span_disabled_ns".into(), "ns", Lower);
    push("trace.overhead_share".into(), "share", Lower);
    out
}

/// `BENCHMARK.json`, generated from the tables above and the workload
/// list so the declared names cannot drift from the emitted ones.
pub fn benchmark_spec(workloads: &[(&str, &str)]) -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"perfbench/Cargo.toml\", \"--bin\", \"primer-bench\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in workloads.iter().enumerate() {
        let comma = if i + 1 < workloads.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": {}, \"why\": {}}}{comma}", quote(name), quote(why));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

// ---------------------------------------------------------------------
// Sample statistics
// ---------------------------------------------------------------------

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("a measurement is never NaN"));
    v
}

/// Median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The percentile rule of the choosing-metrics guide: the highest
/// percentile that still has at least ten samples beyond it, as
/// `(percentile, value)`; `None` below twenty samples, where that
/// percentile would sit under the median.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 20 {
        return None;
    }
    let v = sorted(xs);
    Some((100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

/// [`tail_percentile`], falling back to the maximum where the sample is
/// too small for one — every workload has to print the metric.
pub fn tail_or_max(xs: &[f64]) -> f64 {
    tail_percentile(xs)
        .map_or_else(|| xs.iter().copied().fold(f64::MIN, f64::max), |(_, value)| value)
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the exclusive method); `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    Some((q3 - q1) / median(xs))
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

/// A JSON value. Objects keep their keys sorted, so output is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Serializes on one line. Numbers print with every digit `f64`
    /// round-trips, whole numbers without a fraction.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                assert!(v.is_finite(), "JSON cannot carry {v}");
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => out.push_str(&quote(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&quote(k));
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// A message naming the byte offset of the first malformed construct.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", want as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    map.insert(key, self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(map));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.pos;
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| "invalid utf8 in string".into());
                }
                Some(b'\\') => {
                    let esc = self.bytes.get(self.pos + 1).copied();
                    self.pos += 2;
                    match esc {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            out.extend_from_slice(hex.to_string().as_bytes());
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// One run's result line, and the result file
// ---------------------------------------------------------------------

/// What one run of one workload prints as its last line: exactly the
/// keys `correct`, `attempted`, `failed` and `metrics`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in table order.
    pub metrics: Vec<(String, f64, String)>,
    /// How many samples stand behind the metrics, as the run printed it
    /// (`setup=5 online=44 …`). Not part of the result line — that has
    /// exactly four keys — but kept beside each run in a result file.
    pub samples: String,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::obj([
                            ("value", Json::Num(*value)),
                            ("unit", Json::str(unit.clone())),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// Reads a result line back. Metric order is not preserved by the
    /// JSON object, so the parsed list is sorted by name.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped key.
    pub fn from_json(v: &Json) -> Result<RunResult, String> {
        let num = |key: &str| {
            v.get(key).and_then(Json::as_f64).ok_or_else(|| format!("result lacks number {key:?}"))
        };
        let metrics = v
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("result lacks object \"metrics\"")?
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                let unit = m.get("unit").and_then(Json::as_str);
                match (value, unit) {
                    (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_string())),
                    _ => Err(format!("metric {name:?} lacks value or unit")),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        let samples = v.get("samples").and_then(Json::as_str).unwrap_or_default().to_string();
        Ok(RunResult {
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
            samples,
        })
    }
}

/// The file `run` and `traced` write: a header naming what the numbers
/// depend on, then every run of every workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    pub quick: bool,
    pub trace: bool,
    /// `nproc`, SIMD tier, `PRIMER_THREADS`, `PRIMER_LAYOUT`, rustc,
    /// git commit, seed, seconds.
    pub header: BTreeMap<String, String>,
    /// Workload name → its runs, in run order.
    pub workloads: BTreeMap<String, Vec<RunResult>>,
}

impl ResultFile {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str("primer-bench/1")),
            ("quick", Json::Bool(self.quick)),
            ("trace", Json::Bool(self.trace)),
            (
                "header",
                Json::obj(self.header.iter().map(|(k, v)| (k.clone(), Json::str(v.clone())))),
            ),
            (
                "workloads",
                Json::obj(self.workloads.iter().map(|(name, runs)| {
                    let with_samples = |run: &RunResult| {
                        let Json::Obj(mut line) = run.to_json() else {
                            unreachable!("a result is an object")
                        };
                        line.insert("samples".into(), Json::str(run.samples.clone()));
                        Json::Obj(line)
                    };
                    (name.clone(), Json::Arr(runs.iter().map(with_samples).collect()))
                })),
            ),
        ])
    }

    /// # Errors
    ///
    /// Names the first missing or mistyped key.
    pub fn parse(text: &str) -> Result<ResultFile, String> {
        let v = Json::parse(text)?;
        if v.get("schema").and_then(Json::as_str) != Some("primer-bench/1") {
            return Err("not a primer-bench/1 result file".into());
        }
        let flag = |key: &str| {
            v.get(key).and_then(Json::as_bool).ok_or_else(|| format!("file lacks flag {key:?}"))
        };
        let header = v
            .get("header")
            .and_then(Json::as_obj)
            .ok_or("file lacks \"header\"")?
            .iter()
            .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
            .collect();
        let mut workloads = BTreeMap::new();
        for (name, runs) in
            v.get("workloads").and_then(Json::as_obj).ok_or("file lacks \"workloads\"")?
        {
            let runs = runs
                .as_arr()
                .ok_or_else(|| format!("workload {name:?} is not a list of runs"))?
                .iter()
                .map(RunResult::from_json)
                .collect::<Result<Vec<_>, String>>()?;
            workloads.insert(name.clone(), runs);
        }
        Ok(ResultFile { quick: flag("quick")?, trace: flag("trace")?, header, workloads })
    }

    /// Every value recorded for one metric of one workload.
    pub fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.workloads
            .get(workload)
            .into_iter()
            .flatten()
            .flat_map(|run| run.metrics.iter())
            .filter(|(name, _, _)| name == metric)
            .map(|(_, value, _)| *value)
            .collect()
    }
}

// ---------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------

/// Verdict on one (workload, end-to-end metric) pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// The run-to-run spread is wider than the bound, so the runs cannot
    /// say "unchanged".
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of `compare`'s table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

/// Judges B's runs of a lower-is-better metric against A's.
pub fn judge(a: &[f64], b: &[f64], bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse = mb > ma * (1.0 + bound);
    // With fewer than four runs a side there is no spread to speak of
    // and the medians decide alone.
    let wide = |xs: &[f64]| xs.len() >= 4 && spread(xs).is_some_and(|s| s > bound);
    if !(wide(a) || wide(b)) {
        return if worse { Verdict::Regressed } else { Verdict::Ok };
    }
    let max = |xs: &[f64]| xs.iter().copied().fold(f64::MIN, f64::max);
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::MAX, f64::min);
    if max(b) < min(a) {
        Verdict::Ok
    } else if min(b) > max(a) * (1.0 + bound) {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    }
}

/// Compares two result files under the bounds of a parsed
/// `BENCHMARK.json`: one row per (workload, end-to-end metric).
///
/// # Errors
///
/// A `quick` or traced file, a malformed spec, or a pairing missing from
/// either file.
pub fn compare(spec: &Json, a: &ResultFile, b: &ResultFile) -> Result<Vec<Row>, String> {
    for (label, f) in [("A", a), ("B", b)] {
        if f.quick {
            return Err(format!("{label} is a --quick run; its numbers are not comparable"));
        }
        if f.trace {
            return Err(format!("{label} is a traced run; compare takes `run` outputs"));
        }
    }
    let names = |key: &str| -> Result<Vec<&Json>, String> {
        Ok(spec
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json lacks {key:?}"))?
            .iter()
            .collect())
    };
    let mut rows = Vec::new();
    for w in names("workloads")? {
        let workload = w.get("name").and_then(Json::as_str).ok_or("workload without a name")?;
        for m in names("end_to_end")? {
            let metric = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            let (va, vb) = (a.values(workload, metric), b.values(workload, metric));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}/{metric} is missing from a result file"));
            }
            let bound = if EXACT.contains(&metric) { 0.0 } else { bound };
            rows.push(Row {
                workload: workload.to_string(),
                metric: metric.to_string(),
                a: median(&va),
                b: median(&vb),
                verdict: judge(&va, &vb, bound),
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((90.0, 90.0)));
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((50.0, 10.0)));
        let xs: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((75.0, 30.0)));
        assert_eq!(tail_percentile(&xs[..19]), None);
        assert_eq!(tail_percentile(&[]), None);
        // Too few samples for a percentile: the metric is the maximum.
        assert_eq!(tail_or_max(&[3.0, 9.0, 4.0]), 9.0);
        assert_eq!(tail_or_max(&xs), 30.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        assert_eq!(median(&xs), 5.5);
        assert_eq!(spread(&xs), Some(1.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn json_round_trips() {
        let text = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\"y\\z\n", "d": null}, "e": true}"#;
        let v = Json::parse(text).expect("parse");
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
        assert_eq!(v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str), Some("x\"y\\z\n"));
        assert_eq!(Json::parse(&v.dump()).expect("reparse"), v);
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} x").is_err());
        // Every digit survives: the driver wants times as measured.
        assert_eq!(Json::Num(1.2034567891234).dump(), "1.2034567891234");
        assert_eq!(Json::Num(47.0).dump(), "47");
    }

    fn result(online: f64) -> RunResult {
        RunResult {
            attempted: 40,
            failed: 0,
            metrics: vec![
                ("online_ms_p50".into(), online, "ms".into()),
                ("wire_bytes_per_query".into(), 403_235_087.0, "bytes".into()),
            ],
            samples: "setup=5 online=40".into(),
        }
    }

    #[test]
    fn result_file_round_trips() {
        let file = ResultFile {
            quick: false,
            trace: false,
            header: [("nproc", "2"), ("simd", "avx512"), ("seed", "7")]
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            workloads: [("fpc_sim_mem".to_string(), vec![result(118.25), result(119.5)])]
                .into_iter()
                .collect(),
        };
        let parsed = ResultFile::parse(&file.to_json().dump()).expect("parse");
        assert_eq!(parsed, file);
        assert_eq!(parsed.values("fpc_sim_mem", "online_ms_p50"), vec![118.25, 119.5]);
        assert!(parsed.values("fpc_sim_mem", "nope").is_empty());
        assert!(ResultFile::parse("{\"schema\": \"other\"}").is_err());
        let line = result(1.5).to_json().dump();
        assert!(
            line.starts_with("{\"attempted\": 40, \"correct\": true, \"failed\": 0, \"metrics\"")
        );
    }

    #[test]
    fn judge_separates_ok_regressed_and_unresolved() {
        // Single runs: the medians decide.
        assert_eq!(judge(&[100.0], &[109.0], 0.10), Verdict::Ok);
        assert_eq!(judge(&[100.0], &[111.0], 0.10), Verdict::Regressed);
        // Tight runs, clearly worse.
        let a = [100.0, 101.0, 99.0, 100.5, 100.0];
        let b = [120.0, 121.0, 119.0, 120.5, 120.0];
        assert_eq!(judge(&a, &b, 0.10), Verdict::Regressed);
        assert_eq!(judge(&a, &a, 0.10), Verdict::Ok);
        // Spread wider than the bound: cannot say unchanged …
        let noisy = [80.0, 100.0, 120.0, 90.0, 130.0];
        assert_eq!(judge(&noisy, &noisy, 0.10), Verdict::Unresolved);
        // … unless every run of B beats every run of A.
        assert_eq!(judge(&noisy, &[50.0, 60.0, 70.0, 55.0], 0.10), Verdict::Ok);
        // Counts get no tolerance.
        assert_eq!(judge(&[47.0, 47.0], &[47.0, 47.0], 0.0), Verdict::Ok);
        assert_eq!(judge(&[47.0, 47.0], &[48.0, 48.0], 0.0), Verdict::Regressed);
    }

    #[test]
    fn compare_reads_bounds_and_refuses_quick_files() {
        let spec = Json::parse(
            r#"{"workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [{"name": "online_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
                               {"name": "wire_bytes_per_query", "unit": "bytes", "better": "lower", "bound": 0.001}]}"#,
        )
        .expect("spec");
        let file = |online: f64, quick: bool| ResultFile {
            quick,
            trace: false,
            header: BTreeMap::new(),
            workloads: [("w".to_string(), vec![result(online)])].into_iter().collect(),
        };
        let rows = compare(&spec, &file(100.0, false), &file(120.0, false)).expect("rows");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert_eq!(rows[1].verdict, Verdict::Ok);
        assert!(compare(&spec, &file(100.0, true), &file(100.0, false)).is_err());
    }
}
