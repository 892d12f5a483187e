//! Reference data the benchmark checks against: the committed fig12 and
//! fig16 goldens (read, never written), the paper's Figure 12 gmeans, and
//! the committed per-stream counts of `ctrl_stream`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use sam_util::json::Json;

use crate::ctrl::StreamCounts;

/// A file under the repository root (the parent of this package).
pub fn repo_file(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(rel)
}

/// A file under this package's `data/` directory.
pub fn data_file(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("data")
        .join(name)
}

fn load(path: PathBuf) -> Result<Json, String> {
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn uint(doc: &Json, key: &str) -> Result<u64, String> {
    match doc.get(key) {
        Some(&Json::UInt(v)) => Ok(v),
        other => Err(format!("'{key}' is not an unsigned integer: {other:?}")),
    }
}

fn num(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("'{key}' is not a number"))
}

fn string<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("'{key}' is not a string"))
}

fn array<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    doc.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("'{key}' is not an array"))
}

/// The statistics a golden run record pins (the `results/fig12.json` run
/// schema, plus the hybrid counters of a fig16 point).
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenRun {
    /// Simulated memory cycles.
    pub cycles: u64,
    /// Speedup over the chunk's baseline run.
    pub speedup: f64,
    /// Row-buffer hit rate.
    pub row_hit_rate: f64,
    /// Mean read latency (memory cycles).
    pub read_latency_mean: f64,
    /// p99 read-latency bucket.
    pub read_latency_p99: u64,
    /// Mean write latency.
    pub write_latency_mean: f64,
    /// p99 write-latency bucket.
    pub write_latency_p99: u64,
    /// Refreshes issued.
    pub refreshes: u64,
    /// Energy under the design's power model (µJ); `None` for fig16
    /// hybrid points, whose energy is split across two devices.
    pub energy_uj: Option<f64>,
    /// DRAM-cache counters of a fig16 hybrid point.
    pub hybrid: Option<GoldenHybrid>,
}

/// The DRAM-cache counters of one fig16 point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoldenHybrid {
    /// External requests that hit the DRAM cache.
    pub hits: u64,
    /// External requests that missed.
    pub misses: u64,
    /// Block fills.
    pub fills: u64,
    /// Dirty victims written back.
    pub dirty_evictions: u64,
    /// Writes sent straight through.
    pub writethroughs: u64,
    /// Hit fraction.
    pub hit_rate: f64,
}

fn golden_run(run: &Json, with_energy: bool) -> Result<GoldenRun, String> {
    Ok(GoldenRun {
        cycles: uint(run, "cycles")?,
        speedup: num(run, "speedup")?,
        row_hit_rate: num(run, "row_hit_rate")?,
        read_latency_mean: num(run, "read_latency_mean")?,
        read_latency_p99: uint(run, "read_latency_p99")?,
        write_latency_mean: num(run, "write_latency_mean")?,
        write_latency_p99: uint(run, "write_latency_p99")?,
        refreshes: uint(run, "refreshes")?,
        energy_uj: if with_energy {
            Some(num(run, "energy_uj")?)
        } else {
            None
        },
        hybrid: None,
    })
}

/// Golden records keyed by run label (`Q3/SAM-en/Row` for fig12 runs,
/// `Q3/flat` and `Q3/bs128/writeback` for fig16).
pub type Goldens = BTreeMap<String, GoldenRun>;

/// The plan scale every golden was recorded at, checked on load.
fn check_plan(doc: &Json, ta: u64, tb: u64, seed: u64) -> Result<(), String> {
    let plan = doc.get("plan").ok_or("golden has no 'plan'")?;
    let found = (
        uint(plan, "ta_records")?,
        uint(plan, "tb_records")?,
        uint(plan, "seed")?,
    );
    if found != (ta, tb, seed) {
        return Err(format!(
            "golden plan {found:?} is not the benchmark's (ta, tb, seed) = {:?}",
            (ta, tb, seed)
        ));
    }
    Ok(())
}

/// Loads `tests/golden/fig12.json`.
///
/// # Errors
///
/// Unreadable or malformed file, or a golden recorded at another scale.
pub fn fig12_goldens(ta: u64, tb: u64, seed: u64) -> Result<Goldens, String> {
    let doc = load(repo_file("tests/golden/fig12.json"))?;
    check_plan(&doc, ta, tb, seed)?;
    let mut out = Goldens::new();
    for run in array(&doc, "runs")? {
        let label = format!(
            "{}/{}/{}",
            string(run, "query")?,
            string(run, "design")?,
            string(run, "store")?
        );
        out.insert(label, golden_run(run, true)?);
    }
    Ok(out)
}

/// Loads `tests/golden/fig16.json`.
///
/// # Errors
///
/// Unreadable or malformed file, or a golden recorded at another scale.
pub fn fig16_goldens(ta: u64, tb: u64, seed: u64) -> Result<Goldens, String> {
    let doc = load(repo_file("tests/golden/fig16.json"))?;
    check_plan(&doc, ta, tb, seed)?;
    let mut out = Goldens::new();
    for base in array(&doc, "baselines")? {
        let label = format!("{}/flat", string(base, "query")?);
        let run = base.get("run").ok_or("baseline has no 'run'")?;
        out.insert(label, golden_run(run, true)?);
    }
    for point in array(&doc, "points")? {
        let run = point.get("run").ok_or("point has no 'run'")?;
        let mut golden = golden_run(run, false)?;
        golden.hybrid = Some(GoldenHybrid {
            hits: uint(point, "hits")?,
            misses: uint(point, "misses")?,
            fills: uint(point, "fills")?,
            dirty_evictions: uint(point, "dirty_evictions")?,
            writethroughs: uint(point, "writethroughs")?,
            hit_rate: num(point, "hit_rate")?,
        });
        out.insert(string(point, "label")?.to_string(), golden);
    }
    Ok(out)
}

/// One design's Figure 12 gmeans as the paper reports them.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperGmean {
    /// Design name (Figure 12 legend).
    pub design: String,
    /// Gmean speedup over the Q queries.
    pub q: f64,
    /// Gmean speedup over the Qs queries.
    pub qs: f64,
}

/// Loads `data/paper_fig12.json`, the paper's Figure 12 gmeans.
///
/// # Errors
///
/// Unreadable or malformed file.
pub fn paper_fig12() -> Result<Vec<PaperGmean>, String> {
    let doc = load(data_file("paper_fig12.json"))?;
    array(&doc, "designs")?
        .iter()
        .map(|d| {
            Ok(PaperGmean {
                design: string(d, "design")?.to_string(),
                q: num(d, "q")?,
                qs: num(d, "qs")?,
            })
        })
        .collect()
}

/// Loads `data/ctrl_stream.json`: per-stream counts keyed by stream label,
/// recorded for the workload seed it names.
///
/// # Errors
///
/// Unreadable or malformed file.
pub fn ctrl_expected() -> Result<(u64, BTreeMap<String, StreamCounts>), String> {
    let doc = load(data_file("ctrl_stream.json"))?;
    let seed = uint(&doc, "seed")?;
    let mut out = BTreeMap::new();
    for s in array(&doc, "streams")? {
        out.insert(
            string(s, "stream")?.to_string(),
            StreamCounts {
                reads: uint(s, "reads")?,
                writes: uint(s, "writes")?,
                row_hits: uint(s, "row_hits")?,
                starved: uint(s, "starved")?,
                refreshes: uint(s, "refreshes")?,
                last_finish: uint(s, "last_finish")?,
            },
        );
    }
    Ok((seed, out))
}
