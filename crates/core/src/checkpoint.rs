//! Crash-safe checkpoint/resume and the supervised-sweep harness.
//!
//! Long sweeps die for harness reasons — OOM, SIGKILL, a power cut —
//! and without a journal, hour N of compute is gone. This module gives
//! every experiment sweep a resilient execution layer:
//!
//! * [`sweep`] / [`sweep_plain`] wrap
//!   [`harvest_sim::supervise::par_map_supervised_with`]: panic
//!   isolation with bounded retries, quarantine, and the
//!   deadline/straggler watchdog, keyed by *stable task keys* (the
//!   experiment's seed-stream names), with outcomes accounted in
//!   [`SweepStats`].
//! * [`Checkpoint`] journals each completed task's result as one line
//!   of `crc len {"k":KEY,"v":RESULT}` through the in-repo
//!   [`json`] (no serde), fsync'd in batches. On resume the journal is
//!   replayed by key and only the remainder is computed. Because every
//!   task owns a `derive_seed_indexed` stream named by its key, a
//!   killed-and-resumed run's stdout is **byte-identical** to an
//!   uninterrupted one at any `--jobs`.
//! * The journal's first line is a settings manifest under a
//!   reserved key: a resume whose settings differ (say, `--net` added,
//!   or another `--seed`) is refused instead of splicing results
//!   computed under the old settings into the new report.
//!
//! # Exactness
//!
//! [`json`]'s numbers are `f64`, which cannot round-trip every `u64`
//! (or a NaN payload). Journaled values therefore encode **every**
//! numeric field as a 16-hex-digit bit-pattern string
//! ([`hex_u64`]/[`hex_f64`]), decoded back with
//! `u64::from_str_radix(.., 16)` — bitwise exact for all values,
//! including NaN, infinities, and `u64 > 2^53`.
//!
//! # Torn writes
//!
//! A mid-write kill can leave a torn final line. Every line carries an
//! FNV-1a checksum and a byte length; a final line that is
//! unterminated or fails validation is detected, counted, and
//! *dropped* — never misparsed — and the file is truncated back to its
//! last valid line before new results are appended. A malformed line
//! anywhere *else* is real corruption and fails the resume with a
//! one-line error.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use harvest_sim::obs::json;
use harvest_sim::supervise::{par_map_supervised_with, CancelToken, SuperviseConfig, Supervised};

use crate::scale::Scale;

/// FNV-1a 64-bit over `bytes` — the journal line checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends of `pending` lines are batched before each fsync.
const FSYNC_BATCH: usize = 32;

/// The journal key of the settings manifest. Task keys are
/// `"{stream}/{task}"`, so a key without a `/` can never collide.
const MANIFEST_KEY: &str = "manifest";

/// Journal format version, recorded in the manifest. Bump it when a
/// result encoding changes.
const JOURNAL_VERSION: u64 = 1;

/// Every [`Scale`] setting that shapes results, as one JSON object:
/// seed, datacenter scale, runs, horizons, utilization points, and the
/// network, disk and fault models. `jobs`, the task deadline and
/// recording are left out because reports do not depend on them.
fn manifest(scale: &Scale) -> String {
    let utils: Vec<String> = scale.utilizations.iter().map(|&u| hex_f64(u)).collect();
    // `Debug` of the two configs prints every field (floats in exact
    // round-trip form) and never a quote.
    obj(&[
        ("version", hex_u64(JOURNAL_VERSION)),
        ("seed", hex_u64(scale.seed)),
        ("dc_scale", hex_f64(scale.dc_scale)),
        ("runs", hex_u64(scale.runs as u64)),
        ("sched_hours", hex_u64(scale.sched_hours)),
        ("durability_months", hex_u64(scale.durability_months as u64)),
        ("availability_days", hex_u64(scale.availability_days)),
        ("utilizations", format!("[{}]", utils.join(","))),
        ("network", format!("\"{:?}\"", scale.network)),
        ("disk", format!("\"{:?}\"", scale.disk)),
        (
            "faults",
            format!("\"{}\"", scale.faults.map_or("none", |p| p.name())),
        ),
    ])
}

fn journal_line(key: &str, value_json: &str) -> String {
    let payload = format!("{{\"k\":\"{key}\",\"v\":{value_json}}}");
    format!(
        "{:016x} {} {payload}\n",
        fnv1a64(payload.as_bytes()),
        payload.len()
    )
}

/// A parsed journal: results by key, plus recovery accounting.
#[derive(Debug)]
pub struct JournalData {
    /// Journaled results, last write per key wins.
    pub map: HashMap<String, json::Value>,
    /// Torn (unterminated or invalid) final lines dropped.
    pub torn_dropped: u64,
    /// Byte length of the valid prefix — truncate to this before
    /// appending.
    pub valid_len: u64,
}

fn parse_line(line: &str) -> Result<(String, json::Value), String> {
    let (crc_s, rest) = line.split_once(' ').ok_or("missing checksum field")?;
    let (len_s, payload) = rest.split_once(' ').ok_or("missing length field")?;
    let crc = u64::from_str_radix(crc_s, 16).map_err(|_| "bad checksum field".to_string())?;
    let len: usize = len_s.parse().map_err(|_| "bad length field".to_string())?;
    if payload.len() != len {
        return Err(format!("length mismatch ({} != {len})", payload.len()));
    }
    if fnv1a64(payload.as_bytes()) != crc {
        return Err("checksum mismatch".to_string());
    }
    let v = json::parse(payload)?;
    let key = v
        .get("k")
        .and_then(|k| k.as_str())
        .ok_or("payload missing \"k\"")?
        .to_string();
    let value = v.get("v").ok_or("payload missing \"v\"")?.clone();
    Ok((key, value))
}

/// Parses a journal file's contents. The final line is allowed to be
/// torn (dropped and counted); any earlier malformed line is an error.
pub fn parse_journal(text: &str) -> Result<JournalData, String> {
    let mut map = HashMap::new();
    let mut torn_dropped = 0u64;
    let mut valid_len = 0u64;
    let mut offset = 0usize;
    let mut lineno = 0usize;
    for chunk in text.split_inclusive('\n') {
        lineno += 1;
        let terminated = chunk.ends_with('\n');
        let line = chunk.strip_suffix('\n').unwrap_or(chunk);
        let end = offset + chunk.len();
        let last = end == text.len();
        match parse_line(line) {
            Ok((key, value)) if terminated => {
                map.insert(key, value);
                valid_len = end as u64;
            }
            // A checksum-valid but unterminated final line is still
            // torn: the fsync that covered it may not have landed.
            Ok(_) => torn_dropped += 1,
            Err(e) => {
                if last {
                    torn_dropped += 1;
                } else {
                    return Err(format!("corrupt journal line {lineno}: {e}"));
                }
            }
        }
        offset = end;
    }
    Ok(JournalData {
        map,
        torn_dropped,
        valid_len,
    })
}

struct JournalWriter {
    file: File,
    pending: usize,
}

impl JournalWriter {
    fn append(&mut self, key: &str, value_json: &str) -> std::io::Result<()> {
        self.file
            .write_all(journal_line(key, value_json).as_bytes())?;
        self.pending += 1;
        if self.pending >= FSYNC_BATCH {
            self.file.sync_data()?;
            self.pending = 0;
        }
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.pending > 0 {
            self.file.sync_data()?;
            self.pending = 0;
        }
        Ok(())
    }
}

/// An open checkpoint: restored results (from `--resume`) plus an
/// append-only journal writer (from `--checkpoint`). Shared across the
/// sweep's worker threads.
pub struct Checkpoint {
    restored: HashMap<String, json::Value>,
    writer: Mutex<Option<JournalWriter>>,
    /// Restored results must be re-journaled into a *fresh* write file
    /// (checkpoint path ≠ resume path); a same-file resume already has
    /// them on disk.
    rewrite_restored: bool,
    error: Mutex<Option<String>>,
}

impl std::fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpoint")
            .field("restored", &self.restored.len())
            .finish_non_exhaustive()
    }
}

impl Checkpoint {
    /// Opens a checkpoint from the `--checkpoint` / `--resume` paths
    /// for a run at `scale`. Returns `Ok(None)` when neither is given;
    /// otherwise the checkpoint plus `(torn lines dropped, results
    /// restored)`. A resume journal whose settings manifest is missing or
    /// differs from `scale`'s is refused; a fresh write journal starts
    /// with `scale`'s manifest.
    pub fn open(
        write_path: Option<&str>,
        resume_path: Option<&str>,
        scale: &Scale,
    ) -> Result<Option<(Checkpoint, u64, usize)>, String> {
        if write_path.is_none() && resume_path.is_none() {
            return Ok(None);
        }
        let manifest = manifest(scale);
        let mut restored = HashMap::new();
        let mut torn = 0u64;
        let mut valid_len = 0u64;
        if let Some(path) = resume_path {
            let mut text = String::new();
            File::open(path)
                .and_then(|mut f| f.read_to_string(&mut text))
                .map_err(|e| format!("cannot read resume journal {path}: {e}"))?;
            let mut data =
                parse_journal(&text).map_err(|e| format!("corrupt resume journal {path}: {e}"))?;
            let found = data
                .map
                .remove(MANIFEST_KEY)
                .ok_or_else(|| format!("resume journal {path} has no settings manifest"))?;
            if json::parse(&manifest).as_ref() != Ok(&found) {
                return Err(format!(
                    "resume journal {path} was written with other settings \
                     (seed, scale, --full, --net, --disk or --faults); \
                     resume with the settings that wrote it"
                ));
            }
            restored = data.map;
            torn = data.torn_dropped;
            valid_len = data.valid_len;
        }
        let same_file = write_path.is_some() && write_path == resume_path;
        let writer = match write_path {
            None => None,
            Some(path) => {
                let file = if same_file {
                    let f = OpenOptions::new()
                        .read(true)
                        .write(true)
                        .open(path)
                        .map_err(|e| format!("cannot open checkpoint journal {path}: {e}"))?;
                    // Drop any torn tail before appending.
                    f.set_len(valid_len)
                        .map_err(|e| format!("cannot truncate checkpoint journal {path}: {e}"))?;
                    let mut f = f;
                    f.seek(SeekFrom::End(0))
                        .map_err(|e| format!("cannot seek checkpoint journal {path}: {e}"))?;
                    f
                } else {
                    File::create(path)
                        .map_err(|e| format!("cannot create checkpoint journal {path}: {e}"))?
                };
                let mut w = JournalWriter { file, pending: 0 };
                // A same-file resume already starts with the manifest.
                if !same_file {
                    w.append(MANIFEST_KEY, &manifest)
                        .map_err(|e| format!("cannot write checkpoint journal {path}: {e}"))?;
                }
                Some(w)
            }
        };
        let n_restored = restored.len();
        Ok(Some((
            Checkpoint {
                restored,
                writer: Mutex::new(writer),
                rewrite_restored: writer_needs_rewrite(write_path, resume_path),
                error: Mutex::new(None),
            },
            torn,
            n_restored,
        )))
    }

    /// The restored result for `key`, if the resume journal had one.
    pub fn restored(&self, key: &str) -> Option<&json::Value> {
        self.restored.get(key)
    }

    /// Whether restored results should be re-journaled (fresh write
    /// file that does not already contain them).
    pub fn rewrite_restored(&self) -> bool {
        self.rewrite_restored
    }

    /// Appends one result line. I/O errors are latched and surfaced by
    /// [`Checkpoint::flush`] so worker threads never panic mid-sweep.
    pub fn journal(&self, key: &str, value_json: &str) {
        let mut guard = self.writer.lock().unwrap();
        if let Some(w) = guard.as_mut() {
            if let Err(e) = w.append(key, value_json) {
                self.error
                    .lock()
                    .unwrap()
                    .get_or_insert_with(|| format!("checkpoint journal write failed: {e}"));
            }
        }
    }

    /// Final fsync; returns the first latched write error, if any.
    pub fn flush(&self) -> Result<(), String> {
        if let Some(w) = self.writer.lock().unwrap().as_mut() {
            if let Err(e) = w.flush() {
                return Err(format!("checkpoint journal flush failed: {e}"));
            }
        }
        match self.error.lock().unwrap().take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

fn writer_needs_rewrite(write_path: Option<&str>, resume_path: Option<&str>) -> bool {
    write_path.is_some() && resume_path.is_some() && write_path != resume_path
}

/// Monotonic counters for one run's sweep outcomes, shared by every
/// experiment through [`Harness::stats`] and drained per experiment by
/// `repro` ([`SweepStats::take`]).
#[derive(Debug, Default)]
pub struct SweepStats {
    restored: AtomicU64,
    journaled: AtomicU64,
    retries: AtomicU64,
    quarantined: AtomicU64,
    stragglers: AtomicU64,
    cancelled: AtomicU64,
}

/// A drained [`SweepStats`] reading.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepSnapshot {
    /// Results replayed from the resume journal.
    pub restored: u64,
    /// Results appended to the checkpoint journal.
    pub journaled: u64,
    /// Retry attempts consumed by panicking tasks.
    pub retries: u64,
    /// Tasks quarantined after exhausting the retry budget.
    pub quarantined: u64,
    /// Tasks flagged past the deadline (including cancelled ones).
    pub stragglers: u64,
    /// Stragglers cooperatively cancelled (results discarded).
    pub cancelled: u64,
}

impl SweepSnapshot {
    /// Whether anything noteworthy happened.
    pub fn any(&self) -> bool {
        *self != SweepSnapshot::default()
    }
}

impl SweepStats {
    /// Drains the counters into a snapshot (counters reset to zero).
    pub fn take(&self) -> SweepSnapshot {
        SweepSnapshot {
            restored: self.restored.swap(0, Ordering::Relaxed),
            journaled: self.journaled.swap(0, Ordering::Relaxed),
            retries: self.retries.swap(0, Ordering::Relaxed),
            quarantined: self.quarantined.swap(0, Ordering::Relaxed),
            stragglers: self.stragglers.swap(0, Ordering::Relaxed),
            cancelled: self.cancelled.swap(0, Ordering::Relaxed),
        }
    }

    fn add(&self, field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }
}

/// The per-run resilience context carried inside [`Scale`]: an optional
/// open checkpoint, an optional fixed task deadline (which also arms
/// cooperative cancellation), and the shared outcome counters.
#[derive(Debug, Clone, Default)]
pub struct Harness {
    /// Open checkpoint (`--checkpoint` / `--resume`), if any.
    pub checkpoint: Option<Arc<Checkpoint>>,
    /// Fixed per-task deadline (`--task-deadline SECS`). `None` uses
    /// the watchdog's automatic running-median deadline, flag-only.
    pub deadline: Option<Duration>,
    /// Sweep outcome counters, drained per experiment by `repro`.
    pub stats: Arc<SweepStats>,
}

/// A value that can round-trip through the checkpoint journal.
///
/// `decode(parse(encode(x)))` must be bitwise identical to `x` — use
/// [`hex_u64`]/[`hex_f64`] for every numeric field (see the module
/// docs for why plain JSON numbers are not exact).
pub trait Journaled: Sized {
    /// Encode as a JSON value (one journal line's `"v"`).
    fn encode(&self) -> String;
    /// Decode a parsed journal value; `None` on shape mismatch (the
    /// task is then simply recomputed).
    fn decode(v: &json::Value) -> Option<Self>;
}

/// A `u64` as a JSON-quoted 16-hex-digit string — bitwise exact.
pub fn hex_u64(v: u64) -> String {
    format!("\"{v:016x}\"")
}

/// An `f64` as its bit pattern via [`hex_u64`] — exact for every
/// value, including NaN and infinities.
pub fn hex_f64(v: f64) -> String {
    hex_u64(v.to_bits())
}

/// Reads a [`hex_u64`]-encoded field from a journal value.
pub fn get_u64(v: &json::Value, key: &str) -> Option<u64> {
    u64::from_str_radix(v.get(key)?.as_str()?, 16).ok()
}

/// Reads a [`hex_f64`]-encoded field from a journal value.
pub fn get_f64(v: &json::Value, key: &str) -> Option<f64> {
    get_u64(v, key).map(f64::from_bits)
}

/// Builds a JSON object from `(key, already-encoded value)` pairs.
pub fn obj(fields: &[(&str, String)]) -> String {
    let mut s = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('"');
        s.push_str(k);
        s.push_str("\":");
        s.push_str(v);
    }
    s.push('}');
    s
}

/// One supervised sweep's outcome: per-task results in input order
/// (`None` exactly for quarantined/cancelled tasks) plus a
/// deterministic report note describing them, if any.
#[derive(Debug)]
pub struct Sweep<R> {
    /// One slot per task, input order.
    pub results: Vec<Option<R>>,
    /// Deterministic "harness:" note for the report when tasks were
    /// quarantined or cancelled; `None` on a clean sweep.
    pub note: Option<String>,
}

fn forced_panic_key() -> Option<&'static str> {
    static KEY: OnceLock<Option<String>> = OnceLock::new();
    KEY.get_or_init(|| std::env::var("HARVEST_FORCE_PANIC").ok())
        .as_deref()
}

#[allow(clippy::type_complexity)]
fn run_sweep<T, R, S>(
    scale: &Scale,
    stream: &str,
    tasks: &[T],
    key_of: &(dyn Fn(&T) -> String + Sync),
    init: &(dyn Fn() -> S + Sync),
    codec: Option<(
        &(dyn Fn(&R) -> String + Sync),
        &(dyn Fn(&json::Value) -> Option<R> + Sync),
    )>,
    f: &(dyn Fn(&mut S, &T, &CancelToken) -> R + Sync),
) -> Sweep<R>
where
    T: Sync,
    R: Send,
{
    let harness = &scale.harness;
    let keys: Vec<String> = tasks
        .iter()
        .map(|t| format!("{stream}/{}", key_of(t)))
        .collect();

    let mut results: Vec<Option<R>> = Vec::with_capacity(tasks.len());
    results.resize_with(tasks.len(), || None);

    // Restore pass: replay journaled results by key; a decode failure
    // just recomputes the task.
    if let (Some(cp), Some((encode, decode))) = (&harness.checkpoint, codec) {
        let mut n_restored = 0u64;
        for (i, key) in keys.iter().enumerate() {
            if let Some(r) = cp.restored(key).and_then(decode) {
                if cp.rewrite_restored() {
                    cp.journal(key, &encode(&r));
                }
                results[i] = Some(r);
                n_restored += 1;
            }
        }
        harness.stats.add(&harness.stats.restored, n_restored);
    }

    let todo: Vec<usize> = (0..tasks.len()).filter(|&i| results[i].is_none()).collect();
    if todo.is_empty() {
        return Sweep {
            results,
            note: None,
        };
    }

    let cfg = SuperviseConfig {
        deadline: harness.deadline,
        cancel_overdue: harness.deadline.is_some(),
        seed: scale.seed,
        ..SuperviseConfig::default()
    };
    let sup: Supervised<R> = par_map_supervised_with(
        scale.jobs,
        &todo,
        &cfg,
        init,
        |j| keys[todo[j]].clone(),
        |j, r| {
            if let (Some(cp), Some((encode, _))) = (&harness.checkpoint, codec) {
                cp.journal(&keys[todo[j]], &encode(r));
                harness.stats.add(&harness.stats.journaled, 1);
            }
        },
        |scratch, _j, &orig, token| {
            if forced_panic_key() == Some(keys[orig].as_str()) {
                panic!("forced panic ({})", keys[orig]);
            }
            f(scratch, &tasks[orig], token)
        },
    );

    harness.stats.add(&harness.stats.retries, sup.retries);
    harness
        .stats
        .add(&harness.stats.quarantined, sup.quarantined.len() as u64);
    harness
        .stats
        .add(&harness.stats.stragglers, sup.stragglers.len() as u64);
    let cancelled: Vec<_> = sup.stragglers.iter().filter(|s| s.cancelled).collect();
    harness
        .stats
        .add(&harness.stats.cancelled, cancelled.len() as u64);

    let mut notes: Vec<String> = Vec::new();
    for q in &sup.quarantined {
        notes.push(format!(
            "`{}` quarantined after {} attempts ({})",
            q.key, q.attempts, q.payload
        ));
    }
    for s in &cancelled {
        notes.push(format!(
            "`{}` cancelled past the task deadline",
            keys[todo[s.task]]
        ));
    }

    for (j, r) in sup.results.into_iter().enumerate() {
        if let Some(r) = r {
            debug_assert!(results[todo[j]].is_none());
            results[todo[j]] = Some(r);
        }
    }

    Sweep {
        results,
        note: (!notes.is_empty()).then(|| format!("harness: {}", notes.join("; "))),
    }
}

/// Supervised, checkpointable sweep over `tasks`. Task keys are
/// `"{stream}/{key_of(task)}"` and must be stable across runs and
/// `--jobs` values — they are what the resume journal indexes by.
/// Results journal through [`Journaled`] when a checkpoint is open.
pub fn sweep<T, R, F, K>(scale: &Scale, stream: &str, tasks: &[T], key_of: K, f: F) -> Sweep<R>
where
    T: Sync,
    R: Journaled + Send,
    K: Fn(&T) -> String + Sync,
    F: Fn(&T, &CancelToken) -> R + Sync,
{
    let encode = |r: &R| r.encode();
    let decode = |v: &json::Value| R::decode(v);
    run_sweep(
        scale,
        stream,
        tasks,
        &key_of,
        &|| (),
        Some((&encode, &decode)),
        &|(), t, token| f(t, token),
    )
}

/// Supervised sweep without journaling: panic isolation, retries, and
/// the watchdog, but results are always recomputed on resume (for
/// cheap per-row tasks whose results are not worth journaling).
pub fn sweep_plain<T, R, F, K>(
    scale: &Scale,
    stream: &str,
    tasks: &[T],
    key_of: K,
    f: F,
) -> Sweep<R>
where
    T: Sync,
    R: Send,
    K: Fn(&T) -> String + Sync,
    F: Fn(&T, &CancelToken) -> R + Sync,
{
    run_sweep(
        scale,
        stream,
        tasks,
        &key_of,
        &|| (),
        None,
        &|(), t, token| f(t, token),
    )
}

/// [`sweep_plain`] with per-worker scratch: `init` runs once per
/// worker of [`harvest_sim::supervise::par_map_supervised_with`].
pub fn sweep_plain_with<T, R, S, I, F, K>(
    scale: &Scale,
    stream: &str,
    tasks: &[T],
    key_of: K,
    init: I,
    f: F,
) -> Sweep<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    K: Fn(&T) -> String + Sync,
    F: Fn(&mut S, &T, &CancelToken) -> R + Sync,
{
    run_sweep(
        scale,
        stream,
        tasks,
        &key_of,
        &init,
        None,
        &|s, t, token| f(s, t, token),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Rec {
        a: u64,
        b: f64,
    }

    impl Journaled for Rec {
        fn encode(&self) -> String {
            obj(&[("a", hex_u64(self.a)), ("b", hex_f64(self.b))])
        }
        fn decode(v: &json::Value) -> Option<Self> {
            Some(Rec {
                a: get_u64(v, "a")?,
                b: get_f64(v, "b")?,
            })
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("harvest-ck-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn hex_codec_is_bitwise_exact() {
        for rec in [
            Rec {
                a: u64::MAX,
                b: f64::NAN,
            },
            Rec {
                a: (1 << 53) + 1,
                b: f64::INFINITY,
            },
            Rec { a: 0, b: -0.0 },
            Rec {
                a: 12345,
                b: 0.1 + 0.2,
            },
        ] {
            let v = json::parse(&rec.encode()).unwrap();
            let back = Rec::decode(&v).unwrap();
            assert_eq!(back.a, rec.a);
            assert_eq!(back.b.to_bits(), rec.b.to_bits());
        }
    }

    #[test]
    fn journal_round_trips() {
        let mut text = String::new();
        text.push_str(&journal_line("fig/x", &Rec { a: 7, b: 1.5 }.encode()));
        text.push_str(&journal_line("fig/y", &Rec { a: 8, b: 2.5 }.encode()));
        let data = parse_journal(&text).unwrap();
        assert_eq!(data.torn_dropped, 0);
        assert_eq!(data.valid_len, text.len() as u64);
        assert_eq!(data.map.len(), 2);
        let y = Rec::decode(&data.map["fig/y"]).unwrap();
        assert_eq!(y, Rec { a: 8, b: 2.5 });
    }

    #[test]
    fn torn_final_line_is_dropped_not_misparsed() {
        let mut text = String::new();
        text.push_str(&journal_line("fig/x", &Rec { a: 7, b: 1.5 }.encode()));
        let keep = text.len();
        let second = journal_line("fig/y", &Rec { a: 8, b: 2.5 }.encode());
        // Simulate a mid-write kill: half the second line, no newline.
        text.push_str(&second[..second.len() / 2]);
        let data = parse_journal(&text).unwrap();
        assert_eq!(data.torn_dropped, 1);
        assert_eq!(data.valid_len, keep as u64);
        assert_eq!(data.map.len(), 1);
        assert!(data.map.contains_key("fig/x"));
    }

    #[test]
    fn unterminated_but_valid_final_line_is_still_torn() {
        let mut text = journal_line("fig/x", &Rec { a: 7, b: 1.5 }.encode());
        text.pop(); // strip the newline only
        let data = parse_journal(&text).unwrap();
        assert_eq!(data.torn_dropped, 1);
        assert_eq!(data.valid_len, 0);
        assert!(data.map.is_empty());
    }

    #[test]
    fn corrupt_middle_line_is_an_error() {
        let mut text = String::new();
        text.push_str(&journal_line("fig/x", &Rec { a: 7, b: 1.5 }.encode()));
        text.push_str("deadbeef 4 junk\n");
        text.push_str(&journal_line("fig/y", &Rec { a: 8, b: 2.5 }.encode()));
        let err = parse_journal(&text).unwrap_err();
        assert!(err.contains("line 2"), "error: {err}");
    }

    #[test]
    fn resume_keys_are_stable_across_jobs() {
        let write = tmp("stable-w");
        let write_s = write.to_str().unwrap().to_string();
        let tasks: Vec<u64> = (0..20).collect();
        let run = |jobs: usize, ck: Option<&str>, resume: Option<&str>| -> Vec<Option<Rec>> {
            let mut scale = Scale::quick();
            scale.jobs = jobs;
            if let Some((cp, _, _)) = Checkpoint::open(ck, resume, &scale).unwrap() {
                scale.harness.checkpoint = Some(Arc::new(cp));
            }
            let s = sweep(
                &scale,
                "stab",
                &tasks,
                |t| format!("t{t}"),
                |&t, _| Rec {
                    a: t * 3,
                    b: t as f64 * 0.5,
                },
            );
            if let Some(cp) = &scale.harness.checkpoint {
                cp.flush().unwrap();
            }
            s.results
        };
        // Journal the full sweep at jobs=4 …
        let full = run(4, Some(&write_s), None);
        // … then resume at jobs=1 and jobs=3: every result restored
        // (keys match regardless of which worker computed them).
        for jobs in [1, 3] {
            let mut scale = Scale::quick();
            scale.jobs = jobs;
            let (cp, torn, restored) = Checkpoint::open(None, Some(&write_s), &scale)
                .unwrap()
                .unwrap();
            assert_eq!(torn, 0);
            assert_eq!(restored, tasks.len());
            scale.harness.checkpoint = Some(Arc::new(cp));
            let s = sweep(
                &scale,
                "stab",
                &tasks,
                |t| format!("t{t}"),
                |&t, _| panic!("task t{t} must be restored, not recomputed"),
            );
            assert_eq!(s.results, full, "jobs={jobs}");
            assert_eq!(scale.harness.stats.take().restored, tasks.len() as u64);
        }
        std::fs::remove_file(&write).ok();
    }

    #[test]
    fn same_file_checkpoint_resume_truncates_torn_tail() {
        let path = tmp("torn-tail");
        let path_s = path.to_str().unwrap().to_string();
        let scale = Scale::quick();
        let mut text = journal_line(MANIFEST_KEY, &manifest(&scale));
        text.push_str(&journal_line("r/t0", &Rec { a: 1, b: 1.0 }.encode()));
        let second = journal_line("r/t1", &Rec { a: 2, b: 2.0 }.encode());
        text.push_str(&second[..second.len() - 3]);
        std::fs::write(&path, &text).unwrap();
        let (cp, torn, restored) = Checkpoint::open(Some(&path_s), Some(&path_s), &scale)
            .unwrap()
            .unwrap();
        assert_eq!(torn, 1);
        assert_eq!(restored, 1);
        cp.journal("r/t1", &Rec { a: 2, b: 2.0 }.encode());
        cp.flush().unwrap();
        drop(cp);
        // The torn tail was truncated before the append: the file now
        // parses cleanly with both keys and its one manifest.
        let text = std::fs::read_to_string(&path).unwrap();
        let data = parse_journal(&text).unwrap();
        assert_eq!(data.torn_dropped, 0);
        assert_eq!(data.map.len(), 3);
        assert_eq!(text.matches("\"k\":\"manifest\"").count(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unreadable_resume_is_a_one_line_error() {
        let err =
            Checkpoint::open(None, Some("/nonexistent/journal"), &Scale::quick()).unwrap_err();
        assert!(err.contains("cannot read resume journal"), "{err}");
        assert!(!err.contains('\n'));
    }
}
