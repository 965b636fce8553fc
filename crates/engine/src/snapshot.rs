//! Crash-safe checkpointing and exact resume.
//!
//! The runs that are checkpointed — the oscillator's and the fault
//! recovery's, through `ppsim oscillator`, `ppsim faults` and
//! `ppsim resume` — run on [`crate::counts::CountPopulation`], alone or
//! inside [`crate::faults::FaultyPopulation`]; those two are the backends
//! that implement [`Checkpoint`], and [`RunSnapshot::capture`] takes no
//! other, so a snapshot is never partial.
//!
//! Long runs at production scale (hours at `n = 10⁸`) must survive process
//! kills without throwing completed work away. Determinism makes that cheap: a
//! run is a pure function of `(initial configuration, RNG state)`, so a
//! snapshot of the simulator state plus the word-exact RNG state resumes
//! the run *byte-identically* — same trace, same fault events, same
//! metrics — under the `tests/determinism.rs` contract (see DESIGN.md §15).
//!
//! ## What a snapshot contains
//!
//! [`RunSnapshot`] bundles the backend tag, the four xoshiro256\*\* state
//! words ([`SimRng::state_words`]), the backend's own resumable state from
//! [`Checkpoint::snapshot`] (the count vector, and the fault-trigger
//! progress and event log when the fault wrapper is on top; derived caches
//! are rebuilt on restore), the counters of the run's
//! [`Recorder`] when one was installed, so a resumed process continues
//! counting where the interrupted one stopped, and a free-form `meta`
//! object for the harness (command, n, seed, checkpoint cadence, …).
//!
//! ## On-disk format
//!
//! Two JSON lines. The first is a header
//! `{"kind":"pp_snapshot","version":V,"checksum":"<crc64 hex>"}`; the
//! second is the payload object. `V` is [`FORMAT_VERSION`], the only
//! version the reader takes: every earlier one was written by an engine
//! whose trajectories this one does not continue byte-identically. The
//! checksum is CRC-64 (reflected ECMA-182 polynomial) over the exact
//! payload-line bytes, so truncation and single-bit flips anywhere in the
//! payload are detected before any field is parsed; header corruption
//! fails the parse or the checksum comparison. Raw `u64` material that does not fit JSON's 2⁵³ exact-
//! integer range (RNG words, step counters, disarmed trigger sentinels) is
//! hex-encoded via [`hex_u64`].
//!
//! ## Crash safety
//!
//! [`write_atomic`] writes to a temporary sibling, fsyncs it, and
//! atomically renames it over the target (then fsyncs the directory), so a
//! kill at any instant leaves either the old snapshot or the new one —
//! never a torn file. [`SnapshotStore`] rotates the last `keep`
//! generations; [`SnapshotStore::load_latest_at_most`] validates
//! newest-first, reporting each corrupt generation as a [`Rejected`] record
//! and degrading to the previous one (or to a clean restart when none
//! survive) instead of aborting.

use crate::json::Json;
use crate::metrics::MetricsReport;
use crate::recorder::{self, Recorder};
use crate::rng::SimRng;
use crate::sim::Simulator;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Version tag of the on-disk snapshot format, the only one
/// [`RunSnapshot::decode`] accepts. Bumped on any change to the header or
/// payload schema, and whenever an engine change moves a trajectory, so
/// that a snapshot is never continued by an engine that would not have
/// produced its run; DESIGN.md §15 lists what each version marked.
pub const FORMAT_VERSION: u64 = 7;

/// CRC-64 (reflected ECMA-182 polynomial, as used by XZ) over `bytes`.
///
/// Chosen over a multiplicative hash because CRCs guarantee detection of
/// every single-bit error and every burst up to 64 bits — exactly the
/// corruption classes the snapshot tests inject. Bitwise implementation:
/// snapshots are written at checkpoint cadence, not per step, so the
/// ~8 ops/byte cost is irrelevant.
#[must_use]
pub fn crc64(bytes: &[u8]) -> u64 {
    const POLY: u64 = 0xC96C_5795_D787_0F42;
    let mut crc = !0u64;
    for &b in bytes {
        crc ^= u64::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
        }
    }
    !crc
}

/// Encodes a `u64` as a fixed-width hex JSON string.
///
/// JSON numbers are f64, exact only up to 2⁵³ — RNG words, step counters,
/// and `u64::MAX` trigger sentinels must round-trip word-exactly, so they
/// travel as strings.
#[must_use]
pub fn hex_u64(v: u64) -> Json {
    Json::from(format!("{v:016x}"))
}

/// Decodes a `u64` previously encoded with [`hex_u64`]: exactly 16
/// lowercase hex digits. Anything else is refused, so that a bit flip that
/// only changes a digit's case (`a` ↔ `A`) cannot leave a field — the
/// snapshot header's checksum among them — reading the same value.
///
/// # Errors
///
/// Returns a description when the value is not a string of 16 lowercase
/// hex digits.
pub fn parse_hex_u64(j: &Json) -> Result<u64, String> {
    let s = j
        .as_str()
        .ok_or_else(|| format!("expected a hex string, got {}", j.render()))?;
    if s.len() != 16 || !s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return Err(format!(
            "bad hex u64 {s:?}: expected 16 lowercase hex digits"
        ));
    }
    u64::from_str_radix(s, 16).map_err(|e| format!("bad hex u64 {s:?}: {e}"))
}

/// Encodes a generator's four state words as the `rng` object of a
/// snapshot payload or a fault plan's state.
pub(crate) fn rng_to_json(rng: &SimRng) -> Json {
    Json::obj([(
        "words",
        Json::arr(rng.state_words().iter().map(|&w| hex_u64(w))),
    )])
}

/// Decodes an `rng` object written by [`rng_to_json`]. A `spare_normal`
/// field, which engines that banked a Box–Muller sample wrote, is taken
/// when absent or `null` and refused otherwise: no generator that could
/// bank one is left to continue it.
pub(crate) fn rng_from_json(rng: &Json) -> Result<SimRng, String> {
    let words = rng
        .get("words")
        .and_then(Json::as_arr)
        .ok_or("rng is missing its state words")?;
    if words.len() != 4 {
        return Err(format!(
            "rng.words must hold 4 state words, found {}",
            words.len()
        ));
    }
    if !matches!(rng.get("spare_normal"), None | Some(Json::Null)) {
        return Err("rng carries a banked normal sample this engine cannot continue".into());
    }
    let mut state = [0u64; 4];
    for (slot, j) in state.iter_mut().zip(words) {
        *slot = parse_hex_u64(j)?;
    }
    SimRng::from_state(state).ok_or_else(|| "rng state is all-zero".to_string())
}

/// A simulator whose run can be checkpointed and resumed exactly: the
/// count backend ([`crate::counts::CountPopulation`], tag `counts`) and
/// the fault wrapper over it ([`crate::faults::FaultyPopulation`], tag
/// `faulty`). [`RunSnapshot::capture`] takes only these, so a backend
/// without a snapshot cannot be handed to it.
pub trait Checkpoint: Simulator {
    /// Stable tag naming this backend in snapshot payloads.
    /// [`RunSnapshot::resume_into`] refuses state saved under a different
    /// tag, so a snapshot can never be silently deserialized into the
    /// wrong backend shape.
    fn backend_tag(&self) -> &'static str;

    /// Serializes the complete resumable simulation state as a JSON value.
    ///
    /// "Complete" means: restoring this value into a freshly constructed
    /// simulator of the same protocol and initial shape (via
    /// [`Checkpoint::restore`]) and driving it with the same RNG stream
    /// continues the run *exactly* — identical counts, step counter, and
    /// RNG consumption — as if the run had never been interrupted. Derived
    /// caches (Fenwick trees, reactivity indexes) are *not* serialized;
    /// restore rebuilds them deterministically. The RNG itself is external
    /// to the simulator and saved separately by [`RunSnapshot`].
    fn snapshot(&self) -> Json;

    /// Restores state previously produced by [`Checkpoint::snapshot`] into
    /// this simulator, which must have been constructed with the same
    /// protocol and population size as the saved run.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch when `state` disagrees with
    /// this simulator's population size, state space or fault plan, or is
    /// structurally malformed. On error the simulator is left unchanged.
    fn restore(&mut self, state: &Json) -> Result<(), String>;
}

/// A complete resumable checkpoint of one run: backend state, word-exact
/// RNG state, the run's recorded counters, and harness metadata.
#[derive(Debug, Clone)]
pub struct RunSnapshot {
    /// [`Checkpoint::backend_tag`] of the simulator that produced `state`.
    pub backend: String,
    /// The generator at the checkpoint.
    pub rng: SimRng,
    /// Backend-specific resumable state from [`Checkpoint::snapshot`].
    pub state: Json,
    /// The run's counters at the checkpoint, when it had a recorder
    /// installed; [`RunSnapshot::resume`] restores them so counting
    /// continues instead of restarting from zero.
    pub metrics: Option<MetricsReport>,
    /// Free-form harness metadata (command, n, seed, …); [`Json::Null`]
    /// when unused.
    pub meta: Json,
}

impl RunSnapshot {
    /// Captures the resumable state of `sim` and `rng`, plus the counters
    /// of the recorder installed on this thread, if any (no meta — attach
    /// it with [`RunSnapshot::with_meta`]).
    ///
    /// Only a [`Checkpoint`] backend can be captured:
    ///
    /// ```
    /// use pp_engine::counts::CountPopulation;
    /// use pp_engine::protocol::TableProtocol;
    /// use pp_engine::rng::SimRng;
    /// use pp_engine::snapshot::RunSnapshot;
    ///
    /// let p = TableProtocol::new(2, "epidemic").rule(1, 0, 1, 1);
    /// let pop = CountPopulation::from_counts(&p, &[9, 1]);
    /// assert_eq!(RunSnapshot::capture(&pop, &SimRng::seed_from(0)).backend, "counts");
    /// ```
    ///
    /// The sparse backend has no snapshot, so capturing it does not
    /// compile:
    ///
    /// ```compile_fail,E0277
    /// use pp_engine::counts::SparseCountPopulation;
    /// use pp_engine::protocol::TableProtocol;
    /// use pp_engine::rng::SimRng;
    /// use pp_engine::snapshot::RunSnapshot;
    ///
    /// let p = TableProtocol::new(2, "epidemic").rule(1, 0, 1, 1);
    /// let pop = SparseCountPopulation::from_dense(&p, &[9, 1]);
    /// let _ = RunSnapshot::capture(&pop, &SimRng::seed_from(0));
    /// ```
    #[must_use]
    pub fn capture<S: Checkpoint + ?Sized>(sim: &S, rng: &SimRng) -> Self {
        Self {
            backend: sim.backend_tag().to_string(),
            rng: rng.clone(),
            state: sim.snapshot(),
            metrics: recorder::installed_metrics(),
            meta: Json::Null,
        }
    }

    /// Attaches harness metadata to the snapshot.
    #[must_use]
    pub fn with_meta(mut self, meta: Json) -> Self {
        self.meta = meta;
        self
    }

    /// Restores the snapshot into `sim` (which must be freshly constructed
    /// with the same protocol and initial shape) and returns the resumed
    /// RNG. After this call, driving `sim` with the returned RNG continues
    /// the interrupted run exactly.
    ///
    /// # Errors
    ///
    /// Returns a description when the snapshot was taken by a different
    /// backend or the state does not fit `sim`; `sim` is unchanged then.
    pub fn resume_into<S: Checkpoint + ?Sized>(&self, sim: &mut S) -> Result<SimRng, String> {
        if sim.backend_tag() != self.backend {
            return Err(format!(
                "snapshot was taken by backend {:?}, cannot restore into {:?}",
                self.backend,
                sim.backend_tag()
            ));
        }
        sim.restore(&self.state)?;
        Ok(self.rng.clone())
    }

    /// [`RunSnapshot::resume_into`], then restores the saved counters into
    /// `recorder` (left as it is when the snapshot carries none).
    ///
    /// `recorder` is borrowed here, so it cannot be installed while `sim`
    /// is restored: counters that reconstruction bumps (Fenwick recounts,
    /// index rebuilds) never reach it. Install it afterwards and the
    /// continued run counts exactly as the uninterrupted one did.
    ///
    /// # Errors
    ///
    /// As [`RunSnapshot::resume_into`]; `recorder` is unchanged then.
    pub fn resume<S: Checkpoint + ?Sized>(
        &self,
        sim: &mut S,
        recorder: &mut Recorder,
    ) -> Result<SimRng, String> {
        let rng = self.resume_into(sim)?;
        if let Some(report) = &self.metrics {
            recorder.load(report);
        }
        Ok(rng)
    }

    /// Serializes the snapshot to its two-line on-disk text form.
    #[must_use]
    pub fn encode(&self) -> String {
        let payload = Json::obj([
            ("backend", Json::from(self.backend.as_str())),
            ("rng", rng_to_json(&self.rng)),
            ("state", self.state.clone()),
            (
                "metrics",
                self.metrics
                    .as_ref()
                    .map_or(Json::Null, MetricsReport::to_json),
            ),
            ("meta", self.meta.clone()),
        ]);
        let payload_line = payload.render();
        let header = Json::obj([
            ("kind", Json::from("pp_snapshot")),
            ("version", Json::from(FORMAT_VERSION)),
            ("checksum", hex_u64(crc64(payload_line.as_bytes()))),
        ]);
        format!("{}\n{payload_line}\n", header.render())
    }

    /// Parses and validates the two-line on-disk text form.
    ///
    /// The payload checksum is verified *before* any payload field is
    /// parsed: a truncated or bit-flipped file is rejected here and can
    /// never be deserialized into a wrong state.
    ///
    /// # Errors
    ///
    /// Returns a description of the first validation failure (truncation,
    /// header mismatch, checksum mismatch, or malformed payload).
    pub fn decode(text: &str) -> Result<Self, String> {
        let (header_line, rest) = text
            .split_once('\n')
            .ok_or_else(|| "truncated snapshot: missing payload line".to_string())?;
        let header =
            Json::parse(header_line).map_err(|e| format!("malformed snapshot header: {e:?}"))?;
        if header.get("kind").and_then(Json::as_str) != Some("pp_snapshot") {
            return Err("not a pp_snapshot document".to_string());
        }
        match header.get("version").and_then(Json::as_u64) {
            Some(FORMAT_VERSION) => {}
            found => {
                let found = found.map_or_else(|| "none".to_string(), |v| v.to_string());
                return Err(format!(
                    "snapshot version {found} cannot be continued byte-identically by this \
                     engine (version {FORMAT_VERSION} required)"
                ));
            }
        }
        let stored = header
            .get("checksum")
            .ok_or_else(|| "snapshot header is missing its checksum".to_string())
            .and_then(parse_hex_u64)?;
        // The trailing newline is the write-completed marker: `encode`
        // always emits it, so its absence means the file was cut mid-write
        // even when the cut landed exactly on the payload boundary.
        let payload_line = rest
            .strip_suffix('\n')
            .ok_or_else(|| "truncated snapshot: missing trailing newline".to_string())?;
        let actual = crc64(payload_line.as_bytes());
        if actual != stored {
            return Err(format!(
                "snapshot checksum mismatch (stored {stored:016x}, computed {actual:016x}): \
                 file is truncated or corrupted"
            ));
        }
        let payload =
            Json::parse(payload_line).map_err(|e| format!("malformed snapshot payload: {e:?}"))?;
        let backend = payload
            .get("backend")
            .and_then(Json::as_str)
            .ok_or_else(|| "snapshot payload is missing its backend tag".to_string())?
            .to_string();
        let rng = rng_from_json(
            payload
                .get("rng")
                .ok_or_else(|| "snapshot payload is missing its rng".to_string())?,
        )?;
        let state = payload
            .get("state")
            .cloned()
            .ok_or_else(|| "snapshot payload is missing its state".to_string())?;
        let metrics = match payload.get("metrics") {
            None | Some(Json::Null) => None,
            Some(m) => Some(
                MetricsReport::parse(&m.render())
                    .map_err(|e| format!("snapshot metrics do not parse: {e:?}"))?,
            ),
        };
        let meta = payload.get("meta").cloned().unwrap_or(Json::Null);
        Ok(Self {
            backend,
            rng,
            state,
            metrics,
            meta,
        })
    }
}

/// Writes `text` to `path` crash-safely: write a temporary sibling, fsync
/// it, atomically rename it over `path`, then fsync the directory so the
/// rename itself is durable. A kill at any instant leaves either the old
/// file or the new one, never a torn mix.
///
/// # Errors
///
/// Returns any I/O error from the write, fsync, or rename. (A failed
/// directory fsync is ignored — not every platform supports it, and the
/// rename has already happened.)
pub fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Reads and validates a single snapshot file.
///
/// # Errors
///
/// Returns a description when the file cannot be read or fails
/// [`RunSnapshot::decode`] validation.
pub fn load_path(path: &Path) -> Result<RunSnapshot, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read snapshot {}: {e}", path.display()))?;
    RunSnapshot::decode(&text)
}

/// One snapshot generation that [`SnapshotStore::load_latest_at_most`]
/// skipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejected {
    /// The skipped generation (0 when the directory scan itself failed).
    pub generation: u64,
    /// The rejected file (or the unreadable directory) and why, as
    /// `<path>: <reason>`.
    pub detail: String,
}

impl Rejected {
    fn new(generation: u64, path: &Path, reason: &str) -> Self {
        Self {
            generation,
            detail: format!("{}: {reason}", path.display()),
        }
    }
}

/// A rotating on-disk checkpoint directory: generation-numbered snapshot
/// files (`gen-NNNNNNNNNN.snap`), the last `keep` of them retained, loaded
/// newest-first with per-generation corruption fallback.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    keep: usize,
    next_gen: u64,
}

/// Generation number encoded in a snapshot file name (`gen-N.snap`), if
/// it is one.
#[must_use]
pub fn file_generation(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("gen-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

impl SnapshotStore {
    /// Opens (creating if needed) a checkpoint directory, retaining the
    /// last `keep` generations on save (`keep` is clamped to ≥ 1). New
    /// saves continue after the highest generation already present.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from directory creation or the scan.
    pub fn open(dir: impl Into<PathBuf>, keep: usize) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let next_gen = Self::scan(&dir)?.last().map_or(0, |&(g, _)| g + 1);
        Ok(Self {
            dir,
            keep: keep.max(1),
            next_gen,
        })
    }

    /// All snapshot generations currently on disk, ascending.
    fn scan(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
        let mut gens = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if let Some(g) = file_generation(&path) {
                gens.push((g, path));
            }
        }
        gens.sort_unstable_by_key(|&(g, _)| g);
        Ok(gens)
    }

    /// Numbers the next save `generation + 1`, for a run resumed from
    /// `generation`. The resumed run replays the run that wrote any later
    /// generations byte for byte, so its saves replace them in place; a
    /// store numbered after the highest generation on disk would instead
    /// give older run times higher numbers.
    pub fn continue_after(&mut self, generation: u64) {
        self.next_gen = generation + 1;
    }

    /// Writes `snap` as the next generation (crash-safely, via
    /// [`write_atomic`]) and prunes generations beyond the last `keep`.
    /// Returns the path written.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the write; pruning failures are ignored
    /// (an unpruned stale generation is harmless).
    pub fn save(&mut self, snap: &RunSnapshot) -> std::io::Result<PathBuf> {
        let path = self.dir.join(format!("gen-{:010}.snap", self.next_gen));
        write_atomic(&path, &snap.encode())?;
        self.next_gen += 1;
        if let Ok(gens) = Self::scan(&self.dir) {
            for (_, old) in gens.iter().take(gens.len().saturating_sub(self.keep)) {
                let _ = std::fs::remove_file(old);
            }
        }
        Ok(path)
    }

    /// Loads the newest valid snapshot, of generation `≤ max_gen` when a
    /// bound is given (used to resume from "the named snapshot or anything
    /// older", never something newer), degrading past corruption instead
    /// of aborting: each unreadable or checksum-rejected generation is
    /// recorded as [`Rejected`] and the next-older one is tried. Returns
    /// `None` with the rejections when no generation survives — the caller
    /// falls back to a clean restart.
    #[must_use]
    pub fn load_latest_at_most(
        &self,
        max_gen: Option<u64>,
    ) -> (Option<(u64, PathBuf, RunSnapshot)>, Vec<Rejected>) {
        let mut rejected = Vec::new();
        let gens = match Self::scan(&self.dir) {
            Ok(g) => g,
            Err(e) => {
                rejected.push(Rejected::new(0, &self.dir, &e.to_string()));
                return (None, rejected);
            }
        };
        for (gen, path) in gens
            .into_iter()
            .rev()
            .filter(|&(g, _)| max_gen.is_none_or(|m| g <= m))
        {
            match load_path(&path) {
                Ok(snap) => return (Some((gen, path, snap)), rejected),
                Err(reason) => rejected.push(Rejected::new(gen, &path, &reason)),
            }
        }
        (None, rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::CountPopulation;
    use crate::faults::{CorruptMode, FaultSpec, FaultyPopulation};
    use crate::protocol::TableProtocol;
    use crate::sim::Simulator;

    fn sample_snapshot() -> RunSnapshot {
        let p = TableProtocol::new(2, "epidemic")
            .rule(1, 0, 1, 1)
            .rule(0, 1, 1, 1);
        let mut pop = CountPopulation::from_counts(&p, &[500, 12]);
        let mut rng = SimRng::seed_from(0xfeed);
        pop.step_batch(&mut rng, 700);
        RunSnapshot::capture(&pop, &rng).with_meta(Json::obj([("n", Json::from(512u64))]))
    }

    #[test]
    fn crc64_known_vector() {
        // CRC-64/XZ check value for the standard "123456789" test string.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn crc64_detects_single_bit_flips() {
        let base = b"population protocols are fast".to_vec();
        let reference = crc64(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(
                    crc64(&flipped),
                    reference,
                    "flip at byte {byte} bit {bit} must change the CRC"
                );
            }
        }
    }

    #[test]
    fn hex_u64_round_trips_extremes() {
        for v in [0u64, 1, (1 << 53) + 1, u64::MAX, 0xdead_beef_cafe_f00d] {
            assert_eq!(parse_hex_u64(&hex_u64(v)).unwrap(), v);
        }
        assert!(parse_hex_u64(&Json::from(17u64)).is_err());
        assert!(parse_hex_u64(&Json::from("not hex")).is_err());
        // Only the encoder's own form: 16 digits, lowercase.
        assert!(parse_hex_u64(&Json::from("00000000000000ff")).is_ok());
        assert!(parse_hex_u64(&Json::from("00000000000000FF")).is_err());
        assert!(parse_hex_u64(&Json::from("ff")).is_err());
    }

    #[test]
    fn encode_decode_round_trips() {
        let snap = sample_snapshot();
        let text = snap.encode();
        let back = RunSnapshot::decode(&text).expect("own encoding must decode");
        assert_eq!(back.backend, snap.backend);
        assert_eq!(back.rng, snap.rng);
        assert_eq!(back.state.render(), snap.state.render());
        assert_eq!(back.meta.render(), snap.meta.render());
        assert!(back.metrics.is_none());
    }

    #[test]
    fn decode_rejects_truncation_at_every_length() {
        let text = sample_snapshot().encode();
        for len in 0..text.len() {
            assert!(
                RunSnapshot::decode(&text[..len]).is_err(),
                "truncation to {len} bytes must be rejected"
            );
        }
    }

    /// `snap` encoded under header version `version`.
    fn encode_as_version(snap: &RunSnapshot, version: u64) -> String {
        let text = snap.encode();
        let current = format!("\"version\":{FORMAT_VERSION}");
        let rewritten = text.replacen(&current, &format!("\"version\":{version}"), 1);
        assert!(
            version == FORMAT_VERSION || rewritten != text,
            "header rewrite must take effect"
        );
        rewritten
    }

    /// A snapshot of the fault wrapper over the counts backend, taken
    /// after its corruption has fired.
    fn faulty_snapshot() -> RunSnapshot {
        let p = TableProtocol::new(2, "epidemic")
            .rule(1, 0, 1, 1)
            .rule(0, 1, 1, 1);
        let spec = FaultSpec::new(0xfa11).corrupt(1.0, 0.1, CorruptMode::Randomize);
        let mut pop = FaultyPopulation::new(CountPopulation::from_counts(&p, &[50, 2]), &spec)
            .expect("valid spec");
        let mut rng = SimRng::seed_from(0xbeef);
        pop.step_batch(&mut rng, 104);
        assert!(!pop.events().is_empty(), "the corruption fired");
        RunSnapshot::capture(&pop, &rng)
    }

    /// The reader takes [`FORMAT_VERSION`] only: whichever of the two
    /// checkpointed backends wrote a snapshot, any other version is refused with one message naming the
    /// version found and the one required. So is a document of another
    /// kind.
    #[test]
    fn decode_refuses_every_other_version_and_kind() {
        let counts = sample_snapshot();
        for snap in [&counts, &faulty_snapshot()] {
            let back = RunSnapshot::decode(&snap.encode()).expect("current version decodes");
            assert_eq!(back.state.render(), snap.state.render());
            for version in (1..FORMAT_VERSION).chain([999]) {
                let err = RunSnapshot::decode(&encode_as_version(snap, version)).unwrap_err();
                assert_eq!(
                    err,
                    format!(
                        "snapshot version {version} cannot be continued byte-identically by \
                         this engine (version {FORMAT_VERSION} required)"
                    ),
                    "{} v{version}",
                    snap.backend
                );
            }
        }
        let foreign = counts.encode().replacen("pp_snapshot", "pp_snapshoT", 1);
        assert!(RunSnapshot::decode(&foreign).is_err());
    }

    #[test]
    fn resume_refuses_a_foreign_backend_tag() {
        // A snapshot tagged by any other backend, including one this build
        // does not have, is refused before any state is touched.
        let mut snap = sample_snapshot();
        snap.backend = "accel".to_string();
        let p = TableProtocol::new(2, "epidemic")
            .rule(1, 0, 1, 1)
            .rule(0, 1, 1, 1);
        let mut pop = CountPopulation::from_counts(&p, &[500, 12]);
        let err = snap
            .resume_into(&mut pop)
            .expect_err("a foreign backend tag must be refused");
        assert!(err.contains("\"accel\""), "{err}");
        assert_eq!(pop.counts(), vec![500, 12]);
        assert_eq!(pop.steps(), 0);
    }

    /// `payload` under a current header with its checksum.
    fn sealed(payload: &str) -> String {
        let header = Json::obj([
            ("kind", Json::from("pp_snapshot")),
            ("version", Json::from(FORMAT_VERSION)),
            ("checksum", hex_u64(crc64(payload.as_bytes()))),
        ]);
        format!("{}\n{payload}\n", header.render())
    }

    /// Version-7 snapshots written while the generator could bank a
    /// Box–Muller sample carry `"spare_normal":null` in their `rng`
    /// object: they decode to the same generator. A banked sample, which
    /// no version-7 engine wrote, and all-zero words are refused.
    #[test]
    fn decode_takes_a_null_spare_normal_and_refuses_a_banked_one() {
        let snap = sample_snapshot();
        let text = snap.encode();
        let payload = text.lines().nth(1).expect("payload line");
        let rng = rng_to_json(&snap.rng).render();
        let with_spare = |spare: &str| {
            let rewritten = format!("{},\"spare_normal\":{spare}}}", &rng[..rng.len() - 1]);
            let changed = payload.replacen(&rng, &rewritten, 1);
            assert_ne!(changed, payload, "the rng object was rewritten");
            sealed(&changed)
        };
        let back = RunSnapshot::decode(&with_spare("null")).expect("a null spare decodes");
        assert_eq!(back.rng, snap.rng);
        assert_eq!(back.state.render(), snap.state.render());
        let err = RunSnapshot::decode(&with_spare("\"3ff0000000000000\"")).unwrap_err();
        assert!(err.contains("banked normal"), "{err}");
        let zero = Json::obj([("words", Json::arr((0..4).map(|_| hex_u64(0))))]);
        assert!(rng_from_json(&zero).is_err());
    }

    #[test]
    fn store_rotates_and_falls_back_past_corruption() {
        let dir = std::env::temp_dir().join(format!("pp_snap_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = SnapshotStore::open(&dir, 3).unwrap();
        let snap = sample_snapshot();
        let mut paths = Vec::new();
        for _ in 0..5 {
            paths.push(store.save(&snap).unwrap());
        }
        let gens = SnapshotStore::scan(&dir).unwrap();
        assert_eq!(
            gens.iter().map(|&(g, _)| g).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "only the last 3 generations survive rotation"
        );
        // Corrupt the newest generation: flip one payload bit.
        let newest = &gens[2].1;
        let mut bytes = std::fs::read(newest).unwrap();
        let flip = bytes.len() - 10;
        bytes[flip] ^= 0x01;
        std::fs::write(newest, &bytes).unwrap();
        let (loaded, rejected) = store.load_latest_at_most(None);
        let (gen, path, _) = loaded.expect("older generation must survive");
        assert_eq!(gen, 3, "fallback picks the previous generation");
        assert_eq!(path, gens[1].1);
        assert_eq!(rejected.len(), 1);
        assert_eq!(rejected[0].generation, 4);
        let prefix = format!("{}: ", newest.display());
        assert!(rejected[0].detail.starts_with(&prefix), "{rejected:?}");
        // Reopening continues the generation sequence past the corrupt one.
        let mut reopened = SnapshotStore::open(&dir, 3).unwrap();
        let next = reopened.save(&snap).unwrap();
        assert_eq!(file_generation(&next), Some(5));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A store continued after an older generation overwrites the later
    /// ones in place.
    #[test]
    fn store_continued_after_a_generation_replaces_the_later_ones() {
        let dir = std::env::temp_dir().join(format!("pp_snap_continue_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = SnapshotStore::open(&dir, 3).unwrap();
        let snap = sample_snapshot();
        for _ in 0..3 {
            store.save(&snap).unwrap();
        }
        let mut resumed = SnapshotStore::open(&dir, 3).unwrap();
        resumed.continue_after(0);
        assert_eq!(file_generation(&resumed.save(&snap).unwrap()), Some(1));
        let gens = |dir: &Path| {
            let scan = SnapshotStore::scan(dir).unwrap();
            scan.iter().map(|&(g, _)| g).collect::<Vec<_>>()
        };
        assert_eq!(gens(&dir), vec![0, 1, 2], "generation 2 stays");
        assert_eq!(file_generation(&resumed.save(&snap).unwrap()), Some(2));
        assert_eq!(file_generation(&resumed.save(&snap).unwrap()), Some(3));
        assert_eq!(gens(&dir), vec![1, 2, 3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_with_nothing_valid_reports_clean_restart() {
        let dir = std::env::temp_dir().join(format!("pp_snap_empty_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir, 2).unwrap();
        let (loaded, rejected) = store.load_latest_at_most(None);
        assert!(loaded.is_none());
        assert!(rejected.is_empty());
        std::fs::write(dir.join("gen-0000000000.snap"), "garbage\n{oops").unwrap();
        let (loaded, rejected) = store.load_latest_at_most(None);
        assert!(loaded.is_none(), "garbage never parses into a state");
        assert_eq!(rejected.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
