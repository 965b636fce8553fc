//! Crash-safe checkpointing and exact resume.
//!
//! Long runs at production scale (hours at `n = 10⁸`, sweeps of thousands
//! of tasks) must survive panics, deadline overruns, and process kills
//! without throwing completed work away. Determinism makes that cheap: a
//! run is a pure function of `(initial configuration, RNG state)`, so a
//! snapshot of the simulator state plus the word-exact RNG state resumes
//! the run *byte-identically* — same trace, same fault events, same
//! metrics — under the `tests/determinism.rs` contract (see DESIGN.md §15).
//!
//! ## What a snapshot contains
//!
//! [`RunSnapshot`] bundles the backend tag, the four xoshiro256\*\* state
//! words plus the banked Box–Muller spare ([`SimRng::state_words`] /
//! [`SimRng::spare_normal_bits`]), the backend's own resumable state from
//! [`Simulator::snapshot`] (counts / agent arrays / fault-trigger progress;
//! derived caches are rebuilt on restore), the counters of the run's
//! [`Recorder`] when one was installed, so a resumed process continues
//! counting where the interrupted one stopped, and a free-form `meta`
//! object for the harness (command, n, seed, checkpoint cadence, …).
//!
//! ## On-disk format
//!
//! Two JSON lines. The first is a header
//! `{"kind":"pp_snapshot","version":V,"checksum":"<crc64 hex>"}`; the
//! second is the payload object. `V` is [`FORMAT_VERSION`]; the reader also
//! takes version 1 and refuses version 2, whose runs came from the retired
//! sharded dense engine and cannot be continued byte-identically. The
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
//! generations; [`SnapshotStore::load_latest`] validates newest-first,
//! logging each corrupt generation as an [`Incident`] and degrading to the
//! previous one (or to a clean restart when none survive) instead of
//! aborting.

use crate::json::Json;
use crate::metrics::MetricsReport;
use crate::recorder::{self, Recorder};
use crate::rng::SimRng;
use crate::sim::Simulator;
use crate::sweep::Incident;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Version tag of the on-disk snapshot format. Bumped on any change to the
/// header or payload schema, and on semantic boundaries where an older
/// engine's trajectory cannot be continued byte-identically. The payload
/// schema has not changed since version 1:
///
/// * version 1 came from the exact engine before sharding;
/// * version 2 came from the engine that settled large dense batches in
///   sharded super-epochs against frozen window-start counts, a law the
///   exact engine does not reproduce, so [`RunSnapshot::decode`] rejects it;
/// * version 3 marks the return to one exact collision-epoch chain
///   (DESIGN.md §16).
///
/// The reader accepts versions 1 and 3.
pub const FORMAT_VERSION: u64 = 3;

/// The version written by the sharded dense engine, refused on read.
const SHARDED_FORMAT_VERSION: u64 = 2;

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

/// Decodes a `u64` previously encoded with [`hex_u64`].
///
/// # Errors
///
/// Returns a description when the value is not a string or not valid hex.
pub fn parse_hex_u64(j: &Json) -> Result<u64, String> {
    let s = j
        .as_str()
        .ok_or_else(|| format!("expected a hex string, got {}", j.render()))?;
    u64::from_str_radix(s, 16).map_err(|e| format!("bad hex u64 {s:?}: {e}"))
}

/// A complete resumable checkpoint of one run: backend state, word-exact
/// RNG state, the run's recorded counters, and harness metadata.
#[derive(Debug, Clone)]
pub struct RunSnapshot {
    /// [`Simulator::backend_tag`] of the simulator that produced `state`.
    pub backend: String,
    /// The four xoshiro256\*\* state words at the checkpoint.
    pub rng_words: [u64; 4],
    /// Banked Box–Muller sine-branch bits, if one sample was unconsumed.
    pub spare_normal: Option<u64>,
    /// Backend-specific resumable state from [`Simulator::snapshot`].
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
    /// # Errors
    ///
    /// Returns the backend's error when it does not support snapshots.
    pub fn capture<S: Simulator + ?Sized>(sim: &S, rng: &SimRng) -> Result<Self, String> {
        Ok(Self {
            backend: sim.backend_tag().to_string(),
            rng_words: rng.state_words(),
            spare_normal: rng.spare_normal_bits(),
            state: sim.snapshot()?,
            metrics: recorder::installed_metrics(),
            meta: Json::Null,
        })
    }

    /// Attaches harness metadata to the snapshot.
    #[must_use]
    pub fn with_meta(mut self, meta: Json) -> Self {
        self.meta = meta;
        self
    }

    /// Reconstructs the RNG exactly as it was at the checkpoint.
    ///
    /// # Errors
    ///
    /// Returns an error for the all-zero word vector, which cannot arise
    /// from a genuine running generator.
    pub fn rng(&self) -> Result<SimRng, String> {
        SimRng::from_state(self.rng_words, self.spare_normal)
            .ok_or_else(|| "snapshot holds an all-zero RNG state".to_string())
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
    pub fn resume_into<S: Simulator + ?Sized>(&self, sim: &mut S) -> Result<SimRng, String> {
        if sim.backend_tag() != self.backend {
            return Err(format!(
                "snapshot was taken by backend {:?}, cannot restore into {:?}",
                self.backend,
                sim.backend_tag()
            ));
        }
        let rng = self.rng()?;
        sim.restore(&self.state)?;
        Ok(rng)
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
    pub fn resume<S: Simulator + ?Sized>(
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
        let rng = Json::obj([
            (
                "words",
                Json::arr(self.rng_words.iter().map(|&w| hex_u64(w))),
            ),
            (
                "spare_normal",
                self.spare_normal.map_or(Json::Null, hex_u64),
            ),
        ]);
        let payload = Json::obj([
            ("backend", Json::from(self.backend.as_str())),
            ("rng", rng),
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
            Some(1 | FORMAT_VERSION) => {}
            Some(SHARDED_FORMAT_VERSION) => {
                return Err(format!(
                    "snapshot version {SHARDED_FORMAT_VERSION} came from the sharded dense \
                     engine and cannot be continued byte-identically by the exact engine \
                     (reader supports versions 1 and {FORMAT_VERSION})"
                ));
            }
            _ => {
                return Err(format!(
                    "unsupported snapshot version (reader supports versions 1 and {FORMAT_VERSION})"
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
        let words_json = payload
            .get("rng")
            .and_then(|r| r.get("words"))
            .and_then(Json::as_arr)
            .ok_or_else(|| "snapshot payload is missing rng.words".to_string())?;
        if words_json.len() != 4 {
            return Err(format!(
                "rng.words must hold 4 state words, found {}",
                words_json.len()
            ));
        }
        let mut rng_words = [0u64; 4];
        for (slot, j) in rng_words.iter_mut().zip(words_json) {
            *slot = parse_hex_u64(j)?;
        }
        let spare_normal = match payload.get("rng").and_then(|r| r.get("spare_normal")) {
            None | Some(Json::Null) => None,
            Some(j) => Some(parse_hex_u64(j)?),
        };
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
            rng_words,
            spare_normal,
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

/// A rotating on-disk checkpoint directory: generation-numbered snapshot
/// files (`gen-NNNNNNNNNN.snap`), the last `keep` of them retained, loaded
/// newest-first with per-generation corruption fallback.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    keep: usize,
    next_gen: u64,
}

/// Generation number encoded in a snapshot file name, if it is one.
fn file_generation(path: &Path) -> Option<u64> {
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

    /// The checkpoint directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
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

    /// All snapshot generations currently on disk, ascending. Files that
    /// do not match the generation naming scheme are ignored.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from reading the directory.
    pub fn generations(&self) -> std::io::Result<Vec<(u64, PathBuf)>> {
        Self::scan(&self.dir)
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

    /// Loads the newest valid snapshot, degrading past corruption instead
    /// of aborting: each unreadable or checksum-rejected generation is
    /// recorded as an [`Incident`] (cause `"snapshot_corrupt"`, index =
    /// generation) and the next-older one is tried. Returns `None` with
    /// the incident log when no generation survives — the caller falls
    /// back to a clean restart.
    #[must_use]
    pub fn load_latest(&self) -> (Option<(u64, PathBuf, RunSnapshot)>, Vec<Incident>) {
        self.load_latest_at_most(None)
    }

    /// Like [`SnapshotStore::load_latest`], but only considers generations
    /// `≤ max_gen` when a bound is given (used to resume from "the named
    /// snapshot or anything older", never something newer).
    #[must_use]
    pub fn load_latest_at_most(
        &self,
        max_gen: Option<u64>,
    ) -> (Option<(u64, PathBuf, RunSnapshot)>, Vec<Incident>) {
        let mut incidents = Vec::new();
        let gens = match Self::scan(&self.dir) {
            Ok(g) => g,
            Err(e) => {
                incidents.push(corruption_incident(0, &self.dir, &e.to_string()));
                return (None, incidents);
            }
        };
        for (gen, path) in gens
            .into_iter()
            .rev()
            .filter(|&(g, _)| max_gen.is_none_or(|m| g <= m))
        {
            match load_path(&path) {
                Ok(snap) => return (Some((gen, path, snap)), incidents),
                Err(detail) => incidents.push(corruption_incident(gen, &path, &detail)),
            }
        }
        (None, incidents)
    }
}

/// An [`Incident`] describing one rejected snapshot generation.
fn corruption_incident(gen: u64, path: &Path, detail: &str) -> Incident {
    Incident {
        index: usize::try_from(gen).unwrap_or(usize::MAX),
        attempt: 0,
        cause: "snapshot_corrupt",
        detail: format!("{}: {detail}", path.display()),
        elapsed_s: 0.0,
        backoff_s: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::CountPopulation;
    use crate::protocol::TableProtocol;
    use crate::sim::Simulator;

    fn sample_snapshot() -> RunSnapshot {
        let p = TableProtocol::new(2, "epidemic")
            .rule(1, 0, 1, 1)
            .rule(0, 1, 1, 1);
        let mut pop = CountPopulation::from_counts(&p, &[500, 12]);
        let mut rng = SimRng::seed_from(0xfeed);
        pop.step_batch(&mut rng, 700);
        RunSnapshot::capture(&pop, &rng)
            .expect("counts backend supports snapshots")
            .with_meta(Json::obj([("n", Json::from(512u64))]))
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
    }

    #[test]
    fn encode_decode_round_trips() {
        let snap = sample_snapshot();
        let text = snap.encode();
        let back = RunSnapshot::decode(&text).expect("own encoding must decode");
        assert_eq!(back.backend, snap.backend);
        assert_eq!(back.rng_words, snap.rng_words);
        assert_eq!(back.spare_normal, snap.spare_normal);
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

    #[test]
    fn decode_rejects_version_and_kind_mismatch() {
        let text = sample_snapshot().encode();
        let other = text.replacen("\"version\":3", "\"version\":999", 1);
        assert!(RunSnapshot::decode(&other).is_err());
        let sharded = text.replacen("\"version\":3", "\"version\":2", 1);
        assert_ne!(text, sharded, "header rewrite must take effect");
        let err = RunSnapshot::decode(&sharded).unwrap_err();
        assert!(err.contains("sharded dense engine"), "{err}");
        assert!(err.contains("byte-identically"), "{err}");
        let foreign = text.replacen("pp_snapshot", "pp_snapshoT", 1);
        assert!(RunSnapshot::decode(&foreign).is_err());
    }

    #[test]
    fn decode_accepts_previous_format_version() {
        // Version-1 snapshots (exact engine, before sharding) have the
        // identical payload schema; the reader must keep accepting them
        // alongside the current version.
        let text = sample_snapshot().encode();
        assert!(RunSnapshot::decode(&text).is_ok());
        let v1 = text.replacen("\"version\":3", "\"version\":1", 1);
        assert_ne!(text, v1, "header rewrite must take effect");
        assert!(RunSnapshot::decode(&v1).is_ok());
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

    #[test]
    fn zero_rng_words_cannot_resume() {
        let mut snap = sample_snapshot();
        snap.rng_words = [0; 4];
        assert!(snap.rng().is_err());
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
        let gens = store.generations().unwrap();
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
        let (loaded, incidents) = store.load_latest();
        let (gen, path, _) = loaded.expect("older generation must survive");
        assert_eq!(gen, 3, "fallback picks the previous generation");
        assert_eq!(path, gens[1].1);
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].cause, "snapshot_corrupt");
        assert_eq!(incidents[0].index, 4);
        // Reopening continues the generation sequence past the corrupt one.
        let mut reopened = SnapshotStore::open(&dir, 3).unwrap();
        let next = reopened.save(&snap).unwrap();
        assert_eq!(file_generation(&next), Some(5));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_with_nothing_valid_reports_clean_restart() {
        let dir = std::env::temp_dir().join(format!("pp_snap_empty_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir, 2).unwrap();
        let (loaded, incidents) = store.load_latest();
        assert!(loaded.is_none());
        assert!(incidents.is_empty());
        std::fs::write(dir.join("gen-0000000000.snap"), "garbage\n{oops").unwrap();
        let (loaded, incidents) = store.load_latest();
        assert!(loaded.is_none(), "garbage never parses into a state");
        assert_eq!(incidents.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
