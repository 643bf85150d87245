//! Crash-safe checkpoint snapshots for long verification runs.
//!
//! A budget-governed exploration that dies — timeout, OOM-kill, power
//! loss — loses every expanded state. This module gives each engine a
//! durable, versioned, checksummed snapshot format so a run can be
//! resumed exactly where it stopped:
//!
//! * **Envelope**: an 8-byte magic, the format version (2), an engine tag,
//!   and the [fingerprint](PetriNet::fingerprint) of the net being
//!   analyzed, followed by tagged sections each carrying its own CRC-32.
//!   One of them may be the [`RunStamp`]: which reduction, property,
//!   portfolio leg and service job the run belonged to. Loading validates
//!   all of it and rejects corrupt or mismatched snapshots with typed
//!   [`CheckpointError`]s instead of producing garbage verdicts.
//! * **Atomic writes**: snapshots are written to a temp file, fsynced,
//!   and renamed into place; the previous generation is kept as
//!   `<path>.prev` so a crash *during* a checkpoint write still leaves a
//!   loadable snapshot behind ([`read_checkpoint_with_fallback`]).
//! * **Engine payloads**: each engine serializes its own state store,
//!   frontier bitmap, and counters into sections using [`ByteWriter`] /
//!   [`ByteReader`]; this module only owns the envelope.
//!
//! Soundness: a snapshot stores only markings (or GPN states) that were
//! genuinely discovered, plus the expanded/frontier split. Resuming
//! re-seeds the work queue with exactly the unexpanded states, so the
//! resumed run explores the same state space a single uninterrupted run
//! would — same verdict, same state count, same witnesses.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use crate::bitset::BitSet;
use crate::budget::{Budget, Outcome};
use crate::marking::Marking;
use crate::net::PetriNet;

/// File magic: identifies a julie checkpoint.
pub const MAGIC: [u8; 8] = *b"JULIECKP";
/// Current snapshot format version. Bump on any layout change.
///
/// Version 2 replaced version 1's four stamp sections with one
/// [`RunStamp`] section.
pub const FORMAT_VERSION: u32 = 2;

/// Which engine produced a snapshot. Resuming requires the same engine
/// (and, for the GPO engine, the same family representation): replaying a
/// reduced frontier under a different exploration rule would be unsound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Exhaustive reachability ([`ReachabilityGraph`](crate::ReachabilityGraph)).
    Full,
    /// Reachability under a reduction rule
    /// ([`ReachabilityGraph::explore_under`](crate::ReachabilityGraph::explore_under)):
    /// the stubborn-set graph of the `partial-order` crate.
    Reduced,
    /// Generalized partial-order analysis, explicit families. The test
    /// reference representation writes it, as `--engine=gpo` did in older
    /// builds.
    GpoExplicit,
    /// Generalized partial-order analysis, ZDD-backed families (what
    /// `--engine=gpo` writes).
    GpoZdd,
}

impl EngineKind {
    fn tag(self) -> u32 {
        match self {
            EngineKind::Full => 1,
            EngineKind::Reduced => 2,
            EngineKind::GpoExplicit => 3,
            EngineKind::GpoZdd => 4,
        }
    }

    fn from_tag(tag: u32) -> Option<Self> {
        match tag {
            1 => Some(EngineKind::Full),
            2 => Some(EngineKind::Reduced),
            3 => Some(EngineKind::GpoExplicit),
            4 => Some(EngineKind::GpoZdd),
            _ => None,
        }
    }

    /// Human-readable engine name, matching the CLI's `--engine` values
    /// for every kind the CLI writes.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Full => "full",
            EngineKind::Reduced => "po",
            EngineKind::GpoExplicit => "gpo (explicit families)",
            EngineKind::GpoZdd => "gpo",
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Why a snapshot could not be written or loaded. Every way a snapshot
/// file can be damaged maps onto one of these variants — loading never
/// panics and never silently yields a wrong exploration state.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure while reading or writing.
    Io(std::io::Error),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file uses a different format version than this build.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
    /// The snapshot was written by a different engine (or representation).
    EngineMismatch {
        /// Engine the caller wants to resume with.
        expected: EngineKind,
        /// Engine recorded in the snapshot.
        found: EngineKind,
    },
    /// The snapshot was taken of a structurally different net.
    FingerprintMismatch {
        /// Fingerprint of the net the caller is analyzing.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// A section's payload does not match its recorded CRC-32.
    ChecksumMismatch {
        /// Tag of the damaged section.
        section: u32,
    },
    /// The file ends before the declared structure does.
    Truncated,
    /// A checksum-valid section decodes to an inconsistent payload.
    Malformed {
        /// Tag of the inconsistent section.
        section: u32,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::VersionMismatch { found, expected } => write!(
                f,
                "checkpoint format version {found} (this build reads {expected})"
            ),
            CheckpointError::EngineMismatch { expected, found } => write!(
                f,
                "checkpoint was written by engine `{found}` but `{expected}` is resuming"
            ),
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint is for a different net (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
            CheckpointError::ChecksumMismatch { section } => {
                write!(f, "checkpoint section {section} failed its CRC-32 check")
            }
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::Malformed { section, detail } => {
                write!(f, "checkpoint section {section} is malformed: {detail}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// One tagged, independently checksummed payload of a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Engine-defined section tag.
    pub tag: u32,
    /// Raw payload bytes (engine-defined layout).
    pub payload: Vec<u8>,
}

/// A validated in-memory snapshot: the envelope header, its run stamp and
/// its engine sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Engine that produced (and may resume) this snapshot.
    pub engine: EngineKind,
    /// Fingerprint of the net the snapshot belongs to.
    pub fingerprint: u64,
    /// The run the snapshot belongs to, decoded once at load. Written as
    /// one section after the engine sections, and not at all when it is
    /// the default.
    pub stamp: RunStamp,
    /// Engine-defined sections, in write order.
    pub sections: Vec<Section>,
}

impl Snapshot {
    /// Starts an empty, unstamped snapshot for `engine` over `net`.
    pub fn new(engine: EngineKind, net: &PetriNet) -> Self {
        Snapshot {
            engine,
            fingerprint: net.fingerprint(),
            stamp: RunStamp::default(),
            sections: Vec::new(),
        }
    }

    /// Appends a section.
    pub fn push_section(&mut self, tag: u32, payload: Vec<u8>) {
        self.sections.push(Section { tag, payload });
    }

    /// The payload of the first section with `tag`, if present.
    pub fn section(&self, tag: u32) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|s| s.tag == tag)
            .map(|s| s.payload.as_slice())
    }

    /// The payload of section `tag`, or [`CheckpointError::Malformed`].
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Malformed`] if the section is absent.
    pub fn require_section(&self, tag: u32) -> Result<&[u8], CheckpointError> {
        self.section(tag).ok_or(CheckpointError::Malformed {
            section: tag,
            detail: "required section is missing".into(),
        })
    }

    /// Checks that this snapshot belongs to `engine` and a net with
    /// `fingerprint`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::EngineMismatch`] or
    /// [`CheckpointError::FingerprintMismatch`] accordingly.
    pub fn validate(&self, engine: EngineKind, fingerprint: u64) -> Result<(), CheckpointError> {
        if self.engine != engine {
            return Err(CheckpointError::EngineMismatch {
                expected: engine,
                found: self.engine,
            });
        }
        if self.fingerprint != fingerprint {
            return Err(CheckpointError::FingerprintMismatch {
                expected: fingerprint,
                found: self.fingerprint,
            });
        }
        Ok(())
    }

    /// Serializes the snapshot to its on-disk byte layout:
    ///
    /// ```text
    /// magic[8] version:u32 engine:u32 fingerprint:u64 section_count:u32
    /// ( tag:u32 len:u64 crc32:u32 payload[len] )*
    /// ```
    ///
    /// A stamped snapshot's last section is its [`RunStamp`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let stamp = (self.stamp != RunStamp::default()).then(|| Section {
            tag: RUN_SECTION,
            payload: self.stamp.encode(),
        });
        let sections: Vec<&Section> = self.sections.iter().chain(&stamp).collect();
        let mut buf =
            Vec::with_capacity(32 + sections.iter().map(|s| 16 + s.payload.len()).sum::<usize>());
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&self.engine.tag().to_le_bytes());
        buf.extend_from_slice(&self.fingerprint.to_le_bytes());
        buf.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        for s in sections {
            buf.extend_from_slice(&s.tag.to_le_bytes());
            buf.extend_from_slice(&(s.payload.len() as u64).to_le_bytes());
            buf.extend_from_slice(&crc32(&s.payload).to_le_bytes());
            buf.extend_from_slice(&s.payload);
        }
        buf
    }

    /// Parses and validates the on-disk byte layout.
    ///
    /// # Errors
    ///
    /// Returns the typed [`CheckpointError`] describing the first problem
    /// found: bad magic, version/engine mismatch, truncation, a
    /// per-section CRC failure, or a malformed run stamp. Never panics on
    /// arbitrary input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        Self::from_bytes_since(bytes, FORMAT_VERSION)
    }

    /// [`from_bytes`](Self::from_bytes) that also accepts the older format
    /// versions `oldest..FORMAT_VERSION`. Only for files whose sections
    /// kept their layout since `oldest`; the envelope itself has not
    /// changed since version 1.
    ///
    /// # Errors
    ///
    /// As [`from_bytes`](Self::from_bytes).
    pub fn from_bytes_since(bytes: &[u8], oldest: u32) -> Result<Self, CheckpointError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], CheckpointError> {
            let end = pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
            if end > bytes.len() {
                return Err(CheckpointError::Truncated);
            }
            let out = &bytes[*pos..end];
            *pos = end;
            Ok(out)
        };
        let magic = take(&mut pos, 8)?;
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        if !(oldest..=FORMAT_VERSION).contains(&version) {
            return Err(CheckpointError::VersionMismatch {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let engine_tag = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        let engine = EngineKind::from_tag(engine_tag).ok_or(CheckpointError::Malformed {
            section: 0,
            detail: format!("unknown engine tag {engine_tag}"),
        })?;
        let fingerprint = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        let section_count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        let mut stamp = None;
        let mut sections = Vec::new();
        for _ in 0..section_count {
            let tag = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
            let len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
            let crc = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
            let len = usize::try_from(len).map_err(|_| CheckpointError::Truncated)?;
            let payload = take(&mut pos, len)?;
            if crc32(payload) != crc {
                return Err(CheckpointError::ChecksumMismatch { section: tag });
            }
            if tag != RUN_SECTION {
                sections.push(Section {
                    tag,
                    payload: payload.to_vec(),
                });
            } else if stamp.replace(RunStamp::decode(payload)?).is_some() {
                return Err(CheckpointError::Malformed {
                    section: tag,
                    detail: "second run stamp".into(),
                });
            }
        }
        if pos != bytes.len() {
            return Err(CheckpointError::Malformed {
                section: 0,
                detail: format!("{} trailing bytes after last section", bytes.len() - pos),
            });
        }
        Ok(Snapshot {
            engine,
            fingerprint,
            stamp: stamp.unwrap_or_default(),
            sections,
        })
    }
}

/// Fault-injection hooks for the checkpoint write path, compiled only for
/// tests and the `fault-injection` feature. Arming a stage makes the
/// *next* [`write_checkpoint`] call fail there with a typed
/// [`CheckpointError::Io`]; the hook then disarms itself.
#[cfg(any(test, feature = "fault-injection"))]
pub mod fault {
    use std::sync::atomic::{AtomicU8, Ordering};

    /// Fail while streaming bytes into the temp file (before any rename).
    pub const STAGE_TMP_WRITE: u8 = 1;
    /// Fail after rotating the primary to `.prev`, before the final
    /// rename lands the new snapshot — the worst crash window.
    pub const STAGE_RENAME: u8 = 2;

    static ARMED: AtomicU8 = AtomicU8::new(0);

    /// Arms the next checkpoint write to fail at `stage`.
    pub fn arm(stage: u8) {
        ARMED.store(stage, Ordering::SeqCst);
    }

    /// Disarms any pending injected fault.
    pub fn disarm() {
        ARMED.store(0, Ordering::SeqCst);
    }

    /// Consumes the armed fault if it matches `stage`.
    pub(super) fn take(stage: u8) -> bool {
        ARMED
            .compare_exchange(stage, 0, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }
}

/// The companion path holding the previous checkpoint generation.
pub fn previous_generation(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".prev");
    PathBuf::from(name)
}

/// Durably writes `snapshot` to `path`.
///
/// The write protocol survives a crash at any point: the snapshot is
/// written to `<path>.tmp` and fsynced, any existing `<path>` is rotated
/// to `<path>.prev`, and the temp file is atomically renamed to `<path>`
/// (followed by a best-effort fsync of the directory). A reader therefore
/// always finds either the new snapshot, the previous one, or both —
/// never a torn file under the primary name.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on any filesystem failure.
pub fn write_checkpoint(path: &Path, snapshot: &Snapshot) -> Result<(), CheckpointError> {
    let bytes = snapshot.to_bytes();
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = fs::File::create(&tmp)?;
        #[cfg(any(test, feature = "fault-injection"))]
        if fault::take(fault::STAGE_TMP_WRITE) {
            // emulate the device dying mid-write: half the bytes land in
            // the temp file and the error surfaces before any rename, so
            // the primary and previous generations stay untouched
            let _ = f.write_all(&bytes[..bytes.len() / 2]);
            return Err(CheckpointError::Io(std::io::Error::other(
                "injected fault during temp-file write",
            )));
        }
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    if path.exists() {
        fs::rename(path, previous_generation(path))?;
    }
    #[cfg(any(test, feature = "fault-injection"))]
    if fault::take(fault::STAGE_RENAME) {
        // emulate a crash in the worst window: the previous primary has
        // already been rotated to `.prev` but the fresh temp file never
        // reaches the primary name — the fallback reader must recover
        // the rotated generation
        return Err(CheckpointError::Io(std::io::Error::other(
            "injected fault before final rename",
        )));
    }
    fs::rename(&tmp, path)?;
    // directory fsync makes the rename durable; best-effort because some
    // filesystems refuse to open directories for writing
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Loads and validates the snapshot at `path`.
///
/// # Errors
///
/// Returns a typed [`CheckpointError`] for unreadable, corrupt, or
/// foreign files.
pub fn read_checkpoint(path: &Path) -> Result<Snapshot, CheckpointError> {
    Snapshot::from_bytes(&fs::read(path)?)
}

/// Loads the snapshot at `path`, falling back to the previous generation
/// `<path>.prev` when the primary is missing or damaged (e.g. the process
/// died mid-write before the atomic rename completed).
///
/// # Errors
///
/// Returns the *primary* file's error when both generations fail, so the
/// user sees why the most recent snapshot was unusable.
pub fn read_checkpoint_with_fallback(path: &Path) -> Result<Snapshot, CheckpointError> {
    match read_checkpoint(path) {
        Ok(s) => Ok(s),
        Err(primary) => match read_checkpoint(&previous_generation(path)) {
            Ok(s) => Ok(s),
            Err(_) => Err(primary),
        },
    }
}

/// How an engine run should interact with checkpointing. Constructed by
/// the CLI from `--checkpoint` / `--checkpoint-every`; resuming is a
/// separate [`Snapshot`] argument so loading and validation happen (with
/// typed errors) before any exploration starts.
#[derive(Debug, Clone, Default)]
pub struct CheckpointConfig {
    /// Where to write snapshots. `None` disables writing.
    pub path: Option<PathBuf>,
    /// Write a snapshot roughly every this many newly stored states, by
    /// running the exploration in segments: each segment drains and joins
    /// its workers at a frontier barrier, snapshots the quiesced state,
    /// and continues in-process. `None` snapshots only on budget
    /// exhaustion. Requires `path`.
    pub every: Option<usize>,
    /// The run stamp of every snapshot written. Each layer sets its own
    /// field: the CLI its reduction and property, the portfolio its leg,
    /// the service its job.
    pub stamp: RunStamp,
}

impl CheckpointConfig {
    /// A config that writes to `path` only when the budget is exhausted.
    pub fn at(path: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            path: Some(path.into()),
            every: None,
            stamp: RunStamp::default(),
        }
    }

    /// A config that additionally snapshots every `every` stored states.
    pub fn periodic(path: impl Into<PathBuf>, every: usize) -> Self {
        CheckpointConfig {
            path: Some(path.into()),
            every: Some(every),
            stamp: RunStamp::default(),
        }
    }

    /// `true` when nothing is ever written (pure resume or plain run).
    pub fn is_disabled(&self) -> bool {
        self.path.is_none()
    }
}

/// The segmenting protocol every checkpointing engine runs under.
///
/// `explore` continues a prior partial exploration (or starts fresh on
/// `None`) under the budget it is handed. With `ckpt.every` set, each
/// segment's budget caps stored states at `stored(prior) + every`, so the
/// engine quiesces at its frontier barrier at that point. Every partial
/// segment is serialized by `snapshot`, stamped and written to
/// `ckpt.path`; then `budget` is re-checked against the segment's
/// coverage, so the synthetic cap continues in-process while a genuine
/// exhaustion of the caller's budget ends the run.
///
/// # Errors
///
/// Whatever `explore` returns, plus snapshot write failures.
pub fn explore_segmented<T, E: From<CheckpointError>>(
    budget: &Budget,
    ckpt: &CheckpointConfig,
    mut prior: Option<T>,
    stored: impl Fn(&T) -> usize,
    mut explore: impl FnMut(&Budget, Option<T>) -> Result<Outcome<T>, E>,
    snapshot: impl Fn(&T) -> Snapshot,
) -> Result<Outcome<T>, E> {
    loop {
        let segment = match (ckpt.every, &ckpt.path) {
            (Some(every), Some(_)) => {
                let stored = prior.as_ref().map_or(1, &stored);
                budget
                    .clone()
                    .cap_states(stored.saturating_add(every.max(1)))
            }
            _ => budget.clone(),
        };
        let (result, coverage) = match explore(&segment, prior.take())? {
            Outcome::Complete(done) => return Ok(Outcome::Complete(done)),
            Outcome::Partial {
                result, coverage, ..
            } => (result, coverage),
        };
        if let Some(path) = &ckpt.path {
            let mut snap = snapshot(&result);
            snap.stamp = ckpt.stamp.clone();
            write_checkpoint(path, &snap)?;
        }
        match budget.exceeded(coverage.states_stored, coverage.bytes_estimate) {
            None => prior = Some(result),
            Some(reason) => {
                return Ok(Outcome::Partial {
                    result,
                    reason,
                    coverage,
                })
            }
        }
    }
}

// ---------------------------------------------------------------------
// Run stamp
// ---------------------------------------------------------------------

/// Section tag of the [`RunStamp`]; far outside the small per-engine tag
/// ranges, so it can never collide with an engine-defined section.
const RUN_SECTION: u32 = 0x5255_4E53; // "RUNS"

/// Which run a snapshot belongs to, beyond the engine and net fingerprint
/// of the envelope. A snapshot's stored states are only a sound prefix of
/// the run that wrote them, so a resume compares each field against its
/// own flags and fails closed (the CLI) or starts over (the service) on
/// any difference. Each layer owns one field; an unset field means the
/// layer was not involved. Default (`EF deadlock`, unreduced, solo,
/// CLI) runs write no stamp at all.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStamp {
    /// How a `--reduce` run derived the net it explored. The envelope
    /// fingerprint of such a snapshot is the reduced net's, so resuming
    /// against another reduction already fails closed; this field lets
    /// the CLI name the flag to change.
    pub reduction: Option<StampedReduction>,
    /// Canonical text of a non-default property (e.g.
    /// `"AG m(critical) <= 0"`): a stubborn-set exploration for one
    /// property is not a sound prefix for another.
    pub property: Option<String>,
    /// CLI name of the portfolio (`--engine=auto`) leg that wrote the
    /// snapshot; `None` for a solo run. A resume re-enters the race with
    /// this leg continuing from the snapshot.
    pub leg: Option<String>,
    /// The `julie serve` job the snapshot belongs to, so a moved or copied
    /// snapshot is ignored instead of silently resumed.
    pub job: Option<StampedJob>,
}

/// The [`RunStamp::reduction`] of a `--reduce` run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StampedReduction {
    /// Canonical rule list of the pass (e.g. `"sp,st,rp,it,dt"`).
    pub rules: String,
    /// Fingerprint of the original (unreduced) net.
    pub original_fingerprint: u64,
    /// Place count of the reduced net.
    pub places: usize,
    /// Transition count of the reduced net.
    pub transitions: usize,
}

/// The [`RunStamp::job`] of a `julie serve` job: its id and the budget it
/// was admitted under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StampedJob {
    /// Server-assigned job id (e.g. `"j000007"`).
    pub id: String,
    /// The job's admitted state budget.
    pub max_states: u64,
    /// The job's admitted byte budget (`u64::MAX` when uncapped).
    pub max_bytes: u64,
    /// The job's wall-clock budget in seconds, 0 when none was set.
    pub timeout_secs: u64,
}

impl RunStamp {
    /// The section payload: a layout version, a bit per present field
    /// (reduction, property, leg, job), then each present field in that
    /// order.
    fn encode(&self) -> Vec<u8> {
        let present = u8::from(self.reduction.is_some())
            | u8::from(self.property.is_some()) << 1
            | u8::from(self.leg.is_some()) << 2
            | u8::from(self.job.is_some()) << 3;
        let mut w = ByteWriter::new();
        w.u8(1); // stamp layout version
        w.u8(present);
        if let Some(r) = &self.reduction {
            w.u64(r.original_fingerprint);
            w.usize(r.places);
            w.usize(r.transitions);
            w.str(&r.rules);
        }
        if let Some(property) = &self.property {
            w.str(property);
        }
        if let Some(leg) = &self.leg {
            w.str(leg);
        }
        if let Some(j) = &self.job {
            w.u64(j.max_states);
            w.u64(j.max_bytes);
            w.u64(j.timeout_secs);
            w.str(&j.id);
        }
        w.into_bytes()
    }

    /// Parses a payload written by [`RunStamp::encode`].
    fn decode(payload: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = ByteReader::new(payload, RUN_SECTION);
        let version = r.u8()?;
        if version != 1 {
            return Err(r.malformed(format!("unknown run stamp version {version}")));
        }
        let present = r.u8()?;
        if present >> 4 != 0 {
            return Err(r.malformed(format!("unknown run stamp fields {present:#04x}")));
        }
        let has = |bit: u8| present & (1 << bit) != 0;
        let reduction = if has(0) {
            let original_fingerprint = r.u64()?;
            let places = r.usize()?;
            let transitions = r.usize()?;
            let rules = r.str(1024, "rule list")?;
            Some(StampedReduction {
                rules,
                original_fingerprint,
                places,
                transitions,
            })
        } else {
            None
        };
        let property = has(1)
            .then(|| r.str(64 * 1024, "property text"))
            .transpose()?;
        let leg = has(2).then(|| r.str(64, "leg name")).transpose()?;
        let job = if has(3) {
            let max_states = r.u64()?;
            let max_bytes = r.u64()?;
            let timeout_secs = r.u64()?;
            let id = r.str(256, "job id")?;
            Some(StampedJob {
                id,
                max_states,
                max_bytes,
                timeout_secs,
            })
        } else {
            None
        };
        r.finish()?;
        Ok(RunStamp {
            reduction,
            property,
            leg,
            job,
        })
    }
}

// ---------------------------------------------------------------------
// Checksums and fingerprints
// ---------------------------------------------------------------------

fn crc32_table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        table
    })
}

/// CRC-32 (IEEE 802.3, reflected) of `bytes` — the per-section checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc32_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// FNV-1a 64-bit hasher with a *stable* output across builds and
/// platforms — unlike `DefaultHasher`, which is explicitly allowed to
/// change between releases and must never be persisted.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds a length-prefixed string (prefixing prevents ambiguity
    /// between e.g. `["ab","c"]` and `["a","bc"]`).
    pub fn write_str(&mut self, s: &str) {
        self.write(&(s.len() as u64).to_le_bytes());
        self.write(s.as_bytes());
    }

    /// Feeds a u64.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Stable structural fingerprint of a net: name, places (with their
/// initial marking), and transitions with their pre/post place sets.
/// Two nets agree iff resuming a snapshot of one under the other is
/// meaningful.
pub(crate) fn net_fingerprint(net: &PetriNet) -> u64 {
    let mut h = Fnv64::default();
    h.write_str(net.name());
    h.write_u64(net.place_count() as u64);
    for p in net.places() {
        h.write_str(net.place_name(p));
        h.write_u64(u64::from(net.initial_marking().is_marked(p)));
    }
    h.write_u64(net.transition_count() as u64);
    for t in net.transitions() {
        h.write_str(net.transition_name(t));
        h.write_u64(net.pre_places(t).len() as u64);
        for &p in net.pre_places(t) {
            h.write_u64(p.index() as u64);
        }
        h.write_u64(net.post_places(t).len() as u64);
        for &p in net.post_places(t) {
            h.write_u64(p.index() as u64);
        }
    }
    h.finish()
}

// ---------------------------------------------------------------------
// Section payload encoding helpers
// ---------------------------------------------------------------------

/// Little-endian, fixed-width section payload writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// A fresh empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a usize as u64.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a string as its byte length (a usize) followed by its
    /// UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a bit set as its block words (the capacity is implied by
    /// the context reading it back).
    pub fn bits(&mut self, bits: &BitSet) {
        for &b in bits.as_blocks() {
            self.u64(b);
        }
    }

    /// Appends a `Vec<bool>` packed 8 flags per byte.
    pub fn bools(&mut self, flags: &[bool]) {
        self.usize(flags.len());
        let mut byte = 0u8;
        for (i, &f) in flags.iter().enumerate() {
            if f {
                byte |= 1 << (i % 8);
            }
            if i % 8 == 7 {
                self.u8(byte);
                byte = 0;
            }
        }
        if !flags.len().is_multiple_of(8) {
            self.u8(byte);
        }
    }

    /// The accumulated payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian, fixed-width section payload reader. Every accessor is
/// bounds-checked and returns [`CheckpointError::Malformed`] (tagged with
/// the section being decoded) instead of panicking.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: u32,
}

impl<'a> ByteReader<'a> {
    /// Starts reading `payload` of section `section`.
    pub fn new(payload: &'a [u8], section: u32) -> Self {
        ByteReader {
            buf: payload,
            pos: 0,
            section,
        }
    }

    /// The malformed-payload error for this section.
    pub fn malformed(&self, detail: impl Into<String>) -> CheckpointError {
        CheckpointError::Malformed {
            section: self.section,
            detail: detail.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.malformed("payload ends early"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Malformed`] if the payload ends early.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Malformed`] if the payload ends early.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Malformed`] if the payload ends early.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a u64 written by [`ByteWriter::usize`] back into a usize.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Malformed`] if the payload ends early or
    /// the value does not fit a usize.
    pub fn usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?).map_err(|_| self.malformed("count does not fit usize"))
    }

    /// Reads a string written by [`ByteWriter::str`]; `field` names it in
    /// the error.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Malformed`] on truncation, a length above
    /// `max`, or bytes that are not UTF-8.
    pub fn str(&mut self, max: usize, field: &str) -> Result<String, CheckpointError> {
        let len = self.usize()?;
        if len > max {
            return Err(self.malformed(format!("implausible {field} length")));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| self.malformed(format!("{field} is not UTF-8")))
    }

    /// Reads a bit set over the universe `0..capacity`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Malformed`] on truncation or if bits
    /// beyond `capacity` are set.
    pub fn bits(&mut self, capacity: usize) -> Result<BitSet, CheckpointError> {
        let nblocks = capacity.div_ceil(64);
        let mut blocks = Vec::with_capacity(nblocks);
        for _ in 0..nblocks {
            blocks.push(self.u64()?);
        }
        BitSet::from_blocks(capacity, blocks)
            .ok_or_else(|| self.malformed("bit set has bits outside its universe"))
    }

    /// Reads a packed `Vec<bool>` written by [`ByteWriter::bools`].
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Malformed`] on truncation or an
    /// implausible length.
    pub fn bools(&mut self) -> Result<Vec<bool>, CheckpointError> {
        let n = self.usize()?;
        let bytes = self.take(n.div_ceil(8))?;
        Ok((0..n).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect())
    }

    /// Checks that the payload was fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Malformed`] if bytes remain.
    pub fn finish(self) -> Result<(), CheckpointError> {
        if self.pos != self.buf.len() {
            return Err(self.malformed(format!(
                "{} unread bytes at end of section",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Writes a marking as its place bit set (blocks only; the place count is
/// supplied again on read).
pub fn write_marking(w: &mut ByteWriter, m: &Marking) {
    w.bits(m.as_bits());
}

/// Reads a marking over `place_count` places.
///
/// # Errors
///
/// Returns [`CheckpointError::Malformed`] on truncation or out-of-universe
/// bits.
pub fn read_marking(
    r: &mut ByteReader<'_>,
    place_count: usize,
) -> Result<Marking, CheckpointError> {
    Ok(Marking::from_bits(r.bits(place_count)?))
}

/// Section tag of the marking table the full and reduced engines share:
/// the place count, the state count, then every marking in id order.
const STATES_SECTION: u32 = 1;
/// Section tag of the per-state "expanded" bitmap the full and reduced
/// engines share; its `false` entries are the frontier a resume continues.
const EXPANDED_SECTION: u32 = 2;

/// Writes a marking table and its expanded bitmap as sections 1 and 2.
pub fn push_state_table(
    snap: &mut Snapshot,
    net: &PetriNet,
    states: &[Marking],
    expanded: &[bool],
) {
    let mut w = ByteWriter::new();
    w.u32(net.place_count() as u32);
    w.usize(states.len());
    for m in states {
        write_marking(&mut w, m);
    }
    snap.push_section(STATES_SECTION, w.into_bytes());

    let mut w = ByteWriter::new();
    w.bools(expanded);
    snap.push_section(EXPANDED_SECTION, w.into_bytes());
}

/// Reads the sections [`push_state_table`] wrote, checking that the place
/// count matches `net`, that state 0 is its initial marking, that no
/// marking appears twice and that the bitmap has one flag per state.
///
/// # Errors
///
/// Returns [`CheckpointError::Malformed`] when a section is absent or
/// breaks one of those checks.
pub fn read_state_table(
    snap: &Snapshot,
    net: &PetriNet,
) -> Result<(Vec<Marking>, Vec<bool>), CheckpointError> {
    let mut r = ByteReader::new(snap.require_section(STATES_SECTION)?, STATES_SECTION);
    let place_count = r.u32()? as usize;
    if place_count != net.place_count() {
        return Err(r.malformed(format!(
            "snapshot has {place_count} places, net has {}",
            net.place_count()
        )));
    }
    let count = r.usize()?;
    let mut states = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        states.push(read_marking(&mut r, place_count)?);
    }
    r.finish()?;
    if states.is_empty() || &states[0] != net.initial_marking() {
        return Err(CheckpointError::Malformed {
            section: STATES_SECTION,
            detail: "state 0 is not the net's initial marking".into(),
        });
    }
    let distinct: std::collections::HashSet<&Marking> = states.iter().collect();
    if distinct.len() != states.len() {
        return Err(CheckpointError::Malformed {
            section: STATES_SECTION,
            detail: "duplicate markings in state table".into(),
        });
    }

    let mut r = ByteReader::new(snap.require_section(EXPANDED_SECTION)?, EXPANDED_SECTION);
    let expanded = r.bools()?;
    r.finish()?;
    if expanded.len() != count {
        return Err(CheckpointError::Malformed {
            section: EXPANDED_SECTION,
            detail: "expanded bitmap length disagrees with state count".into(),
        });
    }
    Ok((states, expanded))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetBuilder;

    fn sample_net() -> PetriNet {
        let mut b = NetBuilder::new("sample");
        let p = b.place_marked("p");
        let q = b.place("q");
        b.transition("t", [p], [q]);
        b.build().unwrap()
    }

    fn sample_snapshot() -> Snapshot {
        let net = sample_net();
        let mut s = Snapshot::new(EngineKind::Full, &net);
        s.push_section(1, vec![1, 2, 3, 4, 5]);
        s.push_section(2, Vec::new());
        s.push_section(7, vec![0xFF; 100]);
        s
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // the classic IEEE test vector
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fingerprint_is_structure_sensitive() {
        let a = sample_net().fingerprint();
        assert_eq!(a, sample_net().fingerprint(), "deterministic");
        let mut b = NetBuilder::new("sample");
        let p = b.place_marked("p");
        let q = b.place("q");
        b.transition("t", [q], [p]); // reversed arc
        assert_ne!(a, b.build().unwrap().fingerprint());
        let mut c = NetBuilder::new("sample");
        let pp = c.place("p"); // not marked
        let qq = c.place("q");
        c.transition("t", [pp], [qq]);
        assert_ne!(a, c.build().unwrap().fingerprint());
    }

    #[test]
    fn snapshot_bytes_round_trip() {
        let s = sample_snapshot();
        let decoded = Snapshot::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(s, decoded);
        assert_eq!(decoded.section(1), Some(&[1u8, 2, 3, 4, 5][..]));
        assert_eq!(decoded.section(9), None);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample_snapshot().to_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                let original = sample_snapshot();
                // header fields outside any CRC may decode to a
                // *different but well-formed* snapshot; that is fine —
                // the engine/fingerprint validation rejects it later.
                // What must never happen is decoding to the same
                // snapshot or panicking.
                if let Ok(s) = Snapshot::from_bytes(&corrupt) {
                    assert_ne!(s, original, "byte {i} bit {bit} undetected");
                }
            }
        }
    }

    #[test]
    fn payload_corruption_is_a_checksum_mismatch() {
        let s = sample_snapshot();
        let bytes = s.to_bytes();
        // find the payload of section 7 (100 bytes of 0xFF at the tail)
        let idx = bytes.len() - 50;
        let mut corrupt = bytes.clone();
        corrupt[idx] ^= 0x01;
        assert!(matches!(
            Snapshot::from_bytes(&corrupt),
            Err(CheckpointError::ChecksumMismatch { section: 7 })
        ));
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut bytes = sample_snapshot().to_bytes();
        bytes[8] = 0xEE; // version field follows the 8-byte magic
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(CheckpointError::VersionMismatch { found: 0xEE, .. })
        ));
    }

    #[test]
    fn wrong_magic_is_typed() {
        let mut bytes = sample_snapshot().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = sample_snapshot().to_bytes();
        for cut in [0, 4, 8, 12, 20, bytes.len() - 1] {
            assert!(
                matches!(
                    Snapshot::from_bytes(&bytes[..cut]),
                    Err(CheckpointError::Truncated)
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn validate_rejects_wrong_engine_and_net() {
        let net = sample_net();
        let s = Snapshot::new(EngineKind::Full, &net);
        assert!(s.validate(EngineKind::Full, net.fingerprint()).is_ok());
        assert!(matches!(
            s.validate(EngineKind::Reduced, net.fingerprint()),
            Err(CheckpointError::EngineMismatch { .. })
        ));
        assert!(matches!(
            s.validate(EngineKind::Full, net.fingerprint() ^ 1),
            Err(CheckpointError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn atomic_write_keeps_previous_generation() {
        let dir = std::env::temp_dir().join(format!("ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let mut first = sample_snapshot();
        write_checkpoint(&path, &first).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), first);
        first.push_section(42, vec![9; 8]);
        write_checkpoint(&path, &first).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), first);
        let prev = read_checkpoint(&previous_generation(&path)).unwrap();
        assert_eq!(prev.sections.len(), 3, "previous generation retained");
        // damage the primary: the fallback reader recovers the previous one
        std::fs::write(&path, b"garbage").unwrap();
        let recovered = read_checkpoint_with_fallback(&path).unwrap();
        assert_eq!(recovered, prev);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_both_generations_reports_primary_error() {
        let path = std::env::temp_dir().join(format!("ckpt-missing-{}", std::process::id()));
        assert!(matches!(
            read_checkpoint_with_fallback(&path),
            Err(CheckpointError::Io(_))
        ));
    }

    #[test]
    fn byte_writer_reader_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.usize(12345);
        let flags = vec![true, false, true, true, false, false, false, true, true];
        w.bools(&flags);
        let mut bits = BitSet::new(70);
        bits.insert(0);
        bits.insert(69);
        w.bits(&bits);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, 3);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.bools().unwrap(), flags);
        assert_eq!(r.bits(70).unwrap(), bits);
        r.finish().unwrap();
    }

    #[test]
    fn reader_errors_are_malformed_with_section() {
        let mut r = ByteReader::new(&[1, 2], 9);
        assert!(matches!(
            r.u32(),
            Err(CheckpointError::Malformed { section: 9, .. })
        ));
        let bytes = [0xFFu8; 8];
        let mut r = ByteReader::new(&bytes, 4);
        // all 64 bits set but capacity is 3: out-of-universe bits rejected
        assert!(matches!(
            r.bits(3),
            Err(CheckpointError::Malformed { section: 4, .. })
        ));
    }

    #[test]
    fn unconsumed_payload_is_rejected() {
        let r = ByteReader::new(&[1, 2, 3], 5);
        assert!(matches!(
            r.finish(),
            Err(CheckpointError::Malformed { section: 5, .. })
        ));
    }

    /// A stamp with every field set.
    fn full_stamp() -> RunStamp {
        RunStamp {
            reduction: Some(StampedReduction {
                rules: "sp,rp".into(),
                original_fingerprint: 0x0102_0304_0506_0708,
                places: 3,
                transitions: 2,
            }),
            property: Some("EF deadlock".into()),
            leg: Some("pdr".into()),
            job: Some(StampedJob {
                id: "j000007".into(),
                max_states: 500,
                max_bytes: u64::MAX,
                timeout_secs: 30,
            }),
        }
    }

    /// `sample_snapshot` stamped with `stamp`, through its bytes and back.
    fn reread(stamp: &RunStamp) -> Snapshot {
        let mut snap = sample_snapshot();
        snap.stamp = stamp.clone();
        Snapshot::from_bytes(&snap.to_bytes()).unwrap()
    }

    /// Loads `sample_snapshot` with `payload` as its run-stamp section.
    fn load_stamp_payload(payload: Vec<u8>) -> Result<Snapshot, CheckpointError> {
        let mut snap = sample_snapshot();
        snap.push_section(RUN_SECTION, payload);
        Snapshot::from_bytes(&snap.to_bytes())
    }

    fn assert_malformed_stamp(payload: Vec<u8>, what: &str) {
        match load_stamp_payload(payload) {
            Err(CheckpointError::Malformed {
                section: RUN_SECTION,
                detail,
            }) => assert!(detail.contains(what), "{what}: {detail}"),
            other => panic!("{what}: expected a malformed run stamp, got {other:?}"),
        }
    }

    #[test]
    fn reduction_stamp_round_trips_through_a_snapshot() {
        // the default stamp writes no section and reads back as default
        let plain = sample_snapshot();
        assert_eq!(plain.to_bytes()[24..28], 3u32.to_le_bytes(), "3 sections");
        assert_eq!(Snapshot::from_bytes(&plain.to_bytes()).unwrap(), plain);

        let stamp = RunStamp {
            reduction: Some(StampedReduction {
                rules: "sp,st,rp,it,dt".into(),
                original_fingerprint: 0xDEAD_BEEF_CAFE_F00D,
                places: 12,
                transitions: 9,
            }),
            ..RunStamp::default()
        };
        let back = reread(&stamp);
        assert_eq!(back.stamp, stamp);
        assert_eq!(back.sections, plain.sections, "engine sections untouched");
    }

    #[test]
    fn reduction_stamp_rejects_garbage() {
        let stamp = RunStamp {
            reduction: full_stamp().reduction,
            ..RunStamp::default()
        };
        let mut cut = stamp.encode();
        cut.pop();
        assert_malformed_stamp(cut, "ends early");
        let mut trailing = stamp.encode();
        trailing.push(0);
        assert_malformed_stamp(trailing, "unread bytes");
    }

    #[test]
    fn property_stamp_round_trips_through_a_snapshot() {
        let stamp = RunStamp {
            property: Some("AG m(critical-1) <= 0 or fireable(release)".into()),
            ..RunStamp::default()
        };
        assert_eq!(reread(&stamp).stamp, stamp);
    }

    #[test]
    fn engine_stamp_round_trips_through_a_snapshot() {
        let stamp = RunStamp {
            leg: Some("gpo".into()),
            ..RunStamp::default()
        };
        assert_eq!(reread(&stamp).stamp, stamp);
        // and every field at once
        assert_eq!(reread(&full_stamp()).stamp, full_stamp());
    }

    #[test]
    fn engine_stamp_rejects_garbage() {
        assert_malformed_stamp(Vec::new(), "ends early");
        assert_malformed_stamp(vec![9, 0], "unknown run stamp version 9");
        assert_malformed_stamp(vec![1, 0x10], "unknown run stamp fields");
        let mut long_leg = vec![1, 0b0100];
        long_leg.extend_from_slice(&65u64.to_le_bytes());
        long_leg.extend_from_slice(&[b'x'; 65]);
        assert_malformed_stamp(long_leg, "implausible leg name length");
        // a crafted file with two stamps is rejected, not resolved
        let mut snap = sample_snapshot();
        snap.stamp = full_stamp();
        snap.push_section(RUN_SECTION, full_stamp().encode());
        assert!(matches!(
            Snapshot::from_bytes(&snap.to_bytes()),
            Err(CheckpointError::Malformed {
                section: RUN_SECTION,
                ..
            })
        ));
    }

    #[test]
    fn property_stamp_rejects_garbage() {
        let mut not_utf8 = vec![1, 0b0010];
        not_utf8.extend_from_slice(&2u64.to_le_bytes());
        not_utf8.extend_from_slice(&[0xFF, 0xFE]);
        assert_malformed_stamp(not_utf8, "property text is not UTF-8");
        let mut huge = vec![1, 0b0010];
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_malformed_stamp(huge, "implausible property text length");
    }

    /// Pins the run stamp's payload bytes, with every field set and with
    /// each field alone. The round-trip tests cannot catch a layout drift
    /// that changes `encode` and `decode` together, yet such a drift would
    /// strand every snapshot already on disk.
    #[test]
    fn stamp_payloads_keep_their_bytes() {
        let reduction: &[&[u8]] = &[
            &[8, 7, 6, 5, 4, 3, 2, 1],
            &[3, 0, 0, 0, 0, 0, 0, 0],
            &[2, 0, 0, 0, 0, 0, 0, 0],
            &[5, 0, 0, 0, 0, 0, 0, 0],
            b"sp,rp",
        ];
        let property: &[&[u8]] = &[&[11, 0, 0, 0, 0, 0, 0, 0], b"EF deadlock"];
        let leg: &[&[u8]] = &[&[3, 0, 0, 0, 0, 0, 0, 0], b"pdr"];
        let job: &[&[u8]] = &[
            &[244, 1, 0, 0, 0, 0, 0, 0],
            &[255; 8],
            &[30, 0, 0, 0, 0, 0, 0, 0],
            &[7, 0, 0, 0, 0, 0, 0, 0],
            b"j000007",
        ];
        let all = full_stamp();
        let want: &[&[u8]] = &[
            &[1, 0b1111],
            &reduction.concat(),
            &property.concat(),
            &leg.concat(),
            &job.concat(),
        ];
        assert_eq!(all.encode(), want.concat());

        let alone = [
            (
                RunStamp {
                    reduction: all.reduction.clone(),
                    ..RunStamp::default()
                },
                0b0001,
                reduction,
            ),
            (
                RunStamp {
                    property: all.property.clone(),
                    ..RunStamp::default()
                },
                0b0010,
                property,
            ),
            (
                RunStamp {
                    leg: all.leg.clone(),
                    ..RunStamp::default()
                },
                0b0100,
                leg,
            ),
            (
                RunStamp {
                    job: all.job.clone(),
                    ..RunStamp::default()
                },
                0b1000,
                job,
            ),
        ];
        for (stamp, bit, field) in alone {
            assert_eq!(stamp.encode(), [&[1, bit][..], &field.concat()].concat());
        }
    }

    /// Pins the state-table payload bytes the full and reduced engines
    /// share, on the two-state net `p → q`.
    #[test]
    fn state_table_payloads_keep_their_bytes() {
        let net = sample_net();
        let q = crate::ids::PlaceId::new(1);
        let states = vec![
            net.initial_marking().clone(),
            Marking::from_places(net.place_count(), [q]),
        ];
        let expanded = [true, false];
        let mut snap = Snapshot::new(EngineKind::Full, &net);
        push_state_table(&mut snap, &net, &states, &expanded);

        let want: &[&[u8]] = &[
            &[2, 0, 0, 0],
            &[2, 0, 0, 0, 0, 0, 0, 0],
            &[1, 0, 0, 0, 0, 0, 0, 0],
            &[2, 0, 0, 0, 0, 0, 0, 0],
        ];
        assert_eq!(snap.section(STATES_SECTION), Some(&want.concat()[..]));
        let want: &[&[u8]] = &[&[2, 0, 0, 0, 0, 0, 0, 0], &[1]];
        assert_eq!(snap.section(EXPANDED_SECTION), Some(&want.concat()[..]));

        let (back, flags) = read_state_table(&snap, &net).unwrap();
        assert_eq!(back, states);
        assert_eq!(flags, expanded);
    }

    #[test]
    fn state_table_rejects_inconsistent_payloads() {
        let net = sample_net();
        let s0 = net.initial_marking().clone();
        let cases: [(&[Marking], &[bool], &str); 3] = [
            (&[s0.clone(), s0.clone()], &[true, false], "duplicate"),
            (&[Marking::empty(2)], &[false], "state 0"),
            (&[s0], &[false, false], "bitmap length"),
        ];
        for (states, expanded, what) in cases {
            let mut snap = Snapshot::new(EngineKind::Full, &net);
            push_state_table(&mut snap, &net, states, expanded);
            let err = read_state_table(&snap, &net).unwrap_err();
            assert!(err.to_string().contains(what), "{what}: {err}");
        }
    }
}
