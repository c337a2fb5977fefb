//! Session checkpointing: persist a [`Counted`] stage, reopen it in a
//! fresh process.
//!
//! The expensive part of an alignment session is the one full catalog
//! count the build pays (31 SpGEMM chains at paper scale); everything
//! after that is incremental. [`save`] writes that `Counted` stage — the
//! merged anchor matrix, every count matrix with its maintained margins,
//! and the `L`/`R` factor chains — to a versioned, checksummed snapshot
//! file, and [`open`] restores it **bit-identically**: a reopened session
//! resumes [`AlignmentSession::update_anchors`] and
//! [`AlignmentSession::run_active`](crate::AlignmentSession::run_active)
//! producing exactly the bytes the never-persisted session would, without
//! recounting (`stats().full_counts` stays 1). Property-tested in
//! `tests/snapshot_props.rs`.
//!
//! The on-disk layout (magic, format version, section table, CRC-32 per
//! section) and the compatibility policy are specified in
//! `docs/SNAPSHOT_FORMAT.md`; the payload codecs live with the types they
//! serialize ([`sparsela::codec`], [`metadiagram::codec`]).
//!
//! **Refusal policy.** A snapshot that cannot be restored exactly is not
//! restored at all: wrong magic, a format version this build does not
//! know, a checksum mismatch, a truncated section, or a payload that
//! fails semantic validation each raise a typed [`SnapshotError`]. There
//! is no best-effort mode.
//!
//! ## Example
//!
//! ```
//! use session::{snapshot, SessionBuilder};
//!
//! let world = datagen::generate(&datagen::presets::tiny(11));
//! let counted = SessionBuilder::new(world.left(), world.right())
//!     .anchors(world.truth().links()[..8].to_vec())
//!     .count()
//!     .unwrap();
//! let path = std::env::temp_dir().join("session-doctest.snap");
//! snapshot::save(&counted, &path).unwrap();
//! let reopened = snapshot::open(&path).unwrap();
//! assert_eq!(reopened.n_anchors(), counted.n_anchors());
//! assert_eq!(reopened.stats().full_counts, 1); // no recount on open
//! # std::fs::remove_file(&path).ok();
//! ```

use crate::journal::Journal;
use crate::stages::{AlignmentSession, Counted};
use metadiagram::{codec as mcodec, Catalog};
use sparsela::codec::{crc32, Error as BinError, Reader, Writer};
use std::fmt;
use std::path::{Path, PathBuf};

/// The 8-byte file magic: "MDASNAP" + a NUL (Meta-Diagram Alignment
/// SNAPshot).
pub const MAGIC: [u8; 8] = *b"MDASNAP\0";

/// The snapshot format version this build writes and the only one it
/// reads. Any layout change bumps it; see `docs/SNAPSHOT_FORMAT.md` for
/// the compatibility policy.
pub const FORMAT_VERSION: u32 = 2;

const SECTION_META: [u8; 4] = *b"META";
const SECTION_COUNTS: [u8; 4] = *b"DCNT";

/// Everything that can go wrong saving or opening a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`]. Snapshots are
    /// rebuildable artifacts; the policy is refuse-and-recount, not
    /// migrate (see `docs/SNAPSHOT_FORMAT.md`).
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// The one version this build supports.
        supported: u32,
    },
    /// A section's payload does not hash to its recorded CRC-32 — the
    /// file was bit-flipped or truncated mid-section.
    Checksum {
        /// The four-character section id (`META`, `DCNT`, or the section
        /// table itself as `TABL`).
        section: String,
    },
    /// A required section is absent from the section table.
    MissingSection {
        /// The four-character section id.
        section: String,
    },
    /// A section's declared offset/length reaches past the end of the
    /// file — truncated after the table was written.
    OutOfBounds {
        /// The four-character section id.
        section: String,
    },
    /// A payload decoded structurally but failed validation (or was
    /// truncated inside a length prefix). Carries the codec's message.
    Decode(BinError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
            SnapshotError::BadMagic => write!(f, "not a session snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads \
                 version {supported}); re-count and re-save"
            ),
            SnapshotError::Checksum { section } => {
                write!(f, "snapshot section {section} failed its checksum")
            }
            SnapshotError::MissingSection { section } => {
                write!(f, "snapshot is missing required section {section}")
            }
            SnapshotError::OutOfBounds { section } => {
                write!(
                    f,
                    "snapshot section {section} reaches past the end of the file"
                )
            }
            SnapshotError::Decode(e) => write!(f, "snapshot payload: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<BinError> for SnapshotError {
    fn from(e: BinError) -> Self {
        SnapshotError::Decode(e)
    }
}

fn section_name(id: [u8; 4]) -> String {
    id.iter().map(|&b| b as char).collect()
}

/// Serializes a [`Counted`] session to snapshot bytes (the exact content
/// [`save`] writes).
pub fn to_bytes(session: &AlignmentSession<Counted>) -> Vec<u8> {
    counted_core_to_bytes(&session.catalog, &session.counts)
}

/// The stage-agnostic encoder: any stage's counted core (catalog + delta
/// store) snapshots identically — features and fits are derived
/// artifacts a reopening process re-derives. The threading knob travels
/// inside the store (single source of truth; the session's own copy is
/// restored from it on open).
pub(crate) fn counted_core_to_bytes(
    catalog: &Catalog,
    store: &metadiagram::DeltaCatalogCounts,
) -> Vec<u8> {
    // META: session-level configuration (currently the feature set).
    let mut meta = Writer::new();
    mcodec::encode_feature_set(catalog.feature_set(), &mut meta);
    // DCNT: the whole delta-count store, threading knob included. The
    // buffer is pre-sized to the exact encoded length so the bulk slice
    // writes never trigger a mid-encode reallocation.
    let mut counts = Writer::with_capacity(mcodec::store_encoded_len(store));
    mcodec::encode_store(store, &mut counts);
    debug_assert_eq!(counts.len(), mcodec::store_encoded_len(store));

    write_container(&[
        (SECTION_META, meta.into_bytes()),
        (SECTION_COUNTS, counts.into_bytes()),
    ])
}

/// Bytes per section-table entry: id, offset, length, CRC-32.
const TABLE_ENTRY_LEN: usize = 4 + 8 + 8 + 4;

/// Frames `sections` in the snapshot container (layout in
/// `docs/SNAPSHOT_FORMAT.md`): [`MAGIC`], [`FORMAT_VERSION`], the section
/// count, the CRC-32 of the section table, the table (id, absolute offset,
/// length, CRC-32 per section), then the payloads in table order.
fn write_container(sections: &[([u8; 4], Vec<u8>)]) -> Vec<u8> {
    let header_len = MAGIC.len() + 4 + 4 + 4;
    let table_len = sections.len() * TABLE_ENTRY_LEN;
    let mut table = Writer::with_capacity(table_len);
    let mut offset = header_len + table_len;
    for (id, payload) in sections {
        table.bytes(id);
        table.u64(offset as u64);
        table.u64(payload.len() as u64);
        table.u32(crc32(payload));
        offset += payload.len();
    }
    let table = table.into_bytes();

    let mut out = Writer::with_capacity(offset);
    out.bytes(&MAGIC);
    out.u32(FORMAT_VERSION);
    out.u32(sections.len() as u32);
    out.u32(crc32(&table));
    out.bytes(&table);
    for (_, payload) in sections {
        out.bytes(payload);
    }
    out.into_bytes()
}

/// Reads a [`write_container`] file: checks [`MAGIC`], [`FORMAT_VERSION`],
/// the table CRC and every section's bounds and CRC, and returns the
/// payloads of the `required` section ids in that order. Unknown sections
/// are ignored: additive sections may appear within a format version.
///
/// # Errors
/// Every framing defect as its [`SnapshotError`].
fn read_container<const N: usize>(
    bytes: &[u8],
    required: [[u8; 4]; N],
) -> Result<[&[u8]; N], SnapshotError> {
    let mut r = Reader::new(bytes);
    let found_magic = r.bytes(MAGIC.len()).map_err(|_| SnapshotError::BadMagic)?;
    if found_magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let found = r.u32()?;
    if found != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found,
            supported: FORMAT_VERSION,
        });
    }
    let n_sections = r.u32()? as usize;
    let table_crc = r.u32()?;
    let table_bytes = r.bytes(n_sections * TABLE_ENTRY_LEN)?;
    if crc32(table_bytes) != table_crc {
        return Err(SnapshotError::Checksum {
            section: "TABL".into(),
        });
    }
    let mut table = Reader::new(table_bytes);
    let mut payloads: [Option<&[u8]>; N] = [None; N];
    for _ in 0..n_sections {
        // `bytes(4)` yields exactly 4 bytes on success, but a decode path
        // never panics on principle (`panic_in_lib`): a width mismatch
        // surfaces as a malformed-container error like every other defect.
        let id: [u8; 4] = table.bytes(4)?.try_into().map_err(|_| {
            SnapshotError::Decode(BinError::Malformed("section id is not 4 bytes".into()))
        })?;
        let offset = table.u64()? as usize;
        let len = table.u64()? as usize;
        let crc = table.u32()?;
        let end = offset.checked_add(len).filter(|&e| e <= bytes.len());
        let payload = match end {
            Some(end) => &bytes[offset..end],
            None => {
                return Err(SnapshotError::OutOfBounds {
                    section: section_name(id),
                })
            }
        };
        if crc32(payload) != crc {
            return Err(SnapshotError::Checksum {
                section: section_name(id),
            });
        }
        if let Some(i) = required.iter().position(|&want| want == id) {
            payloads[i] = Some(payload);
        }
    }
    let mut out: [&[u8]; N] = [&[]; N];
    for ((slot, payload), id) in out.iter_mut().zip(payloads).zip(required) {
        *slot = payload.ok_or(SnapshotError::MissingSection {
            section: section_name(id),
        })?;
    }
    Ok(out)
}

/// Restores a [`Counted`] session from snapshot bytes.
///
/// # Errors
/// See [`SnapshotError`] — any deviation from the format refuses the
/// whole snapshot.
pub fn from_bytes(bytes: &[u8]) -> Result<AlignmentSession<Counted>, SnapshotError> {
    let [meta_payload, counts_payload] = read_container(bytes, [SECTION_META, SECTION_COUNTS])?;
    let mut meta = Reader::new(meta_payload);
    let feature_set = mcodec::decode_feature_set(&mut meta)?;
    meta.expect_end("the feature set")?;
    let catalog = Catalog::new(feature_set);
    let mut counts = Reader::new(counts_payload);
    let store = mcodec::decode_store(&mut counts, &catalog)?;
    counts.expect_end("the count store")?;
    Ok(AlignmentSession {
        catalog,
        counts: store,
        stage: Counted::new(),
    })
}

/// Writes `bytes` to a uniquely named, fsynced `<path>.<tag>.<pid>-<n>`
/// sibling and returns its path (removed again on failure) — the staging
/// step shared by [`write_atomic`] and `Journal::stage_compacted_base`.
pub(crate) fn write_synced_sibling(
    path: &Path,
    tag: &str,
    bytes: &[u8],
) -> std::io::Result<PathBuf> {
    use std::io::Write;
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{tag}.{}-{seq}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let write_synced = || -> std::io::Result<()> {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        // Without this, delayed allocation could persist a later rename
        // but not the data, leaving a torn file under the final name
        // after power loss — exactly what atomic-by-rename promises
        // against.
        file.sync_all()
    };
    match write_synced() {
        Ok(()) => Ok(tmp),
        Err(e) => {
            std::fs::remove_file(&tmp).ok();
            Err(e)
        }
    }
}

/// Writes `bytes` to `path` atomically-by-rename: bytes go to a synced
/// `<path>.tmp.<pid>-<n>` sibling first ([`write_synced_sibling`]) and
/// only then replace `path` — so a crash (process or power) mid-write can
/// never leave a half-written file under the final name, and concurrent
/// saves to the same path cannot publish each other's partial writes
/// (last completed rename wins). The parent directory is fsynced
/// best-effort after the rename (not all platforms support opening a
/// directory), which is what makes the *rename itself* durable on
/// crash-consistent filesystems.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let tmp = write_synced_sibling(path, "tmp", bytes)?;
    if let Err(e) = std::fs::rename(&tmp, path) {
        std::fs::remove_file(&tmp).ok();
        return Err(SnapshotError::Io(e));
    }
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(dir) = std::fs::File::open(dir) {
            dir.sync_all().ok();
        }
    }
    Ok(())
}

/// Saves a [`Counted`] session to `path`, atomically-by-rename: bytes
/// land in a uniquely named `<path>.tmp.<pid>-<n>` sibling first, then
/// replace `path`, so a crash mid-write never leaves a torn file under
/// the snapshot's name and concurrent saves cannot publish each other's
/// partial writes (last completed rename wins).
///
/// The monolithic writer for a standalone session: any stale sibling
/// `<path>.jrnl` journal is unlinked so the file stands alone (the next
/// journal-aware open would refuse one pinned to the previous base).
/// Per-round checkpointing at O(|ΔA|) is what [`crate::journal::Journal`]
/// and [`crate::SessionPool::save`] add on top.
///
/// # Errors
/// [`SnapshotError::Io`] when writing, renaming, or unlinking fails.
pub fn save(
    session: &AlignmentSession<Counted>,
    path: impl AsRef<Path>,
) -> Result<(), SnapshotError> {
    let path = path.as_ref();
    write_atomic(path, &to_bytes(session))?;
    match std::fs::remove_file(Journal::path_for(path)) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(SnapshotError::Io(e)),
        _ => Ok(()),
    }
}

/// Opens the snapshot at `path` as a fresh [`Counted`] session.
///
/// # Errors
/// See [`SnapshotError`].
pub fn open(path: impl AsRef<Path>) -> Result<AlignmentSession<Counted>, SnapshotError> {
    let bytes = std::fs::read(path.as_ref())?;
    from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SessionBuilder;

    /// The META payload of a counted tiny session, and a container
    /// framing any META payload beside that session's valid DCNT.
    fn meta_and_container() -> (Vec<u8>, impl Fn(Vec<u8>) -> Vec<u8>) {
        let w = datagen::generate(&datagen::presets::tiny(71));
        let session = SessionBuilder::new(w.left(), w.right())
            .anchors(w.truth().links()[..4].to_vec())
            .count()
            .unwrap();
        let mut counts = Writer::new();
        mcodec::encode_store(&session.counts, &mut counts);
        let counts = counts.into_bytes();
        let mut meta = Writer::new();
        mcodec::encode_feature_set(session.catalog.feature_set(), &mut meta);
        let container = move |meta: Vec<u8>| {
            write_container(&[(SECTION_META, meta), (SECTION_COUNTS, counts.clone())])
        };
        (meta.into_bytes(), container)
    }

    /// META carries exactly its feature-set byte: a byte past it is
    /// refused like trailing bytes in any other payload, even though
    /// every CRC in the container is valid.
    #[test]
    fn trailing_bytes_after_meta_are_refused() {
        let (meta, container) = meta_and_container();
        assert!(from_bytes(&container(meta.clone())).is_ok());

        let padded = [meta.as_slice(), &[0]].concat();
        assert!(matches!(
            from_bytes(&container(padded)),
            Err(SnapshotError::Decode(BinError::Malformed(_)))
        ));
    }

    /// Feature-set byte 4 named a retired word-attribute catalog: META
    /// refuses it as an unknown tag before the count store is read.
    #[test]
    fn retired_feature_set_byte_is_refused() {
        let (meta, container) = meta_and_container();
        assert!(from_bytes(&container(meta)).is_ok());

        assert!(matches!(
            from_bytes(&container(vec![4])),
            Err(SnapshotError::Decode(BinError::Malformed(msg))) if msg.starts_with("feature set")
        ));
    }
}
