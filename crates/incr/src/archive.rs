//! The `.exsm` persistent summary-cache archive.
//!
//! The archive is an [`extractocol_ir::container`] with magic
//! `"EXSUMMRY"` — the same 32-byte header and load discipline as the
//! serving side's `.exsv` signature index: checksum verified before any
//! decoding, every read bounds-checked, counts checked against the
//! remaining payload, strings UTF-8. On top of that, every cross-reference
//! (summary → method-table index) is range-checked after decoding.
//! Anything off refuses the whole archive with a typed error — a cache
//! must never be able to corrupt an analysis, only to miss.
//!
//! The payload has no section tags or lengths; three parts follow each
//! other directly:
//!
//! ```text
//!   epoch      app (str), max_field_depth (u32), flags (u8: bit 0 pointsto,
//!              bit 1 targeted)
//!   methods    count (u64), then per method: key (str), content hash (u64),
//!              validity fingerprint (u64)
//!   summaries  count (u64), then per summary: direction (u8), method (u32),
//!              stmt (u32), fact (path), nodes, marks, extern marks, exits
//!              and statics, each a count (u64) followed by its elements
//!   path       root tag (u8: 0 = local u32, 1 = static str), then a field
//!              count (u64) and the field names (str)
//! ```
//!
//! Methods are named by stable key (`class#name#arity#occurrence`), never
//! by positional [`MethodId`], so archives survive renumbering; each
//! method record carries the content hash and validity fingerprint its
//! summaries were computed under, which the loader compares against the
//! current program before admitting an entry.
//!
//! [`MethodId`]: extractocol_ir::MethodId

use extractocol_analysis::{AccessPath, Direction, Root};
use extractocol_ir::container::{self, Cursor, Writer};
use extractocol_ir::Local;
use std::path::Path;

pub use extractocol_ir::container::ArchiveError;

/// `.exsm` file magic.
pub const ARCHIVE_MAGIC: &[u8; 8] = b"EXSUMMRY";
/// Current format version. Bumped on any layout change; readers refuse
/// other versions rather than guessing.
pub const ARCHIVE_VERSION: u32 = 1;

/// The cache's compatibility epoch: analyses under different options (or
/// of a different app) produce incomparable summaries, so a mismatch
/// invalidates the whole archive without looking at any entry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Epoch {
    /// The APK name the summaries were computed from.
    pub app: String,
    /// `TaintOptions::max_field_depth` (access-path shapes depend on it).
    pub max_field_depth: u32,
    /// Whether alias narrowing (points-to) was enabled.
    pub pointsto: bool,
    /// Whether the run was targeted (cone-scoped) — scoped and
    /// whole-program engines agree on results but not on which summaries
    /// exist, so the epochs are kept apart.
    pub targeted: bool,
}

/// One method-table entry: stable identity plus the fingerprints its
/// summaries were computed under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MethodRecord {
    /// Stable key, `class#name#arity#occurrence`.
    pub key: String,
    /// Content hash (FNV-1a over the canonical printed form).
    pub content: u64,
    /// Validity fingerprint (zero for methods that only appear as
    /// cross-references, whose own validity is never consulted).
    pub validity: u64,
}

/// A persisted summary. Method references are indices into the archive's
/// method table, remapped to live [`extractocol_ir::MethodId`]s on load.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SummaryRecord {
    pub direction: Direction,
    /// Root method (method-table index).
    pub method: u32,
    /// Entry statement.
    pub stmt: u32,
    /// Entry fact.
    pub fact: AccessPath,
    /// Intra-method nodes visited, `(stmt, fact)`.
    pub nodes: Vec<(u32, AccessPath)>,
    /// Sliced statements inside the root method.
    pub marks: Vec<u32>,
    /// Statements marked in other methods, `(method-table index, stmt)`.
    pub extern_marks: Vec<(u32, u32)>,
    /// Facts leaving the method, `(method-table index, stmt, fact)`.
    pub exits: Vec<(u32, u32, AccessPath)>,
    /// Static-field keys tainted inside the segment.
    pub statics: Vec<String>,
}

/// A decoded `.exsm` archive.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SummaryArchive {
    pub epoch: Epoch,
    pub methods: Vec<MethodRecord>,
    pub summaries: Vec<SummaryRecord>,
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn put_path(w: &mut Writer, p: &AccessPath) {
    match &p.root {
        Root::Local(l) => {
            w.u8(0);
            w.u32(l.0);
        }
        Root::Static(k) => {
            w.u8(1);
            w.str(k);
        }
    }
    w.count(p.fields.len());
    for f in &p.fields {
        w.str(f);
    }
}

/// Serializes an archive (see the module doc for the payload layout).
pub fn write_archive(a: &SummaryArchive) -> Vec<u8> {
    let mut w = Writer::new(ARCHIVE_MAGIC, ARCHIVE_VERSION);
    w.str(&a.epoch.app);
    w.u32(a.epoch.max_field_depth);
    w.u8((a.epoch.pointsto as u8) | ((a.epoch.targeted as u8) << 1));
    w.count(a.methods.len());
    for m in &a.methods {
        w.str(&m.key);
        w.u64(m.content);
        w.u64(m.validity);
    }
    w.count(a.summaries.len());
    for s in &a.summaries {
        w.u8(match s.direction {
            Direction::Forward => 0,
            Direction::Backward => 1,
        });
        w.u32(s.method);
        w.u32(s.stmt);
        put_path(&mut w, &s.fact);
        w.count(s.nodes.len());
        for (st, p) in &s.nodes {
            w.u32(*st);
            put_path(&mut w, p);
        }
        w.count(s.marks.len());
        for st in &s.marks {
            w.u32(*st);
        }
        w.count(s.extern_marks.len());
        for (m, st) in &s.extern_marks {
            w.u32(*m);
            w.u32(*st);
        }
        w.count(s.exits.len());
        for (m, st, p) in &s.exits {
            w.u32(*m);
            w.u32(*st);
            put_path(&mut w, p);
        }
        w.count(s.statics.len());
        for k in &s.statics {
            w.str(k);
        }
    }
    w.finish()
}

/// Writes an archive to disk.
pub fn write_file(path: &Path, a: &SummaryArchive) -> Result<(), ArchiveError> {
    container::write_file(path, &write_archive(a))
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

fn get_path(cur: &mut Cursor<'_>, context: &'static str) -> Result<AccessPath, ArchiveError> {
    let root = match cur.u8(context)? {
        0 => Root::Local(Local(cur.u32(context)?)),
        1 => Root::Static(cur.str(context)?),
        tag => return Err(ArchiveError::BadTag { context, tag }),
    };
    let n = cur.count(1, context)?;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        fields.push(cur.str(context)?);
    }
    Ok(AccessPath { root, fields })
}

/// Decodes a `.exsm` archive. Checksum first, then bounds-checked decode;
/// any inconsistency refuses the whole archive.
pub fn read_archive(bytes: &[u8]) -> Result<SummaryArchive, ArchiveError> {
    let mut cur = container::open(bytes, ARCHIVE_MAGIC, ARCHIVE_VERSION)?;
    let app = cur.str("epoch app name")?;
    let max_field_depth = cur.u32("epoch max_field_depth")?;
    let flags = cur.u8("epoch flags")?;
    if flags & !0b11 != 0 {
        return Err(ArchiveError::BadTag { context: "epoch flags", tag: flags });
    }
    let epoch = Epoch { app, max_field_depth, pointsto: flags & 1 != 0, targeted: flags & 2 != 0 };
    let n_methods = cur.count(24, "method table")?;
    let mut methods = Vec::with_capacity(n_methods);
    for _ in 0..n_methods {
        let key = cur.str("method key")?;
        let content = cur.u64("method content hash")?;
        let validity = cur.u64("method validity")?;
        methods.push(MethodRecord { key, content, validity });
    }
    let n_sums = cur.count(17, "summary table")?;
    let mut summaries = Vec::with_capacity(n_sums);
    for _ in 0..n_sums {
        let direction = match cur.u8("summary direction")? {
            0 => Direction::Forward,
            1 => Direction::Backward,
            tag => return Err(ArchiveError::BadTag { context: "summary direction", tag }),
        };
        let method = cur.u32("summary method")?;
        let stmt = cur.u32("summary stmt")?;
        let fact = get_path(&mut cur, "summary fact")?;
        let n = cur.count(5, "summary nodes")?;
        let mut nodes = Vec::with_capacity(n);
        for _ in 0..n {
            let st = cur.u32("node stmt")?;
            nodes.push((st, get_path(&mut cur, "node fact")?));
        }
        let n = cur.count(4, "summary marks")?;
        let mut marks = Vec::with_capacity(n);
        for _ in 0..n {
            marks.push(cur.u32("mark stmt")?);
        }
        let n = cur.count(8, "summary extern marks")?;
        let mut extern_marks = Vec::with_capacity(n);
        for _ in 0..n {
            let m = cur.u32("extern mark method")?;
            extern_marks.push((m, cur.u32("extern mark stmt")?));
        }
        let n = cur.count(9, "summary exits")?;
        let mut exits = Vec::with_capacity(n);
        for _ in 0..n {
            let m = cur.u32("exit method")?;
            let st = cur.u32("exit stmt")?;
            exits.push((m, st, get_path(&mut cur, "exit fact")?));
        }
        let n = cur.count(1, "summary statics")?;
        let mut statics = Vec::with_capacity(n);
        for _ in 0..n {
            statics.push(cur.str("static key")?);
        }
        // Cross-reference validation: every method index must land in the
        // method table.
        let bound = methods.len() as u32;
        let refs = std::iter::once(method)
            .chain(extern_marks.iter().map(|&(m, _)| m))
            .chain(exits.iter().map(|&(m, _, _)| m));
        for r in refs {
            if r >= bound {
                return Err(ArchiveError::Invalid(format!(
                    "summary references method index {r} but the table has {bound} entries"
                )));
            }
        }
        summaries.push(SummaryRecord {
            direction,
            method,
            stmt,
            fact,
            nodes,
            marks,
            extern_marks,
            exits,
            statics,
        });
    }
    cur.finish()?;
    Ok(SummaryArchive { epoch, methods, summaries })
}

/// Reads an archive from disk. A missing file is an [`ArchiveError::Io`].
pub fn read_file(path: &Path) -> Result<SummaryArchive, ArchiveError> {
    read_archive(&container::read_file(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SummaryArchive {
        SummaryArchive {
            epoch: Epoch { app: "app".into(), max_field_depth: 2, pointsto: true, targeted: false },
            methods: vec![
                MethodRecord { key: "com.app.A#f#0#0".into(), content: 11, validity: 21 },
                MethodRecord { key: "com.app.A#g#1#0".into(), content: 12, validity: 22 },
            ],
            summaries: vec![SummaryRecord {
                direction: Direction::Backward,
                method: 0,
                stmt: 3,
                fact: AccessPath { root: Root::Local(Local(2)), fields: vec!["url".into()] },
                nodes: vec![(1, AccessPath { root: Root::Local(Local(0)), fields: vec![] })],
                marks: vec![1, 3],
                extern_marks: vec![(1, 7)],
                exits: vec![(
                    1,
                    0,
                    AccessPath { root: Root::Static("com.app.C#K".into()), fields: vec![] },
                )],
                statics: vec!["com.app.C#K".into()],
            }],
        }
    }

    #[test]
    fn round_trip_is_lossless_and_idempotent() {
        let a = sample();
        let bytes = write_archive(&a);
        let back = read_archive(&bytes).unwrap();
        assert_eq!(back, a);
        // write(read(write(x))) == write(x)
        assert_eq!(write_archive(&back), bytes);
    }

    #[test]
    fn corruption_and_skew_are_refused_with_typed_errors() {
        let bytes = write_archive(&sample());
        // Bad magic.
        let mut b = bytes.clone();
        b[0] ^= 0xFF;
        assert!(matches!(read_archive(&b), Err(ArchiveError::BadMagic)));
        // Version skew.
        let mut b = bytes.clone();
        b[8] = 99;
        assert!(matches!(
            read_archive(&b),
            Err(ArchiveError::VersionMismatch { found: 99, supported: 1 })
        ));
        // Payload corruption → checksum.
        let mut b = bytes.clone();
        let last = b.len() - 1;
        b[last] ^= 0x01;
        assert!(matches!(read_archive(&b), Err(ArchiveError::ChecksumMismatch { .. })));
        // Truncation.
        assert!(matches!(
            read_archive(&bytes[..bytes.len() - 3]),
            Err(ArchiveError::Truncated { .. })
        ));
        assert!(matches!(read_archive(&bytes[..16]), Err(ArchiveError::Truncated { .. })));
        // Appended garbage → trailing bytes, not "truncated".
        let mut b = bytes.clone();
        b.extend_from_slice(b"garbage");
        assert!(matches!(read_archive(&b), Err(ArchiveError::TrailingBytes { count: 7 })));
    }

    #[test]
    fn out_of_range_method_index_is_refused() {
        let mut a = sample();
        a.summaries[0].method = 9; // past the 2-entry table
        let bytes = write_archive(&a); // checksum is valid — semantic check must catch it
        assert!(matches!(read_archive(&bytes), Err(ArchiveError::Invalid(_))));
    }
}
