//! The `.pspk` section layout: encoding a mined engine to bytes and
//! validating/decoding it back.
//!
//! # Format v2
//!
//! All integers little-endian. The file header is 16 bytes:
//!
//! ```text
//! magic "PSPK" | version u32 | section_count u32 | reserved u32 (zero)
//! ```
//!
//! then, per section, in fixed order, a 24-byte frame followed by the
//! payload and zero padding:
//!
//! ```text
//! tag u32 | pad u32 | payload_len u64 | crc32 u32 | reserved u32 (zero)
//! payload | pad zero bytes
//! ```
//!
//! `pad = (8 - payload_len % 8) % 8`, so payload + padding is always a
//! multiple of 8. Header (16) and frame (24) sizes are multiples of 8
//! too, which makes **every payload start 8-byte-aligned in the file**.
//! That alignment is the point of the format: the hot sections (CSR arrays,
//! string pool, example quads) are flat little-endian arrays a loader can
//! hand out as `&[u32]`/`&[u8]` views borrowed directly from one aligned
//! read or an mmap'd region — validate the CRCs once, copy nothing. The
//! CRC32 covers tag bytes + payload (padding excluded); padding must be
//! zero and is checked separately, so a flipped pad byte is a typed
//! [`StoreError::Corrupt`] naming the section.
//!
//! | tag | section    | payload layout                                      |
//! |-----|------------|-----------------------------------------------------|
//! | 1   | `strings`  | count u64, (count+1)×u32 byte offsets, UTF-8 blob   |
//! | 2   | `types`    | byte-wise encoding (cold; decoded into arenas)      |
//! | 3   | `members`  | byte-wise encoding (cold; decoded into arenas)      |
//! | 4   | `graph`    | byte-wise encoding (config, counts, mined bases)    |
//! | 5   | `csr`      | counts, offset/endpoint u32 arrays, packed 4×u32    |
//! |     |            | jungloid quads, then the u8 cost arrays last        |
//! | 6   | `examples` | seq/elem counts, (count+1)×u32 offsets, 4×u32 quads |
//! | 7   | `suffixes` | same layout as `examples`                           |
//!
//! The loader reconstructs [`CsrAdjacency`] from section 5 as borrowed
//! slabs — no rebuild, no per-element copies — and
//! [`JungloidGraph::from_snapshot`] wraps the graph around that CSR, so a
//! warm-started engine is byte-identical to the one that was saved.
//!
//! # Other versions
//!
//! v2 is the only format. Any other version — including the retired
//! byte-wise v1 layout — is a typed [`StoreError::UnsupportedVersion`],
//! checked before any section is read.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use jungloid_apidef::{Api, ElemJungloid, FieldDef, InputSlot, MethodDef, Visibility};
use jungloid_typesys::{PackageId, Prim, RawSlot, RawSlotView, TyId, TypeKind, TypeTable};
use prospector_core::graph::{CsrAdjacency, JungloidGraph, NodeId};
use prospector_core::slab::{decode_quad, encode_quad, ElemSeq, Slab, SnapshotBuf};
use prospector_core::GraphConfig;

use crate::crc32::Crc32;
use crate::error::StoreError;
use crate::rw::{Reader, Writer};

/// The four magic bytes every snapshot starts with.
pub const MAGIC: [u8; 4] = *b"PSPK";

/// The format version this build writes and reads; any other version is
/// [`StoreError::UnsupportedVersion`].
pub const FORMAT_VERSION: u32 = 2;

/// `(tag, name)` of every section, in file order.
const SECTIONS: [(u32, &str); 7] = [
    (1, "strings"),
    (2, "types"),
    (3, "members"),
    (4, "graph"),
    (5, "csr"),
    (6, "examples"),
    (7, "suffixes"),
];

const HEADER_BYTES: usize = 16;
const SECTION_HEADER_BYTES: usize = 24;

/// A fully decoded snapshot: everything needed to warm-start an engine.
#[derive(Debug)]
pub struct Snapshot {
    /// The API model (type table + members).
    pub api: Api,
    /// The jungloid graph, CSR restored verbatim (no rebuild), its arrays
    /// borrowed from the snapshot buffer.
    pub graph: JungloidGraph,
    /// The raw mined example jungloids the engine was built from, kept
    /// for provenance/inspection (the generalized splices live in the
    /// graph itself).
    pub mined_examples: Vec<Vec<ElemJungloid>>,
}

/// Size/checksum breakdown of one stored section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section name (matches the table in the module docs).
    pub name: &'static str,
    /// Payload bytes (headers and padding excluded).
    pub bytes: u64,
    /// Stored (and verified) CRC32 over tag + payload.
    pub crc32: u32,
    /// File offset where the payload starts. Always a multiple of 8 — the
    /// alignment that makes zero-copy views possible.
    pub offset: u64,
    /// Zero bytes appended after the payload.
    pub pad_bytes: u32,
}

/// What `index inspect` prints: the validated file structure, without
/// necessarily decoding the payloads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Format version found in the header.
    pub version: u32,
    /// Whole-file size in bytes.
    pub total_bytes: u64,
    /// Per-section breakdown, in file order.
    pub sections: Vec<SectionInfo>,
}

// --- encoding -----------------------------------------------------------

/// Deduplicating string pool; all other sections store `u32` refs into it.
#[derive(Default)]
struct StringPool {
    strings: Vec<String>,
    index: HashMap<String, u32>,
}

impl StringPool {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.index.get(s) {
            return id;
        }
        let id = u32::try_from(self.strings.len()).expect("string pool fits u32");
        self.strings.push(s.to_owned());
        self.index.insert(s.to_owned(), id);
        id
    }
}

fn encode_types(types: &TypeTable, pool: &mut StringPool) -> Vec<u8> {
    let mut w = Writer::new();
    w.index(types.package_names().len());
    for p in types.package_names() {
        w.u32(pool.intern(p));
    }
    let slots = types.raw_slot_views();
    w.index(slots.len());
    for slot in slots {
        match slot {
            RawSlotView::Void => w.u8(0),
            RawSlotView::Null => w.u8(1),
            RawSlotView::Prim(p) => {
                w.u8(2);
                w.u8(u8::try_from(Prim::ALL.iter().position(|q| *q == p).expect("listed"))
                    .expect("8 prims"));
            }
            RawSlotView::Decl { simple, package, kind, superclass, interfaces } => {
                w.u8(3);
                w.u32(pool.intern(simple));
                w.index(package.index());
                w.u8(match kind {
                    TypeKind::Class => 0,
                    TypeKind::Interface => 1,
                });
                w.u32(superclass.map_or(u32::MAX, |s| {
                    u32::try_from(s.index()).expect("arena fits u32")
                }));
                w.index(interfaces.len());
                for i in interfaces {
                    w.index(i.index());
                }
            }
            RawSlotView::Array { elem } => {
                w.u8(4);
                w.index(elem.index());
            }
        }
    }
    w.into_bytes()
}

fn encode_visibility(v: Visibility) -> u8 {
    match v {
        Visibility::Public => 0,
        Visibility::Protected => 1,
        Visibility::Private => 2,
    }
}

fn encode_members(api: &Api, pool: &mut StringPool) -> Vec<u8> {
    let mut w = Writer::new();
    w.index(api.method_count());
    for m in api.method_ids() {
        let def = api.method(m);
        w.u32(pool.intern(&def.name));
        w.index(def.declaring.index());
        w.index(def.params.len());
        for p in &def.params {
            w.index(p.index());
        }
        w.index(def.param_names.len());
        for name in &def.param_names {
            match name {
                None => w.u8(0),
                Some(n) => {
                    w.u8(1);
                    w.u32(pool.intern(n));
                }
            }
        }
        w.index(def.ret.index());
        w.u8(encode_visibility(def.visibility));
        w.u8(u8::from(def.is_static));
        w.u8(u8::from(def.is_constructor));
    }
    w.index(api.field_count());
    for f in api.field_ids() {
        let def = api.field(f);
        w.u32(pool.intern(&def.name));
        w.index(def.declaring.index());
        w.index(def.ty.index());
        w.u8(encode_visibility(def.visibility));
        w.u8(u8::from(def.is_static));
    }
    w.into_bytes()
}

fn encode_graph_meta(graph: &JungloidGraph) -> Vec<u8> {
    let mut w = Writer::new();
    let config = graph.config();
    w.u8(u8::from(config.include_protected));
    w.u8(u8::from(config.restrict_weak_params));
    let ty_count = graph.node_count() - graph.mined_node_count();
    w.index(ty_count);
    w.index(graph.mined_node_count());
    for i in 0..graph.mined_node_count() {
        let base = graph.base_ty(NodeId::Mined(u32::try_from(i).expect("mined fits u32")));
        w.index(base.index());
    }
    w.u64(graph.edge_count() as u64);
    w.into_bytes()
}

/// Strings: `count u64 | (count+1)×u32 cumulative byte offsets |
/// UTF-8 blob`. Offsets let a borrowed view slice any string in O(1).
fn encode_strings(pool: &StringPool) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(pool.strings.len() as u64);
    let mut acc: u32 = 0;
    w.u32(acc);
    for s in &pool.strings {
        acc = acc
            .checked_add(u32::try_from(s.len()).expect("string fits u32"))
            .expect("string blob fits u32");
        w.u32(acc);
    }
    for s in &pool.strings {
        w.bytes(s.as_bytes());
    }
    w.into_bytes()
}

/// CSR: `node_count u64 | edge_count u64`, then the u32 arrays
/// (forward offsets, forward targets, packed 4×u32 jungloid quads,
/// reverse offsets, reverse sources), then the two u8 cost arrays
/// *last* so every u32 array stays 4-byte-aligned without internal
/// padding.
fn encode_csr(csr: &CsrAdjacency) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(csr.node_count() as u64);
    w.u64(csr.edge_count() as u64);
    for &off in csr.out_offsets() {
        w.u32(off);
    }
    for &to in csr.out_to() {
        w.u32(to);
    }
    for i in 0..csr.edge_count() {
        for word in encode_quad(csr.out_elem().get(i)) {
            w.u32(word);
        }
    }
    for &off in csr.in_offsets() {
        w.u32(off);
    }
    for &from in csr.in_from() {
        w.u32(from);
    }
    for &cost in csr.out_cost() {
        w.u8(cost);
    }
    for &cost in csr.in_cost() {
        w.u8(cost);
    }
    w.into_bytes()
}

/// Examples/suffixes: `seq_count u64 | total_elems u64 |
/// (seq_count+1)×u32 cumulative element offsets | total_elems packed
/// 4×u32 quads`.
fn encode_examples(examples: &[Vec<ElemJungloid>]) -> Vec<u8> {
    let total: usize = examples.iter().map(Vec::len).sum();
    let mut w = Writer::new();
    w.u64(examples.len() as u64);
    w.u64(total as u64);
    let mut acc: u32 = 0;
    w.u32(acc);
    for steps in examples {
        acc = acc
            .checked_add(u32::try_from(steps.len()).expect("example fits u32"))
            .expect("example arena fits u32");
        w.u32(acc);
    }
    for steps in examples {
        for &step in steps {
            for word in encode_quad(step) {
                w.u32(word);
            }
        }
    }
    w.into_bytes()
}

/// Padding bytes needed after a `len`-byte payload to reach the next
/// 8-byte boundary.
#[must_use]
pub fn pad_for(len: usize) -> usize {
    (8 - len % 8) % 8
}

fn emit_section(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    let pad = pad_for(payload.len());
    let mut crc = Crc32::new();
    crc.update(&tag.to_le_bytes());
    crc.update(payload);
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&u32::try_from(pad).expect("pad < 8").to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc.finish().to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&[0u8; 8][..pad]);
}

/// Encodes a mined engine (API + graph + raw mined examples) to snapshot
/// bytes.
#[must_use]
pub fn to_bytes(api: &Api, graph: &JungloidGraph, mined_examples: &[Vec<ElemJungloid>]) -> Vec<u8> {
    let mut pool = StringPool::default();
    // Sections that intern strings are encoded first; the pool itself is
    // then emitted as section 1, ahead of everything that references it.
    let types = encode_types(api.types(), &mut pool);
    let members = encode_members(api, &mut pool);
    let graph_meta = encode_graph_meta(graph);
    let csr = encode_csr(graph.csr());
    let examples = encode_examples(mined_examples);
    let suffixes = encode_examples(graph.examples());
    let strings = encode_strings(&pool);

    let payloads = [&strings, &types, &members, &graph_meta, &csr, &examples, &suffixes];
    let total = HEADER_BYTES
        + payloads.iter().map(|p| SECTION_HEADER_BYTES + p.len() + pad_for(p.len())).sum::<usize>();
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&u32::try_from(SECTIONS.len()).expect("few sections").to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    for ((tag, _), payload) in SECTIONS.iter().zip(payloads) {
        emit_section(&mut out, *tag, payload);
    }
    out
}

// --- walking (framing validation) ---------------------------------------

/// Validates the header and every section frame (tag order, length
/// bounds, padding, CRC32), returning the manifest. Payload *contents*
/// are not decoded. The version is checked first, so a file of any other
/// version fails as [`StoreError::UnsupportedVersion`] before its framing
/// is read.
fn walk(bytes: &[u8]) -> Result<Manifest, StoreError> {
    if bytes.len() < 8 {
        return Err(StoreError::Truncated { context: "header", offset: bytes.len() });
    }
    if bytes[..4] != MAGIC {
        return Err(StoreError::BadMagic { found: bytes[..4].try_into().expect("4 bytes") });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version, supported: FORMAT_VERSION });
    }
    if bytes.len() < HEADER_BYTES {
        return Err(StoreError::Truncated { context: "header", offset: bytes.len() });
    }
    let count = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if count as usize != SECTIONS.len() {
        return Err(StoreError::Corrupt {
            section: "header",
            detail: format!("{count} sections recorded, this format has {}", SECTIONS.len()),
        });
    }
    let reserved = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    if reserved != 0 {
        return Err(StoreError::Corrupt {
            section: "header",
            detail: format!("reserved header word must be zero, found {reserved:#x}"),
        });
    }
    let mut infos = Vec::with_capacity(SECTIONS.len());
    let mut pos = HEADER_BYTES;
    for &(expected_tag, name) in &SECTIONS {
        let Some(header) = bytes.get(pos..pos + SECTION_HEADER_BYTES) else {
            return Err(StoreError::Truncated { context: name, offset: pos });
        };
        let tag = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let pad = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        let len = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let stored_crc = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes"));
        let reserved = u32::from_le_bytes(header[20..24].try_into().expect("4 bytes"));
        if tag != expected_tag {
            return Err(StoreError::Corrupt {
                section: name,
                detail: format!("expected section tag {expected_tag}, found {tag}"),
            });
        }
        if reserved != 0 {
            return Err(StoreError::Corrupt {
                section: name,
                detail: format!("reserved frame word must be zero, found {reserved:#x}"),
            });
        }
        let len = usize::try_from(len).map_err(|_| StoreError::Corrupt {
            section: name,
            detail: format!("section length {len} exceeds addressable memory"),
        })?;
        if pad as usize != pad_for(len) {
            return Err(StoreError::Corrupt {
                section: name,
                detail: format!(
                    "padding of {pad} bytes disagrees with payload length {len} (expected {})",
                    pad_for(len)
                ),
            });
        }
        let start = pos + SECTION_HEADER_BYTES;
        let Some(payload) = start.checked_add(len).and_then(|end| bytes.get(start..end)) else {
            return Err(StoreError::Truncated { context: name, offset: bytes.len() - start });
        };
        let end = start + len;
        let Some(padding) = end.checked_add(pad as usize).and_then(|pe| bytes.get(end..pe))
        else {
            return Err(StoreError::Truncated { context: name, offset: bytes.len() - end });
        };
        if let Some(i) = padding.iter().position(|&b| b != 0) {
            return Err(StoreError::Corrupt {
                section: name,
                detail: format!(
                    "padding byte {i} is {:#04x}, padding must be zero (and is outside the CRC)",
                    padding[i]
                ),
            });
        }
        verify_crc(name, tag, payload, stored_crc)?;
        infos.push(SectionInfo {
            name,
            bytes: payload.len() as u64,
            crc32: stored_crc,
            offset: start as u64,
            pad_bytes: pad,
        });
        pos = end + pad as usize;
    }
    if pos != bytes.len() {
        return Err(StoreError::Corrupt {
            section: "header",
            detail: format!("{} trailing bytes after the last section", bytes.len() - pos),
        });
    }
    Ok(Manifest { version: FORMAT_VERSION, total_bytes: bytes.len() as u64, sections: infos })
}

fn verify_crc(name: &'static str, tag: u32, payload: &[u8], stored: u32) -> Result<(), StoreError> {
    let mut crc = Crc32::new();
    crc.update(&tag.to_le_bytes());
    crc.update(payload);
    let found = crc.finish();
    if found != stored {
        return Err(StoreError::ChecksumMismatch { section: name, expected: stored, found });
    }
    Ok(())
}

/// Validates file structure (magic, version, section frames, padding,
/// checksums) and returns the per-section breakdown without decoding
/// payloads.
///
/// # Errors
///
/// Any framing-level [`StoreError`].
pub fn manifest(bytes: &[u8]) -> Result<Manifest, StoreError> {
    walk(bytes)
}

// --- decoding -----------------------------------------------------------

/// The string pool: a view borrowed straight from the `strings` payload,
/// through which the byte-wise section decoders resolve their refs.
struct Strings<'a> {
    count: usize,
    offsets: &'a [u8],
    blob: &'a [u8],
}

impl Strings<'_> {
    fn get(&self, id: u32) -> Option<&str> {
        let id = id as usize;
        if id >= self.count {
            return None;
        }
        let at = |i: usize| {
            u32::from_le_bytes(self.offsets[i * 4..i * 4 + 4].try_into().expect("4 bytes")) as usize
        };
        self.blob.get(at(id)..at(id + 1)).and_then(|raw| std::str::from_utf8(raw).ok())
    }
}

/// Validates the strings layout (offsets monotone and bounded) and
/// returns a borrowed view; string bytes are never copied. UTF-8 is
/// checked lazily on access, surfacing as an out-of-range ref.
fn decode_strings(payload: &[u8]) -> Result<Strings<'_>, StoreError> {
    let section = "strings";
    let fail = |detail: String| Err(StoreError::Corrupt { section, detail });
    if payload.len() < 8 {
        return Err(StoreError::Truncated { context: section, offset: payload.len() });
    }
    let count = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    let count = usize::try_from(count)
        .ok()
        .filter(|c| c.checked_mul(4).is_some_and(|b| b + 4 <= payload.len() - 8))
        .ok_or_else(|| StoreError::Corrupt {
            section,
            detail: format!("string count {count} cannot fit the payload"),
        })?;
    let offsets = &payload[8..8 + (count + 1) * 4];
    let blob = &payload[8 + (count + 1) * 4..];
    let at = |i: usize| {
        u32::from_le_bytes(offsets[i * 4..i * 4 + 4].try_into().expect("4 bytes")) as usize
    };
    if at(0) != 0 {
        return fail("string offsets must start at 0".to_owned());
    }
    for i in 0..count {
        if at(i) > at(i + 1) {
            return fail(format!("string offsets must be monotone (entry {i})"));
        }
    }
    if at(count) != blob.len() {
        return fail(format!(
            "string offsets end at {} but the blob holds {} bytes",
            at(count),
            blob.len()
        ));
    }
    Ok(Strings { count, offsets, blob })
}

fn pooled<'p>(r: &Reader<'_>, pool: &'p Strings<'_>, id: u32) -> Result<&'p str, StoreError> {
    pool.get(id).ok_or_else(|| {
        r.corrupt(format!("string ref {id} out of range or not UTF-8 ({} pooled)", pool.count))
    })
}

fn decode_ty(r: &Reader<'_>, raw: u32, arena_len: usize) -> Result<TyId, StoreError> {
    if (raw as usize) < arena_len {
        Ok(TyId::from_index(raw as usize))
    } else {
        Err(r.corrupt(format!("type reference {raw} out of range ({arena_len} slots)")))
    }
}

fn decode_types(payload: &[u8], pool: &Strings<'_>) -> Result<TypeTable, StoreError> {
    let mut r = Reader::new("types", payload);
    let package_count = r.count(4)?;
    let mut packages = Vec::with_capacity(package_count);
    for _ in 0..package_count {
        let id = r.u32()?;
        packages.push(pooled(&r, pool, id)?.to_owned());
    }
    let slot_count = r.count(1)?;
    let mut slots = Vec::with_capacity(slot_count);
    for _ in 0..slot_count {
        slots.push(match r.u8()? {
            0 => RawSlot::Void,
            1 => RawSlot::Null,
            2 => {
                let idx = r.u8()? as usize;
                let p = *Prim::ALL
                    .get(idx)
                    .ok_or_else(|| r.corrupt(format!("primitive index {idx} out of range")))?;
                RawSlot::Prim(p)
            }
            3 => {
                let simple_ref = r.u32()?;
                let simple = pooled(&r, pool, simple_ref)?.to_owned();
                let package = PackageId::from_index(r.u32()? as usize);
                let kind = match r.u8()? {
                    0 => TypeKind::Class,
                    1 => TypeKind::Interface,
                    other => return Err(r.corrupt(format!("type kind byte {other}"))),
                };
                let superclass = match r.u32()? {
                    u32::MAX => None,
                    raw => Some(decode_ty(&r, raw, slot_count)?),
                };
                let iface_count = r.count(4)?;
                let mut interfaces = Vec::with_capacity(iface_count);
                for _ in 0..iface_count {
                    let raw = r.u32()?;
                    interfaces.push(decode_ty(&r, raw, slot_count)?);
                }
                RawSlot::Decl { simple, package, kind, superclass, interfaces }
            }
            4 => {
                let raw = r.u32()?;
                RawSlot::Array { elem: decode_ty(&r, raw, slot_count)? }
            }
            other => return Err(r.corrupt(format!("type slot tag {other}"))),
        });
    }
    r.finish()?;
    TypeTable::from_raw(packages, slots).map_err(|e| StoreError::Corrupt {
        section: "types",
        detail: e.to_string(),
    })
}

fn decode_visibility(r: &Reader<'_>, raw: u8) -> Result<Visibility, StoreError> {
    match raw {
        0 => Ok(Visibility::Public),
        1 => Ok(Visibility::Protected),
        2 => Ok(Visibility::Private),
        other => Err(r.corrupt(format!("visibility byte {other}"))),
    }
}

fn decode_members(
    payload: &[u8],
    types: TypeTable,
    pool: &Strings<'_>,
) -> Result<Api, StoreError> {
    let arena_len = types.len();
    let mut api = Api::from_types(types);
    let mut r = Reader::new("members", payload);
    let method_count = r.count(1)?;
    for _ in 0..method_count {
        let name_ref = r.u32()?;
        let name = pooled(&r, pool, name_ref)?.to_owned();
        let declaring_ref = r.u32()?;
        let declaring = decode_ty(&r, declaring_ref, arena_len)?;
        let param_count = r.count(4)?;
        let mut params = Vec::with_capacity(param_count);
        for _ in 0..param_count {
            let raw = r.u32()?;
            params.push(decode_ty(&r, raw, arena_len)?);
        }
        let name_count = r.count(1)?;
        let mut param_names = Vec::with_capacity(name_count);
        for _ in 0..name_count {
            param_names.push(match r.u8()? {
                0 => None,
                1 => {
                    let id = r.u32()?;
                    Some(pooled(&r, pool, id)?.to_owned())
                }
                other => return Err(r.corrupt(format!("param-name flag {other}"))),
            });
        }
        let ret_ref = r.u32()?;
        let ret = decode_ty(&r, ret_ref, arena_len)?;
        let vis_byte = r.u8()?;
        let visibility = decode_visibility(&r, vis_byte)?;
        let is_static = r.u8()? != 0;
        let is_constructor = r.u8()? != 0;
        api.add_method(MethodDef {
            name,
            declaring,
            params,
            param_names,
            ret,
            visibility,
            is_static,
            is_constructor,
        })
        .map_err(|e| StoreError::Corrupt { section: "members", detail: e.to_string() })?;
    }
    let field_count = r.count(1)?;
    for _ in 0..field_count {
        let name_ref = r.u32()?;
        let name = pooled(&r, pool, name_ref)?.to_owned();
        let declaring_ref = r.u32()?;
        let declaring = decode_ty(&r, declaring_ref, arena_len)?;
        let ty_ref = r.u32()?;
        let ty = decode_ty(&r, ty_ref, arena_len)?;
        let vis_byte = r.u8()?;
        let visibility = decode_visibility(&r, vis_byte)?;
        let is_static = r.u8()? != 0;
        api.add_field(FieldDef { name, declaring, ty, visibility, is_static })
            .map_err(|e| StoreError::Corrupt { section: "members", detail: e.to_string() })?;
    }
    r.finish()?;
    Ok(api)
}

/// Validates that a quad-decoded jungloid's references are all in range
/// for `api`. Must run before `api.method(...)`-style lookups.
fn check_elem(section: &'static str, api: &Api, elem: ElemJungloid) -> Result<(), StoreError> {
    let arena_len = api.types().len();
    let fail = |detail: String| Err(StoreError::Corrupt { section, detail });
    match elem {
        ElemJungloid::FieldAccess { field } => {
            if field.index() >= api.field_count() {
                return fail(format!(
                    "field index {} out of range ({})",
                    field.index(),
                    api.field_count()
                ));
            }
        }
        ElemJungloid::Call { method, input } => {
            if method.index() >= api.method_count() {
                return fail(format!(
                    "method index {} out of range ({})",
                    method.index(),
                    api.method_count()
                ));
            }
            if let Some(InputSlot::Arg(i)) = input {
                if i >= api.method(method).params.len() {
                    return fail(format!("parameter slot {i} out of range"));
                }
            }
        }
        ElemJungloid::Widen { from, to } | ElemJungloid::Downcast { from, to } => {
            for t in [from, to] {
                if t.index() >= arena_len {
                    return fail(format!(
                        "type reference {} out of range ({arena_len} slots)",
                        t.index()
                    ));
                }
            }
        }
    }
    Ok(())
}

struct GraphMeta {
    config: GraphConfig,
    mined_base: Vec<TyId>,
    edge_count: u64,
}

fn decode_graph_meta(payload: &[u8], api: &Api) -> Result<GraphMeta, StoreError> {
    let mut r = Reader::new("graph", payload);
    let config = GraphConfig {
        include_protected: r.u8()? != 0,
        restrict_weak_params: r.u8()? != 0,
    };
    let ty_count = r.u32()? as usize;
    if ty_count != api.types().len() {
        return Err(r.corrupt(format!(
            "graph was saved over {ty_count} types but the snapshot API declares {}",
            api.types().len()
        )));
    }
    let mined_count = r.count(4)?;
    let mut mined_base = Vec::with_capacity(mined_count);
    for _ in 0..mined_count {
        let raw = r.u32()?;
        mined_base.push(decode_ty(&r, raw, ty_count)?);
    }
    let edge_count = r.u64()?;
    r.finish()?;
    Ok(GraphMeta { config, mined_base, edge_count })
}

/// Reads a `u32` array from the buffer as a borrowed slab when the
/// platform allows (little-endian, aligned), falling back to an owned
/// copy otherwise. `byte_off` is absolute within `buf`.
fn u32_slab(buf: &Arc<SnapshotBuf>, byte_off: usize, len: usize) -> Slab<u32> {
    Slab::borrowed(buf, byte_off, len).unwrap_or_else(|| {
        let raw = &buf.as_slice()[byte_off..byte_off + len * 4];
        Slab::from_vec(
            raw.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes"))).collect(),
        )
    })
}

fn u8_slab(buf: &Arc<SnapshotBuf>, byte_off: usize, len: usize) -> Slab<u8> {
    Slab::borrowed(buf, byte_off, len)
        .unwrap_or_else(|| Slab::from_vec(buf.as_slice()[byte_off..byte_off + len].to_vec()))
}

/// Decodes the CSR section into slabs borrowed from `buf` — the
/// zero-copy core of the format. One O(edges) scan validates every
/// packed quad (shape and reference ranges) before any of them can reach
/// the query hot path; the structural offset/cost invariants are then
/// enforced by [`CsrAdjacency::from_slabs`].
fn decode_csr(
    buf: &Arc<SnapshotBuf>,
    info: &SectionInfo,
    api: &Api,
    meta: &GraphMeta,
) -> Result<CsrAdjacency, StoreError> {
    let section = "csr";
    let fail = |detail: String| Err(StoreError::Corrupt { section, detail });
    let payload_off = usize::try_from(info.offset).expect("offset fits usize");
    let payload_len = usize::try_from(info.bytes).expect("length fits usize");
    let payload = &buf.as_slice()[payload_off..payload_off + payload_len];
    if payload.len() < 16 {
        return Err(StoreError::Truncated { context: section, offset: payload.len() });
    }
    let node_count = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    let edge_count = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
    let expected_nodes = api.types().len() + meta.mined_base.len();
    let n = usize::try_from(node_count)
        .ok()
        .filter(|&n| n == expected_nodes)
        .ok_or_else(|| StoreError::Corrupt {
            section,
            detail: format!(
                "CSR covers {node_count} nodes, graph metadata implies {expected_nodes}"
            ),
        })?;
    // Total size closes the arithmetic: 16-byte counts, two (n+1)-entry
    // u32 offset arrays, two e-entry u32 endpoint arrays, e packed
    // 16-byte quads, two e-entry u8 cost arrays.
    let e = usize::try_from(edge_count)
        .ok()
        .and_then(|e| {
            let arrays = 8usize
                .checked_mul(n + 1)?
                .checked_add(e.checked_mul(4 + 4 + 16 + 1 + 1)?)?
                .checked_add(16)?;
            (arrays == payload_len).then_some(e)
        })
        .ok_or_else(|| StoreError::Corrupt {
            section,
            detail: format!(
                "edge count {edge_count} disagrees with the section length {payload_len}"
            ),
        })?;
    let fwd_off_at = payload_off + 16;
    let fwd_to_at = fwd_off_at + 4 * (n + 1);
    let quads_at = fwd_to_at + 4 * e;
    let rev_off_at = quads_at + 16 * e;
    let rev_from_at = rev_off_at + 4 * (n + 1);
    let fwd_cost_at = rev_from_at + 4 * e;
    let rev_cost_at = fwd_cost_at + e;

    let quads = u32_slab(buf, quads_at, 4 * e);
    for (i, quad) in quads.chunks_exact(4).enumerate() {
        let quad = [quad[0], quad[1], quad[2], quad[3]];
        let Some(elem) = decode_quad(quad) else {
            return fail(format!("edge {i} holds a malformed jungloid quad {quad:?}"));
        };
        check_elem(section, api, elem)?;
    }

    CsrAdjacency::from_slabs(
        u32_slab(buf, fwd_off_at, n + 1),
        u32_slab(buf, fwd_to_at, e),
        ElemSeq::packed(quads),
        u8_slab(buf, fwd_cost_at, e),
        u32_slab(buf, rev_off_at, n + 1),
        u32_slab(buf, rev_from_at, e),
        u8_slab(buf, rev_cost_at, e),
    )
    .map_err(|err| StoreError::Corrupt { section, detail: err.detail })
}

/// Decodes an examples/suffixes payload. The quads are materialized
/// into owned step-sequences — extending the graph clones and compares
/// them, so unlike the CSR they do not stay borrowed.
fn decode_examples(
    payload: &[u8],
    api: &Api,
    section: &'static str,
) -> Result<Vec<Vec<ElemJungloid>>, StoreError> {
    let fail = |detail: String| Err(StoreError::Corrupt { section, detail });
    if payload.len() < 16 {
        return Err(StoreError::Truncated { context: section, offset: payload.len() });
    }
    let seq_count = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    let total = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
    let sizes = usize::try_from(seq_count).ok().zip(usize::try_from(total).ok()).and_then(
        |(c, t)| {
            let need = 16usize
                .checked_add(c.checked_add(1)?.checked_mul(4)?)?
                .checked_add(t.checked_mul(16)?)?;
            (need == payload.len()).then_some((c, t))
        },
    );
    let Some((count, total)) = sizes else {
        return fail(format!(
            "{seq_count} sequences / {total} elements disagree with the section length {}",
            payload.len()
        ));
    };
    let offsets = &payload[16..16 + (count + 1) * 4];
    let quads = &payload[16 + (count + 1) * 4..];
    let at = |i: usize| {
        u32::from_le_bytes(offsets[i * 4..i * 4 + 4].try_into().expect("4 bytes")) as usize
    };
    if at(0) != 0 {
        return fail("sequence offsets must start at 0".to_owned());
    }
    for i in 0..count {
        if at(i) > at(i + 1) {
            return fail(format!("sequence offsets must be monotone (entry {i})"));
        }
    }
    if at(count) != total {
        return fail(format!("sequence offsets end at {} but {total} elements are stored", at(count)));
    }
    let mut elems = Vec::with_capacity(total);
    for (i, raw) in quads.chunks_exact(16).enumerate() {
        let word = |k: usize| u32::from_le_bytes(raw[k * 4..k * 4 + 4].try_into().expect("4 bytes"));
        let quad = [word(0), word(1), word(2), word(3)];
        let Some(elem) = decode_quad(quad) else {
            return fail(format!("element {i} holds a malformed jungloid quad {quad:?}"));
        };
        check_elem(section, api, elem)?;
        elems.push(elem);
    }
    Ok((0..count).map(|i| elems[at(i)..at(i + 1)].to_vec()).collect())
}

fn section_payload<'a>(bytes: &'a [u8], info: &SectionInfo) -> &'a [u8] {
    let start = usize::try_from(info.offset).expect("offset fits usize");
    let len = usize::try_from(info.bytes).expect("length fits usize");
    &bytes[start..start + len]
}

fn decode(buf: &Arc<SnapshotBuf>, manifest: &Manifest) -> Result<Snapshot, StoreError> {
    let bytes = buf.as_slice();
    let pay = |i: usize| section_payload(bytes, &manifest.sections[i]);
    let pool = decode_strings(pay(0))?;
    let types = decode_types(pay(1), &pool)?;
    let api = decode_members(pay(2), types, &pool)?;
    let meta = decode_graph_meta(pay(3), &api)?;
    let csr = decode_csr(buf, &manifest.sections[4], &api, &meta)?;
    if csr.edge_count() as u64 != meta.edge_count {
        return Err(StoreError::Corrupt {
            section: "graph",
            detail: format!(
                "metadata records {} edges, CSR stores {}",
                meta.edge_count,
                csr.edge_count()
            ),
        });
    }
    let mined_examples = decode_examples(pay(5), &api, "examples")?;
    let suffixes = decode_examples(pay(6), &api, "suffixes")?;
    let graph = JungloidGraph::from_snapshot(&api, meta.config, meta.mined_base, suffixes, csr)
        .map_err(|e| StoreError::Corrupt { section: "graph", detail: e.detail })?;
    Ok(Snapshot { api, graph, mined_examples })
}

/// Decodes snapshot bytes back into a ready-to-query engine state. The
/// input is first copied into one aligned buffer so the engine can
/// borrow from it; use [`from_buf`] / [`load_file`] / [`map_file`] to
/// avoid even that single copy.
///
/// # Errors
///
/// Every malformed input returns a typed [`StoreError`]; the decoder
/// never panics. Framing damage surfaces as
/// [`StoreError::Truncated`]/[`StoreError::ChecksumMismatch`], structural
/// impossibilities as [`StoreError::Corrupt`] naming the section, and a
/// file of another format version as [`StoreError::UnsupportedVersion`].
pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, StoreError> {
    let m = walk(bytes)?;
    decode(&Arc::new(SnapshotBuf::from_bytes(bytes)), &m)
}

/// Decodes a snapshot straight out of an aligned buffer: the returned
/// engine's CSR arrays *borrow from `buf`* (the `Arc` keeps it alive) —
/// the zero-copy path.
///
/// # Errors
///
/// As [`from_bytes`].
pub fn from_buf(buf: &Arc<SnapshotBuf>) -> Result<(Snapshot, Manifest), StoreError> {
    let m = walk(buf.as_slice())?;
    Ok((decode(buf, &m)?, m))
}

// --- file I/O + observability -------------------------------------------

fn record_sections(manifest: &Manifest) {
    for s in &manifest.sections {
        prospector_obs::gauge_set(&format!("store.section.{}.bytes", s.name), s.bytes);
    }
}

/// Encodes and writes a snapshot, reporting `store.save_bytes` and
/// the per-section size gauges under a `store` stage span.
///
/// # Errors
///
/// [`StoreError::Io`] on write failure.
pub fn save_file(
    path: &Path,
    api: &Api,
    graph: &JungloidGraph,
    mined_examples: &[Vec<ElemJungloid>],
) -> Result<Manifest, StoreError> {
    let _span = prospector_obs::stage("store");
    let bytes = to_bytes(api, graph, mined_examples);
    let manifest = manifest(&bytes).expect("freshly encoded snapshot is well-formed");
    std::fs::write(path, &bytes)
        .map_err(|source| StoreError::Io { path: path.to_owned(), source })?;
    prospector_obs::add("store.saves", 1);
    prospector_obs::gauge_set("store.save_bytes", bytes.len() as u64);
    record_sections(&manifest);
    prospector_obs::trace::process_event("store", "save_bytes", bytes.len() as u64);
    Ok(manifest)
}

fn record_load(manifest: &Manifest, bytes: u64, validate_us: u64) {
    prospector_obs::add("store.loads", 1);
    // The zero-copy load is validate-then-borrow, so `store.map_ms`
    // records the validate-only stage — O(sections checksummed), the
    // number the format exists to shrink.
    let ms = validate_us / 1000;
    prospector_obs::gauge_set("store.map_ms", ms);
    prospector_obs::trace::process_event("store", "map_ms", ms);
    prospector_obs::gauge_set("store.load_bytes", bytes);
    record_sections(manifest);
}

/// Stage one of the two-stage warm start: a snapshot buffer (one
/// owned read or an mmap'd region) whose framing — magic, version,
/// section offsets, padding, CRCs — has been validated exactly once.
/// Creating one is the *validate-only* cost: O(sections checksummed),
/// with zero per-element work. [`MappedSnapshot::thaw`] is stage two,
/// materializing the owned engine state (API tables, mined examples)
/// while the hot sections — CSR arrays, string pool, suffix tables —
/// stay borrowed from this buffer.
#[derive(Debug)]
pub struct MappedSnapshot {
    buf: Arc<SnapshotBuf>,
    manifest: Manifest,
}

impl MappedSnapshot {
    /// Validates a snapshot from one owned aligned read.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the file cannot be read; any framing-level
    /// [`StoreError`] from validation.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let buf = SnapshotBuf::read_file(path)
            .map_err(|source| StoreError::Io { path: path.to_owned(), source })?;
        Self::from_snapshot_buf(buf)
    }

    /// Validates a snapshot from a read-only memory mapping when the
    /// platform supports it (falling back to an owned read), so the
    /// kernel pages the snapshot in on demand and shares it across
    /// processes.
    ///
    /// # Errors
    ///
    /// As [`MappedSnapshot::open`].
    pub fn map(path: &Path) -> Result<Self, StoreError> {
        let (buf, _) = SnapshotBuf::map_file(path)
            .map_err(|source| StoreError::Io { path: path.to_owned(), source })?;
        Self::from_snapshot_buf(buf)
    }

    fn from_snapshot_buf(buf: SnapshotBuf) -> Result<Self, StoreError> {
        let manifest = walk(buf.as_slice())?;
        Ok(MappedSnapshot { buf: Arc::new(buf), manifest })
    }

    /// The validated per-section breakdown.
    #[must_use]
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Whether the engine would serve borrowed views out of an mmap'd
    /// region (mapping succeeded rather than falling back to a read).
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        self.buf.is_mapped()
    }

    /// Stage two: decodes the owned engine state. Framing is NOT
    /// re-validated — that happened once at construction, which is what
    /// makes borrow-after-CRC safe. The hot sections are handed out as
    /// borrowed views (the `Arc` keeps the buffer alive).
    ///
    /// # Errors
    ///
    /// Any structural (payload-level) [`StoreError`].
    pub fn thaw(&self) -> Result<Snapshot, StoreError> {
        decode(&self.buf, &self.manifest)
    }
}

fn elapsed_us(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Reads and decodes a snapshot from one aligned read: validate, then
/// borrow (the validate-only stage is recorded as `store.map_ms`).
///
/// # Errors
///
/// [`StoreError::Io`] if the file cannot be read; any decode-level
/// [`StoreError`] otherwise.
pub fn load_file(path: &Path) -> Result<(Snapshot, Manifest), StoreError> {
    let _span = prospector_obs::stage("store");
    let start = std::time::Instant::now();
    let mapped = MappedSnapshot::open(path)?;
    let validate_us = elapsed_us(start);
    let snapshot = mapped.thaw()?;
    record_load(&mapped.manifest, mapped.buf.len() as u64, validate_us);
    Ok((snapshot, mapped.manifest))
}

/// Like [`load_file`] but memory-maps the file read-only when the
/// platform supports it, so the kernel pages the snapshot in on demand
/// and shares it across processes. The returned flag is `true` when the
/// engine is actually serving borrowed views out of an mmap'd region; when
/// mapping is unavailable it falls back to the owned-read path and reports
/// `false` honestly.
///
/// # Errors
///
/// As [`load_file`].
pub fn map_file(path: &Path) -> Result<(Snapshot, Manifest, bool), StoreError> {
    let _span = prospector_obs::stage("store");
    let start = std::time::Instant::now();
    let mapped = MappedSnapshot::map(path)?;
    let validate_us = elapsed_us(start);
    let snapshot = mapped.thaw()?;
    let is_mapped = mapped.is_mapped();
    record_load(&mapped.manifest, mapped.buf.len() as u64, validate_us);
    Ok((snapshot, mapped.manifest, is_mapped))
}

/// How [`load_auto`] ended up holding the snapshot in memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadMode {
    /// Borrowing from a one-shot aligned read (or an mmap request the
    /// platform could not honor).
    Owned,
    /// Serving borrowed views out of an mmap'd region.
    Mapped,
}

impl LoadMode {
    /// The label `/readyz`, `/status`, and `/tenants` report.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LoadMode::Owned => "owned",
            LoadMode::Mapped => "mmap",
        }
    }
}

/// The one snapshot-opening entry point warm starts and tenant
/// (re)loads share: [`map_file`] when `mmap` is requested, [`load_file`]
/// otherwise, with the mode actually achieved reported honestly (an
/// mmap request on an unsupported platform loads owned and says so).
///
/// # Errors
///
/// As [`load_file`].
pub fn load_auto(path: &Path, mmap: bool) -> Result<(Snapshot, Manifest, LoadMode), StoreError> {
    if mmap {
        let (snapshot, manifest, is_mapped) = map_file(path)?;
        let mode = if is_mapped { LoadMode::Mapped } else { LoadMode::Owned };
        Ok((snapshot, manifest, mode))
    } else {
        let (snapshot, manifest) = load_file(path)?;
        Ok((snapshot, manifest, LoadMode::Owned))
    }
}
