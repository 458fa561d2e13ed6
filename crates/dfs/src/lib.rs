//! # daosim-dfs — a POSIX-style file/directory namespace over `DaosApi`
//!
//! The DFS layer the interface papers ("Exploring DAOS Interfaces and
//! Performance", "DAOS as HPC Storage: Exploring Interfaces") benchmark:
//! a libdfs-model filesystem encoded onto the two native DAOS object
//! kinds, generic over any [`DaosApi`] backend (embedded store or
//! simulated cluster):
//!
//! * a **superblock** entry in a well-known KV object records the
//!   namespace's format version and object classes; racing mounts
//!   resolve it with one conditional insert and the losers adopt the
//!   winner's superblock;
//! * every **directory** is a KV object mapping entry name → a typed
//!   *dirent* (child Oid, kind, and — for files — size);
//! * every **regular file** is an Array object holding the byte extents.
//!
//! The deliberate consequence — and the thing `xp ior-interfaces`
//! measures — is that every path component costs a KV lookup and every
//! create/close costs dirent KV updates *on top of* the raw Array I/O.
//! Small transfers pay that metadata tax visibly; large transfers
//! amortize it to nothing, reproducing the papers' interface-overhead
//! ranking.
//!
//! Deviations from real libdfs are listed in DESIGN.md §13; the load
//! bearing ones: file size lives in the dirent (updated at close) rather
//! than being derived from the array high watermark, and rename is two
//! KV updates without a distributed transaction.

use std::cell::RefCell;
use std::fmt;

use bytes::{BufMut, Bytes, BytesMut};
use daosim_objstore::prelude::{
    ArrayHandle, DaosApi, DaosError, EventQueue, ObjectClass, Oid, OidAllocator, Uuid,
};

/// Longest single path component, as in libdfs (`DFS_MAX_NAME`).
pub const NAME_MAX: usize = 255;

/// Current superblock format version.
pub const DFS_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Errors

/// Typed DFS failures. The POSIX-ish variants carry the canonical path
/// they refer to; [`DfsError::Daos`] wraps the underlying [`DaosError`]
/// with the failing operation and path, so transient/permanent context
/// survives the interface boundary (see [`DfsError::is_transient`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DfsError {
    /// A path component (or the final entry) does not exist (`ENOENT`).
    NotFound(String),
    /// A non-final path component names a regular file (`ENOTDIR`).
    NotADirectory(String),
    /// A file operation hit a directory (`EISDIR`).
    IsADirectory(String),
    /// The entry already exists (`EEXIST`).
    Exists(String),
    /// Unlink/overwrite of a non-empty directory (`ENOTEMPTY`).
    NotEmpty(String),
    /// Malformed path: relative, `..`, or an over-long component.
    InvalidPath(String),
    /// A dirent failed to decode — namespace corruption.
    BadDirent(String),
    /// A DAOS operation failed, annotated with the operation name and
    /// the path it was serving.
    Daos {
        /// The client operation that failed (e.g. `"array_write"`).
        op: &'static str,
        /// Canonical path the operation was serving.
        path: String,
        source: DaosError,
    },
}

impl DfsError {
    /// Wraps a [`DaosError`] with operation and path context.
    pub fn daos(op: &'static str, path: impl Into<String>, source: DaosError) -> Self {
        DfsError::Daos {
            op,
            path: path.into(),
            source,
        }
    }

    /// True when the underlying DAOS error is transient (a retry may
    /// succeed). Namespace errors (`NotFound`, `Exists`, …) never are.
    pub fn is_transient(&self) -> bool {
        matches!(self, DfsError::Daos { source, .. } if source.is_transient())
    }

    /// The wrapped DAOS error, when there is one.
    pub fn daos_source(&self) -> Option<&DaosError> {
        match self {
            DfsError::Daos { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl fmt::Display for DfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfsError::NotFound(p) => write!(f, "no such file or directory: {p}"),
            DfsError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            DfsError::IsADirectory(p) => write!(f, "is a directory: {p}"),
            DfsError::Exists(p) => write!(f, "already exists: {p}"),
            DfsError::NotEmpty(p) => write!(f, "directory not empty: {p}"),
            DfsError::InvalidPath(p) => write!(f, "invalid path: {p}"),
            DfsError::BadDirent(p) => write!(f, "corrupt dirent at {p}"),
            DfsError::Daos { op, path, source } => {
                write!(f, "daos {op} failed for {path}: {source}")
            }
        }
    }
}

impl std::error::Error for DfsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DfsError::Daos { source, .. } => Some(source),
            _ => None,
        }
    }
}

pub type DfsResult<T> = std::result::Result<T, DfsError>;

// ---------------------------------------------------------------------------
// Paths

/// Normalizes an absolute path into its components: leading `/`
/// required, repeated and trailing slashes tolerated, `.` dropped, `..`
/// rejected (the namespace is `..`-free by contract), components capped
/// at [`NAME_MAX`]. The root is the empty component list.
pub fn normalize(path: &str) -> DfsResult<Vec<String>> {
    if !path.starts_with('/') {
        return Err(DfsError::InvalidPath(path.to_string()));
    }
    let mut comps = Vec::new();
    for c in path.split('/') {
        match c {
            "" | "." => continue,
            ".." => return Err(DfsError::InvalidPath(path.to_string())),
            name if name.len() <= NAME_MAX => comps.push(name.to_string()),
            _ => return Err(DfsError::InvalidPath(path.to_string())),
        }
    }
    Ok(comps)
}

/// The canonical rendering of a component list (`[]` → `"/"`).
pub fn canonical(comps: &[String]) -> String {
    if comps.is_empty() {
        "/".to_string()
    } else {
        let mut s = String::new();
        for c in comps {
            s.push('/');
            s.push_str(c);
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Dirents

/// What a directory entry points at.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FileKind {
    File,
    Dir,
}

impl FileKind {
    pub fn name(self) -> &'static str {
        match self {
            FileKind::File => "file",
            FileKind::Dir => "dir",
        }
    }
}

/// A typed directory entry: the child's object id and kind, plus the
/// file size for regular files (directories carry 0). Fixed-width
/// encoding so a corrupt entry is detected by length/magic, not by
/// silently misparsing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Dirent {
    pub kind: FileKind,
    pub oid: Oid,
    pub size: u64,
}

const DIRENT_MAGIC: u8 = 0xDF;
const DIRENT_LEN: usize = 1 + 1 + 1 + 4 + 8 + 8;

fn class_code(class: ObjectClass) -> u8 {
    match class {
        ObjectClass::S1 => 1,
        ObjectClass::S2 => 2,
        ObjectClass::SX => 3,
        ObjectClass::RP2 => 4,
        ObjectClass::EC2P1 => 5,
    }
}

fn class_from_code(code: u8) -> Option<ObjectClass> {
    Some(match code {
        1 => ObjectClass::S1,
        2 => ObjectClass::S2,
        3 => ObjectClass::SX,
        4 => ObjectClass::RP2,
        5 => ObjectClass::EC2P1,
        _ => return None,
    })
}

impl Dirent {
    pub fn file(oid: Oid, size: u64) -> Self {
        Dirent {
            kind: FileKind::File,
            oid,
            size,
        }
    }

    pub fn dir(oid: Oid) -> Self {
        Dirent {
            kind: FileKind::Dir,
            oid,
            size: 0,
        }
    }

    /// `[magic, kind, class, user_hi BE, user_lo BE, size BE]`.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(DIRENT_LEN);
        b.put_u8(DIRENT_MAGIC);
        b.put_u8(match self.kind {
            FileKind::File => 1,
            FileKind::Dir => 2,
        });
        b.put_u8(class_code(self.oid.class()));
        let (hi, lo) = self.oid.user_bits();
        b.put_u32(hi);
        b.put_u64(lo);
        b.put_u64(self.size);
        b.freeze()
    }

    pub fn decode(raw: &[u8]) -> Option<Dirent> {
        if raw.len() != DIRENT_LEN || raw[0] != DIRENT_MAGIC {
            return None;
        }
        let kind = match raw[1] {
            1 => FileKind::File,
            2 => FileKind::Dir,
            _ => return None,
        };
        let class = class_from_code(raw[2])?;
        let hi = u32::from_be_bytes(raw[3..7].try_into().unwrap());
        let lo = u64::from_be_bytes(raw[7..15].try_into().unwrap());
        let size = u64::from_be_bytes(raw[15..23].try_into().unwrap());
        Some(Dirent {
            kind,
            oid: Oid::generate(hi, lo, class),
            size,
        })
    }
}

// ---------------------------------------------------------------------------
// Superblock

/// Namespace-wide parameters, fixed at format time by whichever mount
/// wins the superblock insert.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DfsConfig {
    /// Object class for directory KVs.
    pub dir_class: ObjectClass,
    /// Object class for file Arrays.
    pub file_class: ObjectClass,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig {
            dir_class: ObjectClass::SX,
            file_class: ObjectClass::S1,
        }
    }
}

const SB_MAGIC: &[u8; 4] = b"DFS1";
const SB_KEY: &[u8] = b"sb";
const SB_LEN: usize = 4 + 4 + 1 + 1;

fn encode_superblock(cfg: &DfsConfig) -> Bytes {
    let mut b = BytesMut::with_capacity(SB_LEN);
    b.put_slice(SB_MAGIC);
    b.put_u32(DFS_VERSION);
    b.put_u8(class_code(cfg.dir_class));
    b.put_u8(class_code(cfg.file_class));
    b.freeze()
}

fn decode_superblock(raw: &[u8]) -> Option<DfsConfig> {
    if raw.len() != SB_LEN || &raw[0..4] != SB_MAGIC {
        return None;
    }
    if u32::from_be_bytes(raw[4..8].try_into().unwrap()) != DFS_VERSION {
        return None;
    }
    Some(DfsConfig {
        dir_class: class_from_code(raw[8])?,
        file_class: class_from_code(raw[9])?,
    })
}

fn superblock_oid() -> Oid {
    Oid::from_digest(&Uuid::from_name(b"daosim-dfs:superblock"), ObjectClass::S1)
}

fn root_oid(dir_class: ObjectClass) -> Oid {
    // Digest-derived and never renamed, so every mount agrees on it
    // without coordination (the md5-derived-identity trick again).
    Oid::from_digest(&Uuid::from_name(b"daosim-dfs:root"), dir_class)
}

// ---------------------------------------------------------------------------
// Observations

/// `stat(2)` result.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Stat {
    pub kind: FileKind,
    pub size: u64,
}

/// One `readdir(2)` row (kind and size come from the dirent, so this is
/// the cheap `readdir+d_type` shape, not a per-entry stat of the child).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DirEntry {
    pub name: String,
    pub kind: FileKind,
    pub size: u64,
}

/// An open regular file: the Array handle plus the dirent coordinates
/// needed to persist the size high-watermark at [`DfsHandle::close`].
#[derive(Debug)]
pub struct DfsFile {
    handle: ArrayHandle,
    parent: Oid,
    name: String,
    path: String,
    size: u64,
    dirty: bool,
}

impl DfsFile {
    pub fn oid(&self) -> Oid {
        self.handle.oid()
    }

    /// The underlying Array handle — the `AsRawFd` escape hatch for
    /// callers that pipeline raw array I/O over an open DFS file (size
    /// tracking is then on them; offsets written this way are not
    /// reflected in the dirent).
    pub fn array(&self) -> &ArrayHandle {
        &self.handle
    }

    /// Size as seen through this handle (local writes included).
    pub fn size(&self) -> u64 {
        self.size
    }

    pub fn path(&self) -> &str {
        &self.path
    }
}

// ---------------------------------------------------------------------------
// The handle

/// A mounted DFS namespace over one container of backend `D`.
pub struct DfsHandle<D: DaosApi> {
    client: D,
    cont: D::Cont,
    cfg: DfsConfig,
    root: Oid,
    alloc: RefCell<OidAllocator>,
}

impl<D: DaosApi> DfsHandle<D> {
    /// Mounts (creating if necessary) the namespace in container `uuid`
    /// with default classes. `client_id` salts this mount's object-id
    /// allocator and must be unique among concurrently-mounting clients.
    pub async fn mount(client: D, uuid: Uuid, client_id: u32) -> DfsResult<Self> {
        Self::mount_with(client, uuid, client_id, DfsConfig::default()).await
    }

    /// [`DfsHandle::mount`] with explicit object classes. When the
    /// namespace already exists, the superblock's classes win and `cfg`
    /// is ignored — racing mounts converge on one format.
    pub async fn mount_with(
        client: D,
        uuid: Uuid,
        client_id: u32,
        cfg: DfsConfig,
    ) -> DfsResult<Self> {
        let cont = client
            .cont_open_or_create(uuid)
            .await
            .map_err(|e| DfsError::daos("cont_open_or_create", "/", e))?;
        let sb = superblock_oid();
        let cfg = match client
            .kv_put_if_absent(&cont, sb, SB_KEY, encode_superblock(&cfg))
            .await
            .map_err(|e| DfsError::daos("kv_put_if_absent", "/", e))?
        {
            None => cfg,
            Some(existing) => {
                decode_superblock(&existing).ok_or_else(|| DfsError::BadDirent("/".into()))?
            }
        };
        Ok(DfsHandle {
            root: root_oid(cfg.dir_class),
            client,
            cont,
            cfg,
            alloc: RefCell::new(OidAllocator::new(client_id)),
        })
    }

    /// The namespace's format parameters (the superblock's, not
    /// necessarily the ones this mount asked for).
    pub fn config(&self) -> DfsConfig {
        self.cfg
    }

    /// The backing client, for callers that mix raw and DFS access.
    pub fn client(&self) -> &D {
        &self.client
    }

    // -- lookup ------------------------------------------------------------

    async fn dirent(&self, dir: Oid, name: &str, path: &str) -> DfsResult<Option<Dirent>> {
        match self.client.kv_get(&self.cont, dir, name.as_bytes()).await {
            Ok(None) => Ok(None),
            Ok(Some(raw)) => Dirent::decode(&raw)
                .map(Some)
                .ok_or_else(|| DfsError::BadDirent(path.to_string())),
            Err(e) => Err(DfsError::daos("kv_get", path, e)),
        }
    }

    /// Walks `comps` from the root, insisting every component is a
    /// directory; returns the final directory's KV oid. One KV lookup
    /// per component — the path-resolution cost DFS pays and raw object
    /// access does not.
    async fn resolve_dir(&self, comps: &[String]) -> DfsResult<Oid> {
        let mut cur = self.root;
        for (i, c) in comps.iter().enumerate() {
            let here = canonical(&comps[..i + 1]);
            match self.dirent(cur, c, &here).await? {
                None => return Err(DfsError::NotFound(here)),
                Some(d) if d.kind == FileKind::Dir => cur = d.oid,
                Some(_) => return Err(DfsError::NotADirectory(here)),
            }
        }
        Ok(cur)
    }

    /// Splits a normalized non-root path into its parent's directory oid
    /// and the final name; resolves the parent.
    async fn resolve_parent<'c>(&self, comps: &'c [String]) -> DfsResult<(Oid, &'c str)> {
        let (name, parent) = comps.split_last().expect("caller rejects the root");
        Ok((self.resolve_dir(parent).await?, name.as_str()))
    }

    // -- namespace ops -----------------------------------------------------

    /// Creates directory `path` (`mkdir(2)`: parent must exist, entry
    /// must not). Racing creators resolve through one conditional dirent
    /// insert; exactly one wins, the rest get [`DfsError::Exists`].
    pub async fn mkdir(&self, path: &str) -> DfsResult<()> {
        let comps = normalize(path)?;
        if comps.is_empty() {
            return Err(DfsError::Exists("/".into()));
        }
        let canon = canonical(&comps);
        let (parent, name) = self.resolve_parent(&comps).await?;
        let oid = self.alloc.borrow_mut().next(self.cfg.dir_class);
        match self
            .client
            .kv_put_if_absent(
                &self.cont,
                parent,
                name.as_bytes(),
                Dirent::dir(oid).encode(),
            )
            .await
            .map_err(|e| DfsError::daos("kv_put_if_absent", &*canon, e))?
        {
            None => Ok(()),
            Some(_) => Err(DfsError::Exists(canon)),
        }
    }

    /// Creates and opens regular file `path` exclusively
    /// (`open(O_CREAT|O_EXCL)`): any existing entry is
    /// [`DfsError::Exists`].
    pub async fn create(&self, path: &str) -> DfsResult<DfsFile> {
        let comps = normalize(path)?;
        if comps.is_empty() {
            return Err(DfsError::IsADirectory("/".into()));
        }
        let canon = canonical(&comps);
        let (parent, name) = self.resolve_parent(&comps).await?;
        let oid = self.alloc.borrow_mut().next(self.cfg.file_class);
        if self
            .client
            .kv_put_if_absent(
                &self.cont,
                parent,
                name.as_bytes(),
                Dirent::file(oid, 0).encode(),
            )
            .await
            .map_err(|e| DfsError::daos("kv_put_if_absent", &*canon, e))?
            .is_some()
        {
            return Err(DfsError::Exists(canon));
        }
        let handle = self
            .client
            .array_create(&self.cont, oid)
            .await
            .map_err(|e| DfsError::daos("array_create", &*canon, e))?;
        Ok(DfsFile {
            handle,
            parent,
            name: name.to_string(),
            path: canon,
            size: 0,
            dirty: false,
        })
    }

    /// Creates-or-opens regular file `path` (`open(O_CREAT)`) — the
    /// race-safe shape shared-file IOR needs: every rank calls this, one
    /// wins the dirent insert, the losers open the winner's object.
    pub async fn open_or_create(&self, path: &str) -> DfsResult<DfsFile> {
        let comps = normalize(path)?;
        if comps.is_empty() {
            return Err(DfsError::IsADirectory("/".into()));
        }
        let canon = canonical(&comps);
        let (parent, name) = self.resolve_parent(&comps).await?;
        let oid = self.alloc.borrow_mut().next(self.cfg.file_class);
        let ent = match self
            .client
            .kv_put_if_absent(
                &self.cont,
                parent,
                name.as_bytes(),
                Dirent::file(oid, 0).encode(),
            )
            .await
            .map_err(|e| DfsError::daos("kv_put_if_absent", &*canon, e))?
        {
            None => Dirent::file(oid, 0),
            Some(raw) => {
                let ent = Dirent::decode(&raw).ok_or_else(|| DfsError::BadDirent(canon.clone()))?;
                if ent.kind == FileKind::Dir {
                    return Err(DfsError::IsADirectory(canon));
                }
                ent
            }
        };
        // open_or_create on the array too: a losing rank can get here
        // before the winner's array_create has landed.
        let handle = self
            .client
            .array_open_or_create(&self.cont, ent.oid)
            .await
            .map_err(|e| DfsError::daos("array_open_or_create", &*canon, e))?;
        Ok(DfsFile {
            handle,
            parent,
            name: name.to_string(),
            path: canon,
            size: ent.size,
            dirty: false,
        })
    }

    /// Opens existing regular file `path` (`open(2)` without `O_CREAT`).
    pub async fn open(&self, path: &str) -> DfsResult<DfsFile> {
        let comps = normalize(path)?;
        if comps.is_empty() {
            return Err(DfsError::IsADirectory("/".into()));
        }
        let canon = canonical(&comps);
        let (parent, name) = self.resolve_parent(&comps).await?;
        let ent = self
            .dirent(parent, name, &canon)
            .await?
            .ok_or_else(|| DfsError::NotFound(canon.clone()))?;
        if ent.kind == FileKind::Dir {
            return Err(DfsError::IsADirectory(canon));
        }
        let handle = self
            .client
            .array_open(&self.cont, ent.oid)
            .await
            .map_err(|e| DfsError::daos("array_open", &*canon, e))?;
        Ok(DfsFile {
            handle,
            parent,
            name: name.to_string(),
            path: canon,
            size: ent.size,
            dirty: false,
        })
    }

    /// Writes `data` at `offset` through the open file (blocking).
    pub async fn write(&self, f: &mut DfsFile, offset: u64, data: Bytes) -> DfsResult<()> {
        let end = offset.saturating_add(data.len() as u64);
        self.client
            .array_write(&self.cont, &f.handle, offset, data)
            .await
            .map_err(|e| DfsError::daos("array_write", &*f.path, e))?;
        if end > f.size {
            f.size = end;
            f.dirty = true;
        }
        Ok(())
    }

    /// Reads up to `len` bytes at `offset`, clamped at the file size
    /// (POSIX short read at EOF); holes read as zero.
    pub async fn read(&self, f: &DfsFile, offset: u64, len: u64) -> DfsResult<Bytes> {
        let eff = len.min(f.size.saturating_sub(offset));
        if eff == 0 {
            return Ok(Bytes::new());
        }
        self.client
            .array_read(&self.cont, &f.handle, offset, eff)
            .await
            .map_err(|e| DfsError::daos("array_read", &*f.path, e))
    }

    /// Closes the file, persisting a grown size into the dirent (libdfs
    /// derives size from the array high watermark; we track it in the
    /// dirent, charged as one extra KV get+put on dirty close).
    pub async fn close(&self, f: DfsFile) -> DfsResult<()> {
        if f.dirty {
            if let Some(cur) = self.dirent(f.parent, &f.name, &f.path).await? {
                // Skip if the entry was re-pointed (unlink+recreate or
                // rename-over) while we held the handle.
                if cur.kind == FileKind::File && cur.oid == f.oid() && f.size > cur.size {
                    self.client
                        .kv_put(
                            &self.cont,
                            f.parent,
                            f.name.as_bytes(),
                            Dirent::file(f.oid(), f.size).encode(),
                        )
                        .await
                        .map_err(|e| DfsError::daos("kv_put", &*f.path, e))?;
                }
            }
        }
        self.client
            .array_close(&self.cont, f.handle)
            .await
            .map_err(|e| DfsError::daos("array_close", &*f.path, e))
    }

    /// Starts a pipelined writer over an open file: up to `window` data
    /// writes ride one [`EventQueue`] (`daos_eq`-style), exactly like the
    /// field-I/O `pipelined_writer`.
    pub fn writer(&self, file: DfsFile, window: u32) -> DfsWriter<'_, D> {
        DfsWriter {
            eq: EventQueue::new(self.client.clone()),
            dfs: self,
            file,
            window: window.max(1) as usize,
            first_err: None,
        }
    }

    /// Lists `path`'s entries in name order, with each entry's kind and
    /// size straight from its dirent.
    pub async fn readdir(&self, path: &str) -> DfsResult<Vec<DirEntry>> {
        let comps = normalize(path)?;
        let canon = canonical(&comps);
        let dir = self.resolve_dir(&comps).await?;
        let keys = self
            .client
            .kv_list_keys(&self.cont, dir)
            .await
            .map_err(|e| DfsError::daos("kv_list_keys", &*canon, e))?;
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            let name = String::from_utf8_lossy(&key).into_owned();
            let child = if canon == "/" {
                format!("/{name}")
            } else {
                format!("{canon}/{name}")
            };
            let ent = self
                .dirent(dir, &name, &child)
                .await?
                .ok_or_else(|| DfsError::BadDirent(child.clone()))?;
            out.push(DirEntry {
                name,
                kind: ent.kind,
                size: ent.size,
            });
        }
        Ok(out)
    }

    /// `stat(2)`: kind and size. The root stats as an empty directory.
    pub async fn stat(&self, path: &str) -> DfsResult<Stat> {
        let comps = normalize(path)?;
        if comps.is_empty() {
            return Ok(Stat {
                kind: FileKind::Dir,
                size: 0,
            });
        }
        let canon = canonical(&comps);
        let (parent, name) = self.resolve_parent(&comps).await?;
        let ent = self
            .dirent(parent, name, &canon)
            .await?
            .ok_or(DfsError::NotFound(canon))?;
        Ok(Stat {
            kind: ent.kind,
            size: ent.size,
        })
    }

    /// Removes a file or an *empty* directory (`unlink(2)`/`rmdir(2)` in
    /// one call, like `remove(3)`); punches the backing object.
    pub async fn unlink(&self, path: &str) -> DfsResult<()> {
        let comps = normalize(path)?;
        if comps.is_empty() {
            return Err(DfsError::InvalidPath("/".into()));
        }
        let canon = canonical(&comps);
        let (parent, name) = self.resolve_parent(&comps).await?;
        let ent = self
            .dirent(parent, name, &canon)
            .await?
            .ok_or_else(|| DfsError::NotFound(canon.clone()))?;
        if ent.kind == FileKind::Dir {
            let children = self
                .client
                .kv_list_keys(&self.cont, ent.oid)
                .await
                .map_err(|e| DfsError::daos("kv_list_keys", &*canon, e))?;
            if !children.is_empty() {
                return Err(DfsError::NotEmpty(canon));
            }
        }
        self.client
            .kv_remove(&self.cont, parent, name.as_bytes())
            .await
            .map_err(|e| DfsError::daos("kv_remove", &*canon, e))?;
        self.punch(ent.oid, &canon).await
    }

    /// Punches a namespace object, tolerating one that was never
    /// materialized (backends create KV/Array objects lazily, so an
    /// empty directory or unwritten file may have no object yet).
    async fn punch(&self, oid: Oid, path: &str) -> DfsResult<()> {
        match self.client.obj_punch(&self.cont, oid).await {
            Ok(()) | Err(DaosError::ObjNotFound(_)) => Ok(()),
            Err(e) => Err(DfsError::daos("obj_punch", path, e)),
        }
    }

    /// Moves `src` to `dst`. `dst` must not exist, except that a regular
    /// file may replace a regular file (the old object is punched).
    /// Renaming a directory into its own subtree is rejected. Not a
    /// transaction: the entry appears at `dst` before it disappears from
    /// `src` (deviation from libdfs-over-DTX, noted in DESIGN.md §13).
    pub async fn rename(&self, src: &str, dst: &str) -> DfsResult<()> {
        let s = normalize(src)?;
        let d = normalize(dst)?;
        if s.is_empty() || d.is_empty() {
            return Err(DfsError::InvalidPath("/".into()));
        }
        let s_canon = canonical(&s);
        let d_canon = canonical(&d);
        let (s_parent, s_name) = self.resolve_parent(&s).await?;
        let ent = self
            .dirent(s_parent, s_name, &s_canon)
            .await?
            .ok_or_else(|| DfsError::NotFound(s_canon.clone()))?;
        if s == d {
            return Ok(());
        }
        if ent.kind == FileKind::Dir && d.len() > s.len() && d[..s.len()] == s[..] {
            // Moving a directory under itself would orphan the subtree
            // into a cycle.
            return Err(DfsError::InvalidPath(d_canon));
        }
        let (d_parent, d_name) = self.resolve_parent(&d).await?;
        let replaced = match self.dirent(d_parent, d_name, &d_canon).await? {
            None => None,
            Some(old) if old.kind == FileKind::File && ent.kind == FileKind::File => Some(old.oid),
            Some(_) => return Err(DfsError::Exists(d_canon)),
        };
        self.client
            .kv_put(&self.cont, d_parent, d_name.as_bytes(), ent.encode())
            .await
            .map_err(|e| DfsError::daos("kv_put", &*d_canon, e))?;
        self.client
            .kv_remove(&self.cont, s_parent, s_name.as_bytes())
            .await
            .map_err(|e| DfsError::daos("kv_remove", &*s_canon, e))?;
        if let Some(old) = replaced {
            self.punch(old, &d_canon).await?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Pipelined writer

/// Windowed write-behind over one open file: `submit` launches an
/// `array_write` on the event queue and parks only while the window is
/// full, exactly like the field-I/O pipelined writer. Errors surface on
/// the *next* submit or at [`DfsWriter::finish`].
pub struct DfsWriter<'a, D: DaosApi> {
    dfs: &'a DfsHandle<D>,
    file: DfsFile,
    eq: EventQueue<D>,
    window: usize,
    first_err: Option<DaosError>,
}

impl<D: DaosApi> DfsWriter<'_, D> {
    /// Launches one write, waiting for window capacity first.
    pub async fn submit(&mut self, offset: u64, data: Bytes) -> DfsResult<()> {
        for (_, r) in self.eq.wait_capacity(self.window).await {
            if let Err(e) = r {
                self.first_err.get_or_insert(e);
            }
        }
        if let Some(e) = self.first_err.take() {
            return Err(DfsError::daos("array_write", &*self.file.path, e));
        }
        let end = offset.saturating_add(data.len() as u64);
        self.eq
            .array_write(&self.dfs.cont, &self.file.handle, offset, data);
        if end > self.file.size {
            self.file.size = end;
            self.file.dirty = true;
        }
        Ok(())
    }

    /// Drains the queue and returns the file for [`DfsHandle::close`]
    /// (which persists the size). Any write-behind error fails the whole
    /// writer, first error wins.
    pub async fn finish(mut self) -> DfsResult<DfsFile> {
        for (_, r) in self.eq.wait_all().await {
            if let Err(e) = r {
                self.first_err.get_or_insert(e);
            }
        }
        match self.first_err.take() {
            Some(e) => Err(DfsError::daos("array_write", &*self.file.path, e)),
            None => Ok(self.file),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daosim_objstore::prelude::EmbeddedClient;
    use daosim_objstore::{Pool, DEFAULT_POOL_CAPACITY};
    use std::rc::Rc;

    fn block_on<F: std::future::Future>(fut: F) -> F::Output {
        // The embedded backend never actually suspends; poll once.
        let waker = std::task::Waker::noop();
        let mut cx = std::task::Context::from_waker(waker);
        let mut fut = std::pin::pin!(fut);
        match fut.as_mut().poll(&mut cx) {
            std::task::Poll::Ready(v) => v,
            std::task::Poll::Pending => panic!("embedded backend suspended"),
        }
    }

    fn dfs() -> DfsHandle<EmbeddedClient> {
        let pool = Rc::new(Pool::new(Uuid::NIL, 8, DEFAULT_POOL_CAPACITY));
        let client = EmbeddedClient::new(pool);
        block_on(DfsHandle::mount(client, Uuid::from_name(b"dfs-test"), 1)).unwrap()
    }

    #[test]
    fn normalize_edges() {
        assert_eq!(normalize("/").unwrap(), Vec::<String>::new());
        assert_eq!(normalize("/a/b").unwrap(), vec!["a", "b"]);
        // Trailing and repeated slashes, and `.`, are tolerated.
        assert_eq!(normalize("/a/b/").unwrap(), vec!["a", "b"]);
        assert_eq!(normalize("//a///b//").unwrap(), vec!["a", "b"]);
        assert_eq!(normalize("/a/./b").unwrap(), vec!["a", "b"]);
        // Relative and `..` paths are typed errors.
        assert!(matches!(normalize("a/b"), Err(DfsError::InvalidPath(_))));
        assert!(matches!(normalize(""), Err(DfsError::InvalidPath(_))));
        assert!(matches!(
            normalize("/a/../b"),
            Err(DfsError::InvalidPath(_))
        ));
        let long = format!("/{}", "x".repeat(NAME_MAX + 1));
        assert!(matches!(normalize(&long), Err(DfsError::InvalidPath(_))));
        assert_eq!(canonical(&normalize("/a//b/").unwrap()), "/a/b");
        assert_eq!(canonical(&normalize("/").unwrap()), "/");
    }

    #[test]
    fn dirent_roundtrip_and_corruption() {
        for (ent, _) in [
            (Dirent::file(Oid::generate(7, 9, ObjectClass::S1), 4096), 0),
            (Dirent::dir(Oid::generate(1, 2, ObjectClass::SX)), 0),
        ] {
            let raw = ent.encode();
            assert_eq!(raw.len(), DIRENT_LEN);
            assert_eq!(Dirent::decode(&raw), Some(ent));
        }
        assert_eq!(Dirent::decode(b"short"), None);
        let mut bad = Dirent::dir(Oid::generate(1, 2, ObjectClass::SX))
            .encode()
            .to_vec();
        bad[0] = 0; // magic
        assert_eq!(Dirent::decode(&bad), None);
        bad[0] = DIRENT_MAGIC;
        bad[1] = 9; // kind
        assert_eq!(Dirent::decode(&bad), None);
    }

    #[test]
    fn mkdir_create_stat_readdir() {
        let fs = dfs();
        block_on(async {
            fs.mkdir("/a").await.unwrap();
            fs.mkdir("/a/b").await.unwrap();
            let mut f = fs.create("/a/b/data").await.unwrap();
            fs.write(&mut f, 0, Bytes::from_static(b"hello world"))
                .await
                .unwrap();
            assert_eq!(
                fs.read(&f, 6, 100).await.unwrap().as_ref(),
                b"world",
                "read clamps at EOF"
            );
            fs.close(f).await.unwrap();

            assert_eq!(
                fs.stat("/a/b/data").await.unwrap(),
                Stat {
                    kind: FileKind::File,
                    size: 11
                }
            );
            assert_eq!(fs.stat("/").await.unwrap().kind, FileKind::Dir);
            // Trailing slash names the same entries.
            assert_eq!(fs.stat("/a/b/").await.unwrap().kind, FileKind::Dir);
            let ls = fs.readdir("/a/b").await.unwrap();
            assert_eq!(ls.len(), 1);
            assert_eq!(ls[0].name, "data");
            assert_eq!(ls[0].size, 11);
            // Reopen sees the persisted size.
            let f = fs.open("/a/b/data").await.unwrap();
            assert_eq!(f.size(), 11);
            assert_eq!(fs.read(&f, 0, 11).await.unwrap().as_ref(), b"hello world");
            fs.close(f).await.unwrap();
        });
    }

    #[test]
    fn namespace_errors_are_typed() {
        let fs = dfs();
        block_on(async {
            fs.mkdir("/d").await.unwrap();
            let f = fs.create("/f").await.unwrap();
            fs.close(f).await.unwrap();

            assert!(matches!(fs.mkdir("/d").await, Err(DfsError::Exists(p)) if p == "/d"));
            assert!(matches!(fs.mkdir("/").await, Err(DfsError::Exists(_))));
            assert!(matches!(fs.create("/f").await, Err(DfsError::Exists(_))));
            assert!(matches!(
                fs.open("/missing").await,
                Err(DfsError::NotFound(_))
            ));
            assert!(matches!(
                fs.mkdir("/missing/x").await,
                Err(DfsError::NotFound(p)) if p == "/missing"
            ));
            // A file used as a directory component.
            assert!(matches!(
                fs.create("/f/x").await,
                Err(DfsError::NotADirectory(p)) if p == "/f"
            ));
            assert!(matches!(
                fs.open("/d").await,
                Err(DfsError::IsADirectory(_))
            ));
            assert!(matches!(
                fs.stat("/d/nope").await,
                Err(DfsError::NotFound(_))
            ));
        });
    }

    #[test]
    fn unlink_semantics() {
        let fs = dfs();
        block_on(async {
            fs.mkdir("/d").await.unwrap();
            let f = fs.create("/d/f").await.unwrap();
            fs.close(f).await.unwrap();

            // Non-empty directory refuses.
            assert!(matches!(
                fs.unlink("/d").await,
                Err(DfsError::NotEmpty(p)) if p == "/d"
            ));
            // The root can never be unlinked.
            assert!(matches!(
                fs.unlink("/").await,
                Err(DfsError::InvalidPath(_))
            ));
            fs.unlink("/d/f").await.unwrap();
            assert!(matches!(fs.stat("/d/f").await, Err(DfsError::NotFound(_))));
            // Now empty: removable, and gone from listings.
            fs.unlink("/d").await.unwrap();
            assert!(fs.readdir("/").await.unwrap().is_empty());
            assert!(matches!(fs.unlink("/d").await, Err(DfsError::NotFound(_))));
        });
    }

    #[test]
    fn rename_semantics() {
        let fs = dfs();
        block_on(async {
            fs.mkdir("/a").await.unwrap();
            let mut f = fs.create("/a/x").await.unwrap();
            fs.write(&mut f, 0, Bytes::from_static(b"payload"))
                .await
                .unwrap();
            fs.close(f).await.unwrap();

            // Plain move keeps contents and size.
            fs.mkdir("/b").await.unwrap();
            fs.rename("/a/x", "/b/y").await.unwrap();
            assert!(matches!(fs.stat("/a/x").await, Err(DfsError::NotFound(_))));
            let g = fs.open("/b/y").await.unwrap();
            assert_eq!(fs.read(&g, 0, 7).await.unwrap().as_ref(), b"payload");
            fs.close(g).await.unwrap();

            // File replaces file; old bytes are gone with the old object.
            let mut h = fs.create("/b/z").await.unwrap();
            fs.write(&mut h, 0, Bytes::from_static(b"old"))
                .await
                .unwrap();
            fs.close(h).await.unwrap();
            fs.rename("/b/y", "/b/z").await.unwrap();
            assert_eq!(fs.stat("/b/z").await.unwrap().size, 7);
            assert!(matches!(fs.stat("/b/y").await, Err(DfsError::NotFound(_))));

            // A directory target refuses; missing source is NotFound.
            assert!(matches!(
                fs.rename("/b/z", "/a").await,
                Err(DfsError::Exists(_))
            ));
            assert!(matches!(
                fs.rename("/nope", "/b/w").await,
                Err(DfsError::NotFound(_))
            ));
            // Directory into its own subtree refuses.
            fs.mkdir("/a/sub").await.unwrap();
            assert!(matches!(
                fs.rename("/a", "/a/sub/a").await,
                Err(DfsError::InvalidPath(_))
            ));
            // Self-rename of an existing entry is a no-op success.
            fs.rename("/b/z", "/b/z").await.unwrap();
            assert_eq!(fs.stat("/b/z").await.unwrap().size, 7);
        });
    }

    #[test]
    fn open_or_create_converges_on_one_object() {
        let fs = dfs();
        block_on(async {
            let a = fs.open_or_create("/shared").await.unwrap();
            let b = fs.open_or_create("/shared").await.unwrap();
            assert_eq!(a.oid(), b.oid(), "losers adopt the winner's object");
            fs.close(a).await.unwrap();
            fs.close(b).await.unwrap();
            assert!(matches!(
                fs.open_or_create("/").await,
                Err(DfsError::IsADirectory(_))
            ));
        });
    }

    #[test]
    fn pipelined_writer_moves_all_bytes_and_persists_size() {
        let fs = dfs();
        block_on(async {
            let f = fs.create("/big").await.unwrap();
            let mut w = fs.writer(f, 4);
            for s in 0..8u64 {
                w.submit(s * 1024, Bytes::from(vec![s as u8; 1024]))
                    .await
                    .unwrap();
            }
            let f = w.finish().await.unwrap();
            assert_eq!(f.size(), 8 * 1024);
            fs.close(f).await.unwrap();
            assert_eq!(fs.stat("/big").await.unwrap().size, 8 * 1024);
            let f = fs.open("/big").await.unwrap();
            let got = fs.read(&f, 3 * 1024, 1024).await.unwrap();
            assert!(got.iter().all(|&b| b == 3));
            fs.close(f).await.unwrap();
        });
    }

    #[test]
    fn racing_mounts_share_one_superblock() {
        let pool = Rc::new(Pool::new(Uuid::NIL, 8, DEFAULT_POOL_CAPACITY));
        let uuid = Uuid::from_name(b"dfs-race");
        let c1 = EmbeddedClient::new(pool.clone());
        let c2 = EmbeddedClient::new(pool);
        block_on(async {
            // First mount formats with non-default classes; the second
            // asks for defaults but must adopt the winner's superblock.
            let cfg = DfsConfig {
                dir_class: ObjectClass::S1,
                file_class: ObjectClass::SX,
            };
            let a = DfsHandle::mount_with(c1, uuid, 1, cfg).await.unwrap();
            let b = DfsHandle::mount(c2, uuid, 2).await.unwrap();
            assert_eq!(a.config(), cfg);
            assert_eq!(b.config(), cfg);
            // Both mounts see one namespace.
            a.mkdir("/from-a").await.unwrap();
            assert_eq!(b.readdir("/").await.unwrap().len(), 1);
        });
    }

    #[test]
    fn dfs_error_preserves_transience() {
        let transient = DfsError::daos("kv_get", "/x", DaosError::EngineUnavailable(0));
        assert!(transient.is_transient());
        assert!(transient.daos_source().is_some());
        let permanent = DfsError::daos(
            "kv_get",
            "/x",
            DaosError::WrongType(Oid::generate(1, 2, ObjectClass::S1)),
        );
        assert!(!permanent.is_transient());
        assert!(!DfsError::NotFound("/x".into()).is_transient());
        assert_eq!(DfsError::NotFound("/x".into()).daos_source(), None);
    }
}
