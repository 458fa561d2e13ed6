//! The field I/O functions — the paper's primary contribution (§4).
//!
//! Weather fields are written and read through a three-layer scheme over
//! DAOS concepts (paper Fig. 2):
//!
//! * a **main Key-Value** (its own container) maps the most-significant
//!   key part to the forecast's *index container*;
//! * a **forecast Key-Value** in the index container maps the
//!   least-significant key part to the forecast *store container* and an
//!   Array object id (plus length, as FDB5 index entries do);
//! * the field bytes live in that **Array**.
//!
//! Container UUIDs are md5 sums of the most-significant key part, so
//! concurrent processes racing to create a forecast's containers converge
//! on the same identity (Algorithm 1's race-avoidance rule). A re-write
//! of an existing key creates a *new* Array and re-points the index: no
//! read-modify-write, and de-referenced arrays are never deleted.
//!
//! Three modes (paper §5.2):
//! * [`FieldIoMode::Full`] — the scheme above;
//! * [`FieldIoMode::NoContainers`] — same indexes, but every object lives
//!   in the main container;
//! * [`FieldIoMode::NoIndex`] — no Key-Values at all: the Array oid is
//!   md5 of the full field key, in the main container.
//!
//! On top of the blocking functions sits the pipelined layer (DESIGN.md
//! §6): [`FieldStore::pipelined_writer`] keeps up to W field writes in
//! flight on an [`EventQueue`], overlapping each field's index KV update
//! with its Array data write and overlapping whole fields with each
//! other, the way FDB's asynchronous flush does.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;

use bytes::{BufMut, Bytes};

use daosim_kernel::sync::join2;
use daosim_kernel::AdmissionPolicy;
use daosim_objstore::prelude::{
    DaosApi, DaosError, Event, EventQueue, ObjectClass, Oid, OidAllocator, OpOutput, Uuid,
};

use crate::key::{FieldKey, KeyPart, KeySchema};

/// Which parts of the scheme are active.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FieldIoMode {
    #[default]
    Full,
    NoContainers,
    NoIndex,
}

impl FieldIoMode {
    pub fn name(self) -> &'static str {
        match self {
            FieldIoMode::Full => "full",
            FieldIoMode::NoContainers => "no-containers",
            FieldIoMode::NoIndex => "no-index",
        }
    }

    pub fn all() -> [FieldIoMode; 3] {
        [
            FieldIoMode::Full,
            FieldIoMode::NoContainers,
            FieldIoMode::NoIndex,
        ]
    }
}

impl fmt::Display for FieldIoMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of the field I/O functions. Built with
/// [`FieldIoConfig::builder`].
#[derive(Clone, Debug)]
pub struct FieldIoConfig {
    pub mode: FieldIoMode,
    /// Object class for every Key-Value (paper default: `SX`).
    pub kv_class: ObjectClass,
    /// Object class for field Arrays (paper default: `S1`).
    pub array_class: ObjectClass,
    pub schema: KeySchema,
    /// How many field writes the pipelined paths keep in flight (W). 1
    /// means strictly sequential — the paper's blocking Algorithm 1.
    pub inflight_window: u32,
    /// Service-queue admission policy to force on the deployment in the
    /// replay/run paths; `None` inherits the cluster spec's policy.
    pub admission: Option<AdmissionPolicy>,
}

impl Default for FieldIoConfig {
    fn default() -> Self {
        FieldIoConfig {
            mode: FieldIoMode::Full,
            kv_class: ObjectClass::SX,
            array_class: ObjectClass::S1,
            schema: KeySchema::ecmwf(),
            inflight_window: 1,
            admission: None,
        }
    }
}

impl FieldIoConfig {
    /// Starts a builder at the paper defaults (`Full` mode, `SX` KVs,
    /// `S1` arrays, ECMWF schema, window 1).
    pub fn builder() -> FieldIoConfigBuilder {
        FieldIoConfigBuilder {
            cfg: FieldIoConfig::default(),
        }
    }
}

/// Builder for [`FieldIoConfig`].
#[derive(Clone, Debug)]
pub struct FieldIoConfigBuilder {
    cfg: FieldIoConfig,
}

impl FieldIoConfigBuilder {
    pub fn mode(mut self, mode: FieldIoMode) -> Self {
        self.cfg.mode = mode;
        self
    }

    pub fn kv_class(mut self, class: ObjectClass) -> Self {
        self.cfg.kv_class = class;
        self
    }

    pub fn array_class(mut self, class: ObjectClass) -> Self {
        self.cfg.array_class = class;
        self
    }

    pub fn schema(mut self, schema: KeySchema) -> Self {
        self.cfg.schema = schema;
        self
    }

    /// Sets the pipelined in-flight window W (clamped to at least 1).
    pub fn window(mut self, window: u32) -> Self {
        self.cfg.inflight_window = window.max(1);
        self
    }

    /// Forces a service-queue admission policy on the deployment the
    /// replay/run paths build (overrides the cluster spec's policy).
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.cfg.admission = Some(policy);
        self
    }

    pub fn build(self) -> FieldIoConfig {
        self.cfg
    }
}

/// Errors from the field I/O layer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FieldIoError {
    /// Algorithm 2's "fail" branches: the key is not indexed.
    FieldNotFound(String),
    /// A corrupt or truncated index entry.
    BadIndexEntry(String),
    /// A DAOS operation failed, annotated with the operation name and the
    /// field/forecast key it was serving, so callers can tell transient
    /// faults (retryable) from permanent ones and attribute them.
    Daos {
        /// The client operation that failed (e.g. `"array_write"`).
        op: &'static str,
        /// Canonical field or forecast key the operation was serving.
        key: String,
        source: DaosError,
    },
}

impl FieldIoError {
    /// Wraps a [`DaosError`] with operation and key context.
    pub fn daos(op: &'static str, key: impl Into<String>, source: DaosError) -> Self {
        FieldIoError::Daos {
            op,
            key: key.into(),
            source,
        }
    }

    /// True when the underlying DAOS error is transient (a retry may
    /// succeed). `FieldNotFound`/`BadIndexEntry` are never transient.
    pub fn is_transient(&self) -> bool {
        matches!(self, FieldIoError::Daos { source, .. } if source.is_transient())
    }

    /// The wrapped DAOS error, when there is one.
    pub fn daos_source(&self) -> Option<&DaosError> {
        match self {
            FieldIoError::Daos { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl fmt::Display for FieldIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldIoError::FieldNotFound(k) => write!(f, "field not found: {k}"),
            FieldIoError::BadIndexEntry(k) => write!(f, "bad index entry for {k}"),
            FieldIoError::Daos { op, key, source } => {
                write!(f, "daos {op} failed for {key}: {source}")
            }
        }
    }
}

impl std::error::Error for FieldIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FieldIoError::Daos { source, .. } => Some(source),
            _ => None,
        }
    }
}

pub type FieldResult<T> = std::result::Result<T, FieldIoError>;

/// Annotates a DAOS result with field-I/O context (op name + key).
fn dctx<T>(r: Result<T, DaosError>, op: &'static str, key: &str) -> FieldResult<T> {
    r.map_err(|e| FieldIoError::daos(op, key, e))
}

/// Encoded size of an [`IndexEntry`]: store container uuid, class byte,
/// the oid's 32 + 64 user bits, field length.
const INDEX_ENTRY_LEN: usize = 16 + 1 + 4 + 8 + 8;

/// An index entry: store container, array oid, field length.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IndexEntry {
    pub store_cont: Uuid,
    pub oid: Oid,
    pub len: u64,
}

impl IndexEntry {
    /// Encodes on the stack, then copies into one allocation.
    pub fn encode(&self) -> Bytes {
        let mut raw = [0u8; INDEX_ENTRY_LEN];
        let mut b = &mut raw[..];
        b.put_slice(self.store_cont.as_bytes());
        let (hi32, lo) = self.oid.user_bits();
        // Re-encode class+user bits losslessly.
        b.put_u8(match self.oid.class() {
            ObjectClass::S1 => 1,
            ObjectClass::S2 => 2,
            ObjectClass::SX => 3,
            ObjectClass::RP2 => 4,
            ObjectClass::EC2P1 => 5,
        });
        b.put_u32(hi32);
        b.put_u64(lo);
        b.put_u64(self.len);
        debug_assert!(b.is_empty());
        Bytes::copy_from_slice(&raw)
    }

    pub fn decode(data: &[u8]) -> Option<IndexEntry> {
        if data.len() != INDEX_ENTRY_LEN {
            return None;
        }
        let mut u = [0u8; 16];
        u.copy_from_slice(&data[..16]);
        let class = match data[16] {
            1 => ObjectClass::S1,
            2 => ObjectClass::S2,
            3 => ObjectClass::SX,
            4 => ObjectClass::RP2,
            5 => ObjectClass::EC2P1,
            _ => return None,
        };
        let hi32 = u32::from_be_bytes(data[17..21].try_into().ok()?);
        let lo = u64::from_be_bytes(data[21..29].try_into().ok()?);
        let len = u64::from_be_bytes(data[29..37].try_into().ok()?);
        Some(IndexEntry {
            store_cont: Uuid(u),
            oid: Oid::generate(hi32, lo, class),
            len,
        })
    }
}

/// A process's handle onto the weather-field store: the field write and
/// read functions with per-process connection caching (paper §5.2).
///
/// ```
/// use bytes::Bytes;
/// use daosim_core::fieldio::{FieldIoConfig, FieldStore};
/// use daosim_core::key::FieldKey;
/// use daosim_kernel::Sim;
/// use daosim_objstore::{EmbeddedClient, Pool, Uuid, DEFAULT_POOL_CAPACITY};
/// use std::rc::Rc;
///
/// let pool = Rc::new(Pool::new(Uuid::NIL, 24, DEFAULT_POOL_CAPACITY));
/// Sim::new().block_on(async move {
///     let fs = FieldStore::connect(EmbeddedClient::new(pool), FieldIoConfig::default(), 1)
///         .await
///         .unwrap();
///     let key = FieldKey::from_pairs([("class", "od"), ("param", "t"), ("step", "24")]);
///     fs.write_field(&key, Bytes::from_static(b"grib")).await.unwrap();
///     assert_eq!(fs.read_field(&key).await.unwrap().as_ref(), b"grib");
/// });
/// ```
pub struct FieldStore<D: DaosApi> {
    client: D,
    cfg: FieldIoConfig,
    main: D::Cont,
    main_kv: Oid,
    alloc: RefCell<OidAllocator>,
    /// msk canonical -> the forecast's containers and names.
    cont_cache: RefCell<HashMap<String, Forecast<D::Cont>>>,
}

/// One forecast as a process sees it, resolved once and cached: the
/// index and store container handles, plus the md5-derived names every
/// field operation needs (the forecast KV oid and the store-container
/// uuid recorded in index entries).
#[derive(Clone)]
struct Forecast<C> {
    index: C,
    store: C,
    fkv: Oid,
    store_uuid: Uuid,
}

/// The md5-derived names of the forecast whose most-significant key part
/// has canonical text `mkey`: its forecast-KV oid, then its index and
/// store container uuids. Every process derives the same names, so racing
/// creators converge on one forecast.
fn forecast_names(mkey: &str, kv_class: ObjectClass) -> (Oid, Uuid, Uuid) {
    let fkv = Oid::from_digest(&Uuid::from_name(format!("fkv:{mkey}").as_bytes()), kv_class);
    let index = Uuid::from_name(format!("cont-index:{mkey}").as_bytes());
    let store = Uuid::from_name(format!("cont-store:{mkey}").as_bytes());
    (fkv, index, store)
}

/// The UUID of the main container (a deployment-wide constant).
pub fn main_container_uuid() -> Uuid {
    Uuid::from_name(b"daosim:main-container")
}

/// Lower bound for range-listing the field entries of a forecast KV.
///
/// Bookkeeping entries use the reserved `__` key prefix (today only
/// `__store_container__`); field entries are canonical
/// `keyword=value,...` strings, which always start with a lowercase
/// schema keyword and therefore sort after the reserved prefix. Listing
/// from the end of the `__` range — `[0x5f, 0x60]`, the prefix's
/// successor — yields exactly the field entries in one range-scan RPC,
/// with no client-side filtering.
const FIELD_KEYS_FROM: &[u8] = b"_\x60";

impl<D: DaosApi> FieldStore<D> {
    /// Connects a process to the store: opens (or creates) the main
    /// container. `client_id` must be unique per process — it namespaces
    /// the oids this process allocates.
    pub async fn connect(client: D, cfg: FieldIoConfig, client_id: u32) -> FieldResult<Self> {
        let main = dctx(
            client.cont_open_or_create(main_container_uuid()).await,
            "cont_open_or_create",
            "main",
        )?;
        let main_kv = Oid::from_digest(&Uuid::from_name(b"daosim:main-kv"), cfg.kv_class);
        Ok(FieldStore {
            client,
            cfg,
            main,
            main_kv,
            alloc: RefCell::new(OidAllocator::new(client_id)),
            cont_cache: RefCell::new(HashMap::new()),
        })
    }

    pub fn config(&self) -> &FieldIoConfig {
        &self.cfg
    }

    pub fn client(&self) -> &D {
        &self.client
    }

    fn noindex_oid(&self, key: &FieldKey) -> Oid {
        let digest = Uuid::from_name(format!("field:{}", key.canonical()).as_bytes());
        Oid::from_digest(&digest, self.cfg.array_class)
    }

    /// Opens (or creates, registering in the main KV) the forecast's
    /// index and store containers, cached per process together with the
    /// forecast's KV oid and store-container uuid.
    async fn forecast(
        &self,
        msk: &KeyPart,
        create_if_absent: bool,
    ) -> FieldResult<Forecast<D::Cont>> {
        let mkey = msk.canonical();
        if let Some(f) = self.cont_cache.borrow().get(mkey) {
            return Ok(f.clone());
        }
        let (fkv, index_uuid, store_uuid) = forecast_names(mkey, self.cfg.kv_class);
        if self.cfg.mode == FieldIoMode::NoContainers {
            // Indexing layers stay; container layers collapse to main.
            let f = Forecast {
                index: self.main.clone(),
                store: self.main.clone(),
                fkv,
                store_uuid: main_container_uuid(),
            };
            // Still register the forecast in the main KV, as the real
            // functions do (the index layering is mode-independent).
            let registered = dctx(
                self.client
                    .kv_get(&self.main, self.main_kv, mkey.as_bytes())
                    .await,
                "kv_get",
                mkey,
            )?
            .is_some();
            if !registered {
                if !create_if_absent {
                    return Err(FieldIoError::FieldNotFound(mkey.to_owned()));
                }
                dctx(
                    self.client
                        .kv_put(
                            &self.main,
                            self.main_kv,
                            mkey.as_bytes(),
                            Bytes::copy_from_slice(main_container_uuid().as_bytes()),
                        )
                        .await,
                    "kv_put",
                    mkey,
                )?;
            }
            self.cont_cache
                .borrow_mut()
                .insert(mkey.to_owned(), f.clone());
            return Ok(f);
        }

        // Full mode: query the main KV for the forecast's index container.
        let hit = dctx(
            self.client
                .kv_get(&self.main, self.main_kv, mkey.as_bytes())
                .await,
            "kv_get",
            mkey,
        )?;
        let (index, store) = if hit.is_some() {
            let index = dctx(self.client.cont_open(index_uuid).await, "cont_open", mkey)?;
            let store = dctx(self.client.cont_open(store_uuid).await, "cont_open", mkey)?;
            (index, store)
        } else {
            if !create_if_absent {
                return Err(FieldIoError::FieldNotFound(mkey.to_owned()));
            }
            // Create both containers (md5-named: racing creators agree),
            // record the store container id in a special entry of the
            // newly created forecast KV, then register in the main KV.
            let index = dctx(
                self.client.cont_open_or_create(index_uuid).await,
                "cont_open_or_create",
                mkey,
            )?;
            let store = dctx(
                self.client.cont_open_or_create(store_uuid).await,
                "cont_open_or_create",
                mkey,
            )?;
            dctx(
                self.client
                    .kv_put(
                        &index,
                        fkv,
                        b"__store_container__",
                        Bytes::copy_from_slice(store_uuid.as_bytes()),
                    )
                    .await,
                "kv_put",
                mkey,
            )?;
            dctx(
                self.client
                    .kv_put(
                        &self.main,
                        self.main_kv,
                        mkey.as_bytes(),
                        Bytes::copy_from_slice(index_uuid.as_bytes()),
                    )
                    .await,
                "kv_put",
                mkey,
            )?;
            (index, store)
        };
        let f = Forecast {
            index,
            store,
            fkv,
            store_uuid,
        };
        self.cont_cache
            .borrow_mut()
            .insert(mkey.to_owned(), f.clone());
        Ok(f)
    }

    /// Algorithm 1: field write.
    pub async fn write_field(&self, key: &FieldKey, data: Bytes) -> FieldResult<()> {
        let kc = key.canonical();
        if self.cfg.mode == FieldIoMode::NoIndex {
            let oid = self.noindex_oid(key);
            let h = dctx(
                self.client.array_open_or_create(&self.main, oid).await,
                "array_open_or_create",
                kc,
            )?;
            dctx(
                self.client.array_write(&self.main, &h, 0, data).await,
                "array_write",
                kc,
            )?;
            dctx(
                self.client.array_close(&self.main, h).await,
                "array_close",
                kc,
            )?;
            return Ok(());
        }
        let (msk, lsk) = key.split(&self.cfg.schema);
        let Forecast {
            index,
            store,
            fkv,
            store_uuid,
        } = self.forecast(&msk, true).await?;
        // Write the field into a brand-new Array in the store container.
        let oid = self.alloc.borrow_mut().next(self.cfg.array_class);
        let len = data.len() as u64;
        let h = dctx(
            self.client.array_create(&store, oid).await,
            "array_create",
            kc,
        )?;
        dctx(
            self.client.array_write(&store, &h, 0, data).await,
            "array_write",
            kc,
        )?;
        dctx(self.client.array_close(&store, h).await, "array_close", kc)?;
        // Index it in the forecast KV (re-writes re-point the entry; the
        // previous array is de-referenced but never deleted).
        let entry = IndexEntry {
            store_cont: store_uuid,
            oid,
            len,
        };
        dctx(
            self.client
                .kv_put(&index, fkv, lsk.canonical().as_bytes(), entry.encode())
                .await,
            "kv_put",
            kc,
        )?;
        Ok(())
    }

    /// Algorithm 2: field read.
    pub async fn read_field(&self, key: &FieldKey) -> FieldResult<Bytes> {
        let kc = key.canonical();
        if self.cfg.mode == FieldIoMode::NoIndex {
            let oid = self.noindex_oid(key);
            let h = self
                .client
                .array_open(&self.main, oid)
                .await
                .map_err(|e| match e {
                    DaosError::ObjNotFound(_) => FieldIoError::FieldNotFound(kc.to_owned()),
                    other => FieldIoError::daos("array_open", kc, other),
                })?;
            let len = dctx(
                self.client.array_size(&self.main, &h).await,
                "array_size",
                kc,
            )?;
            let data = dctx(
                self.client.array_read(&self.main, &h, 0, len).await,
                "array_read",
                kc,
            )?;
            dctx(
                self.client.array_close(&self.main, h).await,
                "array_close",
                kc,
            )?;
            return Ok(data);
        }
        let (msk, lsk) = key.split(&self.cfg.schema);
        let Forecast {
            index, store, fkv, ..
        } = self.forecast(&msk, false).await?;
        let raw = dctx(
            self.client
                .kv_get(&index, fkv, lsk.canonical().as_bytes())
                .await,
            "kv_get",
            kc,
        )?
        .ok_or_else(|| FieldIoError::FieldNotFound(kc.to_owned()))?;
        let entry =
            IndexEntry::decode(&raw).ok_or_else(|| FieldIoError::BadIndexEntry(kc.to_owned()))?;
        let h = dctx(
            self.client.array_open(&store, entry.oid).await,
            "array_open",
            kc,
        )?;
        let data = dctx(
            self.client.array_read(&store, &h, 0, entry.len).await,
            "array_read",
            kc,
        )?;
        dctx(self.client.array_close(&store, h).await, "array_close", kc)?;
        Ok(data)
    }

    /// Purges de-referenced arrays of a forecast: every Array in the
    /// forecast's store container that the index no longer points to is
    /// punched. The write path deliberately never deletes (paper §4);
    /// this is the corresponding offline reclamation pass (FDB5's
    /// `purge`). Returns the number of arrays reclaimed.
    pub async fn purge_dereferenced(&self, forecast: &FieldKey) -> FieldResult<usize> {
        if self.cfg.mode == FieldIoMode::NoIndex {
            // md5-stable oids are always "referenced" by construction.
            return Ok(0);
        }
        let (msk, _) = forecast.split(&self.cfg.schema);
        let mkey = msk.canonical();
        let Forecast {
            index, store, fkv, ..
        } = self.forecast(&msk, false).await?;
        // Collect the oids the index still references.
        let mut live: std::collections::HashSet<Oid> = std::collections::HashSet::new();
        for k in dctx(
            self.client
                .kv_list_range(&index, fkv, Bytes::from_static(FIELD_KEYS_FROM), None)
                .await,
            "kv_list_range",
            mkey,
        )? {
            if let Some(raw) = dctx(self.client.kv_get(&index, fkv, &k).await, "kv_get", mkey)? {
                if let Some(entry) = IndexEntry::decode(&raw) {
                    live.insert(entry.oid);
                }
            }
        }
        // Punch every array in the store container that is not live. The
        // listing comes from the backing container handle; in
        // no-containers mode the store container is the main container,
        // which also holds KV objects and other forecasts' arrays — only
        // punch arrays allocated by field writes that this forecast's
        // index no longer references. We recognise them by probing the
        // object as an Array and skipping anything still referenced.
        let mut purged = 0usize;
        for oid in dctx(
            self.client.list_array_objects(&store).await,
            "list_array_objects",
            mkey,
        )? {
            if live.contains(&oid) {
                continue;
            }
            // In shared containers, other forecasts' live arrays must
            // survive: only reclaim if no index references them. The
            // full mode gives each forecast its own store container, so
            // this check only matters for no-containers mode, where we
            // conservatively skip arrays not allocated by this process's
            // client id... cross-index liveness is checked by the caller
            // in shared-container deployments.
            if self.cfg.mode == FieldIoMode::NoContainers {
                continue;
            }
            match self.client.obj_punch(&store, oid).await {
                Ok(()) | Err(DaosError::ObjNotFound(_)) => purged += 1,
                Err(e) => return Err(FieldIoError::daos("obj_punch", mkey, e)),
            }
        }
        Ok(purged)
    }

    /// Wipes a forecast: punches every indexed Array, clears the forecast
    /// Key-Value and de-registers the forecast from the main index.
    /// Returns the number of fields removed. (An administrative
    /// operation, like FDB5's `wipe`; the benchmarked write path never
    /// deletes.) Pool space is not refunded — the paper's store never
    /// reclaims, and the snapshot format preserves that accounting.
    pub async fn wipe_forecast(&self, forecast: &FieldKey) -> FieldResult<usize> {
        if self.cfg.mode == FieldIoMode::NoIndex {
            return Err(FieldIoError::daos(
                "wipe_forecast",
                forecast.canonical(),
                DaosError::InvalidArg("no-index mode keeps no listings to wipe"),
            ));
        }
        let (msk, _) = forecast.split(&self.cfg.schema);
        let mkey = msk.canonical();
        let Forecast {
            index, store, fkv, ..
        } = self.forecast(&msk, false).await?;
        let keys = dctx(
            self.client
                .kv_list_range(&index, fkv, Bytes::from_static(FIELD_KEYS_FROM), None)
                .await,
            "kv_list_range",
            mkey,
        )?;
        let mut removed = 0usize;
        for k in keys {
            if let Some(raw) = dctx(self.client.kv_get(&index, fkv, &k).await, "kv_get", mkey)? {
                if let Some(entry) = IndexEntry::decode(&raw) {
                    // Punch may fail if a concurrent wipe raced us; treat
                    // an absent object as already punched.
                    match self.client.obj_punch(&store, entry.oid).await {
                        Ok(()) | Err(DaosError::ObjNotFound(_)) => {}
                        Err(e) => return Err(FieldIoError::daos("obj_punch", mkey, e)),
                    }
                }
            }
            removed += 1;
        }
        // Drop the index object and the main registration.
        match self.client.obj_punch(&index, fkv).await {
            Ok(()) | Err(DaosError::ObjNotFound(_)) => {}
            Err(e) => return Err(FieldIoError::daos("obj_punch", mkey, e)),
        }
        self.cont_cache.borrow_mut().remove(mkey);
        Ok(removed)
    }

    /// Lists the least-significant keys indexed for a forecast (tooling;
    /// not part of the benchmarked hot path).
    pub async fn list_fields(&self, forecast: &FieldKey) -> FieldResult<Vec<String>> {
        if self.cfg.mode == FieldIoMode::NoIndex {
            return Err(FieldIoError::daos(
                "list_fields",
                forecast.canonical(),
                DaosError::InvalidArg("no-index mode keeps no listings"),
            ));
        }
        let (msk, _) = forecast.split(&self.cfg.schema);
        let Forecast { index, fkv, .. } = self.forecast(&msk, false).await?;
        let keys = dctx(
            self.client
                .kv_list_range(&index, fkv, Bytes::from_static(FIELD_KEYS_FROM), None)
                .await,
            "kv_list_range",
            msk.canonical(),
        )?;
        Ok(keys
            .into_iter()
            .map(|k| String::from_utf8_lossy(&k).into_owned())
            .collect())
    }

    // -- pipelined layer (DESIGN.md §6) ------------------------------------

    /// Starts a pipelined writer that keeps up to `window` field writes in
    /// flight. `window <= 1` degrades to one-at-a-time (still through the
    /// event queue, so the per-field KV-put/data-write overlap remains).
    pub fn pipelined_writer(&self, window: u32) -> PipelinedWriter<'_, D> {
        PipelinedWriter {
            fs: self,
            eq: EventQueue::new(self.client.clone()),
            window: window.max(1) as usize,
            pending: HashMap::new(),
            first_err: None,
        }
    }

    /// Launches one field write on `eq` as a composite operation: create
    /// the array, then run the data write (and close) concurrently with
    /// the index KV put. Containers and the oid are resolved inline so
    /// the composite touches only its own objects.
    async fn launch_write(
        &self,
        eq: &EventQueue<D>,
        key: &FieldKey,
        data: Bytes,
    ) -> FieldResult<Event> {
        let client = self.client.clone();
        if self.cfg.mode == FieldIoMode::NoIndex {
            let main = self.main.clone();
            let oid = self.noindex_oid(key);
            return Ok(eq.submit(async move {
                let h = client.array_open_or_create(&main, oid).await?;
                client.array_write(&main, &h, 0, data).await?;
                client.array_close(&main, h).await?;
                Ok(OpOutput::Unit)
            }));
        }
        let (msk, lsk) = key.split(&self.cfg.schema);
        let Forecast {
            index,
            store,
            fkv,
            store_uuid,
        } = self.forecast(&msk, true).await?;
        let oid = self.alloc.borrow_mut().next(self.cfg.array_class);
        let entry = IndexEntry {
            store_cont: store_uuid,
            oid,
            len: data.len() as u64,
        };
        Ok(eq.submit(async move {
            let h = client.array_create(&store, oid).await?;
            // The field's Array data write and its index KV update have
            // no mutual ordering constraint: overlap them.
            let data_branch = async {
                client.array_write(&store, &h, 0, data).await?;
                client.array_close(&store, h).await
            };
            let index_branch = async {
                client
                    .kv_put(&index, fkv, lsk.canonical().as_bytes(), entry.encode())
                    .await
            };
            let (data_done, index_done) = join2(data_branch, index_branch).await;
            data_done?;
            index_done?;
            Ok(OpOutput::Unit)
        }))
    }

    /// Reads many fields with up to `window` in flight, returning results
    /// in input order. Each field's index lookup, array open, data read
    /// and close run as one composite operation; distinct fields overlap.
    pub async fn read_fields_pipelined(
        &self,
        keys: &[FieldKey],
        window: u32,
    ) -> Vec<FieldResult<Bytes>> {
        let window = window.max(1) as usize;
        let eq = EventQueue::new(self.client.clone());
        let mut results: Vec<Option<FieldResult<Bytes>>> = Vec::new();
        results.resize_with(keys.len(), || None);
        let mut slots: HashMap<Event, usize> = HashMap::new();

        fn absorb(
            results: &mut [Option<FieldResult<Bytes>>],
            slots: &mut HashMap<Event, usize>,
            keys: &[FieldKey],
            ev: Event,
            res: Result<OpOutput, DaosError>,
        ) {
            let slot = slots.remove(&ev).expect("unknown event completed");
            let kc = keys[slot].canonical();
            results[slot] = Some(match res {
                Ok(OpOutput::Data(d)) => Ok(d),
                Ok(other) => panic!("read composite resolved to {other:?}"),
                // Sentinels the composite uses for index misses.
                Err(DaosError::KeyNotFound(_)) | Err(DaosError::ObjNotFound(_)) => {
                    Err(FieldIoError::FieldNotFound(kc.to_owned()))
                }
                Err(DaosError::InvalidArg("bad index entry")) => {
                    Err(FieldIoError::BadIndexEntry(kc.to_owned()))
                }
                Err(e) => Err(FieldIoError::daos("read_field", kc, e)),
            });
        }

        for (i, key) in keys.iter().enumerate() {
            for (ev, res) in eq.wait_capacity(window).await {
                absorb(&mut results, &mut slots, keys, ev, res);
            }
            match self.launch_read(&eq, key).await {
                Ok(ev) => {
                    slots.insert(ev, i);
                }
                Err(e) => results[i] = Some(Err(e)),
            }
        }
        while let Some((ev, res)) = eq.wait().await {
            absorb(&mut results, &mut slots, keys, ev, res);
        }
        results
            .into_iter()
            .map(|r| r.expect("every field resolved"))
            .collect()
    }

    /// Launches one composite field read on `eq`. Index-miss conditions
    /// are reported through [`DaosError`] sentinels that
    /// [`FieldStore::read_fields_pipelined`] maps back to
    /// [`FieldIoError::FieldNotFound`]/[`FieldIoError::BadIndexEntry`].
    async fn launch_read(&self, eq: &EventQueue<D>, key: &FieldKey) -> FieldResult<Event> {
        let client = self.client.clone();
        if self.cfg.mode == FieldIoMode::NoIndex {
            let main = self.main.clone();
            let oid = self.noindex_oid(key);
            return Ok(eq.submit(async move {
                let h = client.array_open(&main, oid).await?;
                let len = client.array_size(&main, &h).await?;
                let data = client.array_read(&main, &h, 0, len).await?;
                client.array_close(&main, h).await?;
                Ok(OpOutput::Data(data))
            }));
        }
        let (msk, lsk) = key.split(&self.cfg.schema);
        let Forecast {
            index, store, fkv, ..
        } = self.forecast(&msk, false).await?;
        Ok(eq.submit(async move {
            let raw = client
                .kv_get(&index, fkv, lsk.canonical().as_bytes())
                .await?
                .ok_or_else(|| DaosError::KeyNotFound(lsk.canonical().to_owned()))?;
            let entry = IndexEntry::decode(&raw).ok_or(DaosError::InvalidArg("bad index entry"))?;
            let h = client.array_open(&store, entry.oid).await?;
            let data = client.array_read(&store, &h, 0, entry.len).await?;
            client.array_close(&store, h).await?;
            Ok(OpOutput::Data(data))
        }))
    }
}

/// What the pipelined writer remembers about one in-flight field write.
struct PendingWrite {
    key: String,
    cb: Option<Box<dyn FnOnce(FieldResult<()>)>>,
}

/// A windowed, FDB-style asynchronous field writer (DESIGN.md §6).
///
/// [`submit`](PipelinedWriter::submit) launches Algorithm 1 for one field
/// as a composite event-queue operation and returns as soon as the
/// in-flight count drops below the window — so up to W fields progress
/// concurrently, and within each field the index KV put overlaps the
/// Array data write. [`flush`](PipelinedWriter::flush) drains the queue.
///
/// Errors are write-behind: a failed field write surfaces on a later
/// `submit` or on `flush` (first error wins), unless the field was
/// submitted with a completion callback, which then owns the result.
pub struct PipelinedWriter<'a, D: DaosApi> {
    fs: &'a FieldStore<D>,
    eq: EventQueue<D>,
    window: usize,
    pending: HashMap<Event, PendingWrite>,
    first_err: Option<FieldIoError>,
}

impl<D: DaosApi> PipelinedWriter<'_, D> {
    /// Number of field writes currently in flight.
    pub fn in_flight(&self) -> usize {
        self.eq.in_flight()
    }

    /// The writer's in-flight window W.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Submits one field write, waiting first if the window is full.
    /// Returns the first write-behind error, if any has occurred.
    pub async fn submit(&mut self, key: &FieldKey, data: Bytes) -> FieldResult<()> {
        self.submit_inner(key, data, None).await
    }

    /// Like [`submit`](PipelinedWriter::submit), but delivers this
    /// field's result to `cb` at completion time instead of write-behind.
    pub async fn submit_with(
        &mut self,
        key: &FieldKey,
        data: Bytes,
        cb: impl FnOnce(FieldResult<()>) + 'static,
    ) -> FieldResult<()> {
        self.submit_inner(key, data, Some(Box::new(cb))).await
    }

    async fn submit_inner(
        &mut self,
        key: &FieldKey,
        data: Bytes,
        cb: Option<Box<dyn FnOnce(FieldResult<()>)>>,
    ) -> FieldResult<()> {
        if let Some(e) = &self.first_err {
            return Err(e.clone());
        }
        for c in self.eq.wait_capacity(self.window).await {
            self.absorb(c);
        }
        match self.fs.launch_write(&self.eq, key, data).await {
            Ok(ev) => {
                let key = key.canonical().to_owned();
                self.pending.insert(ev, PendingWrite { key, cb });
                Ok(())
            }
            // Inline resolution failed before launch; deliver the error
            // the same way a completion would have been.
            Err(e) => match cb {
                Some(cb) => {
                    cb(Err(e));
                    Ok(())
                }
                None => {
                    self.first_err.get_or_insert(e.clone());
                    Err(e)
                }
            },
        }
    }

    fn absorb(&mut self, (ev, res): (Event, Result<OpOutput, DaosError>)) {
        let p = self
            .pending
            .remove(&ev)
            .expect("completion for unknown write");
        let out = match res {
            Ok(_) => Ok(()),
            Err(e) => Err(FieldIoError::daos("write_field", p.key, e)),
        };
        match p.cb {
            Some(cb) => cb(out),
            None => {
                if let Err(e) = out {
                    self.first_err.get_or_insert(e);
                }
            }
        }
    }

    /// Waits for every in-flight write, delivering callbacks, and returns
    /// the first write-behind error (if any). The writer is reusable
    /// afterwards.
    pub async fn flush(&mut self) -> FieldResult<()> {
        while let Some(c) = self.eq.wait().await {
            self.absorb(c);
        }
        match self.first_err.take() {
            Some(e) => Err(e),
            None => Ok(()),
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
        let waker = std::task::Waker::noop();
        let mut cx = std::task::Context::from_waker(waker);
        let mut fut = std::pin::pin!(fut);
        match fut.as_mut().poll(&mut cx) {
            std::task::Poll::Ready(v) => v,
            std::task::Poll::Pending => panic!("embedded backend suspended"),
        }
    }

    fn key(step: u32) -> FieldKey {
        FieldKey::from_pairs([
            ("class", "od"),
            ("date", "20201224"),
            ("time", "0000"),
            ("expver", "0001"),
            ("param", "t"),
            ("levelist", "500"),
            ("step", &step.to_string()),
        ])
    }

    fn store(mode: FieldIoMode) -> FieldStore<EmbeddedClient> {
        let pool = Rc::new(Pool::new(Uuid::NIL, 24, DEFAULT_POOL_CAPACITY));
        let client = EmbeddedClient::new(pool);
        block_on(FieldStore::connect(
            client,
            FieldIoConfig::builder().mode(mode).build(),
            1,
        ))
        .unwrap()
    }

    #[test]
    fn write_read_roundtrip_all_modes() {
        for mode in FieldIoMode::all() {
            let fs = store(mode);
            let data = Bytes::from(vec![0x5a; 1024 * 1024]);
            block_on(fs.write_field(&key(24), data.clone())).unwrap();
            let back = block_on(fs.read_field(&key(24))).unwrap();
            assert_eq!(back, data, "mode {mode}");
        }
    }

    #[test]
    fn missing_field_fails_per_algorithm_2() {
        for mode in FieldIoMode::all() {
            let fs = store(mode);
            match block_on(fs.read_field(&key(24))) {
                Err(FieldIoError::FieldNotFound(_)) => {}
                other => panic!("mode {mode}: expected FieldNotFound, got {other:?}"),
            }
        }
    }

    #[test]
    fn missing_field_in_existing_forecast_fails() {
        let fs = store(FieldIoMode::Full);
        block_on(fs.write_field(&key(24), Bytes::from_static(b"x"))).unwrap();
        match block_on(fs.read_field(&key(48))) {
            Err(FieldIoError::FieldNotFound(_)) => {}
            other => panic!("expected FieldNotFound, got {other:?}"),
        }
    }

    #[test]
    fn rewrite_returns_latest_and_keeps_old_array() {
        for mode in FieldIoMode::all() {
            let fs = store(mode);
            block_on(fs.write_field(&key(24), Bytes::from_static(b"version-1"))).unwrap();
            block_on(fs.write_field(&key(24), Bytes::from_static(b"version-2"))).unwrap();
            let back = block_on(fs.read_field(&key(24))).unwrap();
            assert_eq!(back.as_ref(), b"version-2", "mode {mode}");
        }
        // In indexed modes the old array is de-referenced, not deleted:
        // the store container keeps both objects.
        let fs = store(FieldIoMode::Full);
        block_on(fs.write_field(&key(24), Bytes::from_static(b"a"))).unwrap();
        block_on(fs.write_field(&key(24), Bytes::from_static(b"b"))).unwrap();
        let pool = fs.client().pool().clone();
        let store_cont = pool
            .cont_open(Uuid::from_name(
                format!(
                    "cont-store:{}",
                    key(24).split(&KeySchema::ecmwf()).0.canonical()
                )
                .as_bytes(),
            ))
            .unwrap();
        assert_eq!(store_cont.object_count(), 2);
    }

    #[test]
    fn full_mode_uses_separate_containers() {
        let fs = store(FieldIoMode::Full);
        block_on(fs.write_field(&key(24), Bytes::from_static(b"x"))).unwrap();
        let pool = fs.client().pool().clone();
        // main + index + store containers.
        assert_eq!(pool.cont_count(), 3);
    }

    #[test]
    fn no_containers_mode_stays_in_main() {
        let fs = store(FieldIoMode::NoContainers);
        block_on(fs.write_field(&key(24), Bytes::from_static(b"x"))).unwrap();
        let pool = fs.client().pool().clone();
        assert_eq!(pool.cont_count(), 1);
    }

    #[test]
    fn no_index_mode_creates_no_kvs() {
        let fs = store(FieldIoMode::NoIndex);
        block_on(fs.write_field(&key(24), Bytes::from_static(b"x"))).unwrap();
        let pool = fs.client().pool().clone();
        let main = pool.cont_open(main_container_uuid()).unwrap();
        // Exactly one object: the md5-addressed array.
        assert_eq!(main.object_count(), 1);
    }

    #[test]
    fn distinct_forecasts_get_distinct_containers() {
        let fs = store(FieldIoMode::Full);
        let mut k2 = key(24);
        k2.set("date", "20201225");
        block_on(fs.write_field(&key(24), Bytes::from_static(b"x"))).unwrap();
        block_on(fs.write_field(&k2, Bytes::from_static(b"y"))).unwrap();
        assert_eq!(fs.client().pool().cont_count(), 5);
        assert_eq!(block_on(fs.read_field(&k2)).unwrap().as_ref(), b"y");
    }

    #[test]
    fn list_fields_returns_lsk_entries() {
        let fs = store(FieldIoMode::Full);
        for step in [0u32, 24, 48] {
            block_on(fs.write_field(&key(step), Bytes::from_static(b"x"))).unwrap();
        }
        let mut listed = block_on(fs.list_fields(&key(0))).unwrap();
        listed.sort();
        assert_eq!(
            listed,
            vec![
                "levelist=500,param=t,step=0",
                "levelist=500,param=t,step=24",
                "levelist=500,param=t,step=48"
            ]
        );
    }

    #[test]
    fn purge_reclaims_only_dereferenced_arrays() {
        let fs = store(FieldIoMode::Full);
        // Three fields; re-write one of them twice -> 2 dead arrays.
        for step in [0u32, 24, 48] {
            block_on(fs.write_field(&key(step), Bytes::from_static(b"v1"))).unwrap();
        }
        block_on(fs.write_field(&key(24), Bytes::from_static(b"v2"))).unwrap();
        block_on(fs.write_field(&key(24), Bytes::from_static(b"v3"))).unwrap();
        let pool = fs.client().pool().clone();
        let store_cont = pool
            .cont_open(Uuid::from_name(
                format!(
                    "cont-store:{}",
                    key(24).split(&KeySchema::ecmwf()).0.canonical()
                )
                .as_bytes(),
            ))
            .unwrap();
        assert_eq!(store_cont.object_count(), 5);
        let purged = block_on(fs.purge_dereferenced(&key(0))).unwrap();
        assert_eq!(purged, 2);
        assert_eq!(store_cont.object_count(), 3);
        // Live data is untouched.
        assert_eq!(block_on(fs.read_field(&key(24))).unwrap().as_ref(), b"v3");
        assert_eq!(block_on(fs.read_field(&key(0))).unwrap().as_ref(), b"v1");
        // Purge is idempotent.
        assert_eq!(block_on(fs.purge_dereferenced(&key(0))).unwrap(), 0);
    }

    #[test]
    fn purge_is_conservative_in_shared_container_modes() {
        let fs = store(FieldIoMode::NoContainers);
        block_on(fs.write_field(&key(0), Bytes::from_static(b"a"))).unwrap();
        block_on(fs.write_field(&key(0), Bytes::from_static(b"b"))).unwrap();
        // Shared main container: nothing is reclaimed (cross-forecast
        // liveness cannot be decided locally).
        assert_eq!(block_on(fs.purge_dereferenced(&key(0))).unwrap(), 0);
        assert_eq!(block_on(fs.read_field(&key(0))).unwrap().as_ref(), b"b");
        // no-index mode reclaims nothing either, by construction.
        let ni = store(FieldIoMode::NoIndex);
        block_on(ni.write_field(&key(0), Bytes::from_static(b"x"))).unwrap();
        assert_eq!(block_on(ni.purge_dereferenced(&key(0))).unwrap(), 0);
    }

    #[test]
    fn wipe_forecast_removes_fields_and_listing() {
        for mode in [FieldIoMode::Full, FieldIoMode::NoContainers] {
            let fs = store(mode);
            for step in [0u32, 24, 48] {
                block_on(fs.write_field(&key(step), Bytes::from_static(b"x"))).unwrap();
            }
            let removed = block_on(fs.wipe_forecast(&key(0))).unwrap();
            assert_eq!(removed, 3, "mode {mode}");
            match block_on(fs.read_field(&key(24))) {
                Err(FieldIoError::FieldNotFound(_)) => {}
                other => panic!("mode {mode}: expected FieldNotFound, got {other:?}"),
            }
            assert!(block_on(fs.list_fields(&key(0))).unwrap().is_empty());
            // The forecast can be repopulated afterwards.
            block_on(fs.write_field(&key(6), Bytes::from_static(b"fresh"))).unwrap();
            assert_eq!(block_on(fs.read_field(&key(6))).unwrap().as_ref(), b"fresh");
        }
    }

    #[test]
    fn wipe_is_rejected_in_no_index_mode() {
        let fs = store(FieldIoMode::NoIndex);
        assert!(block_on(fs.wipe_forecast(&key(0))).is_err());
    }

    #[test]
    fn index_entry_codec_roundtrip() {
        let e = IndexEntry {
            store_cont: Uuid::from_name(b"c"),
            oid: Oid::generate(3, 77, ObjectClass::S2),
            len: 5 * 1024 * 1024,
        };
        let raw = e.encode();
        assert_eq!(raw.len(), INDEX_ENTRY_LEN);
        assert_eq!(IndexEntry::decode(&raw), Some(e));
        assert_eq!(IndexEntry::decode(b"short"), None);
    }

    #[test]
    fn concurrent_processes_share_forecast_containers() {
        // Two processes (two FieldStores over the same pool) writing the
        // same forecast agree on container identity via md5 naming.
        let pool = Rc::new(Pool::new(Uuid::NIL, 24, DEFAULT_POOL_CAPACITY));
        let fs1 = block_on(FieldStore::connect(
            EmbeddedClient::new(pool.clone()),
            FieldIoConfig::builder().mode(FieldIoMode::Full).build(),
            1,
        ))
        .unwrap();
        let fs2 = block_on(FieldStore::connect(
            EmbeddedClient::new(pool.clone()),
            FieldIoConfig::builder().mode(FieldIoMode::Full).build(),
            2,
        ))
        .unwrap();
        let mut ka = key(0);
        ka.set("param", "u");
        let mut kb = key(0);
        kb.set("param", "v");
        block_on(fs1.write_field(&ka, Bytes::from_static(b"from-1"))).unwrap();
        block_on(fs2.write_field(&kb, Bytes::from_static(b"from-2"))).unwrap();
        // Still only 3 containers; each store reads the other's field.
        assert_eq!(pool.cont_count(), 3);
        assert_eq!(block_on(fs1.read_field(&kb)).unwrap().as_ref(), b"from-2");
        assert_eq!(block_on(fs2.read_field(&ka)).unwrap().as_ref(), b"from-1");
    }

    // -- new-in-this-PR surface --------------------------------------------

    #[test]
    fn builder_mode_only_differs_from_default_in_mode() {
        for mode in FieldIoMode::all() {
            let a = FieldIoConfig::builder().mode(mode).build();
            let d = FieldIoConfig::default();
            assert_eq!(a.mode, mode);
            assert_eq!(a.kv_class, d.kv_class);
            assert_eq!(a.array_class, d.array_class);
            assert_eq!(a.inflight_window, d.inflight_window);
            assert_eq!(a.inflight_window, 1);
        }
        let w = FieldIoConfig::builder().window(8).build();
        assert_eq!(w.inflight_window, 8);
        // Window 0 is meaningless; clamp to sequential.
        assert_eq!(
            FieldIoConfig::builder().window(0).build().inflight_window,
            1
        );
    }

    #[test]
    fn errors_carry_operation_and_key_context() {
        // Writing into an exhausted pool surfaces a contextualised DAOS
        // error naming the failing op and the field key.
        let pool = Rc::new(Pool::new(Uuid::from_name(b"tiny"), 4, 4096));
        let fs = block_on(FieldStore::connect(
            EmbeddedClient::new(pool),
            FieldIoConfig::default(),
            1,
        ))
        .unwrap();
        let err = block_on(fs.write_field(&key(24), Bytes::from(vec![1u8; 1 << 20]))).unwrap_err();
        match &err {
            FieldIoError::Daos { op, key: k, source } => {
                assert_eq!(*op, "array_write");
                assert!(k.contains("class=od"), "key context missing: {k}");
                assert_eq!(*source, DaosError::NoSpace);
            }
            other => panic!("expected contextual Daos error, got {other:?}"),
        }
        assert!(!err.is_transient());
        assert!(err.daos_source().is_some());
        assert!(err.to_string().contains("failed for"));
        // Not-found paths stay non-DAOS and non-transient.
        let nf = FieldIoError::FieldNotFound("k".into());
        assert!(!nf.is_transient());
        assert!(nf.daos_source().is_none());
    }

    #[test]
    fn pipelined_writer_roundtrips_on_embedded() {
        for mode in FieldIoMode::all() {
            for window in [1u32, 4] {
                let fs = store(mode);
                block_on(async {
                    let mut w = fs.pipelined_writer(window);
                    for step in 0..12u32 {
                        w.submit(&key(step), Bytes::from(format!("field-{step}")))
                            .await
                            .unwrap();
                    }
                    w.flush().await.unwrap();
                });
                for step in 0..12u32 {
                    assert_eq!(
                        block_on(fs.read_field(&key(step))).unwrap().as_ref(),
                        format!("field-{step}").as_bytes(),
                        "mode {mode} window {window}"
                    );
                }
            }
        }
    }

    #[test]
    fn pipelined_writer_delivers_callbacks() {
        use std::rc::Rc;
        let fs = store(FieldIoMode::Full);
        let done: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        block_on(async {
            let mut w = fs.pipelined_writer(4);
            for step in [0u32, 24, 48] {
                let done = Rc::clone(&done);
                w.submit_with(&key(step), Bytes::from_static(b"x"), move |r| {
                    r.unwrap();
                    done.borrow_mut().push(step);
                })
                .await
                .unwrap();
            }
            w.flush().await.unwrap();
        });
        let mut got = done.borrow().clone();
        got.sort();
        assert_eq!(got, vec![0, 24, 48]);
    }

    #[test]
    fn pipelined_writer_reports_write_behind_errors() {
        // A pool too small for the field: the failure surfaces on flush
        // (write-behind), attributed to write_field with its key.
        let pool = Rc::new(Pool::new(Uuid::from_name(b"tiny-pipelined"), 4, 4096));
        let fs = block_on(FieldStore::connect(
            EmbeddedClient::new(pool),
            FieldIoConfig::default(),
            1,
        ))
        .unwrap();
        let err = block_on(async {
            let mut w = fs.pipelined_writer(2);
            let _ = w.submit(&key(0), Bytes::from(vec![0u8; 1 << 20])).await;
            w.flush().await
        });
        match err {
            Err(e) => assert!(e.daos_source().is_some(), "{e:?}"),
            Ok(()) => panic!("expected a write-behind error"),
        }
    }

    #[test]
    fn read_fields_pipelined_preserves_input_order() {
        for mode in FieldIoMode::all() {
            let fs = store(mode);
            for step in 0..8u32 {
                block_on(fs.write_field(&key(step), Bytes::from(format!("v{step}")))).unwrap();
            }
            let mut keys: Vec<FieldKey> = (0..8u32).map(key).collect();
            keys.push(key(999)); // never written
            let out = block_on(fs.read_fields_pipelined(&keys, 4));
            assert_eq!(out.len(), 9);
            for (step, r) in out.iter().take(8).enumerate() {
                assert_eq!(
                    r.as_ref().unwrap().as_ref(),
                    format!("v{step}").as_bytes(),
                    "mode {mode}"
                );
            }
            match &out[8] {
                Err(FieldIoError::FieldNotFound(_)) => {}
                other => panic!("mode {mode}: expected FieldNotFound, got {other:?}"),
            }
        }
    }

    /// Golden names: the canonical key text of the cycle and benchmark
    /// keys, their split, and the md5-derived forecast KV and container
    /// names it yields. Changing how keys are held must not rename a
    /// single container.
    #[test]
    fn key_text_and_forecast_names_are_pinned() {
        use crate::cycle::{cycle_key, IndexLayout};
        use crate::workload::{Contention, KeyGen};
        let cases = [
            (
                cycle_key(IndexLayout::Shared, 3, 14, 2),
                "class=od,date=20290101,expver=0001,field=w3x2,number=0,step=14,stream=oper,time=0000",
                "class=od,date=20290101,expver=0001,number=0,stream=oper,time=0000",
                "field=w3x2,step=14",
                0x00000003b8fb6c0e3df6ba1fa6771146,
                "cc797819-dc84-b784-cac3-6d973126f067",
                "16797f08-bbe0-b83a-8bae-585f1da50c4b",
            ),
            (
                cycle_key(IndexLayout::PerProcess, 3, 14, 2),
                "class=od,date=20290101,expver=0001,field=2,number=3,step=14,stream=oper,time=0000",
                "class=od,date=20290101,expver=0001,number=3,stream=oper,time=0000",
                "field=2,step=14",
                0x00000003d89b8a8656c6c9caf35a4c98,
                "c0477f59-5c9e-f33c-ebc4-c011998d27b4",
                "ac36f719-238f-4de9-06f7-429cba8073fe",
            ),
            (
                KeyGen::new(Contention::High).field_key(5, 130),
                "class=od,date=20290101,expver=0001,levelist=925,param=t,shard=5,step=1,stream=oper,time=0000",
                "class=od,date=20290101,expver=0001,stream=oper,time=0000",
                "levelist=925,param=t,shard=5,step=1",
                0x0000000319993b47a1cd2a021dfaec0f,
                "f2c3fe53-04ed-75a9-c28e-0ab7d75aa0ae",
                "817c7dc7-89c4-729c-3cc0-85f877cb41f0",
            ),
            (
                KeyGen::new(Contention::Low).field_key(5, 130),
                "class=od,date=20290101,expver=0001,levelist=925,number=5,param=t,step=1,stream=oper,time=0000",
                "class=od,date=20290101,expver=0001,number=5,stream=oper,time=0000",
                "levelist=925,param=t,step=1",
                0x000000034bf9c9743b8ace8e61b7f942,
                "47af9a9d-0596-b856-0353-ddcbc46571aa",
                "67237245-ecfa-6e6a-fabc-d978f6355489",
            ),
        ];
        for (key, text, msk_text, lsk_text, fkv_bits, index_name, store_name) in cases {
            assert_eq!(key.canonical(), text);
            let (msk, lsk) = key.split(&KeySchema::ecmwf());
            assert_eq!((msk.canonical(), lsk.canonical()), (msk_text, lsk_text));
            let (fkv, index, store_uuid) = forecast_names(msk.canonical(), ObjectClass::SX);
            assert_eq!(fkv.as_u128(), fkv_bits, "{text}");
            assert_eq!(index.to_string(), index_name, "{text}");
            assert_eq!(store_uuid.to_string(), store_name, "{text}");
            // A field write creates exactly these containers.
            let fs = store(FieldIoMode::Full);
            block_on(fs.write_field(&key, Bytes::from_static(b"grib"))).unwrap();
            block_on(fs.client().cont_open(index)).unwrap();
            block_on(fs.client().cont_open(store_uuid)).unwrap();
        }
    }
}
