//! Containers: per-dataset object namespaces with their own id space.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use bytes::Bytes;

use crate::array::ArrayObject;
use crate::error::{DaosError, Result};
use crate::kv::KvObject;
use crate::oid::Oid;
use crate::uuid::Uuid;

/// Aggregate content statistics of a container.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContainerStats {
    pub objects: usize,
    pub kv_objects: usize,
    pub array_objects: usize,
    pub kv_entries: usize,
    /// Live array extent bytes (trimmed extents excluded).
    pub array_bytes: u64,
}

/// An object stored in a container.
#[derive(Debug, Clone)]
pub enum Object {
    Kv(KvObject),
    Array(ArrayObject),
}

/// Running operation totals of one container. The observability
/// registry folds these into `objstore.*` counters.
#[derive(Default, Debug)]
struct OpTally {
    kv_updates: Cell<u64>,
    kv_fetches: Cell<u64>,
    array_updates: Cell<u64>,
    array_fetches: Cell<u64>,
}

fn bump(counter: &Cell<u64>, n: u64) {
    counter.set(counter.get() + n);
}

/// Point-in-time copy of a container's operation totals. Updates count
/// `kv_put`/`kv_remove` and `array_write`/`array_set_parity`; fetches
/// count `kv_get`/`kv_list_keys` and `array_read`/`array_parity`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    pub kv_updates: u64,
    pub kv_fetches: u64,
    pub array_updates: u64,
    pub array_fetches: u64,
}

/// A transactional object namespace. Single-threaded: every method is
/// synchronous and borrows the object table once, so each call is atomic
/// with respect to the simulated tasks that share the container.
pub struct Container {
    uuid: Uuid,
    objects: RefCell<HashMap<Oid, Object>>,
    ops: OpTally,
}

impl Container {
    pub fn new(uuid: Uuid) -> Self {
        Container {
            uuid,
            objects: RefCell::new(HashMap::new()),
            ops: OpTally::default(),
        }
    }

    /// Operation totals since creation.
    pub fn op_counts(&self) -> OpCounts {
        OpCounts {
            kv_updates: self.ops.kv_updates.get(),
            kv_fetches: self.ops.kv_fetches.get(),
            array_updates: self.ops.array_updates.get(),
            array_fetches: self.ops.array_fetches.get(),
        }
    }

    pub fn uuid(&self) -> Uuid {
        self.uuid
    }

    pub fn object_count(&self) -> usize {
        self.objects.borrow().len()
    }

    pub fn obj_exists(&self, oid: Oid) -> bool {
        self.objects.borrow().contains_key(&oid)
    }

    /// Runs `f` on KV `oid`, materializing it first if absent (DAOS KVs
    /// materialize on first update).
    fn kv_update<T>(&self, oid: Oid, f: impl FnOnce(&mut KvObject) -> T) -> Result<T> {
        let mut table = self.objects.borrow_mut();
        match table
            .entry(oid)
            .or_insert_with(|| Object::Kv(KvObject::new()))
        {
            Object::Kv(kv) => Ok(f(kv)),
            Object::Array(_) => Err(DaosError::WrongType(oid)),
        }
    }

    /// Runs `f` on KV `oid`; a never-written KV reads as `missing`.
    fn kv_read<T>(&self, oid: Oid, missing: T, f: impl FnOnce(&KvObject) -> T) -> Result<T> {
        match self.objects.borrow().get(&oid) {
            None => Ok(missing),
            Some(Object::Kv(kv)) => Ok(f(kv)),
            Some(Object::Array(_)) => Err(DaosError::WrongType(oid)),
        }
    }

    /// Runs `f` on the existing Array `oid`.
    fn array<T>(&self, oid: Oid, f: impl FnOnce(&mut ArrayObject) -> T) -> Result<T> {
        match self.objects.borrow_mut().get_mut(&oid) {
            None => Err(DaosError::ObjNotFound(oid)),
            Some(Object::Array(a)) => Ok(f(a)),
            Some(Object::Kv(_)) => Err(DaosError::WrongType(oid)),
        }
    }

    // -- Key-Value API ----------------------------------------------------

    /// `Ok` when a KV update of `oid` would land: `oid` is a KV, or
    /// nothing yet (a KV materializes on first update).
    pub(crate) fn check_kv(&self, oid: Oid) -> Result<()> {
        self.kv_read(oid, (), |_| ())
    }

    /// Inserts `key` into KV `oid`; returns the previous value, if any.
    /// Uncharged: callers go through [`Pool::kv_put`](crate::Pool::kv_put).
    pub(crate) fn kv_put(&self, oid: Oid, key: &[u8], value: Bytes) -> Result<Option<Bytes>> {
        bump(&self.ops.kv_updates, 1);
        self.kv_update(oid, |kv| kv.put(key, value))
    }

    /// Vectorized insert into KV `oid`: all pairs land in one call (the
    /// batch the event-queue layer ships as a single request). Equivalent
    /// to `kv_put` of each pair in order. Uncharged, like `kv_put`.
    pub(crate) fn kv_put_multi(&self, oid: Oid, pairs: &[(Bytes, Bytes)]) -> Result<()> {
        bump(&self.ops.kv_updates, pairs.len() as u64);
        self.kv_update(oid, |kv| kv.put_many(pairs))
    }

    pub fn kv_get(&self, oid: Oid, key: &[u8]) -> Result<Option<Bytes>> {
        bump(&self.ops.kv_fetches, 1);
        self.kv_read(oid, None, |kv| kv.get(key))
    }

    /// Removes `key` from KV `oid`; callers go through
    /// [`Pool::kv_remove`](crate::Pool::kv_remove).
    pub(crate) fn kv_remove(&self, oid: Oid, key: &[u8]) -> Result<Option<Bytes>> {
        bump(&self.ops.kv_updates, 1);
        match self.objects.borrow_mut().get_mut(&oid) {
            None => Err(DaosError::ObjNotFound(oid)),
            Some(Object::Kv(kv)) => Ok(kv.remove(key)),
            Some(Object::Array(_)) => Err(DaosError::WrongType(oid)),
        }
    }

    pub fn kv_list_keys(&self, oid: Oid) -> Result<Vec<Bytes>> {
        self.kv_list_range(oid, b"", None)
    }

    /// Keys of KV `oid` in `[from, until)` (`until = None` means
    /// unbounded), ordered. A never-written KV lists as empty.
    pub fn kv_list_range(&self, oid: Oid, from: &[u8], until: Option<&[u8]>) -> Result<Vec<Bytes>> {
        bump(&self.ops.kv_fetches, 1);
        self.kv_read(oid, Vec::new(), |kv| kv.list_range(from, until))
    }

    /// Keys of KV `oid` starting with `prefix`, ordered.
    pub fn kv_list_prefix(&self, oid: Oid, prefix: &[u8]) -> Result<Vec<Bytes>> {
        bump(&self.ops.kv_fetches, 1);
        self.kv_read(oid, Vec::new(), |kv| kv.list_prefix(prefix))
    }

    // -- Array API ---------------------------------------------------------

    /// Creates Array `oid`; fails if an object with that id exists.
    pub fn array_create(&self, oid: Oid) -> Result<()> {
        self.import_object(oid, Object::Array(ArrayObject::new()))
    }

    /// Opens Array `oid` — i.e. verifies existence and type.
    pub fn array_open(&self, oid: Oid) -> Result<()> {
        self.array(oid, |_| ())
    }

    /// Creates Array `oid` if absent (the `no-index` mode re-write path,
    /// where the md5-derived oid is stable across re-writes).
    pub fn array_open_or_create(&self, oid: Oid) -> Result<()> {
        match self.array_create(oid) {
            Ok(()) => Ok(()),
            Err(DaosError::ObjExists(_)) => self.array_open(oid),
            Err(e) => Err(e),
        }
    }

    /// Scatter-gather write: every `(offset, data)` extent lands in one
    /// call, in order. Uncharged and unchecked: callers go through
    /// [`Pool::array_write`](crate::Pool::array_write).
    pub(crate) fn array_write(&self, oid: Oid, iovs: &[(u64, Bytes)]) -> Result<()> {
        bump(&self.ops.array_updates, iovs.len() as u64);
        self.array(oid, |a| a.write_many(iovs))
    }

    pub fn array_read(&self, oid: Oid, offset: u64, len: u64) -> Result<Bytes> {
        bump(&self.ops.array_fetches, 1);
        self.array(oid, |a| a.read(offset, len))
    }

    pub fn array_size(&self, oid: Oid) -> Result<u64> {
        self.array(oid, |a| a.size())
    }

    /// Stores the EC parity cell of an Array object. Uncharged, like
    /// `array_write`.
    pub(crate) fn array_set_parity(&self, oid: Oid, parity: Bytes) -> Result<()> {
        bump(&self.ops.array_updates, 1);
        self.array(oid, |a| a.set_parity(parity))
    }

    /// Fetches the EC parity cell of an Array object.
    pub fn array_parity(&self, oid: Oid) -> Result<Option<Bytes>> {
        bump(&self.ops.array_fetches, 1);
        self.array(oid, |a| a.parity())
    }

    /// Punches (drops the contents of) an object of either type.
    pub fn obj_punch(&self, oid: Oid) -> Result<()> {
        let removed = self.objects.borrow_mut().remove(&oid);
        removed.map(|_| ()).ok_or(DaosError::ObjNotFound(oid))
    }

    /// Clones an object out of the container (snapshots, tooling).
    pub fn export_object(&self, oid: Oid) -> Result<Object> {
        (self.objects.borrow().get(&oid).cloned()).ok_or(DaosError::ObjNotFound(oid))
    }

    /// Inserts a fully formed object (snapshot restore). Fails if the id
    /// is taken.
    pub fn import_object(&self, oid: Oid, object: Object) -> Result<()> {
        let mut table = self.objects.borrow_mut();
        if table.contains_key(&oid) {
            return Err(DaosError::ObjExists(oid));
        }
        table.insert(oid, object);
        Ok(())
    }

    /// Walks the container and aggregates content statistics.
    pub fn stats(&self) -> ContainerStats {
        let table = self.objects.borrow();
        let mut s = ContainerStats {
            objects: table.len(),
            ..Default::default()
        };
        for obj in table.values() {
            match obj {
                Object::Kv(kv) => {
                    s.kv_objects += 1;
                    s.kv_entries += kv.len();
                }
                Object::Array(a) => {
                    s.array_objects += 1;
                    s.array_bytes += a.stored_bytes();
                }
            }
        }
        s
    }

    /// All object ids, ordered (diagnostics and tooling).
    pub fn list_objects(&self) -> Vec<Oid> {
        let mut v: Vec<Oid> = self.objects.borrow().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// All Array object ids, ordered (reclamation passes).
    pub fn list_arrays(&self) -> Vec<Oid> {
        let table = self.objects.borrow();
        let mut v: Vec<Oid> = table
            .iter()
            .filter(|(_, o)| matches!(o, Object::Array(_)))
            .map(|(oid, _)| *oid)
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::ObjectClass;

    fn c() -> Container {
        Container::new(Uuid::from_name(b"test"))
    }

    fn oid(n: u64) -> Oid {
        Oid::generate(1, n, ObjectClass::S1)
    }

    #[test]
    fn kv_materializes_on_first_put() {
        let c = c();
        assert!(!c.obj_exists(oid(1)));
        c.kv_put(oid(1), b"k", Bytes::from_static(b"v")).unwrap();
        assert!(c.obj_exists(oid(1)));
        assert_eq!(c.kv_get(oid(1), b"k").unwrap().unwrap().as_ref(), b"v");
    }

    #[test]
    fn kv_get_on_missing_object_is_none() {
        let c = c();
        assert_eq!(c.kv_get(oid(9), b"k").unwrap(), None);
        assert!(c.kv_list_keys(oid(9)).unwrap().is_empty());
    }

    #[test]
    fn array_create_then_duplicate_fails() {
        let c = c();
        c.array_create(oid(2)).unwrap();
        assert_eq!(c.array_create(oid(2)), Err(DaosError::ObjExists(oid(2))));
        c.array_open_or_create(oid(2)).unwrap();
    }

    #[test]
    fn array_ops_require_existing_object() {
        let c = c();
        assert_eq!(
            c.array_write(oid(3), &[(0, Bytes::from_static(b"x"))]),
            Err(DaosError::ObjNotFound(oid(3)))
        );
        assert_eq!(c.array_open(oid(3)), Err(DaosError::ObjNotFound(oid(3))));
    }

    #[test]
    fn type_confusion_is_rejected() {
        let c = c();
        c.kv_put(oid(4), b"k", Bytes::new()).unwrap();
        assert_eq!(c.array_open(oid(4)), Err(DaosError::WrongType(oid(4))));
        assert_eq!(
            c.array_read(oid(4), 0, 1),
            Err(DaosError::WrongType(oid(4)))
        );
        c.array_create(oid(5)).unwrap();
        assert_eq!(
            c.kv_put(oid(5), b"k", Bytes::new()),
            Err(DaosError::WrongType(oid(5)))
        );
    }

    #[test]
    fn punch_removes_object() {
        let c = c();
        c.array_create(oid(6)).unwrap();
        c.obj_punch(oid(6)).unwrap();
        assert_eq!(c.obj_punch(oid(6)), Err(DaosError::ObjNotFound(oid(6))));
        assert_eq!(c.object_count(), 0);
    }

    #[test]
    fn stats_aggregate_contents() {
        let c = c();
        c.kv_put(oid(1), b"a", Bytes::from_static(b"x")).unwrap();
        c.kv_put(oid(1), b"b", Bytes::from_static(b"y")).unwrap();
        c.array_create(oid(2)).unwrap();
        c.array_write(oid(2), &[(0, Bytes::from(vec![0u8; 500]))])
            .unwrap();
        let s = c.stats();
        assert_eq!(s.objects, 2);
        assert_eq!(s.kv_objects, 1);
        assert_eq!(s.array_objects, 1);
        assert_eq!(s.kv_entries, 2);
        assert_eq!(s.array_bytes, 500);
    }
}
