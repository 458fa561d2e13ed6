//! Pools: reserved storage spanning targets, hosting containers.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;

use crate::array::check_extents;
use crate::container::{Container, ContainerStats, OpCounts};
use crate::error::{DaosError, Result};
use crate::oid::Oid;
use crate::uuid::Uuid;

/// Default pool capacity when unspecified: effectively unlimited for
/// in-memory use.
pub const DEFAULT_POOL_CAPACITY: u64 = u64::MAX / 2;

/// A pool: a fixed-size slice of cluster storage, distributed over
/// `targets` targets, hosting any number of containers. Single-threaded
/// like the simulator that drives it: share one behind an `Rc`.
pub struct Pool {
    uuid: Uuid,
    targets: u32,
    capacity: u64,
    used: Cell<u64>,
    containers: RefCell<HashMap<Uuid, Rc<Container>>>,
}

impl Pool {
    pub fn new(uuid: Uuid, targets: u32, capacity: u64) -> Self {
        assert!(targets > 0, "pool needs at least one target");
        Pool {
            uuid,
            targets,
            capacity,
            used: Cell::new(0),
            containers: RefCell::new(HashMap::new()),
        }
    }

    pub fn uuid(&self) -> Uuid {
        self.uuid
    }

    pub fn targets(&self) -> u32 {
        self.targets
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    pub fn used(&self) -> u64 {
        self.used.get()
    }

    /// Charges an allocation against pool space; a charge past capacity
    /// (or past `u64::MAX`) is `NoSpace` and charges nothing. The store
    /// never refunds trimmed extents — matching the paper's field I/O
    /// design, which de-references but deliberately never deletes
    /// overwritten arrays.
    pub(crate) fn charge(&self, bytes: u64) -> Result<()> {
        let used = (self.used.get().checked_add(bytes))
            .filter(|&used| used <= self.capacity)
            .ok_or(DaosError::NoSpace)?;
        self.used.set(used);
        Ok(())
    }

    // -- The store half of every occupancy-changing op ---------------------
    //
    // Both backends run these: `EmbeddedClient` directly, `SimClient` in
    // the commit stage of its RPC. Each checks the object, charges
    // everything the op stores as one amount, then mutates, so a failed
    // op charges and stores nothing, and no code outside this crate can
    // change occupancy without paying.

    /// KV update: charges key plus value, then inserts (creating the KV
    /// on first use).
    pub fn kv_put(&self, cont: &Container, oid: Oid, key: &[u8], value: Bytes) -> Result<()> {
        cont.check_kv(oid)?;
        self.charge((key.len() + value.len()) as u64)?;
        cont.kv_put(oid, key, value).map(drop)
    }

    /// Vectorized KV update: charges every pair at once, then inserts
    /// them in order. An empty batch is a no-op.
    pub fn kv_put_multi(&self, cont: &Container, oid: Oid, pairs: &[(Bytes, Bytes)]) -> Result<()> {
        if pairs.is_empty() {
            return Ok(());
        }
        cont.check_kv(oid)?;
        self.charge(pairs.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum())?;
        cont.kv_put_multi(oid, pairs)
    }

    /// KV key removal. An absent key, or a never-written KV, is a
    /// successful no-op.
    pub fn kv_remove(&self, cont: &Container, oid: Oid, key: &[u8]) -> Result<()> {
        match cont.kv_remove(oid, key) {
            Ok(_) | Err(DaosError::ObjNotFound(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Array update of `iovs`, plus the EC `parity` cell when the object
    /// has one: checks every extent and the object, charges the data and
    /// the parity together, then writes both. An empty batch is a no-op.
    pub fn array_write(
        &self,
        cont: &Container,
        oid: Oid,
        iovs: &[(u64, Bytes)],
        parity: Option<Bytes>,
    ) -> Result<()> {
        check_extents(iovs)?;
        if iovs.is_empty() {
            return Ok(());
        }
        cont.array_open(oid)?;
        let parity_len = parity.as_ref().map_or(0, |p| p.len() as u64);
        self.charge(iovs.iter().map(|(_, d)| d.len() as u64).sum::<u64>() + parity_len)?;
        cont.array_write(oid, iovs)?;
        if let Some(parity) = parity {
            cont.array_set_parity(oid, parity)?;
        }
        Ok(())
    }

    pub fn cont_create(&self, uuid: Uuid) -> Result<Rc<Container>> {
        let mut table = self.containers.borrow_mut();
        if table.contains_key(&uuid) {
            return Err(DaosError::ContExists(uuid));
        }
        let c = Rc::new(Container::new(uuid));
        table.insert(uuid, Rc::clone(&c));
        Ok(c)
    }

    pub fn cont_open(&self, uuid: Uuid) -> Result<Rc<Container>> {
        (self.containers.borrow().get(&uuid).cloned()).ok_or(DaosError::ContNotFound(uuid))
    }

    /// The create-or-open pattern the field I/O functions use with
    /// md5-derived container ids: every racing caller gets the one
    /// container.
    pub fn cont_open_or_create(&self, uuid: Uuid) -> Result<Rc<Container>> {
        let mut table = self.containers.borrow_mut();
        let c = table
            .entry(uuid)
            .or_insert_with(|| Rc::new(Container::new(uuid)));
        Ok(Rc::clone(c))
    }

    pub fn cont_destroy(&self, uuid: Uuid) -> Result<()> {
        let removed = self.containers.borrow_mut().remove(&uuid);
        removed.map(|_| ()).ok_or(DaosError::ContNotFound(uuid))
    }

    pub fn cont_count(&self) -> usize {
        self.containers.borrow().len()
    }

    /// Aggregates statistics over every container.
    pub fn stats(&self) -> ContainerStats {
        let mut total = ContainerStats::default();
        for c in self.containers.borrow().values() {
            let s = c.stats();
            total.objects += s.objects;
            total.kv_objects += s.kv_objects;
            total.array_objects += s.array_objects;
            total.kv_entries += s.kv_entries;
            total.array_bytes += s.array_bytes;
        }
        total
    }

    pub fn cont_list(&self) -> Vec<Uuid> {
        let mut v: Vec<Uuid> = self.containers.borrow().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Aggregates operation totals over every container (feeds the
    /// `objstore.*` metrics of the observability registry).
    pub fn op_counts(&self) -> OpCounts {
        let mut total = OpCounts::default();
        for c in self.containers.borrow().values() {
            let o = c.op_counts();
            total.kv_updates += o.kv_updates;
            total.kv_fetches += o.kv_fetches;
            total.array_updates += o.array_updates;
            total.array_fetches += o.array_fetches;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Pool {
        Pool::new(Uuid::from_name(b"pool"), 24, 1 << 30)
    }

    #[test]
    fn create_open_destroy() {
        let p = pool();
        let u = Uuid::from_name(b"c1");
        p.cont_create(u).unwrap();
        assert_eq!(p.cont_create(u).err(), Some(DaosError::ContExists(u)));
        assert_eq!(p.cont_open(u).unwrap().uuid(), u);
        p.cont_destroy(u).unwrap();
        assert_eq!(p.cont_open(u).err(), Some(DaosError::ContNotFound(u)));
    }

    #[test]
    fn capacity_enforced() {
        let p = Pool::new(Uuid::NIL, 1, 100);
        p.charge(60).unwrap();
        p.charge(40).unwrap();
        assert_eq!(p.charge(1), Err(DaosError::NoSpace));
        assert_eq!(p.used(), 100);
    }

    #[test]
    fn overflowing_charge_is_no_space() {
        // Regression: `used + bytes` overflowed (a panic in debug builds,
        // a wrapped `used` that accepted the write in release).
        let p = Pool::new(Uuid::NIL, 1, u64::MAX);
        p.charge(u64::MAX - 5).unwrap();
        assert_eq!(p.charge(11), Err(DaosError::NoSpace));
        assert_eq!(p.charge(u64::MAX), Err(DaosError::NoSpace));
        assert_eq!(p.used(), u64::MAX - 5);
        p.charge(5).unwrap();
        assert_eq!(p.used(), u64::MAX);
    }

    #[test]
    fn pool_stats_sum_containers() {
        let p = pool();
        let c1 = p.cont_create(Uuid::from_u64_pair(0, 1)).unwrap();
        let c2 = p.cont_create(Uuid::from_u64_pair(0, 2)).unwrap();
        use crate::oid::ObjectClass;
        c1.kv_put(
            Oid::generate(1, 1, ObjectClass::SX),
            b"k",
            Bytes::from_static(b"v"),
        )
        .unwrap();
        c2.array_create(Oid::generate(1, 2, ObjectClass::S1))
            .unwrap();
        c2.array_write(
            Oid::generate(1, 2, ObjectClass::S1),
            &[(0, Bytes::from(vec![0u8; 64]))],
        )
        .unwrap();
        let s = p.stats();
        assert_eq!(s.objects, 2);
        assert_eq!(s.kv_entries, 1);
        assert_eq!(s.array_bytes, 64);
    }

    #[test]
    fn cont_list_sorted() {
        let p = pool();
        let mut uuids: Vec<Uuid> = (0..5).map(|i| Uuid::from_u64_pair(0, i)).collect();
        for u in uuids.iter().rev() {
            p.cont_create(*u).unwrap();
        }
        uuids.sort_unstable();
        assert_eq!(p.cont_list(), uuids);
    }
}
