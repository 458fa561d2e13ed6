//! Pool snapshots: serialise an embedded pool to a byte stream and back.
//!
//! The simulator never needs this, but an *embedded* store does: a tool
//! holding a weather-field archive in memory wants to persist it between
//! runs. The format is a small versioned binary codec (no external
//! serialisation dependency), written to any `io::Write`.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "DAOSNAP1" | pool uuid | targets u32 | capacity u64 | used u64
//! cont_count u32
//!   per container: uuid | obj_count u32
//!     per object: oid hi u64 | oid lo u64 | tag u8
//!       tag 0 (kv):    entry_count u32, then (klen u32, k, vlen u32, v)*
//!       tag 1 (array): size u64, seg_count u32, (off u64, len u32, bytes)*,
//!                      parity_len u32, parity bytes (0 = no parity)
//! ```

use std::io::{self, Read, Write};
use std::rc::Rc;

use bytes::Bytes;

use crate::array::ArrayObject;
use crate::container::Object;
use crate::kv::KvObject;
use crate::oid::Oid;
use crate::pool::Pool;
use crate::uuid::Uuid;

const MAGIC: &[u8; 8] = b"DAOSNAP1";

/// Errors from snapshot encode/decode.
#[derive(Debug)]
pub enum SnapshotError {
    Io(io::Error),
    BadMagic,
    Corrupt(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a daosim snapshot"),
            SnapshotError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

fn w_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn w_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn r_u8(r: &mut impl Read) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn r_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn r_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn r_bytes(r: &mut impl Read, len: usize) -> io::Result<Vec<u8>> {
    let mut v = vec![0u8; len];
    r.read_exact(&mut v)?;
    Ok(v)
}

/// Writes a pool snapshot.
pub fn save_pool(pool: &Pool, w: &mut impl Write) -> Result<(), SnapshotError> {
    w.write_all(MAGIC)?;
    w.write_all(pool.uuid().as_bytes())?;
    w_u32(w, pool.targets())?;
    w_u64(w, pool.capacity())?;
    w_u64(w, pool.used())?;
    let conts = pool.cont_list();
    w_u32(w, conts.len() as u32)?;
    for cu in conts {
        let cont = pool.cont_open(cu).expect("listed container must open");
        w.write_all(cu.as_bytes())?;
        let oids = cont.list_objects();
        w_u32(w, oids.len() as u32)?;
        for oid in oids {
            let (hi, lo) = oid_raw(oid);
            w_u64(w, hi)?;
            w_u64(w, lo)?;
            match cont.export_object(oid).expect("listed object must exist") {
                Object::Kv(kv) => {
                    w.write_all(&[0u8])?;
                    w_u32(w, kv.len() as u32)?;
                    for (k, v) in kv.iter() {
                        w_u32(w, k.len() as u32)?;
                        w.write_all(k)?;
                        w_u32(w, v.len() as u32)?;
                        w.write_all(v)?;
                    }
                }
                Object::Array(a) => {
                    w.write_all(&[1u8])?;
                    w_u64(w, a.size())?;
                    let segs: Vec<(u64, Bytes)> = a.segments().collect();
                    w_u32(w, segs.len() as u32)?;
                    for (off, data) in segs {
                        w_u64(w, off)?;
                        w_u32(w, data.len() as u32)?;
                        w.write_all(&data)?;
                    }
                    match a.parity() {
                        Some(parity) => {
                            w_u32(w, parity.len() as u32)?;
                            w.write_all(&parity)?;
                        }
                        None => w_u32(w, 0)?,
                    }
                }
            }
        }
    }
    Ok(())
}

/// Reads a pool snapshot.
pub fn load_pool(r: &mut impl Read) -> Result<Rc<Pool>, SnapshotError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let uuid = Uuid(r_bytes(r, 16)?.try_into().expect("sized"));
    let targets = r_u32(r)?;
    if targets == 0 {
        return Err(SnapshotError::Corrupt("zero targets"));
    }
    let capacity = r_u64(r)?;
    let used = r_u64(r)?;
    let pool = Rc::new(Pool::new(uuid, targets, capacity));
    pool.charge(used)
        .map_err(|_| SnapshotError::Corrupt("used exceeds capacity"))?;
    let cont_count = r_u32(r)?;
    for _ in 0..cont_count {
        let cu = Uuid(r_bytes(r, 16)?.try_into().expect("sized"));
        let cont = pool
            .cont_create(cu)
            .map_err(|_| SnapshotError::Corrupt("duplicate container"))?;
        let obj_count = r_u32(r)?;
        for _ in 0..obj_count {
            let hi = r_u64(r)?;
            let lo = r_u64(r)?;
            let oid = oid_from_raw(hi, lo).ok_or(SnapshotError::Corrupt("invalid object class"))?;
            match r_u8(r)? {
                0 => {
                    let entries = r_u32(r)?;
                    let mut kv = KvObject::new();
                    for _ in 0..entries {
                        let klen = r_u32(r)? as usize;
                        let k = r_bytes(r, klen)?;
                        let vlen = r_u32(r)? as usize;
                        let v = r_bytes(r, vlen)?;
                        kv.put(&k, Bytes::from(v));
                    }
                    cont.import_object(oid, Object::Kv(kv))
                        .map_err(|_| SnapshotError::Corrupt("duplicate object"))?;
                }
                1 => {
                    let size = r_u64(r)?;
                    let segs = r_u32(r)?;
                    let mut a = ArrayObject::new();
                    for _ in 0..segs {
                        let off = r_u64(r)?;
                        let len = r_u32(r)? as usize;
                        let data = r_bytes(r, len)?;
                        a.write(off, Bytes::from(data));
                    }
                    if a.size() > size {
                        return Err(SnapshotError::Corrupt("array larger than recorded size"));
                    }
                    let plen = r_u32(r)? as usize;
                    if plen > 0 {
                        a.set_parity(Bytes::from(r_bytes(r, plen)?));
                    }
                    cont.import_object(oid, Object::Array(a))
                        .map_err(|_| SnapshotError::Corrupt("duplicate object"))?;
                }
                _ => return Err(SnapshotError::Corrupt("unknown object tag")),
            }
        }
    }
    Ok(pool)
}

fn oid_raw(oid: Oid) -> (u64, u64) {
    let v = oid.as_u128();
    ((v >> 64) as u64, v as u64)
}

fn oid_from_raw(hi: u64, lo: u64) -> Option<Oid> {
    use crate::oid::ObjectClass;
    let class = match (hi >> 32) as u32 {
        1 => ObjectClass::S1,
        2 => ObjectClass::S2,
        3 => ObjectClass::SX,
        4 => ObjectClass::RP2,
        5 => ObjectClass::EC2P1,
        _ => return None,
    };
    Some(Oid::generate(hi as u32, lo, class))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::ObjectClass;
    use crate::pool::DEFAULT_POOL_CAPACITY;

    fn unbounded_pool(targets: u32) -> Pool {
        Pool::new(Uuid::from_name(b"pool"), targets, DEFAULT_POOL_CAPACITY)
    }

    fn sample_pool() -> Pool {
        let pool = unbounded_pool(24);
        let c1 = pool.cont_create(Uuid::from_name(b"c1")).unwrap();
        let c2 = pool.cont_create(Uuid::from_name(b"c2")).unwrap();
        let kv = Oid::generate(1, 1, ObjectClass::SX);
        pool.kv_put(&c1, kv, b"step=0", Bytes::from_static(b"ref0"))
            .unwrap();
        pool.kv_put(&c1, kv, b"step=24", Bytes::from_static(b"ref24"))
            .unwrap();
        let a = Oid::generate(1, 2, ObjectClass::S1);
        c2.array_create(a).unwrap();
        let iovs = [
            (0, Bytes::from(vec![9u8; 4096])),
            (10_000, Bytes::from_static(b"tail")),
        ];
        pool.array_write(&c2, a, &iovs, None).unwrap();
        assert_eq!(pool.used(), 22 + 4100);
        pool
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let pool = sample_pool();
        let mut buf = Vec::new();
        save_pool(&pool, &mut buf).unwrap();
        let loaded = load_pool(&mut buf.as_slice()).unwrap();

        assert_eq!(loaded.uuid(), pool.uuid());
        assert_eq!(loaded.targets(), pool.targets());
        assert_eq!(loaded.used(), pool.used());
        assert_eq!(loaded.cont_list(), pool.cont_list());
        let c1 = loaded.cont_open(Uuid::from_name(b"c1")).unwrap();
        let kv = Oid::generate(1, 1, ObjectClass::SX);
        assert_eq!(c1.kv_get(kv, b"step=0").unwrap().unwrap().as_ref(), b"ref0");
        assert_eq!(c1.kv_list_keys(kv).unwrap().len(), 2);
        let c2 = loaded.cont_open(Uuid::from_name(b"c2")).unwrap();
        let a = Oid::generate(1, 2, ObjectClass::S1);
        assert_eq!(
            c2.array_read(a, 0, 4096).unwrap(),
            Bytes::from(vec![9u8; 4096])
        );
        assert_eq!(c2.array_read(a, 10_000, 4).unwrap().as_ref(), b"tail");
        assert_eq!(c2.array_size(a).unwrap(), 10_004);
        // Holes survive as holes.
        assert_eq!(c2.array_read(a, 5000, 4).unwrap().as_ref(), b"\0\0\0\0");
    }

    #[test]
    fn parity_survives_roundtrip() {
        let pool = unbounded_pool(24);
        let c = pool.cont_create(Uuid::from_name(b"ec")).unwrap();
        let o = Oid::generate(2, 9, ObjectClass::EC2P1);
        c.array_create(o).unwrap();
        let iov = [(0, Bytes::from_static(b"payload!"))];
        (pool.array_write(&c, o, &iov, Some(Bytes::from_static(b"par")))).unwrap();
        let mut buf = Vec::new();
        save_pool(&pool, &mut buf).unwrap();
        let loaded = load_pool(&mut buf.as_slice()).unwrap();
        let lc = loaded.cont_open(Uuid::from_name(b"ec")).unwrap();
        assert_eq!(lc.array_parity(o).unwrap().unwrap().as_ref(), b"par");
        assert_eq!(lc.array_read(o, 0, 8).unwrap().as_ref(), b"payload!");
    }

    #[test]
    fn bad_magic_rejected() {
        let mut data = b"NOTASNAP".to_vec();
        data.extend_from_slice(&[0u8; 64]);
        let err = load_pool(&mut data.as_slice()).err().expect("must fail");
        match err {
            SnapshotError::BadMagic => {}
            other => panic!("expected BadMagic, got {other}"),
        }
    }

    #[test]
    fn truncated_stream_rejected() {
        let pool = sample_pool();
        let mut buf = Vec::new();
        save_pool(&pool, &mut buf).unwrap();
        for cut in [9, 20, 40, buf.len() - 1] {
            assert!(
                load_pool(&mut &buf[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn empty_pool_roundtrips() {
        let pool = unbounded_pool(8);
        let mut buf = Vec::new();
        save_pool(&pool, &mut buf).unwrap();
        let loaded = load_pool(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.cont_count(), 0);
        assert_eq!(loaded.targets(), 8);
    }

    #[test]
    fn file_roundtrip() {
        let pool = sample_pool();
        let path = std::env::temp_dir().join("daosim-snapshot-test.bin");
        {
            let mut f = std::fs::File::create(&path).unwrap();
            save_pool(&pool, &mut f).unwrap();
        }
        let mut f = std::fs::File::open(&path).unwrap();
        let loaded = load_pool(&mut f).unwrap();
        assert_eq!(loaded.cont_count(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
