//! Who owns a `Bytes`' storage, and what building one costs.
//!
//! `From<Vec<u8>>`, `From<String>` and `BytesMut::freeze` adopt the
//! vector's heap buffer instead of copying it (a buffer under 4 KiB is
//! copied into one allocation instead), `copy_from_slice` and
//! `from_static` copy into exactly one allocation, and `slice` and
//! `clone` share storage. This binary installs a counting global
//! allocator (counting per thread, so the test harness's own threads do
//! not disturb a count) and pins each of those costs, then checks that
//! the storage kinds are indistinguishable by value.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::cmp::Ordering;
use std::hash::{BuildHasher, RandomState};

use bytes::{BufMut, Bytes, BytesMut};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also serves threads being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) made so far on this thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Runs `f` and returns its result with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocs();
    let out = f();
    (out, allocs() - before)
}

/// The smallest buffer the conversions adopt rather than copy.
const ADOPTED: usize = 4096;

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 % 251) as u8).collect()
}

#[test]
fn from_vec_keeps_the_vectors_buffer() {
    for len in [ADOPTED, ADOPTED + 1, 1 << 20] {
        let v = pattern(len);
        let ptr = v.as_ptr();
        let (b, n) = counted(|| Bytes::from(v));
        assert!(n <= 1, "len {len}: {n} allocations");
        assert_eq!(b.as_ptr(), ptr, "len {len}: buffer was copied");
        assert_eq!(b[..], pattern(len)[..]);
    }
}

#[test]
fn from_vec_keeps_spare_capacity_with_the_buffer() {
    let mut v = Vec::with_capacity(3 * ADOPTED);
    v.extend_from_slice(&pattern(ADOPTED + 7));
    let ptr = v.as_ptr();
    let (b, n) = counted(|| Bytes::from(v));
    assert!(n <= 1, "{n} allocations");
    assert_eq!(b.as_ptr(), ptr);
    assert_eq!(b.len(), ADOPTED + 7);
}

#[test]
fn from_string_keeps_the_strings_buffer() {
    let s = "x".repeat(ADOPTED);
    let ptr = s.as_ptr();
    let (b, n) = counted(|| Bytes::from(s));
    assert!(n <= 1, "{n} allocations");
    assert_eq!(b.as_ptr(), ptr);
}

#[test]
fn freeze_keeps_the_buffer() {
    let mut z = BytesMut::zeroed(1 << 16);
    z[100] = 7;
    let ptr = z.as_ptr();
    let (b, n) = counted(|| z.freeze());
    assert!(n <= 1, "zeroed: {n} allocations");
    assert_eq!(b.as_ptr(), ptr);
    assert_eq!(b[100], 7);

    let mut m = BytesMut::with_capacity(ADOPTED + 8);
    m.put_slice(&pattern(ADOPTED));
    m.put_u64(0x0102_0304_0506_0708);
    let ptr = m.as_ptr();
    let (b, n) = counted(|| m.freeze());
    assert!(n <= 1, "built: {n} allocations");
    assert_eq!(b.as_ptr(), ptr);
    assert_eq!(b[ADOPTED..], [1, 2, 3, 4, 5, 6, 7, 8]);
}

#[test]
fn small_buffers_cost_at_most_one_allocation() {
    for len in [0, 1, 37, ADOPTED - 1] {
        let v = pattern(len);
        let (b, n) = counted(|| Bytes::from(v));
        assert!(n <= 1, "vec len {len}: {n} allocations");
        assert_eq!(b[..], pattern(len)[..]);

        let mut m = BytesMut::with_capacity(len);
        m.put_slice(&pattern(len));
        let (b, n) = counted(|| m.freeze());
        assert!(n <= 1, "freeze len {len}: {n} allocations");
        assert_eq!(b[..], pattern(len)[..]);
    }
}

#[test]
fn copy_from_slice_allocates_once() {
    let src = pattern(ADOPTED);
    let (b, n) = counted(|| Bytes::copy_from_slice(&src));
    assert_eq!(n, 1);
    assert_ne!(b.as_ptr(), src.as_ptr());
    assert_eq!(b[..], src[..]);
}

#[test]
fn static_data_is_copied_once() {
    let (b, n) = counted(|| Bytes::from_static(b"a static buffer"));
    assert_eq!(n, 1, "from_static: {n} allocations");
    assert_eq!(b, *b"a static buffer");

    let text: &'static str = "static text";
    let (b, n) = counted(|| Bytes::from(text));
    assert_eq!(n, 1, "from &'static str: {n} allocations");
    assert_eq!(b[..], *text.as_bytes());

    let array: &'static [u8; 5] = b"array";
    let (b, n) = counted(|| Bytes::from(array));
    assert_eq!(n, 1, "from &'static [u8; N]: {n} allocations");
    assert_eq!(b, *array);

    assert!(Bytes::new().is_empty() && Bytes::default().is_empty());
    assert_eq!(Bytes::new(), Bytes::from_static(b""));
}

#[test]
fn a_slice_buf_fills_from_the_front() {
    let mut raw = [0u8; 13];
    let mut b = &mut raw[..];
    b.put_u8(0xAB);
    b.put_u32(0x0102_0304);
    b.put_u64(0x0506_0708_090A_0B0C);
    assert!(b.is_empty());
    assert_eq!(raw, [0xAB, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
}

#[test]
#[should_panic]
fn a_slice_buf_panics_when_full() {
    let mut raw = [0u8; 3];
    let mut b = &mut raw[..];
    b.put_u32(1);
}

/// One buffer of each storage kind holding `data`, each labelled.
fn every_kind(data: &[u8]) -> Vec<(&'static str, Bytes)> {
    let mut m = BytesMut::with_capacity(data.len());
    m.put_slice(data);
    let mut wide = vec![0xEE];
    wide.extend_from_slice(data);
    wide.push(0xEE);
    let wide = Bytes::from(wide);
    vec![
        ("copy_from_slice", Bytes::copy_from_slice(data)),
        ("from vec", Bytes::from(data.to_vec())),
        ("freeze", m.freeze()),
        ("window", wide.slice(1..=data.len())),
    ]
}

#[test]
fn slice_and_clone_allocate_nothing() {
    for len in [37, ADOPTED, 1 << 16] {
        for (kind, b) in every_kind(&pattern(len)) {
            let ((c, s), n) = counted(|| (b.clone(), b.slice(3..len - 1)));
            assert_eq!(n, 0, "{kind} len {len}: {n} allocations");
            assert_eq!(c.as_ptr(), b.as_ptr(), "{kind}: clone copied");
            assert_eq!(s.as_ptr(), b[3..].as_ptr(), "{kind}: slice copied");
            assert_eq!(s[..], b[3..len - 1]);
        }
    }
}

#[test]
fn every_storage_kind_compares_orders_and_hashes_alike() {
    let hasher = RandomState::new();
    for len in [0, 37, ADOPTED, ADOPTED + 3] {
        let data = pattern(len);
        let reference = Bytes::copy_from_slice(&data);
        let mut larger = data.clone();
        larger.push(0);
        let larger = Bytes::copy_from_slice(&larger);
        for (kind, b) in every_kind(&data) {
            assert_eq!(b, reference, "{kind} len {len}");
            assert_eq!(b, data, "{kind} len {len}: against Vec<u8>");
            assert_eq!(b.cmp(&reference), Ordering::Equal, "{kind} len {len}");
            assert_eq!(b.cmp(&larger), Ordering::Less, "{kind} len {len}");
            assert_eq!(larger.cmp(&b), Ordering::Greater, "{kind} len {len}");
            assert_eq!(
                hasher.hash_one(&b),
                hasher.hash_one(&reference),
                "{kind} len {len}"
            );
        }
    }
}

/// Every `Bytes` clone held by a store or an in-flight operation pays
/// for this size: four words.
#[test]
fn bytes_is_four_words() {
    assert_eq!(
        std::mem::size_of::<Bytes>(),
        4 * std::mem::size_of::<usize>()
    );
}

#[test]
fn bytes_is_send_and_sync() {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<Bytes>();
}
