//! Filesystem-oracle property test: random namespace programs run both
//! against `DfsHandle` over the embedded backend and against a plain
//! `BTreeMap` tree model, and every observation — success, typed error
//! (variant *and* canonical path), stat, readdir listing, read bytes —
//! must match exactly. This pins the POSIX corner semantics (walk-order
//! errors, EOF clamping, hole zero-fill, empty-dir unlink, rename
//! replace/cycle rules) to an executable specification.

use std::collections::BTreeMap;

use bytes::Bytes;
use daosim_dfs::{canonical, normalize, DfsError, DfsHandle, FileKind};
use daosim_objstore::prelude::{EmbeddedClient, Uuid};
use daosim_objstore::DaosStore;
use proptest::prelude::*;

fn block_on<F: std::future::Future>(fut: F) -> F::Output {
    let waker = std::task::Waker::noop();
    let mut cx = std::task::Context::from_waker(waker);
    let mut fut = std::pin::pin!(fut);
    match fut.as_mut().poll(&mut cx) {
        std::task::Poll::Ready(v) => v,
        std::task::Poll::Pending => panic!("embedded backend suspended"),
    }
}

// ---------------------------------------------------------------------------
// The model: a BTreeMap tree with DfsHandle's exact error discipline.

#[derive(Clone, Debug)]
enum Node {
    Dir(BTreeMap<String, Node>),
    File(Vec<u8>),
}

struct Model {
    root: BTreeMap<String, Node>,
}

/// Model errors render to the same `variant:path` observation strings as
/// the real `DfsError`s.
type Obs = Result<String, String>;

fn err(variant: &str, path: &str) -> Obs {
    Err(format!("{variant}:{path}"))
}

fn obs_of(e: &DfsError) -> String {
    match e {
        DfsError::NotFound(p) => format!("NotFound:{p}"),
        DfsError::NotADirectory(p) => format!("NotADirectory:{p}"),
        DfsError::IsADirectory(p) => format!("IsADirectory:{p}"),
        DfsError::Exists(p) => format!("Exists:{p}"),
        DfsError::NotEmpty(p) => format!("NotEmpty:{p}"),
        DfsError::InvalidPath(p) => format!("InvalidPath:{p}"),
        DfsError::BadDirent(p) => format!("BadDirent:{p}"),
        DfsError::Daos { op, path, source } => format!("Daos:{op}:{path}:{source}"),
    }
}

impl Model {
    fn new() -> Self {
        Model {
            root: BTreeMap::new(),
        }
    }

    /// Mirrors `DfsHandle::resolve_dir`: walk insisting on directories,
    /// reporting the first offending prefix.
    fn resolve_dir(&mut self, comps: &[String]) -> Result<&mut BTreeMap<String, Node>, String> {
        let mut cur = &mut self.root;
        for (i, c) in comps.iter().enumerate() {
            let here = canonical(&comps[..i + 1]);
            match cur.get_mut(c) {
                None => return Err(format!("NotFound:{here}")),
                Some(Node::Dir(d)) => cur = d,
                Some(Node::File(_)) => return Err(format!("NotADirectory:{here}")),
            }
        }
        Ok(cur)
    }

    fn lookup(&mut self, comps: &[String]) -> Result<Option<&mut Node>, String> {
        let (name, parent) = comps.split_last().expect("caller rejects the root");
        Ok(self.resolve_dir(parent)?.get_mut(name.as_str()))
    }

    fn mkdir(&mut self, comps: &[String]) -> Obs {
        if comps.is_empty() {
            return err("Exists", "/");
        }
        let canon = canonical(comps);
        let (name, parent) = comps.split_last().unwrap();
        let dir = self.resolve_dir(parent)?;
        if dir.contains_key(name.as_str()) {
            return err("Exists", &canon);
        }
        dir.insert(name.clone(), Node::Dir(BTreeMap::new()));
        Ok("ok".into())
    }

    fn create(&mut self, comps: &[String]) -> Obs {
        if comps.is_empty() {
            return err("IsADirectory", "/");
        }
        let canon = canonical(comps);
        let (name, parent) = comps.split_last().unwrap();
        let dir = self.resolve_dir(parent)?;
        if dir.contains_key(name.as_str()) {
            return err("Exists", &canon);
        }
        dir.insert(name.clone(), Node::File(Vec::new()));
        Ok("ok".into())
    }

    /// open-for-write + write + close, as the driver performs them.
    fn write(&mut self, comps: &[String], off: usize, data: &[u8]) -> Obs {
        if comps.is_empty() {
            return err("IsADirectory", "/");
        }
        let canon = canonical(comps);
        match self.lookup(comps)? {
            None => err("NotFound", &canon),
            Some(Node::Dir(_)) => err("IsADirectory", &canon),
            Some(Node::File(bytes)) => {
                let end = off + data.len();
                if bytes.len() < end {
                    bytes.resize(end, 0); // holes read back as zeros
                }
                bytes[off..end].copy_from_slice(data);
                Ok("ok".into())
            }
        }
    }

    /// open + read + close: clamped at EOF, never past size.
    fn read(&mut self, comps: &[String], off: usize, len: usize) -> Obs {
        if comps.is_empty() {
            return err("IsADirectory", "/");
        }
        let canon = canonical(comps);
        match self.lookup(comps)? {
            None => err("NotFound", &canon),
            Some(Node::Dir(_)) => err("IsADirectory", &canon),
            Some(Node::File(bytes)) => {
                let start = off.min(bytes.len());
                let end = (off + len).min(bytes.len());
                Ok(format!("read:{:02x?}", &bytes[start..end]))
            }
        }
    }

    fn stat(&mut self, comps: &[String]) -> Obs {
        if comps.is_empty() {
            return Ok("stat:dir:0".into());
        }
        let canon = canonical(comps);
        match self.lookup(comps)? {
            None => err("NotFound", &canon),
            Some(Node::Dir(_)) => Ok("stat:dir:0".into()),
            Some(Node::File(b)) => Ok(format!("stat:file:{}", b.len())),
        }
    }

    fn readdir(&mut self, comps: &[String]) -> Obs {
        let dir = self.resolve_dir(comps)?;
        let rows: Vec<String> = dir
            .iter()
            .map(|(name, node)| match node {
                Node::Dir(_) => format!("{name}=dir:0"),
                Node::File(b) => format!("{name}=file:{}", b.len()),
            })
            .collect();
        Ok(format!("ls:{}", rows.join(",")))
    }

    fn unlink(&mut self, comps: &[String]) -> Obs {
        if comps.is_empty() {
            return err("InvalidPath", "/");
        }
        let canon = canonical(comps);
        let (name, parent) = comps.split_last().unwrap();
        let dir = self.resolve_dir(parent)?;
        match dir.get(name.as_str()) {
            None => return err("NotFound", &canon),
            Some(Node::Dir(d)) if !d.is_empty() => return err("NotEmpty", &canon),
            Some(_) => {}
        }
        dir.remove(name.as_str());
        Ok("ok".into())
    }

    fn rename(&mut self, s: &[String], d: &[String]) -> Obs {
        if s.is_empty() || d.is_empty() {
            return err("InvalidPath", "/");
        }
        let s_canon = canonical(s);
        let d_canon = canonical(d);
        // Source must resolve first (DfsHandle checks src before dst).
        let src_is_dir = match self.lookup(s)? {
            None => return err("NotFound", &s_canon),
            Some(Node::Dir(_)) => true,
            Some(Node::File(_)) => false,
        };
        if s == d {
            return Ok("ok".into());
        }
        if src_is_dir && d.len() > s.len() && d[..s.len()] == s[..] {
            return err("InvalidPath", &d_canon);
        }
        // Destination parent resolves next; then the replace rules.
        let (d_name, d_parent) = d.split_last().unwrap();
        match self.resolve_dir(d_parent)?.get(d_name.as_str()) {
            None => {}
            Some(Node::File(_)) if !src_is_dir => {} // file replaces file
            Some(_) => return err("Exists", &d_canon),
        }
        let (s_name, s_parent) = s.split_last().unwrap();
        let node = self
            .resolve_dir(s_parent)
            .expect("src parent resolved above")
            .remove(s_name.as_str())
            .expect("src entry resolved above");
        self.resolve_dir(d_parent)
            .expect("dst parent resolved above")
            .insert(d_name.clone(), node);
        Ok("ok".into())
    }
}

// ---------------------------------------------------------------------------
// Program generation: short paths over a 4-name alphabet so programs
// collide on purpose (same entries hit by mkdir/create/rename/unlink).

const NAMES: [&str; 4] = ["a", "b", "c", "d"];

#[derive(Clone, Debug)]
enum Op {
    Mkdir(Vec<u8>),
    Create(Vec<u8>),
    Write {
        path: Vec<u8>,
        off: u16,
        len: u16,
        fill: u8,
    },
    Read {
        path: Vec<u8>,
        off: u16,
        len: u16,
    },
    Stat(Vec<u8>),
    Readdir(Vec<u8>),
    Unlink(Vec<u8>),
    Rename(Vec<u8>, Vec<u8>),
}

fn path() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..NAMES.len() as u8, 0..4)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        path().prop_map(Op::Mkdir),
        path().prop_map(Op::Create),
        (path(), 0u16..200, 0u16..200, any::<u8>()).prop_map(|(path, off, len, fill)| Op::Write {
            path,
            off,
            len,
            fill
        }),
        (path(), 0u16..300, 0u16..300).prop_map(|(path, off, len)| Op::Read { path, off, len }),
        path().prop_map(Op::Stat),
        path().prop_map(Op::Readdir),
        path().prop_map(Op::Unlink),
        (path(), path()).prop_map(|(s, d)| Op::Rename(s, d)),
    ]
}

fn comps(ids: &[u8]) -> Vec<String> {
    ids.iter().map(|&i| NAMES[i as usize].to_string()).collect()
}

fn render(path: &[u8]) -> String {
    canonical(&comps(path))
}

// ---------------------------------------------------------------------------
// The driver: one op against both worlds, observations must agree.

fn dfs_obs<T>(label: &str, r: Result<T, DfsError>, ok: impl FnOnce(T) -> String) -> Obs {
    match r {
        Ok(v) => Ok(ok(v)),
        Err(e) => {
            assert!(
                !matches!(e, DfsError::Daos { .. } | DfsError::BadDirent(_)),
                "{label}: unexpected backend failure {e}"
            );
            Err(obs_of(&e))
        }
    }
}

fn run_program(ops: &[Op]) {
    let (_store, pool) = DaosStore::with_single_pool(16);
    let client = EmbeddedClient::new(pool);
    let fs = block_on(DfsHandle::mount(client, Uuid::from_name(b"dfs-oracle"), 1))
        .expect("mount on a fresh pool");
    let mut model = Model::new();

    for (i, op) in ops.iter().enumerate() {
        let (got, want) = match op {
            Op::Mkdir(p) => (
                dfs_obs("mkdir", block_on(fs.mkdir(&render(p))), |()| "ok".into()),
                model.mkdir(&comps(p)),
            ),
            Op::Create(p) => (
                dfs_obs(
                    "create",
                    block_on(async {
                        let f = fs.create(&render(p)).await?;
                        fs.close(f).await
                    }),
                    |()| "ok".into(),
                ),
                model.create(&comps(p)),
            ),
            Op::Write {
                path,
                off,
                len,
                fill,
            } => {
                let data = vec![*fill; *len as usize];
                (
                    dfs_obs(
                        "write",
                        block_on(async {
                            let mut f = fs.open(&render(path)).await?;
                            fs.write(&mut f, *off as u64, Bytes::from(data.clone()))
                                .await?;
                            fs.close(f).await
                        }),
                        |()| "ok".into(),
                    ),
                    model.write(&comps(path), *off as usize, &data),
                )
            }
            Op::Read { path, off, len } => (
                dfs_obs(
                    "read",
                    block_on(async {
                        let f = fs.open(&render(path)).await?;
                        let data = fs.read(&f, *off as u64, *len as u64).await?;
                        fs.close(f).await?;
                        Ok(data)
                    }),
                    |data: Bytes| format!("read:{:02x?}", data.as_ref()),
                ),
                model.read(&comps(path), *off as usize, *len as usize),
            ),
            Op::Stat(p) => (
                dfs_obs("stat", block_on(fs.stat(&render(p))), |st| {
                    format!(
                        "stat:{}:{}",
                        match st.kind {
                            FileKind::Dir => "dir",
                            FileKind::File => "file",
                        },
                        st.size
                    )
                }),
                model.stat(&comps(p)),
            ),
            Op::Readdir(p) => (
                dfs_obs("readdir", block_on(fs.readdir(&render(p))), |rows| {
                    let rows: Vec<String> = rows
                        .iter()
                        .map(|e| {
                            format!(
                                "{}={}:{}",
                                e.name,
                                match e.kind {
                                    FileKind::Dir => "dir",
                                    FileKind::File => "file",
                                },
                                e.size
                            )
                        })
                        .collect();
                    format!("ls:{}", rows.join(","))
                }),
                model.readdir(&comps(p)),
            ),
            Op::Unlink(p) => (
                dfs_obs("unlink", block_on(fs.unlink(&render(p))), |()| "ok".into()),
                model.unlink(&comps(p)),
            ),
            Op::Rename(s, d) => (
                dfs_obs(
                    "rename",
                    block_on(fs.rename(&render(s), &render(d))),
                    |()| "ok".into(),
                ),
                model.rename(&comps(s), &comps(d)),
            ),
        };
        assert_eq!(got, want, "op {i} diverged: {op:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dfs_matches_btreemap_oracle(ops in proptest::collection::vec(op(), 1..40)) {
        run_program(&ops);
    }
}

// The path layer alone, against std's component intuition: canonical
// forms are idempotent and slash-insensitive.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn canonicalization_is_idempotent(ids in path(), extra_slash in any::<bool>()) {
        let raw = if extra_slash {
            format!("{}/", render(&ids))
        } else {
            render(&ids)
        };
        let c = canonical(&normalize(&raw).unwrap());
        prop_assert_eq!(&c, &render(&ids));
        prop_assert_eq!(canonical(&normalize(&c).unwrap()), c);
    }
}
