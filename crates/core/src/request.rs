//! MARS-style multi-field requests.
//!
//! Operational access to the field store is rarely one key at a time:
//! product-generation tasks retrieve *requests* — a keyword → value-list
//! mapping whose cartesian expansion names many fields (`param=t/u/v,
//! levelist=500/850, step=0/24`). This module provides that request
//! semantics over any [`FieldStore`] backend, mirroring how FDB5's
//! retrieve interface drives the same underlying object layout.

use std::collections::BTreeMap;

use bytes::Bytes;

use crate::fieldio::{FieldIoError, FieldResult, FieldStore};
use crate::key::FieldKey;
use daosim_objstore::prelude::DaosApi;

/// A request: each keyword carries one or more values; the request
/// expands to the cartesian product of all value lists.
///
/// ```
/// use daosim_core::request::Request;
///
/// let req = Request::parse("class=od,param=t/u/v,levelist=500/850").unwrap();
/// assert_eq!(req.cardinality(), 6);
/// let keys = req.expand();
/// assert_eq!(keys.len(), 6);
/// assert_eq!(keys[0].get("class"), Some("od"));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Request {
    entries: BTreeMap<String, Vec<String>>,
}

impl Request {
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a keyword to one or more values (replacing earlier values).
    pub fn set<I, S>(&mut self, keyword: impl Into<String>, values: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let vals: Vec<String> = values.into_iter().map(Into::into).collect();
        assert!(
            !vals.is_empty(),
            "a request keyword needs at least one value"
        );
        self.entries.insert(keyword.into(), vals);
        self
    }

    /// Builds a request from a single fully specified key.
    pub fn from_key(key: &FieldKey) -> Self {
        let mut r = Request::new();
        for part in key.canonical().split(',').filter(|s| !s.is_empty()) {
            let (k, v) = part.split_once('=').expect("canonical key is k=v");
            r.set(k, [v]);
        }
        r
    }

    /// Number of concrete fields this request names.
    pub fn cardinality(&self) -> usize {
        self.entries.values().map(Vec::len).product()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Expands to every concrete [`FieldKey`], in deterministic
    /// (keyword-then-value) order.
    pub fn expand(&self) -> Vec<FieldKey> {
        let mut keys = vec![FieldKey::new()];
        for (kw, values) in &self.entries {
            let mut next = Vec::with_capacity(keys.len() * values.len());
            for key in &keys {
                for v in values {
                    let mut k = key.clone();
                    k.set(kw, v);
                    next.push(k);
                }
            }
            keys = next;
        }
        keys
    }

    /// Parses the compact text form `param=t/u/v,levelist=500/850`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut r = Request::new();
        for part in text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (k, vs) = part
                .split_once('=')
                .ok_or_else(|| format!("missing '=' in {part:?}"))?;
            if vs.contains('=') {
                return Err(format!("'=' inside the values of {part:?}"));
            }
            let values: Vec<&str> = vs.split('/').filter(|v| !v.is_empty()).collect();
            if values.is_empty() {
                return Err(format!("keyword {k:?} has no values"));
            }
            r.set(k.trim(), values);
        }
        if r.is_empty() {
            return Err("empty request".to_string());
        }
        Ok(r)
    }
}

/// Outcome of a multi-field retrieval.
#[derive(Debug)]
pub struct Retrieval {
    /// `(key, data)` for every field found, in expansion order.
    pub fields: Vec<(FieldKey, Bytes)>,
    /// Keys named by the request but absent from the store.
    pub missing: Vec<FieldKey>,
}

impl Retrieval {
    pub fn total_bytes(&self) -> u64 {
        self.fields.iter().map(|(_, d)| d.len() as u64).sum()
    }

    pub fn is_complete(&self) -> bool {
        self.missing.is_empty()
    }
}

/// Retrieves every field a request names. Fields are fetched
/// sequentially, as a post-processing task consuming one request does.
pub async fn retrieve<D: DaosApi>(fs: &FieldStore<D>, req: &Request) -> FieldResult<Retrieval> {
    let mut fields = Vec::new();
    let mut missing = Vec::new();
    for key in req.expand() {
        match fs.read_field(&key).await {
            Ok(data) => fields.push((key, data)),
            Err(FieldIoError::FieldNotFound(_)) => missing.push(key),
            Err(e) => return Err(e),
        }
    }
    Ok(Retrieval { fields, missing })
}

/// Archives one payload per expanded key (testing and data staging).
pub async fn archive_all<D: DaosApi>(
    fs: &FieldStore<D>,
    req: &Request,
    payload: impl Fn(&FieldKey) -> Bytes,
) -> FieldResult<usize> {
    let keys = req.expand();
    for key in &keys {
        fs.write_field(key, payload(key)).await?;
    }
    Ok(keys.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fieldio::FieldIoConfig;
    use daosim_objstore::prelude::EmbeddedClient;
    use daosim_objstore::DaosStore;

    fn block_on<F: std::future::Future>(fut: F) -> F::Output {
        let waker = std::task::Waker::noop();
        let mut cx = std::task::Context::from_waker(waker);
        let mut fut = std::pin::pin!(fut);
        match fut.as_mut().poll(&mut cx) {
            std::task::Poll::Ready(v) => v,
            std::task::Poll::Pending => panic!("embedded backend suspended"),
        }
    }

    fn base_request() -> Request {
        let mut r = Request::new();
        r.set("class", ["od"])
            .set("date", ["20290101"])
            .set("expver", ["0001"])
            .set("param", ["t", "u", "v"])
            .set("levelist", ["500", "850"])
            .set("step", ["0", "24"]);
        r
    }

    #[test]
    fn cardinality_and_expansion_agree() {
        let r = base_request();
        assert_eq!(r.cardinality(), 12);
        let keys = r.expand();
        assert_eq!(keys.len(), 12);
        let mut dedup: Vec<&str> = keys.iter().map(|k| k.canonical()).collect();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 12, "expansion must not repeat keys");
    }

    #[test]
    fn expansion_is_deterministic() {
        assert_eq!(base_request().expand(), base_request().expand());
    }

    #[test]
    fn parse_round_trips() {
        let r = Request::parse("class=od,param=t/u/v,levelist=500/850").unwrap();
        assert_eq!(r.cardinality(), 6);
        assert!(Request::parse("").is_err());
        assert!(Request::parse("param").is_err());
        assert!(Request::parse("param=").is_err());
        // Keys cannot hold a separator: it would split into two pairs.
        assert!(Request::parse("param=t=u").is_err());
    }

    #[test]
    fn from_key_is_singleton() {
        let key = FieldKey::from_pairs([("class", "od"), ("param", "t")]);
        let r = Request::from_key(&key);
        assert_eq!(r.cardinality(), 1);
        assert_eq!(r.expand()[0], key);
    }

    #[test]
    fn retrieve_partitions_found_and_missing() {
        let (_s, pool) = DaosStore::with_single_pool(24);
        let fs = block_on(FieldStore::connect(
            EmbeddedClient::new(pool),
            FieldIoConfig::default(),
            1,
        ))
        .unwrap();
        let req = base_request();
        // Archive only the step=0 half.
        let mut half = base_request();
        half.set("step", ["0"]);
        let n = block_on(archive_all(&fs, &half, |k| {
            Bytes::copy_from_slice(k.canonical().as_bytes())
        }))
        .unwrap();
        assert_eq!(n, 6);

        let got = block_on(retrieve(&fs, &req)).unwrap();
        assert_eq!(got.fields.len(), 6);
        assert_eq!(got.missing.len(), 6);
        assert!(!got.is_complete());
        for (key, data) in &got.fields {
            assert_eq!(data.as_ref(), key.canonical().as_bytes());
            assert_eq!(key.get("step"), Some("0"));
        }
        for key in &got.missing {
            assert_eq!(key.get("step"), Some("24"));
        }

        // Completing the archive completes the retrieval.
        block_on(archive_all(&fs, &req, |k| {
            Bytes::copy_from_slice(k.canonical().as_bytes())
        }))
        .unwrap();
        let got = block_on(retrieve(&fs, &req)).unwrap();
        assert!(got.is_complete());
        assert_eq!(got.fields.len(), 12);
        assert_eq!(
            got.total_bytes(),
            got.fields
                .iter()
                .map(|(k, _)| k.canonical().len() as u64)
                .sum::<u64>()
        );
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn empty_value_list_panics() {
        Request::new().set("param", Vec::<String>::new());
    }
}
