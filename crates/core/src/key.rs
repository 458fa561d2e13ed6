//! Weather-field keys and the most/least-significant split.
//!
//! A field is identified by a set of key-value pairs (paper Fig. 1), e.g.
//! `class=od, date=20201224, time=0000, param=t, level=500, step=24`.
//! The field I/O scheme splits a key into its *most-significant* part —
//! the pairs identifying a model run or *forecast* (indexed by the main
//! Key-Value) — and the *least-significant* part — the pairs identifying
//! one field within that forecast (indexed by the forecast Key-Value).

use std::fmt;

/// Which key names belong to the most-significant (forecast-identifying)
/// part. Mirrors the FDB5 schema's first rule level.
#[derive(Clone, Debug)]
pub struct KeySchema {
    msk_names: Vec<String>,
}

impl KeySchema {
    pub fn new<I, S>(msk_names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        KeySchema {
            msk_names: msk_names.into_iter().map(Into::into).collect(),
        }
    }

    /// The ECMWF-style default: class/stream/expver/date/time/number
    /// identify a forecast; everything else identifies a field within it.
    pub fn ecmwf() -> Self {
        KeySchema::new(["class", "stream", "expver", "date", "time", "number"])
    }

    pub fn is_msk(&self, name: &str) -> bool {
        self.msk_names.iter().any(|n| n == name)
    }
}

impl Default for KeySchema {
    fn default() -> Self {
        Self::ecmwf()
    }
}

/// The `(name, value)` pairs of canonical text `k1=v1,k2=v2`, in order.
fn pairs(text: &str) -> impl Iterator<Item = (&str, &str)> {
    text.split(',')
        .filter(move |_| !text.is_empty())
        .map(|pair| pair.split_once('=').unwrap_or((pair, "")))
}

/// Appends `name=value` as the last pair of canonical text.
fn push_pair(text: &mut String, name: &str, value: &str) {
    if !text.is_empty() {
        text.push(',');
    }
    text.push_str(name);
    text.push('=');
    text.push_str(value);
}

/// Checks the separator rule of [`FieldKey::set`] in debug builds.
fn debug_assert_token(what: &str, token: &str) {
    debug_assert!(
        !token.contains([',', '=']),
        "key {what} {token:?} contains a ',' or '=' separator"
    );
}

/// One part of a key (either split half): its canonical text.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct KeyPart {
    text: String,
}

impl KeyPart {
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Canonical text form `k1=v1,k2=v2` in key order — the byte string
    /// hashed for container UUIDs and used as the Key-Value key.
    pub fn canonical(&self) -> &str {
        &self.text
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        pairs(&self.text).find(|&(k, _)| k == name).map(|(_, v)| v)
    }
}

/// A complete field key, held as its canonical text: `name=value` pairs
/// sorted by name, joined by `,`. Names and values never contain `,` or
/// `=`, so the text is unambiguous and reading it back needs no
/// separate index. Ordering compares pair by pair (names, then values),
/// as an ordered map of the pairs would.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct FieldKey {
    text: String,
}

impl FieldKey {
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a key from `(name, value)` pairs. Later duplicates win,
    /// matching set semantics. Names and values must not contain `,` or
    /// `=` (see [`FieldKey::set`]).
    pub fn from_pairs<I, K, V>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (K, V)>,
        K: AsRef<str>,
        V: AsRef<str>,
    {
        let mut key = FieldKey::new();
        for (k, v) in pairs {
            key.set(k, v);
        }
        key
    }

    /// Adopts text that is already canonical: non-empty `name=value`
    /// pairs joined by `,`, names strictly ascending, no `=` in a value.
    /// Takes ownership of `text` without copying it.
    pub fn from_canonical(text: String) -> Result<Self, String> {
        let mut prev: Option<&str> = None;
        for part in text.split(',') {
            let Some((k, v)) = part.split_once('=') else {
                return Err(format!("missing '=' in {part:?}"));
            };
            if k.is_empty() || v.is_empty() || v.contains('=') {
                return Err(format!("malformed pair {part:?}"));
            }
            if prev.is_some_and(|p| p >= k) {
                return Err(format!("names out of order at {part:?}"));
            }
            prev = Some(k);
        }
        Ok(FieldKey { text })
    }

    /// Sets `name` to `value`, replacing any previous value. Names and
    /// values must not contain `,` or `=`: they separate the pairs of
    /// the canonical text, so `set("a", "x,b=y")` would read back as the
    /// two pairs `a=x` and `b=y` (checked in debug builds).
    pub fn set(&mut self, name: impl AsRef<str>, value: impl AsRef<str>) -> &mut Self {
        let (name, value) = (name.as_ref(), value.as_ref());
        debug_assert_token("name", name);
        debug_assert_token("value", value);
        // Find the pair holding `name`, or the byte offset of the first
        // pair whose name sorts after it.
        let mut at = 0;
        let mut existing = None;
        for (k, v) in pairs(&self.text) {
            if k == name {
                existing = Some(at + k.len() + 1..at + k.len() + 1 + v.len());
            }
            if k >= name {
                break;
            }
            at += k.len() + v.len() + 2;
        }
        self.text.reserve(name.len() + value.len() + 2);
        match existing {
            Some(range) => self.text.replace_range(range, value),
            None if at >= self.text.len() => push_pair(&mut self.text, name, value),
            None => {
                for piece in [",", value, "=", name] {
                    self.text.insert_str(at, piece);
                }
            }
        }
        self
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        pairs(&self.text).find(|&(k, _)| k == name).map(|(_, v)| v)
    }

    pub fn len(&self) -> usize {
        pairs(&self.text).count()
    }

    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Splits into `(most-significant, least-significant)` per `schema`.
    pub fn split(&self, schema: &KeySchema) -> (KeyPart, KeyPart) {
        let mut msk = KeyPart::default();
        let mut lsk = KeyPart::default();
        for (k, v) in pairs(&self.text) {
            let part = if schema.is_msk(k) { &mut msk } else { &mut lsk };
            if part.text.capacity() == 0 {
                part.text.reserve_exact(self.text.len());
            }
            push_pair(&mut part.text, k, v);
        }
        (msk, lsk)
    }

    /// Parses the text form `k1=v1,k2=v2`: pairs in any order, whitespace
    /// around names and values ignored, later duplicates win.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut key = FieldKey::new();
        for part in text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("missing '=' in {part:?}"))?;
            if k.trim().is_empty() || v.trim().is_empty() {
                return Err(format!("empty name or value in {part:?}"));
            }
            if v.contains('=') {
                return Err(format!("'=' inside the value of {part:?}"));
            }
            key.set(k.trim(), v.trim());
        }
        if key.is_empty() {
            return Err("empty key".to_string());
        }
        Ok(key)
    }

    /// Canonical text of the full key.
    pub fn canonical(&self) -> &str {
        &self.text
    }
}

impl Ord for FieldKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        pairs(&self.text).cmp(pairs(&other.text))
    }
}

impl PartialOrd for FieldKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for KeyPart {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        pairs(&self.text).cmp(pairs(&other.text))
    }
}

impl PartialOrd for KeyPart {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for FieldKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl fmt::Display for KeyPart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FieldKey {
        FieldKey::from_pairs([
            ("class", "od"),
            ("date", "20201224"),
            ("time", "0000"),
            ("expver", "0001"),
            ("param", "t"),
            ("levelist", "500"),
            ("step", "24"),
        ])
    }

    #[test]
    fn canonical_is_sorted_and_stable() {
        let k = sample();
        assert_eq!(
            k.canonical(),
            "class=od,date=20201224,expver=0001,levelist=500,param=t,step=24,time=0000"
        );
        // Insertion order must not matter.
        let mut k2 = FieldKey::new();
        k2.set("step", "24")
            .set("class", "od")
            .set("date", "20201224")
            .set("expver", "0001")
            .set("levelist", "500")
            .set("param", "t")
            .set("time", "0000");
        assert_eq!(k, k2);
        assert_eq!(k.canonical(), k2.canonical());
    }

    #[test]
    fn split_follows_schema() {
        let (msk, lsk) = sample().split(&KeySchema::ecmwf());
        assert_eq!(
            msk.canonical(),
            "class=od,date=20201224,expver=0001,time=0000"
        );
        assert_eq!(lsk.canonical(), "levelist=500,param=t,step=24");
        assert_eq!(msk.get("class"), Some("od"));
        assert_eq!(lsk.get("class"), None);
    }

    #[test]
    fn same_forecast_same_msk() {
        let a = sample();
        let mut b = sample();
        b.set("step", "48");
        let s = KeySchema::ecmwf();
        assert_eq!(a.split(&s).0, b.split(&s).0);
        assert_ne!(a.split(&s).1, b.split(&s).1);
    }

    #[test]
    fn custom_schema() {
        let s = KeySchema::new(["a"]);
        let k = FieldKey::from_pairs([("a", "1"), ("b", "2")]);
        let (msk, lsk) = k.split(&s);
        assert_eq!(msk.canonical(), "a=1");
        assert_eq!(lsk.canonical(), "b=2");
    }

    #[test]
    fn duplicate_set_overwrites() {
        let mut k = FieldKey::new();
        k.set("p", "old").set("p", "new");
        assert_eq!(k.get("p"), Some("new"));
        assert_eq!(k.len(), 1);
    }

    #[test]
    fn empty_parts_allowed() {
        let k = FieldKey::from_pairs([("param", "t")]);
        let (msk, lsk) = k.split(&KeySchema::ecmwf());
        assert!(msk.is_empty());
        assert!(!lsk.is_empty());
        assert_eq!(msk.canonical(), "");
    }

    #[test]
    fn parse_roundtrips_canonical() {
        let k = sample();
        let parsed = FieldKey::parse(k.canonical()).unwrap();
        assert_eq!(parsed, k);
        // Whitespace tolerated, empties rejected.
        assert!(FieldKey::parse(" class = od , step = 24 ").is_ok());
        assert!(FieldKey::parse("").is_err());
        assert!(FieldKey::parse("class").is_err());
        assert!(FieldKey::parse("class=").is_err());
    }

    #[test]
    fn parse_rejects_separator_inside_a_value() {
        assert!(FieldKey::parse("class=od=x").is_err());
        assert!(FieldKey::parse("class=od,step=2=4").is_err());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "separator")]
    fn set_rejects_separators_in_debug_builds() {
        // Would read back as the two pairs `a=x` and `b=y`.
        FieldKey::new().set("a", "x,b=y");
    }

    #[test]
    fn from_canonical_adopts_only_canonical_text() {
        let k = sample();
        let text = k.canonical().to_owned();
        assert_eq!(FieldKey::from_canonical(text).unwrap(), k);
        assert!(FieldKey::from_canonical(String::new()).is_err());
        assert!(FieldKey::from_canonical("step=24,class=od".into()).is_err());
        assert!(FieldKey::from_canonical("class=od,class=od".into()).is_err());
        assert!(FieldKey::from_canonical("class=od=x".into()).is_err());
        assert!(FieldKey::from_canonical("class=,step=24".into()).is_err());
    }

    #[test]
    fn display_matches_canonical() {
        let k = sample();
        assert_eq!(format!("{k}"), k.canonical());
    }
}
