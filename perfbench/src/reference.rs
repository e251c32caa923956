//! The reference corpus: the expected final-state digest and record-stream
//! hash of every instance, recorded once from the parent commit.
//!
//! One line per output, whitespace separated:
//!
//! ```text
//! <size> <workload> <instance> <item> <state digest hex> <records hash hex>
//! ```
//!
//! `item` is `-` for single-run workloads and the job id inside a service
//! batch. Lines starting with `#` are comments.

use crate::workloads::Size;
use std::collections::BTreeMap;

type Key = (String, String, u64, String);

/// Expected outputs keyed by `(size, workload, instance, item)`.
#[derive(Debug, Default)]
pub struct Reference {
    entries: BTreeMap<Key, (u64, u64)>,
}

impl Reference {
    /// Parse a corpus file's text.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut entries = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("reference line {}: {line:?}", n + 1);
            if f.len() != 6 {
                return Err(bad());
            }
            let instance = f[2].parse().map_err(|_| bad())?;
            let state = u64::from_str_radix(f[4], 16).map_err(|_| bad())?;
            let records = u64::from_str_radix(f[5], 16).map_err(|_| bad())?;
            let key = (
                f[0].to_string(),
                f[1].to_string(),
                instance,
                f[3].to_string(),
            );
            entries.insert(key, (state, records));
        }
        Ok(Reference { entries })
    }

    /// Read and parse a corpus file.
    pub fn load(path: &str) -> Result<Reference, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Reference::parse(&text)
    }

    /// Compare one output with its reference.
    pub fn check(
        &self,
        size: Size,
        workload: &str,
        instance: u64,
        item: &str,
        state: u64,
        records: u64,
    ) -> Result<(), String> {
        let key = (
            size.name().to_string(),
            workload.to_string(),
            instance,
            item.to_string(),
        );
        let at = format!("{workload} instance {instance} {item}");
        match self.entries.get(&key) {
            None => Err(format!("{at}: no reference entry")),
            Some(&(s, _)) if s != state => Err(format!(
                "{at}: state digest {state:016x}, reference {s:016x}"
            )),
            Some(&(_, r)) if r != records => Err(format!(
                "{at}: records hash {records:016x}, reference {r:016x}"
            )),
            Some(_) => Ok(()),
        }
    }

    /// Record an output (reference generation).
    pub fn insert(
        &mut self,
        size: Size,
        workload: &str,
        instance: u64,
        item: &str,
        state: u64,
        records: u64,
    ) {
        let key = (
            size.name().to_string(),
            workload.to_string(),
            instance,
            item.to_string(),
        );
        self.entries.insert(key, (state, records));
    }

    /// Render in the corpus file format.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# perfbench reference corpus: size workload instance item state-digest records-hash\n\
             # Regenerate with `cargo run --release --manifest-path perfbench/Cargo.toml -- record`.\n",
        );
        for ((size, w, k, item), (s, r)) in &self.entries {
            out.push_str(&format!("{size} {w} {k} {item} {s:016x} {r:016x}\n"));
        }
        out
    }
}
