//! Expected records: what every output of the benchmark is checked
//! against.
//!
//! Corpus specs are checked against the repository's pinned ledger
//! (`corpus/ledger/`). Inputs the ledger does not pin — `logic-wide`,
//! `analysis-large` and the `celement`/`rs` variants the service runs —
//! have records of the same self-verifying format under
//! `perfbench/expected/`. Those are written only by the explicit
//! `--pin` mode; a missing or corrupt record fails the run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use corpus::ledger::{self, LedgerRecord};

/// The benchmark's own expected-record root.
pub fn expected_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("expected")
}

/// Records indexed by `(family, model)`.
#[derive(Debug, Default)]
pub struct Expected {
    records: BTreeMap<(String, String), LedgerRecord>,
}

impl Expected {
    /// Loads and verifies one record per `(family, model)` key from
    /// `root`. Any missing, unreadable, tampered or mismatched file is
    /// an error: the run cannot proceed without its expectations.
    pub fn load(root: &Path, keys: &[(String, String)]) -> Result<Expected, String> {
        let mut records = BTreeMap::new();
        for (family, model) in keys {
            let path = ledger::record_path(root, family, model);
            let record = ledger::load(&path)?;
            if &record.family != family || &record.model != model {
                return Err(format!(
                    "{}: record is for {}/{}",
                    path.display(),
                    record.family,
                    record.model
                ));
            }
            records.insert((family.clone(), model.clone()), record);
        }
        Ok(Expected { records })
    }

    pub fn get(&self, family: &str, model: &str) -> Option<&LedgerRecord> {
        self.records.get(&(family.to_owned(), model.to_owned()))
    }

    /// Drift of a live record against its expectation; empty means the
    /// output is correct.
    pub fn check(&self, live: &LedgerRecord) -> Vec<String> {
        match self.get(&live.family, &live.model) {
            Some(expected) => expected.diff(live),
            None => vec![format!(
                "no expected record for {}/{}",
                live.family, live.model
            )],
        }
    }
}

#[cfg(test)]
mod tests {
    use asyncsynth::SynthesisOptions;
    use corpus::ledger::{self, LedgerRecord};

    use super::Expected;

    fn tmp_root(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("perfbench-expected-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn keys(record: &LedgerRecord) -> Vec<(String, String)> {
        vec![(record.family.clone(), record.model.clone())]
    }

    #[test]
    fn a_changed_expectation_is_a_failure() {
        let record = LedgerRecord::evaluate(
            "t",
            &stg::examples::vme_read_csc(),
            &SynthesisOptions::default(),
        );
        let root = tmp_root("changed");
        ledger::store(&root, &record).expect("store");
        let expected = Expected::load(&root, &keys(&record)).expect("load");
        assert!(expected.check(&record).is_empty());

        // A record re-sealed with a wrong gate count still loads, but
        // every output checked against it fails.
        let mut wrong = record.clone();
        wrong.num_gates = wrong.num_gates.map(|g| g + 1);
        ledger::store(&root, &wrong).expect("store");
        let expected = Expected::load(&root, &keys(&record)).expect("load");
        let drift = expected.check(&record);
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].starts_with("gates"), "{drift:?}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_corrupt_or_missing_expectation_stops_the_run() {
        let record =
            LedgerRecord::evaluate("t", &stg::examples::toggle(), &SynthesisOptions::default());
        let root = tmp_root("corrupt");
        ledger::store(&root, &record).expect("store");
        let path = ledger::record_path(&root, &record.family, &record.model);
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::write(
            &path,
            text.replacen("\"synthesized\"", "\"csc_unresolved\"", 1),
        )
        .expect("tamper");
        let err = Expected::load(&root, &keys(&record)).expect_err("tampered record");
        assert!(err.contains("checksum"), "{err}");

        std::fs::remove_file(&path).expect("remove");
        let err = Expected::load(&root, &keys(&record)).expect_err("missing record");
        assert!(err.contains("unreadable"), "{err}");

        // An unknown spec has no expectation and is never counted correct.
        let expected = Expected::default();
        assert_eq!(expected.check(&record).len(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_corrupt_ledger_entry_stops_the_run() {
        // The same loader reads the repository's ledger: a flipped byte
        // in a pinned corpus record is caught before any run starts.
        let ledger_root = corpus::ledger_root();
        let path = ledger::record_path(&ledger_root, "vme", "vme-read");
        let root = tmp_root("ledger");
        let copy = ledger::record_path(&root, "vme", "vme-read");
        std::fs::create_dir_all(copy.parent().expect("parent")).expect("mkdir");
        let text = std::fs::read_to_string(&path).expect("pinned ledger record");
        std::fs::write(&copy, text.replacen("\"gates\":4", "\"gates\":5", 1)).expect("write");
        let key = vec![("vme".to_owned(), "vme-read".to_owned())];
        assert!(Expected::load(&root, &key).is_err());
        assert!(Expected::load(&ledger_root, &key).is_ok());
        let _ = std::fs::remove_dir_all(&root);
    }
}
