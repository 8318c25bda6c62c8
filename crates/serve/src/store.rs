//! Warm tier: persistent JSONL-backed placement store.
//!
//! One JSON object per line, appended with an immediate flush so a
//! crash mid-write loses at most the torn final line — which
//! load-on-start silently skips (a warm miss just lands the key again).
//! Every entry is stamped with the weights fingerprint
//! ([`mars_nn::checkpoint::fingerprint`]); loading filters to the
//! serving engine's own fingerprint so a store file shared across
//! checkpoints can never replay a ranking computed by different
//! weights. Fingerprints are written as 16-digit hex (the mars-net
//! wire convention: JSON numbers are f64s and cannot carry 64 bits).

use crate::engine::Ranking;
use mars_json::Json;
use mars_net::msg::write_ranking;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Append-only JSONL store of `(graph_fp, cluster_fp) → ranking`
/// entries for one weights fingerprint.
pub struct PlacementStore {
    path: PathBuf,
    file: File,
    weights_fp: u64,
    entries: HashMap<(u64, u64), Ranking>,
    loaded: usize,
    skipped: usize,
    /// The line being appended, kept so that an append allocates
    /// nothing once it has grown to the longest line written.
    line: String,
}

fn hex_fp(j: &Json, field: &str) -> Option<u64> {
    j.get(field).and_then(Json::as_str).and_then(|s| u64::from_str_radix(s, 16).ok())
}

fn parse_entry(line: &str) -> Option<(u64, u64, u64, Vec<Vec<usize>>)> {
    let j = Json::parse(line).ok()?;
    let graph_fp = hex_fp(&j, "graph_fp")?;
    let cluster_fp = hex_fp(&j, "cluster_fp")?;
    let weights_fp = hex_fp(&j, "weights_fp")?;
    let ranking = j
        .get("ranking")?
        .as_array()?
        .iter()
        .map(|row| row.as_array()?.iter().map(Json::as_usize).collect())
        .collect::<Option<Vec<Vec<usize>>>>()?;
    Some((graph_fp, cluster_fp, weights_fp, ranking))
}

/// Write one store line, newline included, into `line`: the compact
/// JSON object [`parse_entry`] reads, fields in the order they have
/// always had. A ranking is a few thousand one-digit numbers and the
/// caller holds the engine's state lock, so the rows go straight into
/// the buffer through the wire's row writer instead of a [`Json`] node
/// per device; the two names still go through `Json` for its string
/// escaping.
fn render_line(
    line: &mut String,
    key: (u64, u64),
    weights_fp: u64,
    workload: &str,
    profile: &str,
    ranking: &[Vec<usize>],
) {
    line.clear();
    let (graph_fp, cluster_fp) = key;
    let _ = write!(
        line,
        "{{\"graph_fp\":\"{graph_fp:016x}\",\"cluster_fp\":\"{cluster_fp:016x}\",\
         \"weights_fp\":\"{weights_fp:016x}\",\"workload\":{},\"profile\":{},\"ranking\":",
        Json::from(workload),
        Json::from(profile),
    );
    write_ranking(line, ranking, usize::MAX);
    line.push_str("}\n");
}

impl PlacementStore {
    /// Open (creating if absent) the store at `path`, loading every
    /// well-formed entry whose weights fingerprint matches
    /// `weights_fp`. Torn or foreign lines are counted and skipped.
    pub fn open(path: impl AsRef<Path>, weights_fp: u64) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut entries = HashMap::new();
        let mut loaded = 0;
        let mut skipped = 0;
        if path.exists() {
            let reader = BufReader::new(File::open(&path)?);
            for line in reader.lines() {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                match parse_entry(&line) {
                    Some((g, c, w, ranking)) if w == weights_fp => {
                        entries.insert((g, c), Arc::new(ranking));
                        loaded += 1;
                    }
                    _ => skipped += 1,
                }
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(PlacementStore { path, file, weights_fp, entries, loaded, skipped, line: String::new() })
    }

    /// Look up a ranking by cache key.
    pub fn get(&self, key: (u64, u64)) -> Option<Ranking> {
        self.entries.get(&key).cloned()
    }

    /// Append `ranking` under `key` and flush. The in-memory map is
    /// updated too, so a store never misses what it just wrote.
    pub fn append(
        &mut self,
        key: (u64, u64),
        workload: &str,
        profile: &str,
        ranking: Ranking,
    ) -> io::Result<()> {
        render_line(&mut self.line, key, self.weights_fp, workload, profile, &ranking);
        self.file.write_all(self.line.as_bytes())?;
        self.file.flush()?;
        self.entries.insert(key, ranking);
        Ok(())
    }

    /// Number of entries currently held (loaded + appended).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(loaded, skipped)` line counts from the load-on-start scan.
    pub fn load_stats(&self) -> (usize, usize) {
        (self.loaded, self.skipped)
    }

    /// Path this store persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mars-serve-store-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        dir.join("store.jsonl")
    }

    fn rank(rows: &[&[usize]]) -> Ranking {
        Arc::new(rows.iter().map(|r| r.to_vec()).collect())
    }

    /// The rendering `append` used before it formatted by hand: one
    /// `Json` node per field and per device. Kept as the oracle.
    fn oracle_line(
        key: (u64, u64),
        weights_fp: u64,
        workload: &str,
        profile: &str,
        ranking: &[Vec<usize>],
    ) -> String {
        let line = Json::obj([
            ("graph_fp", Json::from(format!("{:016x}", key.0))),
            ("cluster_fp", Json::from(format!("{:016x}", key.1))),
            ("weights_fp", Json::from(format!("{weights_fp:016x}"))),
            ("workload", Json::from(workload)),
            ("profile", Json::from(profile)),
            (
                "ranking",
                Json::arr(
                    ranking.iter().map(|row| Json::arr(row.iter().map(|&d| Json::from(d as f64)))),
                ),
            ),
        ]);
        format!("{line}\n")
    }

    #[test]
    fn hand_formatted_lines_equal_the_json_rendering_and_reload() {
        use mars_rng::rngs::StdRng;
        use mars_rng::{Rng, SeedableRng};

        let path = tmp("oracle");
        let weights_fp = 0x00ab_cdef_0123_4567;
        let mut store = PlacementStore::open(&path, weights_fp).expect("open");
        let mut rng = StdRng::seed_from_u64(50);
        let mut expected_file = String::new();
        let mut written = Vec::new();
        // Names that need escaping, and the empty ranking and empty row.
        let names = ["vgg16", "bert-base", "quo\"te\\slash", "tab\tnew\nline", ""];
        for case in 0..50u64 {
            let key = (rng.gen::<u64>(), if case == 0 { 0 } else { rng.gen::<u64>() });
            let rows = rng.gen_range(0..40usize);
            let ranking: Vec<Vec<usize>> = (0..rows)
                .map(|_| (0..rng.gen_range(0..12usize)).map(|_| rng.gen_range(0..2000)).collect())
                .collect();
            let workload = names[rng.gen_range(0..names.len())];
            let profile = names[rng.gen_range(0..names.len())];

            let mut line = String::from("left over from the last append");
            render_line(&mut line, key, weights_fp, workload, profile, &ranking);
            assert_eq!(line, oracle_line(key, weights_fp, workload, profile, &ranking));

            store.append(key, workload, profile, Arc::new(ranking.clone())).expect("append");
            expected_file.push_str(&line);
            written.push((key, ranking));
        }
        drop(store);
        assert_eq!(fs::read_to_string(&path).expect("read"), expected_file);

        let reloaded = PlacementStore::open(&path, weights_fp).expect("reopen");
        assert_eq!(reloaded.load_stats(), (50, 0));
        assert_eq!(reloaded.len(), 50);
        for (key, ranking) in written {
            assert_eq!(*reloaded.get(key).expect("entry"), ranking);
        }
    }

    #[test]
    fn roundtrips_across_reopen() {
        let path = tmp("roundtrip");
        let mut s = PlacementStore::open(&path, 7).expect("open");
        s.append((1, 2), "vgg16", "reduced", rank(&[&[0, 1], &[1, 0]])).expect("append");
        s.append((3, 4), "gnmt4", "paper", rank(&[&[2]])).expect("append");
        drop(s);

        let s2 = PlacementStore::open(&path, 7).expect("reopen");
        assert_eq!(s2.load_stats(), (2, 0));
        assert_eq!(*s2.get((1, 2)).expect("entry"), vec![vec![0, 1], vec![1, 0]]);
        assert_eq!(*s2.get((3, 4)).expect("entry"), vec![vec![2]]);
    }

    #[test]
    fn torn_final_line_is_skipped_not_fatal() {
        let path = tmp("torn");
        let mut s = PlacementStore::open(&path, 7).expect("open");
        s.append((1, 2), "vgg16", "reduced", rank(&[&[0]])).expect("append");
        drop(s);
        // Simulate a crash mid-append: a truncated JSON object.
        let mut raw = fs::read_to_string(&path).expect("read");
        raw.push_str("{\"graph_fp\":\"00000000000000");
        fs::write(&path, raw).expect("write");

        let s2 = PlacementStore::open(&path, 7).expect("reopen");
        assert_eq!(s2.load_stats(), (1, 1));
        assert!(s2.get((1, 2)).is_some());
    }

    #[test]
    fn entries_from_other_weights_are_filtered_out() {
        let path = tmp("weights");
        let mut s = PlacementStore::open(&path, 7).expect("open");
        s.append((1, 2), "vgg16", "reduced", rank(&[&[0]])).expect("append");
        drop(s);

        let other = PlacementStore::open(&path, 8).expect("reopen");
        assert_eq!(other.load_stats(), (0, 1));
        assert!(other.get((1, 2)).is_none());
    }

    #[test]
    fn append_is_visible_without_reopen() {
        let path = tmp("visible");
        let mut s = PlacementStore::open(&path, 7).expect("open");
        assert!(s.is_empty());
        s.append((9, 9), "bert-base", "reduced", rank(&[&[4, 3]])).expect("append");
        assert_eq!(s.len(), 1);
        assert_eq!(*s.get((9, 9)).expect("entry"), vec![vec![4, 3]]);
    }
}
