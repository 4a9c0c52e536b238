//! Bench-trajectory tracking: structural hashes of `BENCH_*.json` files
//! and a regression gate over a committed `BENCH_HISTORY.jsonl`.
//!
//! Every bench in this workspace writes a deterministic report whose
//! *structural* lines are byte-identical across thread counts, shard
//! sizes, and hosts; only a short list of host-measurement markers
//! (`wall_s`, `gflops`, …) may differ. That discipline makes a bench
//! report fingerprint-able: [`structural_hash`] is FNV-1a over exactly the
//! lines the CI byte-compares keep, so *any* structural change — a
//! determinism break, a format change, a different device outcome — moves
//! the hash, while re-running on a faster machine does not.
//!
//! [`HistoryEntry`] records `(bench name, structural hash, wall ms)` as
//! one JSONL line. The committed `BENCH_HISTORY.jsonl` is regenerated
//! alongside the `BENCH_*.json` files; [`gate`] fails when a current
//! report's hash disagrees with history (structural regression) or, when a
//! growth bound is given, when its wall time grew past `N%` (used in CI
//! between two same-machine runs, never across machines).

use std::fmt::Write as _;

/// Markers of host-measurement lines excluded from the structural hash.
/// Mirrors (and supersets) the `grep -v` filters CI's byte-compares use:
/// a line containing any of these is not structural.
pub const NONSTRUCTURAL_MARKERS: [&str; 14] = [
    "wall_s", // includes sweep_wall_s
    "wall_ms",
    "wall_us",
    "gflops",
    "gops",
    "gmacs", // integer-GEMM throughput (GMAC/s)
    "gbs",   // data-movement throughput (GB/s)
    "speedup",
    "simd_dispatch",
    "lanes",
    "host_cores",
    "acc_f32", // float-path accuracy rides SIMD dispatch ULPs
    "rps",     // serving throughput
    "lat_us",  // serving latency quantiles
];

/// Whether a report line is structural (participates in the hash).
pub fn is_structural(line: &str) -> bool {
    !NONSTRUCTURAL_MARKERS.iter().any(|m| line.contains(m))
}

/// FNV-1a (64-bit) over the structural lines of a bench report, each line
/// terminated by `\n` so line boundaries are part of the fingerprint.
pub fn structural_hash(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut step = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for line in text.lines().filter(|l| is_structural(l)) {
        for &b in line.as_bytes() {
            step(b);
        }
        step(b'\n');
    }
    h
}

/// First wall-clock reading in a report (seconds), scanning for the
/// benches' dedicated `"wall_s"`/`"sweep_wall_s"` lines. `None` when the
/// report carries no wall line.
pub fn wall_of(text: &str) -> Option<f64> {
    for line in text.lines() {
        if let Some(pos) = line.find("wall_s\"") {
            let tail = &line[pos + "wall_s\"".len()..];
            let num: String = tail
                .chars()
                .skip_while(|c| *c == ':' || c.is_whitespace())
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect();
            if let Ok(v) = num.parse::<f64>() {
                return Some(v);
            }
        }
    }
    None
}

/// One bench's trajectory record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryEntry {
    /// Bench name (e.g. `"fleet"` — the `BENCH_<name>.json` stem).
    pub name: String,
    /// Structural hash of the report.
    pub hash: u64,
    /// Wall clock in milliseconds (rounded), 0 when the report has none.
    pub wall_ms: u64,
}

impl HistoryEntry {
    /// Fingerprints one report body.
    pub fn of(name: &str, report_text: &str) -> Self {
        Self {
            name: name.to_string(),
            hash: structural_hash(report_text),
            wall_ms: wall_of(report_text).map(|s| (s * 1e3).round() as u64).unwrap_or(0),
        }
    }
}

/// Renders entries as JSONL, one object per line, sorted by name so the
/// committed file is canonical.
pub fn render_history(entries: &[HistoryEntry]) -> String {
    let mut sorted: Vec<&HistoryEntry> = entries.iter().collect();
    sorted.sort_by(|a, b| a.name.cmp(&b.name));
    let mut out = String::new();
    for e in sorted {
        let _ = writeln!(
            out,
            "{{\"bench\": \"{}\", \"structural_hash\": \"{:016x}\", \"wall_ms\": {}}}",
            e.name, e.hash, e.wall_ms
        );
    }
    out
}

/// Parses a history JSONL back. Tolerant of blank lines; a malformed line
/// is an error (the file is machine-written). When a bench appears more
/// than once the **last** line wins — appends supersede.
pub fn parse_history(text: &str) -> Result<Vec<HistoryEntry>, String> {
    fn field<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
        let pat = format!("\"{key}\":");
        let start = line.find(&pat).ok_or_else(|| format!("missing {key}: {line}"))?;
        let rest = line[start + pat.len()..].trim_start();
        let end = rest.find([',', '}']).ok_or_else(|| format!("unterminated {key}: {line}"))?;
        Ok(rest[..end].trim().trim_matches('"'))
    }
    let mut out: Vec<HistoryEntry> = Vec::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let name = field(line, "bench")?.to_string();
        let hash = u64::from_str_radix(field(line, "structural_hash")?, 16)
            .map_err(|e| format!("bad hash on {line}: {e}"))?;
        let wall_ms = field(line, "wall_ms")?
            .parse::<u64>()
            .map_err(|e| format!("bad wall_ms on {line}: {e}"))?;
        if let Some(prev) = out.iter_mut().find(|e| e.name == name) {
            *prev = HistoryEntry { name, hash, wall_ms };
        } else {
            out.push(HistoryEntry { name, hash, wall_ms });
        }
    }
    Ok(out)
}

/// The regression gate. For every current entry with a recorded history:
///
/// * the structural hash must match exactly — a mismatch is a structural
///   regression (determinism break or deliberate format change; the fix
///   for the latter is re-recording the history);
/// * when `max_wall_growth_pct` is `Some(n)`, wall time must not exceed
///   `history · (100 + n) / 100` (integer arithmetic). Only meaningful
///   between runs on the same machine.
///
/// Benches absent from history (new benches) and history entries absent
/// from `current` pass. Returns all violations, not just the first.
pub fn gate(
    history: &[HistoryEntry],
    current: &[HistoryEntry],
    max_wall_growth_pct: Option<u64>,
) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();
    for cur in current {
        let Some(old) = history.iter().find(|e| e.name == cur.name) else {
            continue;
        };
        if old.hash != cur.hash {
            violations.push(format!(
                "{}: structural hash changed {:016x} -> {:016x} \
                 (determinism break or un-recorded format change)",
                cur.name, old.hash, cur.hash
            ));
        }
        if let Some(pct) = max_wall_growth_pct {
            let bound = old.wall_ms as u128 * (100 + pct) as u128 / 100;
            if cur.wall_ms as u128 > bound && old.wall_ms > 0 {
                violations.push(format!(
                    "{}: wall time grew {} ms -> {} ms (> {pct}% growth bound)",
                    cur.name, old.wall_ms, cur.wall_ms
                ));
            }
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str =
        "{\n  \"bench\": \"toy\",\n  \"wall_s\": 1.250,\n  \"rows\": [1, 2, 3]\n}\n";

    #[test]
    fn hash_ignores_host_measurement_lines() {
        let faster = REPORT.replace("1.250", "0.010");
        assert_eq!(structural_hash(REPORT), structural_hash(&faster));
        let regressed = REPORT.replace("[1, 2, 3]", "[1, 2, 4]");
        assert_ne!(structural_hash(REPORT), structural_hash(&regressed));
    }

    #[test]
    fn wall_is_extracted_in_seconds() {
        assert_eq!(wall_of(REPORT), Some(1.25));
        assert_eq!(wall_of("{\"sweep_wall_s\": 0.034}"), Some(0.034));
        assert_eq!(wall_of("{\"rows\": []}"), None);
        assert_eq!(HistoryEntry::of("toy", REPORT).wall_ms, 1250);
    }

    #[test]
    fn history_round_trips_and_last_line_wins() {
        let entries = vec![
            HistoryEntry { name: "fleet".into(), hash: 0xdead_beef, wall_ms: 42 },
            HistoryEntry { name: "abl".into(), hash: 7, wall_ms: 0 },
        ];
        let text = render_history(&entries);
        assert!(text.lines().next().unwrap().contains("\"abl\""), "canonical order is by name");
        let parsed = parse_history(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert!(parsed.contains(&entries[0]) && parsed.contains(&entries[1]));

        let appended = format!(
            "{text}{{\"bench\": \"fleet\", \"structural_hash\": \"{:016x}\", \"wall_ms\": 9}}\n",
            11u64
        );
        let latest = parse_history(&appended).unwrap();
        let fleet = latest.iter().find(|e| e.name == "fleet").unwrap();
        assert_eq!((fleet.hash, fleet.wall_ms), (11, 9), "append supersedes");
    }

    #[test]
    fn gate_catches_hash_and_wall_regressions() {
        let old = vec![HistoryEntry { name: "toy".into(), hash: 1, wall_ms: 100 }];
        let same = vec![HistoryEntry { name: "toy".into(), hash: 1, wall_ms: 120 }];
        assert!(gate(&old, &same, None).is_ok());
        assert!(gate(&old, &same, Some(50)).is_ok());
        assert!(gate(&old, &same, Some(10)).is_err(), "20% growth past a 10% bound");

        let changed = vec![HistoryEntry { name: "toy".into(), hash: 2, wall_ms: 100 }];
        let errs = gate(&old, &changed, None).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("structural hash changed"));

        let unknown = vec![HistoryEntry { name: "new".into(), hash: 9, wall_ms: 1 }];
        assert!(gate(&old, &unknown, Some(0)).is_ok(), "new benches pass until recorded");
    }
}
