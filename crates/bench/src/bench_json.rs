//! Multi-section bench result files.
//!
//! Several benches record their headline numbers into one JSON file (e.g.
//! `topk_select` and `serve_throughput` both write `BENCH_serve.json`), and
//! each bench may run on its own — so a writer must preserve the sections it
//! does not own. [`update_bench_section`] implements that as a
//! read-modify-write over a fixed two-level layout:
//!
//! ```json
//! {
//!   "bench": "<file stem>",
//!   "sections": {
//!     "<section>": { ...bench-specific object... }
//!   }
//! }
//! ```
//!
//! Section bodies are treated as opaque balanced-brace JSON text; the
//! reader is a tiny scanner (string- and escape-aware brace counting), which
//! is all a machine-written file needs. An unreadable or malformed file is
//! simply started over — bench records are derived data.
//!
//! Every section written through [`update_bench_section`] additionally gets
//! an `"available_parallelism"` field recording the writing host's core
//! count, so numbers recorded on narrow containers (this repo's history has
//! a 1-core 0.95× parallel-speedup entry) are self-describing instead of
//! silently misleading readers on wider hardware. Sections written by other
//! hosts keep the value of *their* writer.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Insert or replace `section` in the bench file at `path`, preserving every
/// other section. `body` must be a JSON object (`{...}`); `bench` names the
/// file's `"bench"` field. The writing host's [`available_parallelism`]
/// is recorded as the section's first field (replacing any value the caller
/// supplied).
pub fn update_bench_section(path: &Path, bench: &str, section: &str, body: &str) -> io::Result<()> {
    debug_assert!(body.trim_start().starts_with('{'), "body must be an object");
    let mut sections = std::fs::read_to_string(path)
        .ok()
        .map(|text| extract_sections(&text))
        .unwrap_or_default();
    let body = inject_parallelism(body.trim(), available_parallelism());
    sections.insert(section.to_string(), body);

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": \"{bench}\",\n"));
    out.push_str("  \"sections\": {\n");
    let last = sections.len().saturating_sub(1);
    for (i, (name, body)) in sections.iter().enumerate() {
        out.push_str(&format!("    \"{name}\": "));
        // Re-indent the body under its key, first stripping whatever common
        // indentation it picked up from the file it was extracted from (so
        // repeated read-modify-write cycles do not indent it further).
        let dedent = body
            .lines()
            .skip(1)
            .filter(|l| !l.trim().is_empty())
            .map(|l| l.len() - l.trim_start().len())
            .min()
            .unwrap_or(0);
        for (j, line) in body.lines().enumerate() {
            if j > 0 {
                out.push_str("\n    ");
                out.push_str(line.get(dedent..).unwrap_or(line.trim_start()));
            } else {
                out.push_str(line);
            }
        }
        out.push_str(if i == last { "\n" } else { ",\n" });
    }
    out.push_str("  }\n}\n");
    std::fs::write(path, out)
}

/// Core count of the writing host (what the recorded ratios could have used).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Rewrite `body` (a JSON object) so its first field is
/// `"available_parallelism": cores`, dropping any existing field of that
/// name (idempotent across read-modify-write cycles).
fn inject_parallelism(body: &str, cores: usize) -> String {
    let without = strip_field(body, "available_parallelism");
    let open = without.find('{').map(|i| i + 1).unwrap_or(0);
    let rest = without[open..].trim_start();
    let mut out = String::with_capacity(without.len() + 40);
    out.push_str(&without[..open]);
    out.push_str(&format!("\n  \"available_parallelism\": {cores}"));
    if !rest.starts_with('}') {
        out.push(',');
    }
    out.push('\n');
    out.push_str(without[open..].trim_start_matches('\n'));
    out
}

/// Remove one scalar `"name": value` field (and its trailing comma) from a
/// JSON object body, if present at the top level.
fn strip_field(body: &str, name: &str) -> String {
    let needle = format!("\"{name}\"");
    let Some(start) = body.find(&needle) else {
        return body.to_string();
    };
    let bytes = body.as_bytes();
    // Scan past the colon and the scalar value to the next comma or brace.
    let mut end = start + needle.len();
    while end < bytes.len() && bytes[end] != b',' && bytes[end] != b'}' {
        end += 1;
    }
    if end < bytes.len() && bytes[end] == b',' {
        end += 1;
    }
    // Also swallow the line's trailing newline + indentation.
    while end < bytes.len() && (bytes[end] == b'\n' || bytes[end] == b' ') {
        end += 1;
    }
    let mut head = body[..start].to_string();
    let trimmed = head.trim_end_matches([' ', '\n']).len();
    head.truncate(trimmed);
    head.push('\n');
    // Re-indent what follows.
    format!("{head}  {}", &body[end..])
}

/// Pull the `"sections"` object out of an existing bench file as raw
/// `name → body` text. Returns an empty map when the layout is not found.
fn extract_sections(text: &str) -> BTreeMap<String, String> {
    let mut sections = BTreeMap::new();
    let Some(start) = text.find("\"sections\"") else {
        return sections;
    };
    let Some(open) = text[start..].find('{').map(|i| start + i) else {
        return sections;
    };
    let bytes = text.as_bytes();
    let mut i = open + 1;
    loop {
        let Some(next) = find_next_nonspace(bytes, i) else {
            return sections;
        };
        let key_open = match bytes[next] {
            b'}' => return sections, // end of the sections object
            b'"' => next,
            _ => return sections, // malformed: bail with what we have
        };
        let Some(key_close) = find_unescaped(bytes, key_open + 1, b'"') else {
            return sections;
        };
        let key = text[key_open + 1..key_close].to_string();
        let Some(body_open) = text[key_close..].find('{').map(|j| key_close + j) else {
            return sections;
        };
        let Some(body_close) = matching_brace(bytes, body_open) else {
            return sections;
        };
        sections.insert(key, text[body_open..=body_close].to_string());
        i = body_close + 1;
        // Skip a trailing comma, if present.
        if let Some(comma) = find_next_nonspace(bytes, i) {
            if bytes[comma] == b',' {
                i = comma + 1;
            }
        }
    }
}

/// Index of the next occurrence of `needle` at or after `from`, skipping
/// backslash-escaped occurrences inside the current scan.
fn find_unescaped(bytes: &[u8], mut from: usize, needle: u8) -> Option<usize> {
    while from < bytes.len() {
        match bytes[from] {
            b'\\' => from += 2,
            b if b == needle => return Some(from),
            _ => from += 1,
        }
    }
    None
}

/// Index of the next non-whitespace byte at or after `from`.
fn find_next_nonspace(bytes: &[u8], mut from: usize) -> Option<usize> {
    while from < bytes.len() {
        if !bytes[from].is_ascii_whitespace() {
            return Some(from);
        }
        from += 1;
    }
    None
}

/// Index of the `}` matching the `{` at `open`, honouring strings/escapes.
fn matching_brace(bytes: &[u8], open: usize) -> Option<usize> {
    debug_assert_eq!(bytes[open], b'{');
    let mut depth = 0usize;
    let mut i = open;
    let mut in_string = false;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_string => i += 1,
            b'"' => in_string = !in_string,
            b'{' if !in_string => depth += 1,
            b'}' if !in_string => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempfile(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("nscaching-bench-json-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn sections_accumulate_across_writers() {
        let path = tempfile("accumulate.json");
        let _ = std::fs::remove_file(&path);
        update_bench_section(&path, "pool", "alpha", "{\n  \"x\": 1\n}").unwrap();
        update_bench_section(&path, "pool", "beta", "{\n  \"y\": {\"z\": 2}\n}").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"alpha\""), "{text}");
        assert!(text.contains("\"beta\""), "{text}");
        assert!(text.contains("\"x\": 1"), "{text}");
        assert!(text.contains("\"z\": 2"), "{text}");
        assert!(text.contains("\"bench\": \"pool\""), "{text}");
    }

    #[test]
    fn rewriting_a_section_replaces_it_and_keeps_the_rest() {
        let path = tempfile("replace.json");
        let _ = std::fs::remove_file(&path);
        update_bench_section(&path, "pool", "alpha", "{ \"v\": \"old\" }").unwrap();
        update_bench_section(&path, "pool", "beta", "{ \"kept\": true }").unwrap();
        update_bench_section(&path, "pool", "alpha", "{ \"v\": \"new\" }").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("old"), "{text}");
        assert!(text.contains("\"v\": \"new\""), "{text}");
        assert!(text.contains("\"kept\": true"), "{text}");
    }

    #[test]
    fn round_trip_survives_strings_with_braces_and_escapes() {
        let path = tempfile("tricky.json");
        let _ = std::fs::remove_file(&path);
        let tricky = "{ \"note\": \"a } brace and a \\\" quote\" }";
        update_bench_section(&path, "pool", "tricky", tricky).unwrap();
        update_bench_section(&path, "pool", "other", "{ \"n\": 3 }").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("a } brace"), "{text}");
        assert!(text.contains("\"n\": 3"), "{text}");
    }

    #[test]
    fn every_written_section_records_available_parallelism() {
        let path = tempfile("cores.json");
        let _ = std::fs::remove_file(&path);
        update_bench_section(&path, "pool", "alpha", "{\n  \"x\": 1\n}").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let expected = format!("\"available_parallelism\": {}", available_parallelism());
        assert!(text.contains(&expected), "{text}");
        assert!(text.contains("\"x\": 1"), "{text}");
    }

    #[test]
    fn parallelism_injection_is_idempotent() {
        let path = tempfile("cores-idem.json");
        let _ = std::fs::remove_file(&path);
        // A body that already carries a (stale) value gets exactly one fresh
        // field, not two.
        update_bench_section(
            &path,
            "pool",
            "alpha",
            "{\n  \"available_parallelism\": 999,\n  \"x\": 1\n}",
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("available_parallelism").count(), 1, "{text}");
        assert!(!text.contains("999"), "{text}");
        assert!(text.contains("\"x\": 1"), "{text}");
        // Rewriting the same section keeps it single.
        update_bench_section(
            &path,
            "pool",
            "alpha",
            "{\n  \"available_parallelism\": 999,\n  \"x\": 2\n}",
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("available_parallelism").count(), 1, "{text}");
        assert!(text.contains("\"x\": 2"), "{text}");
    }

    #[test]
    fn malformed_existing_files_are_started_over() {
        let path = tempfile("malformed.json");
        std::fs::write(&path, "not json at all").unwrap();
        update_bench_section(&path, "pool", "alpha", "{ \"ok\": 1 }").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"ok\": 1"), "{text}");
        assert!(!text.contains("not json"), "{text}");
    }
}
