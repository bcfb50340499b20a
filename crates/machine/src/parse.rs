//! The `alecto-machine-v1` text parser: a hand-rolled, std-only reader for
//! the TOML-shaped machine format, split into a line-level lexing stage
//! (producing [`Entry`] records that remember their source line) and a
//! compile stage ([`compile_entries`]) that the sweep server reuses for
//! inline JSON machine objects.

use alecto_types::CACHE_LINE_BYTES;
use memsys::CacheParams;
use prefetch::CompositeKind;

use crate::spec::{dram_from_label, prefetch_from_label, timing_from_label, MachineSpec};
use crate::CoreModelKind;

/// The format version this build reads and writes.
pub const FORMAT_VERSION: &str = "alecto-machine-v1";

/// A raw value as written in a machine description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RawValue {
    /// An unsigned decimal integer (underscore separators allowed).
    Int(u64),
    /// A double-quoted string.
    Str(String),
}

/// One `key = value` assignment, addressed by its dotted path (section plus
/// key, e.g. `cache.l1d.ways`) and carrying the 1-based source line it came
/// from. Line `0` means "no source line" — the sweep server synthesizes
/// entries at line 0 from inline JSON objects, and errors then omit the
/// `line N:` prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Dotted path: top-level keys are bare (`cores`), section keys are
    /// prefixed (`cache.l3.mshrs`).
    pub path: String,
    /// The assigned value.
    pub value: RawValue,
    /// 1-based source line, or 0 for synthesized entries.
    pub line: usize,
}

fn is_ident(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

fn err_at(line: usize, msg: impl std::fmt::Display) -> String {
    if line == 0 {
        msg.to_string()
    } else {
        format!("line {line}: {msg}")
    }
}

/// Lexes machine-description text into [`Entry`] records: section headers
/// set the path prefix, `key = value` lines append entries, `#` comments
/// and blank lines are skipped. Duplicate paths are an error naming both
/// lines.
fn lex(text: &str) -> Result<Vec<Entry>, String> {
    let mut entries: Vec<Entry> = Vec::new();
    let mut prefix = String::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            // Allow a trailing comment after the header, TOML-style.
            let rest = rest.split_once('#').map_or(rest, |(head, _)| head).trim_end();
            let Some(section) = rest.strip_suffix(']') else {
                return Err(err_at(line_no, format!("unterminated section header {line:?}")));
            };
            let section = section.trim();
            if !is_ident(section) {
                return Err(err_at(line_no, format!("invalid section name {section:?}")));
            }
            prefix = format!("{section}.");
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err_at(
                line_no,
                format!(
                    "expected `key = value`, a `[section]` header or a `#` comment, got {line:?}"
                ),
            ));
        };
        let key = key.trim();
        if !is_ident(key) || key.contains('.') {
            return Err(err_at(line_no, format!("invalid key {key:?}")));
        }
        let value = value.trim();
        let parsed = if let Some(quoted) = value.strip_prefix('"') {
            let Some(end) = quoted.find('"') else {
                return Err(err_at(line_no, format!("unterminated string for key `{key}`")));
            };
            let tail = quoted[end + 1..].trim();
            if !tail.is_empty() && !tail.starts_with('#') {
                return Err(err_at(
                    line_no,
                    format!("trailing text {tail:?} after string for key `{key}`"),
                ));
            }
            RawValue::Str(quoted[..end].to_string())
        } else {
            let bare = value.split('#').next().unwrap_or("").trim();
            if bare.is_empty() {
                return Err(err_at(line_no, format!("missing value for key `{key}`")));
            }
            let digits: String = bare.chars().filter(|c| *c != '_').collect();
            let Ok(int) = digits.parse::<u64>() else {
                return Err(err_at(
                    line_no,
                    format!("value {bare:?} for key `{key}` is neither a decimal integer nor a quoted string"),
                ));
            };
            RawValue::Int(int)
        };
        let path = format!("{prefix}{key}");
        if let Some(first) = entries.iter().find(|e| e.path == path) {
            return Err(err_at(
                line_no,
                format!("duplicate key `{path}` (first set on line {})", first.line),
            ));
        }
        entries.push(Entry { path, value: parsed, line: line_no });
    }
    Ok(entries)
}

/// A consumable view over parsed entries: each `take_*` call marks its
/// entry used, so anything left at the end is an unknown key.
struct Pool {
    items: Vec<(Entry, bool)>,
}

impl Pool {
    fn new(entries: &[Entry]) -> Self {
        Self { items: entries.iter().map(|e| (e.clone(), false)).collect() }
    }

    fn take(&mut self, path: &str) -> Option<(RawValue, usize)> {
        let slot = self.items.iter_mut().find(|(e, used)| !*used && e.path == path)?;
        slot.1 = true;
        Some((slot.0.value.clone(), slot.0.line))
    }

    fn take_int(&mut self, path: &str) -> Result<Option<(u64, usize)>, String> {
        match self.take(path) {
            None => Ok(None),
            Some((RawValue::Int(v), line)) => Ok(Some((v, line))),
            Some((RawValue::Str(_), line)) => {
                Err(err_at(line, format!("key `{path}` expects an integer, got a string")))
            }
        }
    }

    /// Takes the [`count`] key `path`, with its source line.
    fn take_count<T: TryFrom<u64>>(&mut self, path: &str) -> Result<Option<(T, usize)>, String> {
        self.take_int(path)?.map(|(value, line)| Ok((count(value, line, path)?, line))).transpose()
    }

    /// Sets `field` from the [`count`] key `path` when the entries have it.
    fn set_count<T: TryFrom<u64>>(&mut self, path: &str, field: &mut T) -> Result<(), String> {
        if let Some((value, _)) = self.take_count(path)? {
            *field = value;
        }
        Ok(())
    }

    fn take_str(&mut self, path: &str) -> Result<Option<(String, usize)>, String> {
        match self.take(path) {
            None => Ok(None),
            Some((RawValue::Str(v), line)) => Ok(Some((v, line))),
            Some((RawValue::Int(_), line)) => {
                Err(err_at(line, format!("key `{path}` expects a quoted string, got an integer")))
            }
        }
    }

    /// Lowest source line among entries under `prefix.` (used to anchor
    /// hierarchy-validation errors to the section that caused them).
    fn section_line(&self, prefix: &str) -> Option<usize> {
        self.items.iter().filter(|(e, _)| e.path.starts_with(prefix)).map(|(e, _)| e.line).min()
    }

    fn first_unused(&self) -> Option<&Entry> {
        self.items.iter().filter(|(_, used)| !*used).map(|(e, _)| e).min_by_key(|e| e.line)
    }
}

/// The value of the count key `path` as a `T`: at least 1, and small enough
/// for the field it sets.
fn count<T: TryFrom<u64>>(value: u64, line: usize, path: &str) -> Result<T, String> {
    if value == 0 {
        return Err(err_at(line, format!("key `{path}` must be at least 1")));
    }
    T::try_from(value).map_err(|_| err_at(line, format!("key `{path}` value {value} is too large")))
}

/// Applies one `[cache.<level>]` section to `params`. `scale` is 1 for the
/// private levels and the core count for the shared L3, whose file keys are
/// machine-wide totals.
fn apply_cache_section(
    pool: &mut Pool,
    section: &str,
    params: &mut CacheParams,
    scale: usize,
) -> Result<(), String> {
    let prefix = format!("cache.{section}");
    pool.set_count(&format!("{prefix}.ways"), &mut params.ways)?;
    if let Some((line_bytes, line)) = pool.take_int(&format!("{prefix}.line"))? {
        if line_bytes != CACHE_LINE_BYTES {
            return Err(err_at(
                line,
                format!("`{prefix}.line` = {line_bytes}: only {CACHE_LINE_BYTES}-byte lines are supported"),
            ));
        }
    }
    // The capacity can be spelled three ways; when more than one is given
    // they must agree (after converting through ways × line size).
    let mut size: Option<(u64, usize, &str)> =
        pool.take_count(&format!("{prefix}.size"))?.map(|(bytes, line)| (bytes, line, "size"));
    if let Some((kb, line)) = pool.take_count::<u64>(&format!("{prefix}.size_kb"))? {
        let bytes = kb
            .checked_mul(1024)
            .ok_or_else(|| err_at(line, format!("`{prefix}.size_kb` = {kb} is too large")))?;
        if let Some((prev, prev_line, prev_key)) = size {
            if prev != bytes {
                return Err(err_at(
                    line,
                    format!("`{prefix}.size_kb` = {kb} disagrees with `{prefix}.{prev_key}` on line {prev_line} ({prev} B)"),
                ));
            }
        }
        size = Some((bytes, line, "size_kb"));
    }
    if let Some((sets, line)) = pool.take_count::<u64>(&format!("{prefix}.sets"))? {
        let bytes = sets
            .checked_mul(params.ways as u64)
            .and_then(|lines| lines.checked_mul(CACHE_LINE_BYTES))
            .ok_or_else(|| err_at(line, format!("`{prefix}.sets` = {sets} is too large")))?;
        if let Some((prev, prev_line, prev_key)) = size {
            if prev != bytes {
                return Err(err_at(
                    line,
                    format!(
                        "`{prefix}.sets` = {sets} implies {bytes} B at {} ways, disagreeing with `{prefix}.{prev_key}` on line {prev_line} ({prev} B)",
                        params.ways
                    ),
                ));
            }
        }
        size = Some((bytes, line, "sets"));
    }
    if let Some((bytes, line, key)) = size {
        if scale > 1 && !bytes.is_multiple_of(scale as u64) {
            return Err(err_at(
                line,
                format!("`{prefix}.{key}` totals {bytes} B, which does not divide evenly across {scale} cores"),
            ));
        }
        params.size_bytes = bytes / scale as u64;
    }
    pool.set_count(&format!("{prefix}.latency"), &mut params.latency)?;
    if let Some((miss, _)) = pool.take_int(&format!("{prefix}.miss_latency"))? {
        params.miss_latency = miss;
    }
    if let Some((mshrs, line)) = pool.take_count::<usize>(&format!("{prefix}.mshrs"))? {
        if scale > 1 && !mshrs.is_multiple_of(scale) {
            return Err(err_at(
                line,
                format!("`{prefix}.mshrs` totals {mshrs} MSHRs, which does not divide evenly across {scale} cores"),
            ));
        }
        params.mshrs = mshrs / scale;
    }
    Ok(())
}

/// Expected keys per section, quoted in unknown-key errors so typos are
/// self-diagnosing.
fn expected_keys(path: &str) -> &'static str {
    if path.starts_with("cache.") {
        "size_kb, size, sets, ways, line, latency, miss_latency, mshrs"
    } else if path.starts_with("core.") {
        "model, rob, fetch_width, commit_width, load_queue, store_queue"
    } else if path.starts_with("dram.") {
        "kind"
    } else if path.starts_with("timing.") {
        "preset, dram_drain_requests, dram_drain_period"
    } else if path.starts_with("selector.") {
        "epoch_instructions"
    } else if path.starts_with("prefetch.") {
        "stack, temporal_metadata_kb"
    } else if path.contains('.') {
        "sections core, cache.l1d, cache.l2, cache.l3, dram, timing, selector, prefetch"
    } else {
        "format, name, cores"
    }
}

/// Compiles lexed (or synthesized) entries into a validated [`MachineSpec`].
///
/// With `inline` set, `name` defaults to `"inline"` — the sweep server uses
/// this for machine objects embedded in a request body, where entries carry
/// line 0 and errors come back without `line N:` prefixes.
///
/// # Errors
///
/// Returns the first problem found, formatted `line N: message` when the
/// offending entry has a source line. Hierarchy-validation failures (the
/// power-of-two-sets aliasing explanation among them) are anchored to the
/// first line of the section that declared the offending level.
pub fn compile_entries(entries: &[Entry], inline: bool) -> Result<MachineSpec, String> {
    let mut pool = Pool::new(entries);

    let Some((format, line)) = pool.take_str("format")? else {
        return Err(format!("missing required key `format` (expected \"{FORMAT_VERSION}\")"));
    };
    if format != FORMAT_VERSION {
        return Err(if format.starts_with("alecto-machine-v") {
            err_at(
                line,
                format!("unsupported machine format version {format:?} (this build reads \"{FORMAT_VERSION}\")"),
            )
        } else {
            err_at(
                line,
                format!(
                    "not a machine description: format = {format:?}, expected \"{FORMAT_VERSION}\""
                ),
            )
        });
    }

    let name = match pool.take_str("name")? {
        Some((name, _)) => name,
        None if inline => "inline".to_string(),
        None => return Err("missing required key `name`".to_string()),
    };

    let Some((cores, _)) = pool.take_count("cores")? else {
        return Err("missing required key `cores`".to_string());
    };

    let mut spec = MachineSpec::table1(cores);
    spec.name = name;

    if let Some((model, line)) = pool.take_str("core.model")? {
        spec.core_model = CoreModelKind::from_label(&model).ok_or_else(|| {
            err_at(line, format!("unknown core model {model:?} (expected approx or ooo)"))
        })?;
    }
    pool.set_count("core.rob", &mut spec.rob_entries)?;
    pool.set_count("core.fetch_width", &mut spec.fetch_width)?;
    pool.set_count("core.commit_width", &mut spec.commit_width)?;
    pool.set_count("core.load_queue", &mut spec.load_queue)?;
    pool.set_count("core.store_queue", &mut spec.store_queue)?;

    apply_cache_section(&mut pool, "l1d", &mut spec.l1d, 1)?;
    apply_cache_section(&mut pool, "l2", &mut spec.l2, 1)?;
    apply_cache_section(&mut pool, "l3", &mut spec.l3_per_core, cores)?;

    if let Some((kind, line)) = pool.take_str("dram.kind")? {
        spec.dram = dram_from_label(&kind).ok_or_else(|| {
            err_at(line, format!("unknown DRAM kind {kind:?} (expected ddr3-1600 or ddr4-2400)"))
        })?;
    }

    // The knobs are checked only once the preset is known to be absent, so
    // a preset beside a zero knob reports the conflict, not the zero.
    let preset = pool.take_str("timing.preset")?;
    let drain_requests = pool.take_int("timing.dram_drain_requests")?;
    let drain_period = pool.take_int("timing.dram_drain_period")?;
    match (preset, drain_requests, drain_period) {
        (Some((label, line)), None, None) => {
            spec.timing = timing_from_label(&label).ok_or_else(|| {
                err_at(
                    line,
                    format!("unknown timing preset {label:?} (expected balanced, latency-sensitive or bandwidth-bound)"),
                )
            })?;
        }
        (None, Some((requests, rline)), Some((period, pline))) => {
            spec.timing = memsys::TimingParams {
                dram_drain_requests: count(requests, rline, "timing.dram_drain_requests")?,
                dram_drain_period: count(period, pline, "timing.dram_drain_period")?,
            };
        }
        (Some((_, line)), Some(_), _) | (Some((_, line)), _, Some(_)) => {
            return Err(err_at(
                line,
                "`timing.preset` and explicit drain knobs are mutually exclusive — pick one",
            ));
        }
        (None, Some((_, line)), None) | (None, None, Some((_, line))) => {
            return Err(err_at(
                line,
                "explicit timing needs both `dram_drain_requests` and `dram_drain_period`",
            ));
        }
        (None, None, None) => {}
    }

    pool.set_count("selector.epoch_instructions", &mut spec.selector_epoch_instructions)?;

    // The budget is checked in the temporal arm only, so a budget beside
    // another stack, or none, reports that rather than its value.
    let stack = pool.take_str("prefetch.stack")?;
    let metadata = pool.take_int("prefetch.temporal_metadata_kb")?;
    match (stack, metadata) {
        (Some((label, line)), metadata) => {
            let parsed = prefetch_from_label(&label).ok_or_else(|| {
                err_at(
                    line,
                    format!("unknown prefetch stack {label:?} (expected gs-cs-pmp, gs-berti-cplx, gs-cs-pmp-temporal, pmp or berti)"),
                )
            })?;
            spec.prefetch = Some(match (parsed, metadata) {
                (CompositeKind::GsCsPmpTemporal { .. }, Some((kb, kb_line))) => {
                    let kb: u32 = count(kb, kb_line, "prefetch.temporal_metadata_kb")?;
                    CompositeKind::GsCsPmpTemporal { metadata_bytes: u64::from(kb) * 1024 }
                }
                (stack, None) => stack,
                (_, Some((_, kb_line))) => {
                    return Err(err_at(
                        kb_line,
                        "`prefetch.temporal_metadata_kb` only applies to the \"gs-cs-pmp-temporal\" stack",
                    ));
                }
            });
        }
        (None, Some((_, line))) => {
            return Err(err_at(
                line,
                "`prefetch.temporal_metadata_kb` requires `prefetch.stack = \"gs-cs-pmp-temporal\"`",
            ));
        }
        (None, None) => {}
    }

    if let Some(entry) = pool.first_unused() {
        return Err(err_at(
            entry.line,
            format!(
                "unknown key `{}` (expected one of: {})",
                entry.path,
                expected_keys(&entry.path)
            ),
        ));
    }

    spec.validate().map_err(|msg| {
        // Anchor level-prefixed hierarchy errors to the section that set the
        // offending geometry, when the file has one.
        let section = if msg.starts_with("L1D:") {
            Some("cache.l1d.")
        } else if msg.starts_with("L2:") {
            Some("cache.l2.")
        } else if msg.starts_with("L3:") {
            Some("cache.l3.")
        } else if msg.starts_with("timing:") {
            Some("timing.")
        } else {
            None
        };
        match section.and_then(|prefix| pool.section_line(prefix)) {
            Some(line) => err_at(line, msg),
            None => msg,
        }
    })?;
    Ok(spec)
}

/// Parses complete `alecto-machine-v1` text into a validated [`MachineSpec`].
///
/// # Errors
///
/// Returns a `line N:`-prefixed description of the first problem: a lexing
/// error, an unknown or duplicated key, a value constraint, or a hierarchy
/// validation failure (anchored to the section that declared it).
pub fn parse(text: &str) -> Result<MachineSpec, String> {
    compile_entries(&lex(text)?, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsys::{DramKind, TimingParams};

    fn minimal(extra: &str) -> String {
        format!("format = \"{FORMAT_VERSION}\"\nname = \"t\"\ncores = 2\n{extra}")
    }

    #[test]
    fn minimal_file_takes_table1_defaults() {
        let spec = parse(&minimal("")).unwrap();
        let mut expected = MachineSpec::table1(2);
        expected.name = "t".to_string();
        assert_eq!(spec, expected);
    }

    #[test]
    fn sections_comments_and_underscores_parse() {
        let spec = parse(&minimal(
            "# comment\n[core]\nmodel = \"ooo\"  # inline comment\nrob = 1_024\n\n[cache.l3]\nsize_kb = 8192\nmshrs = 256\n\n[dram]\nkind = \"ddr3-1600\"\n",
        ))
        .unwrap();
        assert_eq!(spec.core_model, CoreModelKind::OutOfOrder);
        assert_eq!(spec.rob_entries, 1024);
        assert_eq!(spec.l3_per_core.size_bytes, 4096 * 1024);
        assert_eq!(spec.l3_per_core.mshrs, 128);
        assert_eq!(spec.dram, DramKind::Ddr3_1600);
    }

    #[test]
    fn size_spellings_must_agree() {
        let ok = parse(&minimal("[cache.l1d]\nsize_kb = 32\nsets = 64\n")).unwrap();
        assert_eq!(ok.l1d.size_bytes, 32 * 1024);
        let err = parse(&minimal("[cache.l1d]\nsize_kb = 32\nsets = 128\n")).unwrap_err();
        assert!(err.contains("disagree"), "{err}");
        assert!(err.starts_with("line 6:"), "{err}");
    }

    #[test]
    fn oversized_capacities_are_rejected_not_wrapped() {
        // Both values come to 2^64 + 32768 bytes: wrapped, each would read
        // back as a valid 32 KiB cache.
        let err = parse(&minimal("[cache.l1d]\nsize_kb = 18014398509482016\n")).unwrap_err();
        assert_eq!(err, "line 5: `cache.l1d.size_kb` = 18014398509482016 is too large");
        let err = parse(&minimal("[cache.l2]\nsets = 36028797018964032\n")).unwrap_err();
        assert_eq!(err, "line 5: `cache.l2.sets` = 36028797018964032 is too large");
    }

    #[test]
    fn counts_are_at_least_one_and_fit_their_field() {
        let err = parse(&minimal("[core]\nrob = 0\n")).unwrap_err();
        assert_eq!(err, "line 5: key `core.rob` must be at least 1");
        let err =
            parse(&minimal("[core]\nload_queue = 72\nfetch_width = 4294967296\n")).unwrap_err();
        assert_eq!(err, "line 6: key `core.fetch_width` value 4294967296 is too large");
    }

    #[test]
    fn explicit_timing_requires_both_knobs_and_excludes_presets() {
        let spec =
            parse(&minimal("[timing]\ndram_drain_requests = 1\ndram_drain_period = 16\n")).unwrap();
        assert_eq!(spec.timing, TimingParams::bandwidth_bound());
        let err = parse(&minimal("[timing]\ndram_drain_requests = 1\n")).unwrap_err();
        assert!(err.contains("both"), "{err}");
        let err = parse(&minimal("[timing]\npreset = \"balanced\"\ndram_drain_requests = 1\n"))
            .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn errors_carry_the_offending_line() {
        let err = parse(&minimal("[core]\nmodel = \"o3\"\n")).unwrap_err();
        assert_eq!(err, "line 5: unknown core model \"o3\" (expected approx or ooo)");
        let err = parse(&minimal("cores = 4\n")).unwrap_err();
        assert!(err.starts_with("line 4: duplicate key `cores` (first set on line 3)"), "{err}");
        let err = parse(&minimal("[cache.l1d]\nsize = 12345\n")).unwrap_err();
        assert!(err.starts_with("line 5:"), "{err}");
        assert!(err.contains("alias"), "the aliasing explanation must surface: {err}");
    }

    #[test]
    fn unknown_keys_and_versions_are_diagnosed() {
        let err = parse(&minimal("[core]\nwidth = 4\n")).unwrap_err();
        assert!(err.contains("unknown key `core.width`"), "{err}");
        assert!(err.contains("fetch_width"), "the hint must list expected keys: {err}");
        let err = parse("format = \"alecto-machine-v9\"\nname = \"t\"\ncores = 1\n").unwrap_err();
        assert!(err.contains("unsupported machine format version"), "{err}");
        let err = parse("name = \"t\"\ncores = 1\n").unwrap_err();
        assert!(err.contains("missing required key `format`"), "{err}");
    }

    #[test]
    fn prefetch_section_pins_a_stack() {
        let spec = parse(&minimal("[prefetch]\nstack = \"gs-berti-cplx\"\n")).unwrap();
        assert_eq!(spec.prefetch, Some(CompositeKind::GsBertiCplx));
        let spec = parse(&minimal("[prefetch]\nstack = \"gs-cs-pmp-temporal\"\n")).unwrap();
        assert_eq!(
            spec.prefetch,
            Some(CompositeKind::GsCsPmpTemporal { metadata_bytes: 256 * 1024 })
        );
        let spec = parse(&minimal(
            "[prefetch]\nstack = \"gs-cs-pmp-temporal\"\ntemporal_metadata_kb = 1024\n",
        ))
        .unwrap();
        assert_eq!(
            spec.prefetch,
            Some(CompositeKind::GsCsPmpTemporal { metadata_bytes: 1024 * 1024 })
        );
        assert_eq!(parse(&minimal("")).unwrap().prefetch, None);
    }

    #[test]
    fn prefetch_errors_are_line_numbered() {
        let err = parse(&minimal("[prefetch]\nstack = \"stride-only\"\n")).unwrap_err();
        assert_eq!(
            err,
            "line 5: unknown prefetch stack \"stride-only\" (expected gs-cs-pmp, gs-berti-cplx, gs-cs-pmp-temporal, pmp or berti)"
        );
        let err = parse(&minimal("[prefetch]\nstack = \"pmp\"\ntemporal_metadata_kb = 64\n"))
            .unwrap_err();
        assert!(err.starts_with("line 6:"), "{err}");
        assert!(err.contains("only applies"), "{err}");
        let err = parse(&minimal("[prefetch]\ntemporal_metadata_kb = 64\n")).unwrap_err();
        assert!(err.starts_with("line 5:"), "{err}");
        assert!(err.contains("requires"), "{err}");
    }

    #[test]
    fn l3_totals_must_divide_across_cores() {
        let err = parse(&minimal("[cache.l3]\nmshrs = 129\n")).unwrap_err();
        assert!(err.contains("does not divide evenly across 2 cores"), "{err}");
    }

    #[test]
    fn l3_must_build_at_one_core_too() {
        // Valid at the file's 3 cores, but 1,365 sets in the one-core share
        // single-core experiments run.
        let text = format!(
            "format = \"{FORMAT_VERSION}\"\nname = \"m\"\ncores = 3\n\
             [cache.l3]\nsize_kb = 3072\nways = 12\nmshrs = 192\n"
        );
        let err = parse(&text).unwrap_err();
        assert!(err.starts_with("line 5: L3:"), "anchored to [cache.l3]: {err}");
        assert!(err.contains("power of two, got 1365"), "{err}");
    }

    #[test]
    fn inline_mode_defaults_the_name_and_drops_line_prefixes() {
        let entries = vec![
            Entry { path: "format".into(), value: RawValue::Str(FORMAT_VERSION.into()), line: 0 },
            Entry { path: "cores".into(), value: RawValue::Int(4), line: 0 },
            Entry { path: "core.model".into(), value: RawValue::Str("bogus".into()), line: 0 },
        ];
        let err = compile_entries(&entries, true).unwrap_err();
        assert_eq!(err, "unknown core model \"bogus\" (expected approx or ooo)");
        let ok = compile_entries(&entries[..2], true).unwrap();
        assert_eq!(ok.name, "inline");
    }
}
