//! CPLX — the complex-stride component of IPCP (used in the alternate
//! composite of Fig. 11).
//!
//! CPLX predicts *varying* delta sequences (e.g. +1, +1, +1, +4, repeating)
//! that defeat a constant-stride prefetcher. It hashes the recent delta
//! history of each PC into a signature and looks the signature up in a Delta
//! Prediction Table (DPT) that stores the next expected delta with a
//! confidence counter, in the spirit of VLDP.

use alecto_types::{DemandAccess, LineAddr, LruTable, Pc};

use crate::traits::{Prefetcher, PrefetcherKind, TableStats};

const SIGNATURE_DELTAS: usize = 3;
/// Per-PC tracking entries.
const IP_ENTRIES: usize = 64;
/// Delta Prediction Table entries.
const DPT_ENTRIES: usize = 128;
/// Confidence needed before prefetching.
const CONFIDENCE_THRESHOLD: u8 = 2;
/// Confidence saturation value.
const CONFIDENCE_MAX: u8 = 7;

#[derive(Debug, Clone, Copy)]
struct IpEntry {
    last_line: LineAddr,
    recent_deltas: [i64; SIGNATURE_DELTAS],
    valid_deltas: usize,
}

#[derive(Debug, Clone, Copy)]
struct DptEntry {
    predicted_delta: i64,
    confidence: u8,
}

/// The CPLX complex-stride prefetcher.
#[derive(Debug, Clone)]
pub struct CplxPrefetcher {
    ip_table: LruTable<Pc, IpEntry>,
    /// The Delta Prediction Table, keyed by signature.
    dpt: LruTable<u32, DptEntry>,
    stats: TableStats,
}

impl CplxPrefetcher {
    /// Creates a CPLX prefetcher with the default configuration.
    #[must_use]
    pub fn default_config() -> Self {
        Self {
            ip_table: LruTable::new(IP_ENTRIES),
            dpt: LruTable::new(DPT_ENTRIES),
            stats: TableStats::default(),
        }
    }

    fn signature(deltas: &[i64; SIGNATURE_DELTAS]) -> u32 {
        // Order-sensitive multiplicative fold of the (truncated) deltas into a
        // 12-bit signature; a plain shift-XOR here aliases short histories
        // like (1,1,1) and (4,1,1).
        let mut sig: u32 = 0;
        for &d in deltas {
            let folded = ((d & 0x7f) as u32) ^ (((d >> 7) & 0x7f) as u32);
            sig = sig.wrapping_mul(31).wrapping_add(folded.wrapping_add(1));
        }
        sig & 0xfff
    }

    fn dpt_update(&mut self, signature: u32, observed_delta: i64) {
        let (e, hit, evicted) = self.dpt.touch_or_insert_with(signature, || DptEntry {
            predicted_delta: observed_delta,
            confidence: 1,
        });
        self.stats.evictions += u64::from(evicted.is_some());
        if !hit {
            return;
        }
        if e.predicted_delta == observed_delta {
            e.confidence = (e.confidence + 1).min(CONFIDENCE_MAX);
        } else if e.confidence > 0 {
            e.confidence -= 1;
        } else {
            e.predicted_delta = observed_delta;
            e.confidence = 1;
        }
    }

    fn dpt_lookup(&mut self, signature: u32) -> Option<(i64, u8)> {
        self.stats.lookups += 1;
        match self.dpt.get(&signature) {
            Some(e) => {
                self.stats.hits += 1;
                Some((e.predicted_delta, e.confidence))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }
}

impl Prefetcher for CplxPrefetcher {
    fn name(&self) -> &'static str {
        "CPLX"
    }

    fn kind(&self) -> PrefetcherKind {
        PrefetcherKind::DeltaComplex
    }

    fn train_and_predict(&mut self, access: &DemandAccess, degree: u32, out: &mut Vec<LineAddr>) {
        let line = access.line();
        self.stats.trainings += 1;
        let (entry, hit, evicted) = self.ip_table.touch_or_insert_with(access.pc, || IpEntry {
            last_line: line,
            recent_deltas: [0; SIGNATURE_DELTAS],
            valid_deltas: 0,
        });
        self.stats.evictions += u64::from(evicted.is_some());
        if !hit {
            return;
        }
        let delta = line.delta_from(entry.last_line);
        entry.last_line = line;
        if delta == 0 {
            return;
        }

        // The signature of the *previous* deltas trains the DPT with this delta.
        let previous_signature =
            (entry.valid_deltas == SIGNATURE_DELTAS).then(|| Self::signature(&entry.recent_deltas));
        // Shift the delta history.
        entry.recent_deltas.rotate_left(1);
        entry.recent_deltas[SIGNATURE_DELTAS - 1] = delta;
        entry.valid_deltas = (entry.valid_deltas + 1).min(SIGNATURE_DELTAS);
        let (deltas, valid_deltas) = (entry.recent_deltas, entry.valid_deltas);
        if let Some(sig) = previous_signature {
            self.dpt_update(sig, delta);
        }

        if degree == 0 || valid_deltas < SIGNATURE_DELTAS {
            return;
        }
        // Chained prediction: follow the DPT from the current signature for up
        // to `degree` steps.
        let mut sig_deltas = deltas;
        let mut current = line;
        for _ in 0..degree {
            let sig = Self::signature(&sig_deltas);
            let Some((next_delta, confidence)) = self.dpt_lookup(sig) else {
                break;
            };
            if confidence < CONFIDENCE_THRESHOLD || next_delta == 0 {
                break;
            }
            current = current.offset(next_delta);
            out.push(current);
            self.stats.candidates_emitted += 1;
            sig_deltas.rotate_left(1);
            sig_deltas[SIGNATURE_DELTAS - 1] = next_delta;
        }
    }

    fn probe(&self, access: &DemandAccess) -> bool {
        self.ip_table.get(&access.pc).is_some_and(|e| {
            e.valid_deltas == SIGNATURE_DELTAS
                && self
                    .dpt
                    .get(&Self::signature(&e.recent_deltas))
                    .is_some_and(|d| d.confidence >= CONFIDENCE_THRESHOLD)
        })
    }

    fn table_stats(&self) -> &TableStats {
        &self.stats
    }

    fn storage_bits(&self) -> u64 {
        // IP entry: tag 16 b + last line 58 b + 2×12 b deltas + 2 b valid + 6 b LRU.
        // DPT entry: signature 12 b + delta 12 b + confidence 3 b + LRU 7 b.
        (IP_ENTRIES as u64) * (16 + 58 + 24 + 2 + 6) + (DPT_ENTRIES as u64) * (12 + 12 + 3 + 7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alecto_types::Addr;

    fn access(pc: u64, addr: u64) -> DemandAccess {
        DemandAccess::load(Pc::new(pc), Addr::new(addr))
    }

    /// Drives a repeating delta sequence (in lines) through the prefetcher.
    fn drive(
        pf: &mut CplxPrefetcher,
        pc: u64,
        deltas: &[i64],
        reps: usize,
        degree: u32,
    ) -> Vec<LineAddr> {
        let mut out = Vec::new();
        let mut line: i64 = 1 << 20;
        for _ in 0..reps {
            for &d in deltas {
                out.clear();
                pf.train_and_predict(&access(pc, (line as u64) * 64), degree, &mut out);
                line += d;
            }
        }
        out
    }

    #[test]
    fn repeating_complex_pattern_is_predicted() {
        let mut pf = CplxPrefetcher::default_config();
        let out = drive(&mut pf, 0xa00, &[1, 1, 1, 4], 20, 3);
        assert!(!out.is_empty(), "repeating +1,+1,+1,+4 should be predictable");
    }

    #[test]
    fn chained_predictions_follow_the_sequence() {
        let mut pf = CplxPrefetcher::default_config();
        // Strict +2,+3 alternation.
        drive(&mut pf, 0xa04, &[2, 3], 30, 0);
        let mut out = Vec::new();
        // Continue the pattern explicitly so we know the phase: after ..+2,+3
        // the next deltas are +2 then +3.
        let base: u64 = 1 << 21;
        let seq = [0i64, 2, 5, 7, 10, 12, 15];
        let mut last = 0;
        for &s in &seq {
            out.clear();
            pf.train_and_predict(&access(0xa04, (base + s as u64) * 64), 2, &mut out);
            last = base + s as u64;
        }
        let last_line = LineAddr::new(last);
        assert_eq!(out[0], last_line.offset(2));
        if out.len() > 1 {
            assert_eq!(out[1], last_line.offset(5));
        }
    }

    #[test]
    fn constant_stride_also_handled() {
        let mut pf = CplxPrefetcher::default_config();
        let out = drive(&mut pf, 0xa08, &[7], 10, 2);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn random_deltas_not_predicted() {
        // A non-repeating pseudo-random delta walk: no signature ever recurs
        // with a consistent successor, so nothing should be predicted.
        let mut pf = CplxPrefetcher::default_config();
        let mut out = Vec::new();
        let mut line: i64 = 1 << 22;
        for i in 0..64i64 {
            out.clear();
            pf.train_and_predict(&access(0xa0c, (line as u64) * 64), 2, &mut out);
            line += (i * i * 7 + 13) % 97 - 48;
        }
        assert!(out.is_empty(), "non-repeating deltas should not be predicted: {out:?}");
    }

    #[test]
    fn stats_track_dpt_lookups() {
        let mut pf = CplxPrefetcher::default_config();
        drive(&mut pf, 0xa10, &[1, 2], 10, 2);
        let s = pf.table_stats();
        assert!(s.lookups > 0);
        assert!(s.trainings > 0);
    }

    #[test]
    fn name_kind_storage() {
        let pf = CplxPrefetcher::default_config();
        assert_eq!(pf.name(), "CPLX");
        assert_eq!(pf.kind(), PrefetcherKind::DeltaComplex);
        assert!(pf.storage_bits() > 0);
    }
}
