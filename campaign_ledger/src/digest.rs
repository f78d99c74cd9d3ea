//! Output digests: one 64-bit FNV-1a hash per run that changes whenever the
//! simulated output does.
//!
//! A per-run digest covers the rank-sorted write records (rank, target,
//! bytes, start and end in simulated nanoseconds), the byte outcome and the
//! protocol counters. A fleet sweep's digest is its merged `SweepSink`
//! report, which is byte-identical for any worker count.

use adios_core::RunOutput;
use iostats::SweepSink;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a over little-endian words and byte strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digest of one run's simulated output.
pub fn run_digest(out: &RunOutput) -> u64 {
    let mut recs: Vec<_> = out
        .result
        .records
        .iter()
        .map(|r| {
            (
                r.rank,
                r.start.as_nanos(),
                r.end.as_nanos(),
                r.ost.0 as u64,
                r.bytes,
            )
        })
        .collect();
    recs.sort_unstable();
    let mut h = Fnv::new();
    h.word(recs.len() as u64);
    for (rank, start, end, ost, bytes) in recs {
        for v in [u64::from(rank), ost, bytes, start, end] {
            h.word(v);
        }
    }
    let o = &out.outcome;
    for v in [
        o.total_bytes,
        o.written_bytes,
        o.lost_bytes,
        u64::from(o.complete),
    ] {
        h.word(v);
    }
    match &out.protocol {
        None => h.word(0),
        Some(p) => {
            h.word(1);
            for v in [
                p.coordinator_inbox,
                p.max_outstanding_adaptive as u64,
                p.total_messages,
                p.busiest_rank_inbox,
                p.spec_granted,
                p.spec_won,
                p.bytes_rewritten,
                p.bytes_reconstructed,
            ] {
                h.word(v);
            }
        }
    }
    h.0
}

/// Digest of a merged sweep sink: FNV-1a of its JSON report.
pub fn sink_digest(sink: &SweepSink) -> u64 {
    let mut h = Fnv::new();
    h.bytes(sink.report().to_string().as_bytes());
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::new();
        h.bytes(b"");
        assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }
}
