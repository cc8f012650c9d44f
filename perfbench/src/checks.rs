//! Output checks. Each compares a timed result against a reference made by
//! a different path, and returns the reason on mismatch.

use mhe_cache::CacheConfig;
use mhe_core::evaluator::ReferenceEvaluation;
use mhe_model::{TraceParams, UnifiedParams};
use mhe_trace::StreamKind;
use std::collections::{BTreeMap, HashMap};

/// Everything a measurement answers with: the three miss maps and the AHH
/// parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub imeasured: BTreeMap<CacheConfig, u64>,
    pub dmeasured: BTreeMap<CacheConfig, u64>,
    pub umeasured: BTreeMap<CacheConfig, u64>,
    pub iparams: TraceParams,
    pub uparams: UnifiedParams,
}

fn sorted(map: &HashMap<CacheConfig, u64>) -> BTreeMap<CacheConfig, u64> {
    map.iter().map(|(&c, &m)| (c, m)).collect()
}

impl Measured {
    pub fn of(eval: &ReferenceEvaluation) -> Self {
        Measured {
            imeasured: sorted(eval.imeasured()),
            dmeasured: sorted(eval.dmeasured()),
            umeasured: sorted(eval.umeasured()),
            iparams: *eval.iparams(),
            uparams: *eval.uparams(),
        }
    }

    fn streams(&self) -> [(StreamKind, &BTreeMap<CacheConfig, u64>); 3] {
        [
            (StreamKind::Instruction, &self.imeasured),
            (StreamKind::Data, &self.dmeasured),
            (StreamKind::Unified, &self.umeasured),
        ]
    }
}

/// Miss maps and AHH parameters must be bit-identical. Parameters compare
/// by their `Debug` text, which round-trips every `f64` bit pattern.
pub fn identical(got: &Measured, want: &Measured) -> Result<(), String> {
    for ((kind, g), (_, w)) in got.streams().into_iter().zip(want.streams()) {
        if g.len() != w.len() {
            return Err(format!("{kind:?} map has {} configurations, want {}", g.len(), w.len()));
        }
        for (config, want_misses) in w {
            match g.get(config) {
                Some(got_misses) if got_misses == want_misses => {}
                other => {
                    return Err(format!(
                        "{kind:?} {config:?}: {other:?} misses, want {want_misses}"
                    ))
                }
            }
        }
    }
    let (gi, wi) = (format!("{:?}", got.iparams), format!("{:?}", want.iparams));
    if gi != wi {
        return Err(format!("instruction AHH parameters {gi}, want {wi}"));
    }
    let (gu, wu) = (format!("{:?}", got.uparams), format!("{:?}", want.uparams));
    if gu != wu {
        return Err(format!("unified AHH parameters {gu}, want {wu}"));
    }
    Ok(())
}

/// Largest |sampled − exact| miss ratio over every measured configuration
/// of the three streams; `stream_len` gives each stream's access count
/// (instruction, data, unified).
pub fn miss_ratio_error(
    sampled: &Measured,
    exact: &Measured,
    stream_len: [u64; 3],
) -> Result<f64, String> {
    let mut worst = 0.0f64;
    for (((kind, s), (_, e)), len) in
        sampled.streams().into_iter().zip(exact.streams()).zip(stream_len)
    {
        for (config, &exact_misses) in e {
            let Some(&sampled_misses) = s.get(config) else {
                return Err(format!("sampled {kind:?} map lacks {config:?}"));
            };
            let diff = (sampled_misses as f64 - exact_misses as f64).abs();
            worst = worst.max(diff / len.max(1) as f64);
        }
    }
    Ok(worst)
}

/// The sampled result must stay within the sampling accuracy budget.
pub fn within_budget(miss_ratio_error: f64, budget: f64) -> Result<(), String> {
    if miss_ratio_error <= budget {
        Ok(())
    } else {
        Err(format!("miss-ratio error {miss_ratio_error} exceeds the {budget} budget"))
    }
}

/// A rendered frontier must match the reference byte for byte.
pub fn same_frontier(got: &str, want: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got
        .bytes()
        .zip(want.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    Err(format!("frontier differs at byte {at} (got {} bytes, want {})", got.len(), want.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhe_core::evaluator::EvalConfig;
    use mhe_vliw::ProcessorKind;
    use mhe_workload::Benchmark;

    fn tiny() -> Measured {
        let l1 = [CacheConfig::from_bytes(1024, 1, 32)];
        let l2 = [CacheConfig::from_bytes(16 * 1024, 2, 64)];
        let eval = ReferenceEvaluation::build(
            Benchmark::Unepic.generate(),
            &ProcessorKind::P1111.mdes(),
            EvalConfig { events: 3_000, threads: 1, ..EvalConfig::default() },
            &l1,
            &l1,
            &l2,
        );
        Measured::of(&eval)
    }

    #[test]
    fn identical_rejects_one_flipped_miss_count() {
        let want = tiny();
        assert_eq!(identical(&want.clone(), &want), Ok(()));
        for stream in 0..3 {
            let mut got = want.clone();
            let map = match stream {
                0 => &mut got.imeasured,
                1 => &mut got.dmeasured,
                _ => &mut got.umeasured,
            };
            let misses = map.values_mut().next().expect("a configuration per stream");
            *misses ^= 1;
            assert!(identical(&got, &want).is_err(), "stream {stream}");
        }
        let mut got = want.clone();
        got.iparams.lav = f64::from_bits(got.iparams.lav.to_bits() ^ 1);
        assert!(identical(&got, &want).is_err(), "one bit of an AHH parameter");
    }

    #[test]
    fn sampled_check_rejects_an_error_beyond_the_budget() {
        let exact = tiny();
        let lens = [100_000, 100_000, 200_000];
        assert_eq!(miss_ratio_error(&exact, &exact, lens), Ok(0.0));
        let mut sampled = exact.clone();
        *sampled.umeasured.values_mut().next().unwrap() += 4_001;
        let err = miss_ratio_error(&sampled, &exact, lens).unwrap();
        assert!((err - 4_001.0 / 200_000.0).abs() < 1e-12);
        assert!(within_budget(err, 0.02).is_err());
        *sampled.umeasured.values_mut().next().unwrap() -= 2;
        assert!(within_budget(miss_ratio_error(&sampled, &exact, lens).unwrap(), 0.02).is_ok());
        sampled.dmeasured.clear();
        assert!(miss_ratio_error(&sampled, &exact, lens).is_err(), "a missing configuration");
    }

    #[test]
    fn frontier_check_rejects_one_altered_byte() {
        let want = "# provenance: exact\nproc  cycles\n1111  12345\n";
        assert_eq!(same_frontier(want, want), Ok(()));
        let mut bytes = want.as_bytes().to_vec();
        bytes[40] ^= 0x01;
        let got = String::from_utf8(bytes).unwrap();
        let err = same_frontier(&got, want).unwrap_err();
        assert!(err.contains("byte 40"), "{err}");
        assert!(same_frontier(&want[..want.len() - 1], want).is_err(), "a truncated frontier");
    }
}
