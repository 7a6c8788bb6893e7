//! Plug-in (maximum-likelihood) information measures over discrete counts.
//!
//! Building block for the binning estimator, and in test builds the
//! discrete multi-information reference it is compared against:
//! discrete identities are exact here, so they validate the shared
//! conventions (bits, multi-information definition) independently of
//! k-NN machinery.

/// Shannon entropy in bits of an (unnormalized) count histogram.
///
/// Zero counts contribute nothing. Returns 0 for an all-zero histogram.
pub(crate) fn entropy_from_counts(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    let mut h = 0.0;
    for &c in counts {
        if c > 0 {
            let p = c as f64 / total;
            h -= p * p.log2();
        }
    }
    h
}

/// Multi-information in bits of jointly observed discrete variables:
/// `samples[s]` is the tuple of symbols observed in sample `s`.
///
/// `I = Σᵢ H(Xᵢ) − H(X₁,…,X_n)`, all entropies plug-in estimates — the
/// reference the binning estimator's tests compare against.
#[cfg(test)]
pub(crate) fn multi_information_from_tuples(samples: &[Vec<u32>]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let n = samples[0].len();
    assert!(
        samples.iter().all(|s| s.len() == n),
        "multi_information_from_tuples: ragged samples"
    );
    use std::collections::HashMap;
    // Marginals.
    let mut sum_marginals = 0.0;
    for i in 0..n {
        let mut counts: HashMap<u32, u64> = HashMap::new();
        for s in samples {
            *counts.entry(s[i]).or_insert(0) += 1;
        }
        let c: Vec<u64> = counts.values().copied().collect();
        sum_marginals += entropy_from_counts(&c);
    }
    // Joint.
    let mut joint: HashMap<&[u32], u64> = HashMap::new();
    for s in samples {
        *joint.entry(s.as_slice()).or_insert(0) += 1;
    }
    let jc: Vec<u64> = joint.values().copied().collect();
    sum_marginals - entropy_from_counts(&jc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_of_uniform_and_point_mass() {
        assert!((entropy_from_counts(&[1, 1, 1, 1]) - 2.0).abs() < 1e-12);
        assert_eq!(entropy_from_counts(&[7, 0, 0]), 0.0);
        assert_eq!(entropy_from_counts(&[0, 0]), 0.0);
    }

    #[test]
    fn multi_info_pairwise_matches_mi() {
        // Two variables: multi-information == mutual information.
        let samples: Vec<Vec<u32>> = vec![
            vec![0, 0],
            vec![0, 0],
            vec![1, 1],
            vec![1, 1],
            vec![0, 1],
            vec![1, 0],
        ];
        // I(X;Y) = H(X) + H(Y) − H(X,Y), with uniform marginals.
        let expect = 2.0 - entropy_from_counts(&[2, 1, 1, 2]);
        let got = multi_information_from_tuples(&samples);
        assert!((got - expect).abs() < 1e-12);
    }

    #[test]
    fn multi_info_of_copies_is_additive() {
        // X uniform on {0,1}; Y = Z = X: I(X,Y,Z) = 2H(X) = 2 bits.
        let samples: Vec<Vec<u32>> = (0..8).map(|i| vec![i % 2, i % 2, i % 2]).collect();
        assert!((multi_information_from_tuples(&samples) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn multi_info_nonnegative_on_random_tuples() {
        let mut rng = sops_math::SplitMix64::new(9);
        let samples: Vec<Vec<u32>> = (0..200)
            .map(|_| vec![rng.next_below(4) as u32, rng.next_below(3) as u32])
            .collect();
        assert!(multi_information_from_tuples(&samples) >= -1e-12);
    }
}
