//! Golden fingerprints: the proof-cache fingerprints of Table 1's
//! non-trivial sequents, folded into one committed digest.
//!
//! A persistent store answers a sequent only when the fingerprint computed
//! today equals the one computed when the proof was appended.  Any change
//! to splitting, to the shape of the prover query or to the fingerprint
//! itself that moves one of these values makes every store written earlier
//! stop answering, silently.  This test makes that change loud: it fails,
//! and the fix is to bump `cache_store::SCHEMA_VERSION` on purpose (so old
//! stores are set aside instead of consulted) and update the digest.

use ipl::gcl::split::split_all;
use ipl::gcl::translate::{translate_ext, TranslateCtx};
use ipl::gcl::wlp::vc_of;
use ipl::provers::cache::ProofCache;
use ipl::provers::{Cascade, ProverConfig, Query};

/// FNV-1a over the little-endian bytes of every fingerprint, in Table 1
/// order (benchmark, method, sequent).
const GOLDEN_DIGEST: u64 = 0x13ea_d208_e984_a72d;
const GOLDEN_SEQUENTS: usize = 201;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

#[test]
fn table1_fingerprints_match_the_committed_digest() {
    let config = ProverConfig::default();
    let line_up = Cascade::standard(config).prover_names();
    let mut digest = FNV_OFFSET;
    let mut sequents = 0;
    for benchmark in ipl::suite::all() {
        let module = ipl::lang::parse_module(benchmark.source).expect("parses");
        let lowered = ipl::lang::lower_module(&module).expect("lowers");
        for method in &lowered.methods {
            let simple = translate_ext(&method.command, &mut TranslateCtx::new());
            for sequent in split_all(&vc_of(&simple)) {
                if sequent.is_trivially_valid() {
                    continue;
                }
                // The query the driver builds: `from`-selected assumptions.
                let assumptions = sequent.selected_assumptions().into_iter().cloned();
                let query = Query::new(
                    assumptions.collect(),
                    sequent.goal.clone(),
                    method.env.clone(),
                );
                let fingerprint = ProofCache::fingerprint(&query, &config, &line_up);
                for byte in fingerprint.as_u128().to_le_bytes() {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
                }
                sequents += 1;
            }
        }
    }
    assert_eq!(sequents, GOLDEN_SEQUENTS, "Table 1's non-trivial sequents");
    assert_eq!(
        digest, GOLDEN_DIGEST,
        "the fingerprints of Table 1's sequents changed (digest {digest:#018x}): \
         every proof store written earlier stops answering.  If this is \
         intended, bump cache_store::SCHEMA_VERSION on purpose and update \
         GOLDEN_DIGEST"
    );
}
