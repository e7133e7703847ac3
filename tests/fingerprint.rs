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
//!
//! Two more digests cover the front end below the fingerprints: one the
//! parsed modules, so a change to the reader of module text that moves any
//! node of any Table 1 AST fails here before it reaches a fingerprint, and
//! one the lowered guarded commands, their translation and their construct
//! counts, so a change to the AST's types that lowers to the same commands
//! can be shown to move nothing below it.

use ipl::gcl::split::split_all;
use ipl::gcl::translate::{translate_ext, TranslateCtx};
use ipl::gcl::wlp::vc_of;
use ipl::provers::cache::ProofCache;
use ipl::provers::{Cascade, ProverConfig, Query};

/// FNV-1a over the little-endian bytes of every fingerprint, in Table 1
/// order (benchmark, method, sequent).
const GOLDEN_DIGEST: u64 = 0x13ea_d208_e984_a72d;
const GOLDEN_SEQUENTS: usize = 201;

/// FNV-1a over the bytes of `format!("{:?}", parse_module(source))` for
/// every Table 1 source, in Table 1 order.
const GOLDEN_AST_DIGEST: u64 = 0xbebe_72b4_9f40_895a;

/// FNV-1a over the bytes of `format!("{command:?}\n{simple:?}\n{counts:?}")`
/// for every Table 1 method, in Table 1 order, where `command` is the
/// method's lowered command and then the same command with its proof
/// constructs stripped, `simple` its translation and `counts` its
/// construct counts.
const GOLDEN_COMMAND_DIGEST: u64 = 0xec60_bca9_b338_9bf6;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fold(digest: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(digest, |digest, &byte| {
        (digest ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
    })
}

#[test]
fn table1_asts_match_the_committed_digest() {
    let mut digest = FNV_OFFSET;
    for benchmark in ipl::suite::all() {
        let parsed = format!("{:?}", ipl::lang::parse_module(benchmark.source));
        digest = fold(digest, parsed.as_bytes());
    }
    assert_eq!(
        digest, GOLDEN_AST_DIGEST,
        "a Table 1 source parses to a different AST (digest {digest:#018x})"
    );
}

#[test]
fn table1_commands_match_the_committed_digest() {
    let mut digest = FNV_OFFSET;
    for benchmark in ipl::suite::all() {
        let module = ipl::lang::parse_module(benchmark.source).expect("parses");
        let lowered = ipl::lang::lower_module(&module).expect("lowers");
        for method in &lowered.methods {
            for command in [method.command.clone(), method.command.strip_proofs()] {
                let simple = translate_ext(&command, &mut TranslateCtx::new());
                let counts = command.count_constructs();
                let text = format!("{command:?}\n{simple:?}\n{counts:?}");
                digest = fold(digest, text.as_bytes());
            }
        }
    }
    assert_eq!(
        digest, GOLDEN_COMMAND_DIGEST,
        "a Table 1 method lowers or translates differently (digest {digest:#018x})"
    );
}

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
                digest = fold(digest, &fingerprint.as_u128().to_le_bytes());
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
