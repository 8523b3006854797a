//! Hostile BUILD files: random bytes, every truncation of a valid
//! multi-rule file, a 1 MiB identifier and 100 000 `[`. Each parses to
//! `Ok` or to `Err(BuildError::Parse)` naming the file, and none panics.

use proptest::prelude::*;
use sq_build::{parse_workspace, BuildError, BuildGraph};
use sq_vcs::{ObjectStore, RepoPath, Tree};

/// Parse a workspace whose only file is `pkg/BUILD` holding `bytes`.
fn parse(bytes: &[u8]) -> Result<BuildGraph, BuildError> {
    let mut store = ObjectStore::new();
    let mut tree = Tree::new();
    let id = store.put(bytes.to_vec());
    tree.insert(RepoPath::new("pkg/BUILD").unwrap(), id)
        .unwrap();
    parse_workspace(&tree, &store)
}

/// `Ok`, or a parse error that names the file.
fn assert_ok_or_parse_error(bytes: &[u8]) {
    match parse(bytes) {
        Ok(_) => {}
        Err(BuildError::Parse { path, .. }) => assert_eq!(path, "pkg/BUILD"),
        Err(other) => panic!("{other:?} for {:?}", String::from_utf8_lossy(bytes)),
    }
}

/// Every rule kind, relative and absolute labels, a trailing comma, an
/// ignored attribute, comments with multi-byte characters and a
/// non-breaking space between tokens. Each rule depends only on rules
/// above it, so every prefix that ends between rules is a valid file.
const VALID: &str = "# café ✓ — a comment\n\
    library(name = \"base\", srcs = [\"base.rs\", \"util.rs\"])\n\
    library(\n    name = \"mid\",\n    srcs = [\"mid.rs\",],\n    deps = [\":base\"],\n)\n\
    test(name = \"mid_test\", srcs = [\"mid_test.rs\"], deps = [\"//pkg:mid\"], size = \"small\")\n\
    binary(name\u{a0}= \"app\", srcs = [\"main.rs\"], deps = [\"//pkg:mid\", \":base\"])\n\
    config(name = \"cfg\", srcs = [\"app.toml\"])  # trailing comment ✓\n";

#[test]
fn the_valid_file_parses_whole() {
    assert_eq!(parse(VALID.as_bytes()).unwrap().len(), 5);
}

#[test]
fn every_truncation_is_ok_or_a_parse_error() {
    let bytes = VALID.as_bytes();
    for end in 0..=bytes.len() {
        assert_ok_or_parse_error(&bytes[..end]);
    }
}

#[test]
fn a_one_mib_identifier_is_a_parse_error() {
    let ident = "a".repeat(1 << 20);
    assert!(matches!(
        parse(ident.as_bytes()),
        Err(BuildError::Parse { .. })
    ));
    // The same length as a name string is a valid, if odd, target.
    let rule = format!("library(name = \"{ident}\", srcs = [])");
    assert_eq!(parse(rule.as_bytes()).unwrap().len(), 1);
}

#[test]
fn a_hundred_thousand_brackets_are_a_parse_error() {
    let brackets = "[".repeat(100_000);
    for text in [
        brackets.clone(),
        format!("library(name = {brackets}"),
        format!("library(name = \"x\", srcs = {brackets}"),
    ] {
        assert!(matches!(
            parse(text.as_bytes()),
            Err(BuildError::Parse { .. })
        ));
    }
}

/// Bytes from the BUILD alphabet half the time, so the parser is reached
/// past its first token; none of its letters spell a rule kind, so no
/// random file declares a target.
fn build_byte() -> impl Strategy<Value = u8> {
    const ALPHABET: &[u8] = b"()[],=\"# \n\t_abl:/.";
    prop_oneof![any::<u8>(), (0..ALPHABET.len()).prop_map(|i| ALPHABET[i]),]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    #[test]
    fn random_bytes_are_ok_or_a_parse_error(
        bytes in proptest::collection::vec(build_byte(), 0..256),
    ) {
        assert_ok_or_parse_error(&bytes);
    }
}
