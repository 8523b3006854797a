//! One pinned digest over a whole snapshot analysis: every `(label,
//! TargetHash)` pair and the topological order of a layered workspace of
//! 60 packages, shaped like `sq_workload::repo_model`'s (sources per
//! package, dependencies on earlier layers) plus a test target per third
//! package and a binary per top-layer package. Any change to the parser,
//! the graph's order, Algorithm 1's byte stream or SHA-256 moves the
//! digest; a rewrite of those kernels must leave it where it is, and so
//! must what a package directory keeps between analyses.

use sq_build::{parse_workspace, TargetHashes};
use sq_vcs::{hash::to_hex, ObjectStore, Patch, RepoPath, Sha256, Tree};

const LAYERS: usize = 6;
const PER_LAYER: usize = 10;
const SRCS: usize = 3;

fn package(layer: usize, k: usize) -> String {
    format!("layer{layer}/pkg{k:02}")
}

/// The BUILD text of one package: a library over `SRCS` sources that
/// depends on one or two packages of lower layers, a test of it in every
/// third package, and a binary in every top-layer package.
fn build_file(layer: usize, k: usize) -> String {
    let srcs: Vec<String> = (0..SRCS).map(|s| format!("\"src_{s}.rs\"")).collect();
    let mut deps: Vec<String> = Vec::new();
    if layer > 0 {
        let below = package(layer - 1, (k * 7 + 3) % PER_LAYER);
        deps.push(format!("\"//{below}:lib\""));
        if k.is_multiple_of(2) {
            let far = package((layer + k) % layer, (k + layer) % PER_LAYER);
            deps.push(format!("\"//{far}:lib\""));
        }
    }
    let mut text = format!(
        "# layer {layer}, package {k}\nlibrary(\n    name = \"lib\",\n    srcs = [{}],\n    deps = [{}],\n)\n",
        srcs.join(", "),
        deps.join(", ")
    );
    if k.is_multiple_of(3) {
        text.push_str(
            "test(name = \"lib_test\", srcs = [\"lib_test.rs\"], deps = [\":lib\"], size = \"small\")\n",
        );
    }
    if layer == LAYERS - 1 {
        text.push_str("binary(name = \"app\", srcs = [\"main.rs\"], deps = [\":lib\"])\n");
    }
    text
}

fn workspace() -> (Tree, ObjectStore) {
    let mut store = ObjectStore::new();
    let mut tree = Tree::new();
    let mut put = |path: String, content: String| {
        let id = store.put(content.into_bytes());
        tree.insert(RepoPath::new(path).unwrap(), id).unwrap();
    };
    for layer in 0..LAYERS {
        for k in 0..PER_LAYER {
            let pkg = package(layer, k);
            for s in 0..SRCS {
                put(
                    format!("{pkg}/src_{s}.rs"),
                    format!(
                        "// {pkg} source {s}\npub fn f{s}() -> u32 {{ {} }}\n",
                        layer * k + s
                    ),
                );
            }
            put(format!("{pkg}/lib_test.rs"), format!("// tests of {pkg}\n"));
            put(
                format!("{pkg}/main.rs"),
                format!("fn main() {{ /* {pkg} */ }}\n"),
            );
            put(format!("{pkg}/BUILD"), build_file(layer, k));
        }
    }
    (tree, store)
}

/// The digest of one analysis: every `(label, hash)` pair, then the
/// topological order.
fn digest(tree: &Tree, store: &ObjectStore) -> String {
    let graph = parse_workspace(tree, store).unwrap();
    let hashes = TargetHashes::compute(&graph, tree, store).unwrap();
    assert_eq!(graph.len(), 60 + 24 + 10);
    let mut digest = Sha256::new();
    for (name, hash) in hashes.iter() {
        digest.update(name.to_string().as_bytes());
        digest.update(b"\0");
        digest.update(hash.as_bytes());
    }
    digest.update(b"topo");
    for name in graph.topo_order() {
        digest.update(name.to_string().as_bytes());
        digest.update(b"\0");
    }
    to_hex(&digest.finalize())
}

/// Pinned on a first call, on a second over the same tree (where every
/// package directory keeps its targets and source states, and the root
/// the graph and its hashes), over a `Tree::load` copy (where none keeps
/// anything), and over the same content in other directory nodes: the
/// tree after a patch and its inverse, analysed from what the first tree
/// kept (a source edit keeps its graph; a BUILD edit builds a new one).
#[test]
fn hashes_and_topological_order_of_a_layered_workspace_are_pinned() {
    let pinned = "4d5a97deedd46fdcf934a13d2e02bb4d95457dc14a1359816fe775181a3a39a4";
    let (tree, mut store) = workspace();
    assert_eq!(digest(&tree, &store), pinned);
    assert_eq!(digest(&tree, &store), pinned);
    for file in ["layer2/pkg04/src_1.rs", "layer3/pkg05/BUILD"] {
        let path = RepoPath::new(file).unwrap();
        let was = store.get_text(&tree.get(&path).unwrap()).unwrap();
        let edited = Patch::write(path.clone(), "# edited\n")
            .apply(&tree, &mut store)
            .unwrap();
        let restored = Patch::write(path, was).apply(&edited, &mut store).unwrap();
        assert_eq!(digest(&restored, &store), pinned, "{file}");
    }
    let root = tree.store(&mut store);
    assert_eq!(digest(&Tree::load(&store, root).unwrap(), &store), pinned);
}
