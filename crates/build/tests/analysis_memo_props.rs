//! What a package directory keeps of an analysis never changes a result
//! (DESIGN.md invariant 3). Over a random layered workspace shaped like
//! `analysis_pin.rs`'s, a random sequence of patches — source edits and
//! deletions, BUILD rewrites that add or drop sources, deps or a test
//! target, packages deleted and created, a BUILD file broken and then
//! repaired — is applied one after another. At every step the analysis of
//! the patched tree, whose untouched directories keep what earlier steps
//! derived, equals the analysis of a cold copy of it (`Tree::load` builds
//! fresh directories that keep nothing): the same topological order, the
//! same hashes and the same affected set against the previous step, or
//! the same error. A twin of the step, the same patch applied to the same
//! parent once more, and a second call over the same tree agree too.

use proptest::prelude::*;
use sq_build::{AffectedSet, BuildError, SnapshotAnalysis, TargetName};
use sq_vcs::{FileOp, ObjectStore, Patch, RepoPath, Tree};

const LAYERS: usize = 3;
const PER_LAYER: usize = 3;
const PACKAGES: usize = LAYERS * PER_LAYER;
const SRCS: usize = 3;

/// The last package of each layer sits inside the first one's directory,
/// so a package directory also holds another package.
fn package(i: usize) -> String {
    let (layer, k) = (i / PER_LAYER, i % PER_LAYER);
    if k == PER_LAYER - 1 {
        format!("layer{layer}/pkg0/inner")
    } else {
        format!("layer{layer}/pkg{k}")
    }
}

/// Package-relative path of source `s`; the last one is one level down.
fn source(s: usize) -> String {
    if s == SRCS - 1 {
        format!("deep/src_{s}.rs")
    } else {
        format!("src_{s}.rs")
    }
}

fn path(s: &str) -> RepoPath {
    RepoPath::new(s).unwrap()
}

/// One package as its BUILD file declares it.
#[derive(Debug, Clone)]
struct Package {
    present: bool,
    /// Bit `s` set: the library declares source `s`.
    srcs: u8,
    /// Bit `j` set: the library depends on package `j`, in a lower layer.
    deps: u16,
    test: bool,
    broken: bool,
}

impl Package {
    fn build_file(&self) -> String {
        if self.broken {
            return "library(name = \"lib\", srcs = [".into();
        }
        let srcs: Vec<String> = (0..SRCS)
            .filter(|s| self.srcs & (1 << s) != 0)
            .map(|s| format!("\"{}\"", source(s)))
            .collect();
        let deps: Vec<String> = (0..PACKAGES)
            .filter(|j| self.deps & (1 << j) != 0)
            .map(|j| format!("\"//{}:lib\"", package(j)))
            .collect();
        let mut text = format!(
            "library(\n    name = \"lib\",\n    srcs = [{}],\n    deps = [{}],\n)\n",
            srcs.join(", "),
            deps.join(", ")
        );
        if self.test {
            text.push_str("test(name = \"lib_test\", srcs = [\"src_0.rs\"], deps = [\":lib\"])\n");
        }
        text
    }
}

/// Deps only on lower layers, so only a deleted package breaks the graph.
fn lower_layers(i: usize) -> u16 {
    (1u16 << ((i / PER_LAYER) * PER_LAYER)) - 1
}

struct Workspace {
    packages: Vec<Package>,
    tree: Tree,
    store: ObjectStore,
    revision: usize,
    repair: Option<Repair>,
}

impl Workspace {
    fn new(seeds: &[(u8, u16, bool)]) -> Workspace {
        let packages: Vec<Package> = seeds
            .iter()
            .enumerate()
            .map(|(i, &(srcs, deps, test))| Package {
                present: true,
                srcs,
                deps: deps & lower_layers(i),
                test,
                broken: false,
            })
            .collect();
        let mut ws = Workspace {
            packages,
            tree: Tree::new(),
            store: ObjectStore::new(),
            revision: 0,
            repair: None,
        };
        let ops: Vec<FileOp> = (0..PACKAGES).flat_map(|i| ws.create(i)).collect();
        ws.tree = Patch::from_ops(ops)
            .apply(&Tree::new(), &mut ws.store)
            .unwrap();
        ws
    }

    fn write(&mut self, p: String) -> FileOp {
        self.revision += 1;
        FileOp::Write {
            content: format!("// {p} at revision {}\n", self.revision),
            path: path(&p),
        }
    }

    fn rewrite(&self, i: usize) -> FileOp {
        FileOp::Write {
            path: path(&format!("{}/BUILD", package(i))),
            content: self.packages[i].build_file(),
        }
    }

    fn create(&mut self, i: usize) -> Vec<FileOp> {
        self.packages[i].present = true;
        let mut ops: Vec<FileOp> = (0..SRCS)
            .map(|s| self.write(format!("{}/{}", package(i), source(s))))
            .collect();
        ops.push(self.rewrite(i));
        ops
    }

    /// The patch of one random step. A step that leaves the workspace
    /// unbuildable (a broken BUILD file, a declared source deleted, the
    /// dependents of a deleted package left dangling) is repaired by the
    /// next one.
    fn patch(&mut self, (op, a, b): (u8, usize, usize)) -> Patch {
        let mut ops = match self.repair.take() {
            Some(Repair::Build(j)) => {
                self.packages[j].broken = false;
                vec![self.rewrite(j)]
            }
            Some(Repair::Source(p)) => vec![self.write(p)],
            Some(Repair::Dependents(i)) => self.drop_dependents(i),
            None => Vec::new(),
        };
        let i = a % PACKAGES;
        if !self.packages[i].present {
            ops.extend(self.create(i));
            return Patch::from_ops(ops);
        }
        let file = |s: usize| format!("{}/{}", package(i), source(s));
        match op {
            0 => ops.push(self.write(file(b % SRCS))),
            1 => {
                self.packages[i].srcs ^= 1 << (b % SRCS);
                ops.push(self.rewrite(i));
            }
            2 => {
                self.packages[i].deps ^= (1 << (b % PACKAGES)) & lower_layers(i);
                ops.push(self.rewrite(i));
            }
            3 => {
                self.packages[i].test ^= true;
                ops.push(self.rewrite(i));
            }
            4 => {
                // Delete the package: its BUILD and its own sources.
                self.packages[i].present = false;
                ops.push(FileOp::Delete {
                    path: path(&format!("{}/BUILD", package(i))),
                });
                let own = (0..SRCS).map(file).filter(|p| self.tree.contains(&path(p)));
                ops.extend(
                    own.map(|p| FileOp::Delete { path: path(&p) })
                        .collect::<Vec<_>>(),
                );
                if b % 2 == 0 {
                    ops.extend(self.drop_dependents(i));
                } else {
                    self.repair = Some(Repair::Dependents(i));
                }
            }
            5 => {
                self.packages[i].broken = true;
                ops.push(self.rewrite(i));
                self.repair = Some(Repair::Build(i));
            }
            _ => {
                // Delete a source, and undeclare it or leave it dangling.
                let (s, p) = (b % SRCS, file(b % SRCS));
                if self.tree.contains(&path(&p)) {
                    ops.push(FileOp::Delete { path: path(&p) });
                    if b % 2 == 0 {
                        self.packages[i].srcs &= !(1 << s);
                        if s == 0 {
                            self.packages[i].test = false;
                        }
                        ops.push(self.rewrite(i));
                    } else {
                        self.repair = Some(Repair::Source(p));
                    }
                }
            }
        }
        Patch::from_ops(ops)
    }

    /// Rewrite every package that depends on package `i` to stop.
    fn drop_dependents(&mut self, i: usize) -> Vec<FileOp> {
        let dependents: Vec<usize> = (0..PACKAGES)
            .filter(|&j| self.packages[j].present && self.packages[j].deps & (1 << i) != 0)
            .collect();
        dependents
            .into_iter()
            .map(|j| {
                self.packages[j].deps &= !(1 << i);
                self.rewrite(j)
            })
            .collect()
    }
}

/// What the next step puts right.
enum Repair {
    Build(usize),
    Source(String),
    Dependents(usize),
}

/// What the property compares: the order and hashes, or the error.
type Outcome = Result<(Vec<TargetName>, SnapshotAnalysis), BuildError>;

fn analyze(tree: &Tree, store: &ObjectStore) -> Outcome {
    SnapshotAnalysis::analyze(tree, store).map(|a| (a.graph.topo_order().cloned().collect(), a))
}

fn same(a: &Outcome, b: &Outcome) -> bool {
    match (a, b) {
        (Ok((order_a, a)), Ok((order_b, b))) => order_a == order_b && a.hashes == b.hashes,
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

fn affected(before: &Outcome, now: &Outcome) -> Option<AffectedSet> {
    match (before, now) {
        (Ok((_, before)), Ok((_, now))) => Some(AffectedSet::between(before, now)),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn what_directories_keep_never_changes_an_analysis(
        seeds in proptest::collection::vec((0u8..8, any::<u16>(), any::<bool>()), PACKAGES..PACKAGES + 1),
        steps in proptest::collection::vec((0u8..7, 0usize..64, 0usize..64), 1..24),
    ) {
        let mut ws = Workspace::new(&seeds);
        let mut warm = analyze(&ws.tree, &ws.store);
        let root = ws.tree.store(&mut ws.store);
        let mut cold = analyze(&Tree::load(&ws.store, root).unwrap(), &ws.store);
        prop_assert!(same(&warm, &cold), "initial: {:?} vs {:?}", warm.as_ref().err(), cold.as_ref().err());
        for (n, &step) in steps.iter().enumerate() {
            let patch = ws.patch(step);
            let parent = ws.tree.clone();
            ws.tree = patch.apply(&parent, &mut ws.store).unwrap();
            let twin = patch.apply(&parent, &mut ws.store).unwrap();

            let now = analyze(&ws.tree, &ws.store);
            let root = ws.tree.store(&mut ws.store);
            let now_cold = analyze(&Tree::load(&ws.store, root).unwrap(), &ws.store);
            prop_assert!(
                same(&now, &now_cold),
                "step {n} {step:?}: kept {:?} vs cold {:?}",
                now.as_ref().err(),
                now_cold.as_ref().err()
            );
            prop_assert_eq!(affected(&warm, &now), affected(&cold, &now_cold), "step {} {:?}", n, step);
            prop_assert!(same(&analyze(&twin, &ws.store), &now_cold), "step {n}: twin");
            prop_assert!(same(&analyze(&ws.tree, &ws.store), &now_cold), "step {n}: again");
            (warm, cold) = (now, now_cold);
        }
    }
}
