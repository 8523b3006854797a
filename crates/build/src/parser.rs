//! BUILD-file parsing (paper Section 5.1).
//!
//! Each package directory declares its targets in a `BUILD` file written
//! in a small Starlark-like subset: a sequence of rule calls
//!
//! ```text
//! library(
//!     name = "util",
//!     srcs = ["util.rs", "helpers.rs"],  # package-relative
//!     deps = ["//base:log", ":strings"],
//! )
//! ```
//!
//! [`parse_workspace`] reads every `BUILD` file in a snapshot and returns
//! the validated [`BuildGraph`]. Parsing is hermetic: it consumes only the
//! `Tree` and `ObjectStore`, so two calls on equal snapshots yield
//! structurally equal graphs — which is what lets the conflict analyzer
//! compare graphs across speculative merges (Section 5.2).

use crate::error::BuildError;
use crate::graph::{BuildGraph, RuleKind, Target, TargetName};
use crate::hash::{Hashed, Sources};
use sq_vcs::{ObjectId, ObjectStore, RepoPath, Tree};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Parse all BUILD files in the snapshot into a validated target graph.
///
/// Each package directory keeps the targets its BUILD file declares, so
/// a later call over a tree sharing the directory parses nothing there,
/// and neither does one over a tree written from it that left the BUILD
/// blob as it was, while the tree written from lives. The root directory
/// keeps the graph, so a later call over the same tree, or over one
/// written from it whose packages all keep the targets the graph was
/// built from, builds no graph either.
pub fn parse_workspace(tree: &Tree, store: &ObjectStore) -> Result<BuildGraph, BuildError> {
    let root = tree.root_slot();
    let here = root.get::<Kept>().and_then(|k| k.workspace.get());
    let stale = root.stale::<Kept>();
    // The graph this tree keeps, or else the one the tree it was written
    // from keeps.
    let reusable = here.or_else(|| stale.as_deref()?.workspace.get());
    let mut same = true;
    let mut packages: Vec<Arc<Package>> = Vec::new();
    for (path, blob, slot) in tree.files_named("BUILD") {
        // Reused only for the same BUILD file and blob, and while the
        // store holds the blob, which a parse from nothing would read. A
        // directory kept as it is shares its path with the tree.
        let parsed_here = |kept: &&Arc<Package>| {
            kept.build == blob
                && (std::ptr::eq(&*kept.path, &**path) || kept.path == *path)
                && store.contains(&blob)
        };
        let kept = &slot.get_or_keep(Kept::default).package;
        let package = match kept.get().filter(parsed_here) {
            Some(package) => Arc::clone(package),
            None => {
                let stale = slot.stale::<Kept>();
                let targets = match stale
                    .as_deref()
                    .and_then(|k| k.package.get())
                    .filter(parsed_here)
                {
                    Some(stale) => Arc::clone(&stale.targets),
                    None => {
                        let bytes = store
                            .get(&blob)
                            .ok_or_else(|| BuildError::MissingObject(blob.to_hex()))?;
                        // Borrowed unless the blob is not UTF-8; tokens borrow from it.
                        let text = String::from_utf8_lossy(bytes);
                        crate::work::build_parsed();
                        let package = path.parent().unwrap_or("");
                        parse_build_file(path.as_str(), package, &text)?.into()
                    }
                };
                // A concurrent call may have kept its own parse first.
                let package = kept.get_or_init(|| {
                    Arc::new(Package {
                        build: blob,
                        path: Arc::clone(path),
                        targets,
                        sources: OnceLock::new(),
                    })
                });
                Arc::clone(package)
            }
        };
        // Compared by identity: the workspace holds what it compares.
        same = same
            && reusable
                .and_then(|w| w.packages.get(packages.len()))
                .is_some_and(|was| {
                    Arc::ptr_eq(was, &package) || Arc::ptr_eq(&was.targets, &package.targets)
                });
        packages.push(package);
    }
    let (graph, runs) = match reusable.filter(|w| same && w.packages.len() == packages.len()) {
        Some(kept) if here.is_some() => return Ok(kept.graph.clone()),
        Some(stale) => (stale.graph.clone(), Arc::clone(&stale.runs)),
        None => {
            crate::work::graph_built();
            let targets = packages.iter().flat_map(|p| p.targets.iter().cloned());
            let graph = BuildGraph::from_targets(targets)?;
            let runs = packages
                .iter()
                .map(|p| graph.package_run(p.path.parent().unwrap_or("")))
                .collect();
            (graph, runs)
        }
    };
    // A concurrent call may have kept a graph of the same targets first.
    root.get_or_keep(Kept::default)
        .workspace
        .get_or_init(|| Workspace {
            packages,
            runs,
            graph: graph.clone(),
            hashed: OnceLock::new(),
        });
    Ok(graph)
}

/// What a directory keeps of an analysis in its [`sq_vcs::tree::Derived`]
/// slot: its package's, if it holds a BUILD file, and on the root, the
/// whole tree's. The root may be a package too, so both have a place.
#[derive(Default)]
pub(crate) struct Kept {
    pub(crate) package: OnceLock<Arc<Package>>,
    pub(crate) workspace: OnceLock<Workspace>,
}

/// What a package directory keeps: the targets its BUILD file declares,
/// and, once a hash has run over the directory as it is, each target's
/// Algorithm-1 state after its sources ([`Sources`]). A write at or below
/// the directory leaves it stale, and [`parse_workspace`] then reuses
/// only the targets, and only if the BUILD blob is the one they came
/// from.
pub(crate) struct Package {
    /// The BUILD blob and file the targets were parsed from.
    build: ObjectId,
    path: Arc<RepoPath>,
    /// In declaration order, which decides the duplicate a graph reports.
    targets: Arc<[Target]>,
    /// Kept by the first [`crate::TargetHashes::compute`] over the
    /// directory as it is.
    pub(crate) sources: OnceLock<Sources>,
}

/// What the root directory keeps of the whole tree: the graph, each
/// package directory's package, and once hashed over the tree as it is,
/// the hashes ([`Hashed`]). A write anywhere leaves it stale:
/// [`parse_workspace`] then reuses the graph only when every package
/// still keeps the very targets it was built from, and
/// [`crate::TargetHashes::compute`] reuses a hash only where its inputs
/// are the ones it was finalized from.
pub(crate) struct Workspace {
    /// Each BUILD file's, in path order: the tree's own, which live as
    /// long as its root. A package holds nothing of the workspace, so
    /// the root's own, if it is a package, makes no cycle.
    packages: Vec<Arc<Package>>,
    /// Per package, the positions of its targets in `graph`.
    runs: Arc<[Range<usize>]>,
    graph: BuildGraph,
    pub(crate) hashed: OnceLock<Hashed>,
}

impl Kept {
    /// The workspace kept here, if it holds `graph`.
    pub(crate) fn workspace_of(&self, graph: &BuildGraph) -> Option<&Workspace> {
        self.workspace.get().filter(|w| w.graph.ptr_eq(graph))
    }

    /// The last hash of the workspace kept here.
    pub(crate) fn hashed(&self) -> Option<&Hashed> {
        self.workspace.get()?.hashed.get()
    }
}

impl Workspace {
    /// Each package of the tree, with the positions of its targets.
    pub(crate) fn packages(&self) -> impl Iterator<Item = (Range<usize>, &Package)> {
        self.runs
            .iter()
            .cloned()
            .zip(self.packages.iter().map(|p| &**p))
    }
}

/// Parse one BUILD file's rule calls into targets of `package`.
fn parse_build_file(path: &str, package: &str, text: &str) -> Result<Vec<Target>, BuildError> {
    let tokens = tokenize(path, text)?;
    let mut p = Parser {
        path,
        package,
        tokens: &tokens,
        pos: 0,
    };
    let mut targets = Vec::new();
    while !p.at_end() {
        targets.push(p.rule()?);
    }
    Ok(targets)
}

/// A token; identifiers and string literals borrow the file's text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Token<'a> {
    Ident(&'a str),
    Str(&'a str),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Equals,
}

impl Token<'_> {
    fn describe(&self) -> String {
        match self {
            Token::Ident(s) => format!("identifier '{s}'"),
            Token::Str(s) => format!("string {s:?}"),
            Token::LParen => "'('".into(),
            Token::RParen => "')'".into(),
            Token::LBracket => "'['".into(),
            Token::RBracket => "']'".into(),
            Token::Comma => "','".into(),
            Token::Equals => "'='".into(),
        }
    }
}

/// Split `text` into tokens. Every token but whitespace is ASCII, so the
/// scan walks bytes and decodes a `char` only to skip non-ASCII
/// whitespace or to name an unexpected character.
fn tokenize<'a>(path: &str, text: &'a str) -> Result<Vec<Token<'a>>, BuildError> {
    let err = |message: String| BuildError::Parse {
        path: path.to_string(),
        message,
    };
    let bytes = text.as_bytes();
    // The length of the run at `from` of bytes that `keep` accepts.
    let run = |from: usize, keep: fn(u8) -> bool| {
        bytes[from..]
            .iter()
            .position(|&b| !keep(b))
            .unwrap_or(bytes.len() - from)
    };
    // BUILD files run about four bytes a token.
    let mut tokens = Vec::with_capacity(bytes.len() / 4);
    let mut i = 0;
    while i < bytes.len() {
        let token = match bytes[i] {
            b'#' => {
                // Comment to end of line.
                i += run(i, |b| b != b'\n') + 1;
                continue;
            }
            b' ' | b'\t' | b'\n' | b'\r' => {
                i += 1;
                continue;
            }
            b'(' => Token::LParen,
            b')' => Token::RParen,
            b'[' => Token::LBracket,
            b']' => Token::RBracket,
            b',' => Token::Comma,
            b'=' => Token::Equals,
            b'"' => {
                let start = i + 1;
                let end = start + run(start, |b| b != b'"' && b != b'\n');
                if bytes.get(end) != Some(&b'"') {
                    return Err(err("unterminated string literal".into()));
                }
                tokens.push(Token::Str(&text[start..end]));
                i = end + 1;
                continue;
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let end = i + run(i, |b| b.is_ascii_alphanumeric() || b == b'_');
                tokens.push(Token::Ident(&text[i..end]));
                i = end;
                continue;
            }
            _ => {
                let c = text[i..]
                    .chars()
                    .next()
                    .expect("the scan stops on char boundaries");
                if c.is_whitespace() {
                    i += c.len_utf8();
                    continue;
                }
                return Err(err(format!("unexpected character '{c}'")));
            }
        };
        tokens.push(token);
        i += 1;
    }
    Ok(tokens)
}

struct Parser<'t, 'a> {
    path: &'a str,
    package: &'a str,
    tokens: &'t [Token<'a>],
    pos: usize,
}

/// An attribute value: a string or a list of strings.
enum Value<'a> {
    Str(&'a str),
    List(Vec<&'a str>),
}

impl<'a> Parser<'_, 'a> {
    fn err(&self, message: String) -> BuildError {
        BuildError::Parse {
            path: self.path.to_string(),
            message,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn next(&mut self, wanted: &str) -> Result<Token<'a>, BuildError> {
        let t = *self
            .tokens
            .get(self.pos)
            .ok_or_else(|| self.err(format!("expected {wanted}, found end of file")))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, token: Token) -> Result<(), BuildError> {
        let found = self.next(&token.describe())?;
        if found == token {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                token.describe(),
                found.describe()
            )))
        }
    }

    fn peek_is(&self, token: Token) -> bool {
        self.tokens.get(self.pos) == Some(&token)
    }

    /// `kind ( name = "...", srcs = [...], deps = [...] )`
    fn rule(&mut self) -> Result<Target, BuildError> {
        let kind = match self.next("a rule name")? {
            Token::Ident(s) => RuleKind::from_rule_name(s)
                .ok_or_else(|| self.err(format!("unknown rule kind '{s}'")))?,
            other => {
                return Err(self.err(format!("expected a rule name, found {}", other.describe())))
            }
        };
        self.expect(Token::LParen)?;
        let mut name: Option<&str> = None;
        let mut srcs: Vec<&str> = Vec::new();
        let mut deps: Vec<&str> = Vec::new();
        while !self.peek_is(Token::RParen) {
            let attr = match self.next("an attribute name")? {
                Token::Ident(s) => s,
                other => {
                    return Err(
                        self.err(format!("expected an attribute, found {}", other.describe()))
                    )
                }
            };
            self.expect(Token::Equals)?;
            let value = self.value()?;
            match (attr, value) {
                ("name", Value::Str(s)) => name = Some(s),
                ("name", Value::List(_)) => return Err(self.err("'name' must be a string".into())),
                ("srcs", Value::List(l)) => srcs = l,
                ("srcs", Value::Str(_)) => return Err(self.err("'srcs' must be a list".into())),
                ("deps", Value::List(l)) => deps = l,
                ("deps", Value::Str(_)) => return Err(self.err("'deps' must be a list".into())),
                // Unknown attributes (visibility, tags, ...) are tolerated
                // and ignored, as in Buck.
                _ => {}
            }
            if self.peek_is(Token::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.expect(Token::RParen)?;
        let name = name.ok_or_else(|| self.err("rule is missing the 'name' attribute".into()))?;
        let target_name = TargetName::resolve(&format!(":{name}"), self.package)?;
        let mut full = String::new();
        let srcs = srcs
            .iter()
            .map(|&s| {
                let path = if self.package.is_empty() {
                    s
                } else {
                    full.clear();
                    full.push_str(self.package);
                    full.push('/');
                    full.push_str(s);
                    &full
                };
                RepoPath::new(path).map_err(|_| self.err(format!("invalid source path '{s}'")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let deps = deps
            .iter()
            .map(|d| TargetName::resolve(d, self.package))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Target::new(target_name, kind, srcs, deps))
    }

    fn value(&mut self) -> Result<Value<'a>, BuildError> {
        match self.next("a value")? {
            Token::Str(s) => Ok(Value::Str(s)),
            Token::LBracket => {
                let mut items = Vec::new();
                while !self.peek_is(Token::RBracket) {
                    match self.next("a string")? {
                        Token::Str(s) => items.push(s),
                        other => {
                            return Err(self.err(format!(
                                "expected a string in list, found {}",
                                other.describe()
                            )))
                        }
                    }
                    if self.peek_is(Token::Comma) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                self.expect(Token::RBracket)?;
                Ok(Value::List(items))
            }
            other => Err(self.err(format!("expected a value, found {}", other.describe()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    fn workspace(files: &[(&str, &str)]) -> (Tree, ObjectStore) {
        let mut store = ObjectStore::new();
        let mut tree = Tree::new();
        for (p, c) in files {
            let id = store.put(c.as_bytes().to_vec());
            tree.insert(RepoPath::new(p).unwrap(), id).unwrap();
        }
        (tree, store)
    }

    #[test]
    fn parses_a_small_workspace() {
        let (tree, store) = workspace(&[
            (
                "base/BUILD",
                "library(name = \"log\", srcs = [\"log.rs\"])\n",
            ),
            (
                "app/BUILD",
                "binary(\n  name = \"app\",\n  srcs = [\"main.rs\"],\n  deps = [\"//base:log\"],\n)\n",
            ),
            ("base/log.rs", "fn log() {}"),
            ("app/main.rs", "fn main() {}"),
        ]);
        let g = parse_workspace(&tree, &store).unwrap();
        assert_eq!(g.len(), 2);
        let app = g.get(&TargetName::from_str("//app:app").unwrap()).unwrap();
        assert_eq!(app.kind, RuleKind::Binary);
        assert_eq!(app.srcs, vec![RepoPath::new("app/main.rs").unwrap()]);
        assert_eq!(app.deps, vec![TargetName::from_str("//base:log").unwrap()]);
    }

    #[test]
    fn relative_deps_comments_and_unknown_attrs() {
        let (tree, store) = workspace(&[(
            "pkg/BUILD",
            "# two targets, one relative dep\n\
             library(name = \"a\", srcs = [\"a.rs\"], visibility = [\"PUBLIC\"])\n\
             test(name = \"a_test\", srcs = [\"a_test.rs\"], deps = [\":a\"], size = \"small\")\n",
        )]);
        let g = parse_workspace(&tree, &store).unwrap();
        let t = g
            .get(&TargetName::from_str("//pkg:a_test").unwrap())
            .unwrap();
        assert_eq!(t.kind, RuleKind::Test);
        assert_eq!(t.deps, vec![TargetName::from_str("//pkg:a").unwrap()]);
    }

    #[test]
    fn trailing_commas_are_fine() {
        let (tree, store) = workspace(&[(
            "p/BUILD",
            "library(name = \"p\", srcs = [\"s.rs\",], deps = [],)\n",
        )]);
        assert_eq!(parse_workspace(&tree, &store).unwrap().len(), 1);
    }

    #[test]
    fn parse_errors_carry_path_and_message() {
        for (bad, needle) in [
            ("library(name = \"x\"", "end of file"),
            ("library(srcs = [\"s.rs\"])", "missing the 'name'"),
            ("library(name = [\"x\"])", "'name' must be a string"),
            ("genrule(name = \"x\")", "unknown rule kind"),
            ("library(name = \"x\") @", "unexpected character"),
            ("library(name = \"x", "unterminated string"),
        ] {
            let (tree, store) = workspace(&[("p/BUILD", bad)]);
            match parse_workspace(&tree, &store) {
                Err(BuildError::Parse { path, message }) => {
                    assert_eq!(path, "p/BUILD");
                    assert!(
                        message.contains(needle),
                        "for {bad:?}: {message:?} should mention {needle:?}"
                    );
                }
                other => panic!("expected parse error for {bad:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn dangling_dep_is_rejected_at_graph_level() {
        let (tree, store) = workspace(&[(
            "p/BUILD",
            "library(name = \"p\", srcs = [\"s.rs\"], deps = [\"//gone:gone\"])\n",
        )]);
        assert!(matches!(
            parse_workspace(&tree, &store),
            Err(BuildError::UnknownDependency { .. })
        ));
    }

    #[test]
    fn non_build_files_are_ignored() {
        let (tree, store) = workspace(&[
            ("a/BUILD", "library(name = \"a\", srcs = [])\n"),
            ("a/BUILD.bak", "not ( valid"),
            ("notes/README", "plain text"),
        ]);
        assert_eq!(parse_workspace(&tree, &store).unwrap().len(), 1);
    }

    #[test]
    fn root_package_build_file() {
        let (tree, store) = workspace(&[("BUILD", "config(name = \"root\", srcs = [\"cfg\"])\n")]);
        let g = parse_workspace(&tree, &store).unwrap();
        let t = g.get(&TargetName::from_str("//:root").unwrap()).unwrap();
        assert_eq!(t.srcs, vec![RepoPath::new("cfg").unwrap()]);
    }
}
