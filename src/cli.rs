//! Command interpreter for `sqctl` — a minimal operator console over a
//! [`SubmitQueueService`], playing the role of the paper's API service +
//! web UI (Section 7.1: "landing a change, and getting the state of a
//! change").
//!
//! The interpreter is a plain function from command line to response
//! string so it can be unit-tested without a terminal; `src/bin/sqctl.rs`
//! wraps it in a stdin/stdout loop.

use crate::core::service::{SubmitQueueService, TicketId, TicketState};
use crate::exec::StepOutcome;
use crate::vcs::{Patch, RepoPath, Repository};

/// The console: a service plus the demo step action.
pub struct Console {
    service: SubmitQueueService,
}

/// Result of interpreting one command.
pub enum Reply {
    /// Text to print.
    Text(String),
    /// Exit the console.
    Quit,
}

impl Default for Console {
    fn default() -> Self {
        Self::new()
    }
}

impl Console {
    /// A console over a demo monorepo (three packages, one dependency).
    pub fn new() -> Self {
        let repo = Repository::init([
            (
                "libs/util/BUILD",
                "library(name = \"util\", srcs = [\"u.rs\"])",
            ),
            ("libs/util/u.rs", "pub fn u() {}"),
            (
                "apps/app/BUILD",
                "binary(name = \"app\", srcs = [\"m.rs\"], deps = [\"//libs/util:util\"])",
            ),
            ("apps/app/m.rs", "fn main() {}"),
            ("cfg/BUILD", "config(name = \"cfg\", srcs = [\"c.json\"])"),
            ("cfg/c.json", "{}"),
        ])
        .expect("demo repo initializes");
        Console {
            service: SubmitQueueService::new(repo, 2),
        }
    }

    /// The demo step action: steps fail when the file `<pkg>/FAIL`
    /// exists, so failures can be staged from the console itself.
    fn action(step: &crate::exec::BuildStep, tree: &crate::vcs::Tree) -> StepOutcome {
        let marker = format!("{}/FAIL", step.target.package());
        let failed = tree.iter().any(|(p, _)| p.as_str() == marker);
        if failed {
            StepOutcome::Failure(format!("{marker} present"))
        } else {
            StepOutcome::Success
        }
    }

    /// Interpret one command line.
    ///
    /// Commands:
    /// * `submit <author> <path> <content…>` — queue a single-file write
    ///   against the current HEAD, returns the ticket id;
    /// * `process` — drain the queue (builds run for real);
    /// * `status <ticket>` — the paper's second API call;
    /// * `head` — current mainline commit;
    /// * `stats` — landed/rejected/queued + cache counters;
    /// * `cat <path>` — file contents at HEAD;
    /// * `verify` — rebuild every commit point from scratch;
    /// * `help`, `quit`.
    pub fn interpret(&self, line: &str) -> Reply {
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else {
            return Reply::Text(String::new());
        };
        match cmd {
            "quit" | "exit" => Reply::Quit,
            "help" => Reply::Text(
                "commands: submit <author> <path> <content…> | process | \
                 status <ticket> | head | stats | cat <path> | verify | quit"
                    .into(),
            ),
            "submit" => {
                let Some(author) = parts.next() else {
                    return Reply::Text("usage: submit <author> <path> <content…>".into());
                };
                let Some(path) = parts.next() else {
                    return Reply::Text("usage: submit <author> <path> <content…>".into());
                };
                let Ok(path) = RepoPath::new(path) else {
                    return Reply::Text(format!("invalid path '{path}'"));
                };
                let content: String = parts.collect::<Vec<_>>().join(" ");
                let base = self.service.head();
                let ticket = self.service.submit(
                    author,
                    format!("console edit of {path}"),
                    base,
                    Patch::write(path, content),
                );
                Reply::Text(format!("queued as {ticket}"))
            }
            "process" => {
                let n = self.service.run_until_idle(&Self::action);
                Reply::Text(format!(
                    "processed {n} change(s); HEAD = {}",
                    self.service.head()
                ))
            }
            "status" => {
                let Some(raw) = parts.next() else {
                    return Reply::Text("usage: status <ticket>".into());
                };
                let Ok(n) = raw.trim_start_matches('T').parse::<u64>() else {
                    return Reply::Text(format!("bad ticket '{raw}'"));
                };
                match self.service.status(TicketId(n)) {
                    Some(TicketState::Queued) => Reply::Text(format!("T{n}: queued")),
                    Some(TicketState::Landed(c)) => Reply::Text(format!("T{n}: landed at {c}")),
                    Some(TicketState::Rejected(why)) => {
                        Reply::Text(format!("T{n}: rejected — {why}"))
                    }
                    None => Reply::Text(format!("unknown ticket T{n}")),
                }
            }
            "head" => Reply::Text(format!("{}", self.service.head())),
            "stats" => Reply::Text(format!("{:?}", self.service.stats())),
            "cat" => {
                let Some(path) = parts.next() else {
                    return Reply::Text("usage: cat <path>".into());
                };
                match self.service.read_head_file(path) {
                    Some(content) => Reply::Text(content),
                    None => Reply::Text(format!("no such file '{path}' at HEAD")),
                }
            }
            "verify" => match self.service.verify_history(&Self::action) {
                Ok(n) => Reply::Text(format!("verified {n} commit point(s): all green")),
                Err(e) => Reply::Text(format!("RED MAINLINE: {e}")),
            },
            other => Reply::Text(format!("unknown command '{other}' (try 'help')")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(reply: Reply) -> String {
        match reply {
            Reply::Text(s) => s,
            Reply::Quit => panic!("unexpected quit"),
        }
    }

    #[test]
    fn submit_process_status_roundtrip() {
        let console = Console::new();
        let out = text(console.interpret("submit alice libs/util/u.rs pub fn u() { /* v2 */ }"));
        assert!(out.contains("queued as T1"), "{out}");
        let out = text(console.interpret("process"));
        assert!(out.contains("processed 1"), "{out}");
        let out = text(console.interpret("status T1"));
        assert!(out.contains("landed"), "{out}");
        let out = text(console.interpret("cat libs/util/u.rs"));
        assert!(out.contains("v2"), "{out}");
        let out = text(console.interpret("verify"));
        assert!(out.contains("all green"), "{out}");
    }

    #[test]
    fn staged_failure_rejects_and_master_stays_green() {
        let console = Console::new();
        // Stage a failure marker *and* touch the package source in one
        // queue: the marker write itself doesn't affect targets (FAIL is
        // not a src), so land it first, then break the build.
        text(console.interpret("submit mallory cfg/FAIL boom"));
        text(console.interpret("process"));
        text(console.interpret("submit mallory cfg/c.json {\"broken\":true}"));
        let out = text(console.interpret("process"));
        assert!(out.contains("processed 1"), "{out}");
        let out = text(console.interpret("status T2"));
        assert!(out.contains("rejected"), "{out}");
        // HEAD still has the original config.
        let out = text(console.interpret("cat cfg/c.json"));
        assert_eq!(out, "{}");
    }

    #[test]
    fn help_quit_and_errors() {
        let console = Console::new();
        assert!(text(console.interpret("help")).contains("submit"));
        assert!(matches!(console.interpret("quit"), Reply::Quit));
        assert!(text(console.interpret("status T99")).contains("unknown ticket"));
        assert!(text(console.interpret("frobnicate")).contains("unknown command"));
        assert!(text(console.interpret("submit onlyauthor")).contains("usage"));
        assert!(text(console.interpret("cat nope/nothing.rs")).contains("no such file"));
        assert_eq!(text(console.interpret("")), "");
    }

    #[test]
    fn status_of_queued_change() {
        let console = Console::new();
        text(console.interpret("submit bob apps/app/m.rs fn main() { new(); }"));
        let out = text(console.interpret("status 1"));
        assert!(out.contains("queued"), "{out}");
    }
}
