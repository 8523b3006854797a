//! `sq-bench`: see [`sq_bench::suite`] for the command line.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(sq_bench::suite::cli(&args));
}
