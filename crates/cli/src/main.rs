//! `minoan` binary entry point.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match minoan_cli::run(&argv) {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
