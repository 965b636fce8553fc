//! `ppsim` — command-line runner for the paper's protocols and the E1–E15
//! experiments. Every command is a row of the command table in
//! `pp_bench::run`: `ppsim` with no arguments prints the usage text
//! rendered from it, and `ppsim profile <command>` profiles any run command
//! or experiment.

fn main() -> std::process::ExitCode {
    pp_bench::run::main()
}
