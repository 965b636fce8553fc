fn main() -> std::process::ExitCode {
    pp_bench::run::main_as("e9_comparison")
}
